#include "bench_lib.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty() || !(q > 0 && q <= 1)) {
    throw std::invalid_argument("Percentile needs samples and q in (0, 1]");
  }
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

bool PercentileSupported(size_t n, double q, size_t beyond) {
  if (n == 0) return false;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - rank >= beyond;
}

std::vector<double> PoissonSchedule(Rng& rng, double rate_per_s, size_t n) {
  if (!(rate_per_s > 0)) {
    throw std::invalid_argument("PoissonSchedule needs rate > 0");
  }
  std::vector<double> at(n);
  double t = 0;
  for (double& a : at) {
    t += -std::log(1.0 - rng.Uniform()) / rate_per_s;
    a = t;
  }
  return at;
}

CorpusGenerator::CorpusGenerator(const CorpusShape& shape, uint64_t seed)
    : shape_(shape), rng_(seed) {
  zipf_cdf_.resize(shape_.vocab);
  double total = 0;
  for (uint32_t v = 0; v < shape_.vocab; ++v) {
    total += 1.0 / std::pow(static_cast<double>(v + 1), shape_.zipf_exponent);
    zipf_cdf_[v] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
  // Each generative topic owns a random window of the vocabulary; windows
  // may overlap, as real topics share words.
  Rng topic_rng(shape_.topic_seed);
  topic_offset_.resize(shape_.gen_topics);
  for (uint32_t& off : topic_offset_) {
    off = static_cast<uint32_t>(
        topic_rng.Below(shape_.vocab - shape_.topic_window));
  }
}

uint32_t CorpusGenerator::ZipfWord() {
  const double u = rng_.Uniform();
  const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - zipf_cdf_.begin(), shape_.vocab - 1));
}

std::vector<uint32_t> CorpusGenerator::Doc(double mean_len, double len_sigma) {
  const double s = len_sigma;
  const double len_d = mean_len * std::exp(s * rng_.Normal() - 0.5 * s * s);
  const size_t len = std::max<size_t>(shape_.min_doc_len,
                                      static_cast<size_t>(std::lround(len_d)));
  std::vector<uint32_t> topics(shape_.topics_per_doc);
  for (uint32_t& t : topics) {
    t = static_cast<uint32_t>(rng_.Below(shape_.gen_topics));
  }
  std::vector<uint32_t> doc(len);
  for (uint32_t& w : doc) {
    if (rng_.Uniform() < shape_.topic_mass) {
      const uint32_t t = topics[rng_.Below(topics.size())];
      w = topic_offset_[t] +
          static_cast<uint32_t>(rng_.Below(shape_.topic_window));
    } else {
      w = ZipfWord();
    }
  }
  return doc;
}

double PruneHeavyWords(Docs& docs, uint32_t vocab, uint64_t cap) {
  std::vector<uint64_t> freq(vocab, 0);
  uint64_t total = 0;
  for (const auto& d : docs) {
    for (const uint32_t w : d) ++freq[w];
    total += d.size();
  }
  uint64_t removed = 0;
  for (auto& d : docs) {
    const auto end = std::remove_if(d.begin(), d.end(),
                                    [&](uint32_t w) { return freq[w] > cap; });
    removed += static_cast<uint64_t>(d.end() - end);
    d.erase(end, d.end());
  }
  docs.erase(std::remove_if(docs.begin(), docs.end(),
                            [](const auto& d) { return d.empty(); }),
             docs.end());
  return total == 0 ? 0.0
                    : static_cast<double>(removed) / static_cast<double>(total);
}

void WriteUci(const Docs& docs, uint32_t vocab, const std::string& path) {
  std::vector<std::map<uint32_t, uint32_t>> counts(docs.size());
  uint64_t nnz = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const uint32_t w : docs[d]) ++counts[d][w];
    nnz += counts[d].size();
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "%zu\n%u\n%llu\n", docs.size(), vocab,
               static_cast<unsigned long long>(nnz));
  for (size_t d = 0; d < docs.size(); ++d) {
    for (const auto& [w, c] : counts[d]) {
      std::fprintf(f, "%zu %u %u\n", d + 1, w + 1, c);
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
