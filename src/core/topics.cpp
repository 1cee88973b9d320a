#include "core/topics.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "util/check.hpp"

namespace culda::core {

std::vector<TopicWord> TopWords(const GatheredModel& model,
                                const CuldaConfig& cfg, uint32_t k,
                                size_t n) {
  CULDA_CHECK(k < model.num_topics);
  std::vector<TopicWord> words;
  for (uint32_t v = 0; v < model.vocab_size; ++v) {
    const uint16_t c = model.phi(k, v);
    if (c > 0) words.push_back({v, c, 0.0});
  }
  const size_t keep = std::min(n, words.size());
  std::partial_sort(words.begin(), words.begin() + keep, words.end(),
                    [](const TopicWord& a, const TopicWord& b) {
                      if (a.count != b.count) return a.count > b.count;
                      return a.word < b.word;
                    });
  words.resize(keep);
  const double denom = static_cast<double>(model.nk[k]) +
                       cfg.beta * model.vocab_size;
  for (auto& w : words) {
    w.probability = (w.count + cfg.beta) / denom;
  }
  return words;
}

std::vector<std::pair<uint32_t, int64_t>> TopicsBySize(
    const GatheredModel& model) {
  std::vector<std::pair<uint32_t, int64_t>> out;
  out.reserve(model.num_topics);
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    out.emplace_back(k, model.nk[k]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return out;
}

std::vector<DocTopic> DocumentMixture(const GatheredModel& model,
                                      const CuldaConfig& cfg, size_t d) {
  CULDA_CHECK(d < model.theta.rows());
  const auto idx = model.theta.RowIndices(d);
  const auto val = model.theta.RowValues(d);
  int64_t len = 0;
  for (const int32_t c : val) len += c;
  const double denom = static_cast<double>(len) + cfg.AlphaSum();

  std::vector<DocTopic> mix;
  mix.reserve(idx.size());
  for (size_t i = 0; i < idx.size(); ++i) {
    mix.push_back({idx[i], val[i], (val[i] + cfg.AlphaOf(idx[i])) / denom});
  }
  std::sort(mix.begin(), mix.end(), [](const DocTopic& a, const DocTopic& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.topic < b.topic;
  });
  return mix;
}

double UMassCoherence(const GatheredModel& model, const CuldaConfig& cfg,
                      const corpus::Corpus& reference, uint32_t k,
                      size_t top_n) {
  const auto top = TopWords(model, cfg, k, top_n);
  if (top.size() < 2) return 0.0;

  // Document frequencies and pairwise co-document frequencies of the top
  // words, in one pass over the reference corpus.
  std::unordered_map<uint32_t, size_t> pos;  // word → index in `top`
  for (size_t i = 0; i < top.size(); ++i) pos[top[i].word] = i;
  std::vector<uint64_t> df(top.size(), 0);
  std::vector<std::vector<uint64_t>> codf(
      top.size(), std::vector<uint64_t>(top.size(), 0));

  std::vector<size_t> present;
  for (size_t d = 0; d < reference.num_docs(); ++d) {
    present.clear();
    for (const uint32_t w : reference.DocTokens(d)) {
      const auto it = pos.find(w);
      if (it != pos.end()) present.push_back(it->second);
    }
    std::sort(present.begin(), present.end());
    present.erase(std::unique(present.begin(), present.end()),
                  present.end());
    for (size_t a = 0; a < present.size(); ++a) {
      ++df[present[a]];
      for (size_t b = a + 1; b < present.size(); ++b) {
        ++codf[present[a]][present[b]];
        ++codf[present[b]][present[a]];
      }
    }
  }

  // Top words are frequency-ordered, so for i < j, word i is the more
  // frequent: pair score log((D(wi,wj)+1)/D(wi)).
  double coherence = 0;
  for (size_t j = 1; j < top.size(); ++j) {
    for (size_t i = 0; i < j; ++i) {
      if (df[i] == 0) continue;  // word absent from the reference corpus
      coherence += std::log((static_cast<double>(codf[i][j]) + 1.0) /
                            static_cast<double>(df[i]));
    }
  }
  return coherence;
}

double AverageCoherence(const GatheredModel& model, const CuldaConfig& cfg,
                        const corpus::Corpus& reference, size_t top_n,
                        ThreadPool* pool) {
  // Per-topic partials reduced in ascending-topic order below: the mean is
  // bit-identical whether topics are scored sequentially or on any number
  // of workers.
  std::vector<double> partial(model.num_topics, 0.0);
  std::vector<uint8_t> counted(model.num_topics, 0);
  const auto body = [&](size_t k) {
    if (model.nk[k] > 0) {
      partial[k] =
          UMassCoherence(model, cfg, reference, static_cast<uint32_t>(k),
                         top_n);
      counted[k] = 1;
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(model.num_topics, body);
  } else {
    for (uint32_t k = 0; k < model.num_topics; ++k) body(k);
  }
  double sum = 0;
  uint32_t populated = 0;
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    sum += partial[k];
    populated += counted[k];
  }
  CULDA_CHECK_MSG(populated > 0, "model has no populated topics");
  return sum / populated;
}

}  // namespace culda::core
