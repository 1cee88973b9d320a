#include "common.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "corpus/uci_reader.hpp"
#include "util/check.hpp"

namespace culda::bench {

corpus::SyntheticProfile NyTimesBenchProfile(double scale_mult) {
  // ~2.0M tokens at scale_mult = 1: 6000 docs × 332 tokens.
  corpus::SyntheticProfile p = corpus::NyTimesProfile(0.02 * scale_mult);
  p.vocab_size = static_cast<uint32_t>(8000 * std::sqrt(scale_mult));
  return p;
}

corpus::SyntheticProfile PubMedBenchProfile(double scale_mult) {
  // ~2.0M tokens at scale_mult = 1: 22200 docs × 90 tokens.
  corpus::SyntheticProfile p = corpus::PubMedProfile(0.00271 * scale_mult);
  p.vocab_size = static_cast<uint32_t>(10000 * std::sqrt(scale_mult));
  return p;
}

corpus::Corpus MakeCorpus(const CliFlags& flags,
                          const corpus::SyntheticProfile& profile,
                          const std::string& flag_name) {
  const std::string uci = flags.GetString("uci-" + flag_name, "");
  if (!uci.empty()) {
    std::printf("loading real UCI corpus from %s\n", uci.c_str());
  }
  corpus::Corpus corpus = uci.empty() ? corpus::GenerateCorpus(profile)
                                      : corpus::ReadUciBagOfWordsFile(uci);
  // Every trainer rejects a word past the 16-bit φ count cap (ROADMAP item
  // 5); name it before any work rather than end on the uncaught error.
  const std::vector<uint64_t> freq = corpus.WordFrequencies();
  for (size_t v = 0; v < freq.size(); ++v) {
    if (freq[v] > 0xFFFF) {
      std::fprintf(stderr,
                   "error: word %zu occurs %llu times, over the 65535 cap "
                   "of 16-bit phi counts; lower --scale\n",
                   v, static_cast<unsigned long long>(freq[v]));
      std::exit(1);
    }
  }
  return corpus;
}

core::CuldaConfig BenchConfig(const CliFlags& flags) {
  core::CuldaConfig cfg;
  cfg.num_topics = static_cast<uint32_t>(flags.GetInt("topics", 256));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  return cfg;
}

std::vector<gpusim::DeviceSpec> AllPlatforms() {
  return {gpusim::TitanXMaxwell(), gpusim::TitanXpPascal(),
          gpusim::V100Volta()};
}

void PrintBanner(const std::string& artifact, const std::string& detail) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", detail.c_str());
  std::printf("================================================================\n\n");
}

void RejectUnknownFlags(const CliFlags& flags) {
  const auto unused = flags.UnusedFlags();
  if (!unused.empty()) {
    std::fprintf(stderr, "unknown flag(s):");
    for (const auto& f : unused) std::fprintf(stderr, " --%s", f.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

double MeanAfterWarmup(const std::vector<double>& values, size_t skip) {
  CULDA_CHECK(!values.empty());
  const size_t start = values.size() > skip ? skip : 0;
  double sum = 0;
  for (size_t i = start; i < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - start);
}

}  // namespace culda::bench
