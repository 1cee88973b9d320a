// Helpers of the end-to-end benchmark (see README.md in this directory):
// the seeded RNG and input generator, the percentile rule, the open-loop
// arrival schedule, and the closed-loop accounting. They are kept apart
// from the measuring code so test_bench_lib.cpp can pin them down.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fully specified generator, so a seed gives the same
/// inputs on every platform and standard library (std::*_distribution
/// does not promise that).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return NextU64() % n; }
  /// Standard normal (Box-Muller; the second variate is discarded so the
  /// stream position depends only on the call count).
  double Normal() {
    const double u1 = 1.0 - Uniform();  // (0, 1]
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  }

 private:
  uint64_t state_;
};

/// Nearest-rank percentile: the smallest sample with at least q·n samples
/// at or below it. `sorted` must be ascending and non-empty; q in (0, 1].
double Percentile(const std::vector<double>& sorted, double q);

/// True when n samples leave at least `beyond` samples above the q-th
/// nearest-rank percentile (the benchmark asks for 10 beyond p99, so a
/// p99 needs n >= 1000).
bool PercentileSupported(size_t n, double q, size_t beyond = 10);

/// Poisson arrivals: `n` offsets (seconds from the phase start) with
/// exponential gaps of mean 1/rate. A fixed count rather than a fixed
/// duration, so a phase always holds enough samples for its percentiles.
std::vector<double> PoissonSchedule(Rng& rng, double rate_per_s, size_t n);

/// Completions of a closed loop, counted inside a measurement window so
/// that warm-up and the final drain do not count toward the rate.
class ClosedLoopAccount {
 public:
  ClosedLoopAccount(double window_begin_s, double window_end_s)
      : begin_s_(window_begin_s), end_s_(window_end_s) {}
  void OnComplete(double t_s) {
    if (t_s >= begin_s_ && t_s < end_s_) ++in_window_;
  }
  uint64_t in_window() const { return in_window_; }
  /// Completions per second inside the window.
  double Rate() const {
    return static_cast<double>(in_window_) / (end_s_ - begin_s_);
  }

 private:
  double begin_s_;
  double end_s_;
  uint64_t in_window_ = 0;
};

/// A document collection as the generator produces it: word ids per doc.
using Docs = std::vector<std::vector<uint32_t>>;

/// Shape of a generated corpus. Tokens come from a small LDA-like model:
/// each document mixes `topics_per_doc` of `gen_topics` topics; a token is
/// drawn from its topic's own word window with probability `topic_mass`
/// and otherwise from a shared Zipf base over the vocabulary. The topic
/// windows come from `topic_seed`, not from the document seed, so every
/// seed draws its documents from the same generative model.
struct CorpusShape {
  uint64_t topic_seed = 1;
  uint32_t vocab = 6000;
  uint32_t gen_topics = 64;
  uint32_t topics_per_doc = 4;
  uint32_t topic_window = 150;
  double topic_mass = 0.6;
  double zipf_exponent = 1.05;
  double mean_doc_len = 100;
  double doc_len_sigma = 0.5;
  uint32_t min_doc_len = 8;
};

class CorpusGenerator {
 public:
  CorpusGenerator(const CorpusShape& shape, uint64_t seed);
  /// One document whose length is lognormal with the given mean and shape.
  std::vector<uint32_t> Doc(double mean_len, double len_sigma);
  /// `n` documents of the shape's length distribution.
  Docs MakeDocs(size_t n) {
    Docs docs(n);
    for (auto& d : docs) d = Doc(shape_.mean_doc_len, shape_.doc_len_sigma);
    return docs;
  }

 private:
  uint32_t ZipfWord();

  CorpusShape shape_;
  Rng rng_;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> topic_offset_;
};

/// Removes every occurrence of words occurring more than `cap` times in
/// `docs` (the trainer's dense 16-bit φ holds at most 65,535 per word) and
/// drops documents left empty. Returns the share of tokens removed.
double PruneHeavyWords(Docs& docs, uint32_t vocab, uint64_t cap = 65535);

/// Writes `docs` in UCI bag-of-words format (1-based ids, words ascending
/// within a document), byte-for-byte determined by its input.
void WriteUci(const Docs& docs, uint32_t vocab, const std::string& path);

}  // namespace perfbench
