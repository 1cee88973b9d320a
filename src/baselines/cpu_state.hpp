// Shared dense count state for the CPU baselines.
//
// The CPU solvers (exact CGS, SparseLDA, WarpLDA-like MH) keep the classic
// uncompressed representation: dense document–topic and topic–word count
// matrices plus topic totals, with immediate decrement/increment updates —
// the textbook collapsed Gibbs state that CuLDA's delayed-update scheme is
// compared against.
//
// Modeled time: CPU samplers are latency-bound on random accesses, so reads
// that jump around memory are billed at cache-line granularity (64 B per
// touched line) against the Xeon's effective bandwidth; streaming scans are
// billed at their true byte count. This is the CPU analogue of the GPU
// kernels' coalescing-aware billing, and is what puts WarpLDA-class
// samplers at the ~100 M tokens/s the paper reports (Table 4) instead of a
// physically impossible pure-bandwidth bound.
#pragma once

#include <cstdint>
#include <vector>

#include "core/solver.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/cost_model.hpp"
#include "sparse/dense.hpp"

namespace culda::baselines {

constexpr uint64_t kCacheLineBytes = 64;

struct CpuLdaState {
  const corpus::Corpus* corpus = nullptr;
  uint32_t num_topics = 0;
  double alpha = 0;
  double beta = 0;

  std::vector<uint16_t> z;            ///< token topics, document-major
  sparse::DenseMatrix<int32_t> nd;    ///< D×K document–topic counts
  sparse::DenseMatrix<int32_t> nw;    ///< K×V topic–word counts
  std::vector<int64_t> nk;            ///< per-topic totals

  /// Random uniform topic init (deterministic in seed) and count build.
  void Initialize(const corpus::Corpus& c, uint32_t k_topics, double a,
                  double b, uint64_t seed);

  /// Joint log-likelihood per token (same metric as core::Evaluator), the
  /// one dense scorer of the CPU solvers.
  double LogLikelihoodPerToken() const;

  /// Count-consistency invariants; throws on violation. O(D·K + K·V).
  void Validate() const;
};

/// A CPU solver over one CpuLdaState (exact CGS, SparseLDA, F+LDA,
/// WarpLDA-like MH): modeled time, score and gathered model come from the
/// dense counts.
class CpuStateSolver : public core::LdaSolver {
 public:
  double ModeledSeconds() const final { return modeled_seconds_; }
  double LogLikelihoodPerToken() const final {
    return state_.LogLikelihoodPerToken();
  }
  uint64_t num_tokens() const final { return state_.corpus->num_tokens(); }
  const core::CuldaConfig& config() const final { return cfg_; }
  /// Throws culda::Error (core::CheckTrainable) when a word occurs more
  /// often than a 16-bit φ count can hold.
  core::GatheredModel Gather() const final;
  /// z is kept in corpus order already.
  std::vector<uint16_t> ExportAssignments() const final { return state_.z; }

  const CpuLdaState& state() const { return state_; }

 protected:
  /// Validates `cfg` and seeds the state with the keyed initial topics.
  CpuStateSolver(const corpus::Corpus& corpus, const core::CuldaConfig& cfg);

  /// The stats of the sweep just run (iteration_ already counts it), whose
  /// modeled seconds are `step_s`; adds them to ModeledSeconds().
  core::IterationStats FinishStep(double step_s, double wall_s);

  core::CuldaConfig cfg_;
  CpuLdaState state_;
  uint32_t iteration_ = 0;  ///< sweeps started: the running sweep's Philox key

 private:
  double modeled_seconds_ = 0;
};

/// Accumulates billed traffic for a CPU sweep and converts it to modeled
/// seconds on the Xeon spec.
class CpuCostTracker {
 public:
  CpuCostTracker() : model_(gpusim::XeonCpu()) {}

  /// A random access touching `bytes` payload: billed as whole cache lines.
  void RandomRead(uint64_t bytes) {
    counters_.global_read_bytes += LineRound(bytes);
  }
  /// `count` independent random accesses of `bytes_each` payload.
  void RandomReads(uint64_t count, uint64_t bytes_each) {
    counters_.global_read_bytes += count * LineRound(bytes_each);
  }
  void RandomWrite(uint64_t bytes) {
    counters_.global_write_bytes += LineRound(bytes);
  }
  /// Streaming access: billed at payload size.
  void StreamRead(uint64_t bytes) { counters_.global_read_bytes += bytes; }
  void StreamWrite(uint64_t bytes) { counters_.global_write_bytes += bytes; }
  void Flops(uint64_t n) { counters_.flops += n; }

  /// Modeled seconds for everything billed since the last Reset().
  double Seconds() const { return model_.KernelTime(counters_).total_s; }
  const gpusim::KernelCounters& counters() const { return counters_; }
  void Reset() { counters_ = {}; }

 private:
  static uint64_t LineRound(uint64_t bytes) {
    return (bytes + kCacheLineBytes - 1) / kCacheLineBytes * kCacheLineBytes;
  }
  gpusim::CostModel model_;
  gpusim::KernelCounters counters_;
};

}  // namespace culda::baselines
