// LdaSolver — the one interface of every LDA solver (Section 7.2).
//
// Table 4 and Figure 8 treat CuLDA and its comparators as interchangeable:
// step, time, score. Every trainer (CuldaTrainer, WordPartitionTrainer,
// dist::ClusterTrainer) and every baseline (the CPU samplers standing in for
// WarpLDA, the GPU baselines standing in for SaberLDA/BIDMach) implements
// it: one sweep per Step(), a cumulative *modeled* time (all systems are
// timed by the same roofline cost model, on their own platform specs), the
// Figure 8 quality metric, and the trained model gathered back to the host
// with the assignments it was counted from. The benches, `culda_train` and
// the count-conformance harness drive every solver through it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/model.hpp"

namespace culda {
class ThreadPool;
}  // namespace culda

namespace culda::core {

/// Record of one sweep over the corpus, in simulated (modeled) seconds. The
/// per-kernel components are summed across devices (they overlap in group
/// time, so they are meaningful as a breakdown, not as a sum); a solver
/// leaves zero what it does not have.
struct IterationStats {
  uint32_t iteration = 0;
  double sim_seconds = 0;
  double wall_seconds = 0;
  double tokens_per_sec = 0;       ///< corpus tokens / sim_seconds
  double wall_tokens_per_sec = 0;  ///< corpus tokens / wall_seconds (host)
  double sampling_s = 0;
  double update_theta_s = 0;
  double update_phi_s = 0;
  double sync_s = 0;
  double transfer_s = 0;
  /// θ sparsity after this iteration: total non-zeros across all chunks.
  /// Falling nnz is what drives the Figure 7 throughput ramp.
  uint64_t theta_nnz = 0;
  uint64_t network_payload_bytes = 0;  ///< fabric payload (multi-node)
  uint64_t network_wire_bytes = 0;     ///< payload × hops (store-and-forward)
  /// Async cluster: max shard age (rounds) any node sampled against; always
  /// ≤ min(staleness_bound, N−1). 0 everywhere else.
  uint32_t max_staleness = 0;
};

/// Fills `stats`' throughput fields from its clocks: corpus tokens per
/// simulated second, and per wall second (0 when the wall clock read 0).
void SetThroughput(IterationStats& stats, uint64_t tokens);

/// Throws culda::Error naming `solver` when `cfg` sets an asymmetric α: the
/// baselines sample with the scalar prior only.
void RequireSymmetricAlpha(const CuldaConfig& cfg, const std::string& solver);

class LdaSolver {
 public:
  virtual ~LdaSolver() = default;

  virtual std::string name() const = 0;
  /// Runs one full Gibbs/MH sweep over the corpus.
  virtual IterationStats Step() = 0;
  /// Cumulative modeled training time, seconds.
  virtual double ModeledSeconds() const = 0;
  /// Joint log-likelihood per token of the current state (Figure 8's
  /// metric): the evaluator over Gather() under config(), unless a solver
  /// scores its own dense counts.
  virtual double LogLikelihoodPerToken() const;
  virtual uint64_t num_tokens() const = 0;
  /// The priors the solver samples (and is scored) with.
  virtual const CuldaConfig& config() const = 0;
  /// θ over every document in corpus order, with φ and n_k.
  virtual GatheredModel Gather() const = 0;
  /// Topic assignments in corpus document-major order, from which Gather()'s
  /// counts must rebuild exactly (validate::RunCountConformance).
  virtual std::vector<uint16_t> ExportAssignments() const = 0;

  /// Runs `iterations` steps; returns their stats.
  std::vector<IterationStats> Train(uint32_t iterations);

 protected:
  LdaSolver() = default;
  LdaSolver(const LdaSolver&) = default;
  LdaSolver(LdaSolver&&) = default;
  LdaSolver& operator=(const LdaSolver&) = default;
  LdaSolver& operator=(LdaSolver&&) = default;

  /// Worker pool of the default LogLikelihoodPerToken (wall-clock only: the
  /// value is the same bits with or without it).
  virtual ThreadPool* eval_pool() const { return nullptr; }
};

}  // namespace culda::core
