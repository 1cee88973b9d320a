// WordPartitionTrainer — the partition policy Section 4 REJECTS,
// implemented so the rejection is a measurement rather than an argument
// (DESIGN.md ablation A4).
//
// Under partition-by-word each GPU owns a contiguous vocabulary range: its
// φ columns are exclusive (φ needs NO synchronization), but every GPU's
// tokens touch arbitrary documents, so the document–topic matrix θ exists
// as G partial replicas whose sum must be reduced and re-broadcast every
// iteration — plus a (cheap) all-reduce of the per-topic totals n_k. Since
// D is orders of magnitude larger than V on real corpora, this moves far
// more bytes than CuLDA's φ sync.
//
// The sampler, kernels, RNG keying, and model state are shared with
// CuldaTrainer, so the two policies produce BIT-IDENTICAL models — the
// comparison isolates pure synchronization cost.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "core/training_state.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/multi_gpu.hpp"

namespace culda::core {

class WordPartitionTrainer {
 public:
  /// Single-machine, one word-range chunk per GPU (the WS1 analogue; a
  /// streaming variant would only make the policy look worse).
  WordPartitionTrainer(const corpus::Corpus& corpus, CuldaConfig cfg,
                       std::vector<gpusim::DeviceSpec> gpus,
                       gpusim::LinkSpec peer_link = gpusim::Pcie3x16());

  uint32_t num_gpus() const { return static_cast<uint32_t>(group_.size()); }
  const CuldaConfig& config() const { return cfg_; }
  gpusim::DeviceGroup& group() { return group_; }

  IterationStats Step();
  std::vector<IterationStats> Train(uint32_t iterations);

  GatheredModel Gather() const { return state_.Gather(); }
  double LogLikelihoodPerToken() const;

  /// Bytes moved for the θ reduce+broadcast in the last Step() — the
  /// quantity A4 compares against CuldaTrainer's φ sync volume.
  uint64_t last_theta_sync_bytes() const { return last_theta_sync_bytes_; }

 private:
  void RebuildCountsFromZ();
  /// Sums the partial θ replicas into the global θ, installs it on every
  /// GPU, and bills the reduce/broadcast transfers. Returns sync seconds.
  double SynchronizeTheta();
  void SynchronizeNk();

  const corpus::Corpus* corpus_;
  CuldaConfig cfg_;
  gpusim::DeviceGroup group_;
  std::vector<corpus::WordRange> ranges_;
  /// One word-range chunk per GPU, whose θ holds the GLOBAL θ between
  /// iterations, and the φ double buffer, as in CuldaTrainer. Each GPU
  /// reads and writes only its own φ columns, so the stitched-together
  /// device replicas are exactly the one host model; every kernel is still
  /// billed per device.
  TrainingState state_;
  uint32_t iteration_ = 0;
  uint64_t last_theta_sync_bytes_ = 0;
};

}  // namespace culda::core
