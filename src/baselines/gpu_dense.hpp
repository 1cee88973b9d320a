// Prior-art GPU LDA baseline ("BIDMach/SaberLDA-class" stand-in).
//
// The GPU comparison points of Section 7.2 are closed-source (SaberLDA) or
// architecturally dated (BIDMach); the paper cites their published numbers.
// This baseline plays their role on the simulator: a straightforward GPU
// CGS with none of CuLDA's Section 6 machinery —
//   * dense O(K) conditional per token (no sparsity-aware S/Q split),
//   * linear CDF scan instead of index trees,
//   * 32-bit values everywhere (no precision compression),
//   * no shared-memory reuse of p* or the p2 tree, no L1 routing,
//   * single GPU only.
// It starts from CuLDA's initial state (the one core::TrainingState builder,
// topics keyed by global token, so with the same seed its pre-Step Gather()
// equals CuldaTrainer's) and keeps CuLDA's delayed-update semantics, so
// quality curves are directly comparable; only the per-token cost differs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/model.hpp"
#include "core/solver.hpp"
#include "core/training_state.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/device.hpp"

namespace culda::baselines {

/// A single-GPU baseline over the corpus as one chunk (core::TrainingState,
/// seeded as CuldaTrainer seeds it, φ double-buffered). A sweep is the
/// baseline's own sampling kernel followed by CuLDA's update_phi /
/// update_theta / compute_nk; only the sampling kernel and the kernel
/// switches differ between GpuDenseLda and SaberGpuLda.
class SingleGpuSolver : public core::LdaSolver {
 public:
  std::string name() const final { return name_; }
  core::IterationStats Step() final;
  double ModeledSeconds() const final { return device_->Now(); }
  uint64_t num_tokens() const final { return corpus_->num_tokens(); }
  const core::CuldaConfig& config() const final { return cfg_; }
  core::GatheredModel Gather() const final { return state_.Gather(); }
  std::vector<uint16_t> ExportAssignments() const final {
    return state_.ExportAssignments();
  }

  gpusim::Device& device() { return *device_; }

 protected:
  /// Validates `cfg` (the baseline's own kernel switches already set),
  /// rejects an asymmetric α, seeds the state and builds the initial
  /// counts; the device clock starts after them.
  SingleGpuSolver(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                  std::string name, gpusim::DeviceSpec spec,
                  ThreadPool* pool);

 private:
  /// Resamples every token of `chunk` against `model` in sweep `iteration`
  /// (1-based, the Philox key).
  virtual void Sample(gpusim::Device& device, core::ChunkState& chunk,
                      const core::PhiReplica& model, uint32_t iteration) = 0;

  const corpus::Corpus* corpus_;
  core::CuldaConfig cfg_;
  std::string name_;
  std::unique_ptr<gpusim::Device> device_;
  core::TrainingState state_;
  uint32_t iteration_ = 0;
};

class GpuDenseLda final : public SingleGpuSolver {
 public:
  GpuDenseLda(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
              gpusim::DeviceSpec spec, ThreadPool* pool = nullptr);

 private:
  void Sample(gpusim::Device& device, core::ChunkState& chunk,
              const core::PhiReplica& model, uint32_t iteration) override;
};

}  // namespace culda::baselines
