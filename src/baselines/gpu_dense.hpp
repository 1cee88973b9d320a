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

#include "baselines/lda_solver.hpp"
#include "core/config.hpp"
#include "core/model.hpp"
#include "core/training_state.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/device.hpp"

namespace culda::baselines {

class GpuDenseLda : public LdaSolver {
 public:
  GpuDenseLda(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
              gpusim::DeviceSpec spec, ThreadPool* pool = nullptr);

  std::string name() const override { return "Dense GPU LDA (prior art)"; }
  void Step() override;
  double ModeledSeconds() const override { return device_->Now(); }
  double LogLikelihoodPerToken() const override;
  uint64_t num_tokens() const override { return corpus_->num_tokens(); }

  gpusim::Device& device() { return *device_; }
  core::GatheredModel Gather() const { return state_.Gather(); }

 private:
  const corpus::Corpus* corpus_;
  core::CuldaConfig cfg_;
  std::unique_ptr<gpusim::Device> device_;
  core::TrainingState state_;  ///< the corpus as one chunk, φ double buffer
  uint32_t iteration_ = 0;
};

}  // namespace culda::baselines
