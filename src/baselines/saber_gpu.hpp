// SaberLDA-class GPU baseline (Li, Chen, Chen, Zhu — ASPLOS'17, the paper's
// reference [20] and its closest GPU competitor in Section 7.2).
//
// SaberLDA is closed-source; the paper compares against its published
// numbers (120M tokens/s for NYTimes on a GTX 1080). This implementation
// captures the *design differences* the paper's comparison turns on:
//
//   * sparsity-aware like CuLDA (word-major, O(K_d) doc bucket), so it is
//     far faster than dense prior art — but:
//   * the dense bucket is sampled from a per-word **alias table** rebuilt
//     once per word per iteration (SaberLDA's D-S-W sampling), which lives
//     in global memory rather than block-shared trees;
//   * one *thread* per token rather than one warp per token — uncoalesced
//     access patterns (a lower sustained-bandwidth fraction);
//   * 32-bit data everywhere (no precision compression);
//   * single GPU only (the paper's Section 7.2 point #3).
//
// Quality-wise it is the same stale-model Gibbs as CuLDA, so Figure 8
// curves are directly comparable. Alias sampling from slightly stale q is
// accepted as exact here (the alias table is refreshed per word per
// iteration; within-word staleness is the standard SaberLDA approximation).
#pragma once

#include <memory>

#include "baselines/lda_solver.hpp"
#include "core/config.hpp"
#include "core/model.hpp"
#include "core/training_state.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/device.hpp"

namespace culda::baselines {

class SaberGpuLda : public LdaSolver {
 public:
  SaberGpuLda(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
              gpusim::DeviceSpec spec = gpusim::TitanXMaxwell(),
              ThreadPool* pool = nullptr);

  std::string name() const override { return "SaberLDA-like (GPU)"; }
  void Step() override;
  double ModeledSeconds() const override { return device_->Now(); }
  double LogLikelihoodPerToken() const override;
  uint64_t num_tokens() const override { return corpus_->num_tokens(); }

  core::GatheredModel Gather() const { return state_.Gather(); }
  gpusim::Device& device() { return *device_; }

 private:
  const corpus::Corpus* corpus_;
  core::CuldaConfig cfg_;
  std::unique_ptr<gpusim::Device> device_;
  core::TrainingState state_;  ///< the corpus as one chunk, φ double buffer
  uint32_t iteration_ = 0;
};

}  // namespace culda::baselines
