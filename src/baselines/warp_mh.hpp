// WarpLDA-class Metropolis–Hastings sampler (CPU baseline for Table 4 /
// Figures 7–8).
//
// WarpLDA (Chen et al., VLDB'16 — the paper's primary CPU comparator) gets
// its O(1)-per-token cost from Metropolis–Hastings with cheap proposals
// instead of computing the exact conditional. This implementation follows
// the LightLDA/WarpLDA proposal-cycle design:
//
//   doc proposal   q_d(k) ∝ n_dk + α   — drawn in O(1) by picking the topic
//                  of a uniformly random token of the document (the n_dk
//                  part) or a uniform topic (the α part);
//   word proposal  q_w(k) ∝ ñ_kv + β   — drawn in O(1) from a Walker alias
//                  table built per word once per sweep (ñ = sweep-start
//                  counts, hence "stale"; the MH correction accounts for the
//                  proposal, staleness is the standard approximation);
//
// each followed by the MH accept/reject against the exact conditional with
// live decremented counts. One token costs a handful of random memory
// touches — exactly the cache-pressure profile the WarpLDA paper optimizes.
#pragma once

#include "baselines/cpu_state.hpp"
#include "core/config.hpp"
#include "core/sampler/alias_table.hpp"

namespace culda::baselines {

class WarpMhSampler final : public CpuStateSolver {
 public:
  /// `mh_cycles`: proposal pairs per token (WarpLDA default-equivalent: 1).
  WarpMhSampler(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                uint32_t mh_cycles = 1);

  std::string name() const override { return "WarpLDA-like (CPU, MH O(1))"; }
  core::IterationStats Step() override;

  double acceptance_rate() const {
    return proposals_ == 0
               ? 0.0
               : static_cast<double>(accepts_) / static_cast<double>(proposals_);
  }

 private:
  void RebuildAliasTables(CpuCostTracker& cost);

  uint32_t mh_cycles_;
  uint64_t proposals_ = 0;
  uint64_t accepts_ = 0;
  core::AliasBuildScratch alias_scratch_;    ///< reused across rebuilds
  std::vector<core::AliasTable> word_alias_;  ///< one per word, stale per sweep
};

}  // namespace culda::baselines
