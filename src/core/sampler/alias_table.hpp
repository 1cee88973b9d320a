// Walker alias table: O(n) build, O(1) multinomial draws.
//
// The production sampler-tier table (docs/samplers.md), lifted out of
// src/baselines/ where it served the WarpLDA-class MH baseline and the
// SaberLDA-class GPU baseline. Differences from the original baseline table:
//
//   * the total mass accumulates in double. The baseline accumulated in
//     float, which silently loses the tail once a dominant weight absorbs
//     the increments (2^24 + 1 == 2^24 in float) — over the permitted 65536
//     weights that skews every scaled probability. Pinned by the
//     AliasTable.PrecisionUnderAdversarialMagnitudeSpread regression test.
//   * the scaled residuals used by the small/large pairing are double too,
//     so the per-cell probabilities are exact to float rounding rather than
//     compounding float error across pairings.
//   * build buffers are reusable (AliasBuildScratch) so per-sweep stale
//     refreshes over every word allocate nothing after warm-up.
//   * a flat-storage build variant writes into caller-provided spans, which
//     is how the serving engine packs one table per φ column into two flat
//     arrays aligned with its per-word topic columns.
//
// Stale-table sampling with an MH correction — or refresh-per-word without
// one — are the standard LightLDA/WarpLDA/SaberLDA constructions; see
// docs/samplers.md for how the tier uses this table on both paths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace culda::core {

/// Reusable build workspace: the small/large worklists and the double
/// residuals. One per thread (or per engine) is enough; Build clears it.
struct AliasBuildScratch {
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  std::vector<double> scaled;
};

/// Builds an alias table over `w` into flat storage: `prob` and `alias` must
/// have exactly w.size() entries. All weights non-negative, at least one
/// positive (checked). Returns the exact double total mass.
///
/// The draw rule is SampleAlias below; cell i covers weight i with
/// probability prob[i] and its alias otherwise, so the implied per-index
/// probability is (prob[i] + Σ_{j: alias[j]==i} (1 − prob[j])) / n = w_i/Σw
/// up to float rounding of the individual cells.
inline double BuildAliasInto(std::span<const float> w, std::span<float> prob,
                             std::span<uint16_t> alias,
                             AliasBuildScratch& scratch) {
  const size_t n = w.size();
  CULDA_CHECK(n >= 1 && n <= 0x10000);
  CULDA_CHECK(prob.size() == n && alias.size() == n);

  double total = 0;
  for (const float x : w) total += x;
  CULDA_CHECK_MSG(total > 0, "alias table over all-zero weights");

  scratch.small.clear();
  scratch.large.clear();
  scratch.scaled.resize(n);
  const double scale = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) {
    scratch.scaled[i] = static_cast<double>(w[i]) * scale;
    (scratch.scaled[i] < 1.0 ? scratch.small : scratch.large)
        .push_back(static_cast<uint32_t>(i));
    alias[i] = static_cast<uint16_t>(i);
  }
  while (!scratch.small.empty() && !scratch.large.empty()) {
    // The top large entry absorbs small entries until its scaled weight
    // drops below 1; the weight stays in a register meanwhile, off the
    // store/reload path.
    const uint32_t l = scratch.large.back();
    double scaled_l = scratch.scaled[l];
    do {
      const uint32_t s = scratch.small.back();
      scratch.small.pop_back();
      prob[s] = static_cast<float>(scratch.scaled[s]);
      alias[s] = static_cast<uint16_t>(l);
      scaled_l -= 1.0 - scratch.scaled[s];
    } while (!scratch.small.empty() && !(scaled_l < 1.0));
    scratch.scaled[l] = scaled_l;
    if (scaled_l < 1.0) {
      scratch.large.pop_back();
      scratch.small.push_back(l);
    }
  }
  for (const uint32_t i : scratch.large) prob[i] = 1.0f;
  for (const uint32_t i : scratch.small) prob[i] = 1.0f;  // round-off leftovers
  return total;
}

/// Draws from flat alias storage with a random bucket choice `r1` and coin
/// `r2` ∈ [0, 1).
inline uint16_t SampleAlias(std::span<const float> prob,
                            std::span<const uint16_t> alias, uint64_t r1,
                            float r2) {
  const size_t i = r1 % prob.size();
  return r2 < prob[i] ? static_cast<uint16_t>(i) : alias[i];
}

/// Owning table. Keeps the build-time weights for MH proposal ratios
/// (q(k) ∝ weight[k]).
struct AliasTable {
  std::vector<float> prob;
  std::vector<uint16_t> alias;
  std::vector<float> weight;  ///< the build-time weights (for MH ratios)
  double total = 0;           ///< exact double Σ weight

  /// Builds the table over `w` (all non-negative, at least one positive),
  /// reusing `scratch` so per-sweep refreshes allocate nothing after the
  /// first call at each size.
  void Build(std::span<const float> w, AliasBuildScratch& scratch) {
    const size_t n = w.size();
    prob.resize(n);
    alias.resize(n);
    weight.assign(w.begin(), w.end());
    total = BuildAliasInto(w, prob, alias, scratch);
  }

  /// Convenience overload with a private scratch (allocates).
  void Build(std::span<const float> w) {
    AliasBuildScratch scratch;
    Build(w, scratch);
  }

  /// Draws with a random bucket choice `r1` and coin `r2` ∈ [0, 1).
  uint16_t Sample(uint64_t r1, float r2) const {
    return SampleAlias(prob, alias, r1, r2);
  }
};

}  // namespace culda::core
