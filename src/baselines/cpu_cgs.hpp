// Exact sequential collapsed Gibbs sampling, O(K) per token.
//
// The textbook CGS sampler: decrement the token's counts, compute the full
// K-length conditional p(k) ∝ (n_dk + α)(n_kv + β)/(n_k + βV), draw, and
// increment. It is the convergence gold standard against which both CuLDA's
// delayed-update semantics and the MH baseline are checked, and the "naive"
// point of the Figure 8 comparison.
#pragma once

#include "baselines/cpu_state.hpp"
#include "core/config.hpp"

namespace culda::baselines {

class CpuCgs final : public CpuStateSolver {
 public:
  CpuCgs(const corpus::Corpus& corpus, const core::CuldaConfig& cfg);

  std::string name() const override { return "CGS (CPU, exact O(K))"; }
  core::IterationStats Step() override;

 private:
  std::vector<double> cdf_;  ///< scratch, length K
};

}  // namespace culda::baselines
