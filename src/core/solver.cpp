#include "core/solver.hpp"

#include "core/evaluator.hpp"
#include "util/check.hpp"

namespace culda::core {

void SetThroughput(IterationStats& stats, uint64_t tokens) {
  const double n = static_cast<double>(tokens);
  stats.tokens_per_sec = n / stats.sim_seconds;
  stats.wall_tokens_per_sec =
      stats.wall_seconds > 0 ? n / stats.wall_seconds : 0.0;
}

void RequireSymmetricAlpha(const CuldaConfig& cfg, const std::string& solver) {
  CULDA_CHECK_MSG(cfg.asymmetric_alpha.empty(),
                  solver << " supports symmetric priors only; it would "
                            "sample with the scalar alpha and ignore "
                            "asymmetric_alpha");
}

double LdaSolver::LogLikelihoodPerToken() const {
  return core::LogLikelihoodPerToken(Gather(), config(), eval_pool());
}

std::vector<IterationStats> LdaSolver::Train(uint32_t iterations) {
  std::vector<IterationStats> out;
  out.reserve(iterations);
  for (uint32_t i = 0; i < iterations; ++i) out.push_back(Step());
  return out;
}

}  // namespace culda::core
