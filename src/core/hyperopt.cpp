#include "core/hyperopt.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"
#include "util/math.hpp"

namespace culda::core {

namespace {

/// Shared fixed-point driver. `numerator(c)` and `denominator()` visit the
/// count structure for the current concentration value.
template <typename NumFn, typename DenFn>
HyperOptResult FixedPoint(double value, int max_iterations, double tolerance,
                          const NumFn& numerator, const DenFn& denominator) {
  CULDA_CHECK(value > 0);
  CULDA_CHECK(max_iterations >= 1);
  HyperOptResult result;
  result.value = value;
  for (int it = 0; it < max_iterations; ++it) {
    ++result.iterations;
    const double num = numerator(result.value);
    const double den = denominator(result.value);
    CULDA_CHECK_MSG(den > 0, "degenerate counts in hyper-parameter update");
    double next = result.value * num / den;
    // Guard the update: the fixed point is positive and finite; clamp away
    // from 0 so a sparse early model cannot collapse the prior entirely.
    next = std::max(next, 1e-8);
    const bool done = std::abs(next - result.value) <=
                      tolerance * std::max(1.0, result.value);
    result.value = next;
    if (done) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace

HyperOptResult OptimizeAlpha(const GatheredModel& model, double alpha,
                             int max_iterations, double tolerance) {
  const uint32_t k_topics = model.num_topics;
  return FixedPoint(
      alpha, max_iterations, tolerance,
      [&](double a) {
        // Σ_d Σ_k ψ(θ_dk + a) − ψ(a); zero entries contribute 0.
        double num = 0;
        const double psi_a = Digamma(a);
        for (size_t d = 0; d < model.theta.rows(); ++d) {
          for (const int32_t c : model.theta.RowValues(d)) {
            num += Digamma(c + a) - psi_a;
          }
        }
        return num;
      },
      [&](double a) {
        double den = 0;
        const double psi_ka = Digamma(k_topics * a);
        for (size_t d = 0; d < model.theta.rows(); ++d) {
          int64_t len = 0;
          for (const int32_t c : model.theta.RowValues(d)) len += c;
          den += Digamma(static_cast<double>(len) + k_topics * a) - psi_ka;
        }
        return k_topics * den;
      });
}

HyperOptResult OptimizeAsymmetricAlpha(const GatheredModel& model,
                                       std::vector<double>& alpha,
                                       int max_iterations, double tolerance) {
  const uint32_t k_topics = model.num_topics;
  CULDA_CHECK_MSG(alpha.size() == k_topics,
                  "alpha vector must have one entry per topic");
  for (const double a : alpha) CULDA_CHECK(a > 0);
  CULDA_CHECK(max_iterations >= 1);

  HyperOptResult result;
  std::vector<double> numer(k_topics);
  for (int it = 0; it < max_iterations; ++it) {
    ++result.iterations;
    double alpha_sum = 0;
    for (const double a : alpha) alpha_sum += a;

    // Shared denominator: Σ_d ψ(len_d + Σα) − ψ(Σα).
    double denom = 0;
    const double psi_sum = Digamma(alpha_sum);
    std::fill(numer.begin(), numer.end(), 0.0);
    std::vector<double> psi_alpha(k_topics);
    for (uint32_t k = 0; k < k_topics; ++k) psi_alpha[k] = Digamma(alpha[k]);

    for (size_t d = 0; d < model.theta.rows(); ++d) {
      const auto idx = model.theta.RowIndices(d);
      const auto val = model.theta.RowValues(d);
      int64_t len = 0;
      for (size_t i = 0; i < idx.size(); ++i) {
        numer[idx[i]] += Digamma(val[i] + alpha[idx[i]]) -
                         psi_alpha[idx[i]];
        len += val[i];
      }
      denom += Digamma(static_cast<double>(len) + alpha_sum) - psi_sum;
    }
    CULDA_CHECK_MSG(denom > 0, "degenerate counts in asymmetric update");

    double max_rel_change = 0;
    for (uint32_t k = 0; k < k_topics; ++k) {
      const double next = std::max(alpha[k] * numer[k] / denom, 1e-8);
      max_rel_change = std::max(
          max_rel_change,
          std::abs(next - alpha[k]) / std::max(1.0, alpha[k]));
      alpha[k] = next;
    }
    if (max_rel_change <= tolerance) {
      result.converged = true;
      break;
    }
  }
  result.value = 0;
  for (const double a : alpha) result.value += a;
  return result;
}

HyperOptResult OptimizeBeta(const GatheredModel& model, double beta,
                            int max_iterations, double tolerance) {
  const uint32_t v_words = model.vocab_size;
  return FixedPoint(
      beta, max_iterations, tolerance,
      [&](double b) {
        double num = 0;
        const double psi_b = Digamma(b);
        for (uint32_t k = 0; k < model.num_topics; ++k) {
          for (uint32_t v = 0; v < v_words; ++v) {
            const uint16_t c = model.phi(k, v);
            if (c != 0) num += Digamma(c + b) - psi_b;
          }
        }
        return num;
      },
      [&](double b) {
        double den = 0;
        const double psi_vb = Digamma(v_words * b);
        for (uint32_t k = 0; k < model.num_topics; ++k) {
          if (model.nk[k] > 0) {
            den += Digamma(static_cast<double>(model.nk[k]) + v_words * b) -
                   psi_vb;
          }
        }
        return v_words * den;
      });
}

}  // namespace culda::core
