#include "baselines/cpu_state.hpp"

#include <cmath>

#include "core/training_state.hpp"
#include "util/check.hpp"

namespace culda::baselines {

void CpuLdaState::Initialize(const corpus::Corpus& c, uint32_t k_topics,
                             double a, double b, uint64_t seed) {
  corpus = &c;
  num_topics = k_topics;
  alpha = a;
  beta = b;
  CULDA_CHECK(num_topics >= 2);
  CULDA_CHECK(beta > 0 && alpha > 0);

  z.resize(c.num_tokens());
  nd = sparse::DenseMatrix<int32_t>(c.num_docs(), num_topics);
  nw = sparse::DenseMatrix<int32_t>(num_topics, c.vocab_size());
  nk.assign(num_topics, 0);

  // z is in corpus token order, so token t is global token t.
  for (uint64_t t = 0; t < c.num_tokens(); ++t) {
    z[t] = core::InitialTopic(seed, t, num_topics);
  }
  for (size_t d = 0; d < c.num_docs(); ++d) {
    const auto tokens = c.DocTokens(d);
    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint16_t k = z[c.DocBegin(d) + i];
      ++nd(d, k);
      ++nw(k, tokens[i]);
      ++nk[k];
    }
  }
}

double CpuLdaState::LogLikelihoodPerToken() const {
  const uint32_t k_topics = num_topics;
  const uint32_t v_words = corpus->vocab_size();
  const double lg_alpha = std::lgamma(alpha);
  const double lg_beta = std::lgamma(beta);
  const double lg_k_alpha = std::lgamma(k_topics * alpha);
  const double lg_v_beta = std::lgamma(v_words * beta);

  double ll = 0;
  for (size_t d = 0; d < corpus->num_docs(); ++d) {
    double row = 0;
    for (uint32_t k = 0; k < k_topics; ++k) {
      const int32_t c = nd(d, k);
      row += c != 0 ? std::lgamma(c + alpha) : lg_alpha;
    }
    ll += row - k_topics * lg_alpha + lg_k_alpha -
          std::lgamma(static_cast<double>(corpus->DocLength(d)) +
                      k_topics * alpha);
  }
  for (uint32_t k = 0; k < k_topics; ++k) {
    double row = 0;
    for (uint32_t v = 0; v < v_words; ++v) {
      const int32_t c = nw(k, v);
      row += c != 0 ? std::lgamma(c + beta) : lg_beta;
    }
    ll += row - v_words * lg_beta + lg_v_beta -
          std::lgamma(static_cast<double>(nk[k]) + v_words * beta);
  }
  return ll / static_cast<double>(corpus->num_tokens());
}

void CpuLdaState::Validate() const {
  // nd row sums = document lengths.
  for (size_t d = 0; d < corpus->num_docs(); ++d) {
    int64_t sum = 0;
    for (uint32_t k = 0; k < num_topics; ++k) {
      CULDA_CHECK(nd(d, k) >= 0);
      sum += nd(d, k);
    }
    CULDA_CHECK_MSG(sum == static_cast<int64_t>(corpus->DocLength(d)),
                    "nd row " << d << " inconsistent");
  }
  // nw row sums = nk; grand total = corpus tokens.
  int64_t grand = 0;
  for (uint32_t k = 0; k < num_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < corpus->vocab_size(); ++v) {
      CULDA_CHECK(nw(k, v) >= 0);
      sum += nw(k, v);
    }
    CULDA_CHECK_MSG(sum == nk[k], "nk[" << k << "] inconsistent");
    grand += sum;
  }
  CULDA_CHECK(grand == static_cast<int64_t>(corpus->num_tokens()));
}

core::GatheredModel CpuStateSolver::Gather() const {
  const corpus::Corpus& corpus = *state_.corpus;
  // A φ cell never exceeds its word's corpus frequency.
  core::CheckTrainable(corpus);
  const uint32_t k_topics = state_.num_topics;
  core::GatheredModel out;
  out.num_topics = k_topics;
  out.vocab_size = corpus.vocab_size();
  out.num_docs = corpus.num_docs();
  out.theta = core::ThetaMatrix(corpus.num_docs(), k_topics);
  out.theta.AssignFromDense([&](size_t d, std::span<int32_t> row) {
    for (uint32_t k = 0; k < k_topics; ++k) row[k] = state_.nd(d, k);
  });
  out.phi = core::WordMajorPhi(k_topics, corpus.vocab_size());
  for (uint32_t k = 0; k < k_topics; ++k) {
    for (uint32_t v = 0; v < corpus.vocab_size(); ++v) {
      out.phi(k, v) = static_cast<uint16_t>(state_.nw(k, v));
    }
  }
  out.nk.assign(state_.nk.begin(), state_.nk.end());
  return out;
}

CpuStateSolver::CpuStateSolver(const corpus::Corpus& corpus,
                               const core::CuldaConfig& cfg)
    : cfg_(cfg) {
  cfg_.Validate();
  state_.Initialize(corpus, cfg_.num_topics, cfg_.EffectiveAlpha(), cfg_.beta,
                    cfg_.seed);
}

core::IterationStats CpuStateSolver::FinishStep(double step_s,
                                                double wall_s) {
  core::IterationStats stats;
  stats.iteration = iteration_ - 1;
  stats.sim_seconds = step_s;
  stats.wall_seconds = wall_s;
  core::SetThroughput(stats, num_tokens());
  modeled_seconds_ += step_s;
  return stats;
}

}  // namespace culda::baselines
