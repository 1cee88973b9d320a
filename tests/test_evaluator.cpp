// Tests for the log-likelihood evaluator against hand-computed values and
// reference implementations.
#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

/// Builds a GatheredModel from explicit dense θ and φ.
GatheredModel ModelFromDense(const std::vector<std::vector<int32_t>>& theta,
                             const std::vector<std::vector<uint16_t>>& phi) {
  GatheredModel m;
  m.num_docs = theta.size();
  m.num_topics = static_cast<uint32_t>(phi.size());
  m.vocab_size = static_cast<uint32_t>(phi[0].size());
  m.theta = ThetaMatrix(m.num_docs, m.num_topics);
  ThetaMatrix::RowBuilder b(&m.theta);
  for (size_t d = 0; d < theta.size(); ++d) {
    std::vector<uint16_t> idx;
    std::vector<int32_t> val;
    for (size_t k = 0; k < theta[d].size(); ++k) {
      if (theta[d][k] != 0) {
        idx.push_back(static_cast<uint16_t>(k));
        val.push_back(theta[d][k]);
      }
    }
    b.AppendRow(d, idx, val);
  }
  b.Finish();
  m.phi = WordMajorPhi(m.num_topics, m.vocab_size);
  m.nk.assign(m.num_topics, 0);
  for (size_t k = 0; k < phi.size(); ++k) {
    for (size_t v = 0; v < phi[k].size(); ++v) {
      m.phi(k, v) = phi[k][v];
      m.nk[k] += phi[k][v];
    }
  }
  return m;
}

/// Direct dense-formula reference.
double ReferenceLl(const std::vector<std::vector<int32_t>>& theta,
                   const std::vector<std::vector<uint16_t>>& phi,
                   double alpha, double beta) {
  const size_t K = phi.size(), V = phi[0].size();
  double ll = 0;
  uint64_t tokens = 0;
  for (const auto& row : theta) {
    int64_t len = 0;
    for (size_t k = 0; k < K; ++k) {
      ll += std::lgamma(row[k] + alpha) - std::lgamma(alpha);
      len += row[k];
    }
    ll += std::lgamma(K * alpha) - std::lgamma(len + K * alpha);
    tokens += static_cast<uint64_t>(len);
  }
  for (size_t k = 0; k < K; ++k) {
    int64_t nk = 0;
    for (size_t v = 0; v < V; ++v) {
      ll += std::lgamma(phi[k][v] + beta) - std::lgamma(beta);
      nk += phi[k][v];
    }
    ll += std::lgamma(V * beta) - std::lgamma(nk + V * beta);
  }
  return ll / static_cast<double>(tokens);
}

TEST(Evaluator, MatchesDenseReferenceOnSmallModel) {
  const std::vector<std::vector<int32_t>> theta{{3, 0, 1}, {0, 2, 2}};
  const std::vector<std::vector<uint16_t>> phi{
      {2, 1, 0, 0}, {0, 0, 1, 1}, {1, 0, 1, 1}};
  const auto m = ModelFromDense(theta, phi);
  CuldaConfig cfg;
  cfg.num_topics = 3;
  cfg.alpha = 0.5;
  cfg.beta = 0.1;
  EXPECT_NEAR(LogLikelihoodPerToken(m, cfg),
              ReferenceLl(theta, phi, 0.5, 0.1), 1e-10);
}

TEST(Evaluator, ConcentratedModelBeatsUniform) {
  // A model where each doc/word sticks to one topic must score higher than
  // one where counts are spread evenly.
  const std::vector<std::vector<int32_t>> theta_sharp{{4, 0}, {0, 4}};
  const std::vector<std::vector<uint16_t>> phi_sharp{{4, 0}, {0, 4}};
  const std::vector<std::vector<int32_t>> theta_flat{{2, 2}, {2, 2}};
  const std::vector<std::vector<uint16_t>> phi_flat{{2, 2}, {2, 2}};
  CuldaConfig cfg;
  cfg.num_topics = 2;
  cfg.alpha = 0.1;
  cfg.beta = 0.1;
  EXPECT_GT(LogLikelihoodPerToken(ModelFromDense(theta_sharp, phi_sharp), cfg),
            LogLikelihoodPerToken(ModelFromDense(theta_flat, phi_flat), cfg));
}

TEST(Evaluator, AgreesWithTrainerGather) {
  corpus::SyntheticProfile p;
  p.num_docs = 200;
  p.vocab_size = 300;
  p.avg_doc_length = 30;
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 16;
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(3);
  const auto m = trainer.Gather();
  m.Validate(c);
  EXPECT_NEAR(trainer.LogLikelihoodPerToken(),
              LogLikelihoodPerToken(m, cfg), 1e-12);
}

TEST(Evaluator, ValuesInPlausibleRange) {
  corpus::SyntheticProfile p;
  p.num_docs = 200;
  p.vocab_size = 500;
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 32;
  CuldaTrainer trainer(c, cfg, {});
  const double ll = trainer.LogLikelihoodPerToken();
  // Figure 8's axis spans roughly [−15, −5].
  EXPECT_LT(ll, -4.0);
  EXPECT_GT(ll, -16.0);
}

TEST(Evaluator, ParallelMatchesSequentialBitwise) {
  // The parallel evaluator reduces fixed 256-document chunks in chunk
  // order, so the value must be bit-identical at any worker count — this
  // corpus spans several chunks to exercise the chunk boundaries.
  corpus::SyntheticProfile p;
  p.num_docs = 700;
  p.vocab_size = 300;
  p.avg_doc_length = 20;
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 16;
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(2);
  const auto m = trainer.Gather();

  const double expect = LogLikelihoodPerToken(m, cfg, nullptr);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{8}}) {
    ThreadPool pool(workers);
    EXPECT_EQ(LogLikelihoodPerToken(m, cfg, &pool), expect)
        << workers << " workers";
  }

  // Asymmetric α takes the non-memoized θ path; it must be pool-invariant
  // too.
  cfg.asymmetric_alpha.assign(16, 0.2);
  cfg.asymmetric_alpha[3] = 1.5;
  const double asym = LogLikelihoodPerToken(m, cfg, nullptr);
  ThreadPool pool(4);
  EXPECT_EQ(LogLikelihoodPerToken(m, cfg, &pool), asym);
}

TEST(Evaluator, EmptyModelRejected) {
  GatheredModel m;
  m.num_topics = 2;
  m.vocab_size = 2;
  m.theta = ThetaMatrix(0, 2);
  m.phi = WordMajorPhi(2, 2);
  m.nk = {0, 0};
  CuldaConfig cfg;
  cfg.num_topics = 2;
  EXPECT_THROW(LogLikelihoodPerToken(m, cfg), Error);
}

}  // namespace
}  // namespace culda::core
