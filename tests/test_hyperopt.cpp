// Tests for digamma and the Minka fixed-point hyper-parameter updates.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/evaluator.hpp"
#include "core/hyperopt.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/math.hpp"

namespace culda::core {
namespace {

// ----------------------------------------------------------------- digamma

TEST(Digamma, KnownValues) {
  // ψ(1) = −γ, ψ(0.5) = −γ − 2 ln 2, ψ(2) = 1 − γ.
  const double euler_gamma = 0.5772156649015329;
  EXPECT_NEAR(Digamma(1.0), -euler_gamma, 1e-10);
  EXPECT_NEAR(Digamma(0.5), -euler_gamma - 2 * std::log(2.0), 1e-10);
  EXPECT_NEAR(Digamma(2.0), 1.0 - euler_gamma, 1e-10);
}

TEST(Digamma, RecurrenceHolds) {
  // ψ(x+1) = ψ(x) + 1/x across magnitudes.
  for (const double x : {0.1, 0.9, 3.7, 12.0, 250.0}) {
    EXPECT_NEAR(Digamma(x + 1), Digamma(x) + 1.0 / x, 1e-9) << x;
  }
}

TEST(Digamma, AsymptoticForLargeX) {
  // ψ(x) → ln x − 1/(2x).
  const double x = 1e6;
  EXPECT_NEAR(Digamma(x), std::log(x) - 0.5 / x, 1e-10);
}

// ------------------------------------------------------------- fixed point

/// Builds a model whose θ rows are sampled from Dirichlet(α_true) ×
/// multinomial, so the fixed point should land near α_true.
GatheredModel SyntheticThetaModel(double alpha_true, uint32_t k_topics,
                                  size_t docs, int tokens_per_doc,
                                  uint64_t seed) {
  std::mt19937_64 rng(seed);
  GatheredModel m;
  m.num_topics = k_topics;
  m.vocab_size = 2;  // φ irrelevant for the α test
  m.num_docs = docs;
  m.theta = ThetaMatrix(docs, k_topics);
  ThetaMatrix::RowBuilder b(&m.theta);
  std::gamma_distribution<double> gamma(alpha_true, 1.0);
  std::vector<double> theta(k_topics);
  std::vector<int32_t> counts(k_topics);
  for (size_t d = 0; d < docs; ++d) {
    double sum = 0;
    for (auto& t : theta) {
      t = gamma(rng);
      sum += t;
    }
    std::fill(counts.begin(), counts.end(), 0);
    std::uniform_real_distribution<double> uni(0, sum);
    for (int i = 0; i < tokens_per_doc; ++i) {
      double u = uni(rng);
      uint32_t k = k_topics - 1;
      for (uint32_t c = 0; c < k_topics; ++c) {
        u -= theta[c];
        if (u <= 0) {
          k = c;
          break;
        }
      }
      ++counts[k];
    }
    std::vector<uint16_t> idx;
    std::vector<int32_t> val;
    for (uint32_t k = 0; k < k_topics; ++k) {
      if (counts[k] != 0) {
        idx.push_back(static_cast<uint16_t>(k));
        val.push_back(counts[k]);
      }
    }
    b.AppendRow(d, idx, val);
  }
  b.Finish();
  m.phi = WordMajorPhi(k_topics, 2);
  m.nk.assign(k_topics, 0);
  return m;
}

class AlphaRecovery : public ::testing::TestWithParam<double> {};

TEST_P(AlphaRecovery, FixedPointLandsNearTruth) {
  const double alpha_true = GetParam();
  const auto model =
      SyntheticThetaModel(alpha_true, 16, 800, 60, 42);
  // Start from a wrong initial value on either side.
  for (const double start : {alpha_true * 4, alpha_true / 4}) {
    const auto result = OptimizeAlpha(model, start, 200, 1e-7);
    EXPECT_TRUE(result.converged);
    EXPECT_NEAR(result.value, alpha_true, alpha_true * 0.35)
        << "start=" << start;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaRecovery,
                         ::testing::Values(0.05, 0.2, 1.0),
                         [](const auto& info) {
                           return "alpha" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

TEST(OptimizeAlpha, ImprovesJointLikelihood) {
  corpus::SyntheticProfile p;
  p.num_docs = 400;
  p.vocab_size = 300;
  p.avg_doc_length = 40;
  p.doc_topic_alpha = 0.05;  // peakier than the 50/K default
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 32;
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(10);
  const auto model = trainer.Gather();

  const auto opt = OptimizeAlpha(model, cfg.EffectiveAlpha());
  CuldaConfig tuned = cfg;
  tuned.alpha = opt.value;
  EXPECT_GE(LogLikelihoodPerToken(model, tuned),
            LogLikelihoodPerToken(model, cfg));
}

TEST(OptimizeBeta, ImprovesJointLikelihood) {
  corpus::SyntheticProfile p;
  p.num_docs = 300;
  p.vocab_size = 400;
  const auto c = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = 24;
  cfg.beta = 0.5;  // deliberately mis-set
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(8);
  const auto model = trainer.Gather();

  const auto opt = OptimizeBeta(model, cfg.beta);
  CuldaConfig tuned = cfg;
  tuned.beta = opt.value;
  EXPECT_GT(LogLikelihoodPerToken(model, tuned),
            LogLikelihoodPerToken(model, cfg));
  EXPECT_LT(opt.value, cfg.beta);  // sparse φ wants a smaller β
}

TEST(OptimizeAlpha, ValidatesInputs) {
  const auto model = SyntheticThetaModel(0.1, 4, 10, 20, 1);
  EXPECT_THROW(OptimizeAlpha(model, 0.0), Error);
  EXPECT_THROW(OptimizeAlpha(model, 0.1, 0), Error);
}

TEST(OptimizeAlpha, ReportsIterationCount) {
  const auto model = SyntheticThetaModel(0.2, 8, 200, 40, 3);
  const auto result = OptimizeAlpha(model, 1.0, 100, 1e-8);
  EXPECT_GE(result.iterations, 1);
  EXPECT_LE(result.iterations, 100);
}

}  // namespace
}  // namespace culda::core
