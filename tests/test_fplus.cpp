// Tests for the F+ tree and the F+LDA baseline (paper reference [33]).
#include <gtest/gtest.h>

#include "baselines/cpu_cgs.hpp"
#include "baselines/fplus_lda.hpp"
#include "baselines/fplus_tree.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"

namespace culda::baselines {
namespace {

// ----------------------------------------------------------------- F+ tree

TEST(FPlusTree, BuildAndTotal) {
  FPlusTree tree(5);
  const float w[] = {1, 2, 3, 4, 5};
  tree.Build(w);
  EXPECT_FLOAT_EQ(tree.Total(), 15.0f);
  EXPECT_FLOAT_EQ(tree.Get(2), 3.0f);
}

TEST(FPlusTree, PointUpdateAdjustsTotal) {
  FPlusTree tree(4);
  const float w[] = {1, 1, 1, 1};
  tree.Build(w);
  tree.Set(2, 5.0f);
  EXPECT_FLOAT_EQ(tree.Total(), 8.0f);
  EXPECT_FLOAT_EQ(tree.Get(2), 5.0f);
  EXPECT_FLOAT_EQ(tree.Get(1), 1.0f);
}

TEST(FPlusTree, SampleMatchesLinearScan) {
  const uint32_t n = 37;  // non-power-of-two
  FPlusTree tree(n);
  PhiloxStream rng(3, 0);
  std::vector<float> w(n);
  for (auto& x : w) x = rng.NextFloat() + 0.01f;
  tree.Build(w);
  for (int i = 0; i < 2000; ++i) {
    const float u = rng.NextFloat() * tree.Total() * 0.9999f;
    float acc = 0;
    uint32_t expected = n - 1;
    for (uint32_t k = 0; k < n; ++k) {
      acc += w[k];
      if (acc > u) {
        expected = k;
        break;
      }
    }
    EXPECT_EQ(tree.Sample(u), expected) << "u=" << u;
  }
}

TEST(FPlusTree, SampleAfterUpdatesMatchesScan) {
  const uint32_t n = 16;
  FPlusTree tree(n);
  std::vector<float> w(n, 1.0f);
  tree.Build(w);
  PhiloxStream rng(9, 1);
  for (int round = 0; round < 200; ++round) {
    const uint32_t i = rng.NextBelow(n);
    w[i] = rng.NextFloat() * 3;
    tree.Set(i, w[i]);
    const float u = rng.NextFloat() * tree.Total() * 0.999f;
    float acc = 0;
    uint32_t expected = n - 1;
    for (uint32_t k = 0; k < n; ++k) {
      acc += w[k];
      if (acc > u) {
        expected = k;
        break;
      }
    }
    EXPECT_EQ(tree.Sample(u), expected);
  }
}

TEST(FPlusTree, ZeroWeightsNeverSampledInteriorly) {
  FPlusTree tree(8);
  const float w[] = {0, 2, 0, 0, 3, 0, 1, 0};
  tree.Build(w);
  PhiloxStream rng(5, 0);
  for (int i = 0; i < 1000; ++i) {
    const uint32_t k = tree.Sample(rng.NextFloat() * tree.Total() * 0.999f);
    EXPECT_TRUE(k == 1 || k == 4 || k == 6) << k;
  }
}

TEST(FPlusTree, ClampsOverdraw) {
  FPlusTree tree(3);
  const float w[] = {1, 1, 1};
  tree.Build(w);
  EXPECT_LT(tree.Sample(100.0f), 3u);
}

// ------------------------------------------------------------------ F+LDA

corpus::Corpus TestCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 250;
  p.vocab_size = 300;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig TestConfig(uint32_t k = 24) {
  core::CuldaConfig cfg;
  cfg.num_topics = k;
  return cfg;
}

TEST(FPlusLda, CountsStayConsistent) {
  const auto c = TestCorpus();
  FPlusLda solver(c, TestConfig());
  solver.Validate();
  for (int i = 0; i < 3; ++i) {
    solver.Step();
    solver.Validate();
  }
}

TEST(FPlusLda, LogLikelihoodImproves) {
  const auto c = TestCorpus();
  FPlusLda solver(c, TestConfig());
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 8; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(FPlusLda, Deterministic) {
  const auto c = TestCorpus();
  FPlusLda a(c, TestConfig()), b(c, TestConfig());
  a.Step();
  b.Step();
  EXPECT_DOUBLE_EQ(a.LogLikelihoodPerToken(), b.LogLikelihoodPerToken());
}

TEST(FPlusLda, ConvergesToSimilarQualityAsDenseCgs) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  FPlusLda fplus(c, cfg);
  CpuCgs dense(c, cfg);
  for (int i = 0; i < 10; ++i) {
    fplus.Step();
    dense.Step();
  }
  EXPECT_NEAR(fplus.LogLikelihoodPerToken(), dense.LogLikelihoodPerToken(),
              0.15);
}

TEST(FPlusLda, FasterThanDenseCgsAtLargeK) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig(192);
  FPlusLda fplus(c, cfg);
  CpuCgs dense(c, cfg);
  const core::IterationStats fplus_step = fplus.Step();
  const core::IterationStats dense_step = dense.Step();
  EXPECT_LT(fplus.ModeledSeconds(), dense.ModeledSeconds());
  EXPECT_GT(fplus_step.tokens_per_sec, 2 * dense_step.tokens_per_sec);
}

}  // namespace
}  // namespace culda::baselines
