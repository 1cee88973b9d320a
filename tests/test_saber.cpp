// Tests for the SaberLDA-class GPU baseline.
#include <gtest/gtest.h>

#include "baselines/saber_gpu.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"

namespace culda::baselines {
namespace {

corpus::Corpus TestCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 300;
  p.vocab_size = 300;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig TestConfig(uint32_t k = 32) {
  core::CuldaConfig cfg;
  cfg.num_topics = k;
  return cfg;
}

TEST(SaberGpu, ModelInvariantsHold) {
  const auto c = TestCorpus();
  SaberGpuLda solver(c, TestConfig());
  for (int i = 0; i < 3; ++i) solver.Step();
  solver.Gather().Validate(c);
}

TEST(SaberGpu, LogLikelihoodImproves) {
  const auto c = TestCorpus();
  SaberGpuLda solver(c, TestConfig());
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 10; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(SaberGpu, Deterministic) {
  const auto c = TestCorpus();
  SaberGpuLda a(c, TestConfig()), b(c, TestConfig());
  a.Step();
  b.Step();
  EXPECT_DOUBLE_EQ(a.LogLikelihoodPerToken(), b.LogLikelihoodPerToken());
}

TEST(SaberGpu, FasterThanDensePriorArtSlowerThanCulda) {
  // The paper's Section 7.2 ordering on comparable hardware:
  // dense prior art < SaberLDA < CuLDA.
  corpus::SyntheticProfile p;
  p.num_docs = 1500;
  p.vocab_size = 1500;
  p.avg_doc_length = 120;
  const auto c = corpus::GenerateCorpus(p);
  const auto cfg = TestConfig(256);

  SaberGpuLda saber(c, cfg, gpusim::TitanXMaxwell());
  saber.Step();
  const double saber_tps = saber.Step().tokens_per_sec;

  core::TrainerOptions opts;
  opts.gpus = {gpusim::TitanXMaxwell()};
  core::CuldaTrainer culda(c, cfg, opts);
  culda.Step();
  const double culda_tps = culda.Step().tokens_per_sec;

  EXPECT_GT(culda_tps, saber_tps);
  EXPECT_GT(saber_tps, 10e6);  // far above dense prior art
}

TEST(SaberGpu, RejectsAsymmetricPrior) {
  const auto c = TestCorpus();
  auto cfg = TestConfig(8);
  cfg.asymmetric_alpha.assign(8, 0.1);
  EXPECT_THROW(SaberGpuLda(c, cfg), Error);
}

}  // namespace
}  // namespace culda::baselines
