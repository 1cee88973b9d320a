// Tests for the extension features: corpus statistics, asymmetric Dirichlet
// priors, asymmetric hyperopt, and multi-node hierarchical synchronization.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/evaluator.hpp"
#include "core/hyperopt.hpp"
#include "core/inference.hpp"
#include "core/sync.hpp"
#include "core/trainer.hpp"
#include "corpus/stats.hpp"
#include "corpus/synthetic.hpp"

namespace culda {
namespace {

// ------------------------------------------------------------ corpus stats

TEST(CorpusStats, SummarizeKnownSample) {
  const auto s = corpus::Summarize({5, 1, 3, 2, 4});
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.median, 3u);
  EXPECT_EQ(s.max, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
}

TEST(CorpusStats, SummarizeEmpty) {
  const auto s = corpus::Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(CorpusStats, MatchesCorpusGroundTruth) {
  const corpus::Corpus c(4, {0, 3, 4, 4, 10},
                         {0, 0, 1, 2, 3, 3, 3, 3, 0, 1});
  const auto stats = corpus::ComputeStats(c);
  EXPECT_EQ(stats.doc_lengths.count, 4u);
  EXPECT_EQ(stats.doc_lengths.min, 0u);
  EXPECT_EQ(stats.doc_lengths.max, 6u);
  EXPECT_EQ(stats.vocab_used, 4u);
  EXPECT_EQ(stats.word_frequencies.max, 4u);  // word 3
}

TEST(CorpusStats, SyntheticProfilesHaveZipfHead) {
  auto p = corpus::NyTimesProfile(0.002);
  p.num_docs = 500;
  p.vocab_size = 2000;
  const auto stats = corpus::ComputeStats(corpus::GenerateCorpus(p));
  // The Zipf head must be heavy: top 1% of words carry well over 10% of
  // tokens (real NYTimes: ~30–40%).
  EXPECT_GT(stats.top1pct_token_share, 0.10);
  EXPECT_LT(stats.top1pct_token_share, 0.95);
}

TEST(CorpusStats, FormatMentionsKeyNumbers) {
  const corpus::Corpus c(2, {0, 2}, {0, 1});
  const std::string s =
      corpus::FormatStats(corpus::ComputeStats(c), "tiny");
  EXPECT_NE(s.find("tiny statistics"), std::string::npos);
  EXPECT_NE(s.find("doc length"), std::string::npos);
}

// ------------------------------------------------------- asymmetric priors

corpus::Corpus SmallCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 250;
  p.vocab_size = 300;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

TEST(AsymmetricAlpha, ConfigValidation) {
  core::CuldaConfig cfg;
  cfg.num_topics = 4;
  cfg.asymmetric_alpha = {0.1, 0.2, 0.3};  // wrong size
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.asymmetric_alpha = {0.1, 0.2, 0.3, 0.0};  // non-positive
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.asymmetric_alpha = {0.1, 0.2, 0.3, 0.4};
  EXPECT_NO_THROW(cfg.Validate());
  EXPECT_DOUBLE_EQ(cfg.AlphaOf(2), 0.3);
  EXPECT_DOUBLE_EQ(cfg.AlphaSum(), 1.0);
}

TEST(AsymmetricAlpha, SymmetricVectorMatchesScalar) {
  // A constant asymmetric vector must behave exactly like the scalar prior.
  const auto c = SmallCorpus();
  core::CuldaConfig scalar;
  scalar.num_topics = 16;
  scalar.alpha = 0.4;
  core::CuldaConfig vec = scalar;
  vec.asymmetric_alpha.assign(16, 0.4);

  core::CuldaTrainer a(c, scalar, {});
  core::CuldaTrainer b(c, vec, {});
  a.Train(3);
  b.Train(3);
  EXPECT_DOUBLE_EQ(a.LogLikelihoodPerToken(), b.LogLikelihoodPerToken());
}

TEST(AsymmetricAlpha, SkewedPriorSkewsTopicSizes) {
  const auto c = SmallCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 8;
  // One topic gets 100× the prior mass of the others.
  cfg.asymmetric_alpha.assign(8, 0.05);
  cfg.asymmetric_alpha[3] = 5.0;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.Train(10);
  const auto model = trainer.Gather();
  model.Validate(c);
  // Topic 3 should be the largest by a clear margin.
  int64_t max_other = 0;
  for (uint32_t k = 0; k < 8; ++k) {
    if (k != 3) max_other = std::max<int64_t>(max_other, model.nk[k]);
  }
  EXPECT_GT(model.nk[3], max_other);
}

TEST(AsymmetricAlpha, TrainingImprovesLikelihood) {
  const auto c = SmallCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  cfg.asymmetric_alpha.assign(16, 0.1);
  cfg.asymmetric_alpha[0] = 1.0;
  core::CuldaTrainer trainer(c, cfg, {});
  const double before = trainer.LogLikelihoodPerToken();
  trainer.Train(8);
  trainer.Gather().Validate(c);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), before);
}

TEST(AsymmetricAlpha, InferenceRespectsPrior) {
  // With no informative words (uniform φ), the inferred mixture follows the
  // asymmetric prior.
  core::GatheredModel m;
  m.num_topics = 2;
  m.vocab_size = 4;
  m.num_docs = 1;
  m.theta = core::ThetaMatrix(1, 2);
  core::ThetaMatrix::RowBuilder b(&m.theta);
  const uint16_t i0[] = {0};
  const int32_t v0[] = {1};
  b.AppendRow(0, i0, v0);
  b.Finish();
  m.phi = core::PhiMatrix(2, 4);
  m.nk = {0, 0};
  for (uint32_t v = 0; v < 4; ++v) {
    m.phi(0, v) = 10;
    m.phi(1, v) = 10;
    m.nk[0] += 10;
    m.nk[1] += 10;
  }
  core::CuldaConfig cfg;
  cfg.num_topics = 2;
  cfg.asymmetric_alpha = {9.0, 1.0};
  const core::InferenceEngine engine(m, cfg);
  const auto result = engine.InferDocument(std::vector<uint32_t>{0, 1}, 30);
  ASSERT_FALSE(result.mixture.empty());
  // The high-prior topic should dominate the smoothed mixture.
  double p0 = 0;
  for (const auto& dt : result.mixture) {
    if (dt.topic == 0) p0 = dt.proportion;
  }
  EXPECT_GT(p0, 0.5);
}

TEST(AsymmetricAlpha, HyperoptRecoversSkew) {
  // Train with a strongly skewed prior; the asymmetric fixed point from the
  // resulting counts must keep topic 3's α well above the others'.
  const auto c = SmallCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 8;
  cfg.asymmetric_alpha.assign(8, 0.05);
  cfg.asymmetric_alpha[3] = 5.0;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.Train(10);

  std::vector<double> alpha(8, 0.5);  // uninformed start
  const auto result =
      core::OptimizeAsymmetricAlpha(trainer.Gather(), alpha, 100, 1e-6);
  EXPECT_GE(result.iterations, 1);
  double max_other = 0;
  for (uint32_t k = 0; k < 8; ++k) {
    if (k != 3) max_other = std::max(max_other, alpha[k]);
  }
  EXPECT_GT(alpha[3], max_other);
}

TEST(AsymmetricAlpha, OptimizerValidatesInputs) {
  const auto c = SmallCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 8;
  core::CuldaTrainer trainer(c, cfg, {});
  std::vector<double> wrong_size(4, 0.1);
  EXPECT_THROW(
      core::OptimizeAsymmetricAlpha(trainer.Gather(), wrong_size), Error);
}

// ------------------------------------------------------- multi-node sync
// SynchronizePhiAcrossNodes bills the sync of the caller's one host φ,
// which already holds the global sum; these run it on a uniform 10 Gb/s
// Ethernet ring.

gpusim::DeviceGroup TwoGpuNode() {
  return gpusim::DeviceGroup(
      std::vector<gpusim::DeviceSpec>(2, gpusim::TitanXpPascal()));
}

TEST(MultiNodeSync, SumsAcrossNodesAndGpus) {
  core::CuldaConfig cfg;
  cfg.num_topics = 4;
  gpusim::DeviceGroup node0 = TwoGpuNode();
  gpusim::DeviceGroup node1 = TwoGpuNode();
  gpusim::Fabric fabric(2, gpusim::FabricTopology::kRing,
                        gpusim::Ethernet10G());
  const core::PhiReplica replica(4, 10);

  const auto stats = core::SynchronizePhiAcrossNodes(
      {&node0, &node1}, cfg, replica, fabric);
  // Both nodes reduce locally, the node sums cross the ring — 2·(N−1)
  // steps, each moving one 1/N segment per node, so 2·(N−1)/N of the model
  // through every NIC — and every GPU ends at or after the exchange.
  const uint64_t bytes = 4 * 10 * cfg.phi_count_bytes();
  EXPECT_GT(stats.intra_node_s, 0.0);
  EXPECT_GT(stats.inter_node_s, 0.0);
  EXPECT_EQ(stats.network_bytes, 2 * bytes);
  EXPECT_EQ(fabric.payload_bytes(), stats.network_bytes);
  EXPECT_EQ(stats.seconds, std::max(node0.Now(), node1.Now()));
  EXPECT_GE(std::min(node0.Now(), node1.Now()),
            stats.intra_node_s + stats.inter_node_s);
}

TEST(MultiNodeSync, SingleNodeHasNoNetworkCost) {
  core::CuldaConfig cfg;
  cfg.num_topics = 4;
  gpusim::DeviceGroup node = TwoGpuNode();
  gpusim::Fabric fabric(1, gpusim::FabricTopology::kRing,
                        gpusim::Ethernet10G());
  const auto stats = core::SynchronizePhiAcrossNodes(
      {&node}, cfg, core::PhiReplica(4, 10), fabric);
  EXPECT_EQ(stats.network_bytes, 0u);
  EXPECT_EQ(stats.inter_node_s, 0.0);
  EXPECT_EQ(fabric.transfer_count(), 0u);
}

TEST(MultiNodeSync, EthernetDominatesIntraNode) {
  // The whole point: at 10 Gb/s the inter-node phase dwarfs the PCIe tree.
  core::CuldaConfig cfg;
  cfg.num_topics = 256;
  gpusim::DeviceGroup node0 = TwoGpuNode();
  gpusim::DeviceGroup node1 = TwoGpuNode();
  gpusim::Fabric fabric(2, gpusim::FabricTopology::kRing,
                        gpusim::Ethernet10G());
  const auto stats = core::SynchronizePhiAcrossNodes(
      {&node0, &node1}, cfg, core::PhiReplica(256, 10000), fabric);
  EXPECT_GT(stats.inter_node_s, 3 * stats.intra_node_s);
}

}  // namespace
}  // namespace culda
