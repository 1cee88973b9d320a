// Differential conformance tests (docs/validation.md): chi-square machinery
// against known values, IndexTreeView sampling frequencies against exact
// probabilities across distribution shapes and fanouts, the serving engine's
// bucket-decomposed sampler against its enumerable closed-form conditional,
// and the cross-solver count harness.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/index_tree.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"
#include "validate/chi_square.hpp"
#include "validate/conformance.hpp"
#include "validate/invariants.hpp"

namespace culda {
namespace {

// All sampling tests are deterministic (Philox streams keyed by fixed
// seeds), so p > 0.01 is a hard bound, not a flake budget.
constexpr double kAlpha = 0.01;
constexpr uint64_t kDraws = 20000;

TEST(ChiSquare, MatchesKnownCriticalValues) {
  // Classic table entries: P(X² >= x | dof) at the 5% and 1% levels.
  EXPECT_NEAR(validate::ChiSquarePValue(3.841, 1), 0.05, 2e-3);
  EXPECT_NEAR(validate::ChiSquarePValue(9.488, 4), 0.05, 2e-3);
  EXPECT_NEAR(validate::ChiSquarePValue(15.086, 5), 0.01, 2e-3);
  EXPECT_DOUBLE_EQ(validate::ChiSquarePValue(0.0, 7), 1.0);
  EXPECT_LT(validate::ChiSquarePValue(200.0, 3), 1e-12);
  // Q(1, x) = e^-x exactly.
  EXPECT_NEAR(validate::RegularizedGammaQ(1.0, 1.0), std::exp(-1.0), 1e-10);
  EXPECT_NEAR(validate::RegularizedGammaQ(1.0, 5.0), std::exp(-5.0), 1e-10);
}

TEST(ChiSquare, GofAcceptsExactAndRejectsGrossMismatch) {
  const std::vector<uint64_t> observed = {100, 200, 300, 400};
  const std::vector<double> exact = {100, 200, 300, 400};
  EXPECT_DOUBLE_EQ(validate::ChiSquareGof(observed, exact).p_value, 1.0);

  const std::vector<double> wrong = {400, 300, 200, 100};
  EXPECT_LT(validate::ChiSquareGof(observed, wrong).p_value, 1e-12);

  // An observed outcome in a zero-probability bin is an immediate fail.
  const std::vector<uint64_t> impossible = {999, 1};
  const std::vector<double> support = {1000, 0};
  EXPECT_EQ(validate::ChiSquareGof(impossible, support).p_value, 0.0);
}

TEST(ChiSquare, PoolsSparseBinsInsteadOfRejectingThem) {
  // 50 bins expecting 2 each: unpooled, the X² validity rule (E >= 5) is
  // violated everywhere; pooling must make the test well-defined and accept
  // a perfect match.
  const std::vector<uint64_t> observed(50, 2);
  const std::vector<double> expected(50, 2.0);
  const auto r = validate::ChiSquareGof(observed, expected);
  EXPECT_GT(r.dof, 0);
  EXPECT_LT(r.dof, 49);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

/// The required >= 5 distribution shapes, chosen to stress different tree
/// paths: uniform (every leaf equally likely), geometric decay (mass at the
/// front), one dominant spike (deep clamp path), bimodal ends (first/last
/// leaf groups), linear ramp (mass at the back), and zero-interleaved
/// support (unreachable leaves between reachable ones).
std::vector<std::pair<const char*, std::vector<float>>> Shapes() {
  std::vector<std::pair<const char*, std::vector<float>>> shapes;
  shapes.emplace_back("uniform", std::vector<float>(64, 1.0f));
  std::vector<float> geometric(64);
  for (size_t i = 0; i < geometric.size(); ++i) {
    geometric[i] = std::pow(0.85f, static_cast<float>(i));
  }
  shapes.emplace_back("geometric", geometric);
  std::vector<float> spike(64, 0.01f);
  spike[17] = 10.0f;
  shapes.emplace_back("spike", spike);
  std::vector<float> bimodal(64, 0.001f);
  bimodal[0] = 1.0f;
  bimodal[63] = 1.0f;
  shapes.emplace_back("bimodal", bimodal);
  std::vector<float> ramp(64);
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<float>(i + 1);
  }
  shapes.emplace_back("ramp", ramp);
  std::vector<float> holes(64, 0.0f);
  for (size_t i = 0; i < holes.size(); i += 2) holes[i] = 1.0f + 0.05f * i;
  shapes.emplace_back("holes", holes);
  return shapes;
}

TEST(TreeConformance, SamplingMatchesExactDistributionAcrossShapes) {
  for (const uint32_t fanout : {2u, 8u, 32u}) {
    uint64_t seed = 99;
    for (const auto& [name, p] : Shapes()) {
      const auto r = validate::TreeSamplingGof(p, fanout, kDraws, seed++);
      EXPECT_GT(r.p_value, kAlpha)
          << "shape '" << name << "' fanout " << fanout
          << ": X² = " << r.statistic << " at dof " << r.dof;
    }
  }
}

TEST(TreeConformance, DetectsABiasedDistribution) {
  // Power check: the same draw histogram tested against the *wrong*
  // expectation must fail decisively — otherwise the accepts above are
  // meaningless.
  const std::vector<float> p = {1.0f, 1.0f, 1.0f, 2.0f};
  core::IndexTree tree(p.size(), 4);
  tree.view().Build(p);
  PhiloxStream rng(13, 0);
  std::vector<uint64_t> observed(p.size(), 0);
  for (uint64_t d = 0; d < kDraws; ++d) {
    const float u =
        static_cast<float>(rng.NextDouble()) * tree.view().TotalMass();
    observed[tree.view().Search(u)] += 1;
  }
  const std::vector<double> uniform(p.size(), kDraws / 4.0);
  EXPECT_LT(validate::ChiSquareGof(observed, uniform).p_value, 1e-6);
}

/// A small hand-built served model with an uneven φ column, so the exact
/// conditional p(k) ∝ α_k(φ_kv + β)/(n_k + βV) is far from uniform.
core::GatheredModel TinyModel(uint32_t k_topics = 12, uint32_t vocab = 6) {
  core::GatheredModel model;
  model.num_topics = k_topics;
  model.vocab_size = vocab;
  model.num_docs = 0;
  model.theta = core::ThetaMatrix(0, k_topics);
  model.phi = core::WordMajorPhi(k_topics, vocab);
  for (uint32_t k = 0; k < k_topics; ++k) {
    for (uint32_t v = 0; v < vocab; ++v) {
      // Word 2 concentrated on low topics, word 3 absent from half of them.
      model.phi(k, v) = static_cast<uint16_t>(
          (v == 2 ? (k < 4 ? 40 + 13 * k : 1)
                  : (v == 3 && k % 2 == 0 ? 0 : 5 + ((k * 7 + v) % 11))));
    }
  }
  model.nk.assign(k_topics, 0);
  for (uint32_t k = 0; k < k_topics; ++k) {
    int32_t sum = 0;
    for (uint32_t v = 0; v < vocab; ++v) sum += model.phi(k, v);
    model.nk[k] = sum;
  }
  return model;
}

class BucketSamplerConformance
    : public ::testing::TestWithParam<core::InferSampler> {};

/// The exact modes sample the conditional in one sweep; the MH chain gets
/// sweeps to mix (under a symmetric prior its word proposal is already
/// exact, but the asymmetric test below needs the extra pairs).
uint32_t SweepsFor(core::InferSampler sampler) {
  return sampler == core::InferSampler::kAliasMH ? 30 : 1;
}

TEST_P(BucketSamplerConformance, MatchesExactConditional) {
  const auto model = TinyModel();
  core::CuldaConfig cfg;
  cfg.num_topics = model.num_topics;
  uint64_t seed = 1000;
  for (const uint32_t word : {2u, 3u, 5u}) {
    const auto r = validate::BucketSamplerGof(model, cfg, GetParam(), word,
                                              kDraws, seed,
                                              SweepsFor(GetParam()));
    seed += kDraws;
    EXPECT_GT(r.p_value, kAlpha)
        << "word " << word << ": X² = " << r.statistic << " at dof "
        << r.dof;
  }
}

TEST_P(BucketSamplerConformance, MatchesExactConditionalAsymmetricAlpha) {
  const auto model = TinyModel();
  core::CuldaConfig cfg;
  cfg.num_topics = model.num_topics;
  cfg.asymmetric_alpha.resize(cfg.num_topics);
  for (uint32_t k = 0; k < cfg.num_topics; ++k) {
    cfg.asymmetric_alpha[k] = 0.5 + 2.0 * (k % 3);
  }
  const auto r = validate::BucketSamplerGof(model, cfg, GetParam(), 2,
                                            kDraws, 77777,
                                            SweepsFor(GetParam()));
  EXPECT_GT(r.p_value, kAlpha)
      << "X² = " << r.statistic << " at dof " << r.dof;
}

INSTANTIATE_TEST_SUITE_P(
    Samplers, BucketSamplerConformance,
    ::testing::Values(core::InferSampler::kSparseBucket,
                      core::InferSampler::kDenseReference,
                      core::InferSampler::kAliasMH),
    [](const auto& info) {
      switch (info.param) {
        case core::InferSampler::kSparseBucket: return "SparseBucket";
        case core::InferSampler::kDenseReference: return "DenseReference";
        case core::InferSampler::kAliasMH: return "AliasMH";
      }
      return "Unknown";
    });

corpus::Corpus ConformanceCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 250;
  p.avg_doc_length = 25;
  return corpus::GenerateCorpus(p);
}

TEST(CountConformance, AllSolversAgreeOnSingleGpu) {
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  cfg.max_tokens_per_block = 256;
  validate::ConformanceOptions opts;
  opts.iterations = 2;
  opts.gpus = 1;
  EXPECT_NO_THROW(
      validate::RunCountConformance(ConformanceCorpus(), cfg, opts));
}

TEST(CountConformance, AllSolversAgreeOnMultiGpu) {
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  cfg.max_tokens_per_block = 256;
  validate::ConformanceOptions opts;
  opts.iterations = 2;
  opts.gpus = 2;
  EXPECT_NO_THROW(
      validate::RunCountConformance(ConformanceCorpus(), cfg, opts));
}

// The count-table invariants are sampler-independent: the alias/MH training
// kernel must maintain them exactly even though its assignments follow a
// different (stale-proposal) chain than the exact tree kernel's.
TEST(CountConformance, AliasMhTrainerMaintainsExactCounts) {
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  cfg.max_tokens_per_block = 256;
  validate::ConformanceOptions opts;
  opts.iterations = 2;
  opts.sampler = core::TrainSampler::kAliasMH;
  opts.mh_cycles = 2;
  EXPECT_NO_THROW(
      validate::RunCountConformance(ConformanceCorpus(), cfg, opts));
}

TEST(CountConformance, AliasMhTrainerMaintainsExactCountsMultiGpu) {
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  cfg.max_tokens_per_block = 256;
  validate::ConformanceOptions opts;
  opts.iterations = 2;
  opts.gpus = 2;
  opts.sampler = core::TrainSampler::kAliasMH;
  EXPECT_NO_THROW(
      validate::RunCountConformance(ConformanceCorpus(), cfg, opts));
}

}  // namespace
}  // namespace culda
