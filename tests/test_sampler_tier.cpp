// Tests for the O(1) sampler tier (docs/samplers.md): the shared Walker
// alias table, the alias/MH serving and training paths, and the SIMD hot
// loops' scalar-equivalence contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/inference.hpp"
#include "core/online.hpp"
#include "core/sampler/alias_table.hpp"
#include "core/sampler/sampler.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/philox.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace culda {
namespace {

// --- AliasTable -----------------------------------------------------------

/// The probability the finished table assigns to index i: its own cell plus
/// every cell whose alias points at it.
std::vector<double> ImpliedProbabilities(const core::AliasTable& t) {
  const size_t n = t.prob.size();
  std::vector<double> p(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    p[i] += t.prob[i] / static_cast<double>(n);
    p[t.alias[i]] += (1.0 - t.prob[i]) / static_cast<double>(n);
  }
  return p;
}

TEST(AliasTable, PrecisionUnderAdversarialMagnitudeSpread) {
  // One weight of 2^24 followed by 65535 ones: a float accumulator absorbs
  // every subsequent 1.0f (2^24 + 1 == 2^24 in float), silently dropping
  // ~0.4% of the total mass. The builder must accumulate in double.
  std::vector<float> w(65536, 1.0f);
  w[0] = 16777216.0f;  // 2^24
  core::AliasTable t;
  t.Build(w);
  const double exact_total = 16777216.0 + 65535.0;
  EXPECT_EQ(t.total, exact_total);

  const auto p = ImpliedProbabilities(t);
  EXPECT_NEAR(p[0], 16777216.0 / exact_total, 1e-4 * p[0]);
  // Spot-check small weights: each must keep its 1/total share.
  for (const size_t i : {1ul, 777ul, 65535ul}) {
    EXPECT_NEAR(p[i], 1.0 / exact_total, 1e-4 / exact_total)
        << "index " << i;
  }
}

TEST(AliasTable, ImpliedProbabilitiesMatchWeights) {
  std::vector<float> w = {1.0f, 2.0f, 3.0f, 4.0f, 0.0f, 10.0f};
  core::AliasTable t;
  t.Build(w);
  double total = 0;
  for (const float x : w) total += x;
  const auto p = ImpliedProbabilities(t);
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(p[i], w[i] / total, 1e-6) << "index " << i;
  }
}

TEST(AliasTable, SingleElementAlwaysSampled) {
  std::vector<float> w = {3.5f};
  core::AliasTable t;
  t.Build(w);
  PhiloxStream rng(1, 0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(t.Sample(rng.NextBelow(1), rng.NextFloat()), 0u);
  }
}

TEST(AliasTable, SampleFrequenciesTrackWeights) {
  std::vector<float> w = {1.0f, 2.0f, 3.0f, 4.0f};
  core::AliasTable t;
  t.Build(w);
  PhiloxStream rng(7, 0);
  std::vector<uint64_t> hits(w.size(), 0);
  const uint64_t draws = 100000;
  for (uint64_t d = 0; d < draws; ++d) {
    hits[t.Sample(rng.NextBelow(4), rng.NextFloat())] += 1;
  }
  for (size_t i = 0; i < w.size(); ++i) {
    const double expect = w[i] / 10.0;
    EXPECT_NEAR(hits[i] / double(draws), expect, 0.01) << "index " << i;
  }
}

TEST(AliasTable, BuildReusesScratchAcrossCalls) {
  core::AliasBuildScratch scratch;
  std::vector<float> prob;
  std::vector<uint16_t> alias;
  for (const size_t n : {5ul, 300ul, 7ul}) {
    std::vector<float> w(n);
    PhiloxStream rng(n, 0);
    for (auto& x : w) x = rng.NextFloat() + 0.01f;
    prob.assign(n, 0.0f);
    alias.assign(n, 0);
    const double total = core::BuildAliasInto(w, prob, alias, scratch);
    double exact = 0;
    for (const float x : w) exact += x;
    EXPECT_NEAR(total, exact, 1e-9 * exact);
  }
}

// --- Mode parsers ---------------------------------------------------------

TEST(SamplerParse, AcceptsEveryMode) {
  EXPECT_EQ(core::ParseTrainSampler("tree"), core::TrainSampler::kTree);
  EXPECT_EQ(core::ParseTrainSampler("alias-mh"),
            core::TrainSampler::kAliasMH);
  EXPECT_EQ(core::ParseInferSampler("sparse"),
            core::InferSampler::kSparseBucket);
  EXPECT_EQ(core::ParseInferSampler("dense"),
            core::InferSampler::kDenseReference);
  EXPECT_EQ(core::ParseInferSampler("alias-mh"),
            core::InferSampler::kAliasMH);
}

TEST(SamplerParse, RejectsUnknownModeWithDescriptiveError) {
  try {
    core::ParseTrainSampler("warp");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("warp"), std::string::npos);
    EXPECT_NE(msg.find("tree"), std::string::npos);
    EXPECT_NE(msg.find("alias-mh"), std::string::npos);
  }
  try {
    core::ParseInferSampler("bogus");
    FAIL() << "expected an Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bogus"), std::string::npos);
    EXPECT_NE(msg.find("sparse"), std::string::npos);
    EXPECT_NE(msg.find("dense"), std::string::npos);
    EXPECT_NE(msg.find("alias-mh"), std::string::npos);
  }
}

// --- Serving MH edge cases ------------------------------------------------

/// K topics over `vocab` words; word 0 lives in topic 0 only, the last word
/// has an all-zero φ column, the rest are spread.
core::GatheredModel EdgeModel(uint32_t k_topics = 8, uint32_t vocab = 10) {
  core::GatheredModel m;
  m.num_topics = k_topics;
  m.vocab_size = vocab;
  m.num_docs = 0;
  m.theta = core::ThetaMatrix(0, k_topics);
  m.phi = core::WordMajorPhi(k_topics, vocab);
  for (uint32_t v = 1; v + 1 < vocab; ++v) {
    for (uint32_t k = 0; k < k_topics; ++k) {
      m.phi(k, v) = static_cast<uint16_t>(1 + (k * 5 + v) % 9);
    }
  }
  m.phi(0, 0) = 500;  // single-topic word
  m.nk.assign(k_topics, 0);
  for (uint32_t k = 0; k < k_topics; ++k) {
    int32_t sum = 0;
    for (uint32_t v = 0; v < vocab; ++v) sum += m.phi(k, v);
    m.nk[k] = sum;
  }
  return m;
}

core::InferenceEngine MhEngine(const core::GatheredModel& m,
                               const core::CuldaConfig& cfg,
                               uint32_t mh_cycles = 1,
                               ThreadPool* pool = nullptr) {
  core::InferenceOptions opts;
  opts.sampler = core::InferSampler::kAliasMH;
  opts.mh_cycles = mh_cycles;
  opts.pool = pool;
  return core::InferenceEngine(m, cfg, opts);
}

core::CuldaConfig EdgeConfig(uint32_t k_topics = 8) {
  core::CuldaConfig cfg;
  cfg.num_topics = k_topics;
  cfg.alpha = 0.1;
  cfg.beta = 0.01;
  return cfg;
}

TEST(AliasMhServing, SingleTopicWordConcentrates) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  const auto engine = MhEngine(model, cfg);
  const std::vector<uint32_t> doc(20, 0u);  // twenty copies of word 0
  const auto r = engine.InferDocument(doc, 30, 3);
  ASSERT_FALSE(r.mixture.empty());
  EXPECT_EQ(r.mixture[0].topic, 0u);
  EXPECT_GT(r.mixture[0].proportion, 0.8);
}

TEST(AliasMhServing, AllZeroPhiColumnFallsBackToSmoothing) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  const auto engine = MhEngine(model, cfg);
  // The last word has no topic counts at all: the word proposal must route
  // through the β-smoothing alias (its column alias has zero mass).
  const std::vector<uint32_t> doc(8, model.vocab_size - 1);
  const auto r = engine.InferDocument(doc, 20, 5);
  EXPECT_EQ(r.tokens, doc.size());
  int64_t total = 0;
  for (const int32_t c : r.topic_counts) {
    EXPECT_GE(c, 0);
    total += c;
  }
  EXPECT_EQ(total, static_cast<int64_t>(doc.size()));
}

TEST(AliasMhServing, SingleTokenDocumentUsesPriorProposal) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  const auto engine = MhEngine(model, cfg, /*mh_cycles=*/3);
  // len == 1: the doc proposal's other-token branch is empty, so the α
  // branch must cover every cycle without touching NextBelow(0).
  const std::vector<uint32_t> doc = {4};
  const auto r = engine.InferDocument(doc, 25, 11);
  EXPECT_EQ(r.tokens, 1u);
  ASSERT_EQ(r.assignments.size(), 1u);
  EXPECT_LT(r.assignments[0], model.num_topics);
}

TEST(AliasMhServing, DeterministicInSeedAndCycles) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  const std::vector<uint32_t> doc = {1, 4, 2, 7, 3, 1, 8, 5};
  for (const uint32_t cycles : {1u, 2u, 4u}) {
    const auto engine = MhEngine(model, cfg, cycles);
    const auto a = engine.InferDocument(doc, 15, 9);
    const auto b = engine.InferDocument(doc, 15, 9);
    EXPECT_EQ(a.assignments, b.assignments) << "mh_cycles " << cycles;
    EXPECT_EQ(a.topic_counts, b.topic_counts) << "mh_cycles " << cycles;
  }
}

TEST(AliasMhServing, MixtureConsistentWithAssignments) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  const auto engine = MhEngine(model, cfg, /*mh_cycles=*/2);
  const std::vector<uint32_t> doc = {1, 2, 3, 4, 5, 6, 1, 2, 3, 4};
  const auto r = engine.InferDocument(doc, 10, 21);
  std::vector<int32_t> rebuilt(model.num_topics, 0);
  for (const uint16_t z : r.assignments) rebuilt[z] += 1;
  EXPECT_EQ(r.topic_counts, rebuilt);
  for (const auto& dt : r.mixture) {
    EXPECT_GT(dt.count, 0);
    EXPECT_EQ(dt.count, rebuilt[dt.topic]);
  }
}

TEST(AliasMhServing, BatchMatchesSequentialAtAnyWorkerCount) {
  const auto model = EdgeModel();
  const auto cfg = EdgeConfig();
  std::vector<std::vector<uint32_t>> docs;
  PhiloxStream rng(77, 0);
  for (int d = 0; d < 12; ++d) {
    std::vector<uint32_t> doc(3 + rng.NextBelow(14));
    for (auto& w : doc) w = rng.NextBelow(model.vocab_size - 1);
    docs.push_back(std::move(doc));
  }
  std::vector<uint64_t> seeds(docs.size());
  for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = 100 + i;

  const auto seq_engine = MhEngine(model, cfg, /*mh_cycles=*/2);
  std::vector<std::vector<uint16_t>> sequential;
  for (size_t i = 0; i < docs.size(); ++i) {
    sequential.push_back(
        seq_engine.InferDocument(docs[i], 10, seeds[i]).assignments);
  }
  const auto batched = seq_engine.InferBatch(docs, 10, seeds);
  ASSERT_EQ(batched.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(batched[i].assignments, sequential[i]) << "doc " << i;
  }

  ThreadPool pool(4);
  const auto pooled_engine = MhEngine(model, cfg, /*mh_cycles=*/2, &pool);
  const auto pooled = pooled_engine.InferBatch(docs, 10, seeds);
  ASSERT_EQ(pooled.size(), docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(pooled[i].assignments, sequential[i]) << "doc " << i;
  }
}

// --- SIMD scalar-equivalence ---------------------------------------------

TEST(Simd, NextNonZeroMatchesScalar) {
  PhiloxStream rng(5, 0);
  for (const size_t n : {0ul, 1ul, 31ul, 64ul, 257ul, 1000ul}) {
    std::vector<uint16_t> u16(n, 0);
    std::vector<int32_t> i32(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBelow(10) == 0) u16[i] = static_cast<uint16_t>(i + 1);
      if (rng.NextBelow(10) == 0) i32[i] = static_cast<int32_t>(i + 1);
    }
    for (size_t from = 0; from <= n; from += 1 + from / 3) {
      EXPECT_EQ(simd::NextNonZeroU16Simd(u16.data(), n, from),
                simd::NextNonZeroU16Scalar(u16.data(), n, from))
          << "n=" << n << " from=" << from;
      EXPECT_EQ(simd::NextNonZeroI32Simd(i32.data(), n, from),
                simd::NextNonZeroI32Scalar(i32.data(), n, from))
          << "n=" << n << " from=" << from;
    }
    std::vector<uint32_t> want;
    for (size_t i = simd::NextNonZeroU16Scalar(u16.data(), n, 0); i < n;
         i = simd::NextNonZeroU16Scalar(u16.data(), n, i + 1)) {
      want.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint32_t> got(n);
    got.resize(simd::NonZeroIndicesU16(u16.data(), n, got.data()));
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(Simd, ScaleMatchesScalar) {
  PhiloxStream rng(6, 0);
  for (const size_t n : {0ul, 1ul, 7ul, 32ul, 100ul, 513ul}) {
    std::vector<float> f32(n);
    std::vector<double> f64(n);
    for (size_t i = 0; i < n; ++i) {
      f32[i] = rng.NextFloat();
      f64[i] = rng.NextDouble();
    }
    std::vector<float> out_a(n), out_b(n);
    simd::ScaleF32Simd(f32.data(), 1.25f, out_a.data(), n);
    simd::ScaleF32Scalar(f32.data(), 1.25f, out_b.data(), n);
    EXPECT_EQ(out_a, out_b) << "n=" << n;

    simd::ScaleF64ToF32Simd(f64.data(), 0.375, out_a.data(), n);
    simd::ScaleF64ToF32Scalar(f64.data(), 0.375, out_b.data(), n);
    EXPECT_EQ(out_a, out_b) << "n=" << n;
  }
}

TEST(Simd, EngineOutputsBitIdenticalEitherWay) {
  corpus::SyntheticProfile profile;
  profile.num_docs = 40;
  profile.vocab_size = 120;
  profile.avg_doc_length = 30;
  const auto corpus = corpus::GenerateCorpus(profile);
  core::CuldaConfig cfg;
  cfg.num_topics = 32;
  core::TrainerOptions topts;
  topts.gpus.assign(1, gpusim::V100Volta());
  core::CuldaTrainer trainer(corpus, cfg, topts);
  trainer.Train(3);
  const auto model = trainer.Gather();

  const bool was = simd::Enabled();
  for (const auto sampler : {core::InferSampler::kSparseBucket,
                             core::InferSampler::kDenseReference}) {
    core::InferenceOptions opts;
    opts.sampler = sampler;
    const core::InferenceEngine engine(model, cfg, opts);
    const std::vector<uint32_t> doc = {3, 50, 17, 99, 3, 42, 8};
    simd::SetEnabled(true);
    const auto on = engine.InferDocument(doc, 12, 5);
    const double ppl_on = engine.DocumentCompletionPerplexity(corpus, 3);
    simd::SetEnabled(false);
    const auto off = engine.InferDocument(doc, 12, 5);
    const double ppl_off = engine.DocumentCompletionPerplexity(corpus, 3);
    EXPECT_EQ(on.assignments, off.assignments);
    EXPECT_EQ(ppl_on, ppl_off);
  }
  simd::SetEnabled(was);
}

// --- Trainer MH path ------------------------------------------------------

corpus::Corpus TrainCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 80;
  p.vocab_size = 200;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

std::vector<uint16_t> TrainMh(const corpus::Corpus& corpus, uint32_t gpus,
                              uint32_t chunks_per_gpu, size_t workers,
                              uint32_t mh_cycles, uint32_t iters = 3) {
  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  cfg.max_tokens_per_block = 256;
  core::TrainerOptions opts;
  opts.gpus.assign(gpus, gpusim::V100Volta());
  opts.chunks_per_gpu = chunks_per_gpu;
  opts.sampler = core::TrainSampler::kAliasMH;
  opts.mh_cycles = mh_cycles;
  ThreadPool pool(workers);
  if (workers > 0) opts.pool = &pool;
  core::CuldaTrainer trainer(corpus, cfg, opts);
  trainer.Train(iters);
  return trainer.ExportAssignments();
}

TEST(AliasMhTrainer, BitDeterministicAcrossGpuAndChunkCounts) {
  const auto corpus = TrainCorpus();
  const auto base = TrainMh(corpus, 1, 1, 0, 1);
  EXPECT_EQ(TrainMh(corpus, 2, 1, 0, 1), base) << "2 GPUs diverged";
  EXPECT_EQ(TrainMh(corpus, 1, 2, 0, 1), base) << "2 chunks diverged";
  EXPECT_EQ(TrainMh(corpus, 2, 2, 0, 1), base) << "2x2 diverged";
}

TEST(AliasMhTrainer, BitDeterministicAcrossWorkerCounts) {
  const auto corpus = TrainCorpus();
  const auto base = TrainMh(corpus, 2, 2, 0, 2);
  EXPECT_EQ(TrainMh(corpus, 2, 2, 4, 2), base) << "4 workers diverged";
}

TEST(AliasMhTrainer, MultiCycleRunsStayValid) {
  const auto corpus = TrainCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  core::TrainerOptions opts;
  opts.gpus.assign(1, gpusim::V100Volta());
  opts.sampler = core::TrainSampler::kAliasMH;
  opts.mh_cycles = 3;
  core::CuldaTrainer trainer(corpus, cfg, opts);
  trainer.Train(4);
  const auto model = trainer.Gather();
  EXPECT_NO_THROW(model.Validate(corpus));
}

TEST(AliasMhTrainer, ImprovesLikelihoodFromRandomInit) {
  const auto corpus = TrainCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  core::TrainerOptions opts;
  opts.gpus.assign(1, gpusim::V100Volta());
  opts.sampler = core::TrainSampler::kAliasMH;
  core::CuldaTrainer trainer(corpus, cfg, opts);
  const double before = trainer.LogLikelihoodPerToken();
  trainer.Train(10);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), before);
}

TEST(AliasMhTrainer, OnlineTrainerServesThroughMhFoldIn) {
  const auto corpus = TrainCorpus();
  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  core::TrainerOptions opts;
  opts.gpus.assign(1, gpusim::V100Volta());
  opts.sampler = core::TrainSampler::kAliasMH;
  core::OnlineTrainer online(corpus, cfg, opts, /*initial_iterations=*/2);
  // AddDocument folds in through the serving engine, which must have mapped
  // the trainer's alias/MH tier onto InferSampler::kAliasMH (and absorb +
  // refresh must keep the count tables valid under it).
  const auto r = online.AddDocument({1, 5, 9, 13, 1, 5});
  EXPECT_EQ(r.tokens, 6u);
  ASSERT_EQ(r.assignments.size(), 6u);
  online.Absorb(1);
}

}  // namespace
}  // namespace culda
