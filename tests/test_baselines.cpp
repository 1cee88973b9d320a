// Tests for the comparison solvers: exact CGS, SparseLDA, WarpLDA-like MH,
// the GPU baselines, and the distributed model.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/cpu_cgs.hpp"
#include "baselines/distributed.hpp"
#include "baselines/gpu_dense.hpp"
#include "baselines/saber_gpu.hpp"
#include "baselines/sparse_lda.hpp"
#include "baselines/warp_mh.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"

namespace culda::baselines {
namespace {

corpus::Corpus TestCorpus(uint64_t docs = 250, uint32_t vocab = 300) {
  corpus::SyntheticProfile p;
  p.num_docs = docs;
  p.vocab_size = vocab;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig TestConfig(uint32_t k = 24) {
  core::CuldaConfig cfg;
  cfg.num_topics = k;
  return cfg;
}

// -------------------------------------------------------------- CpuState --

TEST(CpuState, InitialCountsConsistent) {
  const auto c = TestCorpus();
  CpuLdaState s;
  s.Initialize(c, 24, 0.5, 0.01, 42);
  s.Validate();
}

TEST(CpuState, CostTrackerRoundsToCacheLines) {
  CpuCostTracker cost;
  cost.RandomRead(4);
  EXPECT_EQ(cost.counters().global_read_bytes, kCacheLineBytes);
  cost.RandomReads(10, 2);
  EXPECT_EQ(cost.counters().global_read_bytes, 11 * kCacheLineBytes);
  cost.StreamRead(4);
  EXPECT_EQ(cost.counters().global_read_bytes, 11 * kCacheLineBytes + 4);
}

// ---------------------------------------------------------------- CpuCgs --

TEST(CpuCgs, CountsStayConsistent) {
  const auto c = TestCorpus();
  CpuCgs solver(c, TestConfig());
  for (int i = 0; i < 3; ++i) {
    solver.Step();
    solver.state().Validate();
  }
}

TEST(CpuCgs, LogLikelihoodImproves) {
  const auto c = TestCorpus(400, 400);
  CpuCgs solver(c, TestConfig());
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 8; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(CpuCgs, Deterministic) {
  const auto c = TestCorpus();
  CpuCgs a(c, TestConfig()), b(c, TestConfig());
  a.Step();
  b.Step();
  EXPECT_EQ(a.state().z, b.state().z);
}

TEST(CpuCgs, ModeledTimeAccumulates) {
  const auto c = TestCorpus();
  CpuCgs solver(c, TestConfig());
  solver.Step();
  const double one = solver.ModeledSeconds();
  const core::IterationStats last = solver.Step();
  EXPECT_GT(one, 0.0);
  EXPECT_NEAR(solver.ModeledSeconds(), 2 * one, one * 0.5);
  EXPECT_GT(last.tokens_per_sec, 0.0);
}

// ------------------------------------------------------------- SparseLDA --

TEST(SparseLda, CountsAndStructuresStayConsistent) {
  const auto c = TestCorpus();
  SparseLdaCgs solver(c, TestConfig());
  for (int i = 0; i < 3; ++i) {
    solver.Step();
    solver.state().Validate();
    solver.ValidateStructures();
  }
}

TEST(SparseLda, LogLikelihoodImproves) {
  const auto c = TestCorpus(400, 400);
  SparseLdaCgs solver(c, TestConfig());
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 8; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(SparseLda, FasterThanDenseCgsInModeledTime) {
  const auto c = TestCorpus(400, 400);
  const auto cfg = TestConfig(64);  // sparsity pays off at larger K
  CpuCgs dense(c, cfg);
  SparseLdaCgs sparse(c, cfg);
  dense.Step();
  sparse.Step();
  EXPECT_LT(sparse.ModeledSeconds(), dense.ModeledSeconds());
}

TEST(SparseLda, ConvergesToSimilarQualityAsDense) {
  const auto c = TestCorpus(300, 300);
  const auto cfg = TestConfig();
  CpuCgs dense(c, cfg);
  SparseLdaCgs sparse(c, cfg);
  for (int i = 0; i < 10; ++i) {
    dense.Step();
    sparse.Step();
  }
  EXPECT_NEAR(sparse.LogLikelihoodPerToken(), dense.LogLikelihoodPerToken(),
              0.15);
}

// ---------------------------------------------------------------- WarpMH --

TEST(WarpMh, CountsStayConsistent) {
  const auto c = TestCorpus();
  WarpMhSampler solver(c, TestConfig());
  for (int i = 0; i < 3; ++i) {
    solver.Step();
    solver.state().Validate();
  }
}

TEST(WarpMh, LogLikelihoodImproves) {
  const auto c = TestCorpus(400, 400);
  WarpMhSampler solver(c, TestConfig(), /*mh_cycles=*/2);
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 12; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(WarpMh, AcceptanceRateReasonable) {
  const auto c = TestCorpus();
  WarpMhSampler solver(c, TestConfig());
  for (int i = 0; i < 3; ++i) solver.Step();
  EXPECT_GT(solver.acceptance_rate(), 0.1);
  EXPECT_LE(solver.acceptance_rate(), 1.0);
}

TEST(WarpMh, FasterPerTokenThanExactCgs) {
  const auto c = TestCorpus(400, 400);
  const auto cfg = TestConfig(128);
  CpuCgs exact(c, cfg);
  WarpMhSampler mh(c, cfg);
  const core::IterationStats exact_step = exact.Step();
  const core::IterationStats mh_step = mh.Step();
  EXPECT_GT(mh_step.tokens_per_sec, 3 * exact_step.tokens_per_sec);
}

TEST(WarpMh, ThroughputInWarpLdaBallpark) {
  // Table 4 reports WarpLDA at ~90–110 M tokens/s on the Xeon; the modeled
  // MH sampler should land within a factor of ~3 of that.
  const auto c = TestCorpus(800, 1000);
  WarpMhSampler solver(c, TestConfig(128));
  solver.Step();
  const core::IterationStats last = solver.Step();
  EXPECT_GT(last.tokens_per_sec, 30e6);
  EXPECT_LT(last.tokens_per_sec, 400e6);
}

// -------------------------------------------------------------- GpuDense --

TEST(GpuDense, ModelInvariantsHold) {
  const auto c = TestCorpus();
  GpuDenseLda solver(c, TestConfig(), gpusim::TitanXMaxwell());
  for (int i = 0; i < 3; ++i) solver.Step();
  solver.Gather().Validate(c);
}

TEST(GpuDense, LogLikelihoodImproves) {
  const auto c = TestCorpus(400, 400);
  GpuDenseLda solver(c, TestConfig(), gpusim::TitanXMaxwell());
  const double before = solver.LogLikelihoodPerToken();
  for (int i = 0; i < 8; ++i) solver.Step();
  EXPECT_GT(solver.LogLikelihoodPerToken(), before + 0.1);
}

TEST(GpuDense, TracksSimulatedTime) {
  const auto c = TestCorpus();
  GpuDenseLda solver(c, TestConfig(), gpusim::TitanXMaxwell());
  const core::IterationStats last = solver.Step();
  EXPECT_GT(solver.ModeledSeconds(), 0.0);
  EXPECT_GT(last.tokens_per_sec, 0.0);
}

// ---------------------------------------------------------- GpuBaselines --

void ExpectSameModel(const core::GatheredModel& got,
                     const core::GatheredModel& want, const char* name) {
  ASSERT_EQ(got.theta.rows(), want.theta.rows()) << name;
  for (size_t d = 0; d < want.theta.rows(); ++d) {
    const auto gi = got.theta.RowIndices(d), wi = want.theta.RowIndices(d);
    const auto gv = got.theta.RowValues(d), wv = want.theta.RowValues(d);
    ASSERT_TRUE(std::equal(gi.begin(), gi.end(), wi.begin(), wi.end()) &&
                std::equal(gv.begin(), gv.end(), wv.begin(), wv.end()))
        << name << ": θ row " << d;
  }
  const auto gp = got.phi.flat(), wp = want.phi.flat();
  EXPECT_TRUE(std::equal(gp.begin(), gp.end(), wp.begin(), wp.end()))
      << name << ": φ";
  EXPECT_EQ(got.nk, want.nk) << name << ": n_k";
}

TEST(GpuBaselines, StartFromTheTrainersInitialState) {
  // Before any Step(), both GPU baselines hold CuldaTrainer's initial state
  // for the same corpus and seed: the same keyed topic draw per token,
  // whatever the chunking, so the same θ, φ and n_k.
  const auto c = TestCorpus();
  core::CuldaConfig cfg = TestConfig();
  cfg.seed = 77;
  core::TrainerOptions opts;
  opts.gpus.assign(2, gpusim::V100Volta());
  const core::GatheredModel want = core::CuldaTrainer(c, cfg, opts).Gather();

  ExpectSameModel(GpuDenseLda(c, cfg, gpusim::TitanXMaxwell()).Gather(), want,
                  "GpuDenseLda");
  ExpectSameModel(SaberGpuLda(c, cfg, gpusim::TitanXMaxwell()).Gather(), want,
                  "SaberGpuLda");
}

// ----------------------------------------------------------- Distributed --

TEST(Distributed, SyncDominatedByNetwork) {
  DistributedLdaModel m;
  m.num_nodes = 20;
  m.node_tokens_per_sec = 100e6;
  m.model_bytes = 256ull * 100000 * 4;  // K×V float model
  const double t = m.IterationSeconds(700'000'000);
  // Sampling alone would be 0.35 s; the Ethernet sync adds multiples.
  EXPECT_GT(t, 0.35 * 2);
}

TEST(Distributed, MoreNodesShrinkSamplingNotSync) {
  DistributedLdaModel m;
  m.model_bytes = 64ull << 20;
  m.num_nodes = 4;
  const double t4 = m.IterationSeconds(1'000'000'000);
  m.num_nodes = 64;
  const double t64 = m.IterationSeconds(1'000'000'000);
  // Far from 16× faster: the parameter-server link saturates.
  EXPECT_GT(t64, t4 / 8);
}

TEST(Distributed, ValidatesInputs) {
  DistributedLdaModel m;
  m.model_bytes = 1 << 20;  // valid so the num_nodes check is what fires
  m.num_nodes = 0;
  EXPECT_THROW(m.IterationSeconds(100), Error);
}

TEST(Distributed, RejectsUnsetModelBytes) {
  // The default model_bytes = 0 used to make the network term silently free,
  // letting this baseline "win" every comparison; now it fails loudly.
  DistributedLdaModel m;
  try {
    m.IterationSeconds(100);
    FAIL() << "model_bytes = 0 must be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("model_bytes"), std::string::npos);
  }
}

TEST(Distributed, RejectsSyncVolumeOverflow) {
  DistributedLdaModel m;
  m.num_nodes = 4;
  m.model_bytes = UINT64_MAX / 4;  // 2 * bytes * 4 nodes would wrap
  try {
    m.IterationSeconds(100);
    FAIL() << "2 * model_bytes * num_nodes wrap must be rejected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    // The error names both operands so the caller knows what to shrink.
    EXPECT_NE(msg.find("model_bytes"), std::string::npos);
    EXPECT_NE(msg.find("num_nodes"), std::string::npos);
  }
  m.model_bytes = UINT64_MAX / 2 / 4;  // largest legal value: no throw
  EXPECT_GT(m.IterationSeconds(100), 0.0);
}

}  // namespace
}  // namespace culda::baselines
