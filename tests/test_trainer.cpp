// Integration tests for CuldaTrainer: model invariants across schedules,
// convergence, capacity-driven schedule selection, timing accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"

namespace culda::core {
namespace {

corpus::Corpus SmallCorpus(uint64_t docs = 400, uint32_t vocab = 600,
                           double len = 50) {
  corpus::SyntheticProfile p;
  p.num_docs = docs;
  p.vocab_size = vocab;
  p.avg_doc_length = len;
  return corpus::GenerateCorpus(p);
}

CuldaConfig SmallConfig(uint32_t k = 48) {
  CuldaConfig cfg;
  cfg.num_topics = k;
  cfg.max_tokens_per_block = 512;
  return cfg;
}

TEST(Trainer, InitialModelSatisfiesInvariants) {
  const auto c = SmallCorpus();
  CuldaTrainer trainer(c, SmallConfig(), {});
  trainer.Gather().Validate(c);
}

TEST(Trainer, InvariantsHoldAfterEveryIteration) {
  const auto c = SmallCorpus();
  CuldaTrainer trainer(c, SmallConfig(), {});
  for (int i = 0; i < 5; ++i) {
    trainer.Step();
    trainer.Gather().Validate(c);
  }
}

TEST(Trainer, LogLikelihoodImproves) {
  const auto c = SmallCorpus(600, 800, 60);
  CuldaTrainer trainer(c, SmallConfig(), {});
  const double before = trainer.LogLikelihoodPerToken();
  trainer.Train(10);
  const double after = trainer.LogLikelihoodPerToken();
  EXPECT_GT(after, before + 0.1);
}

class TrainerOverGpuCounts : public ::testing::TestWithParam<int> {};

TEST_P(TrainerOverGpuCounts, InvariantsAndConvergence) {
  const auto c = SmallCorpus();
  TrainerOptions opts;
  opts.gpus.assign(GetParam(), gpusim::TitanXpPascal());
  CuldaTrainer trainer(c, SmallConfig(), opts);
  EXPECT_EQ(trainer.num_gpus(), static_cast<uint32_t>(GetParam()));
  const double before = trainer.LogLikelihoodPerToken();
  trainer.Train(5);
  trainer.Gather().Validate(c);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), before);
}

INSTANTIATE_TEST_SUITE_P(GpuCounts, TrainerOverGpuCounts,
                         ::testing::Values(1, 2, 3, 4));

TEST(Trainer, MultiGpuFasterSimTime) {
  // Large enough that per-device bandwidth, not launch latency or sync,
  // dominates the iteration.
  const auto c = SmallCorpus(6000, 2000, 100);
  TrainerOptions one, four;
  one.gpus = {gpusim::TitanXpPascal()};
  four.gpus.assign(4, gpusim::TitanXpPascal());
  CuldaTrainer t1(c, SmallConfig(), one);
  CuldaTrainer t4(c, SmallConfig(), four);
  const double s1 = t1.Step().sim_seconds;
  const double s4 = t4.Step().sim_seconds;
  EXPECT_LT(s4, s1);
}

TEST(Trainer, AutoSchedulePicksWs1WhenItFits) {
  const auto c = SmallCorpus();
  CuldaTrainer trainer(c, SmallConfig(), {});
  EXPECT_EQ(trainer.chunks_per_gpu(), 1u);
}

TEST(Trainer, SmallDeviceForcesWs2) {
  const auto c = SmallCorpus(2000, 600, 60);
  TrainerOptions opts;
  gpusim::DeviceSpec tiny = gpusim::TitanXMaxwell();
  // Just enough for the model and a fraction of the corpus.
  tiny.memory_bytes = 4 * (48ull * 600 * 2 + 48 * 4) + (800 << 10);
  opts.gpus = {tiny};
  CuldaTrainer trainer(c, SmallConfig(), opts);
  EXPECT_GT(trainer.chunks_per_gpu(), 1u);
  const double before = trainer.LogLikelihoodPerToken();
  trainer.Train(4);
  trainer.Gather().Validate(c);
  EXPECT_GT(trainer.LogLikelihoodPerToken(), before);
}

TEST(Trainer, ExplicitMOverridesAuto) {
  const auto c = SmallCorpus();
  TrainerOptions opts;
  opts.chunks_per_gpu = 3;
  CuldaTrainer trainer(c, SmallConfig(), opts);
  EXPECT_EQ(trainer.chunks_per_gpu(), 3u);
  EXPECT_EQ(trainer.num_chunks(), 3u);
  trainer.Step();
  trainer.Gather().Validate(c);
}

TEST(Trainer, Ws2TransfersEveryIteration) {
  const auto c = SmallCorpus();
  TrainerOptions ws1, ws2;
  ws2.chunks_per_gpu = 2;
  CuldaTrainer t1(c, SmallConfig(), ws1);
  CuldaTrainer t2(c, SmallConfig(), ws2);
  const auto s1 = t1.Step();
  const auto s2 = t2.Step();
  EXPECT_EQ(s1.transfer_s, 0.0);  // WS1 moves nothing per iteration
  EXPECT_GT(s2.transfer_s, 0.0);  // WS2 streams chunks
}

TEST(Trainer, Ws2OverlapBeatsSerial) {
  const auto c = SmallCorpus(1500, 800, 60);
  TrainerOptions fast, slow;
  fast.chunks_per_gpu = 4;
  slow.chunks_per_gpu = 4;
  slow.overlap_transfers = false;
  CuldaTrainer tf(c, SmallConfig(), fast);
  CuldaTrainer ts(c, SmallConfig(), slow);
  double fast_s = 0, slow_s = 0;
  for (int i = 0; i < 3; ++i) {
    fast_s += tf.Step().sim_seconds;
    slow_s += ts.Step().sim_seconds;
  }
  EXPECT_LT(fast_s, slow_s);
}

TEST(Trainer, ThroughputRampsUpAsThetaSparsifies) {
  // Figure 7's warm-up: early iterations are slower because θ is denser.
  const auto c = SmallCorpus(800, 1000, 120);
  CuldaConfig cfg = SmallConfig(128);
  CuldaTrainer trainer(c, cfg, {});
  const auto history = trainer.Train(12);
  EXPECT_GT(history.back().tokens_per_sec,
            history.front().tokens_per_sec * 1.02);
}

TEST(Trainer, IterationStatsAreConsistent) {
  const auto c = SmallCorpus();
  CuldaTrainer trainer(c, SmallConfig(), {});
  const auto st = trainer.Step();
  EXPECT_GT(st.sim_seconds, 0.0);
  EXPECT_GT(st.sampling_s, 0.0);
  EXPECT_GT(st.update_theta_s, 0.0);
  EXPECT_GT(st.update_phi_s, 0.0);
  EXPECT_NEAR(st.tokens_per_sec, c.num_tokens() / st.sim_seconds, 1.0);
  EXPECT_EQ(st.iteration, 0u);
  EXPECT_EQ(trainer.history().size(), 1u);
}

TEST(Trainer, SamplingDominatesBreakdown) {
  // Table 5: ~80–88% of execution is sampling (at paper-like K).
  const auto c = SmallCorpus(1500, 1200, 150);
  CuldaConfig cfg = SmallConfig(256);
  CuldaTrainer trainer(c, cfg, {});
  trainer.Train(3);
  double sampling = 0, total = 0;
  for (const auto& st : trainer.history()) {
    sampling += st.sampling_s;
    total += st.sampling_s + st.update_phi_s + st.update_theta_s;
  }
  EXPECT_GT(sampling / total, 0.5);
}

TEST(Trainer, StepCountersCollectedOnDemand) {
  const auto c = SmallCorpus();
  TrainerOptions opts;
  opts.collect_step_counters = true;
  CuldaTrainer trainer(c, SmallConfig(), opts);
  trainer.Train(2);
  EXPECT_EQ(trainer.step_counters().tokens, 2 * c.num_tokens());
}

TEST(Trainer, EmptyCorpusRejected) {
  const corpus::Corpus empty(10, {0, 0}, {});
  EXPECT_THROW(CuldaTrainer(empty, SmallConfig(), {}), Error);
}

TEST(Trainer, OversizedModelRejected) {
  const auto c = SmallCorpus();
  TrainerOptions opts;
  gpusim::DeviceSpec tiny = gpusim::TitanXMaxwell();
  tiny.memory_bytes = 1 << 10;  // nothing fits
  opts.gpus = {tiny};
  EXPECT_THROW(CuldaTrainer(c, SmallConfig(), opts), Error);
}

// The capacity charges behind Section 5.1's schedule choice: each device
// holds the double-buffered φ plus its resident chunk (WS1) or a two-slot
// chunk buffer sized for its largest chunk (WS2). The totals are pinned
// byte for byte, so the ledger's bookkeeping cannot drift.
TEST(Trainer, DeviceLedgerPinsResidentFootprints) {
  const auto c = SmallCorpus();
  for (const uint32_t m : {1u, 3u}) {
    TrainerOptions opts;
    opts.gpus.assign(2, gpusim::TitanXpPascal());
    opts.chunks_per_gpu = m;
    CuldaTrainer trainer(c, SmallConfig(), opts);
    const std::vector<uint64_t> expected =
        m == 1 ? std::vector<uint64_t>{330548, 330908}
               : std::vector<uint64_t>{265768, 266064};
    for (size_t g = 0; g < 2; ++g) {
      EXPECT_EQ(trainer.group().device(g).allocated_bytes(), expected[g])
          << "M=" << m << " device " << g;
    }
  }
}

TEST(Trainer, ChunkThatDoesNotFitReportsTheLedger) {
  const auto c = SmallCorpus();
  // Room for the φ double buffer but not for the resident chunk (WS1) or
  // the two chunk slots (WS2).
  gpusim::DeviceSpec small = gpusim::TitanXMaxwell();
  small.memory_bytes = 200 << 10;
  for (const uint32_t m : {1u, 2u}) {
    TrainerOptions opts;
    opts.gpus = {small};
    opts.chunks_per_gpu = m;
    try {
      CuldaTrainer trainer(c, SmallConfig(), opts);
      FAIL() << "M=" << m << ": a chunk beyond device memory was accepted";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.substr(what.find(" — ") + std::strlen(" — ")),
                m == 1 ? "TITAN X (Maxwell): out of device memory allocating "
                         "425464B for 'chunk' (115584B of 204800B in use)"
                       : "TITAN X (Maxwell): out of device memory allocating "
                         "430648B for 'chunk_double_buffer' (115584B of "
                         "204800B in use)")
          << "M=" << m;
    }
  }
}

TEST(Trainer, CpuSumSyncModeWorks) {
  const auto c = SmallCorpus();
  TrainerOptions opts;
  opts.gpus.assign(2, gpusim::TitanXpPascal());
  opts.sync_mode = SyncMode::kCpuSum;
  CuldaTrainer trainer(c, SmallConfig(), opts);
  trainer.Train(3);
  trainer.Gather().Validate(c);
}

TEST(Trainer, WallSecondsPositive) {
  const auto c = SmallCorpus();
  CuldaTrainer trainer(c, SmallConfig(), {});
  EXPECT_GT(trainer.Step().wall_seconds, 0.0);
}

}  // namespace
}  // namespace culda::core
