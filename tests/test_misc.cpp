// Coverage for the remaining small surfaces: logging, RNG stream semantics,
// buffer edge cases, and cross-cutting edge conditions.
#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "corpus/stats.hpp"
#include "corpus/synthetic.hpp"
#include "gpusim/device.hpp"
#include "util/log.hpp"
#include "util/philox.hpp"

namespace culda {
namespace {

// ----------------------------------------------------------------- logging

TEST(Log, LevelRoundTrips) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kOff);
  CULDA_LOG(Info) << "suppressed — must not crash";
  CULDA_LOG(Error) << "also suppressed";
  SetLogLevel(before);
}

TEST(Log, MacroEvaluatesStreamLazily) {
  const LogLevel before = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  int evaluations = 0;
  auto expensive = [&] {
    ++evaluations;
    return 42;
  };
  CULDA_LOG(Debug) << expensive();
  EXPECT_EQ(evaluations, 0) << "suppressed levels must not pay formatting";
  SetLogLevel(before);
}

// ------------------------------------------------------------ RNG streams

TEST(PhiloxStream, CopyContinuesFromSamePosition) {
  PhiloxStream a(7, 7);
  a.NextU32();
  a.NextU32();
  PhiloxStream b = a;  // copies position
  EXPECT_EQ(a.NextU32(), b.NextU32());
  EXPECT_EQ(a.NextDouble(), b.NextDouble());
}

TEST(PhiloxStream, MixedDrawTypesStayDeterministic) {
  auto run = [] {
    PhiloxStream rng(11, 3);
    double acc = rng.NextDouble();
    acc += rng.NextFloat();
    acc += rng.NextBelow(100);
    acc += rng.NextU32() % 7;
    return acc;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// --------------------------------------------------------------- buffers

TEST(DeviceBuffer, DefaultConstructedIsInert) {
  gpusim::DeviceBuffer<int> buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  buf.Free();  // no ledger — must be a no-op
}

TEST(DeviceBuffer, MoveAssignReleasesOldAllocation) {
  gpusim::Device dev(gpusim::TitanXMaxwell(), 0);
  auto a = dev.Alloc<int>(100, "a");
  auto b = dev.Alloc<int>(200, "b");
  EXPECT_EQ(dev.allocated_bytes(), 1200u);
  a = std::move(b);
  EXPECT_EQ(dev.allocated_bytes(), 800u);  // a's 400 released, b's 800 kept
}

TEST(DeviceReservation, DefaultConstructedIsInert) {
  gpusim::DeviceReservation r;
  EXPECT_EQ(r.bytes(), 0u);
  r.Free();  // no ledger — must be a no-op
}

TEST(DeviceReservation, ChargesWithoutBackingStore) {
  gpusim::Device dev(gpusim::TitanXMaxwell(), 0);
  {
    const auto r = dev.Reserve(1000, "r");
    EXPECT_EQ(r.bytes(), 1000u);
    EXPECT_EQ(dev.allocated_bytes(), 1000u);
  }
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DeviceReservation, MoveTransfersTheCharge) {
  gpusim::Device dev(gpusim::TitanXMaxwell(), 0);
  auto a = dev.Reserve(400, "a");
  auto b = std::move(a);
  EXPECT_EQ(dev.allocated_bytes(), 400u);
  EXPECT_EQ(a.bytes(), 0u);  // NOLINT(bugprone-use-after-move)
  a.Free();                  // moved-from: nothing left to release
  EXPECT_EQ(dev.allocated_bytes(), 400u);
  EXPECT_EQ(b.bytes(), 400u);
}

TEST(DeviceReservation, MoveAssignReleasesOldCharge) {
  gpusim::Device dev(gpusim::TitanXMaxwell(), 0);
  auto a = dev.Reserve(400, "a");
  auto b = dev.Reserve(800, "b");
  EXPECT_EQ(dev.allocated_bytes(), 1200u);
  a = std::move(b);
  EXPECT_EQ(dev.allocated_bytes(), 800u);  // a's 400 released, b's 800 kept
}

TEST(DeviceReservation, FreeIsIdempotent) {
  gpusim::Device dev(gpusim::TitanXMaxwell(), 0);
  auto a = dev.Reserve(64, "a");
  a.Free();
  a.Free();
  EXPECT_EQ(dev.allocated_bytes(), 0u);
}

TEST(DeviceReservation, OverCapacityThrowsAndChargesNothing) {
  gpusim::DeviceSpec spec = gpusim::TitanXMaxwell();
  spec.memory_bytes = 1000;
  gpusim::Device dev(spec, 0);
  const auto kept = dev.Reserve(600, "kept");
  try {
    (void)dev.Reserve(401, "chunk");
    FAIL() << "a reservation beyond capacity was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "out of device memory allocating 401B for 'chunk' (600B "
                  "of 1000B in use)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(dev.allocated_bytes(), 600u);
}

// ---------------------------------------------------------- corpus edges

TEST(CorpusEdge, AllDocsEmptyExceptOne) {
  std::vector<uint64_t> offsets{0, 0, 0, 3, 3};
  const corpus::Corpus c(2, std::move(offsets), {0, 1, 0});
  c.Validate();
  EXPECT_EQ(c.num_docs(), 4u);
  EXPECT_EQ(c.MaxDocLength(), 3u);
  core::CuldaConfig cfg;
  cfg.num_topics = 4;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.Train(2);
  trainer.Gather().Validate(c);
}

TEST(CorpusEdge, SingleWordVocabulary) {
  // Degenerate but legal: V = 1 (every token the same word).
  std::vector<uint32_t> words(50, 0);
  const corpus::Corpus c(1, {0, 25, 50}, std::move(words));
  core::CuldaConfig cfg;
  cfg.num_topics = 4;
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.Train(2);
  trainer.Gather().Validate(c);
}

TEST(CorpusEdge, StatsOnDegenerateCorpus) {
  const corpus::Corpus c(1, {0, 1}, {0});
  const auto stats = corpus::ComputeStats(c);
  EXPECT_EQ(stats.vocab_used, 1u);
  EXPECT_DOUBLE_EQ(stats.top1pct_token_share, 1.0);
}

// -------------------------------------------------- trainer config edges

TEST(ConfigEdge, MinimumTopicsTrains) {
  corpus::SyntheticProfile p;
  p.num_docs = 60;
  p.vocab_size = 80;
  const auto c = corpus::GenerateCorpus(p);
  core::CuldaConfig cfg;
  cfg.num_topics = 2;  // the minimum
  core::CuldaTrainer trainer(c, cfg, {});
  trainer.Train(2);
  trainer.Gather().Validate(c);
}

TEST(ConfigEdge, InvalidConfigsRejected) {
  core::CuldaConfig cfg;
  cfg.num_topics = 1;
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.num_topics = 4;
  cfg.beta = 0;
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.beta = 0.01;
  cfg.samplers_per_block = 0;
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.samplers_per_block = 33;
  EXPECT_THROW(cfg.Validate(), Error);
  cfg.samplers_per_block = 32;
  cfg.tree_fanout = 1;
  EXPECT_THROW(cfg.Validate(), Error);
}

TEST(ConfigEdge, TreeFanoutVariantsTrainIdentically) {
  // Fanout changes search cost, never draws: same models.
  corpus::SyntheticProfile p;
  p.num_docs = 150;
  p.vocab_size = 200;
  const auto c = corpus::GenerateCorpus(p);
  double reference = 0;
  for (const uint32_t fanout : {2u, 8u, 32u}) {
    core::CuldaConfig cfg;
    cfg.num_topics = 16;
    cfg.tree_fanout = fanout;
    core::CuldaTrainer trainer(c, cfg, {});
    trainer.Train(3);
    const double ll = trainer.LogLikelihoodPerToken();
    if (fanout == 2) {
      reference = ll;
    } else {
      EXPECT_DOUBLE_EQ(ll, reference) << "fanout " << fanout;
    }
  }
}

}  // namespace
}  // namespace culda
