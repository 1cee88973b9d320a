// Tests of the benchmark's own helpers: the percentile rank, the seeded
// Poisson schedule, the closed-loop accounting, the heavy-word pruning and
// the generator's determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_lib.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(Percentile(v, 0.5), 5);   // ceil(5.0) = 5th sample
  EXPECT_EQ(Percentile(v, 0.51), 6);  // ceil(5.1) = 6th
  EXPECT_EQ(Percentile(v, 0.99), 10);
  EXPECT_EQ(Percentile(v, 1.0), 10);
  EXPECT_EQ(Percentile(v, 0.01), 1);
  EXPECT_EQ(Percentile({42}, 0.99), 42);
  EXPECT_THROW(Percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(Percentile(v, 0.0), std::invalid_argument);
}

TEST(Percentile, SupportNeedsTenBeyondP99) {
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_TRUE(PercentileSupported(1000, 0.99));  // rank 990, 10 beyond
  EXPECT_TRUE(PercentileSupported(20, 0.5));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
}

TEST(PoissonSchedule, SeededAndShaped) {
  Rng a(7), b(7), c(8);
  const auto sa = PoissonSchedule(a, 500, 10000);
  EXPECT_EQ(sa, PoissonSchedule(b, 500, 10000));
  EXPECT_NE(sa, PoissonSchedule(c, 500, 10000));
  ASSERT_EQ(sa.size(), 10000u);
  for (size_t i = 1; i < sa.size(); ++i) EXPECT_GT(sa[i], sa[i - 1]);
  EXPECT_GT(sa.front(), 0.0);
  // 10,000 arrivals at 500/s span 20 s, within 4 sigma (±0.8 s).
  EXPECT_NEAR(sa.back(), 20.0, 0.8);
  // Exponential gaps: mean 1/rate, and the share above the mean is 1/e.
  size_t above = 0;
  for (size_t i = 1; i < sa.size(); ++i) above += sa[i] - sa[i - 1] > 1.0 / 500;
  EXPECT_NEAR(static_cast<double>(above) / static_cast<double>(sa.size()),
              0.3679, 0.02);
  EXPECT_THROW(PoissonSchedule(a, 0, 1), std::invalid_argument);
  EXPECT_TRUE(PoissonSchedule(a, 5, 0).empty());
}

TEST(ClosedLoopAccount, CountsOnlyTheWindow) {
  ClosedLoopAccount acc(1.0, 3.0);
  acc.OnComplete(0.5);   // warm-up
  acc.OnComplete(1.0);   // window start is inclusive
  acc.OnComplete(2.9);
  acc.OnComplete(3.0);   // window end is exclusive (drain)
  EXPECT_EQ(acc.in_window(), 2u);
  EXPECT_DOUBLE_EQ(acc.Rate(), 1.0);
}

TEST(PruneHeavyWords, RemovesWordsAboveTheCap) {
  Docs docs = {{0, 0, 1, 2}, {0, 0}, {0, 3}};
  // Word 0 occurs 5 times: above a cap of 4, so all of it goes, and the
  // second document is left empty and dropped.
  EXPECT_DOUBLE_EQ(PruneHeavyWords(docs, 4, 4), 5.0 / 8.0);
  EXPECT_EQ(docs, (Docs{{1, 2}, {3}}));
  // At the cap nothing is removed.
  Docs at_cap = {{0, 0, 0, 0}};
  EXPECT_DOUBLE_EQ(PruneHeavyWords(at_cap, 1, 4), 0.0);
  EXPECT_EQ(at_cap.size(), 1u);
}

TEST(PruneHeavyWords, DefaultCapIsThe16BitPhiLimit) {
  Docs docs = {std::vector<uint32_t>(65535, 0), std::vector<uint32_t>(1, 1)};
  EXPECT_DOUBLE_EQ(PruneHeavyWords(docs, 2), 0.0);
  docs[1].assign(65536, 1);
  EXPECT_NEAR(PruneHeavyWords(docs, 2), 65536.0 / 131071.0, 1e-12);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CorpusGenerator, SameSeedSameBytes) {
  CorpusShape shape;
  shape.vocab = 500;
  shape.mean_doc_len = 50;
  const auto write = [&](uint64_t seed, const std::string& path) {
    CorpusGenerator gen(shape, seed);
    WriteUci(gen.MakeDocs(40), shape.vocab, path);
    return ReadFile(path);
  };
  const std::string a = write(3, "bench_lib_test_a.uci");
  EXPECT_EQ(a, write(3, "bench_lib_test_b.uci"));
  EXPECT_NE(a, write(4, "bench_lib_test_b.uci"));
  EXPECT_EQ(a.rfind("40\n500\n", 0), 0u);
  std::remove("bench_lib_test_a.uci");
  std::remove("bench_lib_test_b.uci");
}

}  // namespace
}  // namespace perfbench
