// Tests for the F-ary index-tree sampler (Figure 5): the search must agree
// exactly with a linear scan of the prefix sums, for every fanout and size,
// and the leaf-only walk must inspect exactly the entries a stored tree does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/index_tree.hpp"
#include "util/philox.hpp"

namespace culda::core {
namespace {

/// Reference: minimal k with prefix[k] > u, clamped to n−1.
size_t LinearSearch(const std::vector<float>& p, float u) {
  float acc = 0;
  for (size_t k = 0; k < p.size(); ++k) {
    acc += p[k];
    if (acc > u) return k;
  }
  return p.size() - 1;
}

std::vector<float> RandomDistribution(size_t n, uint64_t seed,
                                      double zero_fraction = 0.0) {
  PhiloxStream rng(seed, 0);
  std::vector<float> p(n);
  for (auto& x : p) {
    x = rng.NextDouble() < zero_fraction ? 0.0f : rng.NextFloat() + 1e-3f;
  }
  return p;
}

struct TreeCase {
  size_t n;
  uint32_t fanout;
};

class IndexTreeSweep : public ::testing::TestWithParam<TreeCase> {};

TEST_P(IndexTreeSweep, MatchesLinearScanOnRandomDraws) {
  const auto [n, fanout] = GetParam();
  const auto p = RandomDistribution(n, 42 + n + fanout);
  IndexTree tree(n, fanout);
  const float total = tree.view().Build(p);

  float check = 0;
  for (const float x : p) check += x;
  EXPECT_NEAR(total, check, check * 1e-4);

  PhiloxStream rng(7, n * 100 + fanout);
  for (int i = 0; i < 500; ++i) {
    const float u = rng.NextFloat() * total;
    EXPECT_EQ(tree.view().Search(u), LinearSearch(p, u))
        << "n=" << n << " fanout=" << fanout << " u=" << u;
  }
}

TEST_P(IndexTreeSweep, BoundaryDraws) {
  const auto [n, fanout] = GetParam();
  const auto p = RandomDistribution(n, 99 + n * 3 + fanout);
  IndexTree tree(n, fanout);
  const float total = tree.view().Build(p);

  EXPECT_EQ(tree.view().Search(0.0f), LinearSearch(p, 0.0f));
  // At or beyond the total mass the search clamps to the last index.
  EXPECT_EQ(tree.view().Search(total), n - 1);
  EXPECT_EQ(tree.view().Search(total * 2), n - 1);
  // Exactly at internal prefix boundaries.
  for (size_t k = 0; k + 1 < n && k < 40; ++k) {
    const float u = tree.view().PrefixAt(k);
    EXPECT_EQ(tree.view().Search(u), LinearSearch(p, u)) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFanouts, IndexTreeSweep,
    ::testing::Values(TreeCase{1, 32}, TreeCase{2, 2}, TreeCase{5, 2},
                      TreeCase{31, 32}, TreeCase{32, 32}, TreeCase{33, 32},
                      TreeCase{100, 8}, TreeCase{256, 32}, TreeCase{256, 2},
                      TreeCase{1000, 32}, TreeCase{1024, 32},
                      TreeCase{4096, 32}, TreeCase{65536, 32},
                      TreeCase{513, 8}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_f" +
             std::to_string(info.param.fanout);
    });

TEST(IndexTree, SparseDistributionWithZeros) {
  // Zero-probability entries must never be returned by interior draws.
  const size_t n = 200;
  auto p = RandomDistribution(n, 5, /*zero_fraction=*/0.7);
  p[0] = 0.0f;  // force a zero at the boundary
  IndexTree tree(n, 32);
  const float total = tree.view().Build(p);
  PhiloxStream rng(11, 0);
  for (int i = 0; i < 2000; ++i) {
    // Strictly interior draw.
    const float u = rng.NextFloat() * total * 0.999f;
    const size_t k = tree.view().Search(u);
    EXPECT_EQ(k, LinearSearch(p, u));
  }
}

TEST(IndexTree, StorageSlotsAccounting) {
  // n=256, fanout=32: leaves 256 + one internal level of 8.
  EXPECT_EQ(IndexTreeView::StorageSlots(256, 32), 264u);
  // n<=fanout: leaves only.
  EXPECT_EQ(IndexTreeView::StorageSlots(20, 32), 20u);
  // n=1024, fanout=32: 1024 + 32.
  EXPECT_EQ(IndexTreeView::StorageSlots(1024, 32), 1056u);
  // Binary tree n=8: 8 + 4 + 2.
  EXPECT_EQ(IndexTreeView::StorageSlots(8, 2), 14u);
}

TEST(IndexTree, LevelsCount) {
  IndexTree t1(20, 32);
  EXPECT_EQ(t1.view().levels(), 1u);
  IndexTree t2(256, 32);
  EXPECT_EQ(t2.view().levels(), 2u);
  IndexTree t3(65536, 32);
  EXPECT_EQ(t3.view().levels(), 4u);  // 65536, 2048, 64, 2
}

TEST(IndexTree, TooSmallStorageRejected) {
  std::vector<float> storage(10);
  EXPECT_THROW(IndexTreeView(storage, 100, 32), Error);
}

TEST(IndexTree, ComparisonCountBounded) {
  // A search inspects at most `fanout` entries per level.
  const size_t n = 4096;
  const auto p = RandomDistribution(n, 17);
  IndexTree tree(n, 32);
  const float total = tree.view().Build(p);
  PhiloxStream rng(3, 0);
  for (int i = 0; i < 200; ++i) {
    uint64_t comparisons = 0;
    tree.view().Search(rng.NextFloat() * total, &comparisons);
    EXPECT_LE(comparisons, 32u * tree.view().levels());
    EXPECT_GE(comparisons, tree.view().levels());
  }
}

TEST(IndexTree, RebuildOverwritesCompletely) {
  const size_t n = 64;
  IndexTree tree(n, 32);
  auto p1 = RandomDistribution(n, 1);
  tree.view().Build(p1);
  std::vector<float> p2(n, 0.0f);
  p2[10] = 1.0f;
  tree.view().Build(p2);
  EXPECT_EQ(tree.view().Search(0.5f), 10u);
  EXPECT_NEAR(tree.view().TotalMass(), 1.0f, 1e-6);
}

TEST(IndexTree, SingletonDistribution) {
  IndexTree tree(1, 32);
  std::vector<float> p{0.3f};
  tree.view().Build(p);
  EXPECT_EQ(tree.view().Search(0.0f), 0u);
  EXPECT_EQ(tree.view().Search(0.29f), 0u);
  EXPECT_EQ(tree.view().Search(1.0f), 0u);
}

TEST(IndexTree, SamplingFrequenciesMatchDistribution) {
  // End-to-end statistical check: draw 100k samples through the tree and
  // compare empirical frequencies with the distribution.
  const size_t n = 16;
  std::vector<float> p(n);
  float total = 0;
  for (size_t k = 0; k < n; ++k) {
    p[k] = static_cast<float>(k + 1);
    total += p[k];
  }
  IndexTree tree(n, 4);
  tree.view().Build(p);
  std::vector<int> hits(n, 0);
  PhiloxStream rng(123, 9);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    ++hits[tree.view().Search(rng.NextFloat() * total)];
  }
  for (size_t k = 0; k < n; ++k) {
    const double expect = draws * p[k] / total;
    EXPECT_NEAR(hits[k], expect, 5 * std::sqrt(expect) + 5) << "k=" << k;
  }
}

// ------------------------------------------------ degenerate-input contract
// These inputs previously fell through the round-off clamp and silently
// returned the last leaf — a sampling bug indistinguishable from a real
// draw. The contract (index_tree.hpp) now rejects them loudly.

TEST(IndexTree, NanInputFailsBuild) {
  IndexTree tree(4, 2);
  const std::vector<float> p{0.5f, std::nanf(""), 0.25f, 0.25f};
  EXPECT_THROW(tree.view().Build(p), Error);
}

TEST(IndexTree, NetNegativeMassFailsBuild) {
  IndexTree tree(2, 2);
  const std::vector<float> p{1.0f, -3.0f};
  EXPECT_THROW(tree.view().Build(p), Error);
}

TEST(IndexTree, AllZeroDistributionFailsSearchNotBuild) {
  // An all-zero build is legal (a θ row can transiently have no mass to
  // offer a bucket); *sampling* from it is the bug.
  IndexTree tree(8, 2);
  const std::vector<float> p(8, 0.0f);
  EXPECT_NO_THROW(tree.view().Build(p));
  EXPECT_EQ(tree.view().TotalMass(), 0.0f);
  try {
    tree.view().Search(0.0f);
    FAIL() << "searching a zero-mass tree must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("mass"), std::string::npos)
        << e.what();
  }
}

TEST(IndexTree, InvalidSearchPointsRejected) {
  IndexTree tree(4, 2);
  const std::vector<float> p{0.25f, 0.25f, 0.25f, 0.25f};
  tree.view().Build(p);
  EXPECT_THROW(tree.view().Search(std::nanf("")), Error);
  EXPECT_THROW(tree.view().Search(-0.5f), Error);
  EXPECT_THROW(
      tree.view().Search(std::numeric_limits<float>::infinity()), Error);
  // The documented clamp for u at/beyond the mass still holds.
  EXPECT_EQ(tree.view().Search(1.0f), 3u);
  EXPECT_EQ(tree.view().Search(5.0f), 3u);
}

TEST(IndexTree, EmptyTreeSearchRejected) {
  IndexTree tree(0, 32);
  EXPECT_EQ(tree.view().Build({}), 0.0f);
  EXPECT_THROW(tree.view().Search(0.0f), Error);
}

// ------------------------------------------------ leaf-walk equivalence
// SearchPrefixTree never stores the internal levels; it reads internal
// entry i of level l as prefix[min(n, (i+1)·F^l) − 1]. The oracle below is
// the stored-tree walk it replaced: every level materialized bottom-up,
// searched top-down. Both must return the same index after the same number
// of comparisons (the count the kernels bill), on every input.

class StoredTreeOracle {
 public:
  StoredTreeOracle(const std::vector<float>& prefix, uint32_t fanout)
      : fanout_(fanout) {
    levels_.push_back(prefix);
    while (levels_.back().size() > fanout) {
      const std::vector<float>& below = levels_.back();
      std::vector<float> level((below.size() + fanout - 1) / fanout);
      for (size_t i = 0; i < level.size(); ++i) {
        level[i] = below[std::min(below.size(), (i + 1) * fanout) - 1];
      }
      levels_.push_back(std::move(level));
    }
  }

  size_t Search(float u, uint64_t* comparisons) const {
    uint64_t inspected = 0;
    size_t group_begin = 0;
    for (size_t l = levels_.size(); l-- > 0;) {
      const std::vector<float>& level = levels_[l];
      const size_t group_end = std::min(level.size(), group_begin + fanout_);
      size_t chosen = group_end - 1;
      for (size_t i = group_begin; i < group_end; ++i) {
        ++inspected;
        if (level[i] > u) {
          chosen = i;
          break;
        }
      }
      if (l == 0) {
        *comparisons = inspected;
        return chosen;
      }
      group_begin = chosen * fanout_;
    }
    return 0;  // unreachable: level 0 always returns
  }

 private:
  uint32_t fanout_;
  std::vector<std::vector<float>> levels_;
};

/// Distribution shapes with zeros and ties: random with 30 % zeros; values
/// from {0, 0.5, 1} (many equal prefixes); one non-zero; zero runs at both
/// ends around a constant middle.
std::vector<float> ShapedDistribution(size_t n, int shape, uint64_t seed) {
  PhiloxStream rng(seed, static_cast<uint64_t>(shape));
  std::vector<float> p(n, 0.0f);
  switch (shape) {
    case 0:
      for (auto& x : p) {
        x = rng.NextDouble() < 0.3 ? 0.0f : rng.NextFloat() + 1e-3f;
      }
      break;
    case 1:
      for (auto& x : p) x = 0.5f * static_cast<float>(rng.NextBelow(3));
      break;
    case 2:
      p[rng.NextBelow(static_cast<uint32_t>(n))] = 0.75f;
      break;
    default:
      for (size_t i = n / 3; i < std::max(n / 3 + 1, 2 * n / 3); ++i) {
        p[i] = 0.25f;
      }
      break;
  }
  return p;
}

TEST(LeafWalk, MatchesStoredTreeWalkIndexAndComparisons) {
  for (const uint32_t fanout : {2u, 3u, 8u, 32u}) {
    const size_t f = fanout;
    for (const size_t n : {size_t{1}, f - 1, f, f + 1, f * f, f * f + 1,
                           size_t{1024}}) {
      if (n == 0) continue;
      for (int shape = 0; shape < 4; ++shape) {
        std::vector<float> p = ShapedDistribution(n, shape, 1000 * n + f);
        std::vector<float> prefix(n);
        float acc = 0;
        for (size_t i = 0; i < n; ++i) prefix[i] = acc += p[i];
        if (acc <= 0.0f) continue;  // sampling needs positive mass
        const StoredTreeOracle oracle(prefix, fanout);
        IndexTree tree(n, fanout);
        EXPECT_EQ(tree.view().Build(p), acc);

        // 0, every prefix value exactly, a point inside every gap between
        // consecutive distinct prefixes, random interior points, and at or
        // above the total mass (the clamp path).
        std::vector<float> points{0.0f, acc, std::nextafter(acc, 2 * acc),
                                  acc * 1.5f};
        for (size_t i = 0; i < n; ++i) {
          points.push_back(prefix[i]);
          if (i > 0 && prefix[i] > prefix[i - 1]) {
            points.push_back(prefix[i - 1] + (prefix[i] - prefix[i - 1]) / 2);
          }
        }
        PhiloxStream rng(17, n * 64 + fanout);
        for (int i = 0; i < 64; ++i) points.push_back(rng.NextFloat() * acc);

        for (const float u : points) {
          SCOPED_TRACE("fanout=" + std::to_string(fanout) +
                       " n=" + std::to_string(n) +
                       " shape=" + std::to_string(shape) +
                       " u=" + std::to_string(u));
          uint64_t want_cmp = 0, got_cmp = 0, view_cmp = 0;
          const size_t want = oracle.Search(u, &want_cmp);
          EXPECT_EQ(SearchPrefixTree(prefix, fanout, u, &got_cmp), want);
          EXPECT_EQ(got_cmp, want_cmp);
          EXPECT_EQ(tree.view().Search(u, &view_cmp), want);
          EXPECT_EQ(view_cmp, want_cmp);
        }
      }
    }
  }
}

}  // namespace
}  // namespace culda::core
