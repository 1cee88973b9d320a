// F-ary index tree for multinomial sampling (Figure 5, Section 6.1.1).
//
// Sampling from a discrete distribution p[0..n) is transformed into a search
// problem: build the inclusive prefix sums of p, then find the minimal k
// with prefix[k] > u. CuLDA builds a 32-ary tree over the prefix sums — one
// warp inspects all 32 children of a node in lock-step — and keeps the tree
// in shared memory, so the two passes over p (mass computation and sampling)
// touch off-chip memory only once.
//
// Layout of the device tree: the leaf prefix array followed by the internal
// levels bottom-up; level l+1 stores the last prefix value of each group of
// `fanout` level-l entries. Every internal entry is therefore a leaf: entry
// i of level l is prefix[min(n, (i+1)·F^l) − 1]. The host keeps only the
// leaves and walks the internal levels implicitly (SearchPrefixTree), which
// inspects exactly the entries the device walk would. StorageSlots() is the
// device tree's full footprint, which kernels allocate and bill.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace culda::core {

/// Walks the F-ary index tree over the inclusive prefix sums `prefix`
/// top-down, scanning at most `fanout` entries per level, and returns the
/// minimal k with prefix[k] > u (clamped to n−1 for u at or beyond the total
/// mass, absorbing float round-off). `comparisons`, if given, receives the
/// number of entries inspected — the cost a warp pays.
///
/// Contract: `prefix` must be non-empty, `u` finite and non-negative, and
/// the total mass prefix[n−1] positive. All three are checked in every
/// build: a NaN draw or a zero-mass distribution would otherwise fall
/// through the round-off clamp and silently return the last leaf — a
/// sampling bug indistinguishable from a legitimate draw.
inline size_t SearchPrefixTree(std::span<const float> prefix,
                               uint32_t fanout, float u,
                               uint64_t* comparisons = nullptr) {
  const size_t n = prefix.size();
  CULDA_DCHECK(fanout >= 2);
  CULDA_CHECK_MSG(n > 0, "cannot sample from an empty index tree");
  CULDA_CHECK_MSG(std::isfinite(u) && u >= 0.0f,
                  "index-tree search point must be finite and "
                  "non-negative, got "
                      << u);
  CULDA_CHECK_MSG(prefix[n - 1] > 0.0f,
                  "cannot sample from an index tree with total mass "
                      << prefix[n - 1]
                      << "; the distribution has no support");
  // Leaves covered by one entry of the current level, F^l; the top level is
  // the first with at most F entries (n ≤ F^(l+1)).
  size_t stride = 1;
  while (n > stride * fanout) stride *= fanout;
  uint64_t inspected = 0;
  size_t chosen = 0;  // entry chosen at the level above (0 above the top)
  for (;;) {
    // Scan the group of at most F entries under the parent. The group's
    // last existing entry is taken unread when the scan reaches it: hit or
    // round-off clamp, the walk chooses it either way.
    const size_t begin = chosen * fanout;
    const size_t last = std::min(begin + fanout, (n - 1) / stride + 1) - 1;
    size_t i = begin;
    size_t leaf = (begin + 1) * stride - 1;  // entry i's value is prefix[leaf]
    while (i < last && !(prefix[leaf] > u)) {
      ++i;
      leaf += stride;
    }
    inspected += i - begin + 1;
    chosen = i;
    if (stride == 1) break;
    stride /= fanout;
  }
  if (comparisons != nullptr) *comparisons = inspected;
  return chosen;
}

class IndexTreeView {
 public:
  /// Number of float slots the device tree over `n` probabilities occupies
  /// (leaves plus internal levels): the size kernels allocate and bill.
  static size_t StorageSlots(size_t n, uint32_t fanout) {
    CULDA_DCHECK(fanout >= 2);
    size_t slots = n;
    for (size_t level = n; level > fanout;) {
      level = (level + fanout - 1) / fanout;
      slots += level;
    }
    return slots;
  }

  IndexTreeView() = default;

  /// Binds the view to external storage (shared memory in kernels). The
  /// host uses only the first `n` slots (the leaves); kernels bind it to
  /// their StorageSlots(n, fanout)-sized allocation.
  IndexTreeView(std::span<float> storage, size_t n, uint32_t fanout)
      : storage_(storage), n_(n), fanout_(fanout) {
    CULDA_CHECK(fanout >= 2);
    CULDA_CHECK_MSG(storage.size() >= n, "index-tree storage too small");
    num_levels_ = 1;
    for (size_t level = n; level > fanout_;) {
      level = (level + fanout_ - 1) / fanout_;
      CULDA_CHECK_MSG(num_levels_ < kMaxLevels, "distribution too large");
      ++num_levels_;
    }
  }

  size_t size() const { return n_; }
  size_t levels() const { return num_levels_; }

  /// Builds the tree from probabilities `p` (length n). Returns the total
  /// mass (the last prefix sum). Costs n adds for the leaves; the internal
  /// levels are implied by them.
  ///
  /// Contract: every p[i] must be finite and non-negative (checked
  /// per-element in debug builds; the final mass is checked in every
  /// build, so a NaN or net-negative input always fails loudly instead of
  /// producing a tree whose Search silently returns the last leaf). A
  /// legally-built tree may still have zero total mass (all-zero p);
  /// sampling from one is the caller's bug and is rejected by Search.
  float Build(std::span<const float> p) {
    CULDA_CHECK(p.size() == n_);
    if (n_ == 0) return 0.0f;
    float acc = 0;
    for (size_t i = 0; i < n_; ++i) {
      CULDA_DCHECK(p[i] >= 0.0f);
      acc += p[i];
      storage_[i] = acc;
    }
    CULDA_CHECK_MSG(std::isfinite(acc) && acc >= 0.0f,
                    "index-tree mass must be finite and non-negative, got "
                        << acc
                        << " (NaN or negative probabilities in the input)");
    return acc;
  }

  float TotalMass() const { return n_ == 0 ? 0.0f : storage_[n_ - 1]; }

  /// SearchPrefixTree over this tree's leaves (same contract).
  size_t Search(float u, uint64_t* comparisons = nullptr) const {
    return SearchPrefixTree(storage_.first(n_), fanout_, u, comparisons);
  }

  /// Leaf prefix value at k (prefix[k]); used by tests.
  float PrefixAt(size_t k) const { return storage_[k]; }

 private:
  // The last level has <= fanout entries. 24 levels cover n up to 2^24
  // even at fanout = 2 (the A1 ablation's degenerate case).
  static constexpr size_t kMaxLevels = 24;

  std::span<float> storage_;
  size_t n_ = 0;
  uint32_t fanout_ = 32;
  size_t num_levels_ = 0;
};

/// An IndexTreeView plus owned storage, for host-side use (tests, CPU
/// baselines). Kernels bind views over shared memory instead.
class IndexTree {
 public:
  IndexTree(size_t n, uint32_t fanout)
      : storage_(n), view_(storage_, n, fanout) {}

  IndexTreeView& view() { return view_; }
  const IndexTreeView& view() const { return view_; }

 private:
  std::vector<float> storage_;
  IndexTreeView view_;
};

}  // namespace culda::core
