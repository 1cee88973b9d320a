// Tests for the φ reduce/broadcast synchronization (Figure 4).
//
// Trainers keep one host φ that every device's update_phi adds into, so it
// holds the global sum before the sync runs; BillSynchronizePhi only bills
// the reduce tree (or the CPU-sum ablation) and leaves φ untouched.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/kernels.hpp"
#include "core/sync.hpp"
#include "corpus/chunking.hpp"
#include "corpus/synthetic.hpp"
#include "gpusim/multi_gpu.hpp"
#include "util/philox.hpp"

namespace culda::core {
namespace {

constexpr uint32_t kTopics = 8;
constexpr uint32_t kVocab = 50;

gpusim::DeviceGroup MakeGroup(size_t g) {
  return gpusim::DeviceGroup(
      std::vector<gpusim::DeviceSpec>(g, gpusim::TitanXpPascal()));
}

/// One chunk per device over a small synthetic corpus, topics from Philox
/// keyed by the corpus-global token.
std::vector<ChunkState> DeviceChunks(const corpus::Corpus& corpus,
                                     const CuldaConfig& cfg, size_t g) {
  std::vector<ChunkState> chunks;
  for (const auto& spec :
       corpus::PartitionByTokens(corpus, static_cast<uint32_t>(g))) {
    ChunkState chunk;
    chunk.layout = corpus::BuildWordFirstChunk(corpus, spec);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg.max_tokens_per_block);
    for (const uint64_t token : chunk.layout.token_global) {
      PhiloxStream rng(cfg.seed, token);
      chunk.z.push_back(static_cast<uint16_t>(rng.NextBelow(cfg.num_topics)));
    }
    chunks.push_back(std::move(chunk));
  }
  return chunks;
}

class SyncOverGpuCounts
    : public ::testing::TestWithParam<std::tuple<size_t, SyncMode>> {};

TEST_P(SyncOverGpuCounts, AllReplicasHoldTheGlobalSum) {
  // Every device adds its chunk into the one host φ that stands for all G
  // replicas; after the billed sync it must hold the element-wise sum of
  // the per-device counts, and the sync must bill the mode's traffic.
  const auto [g, mode] = GetParam();
  corpus::SyntheticProfile p;
  p.num_docs = 60;
  p.vocab_size = kVocab;
  p.avg_doc_length = 20;
  const corpus::Corpus corpus = corpus::GenerateCorpus(p);
  CuldaConfig cfg;
  cfg.num_topics = kTopics;
  const auto chunks = DeviceChunks(corpus, cfg, g);

  auto group = MakeGroup(g);
  PhiReplica shared(kTopics, corpus.vocab_size());
  sparse::DenseMatrix<uint16_t> expected(kTopics, corpus.vocab_size());
  for (size_t i = 0; i < g; ++i) {
    RunUpdatePhiKernel(group.device(i), cfg, chunks[i], shared);
    for (uint64_t t = 0; t < chunks[i].z.size(); ++t) {
      ++expected(chunks[i].z[t], chunks[i].layout.token_word[t]);
    }
  }
  const std::vector<uint16_t> before(shared.phi.flat().begin(),
                                     shared.phi.flat().end());
  const auto stats = BillSynchronizePhi(group, cfg, shared, mode);

  EXPECT_TRUE(std::ranges::equal(shared.phi.flat(), before))
      << "billing must not touch φ";
  for (uint32_t k = 0; k < kTopics; ++k) {
    for (uint32_t v = 0; v < corpus.vocab_size(); ++v) {
      ASSERT_EQ(shared.phi(k, v), expected(k, v)) << k << "," << v;
    }
  }
  const uint64_t bytes =
      uint64_t{kTopics} * corpus.vocab_size() * cfg.phi_count_bytes();
  const bool tree = mode == SyncMode::kGpuTree;
  EXPECT_EQ(stats.peer_bytes, tree ? 2 * (g - 1) * bytes : 0);
  EXPECT_EQ(stats.host_bytes, tree || g == 1 ? 0 : 2 * g * bytes);
}

INSTANTIATE_TEST_SUITE_P(
    GpuCountsAndModes, SyncOverGpuCounts,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 7, 8),
                       ::testing::Values(SyncMode::kGpuTree,
                                         SyncMode::kCpuSum)),
    [](const auto& info) {
      return "g" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == SyncMode::kGpuTree ? "_tree"
                                                            : "_cpu");
    });

TEST(Sync, SingleGpuIsFree) {
  auto group = MakeGroup(1);
  CuldaConfig cfg;
  cfg.num_topics = kTopics;
  const auto stats =
      BillSynchronizePhi(group, cfg, PhiReplica(kTopics, kVocab));
  EXPECT_EQ(stats.seconds, 0.0);
  EXPECT_EQ(stats.peer_bytes, 0u);
  EXPECT_EQ(group.Now(), 0.0);
}

TEST(Sync, ReduceRoundsAreLogarithmic) {
  CuldaConfig cfg;
  cfg.num_topics = kTopics;
  const PhiReplica replica(kTopics, kVocab);
  for (const auto& [g, rounds] :
       std::vector<std::pair<size_t, int>>{{2, 1}, {4, 2}, {8, 3}, {5, 3}}) {
    auto group = MakeGroup(g);
    const auto stats = BillSynchronizePhi(group, cfg, replica);
    EXPECT_EQ(stats.reduce_rounds, rounds) << "g=" << g;
  }
}

TEST(Sync, TreeBeatsSerialVolumeAtFourGpus) {
  // 4 GPUs with a realistically sized φ (where bandwidth, not latency,
  // dominates): the tree's parallel pairs beat the CPU-sum path, whose adds
  // run at CPU memory bandwidth — the Section 5.2 argument.
  CuldaConfig cfg;
  cfg.num_topics = 256;
  const PhiReplica big(256, 20000);
  auto g_tree = MakeGroup(4);
  const auto tree = BillSynchronizePhi(g_tree, cfg, big, SyncMode::kGpuTree);
  auto g_cpu = MakeGroup(4);
  const auto cpu = BillSynchronizePhi(g_cpu, cfg, big, SyncMode::kCpuSum);
  EXPECT_LT(tree.seconds, cpu.seconds);
}

TEST(Sync, PeerBytesScaleWithReplicaSize) {
  CuldaConfig cfg;
  cfg.num_topics = kTopics;
  auto group = MakeGroup(2);
  const auto stats =
      BillSynchronizePhi(group, cfg, PhiReplica(kTopics, kVocab));
  // One reduce + one broadcast transfer of K×V×2 bytes each.
  EXPECT_EQ(stats.peer_bytes, 2ull * kTopics * kVocab * 2);
}

TEST(Sync, AdvancesGroupClock) {
  auto group = MakeGroup(4);
  CuldaConfig cfg;
  cfg.num_topics = kTopics;
  const auto stats =
      BillSynchronizePhi(group, cfg, PhiReplica(kTopics, kVocab));
  EXPECT_GT(stats.seconds, 0.0);
  EXPECT_GE(group.Now(), stats.seconds);
}

}  // namespace
}  // namespace culda::core
