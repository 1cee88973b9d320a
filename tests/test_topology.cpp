// Topology discovery and the placement surface of the topology-aware
// runtime: cpulist parsing against canned /sys fixtures, pinning fallback,
// per-socket queues and cross-socket stealing, first-touched worker arenas,
// the slot-0 collision guard, and the placement-parameterized determinism
// contract (bit-identical results across {workers}×{pinned,unpinned}×
// {shared,replicated}). Labeled `placement` (the dedicated CI job) and
// `metrics` (the TSan run — the pool is concurrency-heavy by nature).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "core/inference.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"
#include "util/topology.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace culda {
namespace {

// ---------------------------------------------------------------- cpulist --

TEST(ParseCpuList, RangesAndSingles) {
  EXPECT_EQ(ParseCpuList("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(ParseCpuList("5"), (std::vector<int>{5}));
}

TEST(ParseCpuList, WhitespaceAndSysfsNewlineTolerated) {
  EXPECT_EQ(ParseCpuList(" 0-1 , 4 \n"), (std::vector<int>{0, 1, 4}));
  EXPECT_EQ(ParseCpuList("0-3\n"), (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParseCpuList, EmptyListIsNoCpus) {
  // A memoryless node's cpulist really is empty (modulo the newline).
  EXPECT_TRUE(ParseCpuList("").empty());
  EXPECT_TRUE(ParseCpuList(" \n").empty());
}

TEST(ParseCpuList, OverlapsCollapseSortedUnique) {
  EXPECT_EQ(ParseCpuList("2,0-2,1"), (std::vector<int>{0, 1, 2}));
}

TEST(ParseCpuList, MalformedInputsThrow) {
  EXPECT_THROW(ParseCpuList("3-1"), Error);   // reversed range
  EXPECT_THROW(ParseCpuList("-2"), Error);    // negative / dangling dash
  EXPECT_THROW(ParseCpuList("1-"), Error);
  EXPECT_THROW(ParseCpuList("a"), Error);
  EXPECT_THROW(ParseCpuList("0,,1"), Error);
  EXPECT_THROW(ParseCpuList("0,"), Error);    // trailing comma
  EXPECT_THROW(ParseCpuList("0;1"), Error);
}

// ----------------------------------------------------- /sys node fixtures --

/// Builds a /sys/devices/system/node-style fixture directory containing
/// node<N>/cpulist files with the given contents.
std::string WriteNodeFixture(
    const std::string& tag,
    const std::vector<std::pair<int, std::string>>& nodes) {
  const std::string dir = ::testing::TempDir() + "/culda_nodes_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const auto& [n, cpulist] : nodes) {
    const std::string node_dir = dir + "/node" + std::to_string(n);
    std::filesystem::create_directories(node_dir);
    std::ofstream(node_dir + "/cpulist") << cpulist;
  }
  return dir;
}

TEST(TopologyFromSys, TwoNodeLayout) {
  const auto dir =
      WriteNodeFixture("two", {{0, "0-3\n"}, {1, "4-7\n"}});
  const auto topo = TopologyFromSys(dir, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(topo.num_nodes, 2);
  EXPECT_EQ(topo.cpus, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0, 0, 0, 1, 1, 1, 1}));
  EXPECT_EQ(topo.Summary(), "8 CPUs / 2 nodes (0-3 | 4-7)");
  EXPECT_EQ(topo.NodeCpus()[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(TopologyFromSys, SingleNodeCollapses) {
  const auto dir = WriteNodeFixture("one", {{0, "0-1\n"}});
  const auto topo = TopologyFromSys(dir, {0, 1});
  EXPECT_EQ(topo.num_nodes, 1);
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0}));
  EXPECT_EQ(topo.Summary(), "2 CPUs / 1 node (0-1)");
}

TEST(TopologyFromSys, OfflineCpuHolesIntersect) {
  // The affinity mask has holes (offline CPUs / restricted cpuset): only
  // the intersection survives, nodes keep their claims.
  const auto dir =
      WriteNodeFixture("holes", {{0, "0-3\n"}, {1, "4-7\n"}});
  const auto topo = TopologyFromSys(dir, {0, 2, 5, 7});
  EXPECT_EQ(topo.cpus, (std::vector<int>{0, 2, 5, 7}));
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0, 1, 1}));
  EXPECT_EQ(topo.num_nodes, 2);
}

TEST(TopologyFromSys, SparseSysNodeNumbersCompactDense) {
  // Only sys nodes 3 and 7 hold effective CPUs → dense indices 0 and 1.
  const auto dir = WriteNodeFixture("sparse", {{3, "0\n"}, {7, "1\n"}});
  const auto topo = TopologyFromSys(dir, {0, 1});
  EXPECT_EQ(topo.num_nodes, 2);
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 1}));
}

TEST(TopologyFromSys, UnclaimedCpusLandOnNodeZero) {
  const auto dir = WriteNodeFixture("unclaimed", {{0, "0-1\n"}});
  const auto topo = TopologyFromSys(dir, {0, 1, 9});
  EXPECT_EQ(topo.num_nodes, 1);
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0, 0}));
}

TEST(TopologyFromSys, EmptyNodeDirAndMissingDirAreOneNode) {
  const auto empty = WriteNodeFixture("empty", {});
  for (const std::string& dir : {empty, empty + "/does_not_exist"}) {
    const auto topo = TopologyFromSys(dir, {0, 1, 2});
    EXPECT_EQ(topo.num_nodes, 1);
    EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0, 0}));
  }
}

TEST(TopologyFromSys, MemorylessNodeWithEmptyCpulistIgnored) {
  const auto dir = WriteNodeFixture("memless", {{0, "\n"}, {1, "0-1\n"}});
  const auto topo = TopologyFromSys(dir, {0, 1});
  EXPECT_EQ(topo.num_nodes, 1);  // node0 claimed nothing → compacted away
  EXPECT_EQ(topo.node_of, (std::vector<int>{0, 0}));
}

TEST(Topology, EffectiveCpusNeverEmptyAndDefaultWorkersDerive) {
  const auto cpus = EffectiveCpus();
  ASSERT_FALSE(cpus.empty());
  EXPECT_EQ(EffectiveCpuCount(), cpus.size());
  EXPECT_EQ(DefaultWorkerCount(), cpus.size() > 1 ? cpus.size() - 1 : 0);
  EXPECT_GE(SystemTopology().num_nodes, 1);
  EXPECT_EQ(SystemTopology().cpu_count(), cpus.size());
}

// ----------------------------------------------------------------- pinning --

TEST(Placement, PinToOwnAffinityMaskSucceeds) {
  ThreadPoolOptions opts;
  opts.pin = true;
  ThreadPool pool(2, opts);
#if defined(__linux__)
  // The assigned CPUs come from our own affinity mask, so pinning to them
  // is always permitted.
  EXPECT_EQ(pool.pinned_worker_count(), 2u);
#else
  EXPECT_EQ(pool.pinned_worker_count(), 0u);
#endif
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(Placement, PinFallsBackWhenCpuExceedsSetsize) {
  // CPU id beyond CPU_SETSIZE: CPU_SET would be UB, so the pool must take
  // the guard path — every worker unpinned, pool fully functional.
  CpuTopology topo;
  topo.cpus = {1 << 19};
  topo.node_of = {0};
  topo.num_nodes = 1;
  ThreadPoolOptions opts;
  opts.pin = true;
  opts.topology = &topo;
  ThreadPool pool(2, opts);
  EXPECT_EQ(pool.pinned_worker_count(), 0u);
  std::atomic<int> count{0};
  pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64);
}

TEST(Placement, PinFallsBackWhenSetaffinityRejectsCpu) {
#if defined(__linux__)
  if (std::thread::hardware_concurrency() >= CPU_SETSIZE) {
    GTEST_SKIP() << "host may actually have CPU " << (CPU_SETSIZE - 1);
  }
  // A CPU id inside CPU_SETSIZE but not online: pthread_setaffinity_np
  // returns EINVAL and the worker runs unpinned.
  CpuTopology topo;
  topo.cpus = {CPU_SETSIZE - 1};
  topo.node_of = {0};
  topo.num_nodes = 1;
  ThreadPoolOptions opts;
  opts.pin = true;
  opts.topology = &topo;
  ThreadPool pool(1, opts);
  EXPECT_EQ(pool.pinned_worker_count(), 0u);
  std::atomic<int> count{0};
  pool.ParallelFor(16, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 16);
#else
  GTEST_SKIP() << "linux-only";
#endif
}

// ------------------------------------------------- domains and stealing --

/// Two CPUs on two different NUMA nodes — lets a 1-core host exercise the
/// multi-domain scheduler (placement is about scheduling structure, not
/// physical CPUs; nothing here requires the CPUs to exist).
CpuTopology TwoSocketTopology() {
  CpuTopology topo;
  topo.cpus = {0, 1};
  topo.node_of = {0, 1};
  topo.num_nodes = 2;
  return topo;
}

TEST(Placement, SingleNodeTopologyIsOneDomain) {
  const auto topo = TwoSocketTopology();
  ThreadPoolOptions two;
  two.topology = &topo;
  ThreadPool multi(2, two);
  EXPECT_EQ(multi.socket_count(), 2u);
  EXPECT_EQ(multi.socket_of_worker(0), 0);
  EXPECT_EQ(multi.socket_of_worker(1), 1);

  ThreadPool flat(2);  // machine topology; degenerate on single-node hosts
  EXPECT_GE(flat.socket_count(), 1u);
  ThreadPool inline_pool(0);
  EXPECT_EQ(inline_pool.socket_count(), 1u);
  EXPECT_EQ(inline_pool.current_socket(), 0);
}

TEST(Placement, CrossSocketStealsHappenAndAreCounted) {
  const auto topo = TwoSocketTopology();
  ThreadPoolOptions opts;
  opts.topology = &topo;
  ThreadPool pool(2, opts);
  ASSERT_EQ(pool.socket_count(), 2u);
  EXPECT_EQ(pool.steal_count(), 0u);

  // The domain-1 worker parks inside its first shard until some home-0
  // thread (the caller or worker 0) exhausts the domain-0 range and steals
  // from domain 1 — so at least one steal is *forced*, not just likely.
  // (36 items / 2 workers → 12 shards, split 8:4 between the domains, so
  // domain 1 always has shards left to steal while its worker is parked.)
  std::vector<std::atomic<int>> hits(36);
  pool.ParallelFor(36, [&](size_t i) {
    if (pool.current_socket() == 1) {
      while (pool.steal_count() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    hits[i].fetch_add(1);
  });
  EXPECT_GE(pool.steal_count(), 1u);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Placement, NoStealsOnSingleDomain) {
  ThreadPool pool(2);  // this host is single-node → one domain
  if (pool.socket_count() != 1) GTEST_SKIP() << "multi-node host";
  std::atomic<int> count{0};
  pool.ParallelFor(500, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(pool.steal_count(), 0u);
}

TEST(Placement, ForEachSocketRunsOnAHomeWorker) {
  const auto topo = TwoSocketTopology();
  ThreadPoolOptions opts;
  opts.topology = &topo;
  ThreadPool pool(2, opts);
  std::vector<std::atomic<int>> runs(pool.socket_count());
  std::vector<std::atomic<int>> socket_seen(pool.socket_count());
  pool.ForEachSocket([&](size_t s) {
    runs[s].fetch_add(1);
    socket_seen[s].store(pool.current_socket());
    EXPECT_NE(pool.current_worker_id(), -1);
  });
  for (size_t s = 0; s < pool.socket_count(); ++s) {
    EXPECT_EQ(runs[s].load(), 1);
    EXPECT_EQ(socket_seen[s].load(), static_cast<int>(s));
  }
}

TEST(Placement, ForEachSocketInlineWithoutWorkers) {
  ThreadPool pool(0);
  int runs = 0;
  pool.ForEachSocket([&](size_t s) {
    EXPECT_EQ(s, 0u);
    EXPECT_EQ(pool.current_worker_id(), -1);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(Placement, ForEachSocketPropagatesExceptions) {
  const auto topo = TwoSocketTopology();
  ThreadPoolOptions opts;
  opts.topology = &topo;
  ThreadPool pool(2, opts);
  EXPECT_THROW(
      pool.ForEachSocket([&](size_t s) {
        if (s == 1) throw Error("boom");
      }),
      Error);
}

// ------------------------------------------------------------------ arenas --

TEST(Placement, WorkerArenaReusedAcrossInvocations) {
  ThreadPool pool(2);
  const auto a = pool.WorkerArena(64);
  ASSERT_EQ(a.size(), 64u);
  for (const std::byte b : a) EXPECT_EQ(b, std::byte{0});
  std::memset(a.data(), 0xAB, a.size());

  // Same slot, same-or-smaller size → same backing memory, contents intact.
  EXPECT_EQ(pool.WorkerArena(64).data(), a.data());
  EXPECT_EQ(pool.WorkerArena(16).data(), a.data());
  EXPECT_EQ(static_cast<unsigned char>(a[0]), 0xAB);

  // Growth reallocates (fresh zero-filled block — contents do not carry
  // over; callers treat the arena as scratch).
  const auto big = pool.WorkerArena(2 * 4096 + 1);
  ASSERT_EQ(big.size(), 2 * 4096 + 1u);
  for (const std::byte b : big) EXPECT_EQ(b, std::byte{0});
}

TEST(Placement, WorkerArenasAreDistinctPerSlotAndStable) {
  ThreadPool pool(2);
  std::vector<std::atomic<std::byte*>> round1(pool.worker_count() + 1);
  std::vector<std::atomic<std::byte*>> round2(pool.worker_count() + 1);
  const auto collect = [&](std::vector<std::atomic<std::byte*>>& out) {
    pool.ParallelFor(256, [&](size_t) {
      out[static_cast<size_t>(pool.current_worker_id() + 1)].store(
          pool.WorkerArena(32).data());
    });
  };
  collect(round1);
  collect(round2);
  // Distinct slots → distinct arenas. The caller (slot 0) usually claims a
  // shard too, but shard claiming is dynamic: under machine load the
  // workers may drain the whole range first, so only the slots that
  // actually ran are asserted on (some slot always does — every index
  // executes somewhere).
  size_t populated = 0;
  for (const auto& p : round1) populated += p.load() != nullptr ? 1 : 0;
  ASSERT_GT(populated, 0u);
  for (size_t i = 0; i < round1.size(); ++i) {
    for (size_t j = i + 1; j < round1.size(); ++j) {
      if (round1[i].load() && round1[j].load()) {
        EXPECT_NE(round1[i].load(), round1[j].load());
      }
    }
    // Stable across ParallelFor invocations (first-touch pays off because
    // the memory is *reused*, not reallocated per launch).
    if (round1[i].load() && round2[i].load()) {
      EXPECT_EQ(round1[i].load(), round2[i].load());
    }
  }
}

// ---------------------------------------------------- dense-slot contract --

TEST(Placement, SecondExternalThreadIsRejectedNotCorrupted) {
  ThreadPool pool(1);
  std::atomic<bool> inside{false};
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  std::thread holder([&] {
    pool.ParallelFor(4, [&](size_t) {
      inside.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      ran.fetch_add(1);
    });
  });
  while (!inside.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // `holder` owns slot 0; a second non-worker thread entering would silently
  // share that slot (and its arena), so the pool must refuse.
  EXPECT_THROW(pool.ParallelFor(1, [](size_t) {}), Error);
  release.store(true);
  holder.join();
  EXPECT_EQ(ran.load(), 4);

  // After the owner leaves, the slot is free again.
  std::atomic<int> after{0};
  pool.ParallelFor(8, [&](size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(Placement, OwnerMayReenterRecursively) {
  ThreadPool pool(1);
  std::atomic<int> count{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(2, [&](size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 4);
}

// --------------------------------------- placement-blind result contract --

corpus::Corpus SmallCorpus() {
  corpus::SyntheticProfile p;
  p.num_docs = 120;
  p.vocab_size = 200;
  p.avg_doc_length = 25;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig SmallConfig() {
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  return cfg;
}

TEST(PlacementDeterminism, TrainerIdenticalAcrossPlacements) {
  const auto corpus = SmallCorpus();
  const auto run = [&](ThreadPool* pool) {
    core::TrainerOptions opts;
    opts.pool = pool;
    core::CuldaTrainer trainer(corpus, SmallConfig(), opts);
    trainer.Train(3);
    return trainer.ExportAssignments();
  };
  const auto baseline = run(nullptr);

  ThreadPool unpinned(2);
  EXPECT_EQ(run(&unpinned), baseline);

  ThreadPoolOptions pin_opts;
  pin_opts.pin = true;
  ThreadPool pinned(2, pin_opts);
  EXPECT_EQ(run(&pinned), baseline);

  const auto topo = TwoSocketTopology();
  ThreadPoolOptions numa_opts;
  numa_opts.topology = &topo;
  ThreadPool two_socket(2, numa_opts);
  ASSERT_EQ(two_socket.socket_count(), 2u);
  EXPECT_EQ(run(&two_socket), baseline);
}

TEST(PlacementDeterminism, ReplicatedEngineBitIdenticalToShared) {
  const auto corpus = SmallCorpus();
  core::CuldaTrainer trainer(corpus, SmallConfig(), {});
  trainer.Train(3);
  const auto model = trainer.Gather();

  corpus::SyntheticProfile hp;
  hp.num_docs = 30;
  hp.vocab_size = 200;
  hp.avg_doc_length = 20;
  hp.seed = 99;
  const auto heldout = corpus::GenerateCorpus(hp);
  std::vector<std::vector<uint32_t>> docs;
  for (size_t d = 0; d < heldout.num_docs(); ++d) {
    const auto tokens = heldout.DocTokens(d);
    docs.emplace_back(tokens.begin(), tokens.end());
  }

  const auto topo = TwoSocketTopology();
  ThreadPoolOptions opts;
  opts.topology = &topo;
  ThreadPool pool(2, opts);
  ASSERT_EQ(pool.socket_count(), 2u);

  for (const auto sampler :
       {core::InferSampler::kSparseBucket, core::InferSampler::kAliasMH,
        core::InferSampler::kDenseReference}) {
    core::InferenceOptions sequential;
    sequential.sampler = sampler;
    core::InferenceOptions shared = sequential;
    shared.pool = &pool;
    core::InferenceOptions replicated = shared;
    replicated.numa_replicate = true;

    const core::InferenceEngine seq_engine(model, SmallConfig(), sequential);
    const core::InferenceEngine shared_engine(model, SmallConfig(), shared);
    const core::InferenceEngine repl_engine(model, SmallConfig(), replicated);

    const auto a = seq_engine.InferBatch(docs, 10);
    const auto b = shared_engine.InferBatch(docs, 10);
    const auto c = repl_engine.InferBatch(docs, 10);
    ASSERT_EQ(a.size(), docs.size());
    for (size_t d = 0; d < docs.size(); ++d) {
      EXPECT_EQ(a[d].assignments, b[d].assignments);
      EXPECT_EQ(a[d].assignments, c[d].assignments);
      EXPECT_EQ(a[d].topic_counts, c[d].topic_counts);
    }
    EXPECT_EQ(seq_engine.DocumentCompletionPerplexity(heldout, 10),
              repl_engine.DocumentCompletionPerplexity(heldout, 10));
    EXPECT_EQ(shared_engine.DocumentCompletionPerplexity(heldout, 10),
              repl_engine.DocumentCompletionPerplexity(heldout, 10));
  }
}

TEST(PlacementDeterminism, ReplicateIsNoOpOnSingleSocket) {
  const auto corpus = SmallCorpus();
  core::CuldaTrainer trainer(corpus, SmallConfig(), {});
  trainer.Train(2);
  const auto model = trainer.Gather();

  ThreadPool pool(2);  // machine topology: single domain on this host
  core::InferenceOptions opts;
  opts.pool = &pool;
  opts.numa_replicate = true;
  const core::InferenceEngine engine(model, SmallConfig(), opts);
  const core::InferenceEngine plain(model, SmallConfig());
  const std::vector<uint32_t> doc{0, 3, 5, 7, 11, 13, 17, 19};
  EXPECT_EQ(engine.InferDocument(doc).assignments,
            plain.InferDocument(doc).assignments);
}

}  // namespace
}  // namespace culda
