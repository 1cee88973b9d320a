// Tests for the simulated multi-node fabric and the ClusterTrainer
// (docs/distributed.md): fabric routing/cost accounting, strict flag
// parsing, the staleness-bound invariant, worker-count bit-identity of the
// sync and async schedules, and sync-mode equivalence to a single multi-GPU
// machine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "dist/cluster.hpp"
#include "gpusim/fabric.hpp"
#include "util/thread_pool.hpp"

namespace culda::dist {
namespace {

corpus::Corpus TestCorpus(uint64_t docs = 240, uint32_t vocab = 300) {
  corpus::SyntheticProfile p;
  p.num_docs = docs;
  p.vocab_size = vocab;
  p.avg_doc_length = 40;
  return corpus::GenerateCorpus(p);
}

core::CuldaConfig TestConfig(uint32_t k = 16) {
  core::CuldaConfig cfg;
  cfg.num_topics = k;
  return cfg;
}

ClusterOptions TestOptions(uint32_t nodes, uint32_t gpus_per_node,
                           DistMode mode) {
  ClusterOptions opts;
  opts.num_nodes = nodes;
  opts.gpus.assign(gpus_per_node, gpusim::V100Volta());
  opts.mode = mode;
  return opts;
}

// ----------------------------------------------------------------- Fabric --

TEST(Fabric, FullyConnectedIsOneDirectHop) {
  const gpusim::LinkSpec link{"test", 1.25, 50.0};  // 1.25 GB/s, 50 µs
  gpusim::Fabric f(4, gpusim::FabricTopology::kFullyConnected, link);
  const uint64_t bytes = 1 << 20;
  EXPECT_EQ(f.RouteHops(0, 2), 1u);
  const double arrival = f.Transfer(0, 2, bytes, 0.0);
  EXPECT_DOUBLE_EQ(arrival, link.TransferSeconds(bytes));
  EXPECT_EQ(f.payload_bytes(), bytes);
  EXPECT_EQ(f.wire_bytes(), bytes);
}

TEST(Fabric, RingStoreAndForwardBillsEveryHop) {
  const gpusim::LinkSpec link{"test", 2.0, 10.0};
  gpusim::Fabric f(4, gpusim::FabricTopology::kRing, link);
  const uint64_t bytes = 4 << 20;
  // 0 → 2 is two hops either way; ties route clockwise (0 → 1 → 2).
  EXPECT_EQ(f.RouteHops(0, 2), 2u);
  const double arrival = f.Transfer(0, 2, bytes, 1.0);
  EXPECT_DOUBLE_EQ(arrival, 1.0 + 2 * link.TransferSeconds(bytes));
  EXPECT_EQ(f.payload_bytes(), bytes);
  EXPECT_EQ(f.wire_bytes(), 2 * bytes);
  // 0 → 3 goes the short way round: one hop on the 0↔3 edge.
  EXPECT_EQ(f.RouteHops(0, 3), 1u);
}

TEST(Fabric, SharedLinkSerializesTransfers) {
  const gpusim::LinkSpec link{"test", 1.0, 0.0};
  gpusim::Fabric f(3, gpusim::FabricTopology::kFullyConnected, link);
  const uint64_t bytes = 1 << 20;
  const double t1 = f.Transfer(0, 1, bytes, 0.0);
  // Same directed link, issued at the same ready time: must queue behind.
  const double t2 = f.Transfer(0, 1, bytes, 0.0);
  EXPECT_DOUBLE_EQ(t1, link.TransferSeconds(bytes));
  EXPECT_DOUBLE_EQ(t2, 2 * link.TransferSeconds(bytes));
  // The reverse direction is a distinct link: no contention.
  EXPECT_DOUBLE_EQ(f.Transfer(1, 0, bytes, 0.0), link.TransferSeconds(bytes));
}

TEST(Fabric, PerLinkOverridesApply) {
  gpusim::Fabric f(3, gpusim::FabricTopology::kFullyConnected,
                   {"slow", 1.0, 100.0});
  const gpusim::LinkSpec fast{"fast", 10.0, 1.0};
  f.SetLink(0, 1, fast);
  const uint64_t bytes = 1 << 20;
  EXPECT_DOUBLE_EQ(f.Transfer(0, 1, bytes, 0.0),
                   fast.TransferSeconds(bytes));
  EXPECT_EQ(f.Link(0, 2).name, "slow");
}

TEST(Fabric, ResetClearsClocksAndCounters) {
  gpusim::Fabric f(2, gpusim::FabricTopology::kRing, {"l", 1.0, 1.0});
  f.Transfer(0, 1, 1024, 0.0);
  ASSERT_GT(f.payload_bytes(), 0u);
  f.Reset();
  EXPECT_EQ(f.payload_bytes(), 0u);
  EXPECT_EQ(f.wire_bytes(), 0u);
  EXPECT_EQ(f.transfer_count(), 0u);
  EXPECT_DOUBLE_EQ(f.busy_until(0, 1), 0.0);
}

TEST(Fabric, RingRejectsNonNeighbourLinkOverride) {
  gpusim::Fabric f(4, gpusim::FabricTopology::kRing, {"l", 1.0, 1.0});
  EXPECT_THROW(f.SetLink(0, 2, {"x", 1.0, 1.0}), Error);
}

// --------------------------------------------------------- strict parsing --

TEST(Parse, TopologyAcceptsKnownSpellings) {
  EXPECT_EQ(gpusim::ParseFabricTopology("ring"),
            gpusim::FabricTopology::kRing);
  EXPECT_EQ(gpusim::ParseFabricTopology("full"),
            gpusim::FabricTopology::kFullyConnected);
  EXPECT_EQ(gpusim::ParseFabricTopology("fully-connected"),
            gpusim::FabricTopology::kFullyConnected);
}

TEST(Parse, TopologyRejectsEchoingValueAndSpellings) {
  try {
    gpusim::ParseFabricTopology("mesh");
    FAIL() << "bad topology must be rejected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mesh"), std::string::npos);
    EXPECT_NE(msg.find("ring"), std::string::npos);
    EXPECT_NE(msg.find("full"), std::string::npos);
  }
}

TEST(Parse, LinkSpecPresetsAndCustomPairs) {
  EXPECT_DOUBLE_EQ(gpusim::ParseLinkSpec("eth10g").bandwidth_gbps, 1.25);
  EXPECT_DOUBLE_EQ(gpusim::ParseLinkSpec("eth100g").bandwidth_gbps, 12.5);
  const gpusim::LinkSpec custom = gpusim::ParseLinkSpec("2.5@40");
  EXPECT_DOUBLE_EQ(custom.bandwidth_gbps, 2.5);
  EXPECT_DOUBLE_EQ(custom.latency_us, 40.0);
}

TEST(Parse, LinkSpecRejectsGarbage) {
  for (const char* bad : {"", "ethernet", "2.5@40x", "2.5@", "@40", "-1@40",
                          "0@40", "2.5@-1", "2.5@40@7"}) {
    try {
      gpusim::ParseLinkSpec(bad);
      FAIL() << "'" << bad << "' must be rejected";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(bad), std::string::npos) << bad;
      EXPECT_NE(msg.find("eth10g"), std::string::npos) << bad;
      EXPECT_NE(msg.find("GBPS@LATENCY_US"), std::string::npos) << bad;
    }
  }
}

TEST(Parse, DistModeStrict) {
  EXPECT_EQ(ParseDistMode("sync"), DistMode::kSync);
  EXPECT_EQ(ParseDistMode("async"), DistMode::kAsync);
  try {
    ParseDistMode("asynchronous");
    FAIL() << "bad mode must be rejected";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("asynchronous"), std::string::npos);
    EXPECT_NE(msg.find("sync"), std::string::npos);
    EXPECT_NE(msg.find("async"), std::string::npos);
  }
}

// --------------------------------------------------------- ClusterTrainer --

TEST(Cluster, SyncModeMatchesSingleMachineBitForBit) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  // 2 nodes × 2 GPUs must produce the same assignments as one machine with
  // 4 GPUs: the document partition, topic init, and sampler keying are all
  // functions of the corpus-global token index, and sync mode exchanges the
  // full φ every sweep — only the clocks may differ.
  ClusterTrainer cluster(c, cfg, TestOptions(2, 2, DistMode::kSync));
  core::TrainerOptions single;
  single.gpus.assign(4, gpusim::V100Volta());
  single.chunks_per_gpu = 1;
  core::CuldaTrainer machine(c, cfg, single);
  for (int i = 0; i < 3; ++i) {
    cluster.Sweep();
    machine.Step();
    EXPECT_EQ(cluster.ExportAssignments(), machine.ExportAssignments())
        << "diverged at sweep " << i;
  }
  EXPECT_EQ(cluster.max_observed_staleness(), 0u);
  EXPECT_GT(cluster.history().back().network_payload_bytes, 0u);
}

TEST(Cluster, AsyncStalenessBoundIsEnforced) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  auto opts = TestOptions(4, 1, DistMode::kAsync);
  opts.staleness_bound = 1;
  ClusterTrainer t(c, cfg, opts);
  t.Train(3);
  EXPECT_LE(t.max_observed_staleness(), 1u);
}

TEST(Cluster, AsyncUnboundedStalenessReachesNaturalCap) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  ClusterTrainer t(c, cfg, TestOptions(4, 1, DistMode::kAsync));
  t.Train(2);  // ≥ N rounds: every shard ages through a full circulation
  EXPECT_EQ(t.max_observed_staleness(), 3u);
}

TEST(Cluster, AsyncTighterBoundCostsMoreNetwork) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  auto fresh = TestOptions(3, 1, DistMode::kAsync);
  fresh.staleness_bound = 0;  // refresh every shard every round
  ClusterTrainer eager(c, cfg, fresh);
  ClusterTrainer nomadic(c, cfg, TestOptions(3, 1, DistMode::kAsync));
  eager.Train(2);
  nomadic.Train(2);
  EXPECT_GT(eager.fabric().payload_bytes(),
            nomadic.fabric().payload_bytes());
  EXPECT_EQ(eager.max_observed_staleness(), 0u);
}

TEST(Cluster, AsyncScheduleIsWorkerCountInvariant) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  auto opts = TestOptions(3, 2, DistMode::kAsync);
  ClusterTrainer serial(c, cfg, opts);
  ThreadPool pool(3);
  opts.pool = &pool;
  ClusterTrainer parallel(c, cfg, opts);
  for (int i = 0; i < 2; ++i) {
    const SweepStats a = serial.Sweep();
    const SweepStats b = parallel.Sweep();
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "sweep " << i;
    EXPECT_EQ(a.network_payload_bytes, b.network_payload_bytes);
    EXPECT_EQ(a.network_wire_bytes, b.network_wire_bytes);
    EXPECT_EQ(a.max_staleness, b.max_staleness);
  }
  EXPECT_EQ(serial.ExportAssignments(), parallel.ExportAssignments());
  EXPECT_EQ(serial.Now(), parallel.Now());
}

TEST(Cluster, SyncScheduleIsWorkerCountInvariant) {
  // With a pool, every (node, GPU) cell adds into the one host accumulator
  // concurrently; the model, the stats and the clocks must not notice.
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  auto opts = TestOptions(2, 2, DistMode::kSync);
  ClusterTrainer serial(c, cfg, opts);
  ThreadPool pool(3);
  opts.pool = &pool;
  ClusterTrainer parallel(c, cfg, opts);
  for (int i = 0; i < 2; ++i) {
    const SweepStats a = serial.Sweep();
    const SweepStats b = parallel.Sweep();
    EXPECT_EQ(a.sweep, b.sweep) << "sweep " << i;
    EXPECT_EQ(a.sim_seconds, b.sim_seconds) << "sweep " << i;
    EXPECT_EQ(a.sampling_s, b.sampling_s) << "sweep " << i;
    EXPECT_EQ(a.sync_s, b.sync_s) << "sweep " << i;
    EXPECT_EQ(a.network_payload_bytes, b.network_payload_bytes);
    EXPECT_EQ(a.network_wire_bytes, b.network_wire_bytes);
    EXPECT_EQ(a.max_staleness, b.max_staleness);
    EXPECT_EQ(a.theta_nnz, b.theta_nnz);
  }
  EXPECT_EQ(serial.ExportAssignments(), parallel.ExportAssignments());
  EXPECT_EQ(serial.Now(), parallel.Now());
  const core::GatheredModel ms = serial.Gather();
  const core::GatheredModel mp = parallel.Gather();
  EXPECT_TRUE(std::ranges::equal(ms.phi.flat(), mp.phi.flat()));
  EXPECT_EQ(ms.nk, mp.nk);
  EXPECT_TRUE(std::ranges::equal(ms.theta.row_ptr(), mp.theta.row_ptr()));
  EXPECT_TRUE(std::ranges::equal(ms.theta.col_idx(), mp.theta.col_idx()));
  EXPECT_TRUE(std::ranges::equal(ms.theta.values(), mp.theta.values()));
}

TEST(Cluster, AsyncLikelihoodImproves) {
  const auto c = TestCorpus(400, 400);
  const auto cfg = TestConfig();
  ClusterTrainer t(c, cfg, TestOptions(3, 1, DistMode::kAsync));
  const double before = t.LogLikelihoodPerToken();
  t.Train(8);
  EXPECT_GT(t.LogLikelihoodPerToken(), before + 0.1);
}

TEST(Cluster, AsyncSweepResamplesEveryTokenOnce) {
  // One sweep must change the model consistently: gather after a sweep and
  // validate the full count invariants (Σφ = tokens etc. — a token sampled
  // twice or missed would break them).
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  ClusterTrainer t(c, cfg, TestOptions(3, 2, DistMode::kAsync));
  t.Sweep();
  t.Gather().Validate(c);
}

TEST(Cluster, SyncGatherValidates) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  ClusterTrainer t(c, cfg, TestOptions(2, 2, DistMode::kSync));
  t.Sweep();
  t.Gather().Validate(c);
}

TEST(Cluster, AsyncRingHandoffsAdvanceTheClock) {
  const auto c = TestCorpus();
  const auto cfg = TestConfig();
  ClusterTrainer t(c, cfg, TestOptions(3, 1, DistMode::kAsync));
  const SweepStats s = t.Train(1).back();
  EXPECT_GT(s.sim_seconds, 0.0);
  EXPECT_GT(s.network_payload_bytes, 0u);
  // The first round of the first sweep has no handoffs (shards start
  // resident); the remaining N−1 rounds each hand every node's shard to its
  // successor: (N−1)·N = 6 transfers.
  EXPECT_EQ(t.fabric().transfer_count(), 6u);
}

}  // namespace
}  // namespace culda::dist
