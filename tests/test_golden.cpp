// Golden bit-and-billing gate (ctest label `golden`).
//
// Pins FNV-1a hashes of everything a short training run produces: the
// topic assignments, the gathered θ and φ/n_k, and every device's billed
// kernel profile (launches, counters, simulated seconds) plus the per-
// iteration simulated times and the Table 1 step counters. The simulator may
// compute a kernel's result on the host by any exact route (docs/
// simulator.md, "Functional vs billed work"); these hashes are what holds
// such a rewrite to byte-identical outputs AND byte-identical billing. The
// determinism tests only compare runs of one build with each other, so they
// cannot tell a bit-identical rewrite from one that is consistently wrong.
//
// A deliberate change to the sampler, the RNG contract, or the cost model
// changes these values; re-pin them in the same change and say why in
// CHANGES.md. The failure message prints the observed hashes.
//
// The SharedPhi cases check the exact route CuldaTrainer takes for φ: one
// host accumulator that every device's update_phi adds into concurrently,
// and one pooled n_k pass. The label also puts them, and the pooled golden
// run, under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <latch>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/trainer.hpp"
#include "core/word_partition.hpp"
#include "corpus/chunking.hpp"
#include "dist/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Span(std::span<const T> s) {
    Bytes(s.data(), s.size_bytes());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Digest {
  uint64_t assignments = 0;
  uint64_t phi = 0;  ///< gathered φ (topic-major) and n_k
  uint64_t theta = 0;
  uint64_t billing = 0;  ///< kernel profiles, transfers, simulated seconds
};

std::string Hex(const Digest& d) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}",
                static_cast<unsigned long long>(d.assignments),
                static_cast<unsigned long long>(d.phi),
                static_cast<unsigned long long>(d.theta),
                static_cast<unsigned long long>(d.billing));
  return buf;
}

void HashCounters(Fnv1a& h, const gpusim::KernelCounters& c) {
  for (const uint64_t v :
       {c.global_read_bytes, c.l1_read_bytes, c.global_write_bytes,
        c.shared_read_bytes, c.shared_write_bytes, c.flops, c.int_ops,
        c.atomic_ops, c.blocks, c.warps}) {
    h.U64(v);
  }
}

void HashDevice(Fnv1a& h, const gpusim::Device& dev) {
  for (const auto& [name, prof] : dev.profile()) {
    h.Bytes(name.data(), name.size());
    h.U64(prof.launches);
    h.F64(prof.total_s);
    HashCounters(h, prof.counters);
  }
  h.U64(dev.transfer_bytes());
  h.F64(dev.transfer_seconds());
  h.F64(dev.Now());
}

void HashGroup(Fnv1a& h, const gpusim::DeviceGroup& group) {
  for (size_t g = 0; g < group.size(); ++g) HashDevice(h, group.device(g));
  h.U64(group.peer_bytes());
}

void HashModel(Digest& d, const GatheredModel& m) {
  Fnv1a phi;
  phi.Span(m.phi.flat());
  phi.Span(std::span<const int32_t>(m.nk));
  d.phi = phi.value();
  Fnv1a theta;
  theta.Span(m.theta.row_ptr());
  theta.Span(m.theta.col_idx());
  theta.Span(m.theta.values());
  d.theta = theta.value();
}

uint64_t HashAssignments(const std::vector<uint16_t>& z) {
  Fnv1a h;
  h.Span(std::span<const uint16_t>(z));
  return h.value();
}

/// 300 documents over 400 words, drawn with integer Philox arithmetic only
/// (no libm), so the corpus — and with it every pinned hash — is the same
/// on every platform. Each document leans on one of eight word ranges,
/// which gives θ and φ some sparsity structure; the rest of its words are
/// skewed toward low ids.
corpus::Corpus GoldenCorpus() {
  constexpr uint32_t kDocs = 300, kVocab = 400, kThemes = 8;
  PhiloxStream rng(2019, 0);
  std::vector<uint64_t> offsets{0};
  std::vector<uint32_t> words;
  for (uint32_t d = 0; d < kDocs; ++d) {
    const uint32_t theme = rng.NextBelow(kThemes);
    const uint32_t len = 10 + rng.NextBelow(110);
    for (uint32_t i = 0; i < len; ++i) {
      words.push_back(rng.NextBelow(4) != 0
                          ? theme * (kVocab / kThemes) +
                                rng.NextBelow(kVocab / kThemes)
                          : rng.NextBelow(1 + rng.NextBelow(kVocab)));
    }
    offsets.push_back(words.size());
  }
  return corpus::Corpus(kVocab, std::move(offsets), std::move(words));
}

CuldaConfig GoldenConfig() {
  CuldaConfig cfg;
  cfg.num_topics = 64;
  cfg.seed = 7;
  return cfg;
}

constexpr uint32_t kIterations = 3;

/// One CuldaTrainer golden run: its device count, schedule, sampler, sync
/// route and host pool, and whether its counts are rebuilt once more.
struct CuldaRun {
  uint32_t gpus = 1;
  uint32_t chunks_per_gpu = 1;
  TrainSampler sampler = TrainSampler::kTree;
  SyncMode sync_mode = SyncMode::kGpuTree;
  /// Workers of a ThreadPool the trainer runs its devices on; 0 = none.
  size_t pool_workers = 0;
  /// Rebuild the counts once more after construction, from assignments
  /// drawn on a seed of their own (ImportAssignments).
  bool import_assignments = false;
};

/// Per-token topics drawn from Philox with a seed unrelated to the config's,
/// in corpus document-major order.
std::vector<uint16_t> ImportedAssignments(uint64_t tokens, uint32_t K) {
  std::vector<uint16_t> z(tokens);
  PhiloxStream rng(4242, 0);
  for (uint16_t& topic : z) topic = static_cast<uint16_t>(rng.NextBelow(K));
  return z;
}

Digest RunCulda(const CuldaConfig& cfg, const CuldaRun& run) {
  const auto corpus = GoldenCorpus();
  std::unique_ptr<ThreadPool> pool;
  if (run.pool_workers > 0) {
    pool = std::make_unique<ThreadPool>(run.pool_workers);
  }
  TrainerOptions opts;
  opts.gpus.assign(run.gpus, gpusim::V100Volta());
  opts.chunks_per_gpu = run.chunks_per_gpu;
  opts.sampler = run.sampler;
  opts.sync_mode = run.sync_mode;
  opts.pool = pool.get();
  opts.mh_cycles = 2;
  opts.collect_step_counters = true;
  CuldaTrainer trainer(corpus, cfg, opts);
  if (run.import_assignments) {
    trainer.ImportAssignments(
        ImportedAssignments(corpus.num_tokens(), cfg.num_topics));
  }
  trainer.Train(kIterations);

  Digest d;
  d.assignments = HashAssignments(trainer.ExportAssignments());
  HashModel(d, trainer.Gather());
  Fnv1a billing;
  HashGroup(billing, trainer.group());
  for (const IterationStats& s : trainer.history()) {
    billing.F64(s.sim_seconds);
    billing.U64(s.theta_nnz);
  }
  const SamplingStepCounters& steps = trainer.step_counters();
  for (const gpusim::KernelCounters* c :
       {&steps.compute_s, &steps.compute_q, &steps.sample_p1,
        &steps.sample_p2}) {
    HashCounters(billing, *c);
  }
  for (const uint64_t v : {steps.tokens, steps.p1_branches,
                           steps.p1_tree_spills, steps.mh_proposals,
                           steps.mh_accepts}) {
    billing.U64(v);
  }
  d.billing = billing.value();
  return d;
}

Digest RunWordPartition() {
  const auto corpus = GoldenCorpus();
  WordPartitionTrainer trainer(
      corpus, GoldenConfig(),
      std::vector<gpusim::DeviceSpec>(2, gpusim::V100Volta()));
  Fnv1a billing;
  for (const IterationStats& s : trainer.Train(kIterations)) {
    billing.F64(s.sim_seconds);
  }
  Digest d;
  const GatheredModel m = trainer.Gather();
  HashModel(d, m);
  // The θ-partitioned trainer has no ExportAssignments; its θ hash covers z.
  d.assignments = d.theta;
  HashGroup(billing, trainer.group());
  d.billing = billing.value();
  return d;
}

Digest RunCluster(dist::DistMode mode) {
  const auto corpus = GoldenCorpus();
  dist::ClusterOptions opts;
  opts.num_nodes = 2;
  opts.gpus.assign(2, gpusim::V100Volta());
  opts.mode = mode;
  opts.staleness_bound = 1;
  dist::ClusterTrainer trainer(corpus, GoldenConfig(), opts);
  Fnv1a billing;
  for (const dist::SweepStats& s : trainer.Train(kIterations)) {
    billing.F64(s.sim_seconds);
    billing.F64(s.sampling_s);
    billing.F64(s.sync_s);
    billing.U64(s.network_payload_bytes);
  }
  billing.F64(trainer.Now());
  Digest d;
  d.assignments = HashAssignments(trainer.ExportAssignments());
  HashModel(d, trainer.Gather());
  d.billing = billing.value();
  return d;
}

struct GoldenCase {
  const char* name;
  Digest expected;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

Digest RunCase(const std::string& name) {
  CuldaConfig cfg = GoldenConfig();
  if (name == "TreeWs1") return RunCulda(cfg, {.gpus = 2});
  if (name == "AliasMhWs2") {
    return RunCulda(cfg, {.gpus = 2,
                          .chunks_per_gpu = 3,
                          .sampler = TrainSampler::kAliasMH});
  }
  // Devices running concurrently on a pool; an odd device count (the
  // reduce tree's unpaired replica); the CPU-side sum (ablation A5); and a
  // count rebuild after construction.
  if (name == "TreeWs1Pool") {
    return RunCulda(cfg, {.gpus = 2, .pool_workers = 3});
  }
  if (name == "TreeWs1Gpus3") return RunCulda(cfg, {.gpus = 3});
  if (name == "CpuSumWs1") {
    return RunCulda(cfg, {.gpus = 2, .sync_mode = SyncMode::kCpuSum});
  }
  if (name == "ImportAssignments") {
    return RunCulda(cfg, {.gpus = 2, .import_assignments = true});
  }
  // The kernel-config toggles run on one GPU (one chunk) in WS1.
  if (name == "Fanout2") cfg.tree_fanout = 2;
  if (name == "Fanout8") cfg.tree_fanout = 8;
  if (name == "Fanout32") cfg.tree_fanout = 32;
  if (name == "NoSharedTrees") cfg.use_shared_trees = false;
  if (name == "NoShareP2Tree") cfg.share_p2_tree = false;
  if (name == "NoReusePstar") cfg.reuse_pstar = false;
  if (name == "WordPartition") return RunWordPartition();
  if (name == "ClusterSync") return RunCluster(dist::DistMode::kSync);
  if (name == "ClusterAsync") return RunCluster(dist::DistMode::kAsync);
  return RunCulda(cfg, {});
}

class Golden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(Golden, OutputsAndBillingMatchPinnedHashes) {
  const GoldenCase& c = GetParam();
  const Digest got = RunCase(c.name);
  EXPECT_EQ(got.assignments, c.expected.assignments) << Hex(got);
  EXPECT_EQ(got.phi, c.expected.phi) << Hex(got);
  EXPECT_EQ(got.theta, c.expected.theta) << Hex(got);
  EXPECT_EQ(got.billing, c.expected.billing) << Hex(got);
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, Golden,
    ::testing::Values(
        GoldenCase{"TreeWs1",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xccb0d24ff378e8ebull}},
        GoldenCase{"AliasMhWs2",
                   {0xcf71c1df812655a1ull, 0x236d1eaad435d598ull,
                    0x6dcd2e9fe82f1de1ull, 0xbc599935afa69dabull}},
        GoldenCase{"TreeWs1Pool",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xccb0d24ff378e8ebull}},
        GoldenCase{"TreeWs1Gpus3",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0x2eab6aac73709af0ull}},
        GoldenCase{"CpuSumWs1",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xf13e61ae030f513aull}},
        GoldenCase{"ImportAssignments",
                   {0x7af5c02e46f8083eull, 0x1c499ff7466a35c3ull,
                    0xbb1ca202e246eaefull, 0x7560af776f8947ffull}},
        GoldenCase{"Fanout2",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xc87bb96cbf9820fcull}},
        GoldenCase{"Fanout8",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xcfe9ae6e89ccd899ull}},
        GoldenCase{"Fanout32",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0x1c0e3fde6f1d3b01ull}},
        GoldenCase{"NoSharedTrees",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0x9d5b355b2f3dd837ull}},
        GoldenCase{"NoShareP2Tree",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0x1ad890956442e1ceull}},
        GoldenCase{"NoReusePstar",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xa99f21c4e409997aull}},
        GoldenCase{"WordPartition",
                   {0x77b9bbbfe98a3617ull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0xab3e1da03bca2f26ull}},
        GoldenCase{"ClusterSync",
                   {0x9ab1b9cae2fe7aaeull, 0x9211f43799c917b7ull,
                    0x77b9bbbfe98a3617ull, 0x31633110bc91a9d2ull}},
        GoldenCase{"ClusterAsync",
                   {0x860738cc8349a378ull, 0x36d2673e76357b1bull,
                    0x97b7be2268862722ull, 0xb0782ecfcf9a5a48ull}}),
    [](const auto& info) { return std::string(info.param.name); });

/// The file bytes SaveModel and SaveCheckpoint write after the TreeWs1 run,
/// each produced with telemetry off and then with metrics and tracing on:
/// the container writer and its spans, timers and counters must leave the
/// bytes alone.
struct FileBytes {
  std::string model;
  std::string checkpoint;
};

FileBytes SaveTreeWs1(bool telemetry) {
  obs::Metrics().set_enabled(telemetry);
  obs::SpanTracer::Global().set_enabled(telemetry);
  const auto corpus = GoldenCorpus();
  TrainerOptions opts;
  opts.gpus.assign(2, gpusim::V100Volta());
  CuldaTrainer trainer(corpus, GoldenConfig(), opts);
  trainer.Train(kIterations);
  std::ostringstream model(std::ios::binary), ckpt(std::ios::binary);
  SaveModel(trainer.Gather(), model);
  trainer.SaveCheckpoint(ckpt);
  obs::Metrics().set_enabled(false);
  obs::Metrics().ResetValues();
  obs::SpanTracer::Global().set_enabled(false);
  obs::SpanTracer::Global().Reset();
  return {model.str(), ckpt.str()};
}

uint64_t HashBytes(const std::string& bytes) {
  Fnv1a h;
  h.Bytes(bytes.data(), bytes.size());
  return h.value();
}

TEST(GoldenFiles, ModelAndCheckpointBytesMatchPinnedHashes) {
  for (const bool telemetry : {false, true}) {
    const FileBytes files = SaveTreeWs1(telemetry);
    EXPECT_EQ(HashBytes(files.model), 0x5f715a8e6a6f5bccull)
        << "telemetry " << telemetry << ", " << files.model.size()
        << " bytes, hash 0x" << std::hex << HashBytes(files.model);
    EXPECT_EQ(HashBytes(files.checkpoint), 0x7680271cf0c9514cull)
        << "telemetry " << telemetry << ", " << files.checkpoint.size()
        << " bytes, hash 0x" << std::hex << HashBytes(files.checkpoint);
  }
}

/// One chunk per device over the golden corpus, with topics drawn from
/// Philox keyed by the corpus-global token.
std::vector<ChunkState> GoldenChunks(const corpus::Corpus& corpus,
                                     const CuldaConfig& cfg,
                                     uint32_t devices) {
  std::vector<ChunkState> chunks;
  for (const auto& spec : corpus::PartitionByTokens(corpus, devices)) {
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

TEST(SharedPhi, ConcurrentUpdatesIntoOneReplicaEqualReducedReplicas) {
  constexpr uint32_t kDevices = 3;
  const auto corpus = GoldenCorpus();
  const CuldaConfig cfg = GoldenConfig();
  const auto chunks = GoldenChunks(corpus, cfg, kDevices);
  const std::vector<gpusim::DeviceSpec> specs(kDevices, gpusim::V100Volta());

  // Per-device replicas, each built alone, and their element-wise sum —
  // what a reduce tree over them would leave on every device.
  gpusim::DeviceGroup serial(specs);
  std::vector<uint32_t> reduced(
      static_cast<size_t>(cfg.num_topics) * corpus.vocab_size(), 0);
  for (uint32_t g = 0; g < kDevices; ++g) {
    PhiReplica replica(cfg.num_topics, corpus.vocab_size());
    RunUpdatePhiKernel(serial.device(g), cfg, chunks[g], replica);
    const auto cells = replica.phi.flat();
    for (size_t i = 0; i < cells.size(); ++i) reduced[i] += cells[i];
  }

  // Every device's launch adding into one replica at the same time, each
  // launch also spreading its blocks over the same pool. The latch holds
  // each device until all have started, so no thread runs two of them; the
  // pinned workers keep the scheduler from stacking them on one CPU. Both
  // are needed for the launches to overlap, and so for TSan to see a race
  // (a plain add in place of update_phi's atomic one is reported).
  ThreadPool pool(kDevices, {.pin = true});
  gpusim::DeviceGroup pooled(specs, gpusim::Pcie3x16(), &pool);
  PhiReplica shared(cfg.num_topics, corpus.vocab_size());
  std::latch all_started(kDevices);
  pool.ParallelFor(kDevices, [&](size_t g) {
    all_started.arrive_and_wait();
    RunUpdatePhiKernel(pooled.device(g), cfg, chunks[g], shared);
  });

  ASSERT_TRUE(std::ranges::equal(shared.phi.flat(), reduced));
}

TEST(SharedPhi, PooledTotalsEqualSerialTotals) {
  ThreadPool pool(3);
  // Topic counts off the 32-lane inner loop and vocabularies off the word
  // tile, so every remainder path runs.
  for (const auto& [k, v] : std::vector<std::pair<uint32_t, uint32_t>>{
           {37, 1000}, {64, 257}, {5, 3}, {1, 1}, {33, 700}}) {
    PhiReplica serial(k, v);
    PhiloxStream rng(k, v);
    std::vector<uint64_t> expected(k, 0);
    for (uint32_t w = 0; w < v; ++w) {
      for (uint32_t t = 0; t < k; ++t) {
        serial.phi(t, w) = static_cast<uint16_t>(rng.NextBelow(0x10000));
        expected[t] += serial.phi(t, w);
      }
    }
    PhiReplica pooled = serial;
    serial.RecomputeTotals();
    pooled.RecomputeTotals(&pool);
    EXPECT_EQ(pooled.nk, serial.nk) << "K=" << k << " V=" << v;
    for (uint32_t t = 0; t < k; ++t) {
      EXPECT_EQ(serial.nk[t], static_cast<int32_t>(expected[t]))
          << "K=" << k << " V=" << v << " topic " << t;
    }
  }
}

}  // namespace
}  // namespace culda::core
