// ClusterTrainer — simulated multi-node LDA training over a network fabric.
//
// Extension beyond the paper (which stops at one multi-GPU box and argues
// distributed clusters lose to it on network cost): N simulated nodes, each
// a gpusim::DeviceGroup of G GPUs, connected by a gpusim::Fabric with
// per-link bandwidth/latency. Two inter-node strategies:
//
//   kSync  — every sweep is one CuLDA iteration: all nodes sample their
//            document chunks against the full φ, then the node sums are
//            all-reduced over the fabric (SynchronizePhiAcrossNodes) behind
//            a global barrier. Bit-identical assignments to a single
//            machine with N·G GPUs — only the clock differs.
//   kAsync — nomadic φ-shard circulation. The vocabulary is split into N
//            contiguous word shards (PartitionWordsByTokens); in round r
//            shard s is resident at node (s + r) mod N, and each node
//            samples only the tokens of its resident shard's words, applying
//            the count deltas to the shard it holds — locally, no network.
//            At the end of each round every node hands its shard to its ring
//            successor: per-round network traffic is model/N per node on
//            disjoint links, versus the synchronous all-reduce's
//            2·(N−1)/N·model through every NIC at a barrier. Non-resident
//            shards are sampled against stale copies whose age (in rounds)
//            is capped by `staleness_bound`; shards older than the bound are
//            re-fetched from their current holder (billed over the fabric).
//            N rounds = one sweep = every token resampled exactly once.
//
// Determinism contract: for a fixed (corpus, config, ClusterOptions modulo
// pool), assignments, simulated clocks, and fabric byte counters are
// bit-identical at any host worker count. Rounds run in three phases — a
// sequential shard-routing phase (all fabric transfers, issued in node
// order), a parallel sampling phase over the (node, gpu) grid (disjoint
// state; the sampler's Philox stream is keyed by (seed, sweep, global token)
// so values never depend on scheduling), and a sequential delta-application
// phase (fixed node/gpu/token order).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/model.hpp"
#include "core/training_state.hpp"
#include "corpus/corpus.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/multi_gpu.hpp"
#include "util/thread_pool.hpp"

namespace culda::dist {

enum class DistMode {
  kSync,   ///< per-sweep inter-node all-reduce (bulk-synchronous)
  kAsync,  ///< nomadic shard circulation with bounded staleness
};

const char* DistModeName(DistMode mode);

/// Parses "sync" or "async". Throws culda::Error echoing the bad value and
/// every accepted spelling.
DistMode ParseDistMode(std::string_view name);

/// staleness_bound value meaning "never force a refresh" (the natural cap is
/// N−1 rounds: a shard is refreshed whenever it becomes resident).
inline constexpr uint32_t kUnboundedStaleness = UINT32_MAX;

struct ClusterOptions {
  uint32_t num_nodes = 2;
  /// GPUs per node (every node is identical — the paper's homogeneous
  /// platforms).
  std::vector<gpusim::DeviceSpec> gpus = {gpusim::V100Volta()};
  gpusim::LinkSpec peer_link = gpusim::Pcie3x16();    ///< intra-node
  gpusim::LinkSpec network = gpusim::Ethernet10G();   ///< inter-node default
  gpusim::FabricTopology topology = gpusim::FabricTopology::kRing;
  DistMode mode = DistMode::kAsync;
  /// kAsync only: max age (rounds) of a shard copy a node may sample
  /// against. 0 = refresh everything every round (maximum traffic);
  /// kUnboundedStaleness = pure nomadic (age naturally capped at N−1).
  uint32_t staleness_bound = kUnboundedStaleness;
  core::TrainSampler sampler = core::TrainSampler::kTree;
  uint32_t mh_cycles = 1;
  /// Optional host worker pool (wall-clock only; results are bit-identical
  /// with or without it — see the determinism contract above).
  ThreadPool* pool = nullptr;
};

/// Timing/traffic record of one sweep (= one full pass over the corpus;
/// one iteration in kSync, N rounds in kAsync). Simulated seconds.
struct SweepStats {
  uint32_t sweep = 0;
  double sim_seconds = 0;        ///< cluster-clock advance of this sweep
  double sampling_s = 0;         ///< per-device sampling time, summed
  double sync_s = 0;             ///< kSync: all-reduce time of this sweep
  uint64_t network_payload_bytes = 0;  ///< fabric payload this sweep
  uint64_t network_wire_bytes = 0;     ///< payload × hops (store-and-forward)
  /// kAsync: max shard age (rounds) any node sampled against this sweep;
  /// always ≤ min(staleness_bound, N−1). 0 in kSync.
  uint32_t max_staleness = 0;
  uint64_t theta_nnz = 0;
};

class ClusterTrainer {
 public:
  /// `corpus` must outlive the trainer. Documents are split into N·G
  /// token-balanced chunks (chunk n·G+g on node n, GPU g — the same
  /// partition a single N·G-GPU CuldaTrainer uses); kAsync additionally
  /// splits the vocabulary into N word shards. Topic init is keyed by the
  /// corpus-global token index, identical to CuldaTrainer. All node clocks
  /// and the fabric are reset to zero after initialization.
  ClusterTrainer(const corpus::Corpus& corpus, core::CuldaConfig cfg,
                 ClusterOptions opts);

  uint32_t num_nodes() const { return opts_.num_nodes; }
  uint32_t gpus_per_node() const {
    return static_cast<uint32_t>(opts_.gpus.size());
  }
  const core::CuldaConfig& config() const { return cfg_; }
  const ClusterOptions& options() const { return opts_; }
  const gpusim::Fabric& fabric() const { return fabric_; }

  /// Runs one sweep; returns its stats (also kept in history()).
  SweepStats Sweep();
  std::vector<SweepStats> Train(uint32_t sweeps);
  const std::vector<SweepStats>& history() const { return history_; }
  uint32_t sweep() const { return sweep_; }

  /// Latest completion time across every node's devices (cluster-absolute
  /// simulated seconds since construction).
  double Now() const;

  /// Max shard age (rounds) sampled against over the whole run; the
  /// staleness-bound invariant is max_observed_staleness() ≤
  /// min(staleness_bound, N−1). Always 0 in kSync.
  uint32_t max_observed_staleness() const { return max_observed_staleness_; }

  /// Collects the trained model (θ over all documents + global φ).
  core::GatheredModel Gather() const { return state_.Gather(); }
  double LogLikelihoodPerToken() const;

  /// Topic assignments in corpus document-major order (comparable across
  /// modes, node counts, and worker counts).
  std::vector<uint16_t> ExportAssignments() const {
    return state_.ExportAssignments();
  }

 private:
  void BuildChunks();
  void InitializeModel();
  /// Device of cell c = n·G + g of the node×GPU grid: node n, GPU g. The
  /// grid runs through core::ForEachCell (each cell owns disjoint
  /// chunk/device state; callers reduce per-cell partials in fixed order).
  gpusim::Device& CellDevice(size_t c) {
    return nodes_[c / opts_.gpus.size()]->device(c % opts_.gpus.size());
  }
  void SweepSync(SweepStats& stats);
  /// kSync: bills the φ all-reduce on every node, computes n_k of the read
  /// model once and bills compute_nk on every device, then barriers every
  /// node. Returns the sync's seconds.
  double SyncAndComputeNk();
  void SweepAsync(SweepStats& stats);
  /// One async round: route shards (sequential), sample resident slices
  /// (parallel), fold deltas into the canonical model (sequential).
  void AsyncRound(uint32_t round, SweepStats& stats);
  uint64_t ShardBytes(size_t shard) const;
  size_t ChunkIndex(size_t node, size_t gpu) const {
    return node * opts_.gpus.size() + gpu;
  }

  const corpus::Corpus* corpus_;
  core::CuldaConfig cfg_;
  ClusterOptions opts_;
  std::vector<std::unique_ptr<gpusim::DeviceGroup>> nodes_;
  gpusim::Fabric fabric_;
  /// N·G chunks, node-major. kSync double-buffers φ as CuldaTrainer does,
  /// one host copy standing for all N·G replicas (kernels, intra-node trees
  /// and the fabric ring are still billed per device and per node). kAsync
  /// keeps only the read model, as the canonical model: consistent with z
  /// at all times (phase C folds in every round's deltas), the host's
  /// stand-in for the union of the shards' current holders.
  core::TrainingState state_;

  // kAsync state.
  std::vector<corpus::WordRange> shards_;  ///< N contiguous word ranges
  /// Per-node sampling view: φ whose shard-s columns reflect the canonical
  /// model as of round last_refresh_[n][s]. These are real staleness copies
  /// (each node samples against its own mix of shard ages), so async mode
  /// keeps N of them; the G GPUs of a node share their node's view.
  std::vector<core::PhiReplica> views_;
  std::vector<std::vector<uint32_t>> last_refresh_;  ///< [node][shard] round
  /// Per-chunk filtered work lists, [shard][chunk] (descending-size order
  /// preserved from the full list); built once at construction.
  std::vector<std::vector<std::vector<corpus::BlockWork>>> shard_work_;
  /// Cluster-absolute completion time of each node's previous round (the
  /// departure time of the shard it hands to its successor).
  std::vector<double> node_round_end_;
  uint32_t round_ = 0;  ///< kAsync rounds completed (sweep_ · N + r)

  std::vector<SweepStats> history_;
  uint32_t sweep_ = 0;
  uint32_t max_observed_staleness_ = 0;
};

}  // namespace culda::dist
