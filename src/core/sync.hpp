// Model synchronization across GPUs (Section 5.2, Figure 4).
//
// After each iteration every GPU holds a φ replica counting only its own
// chunks' tokens; the global φ is their element-wise sum. CuLDA performs the
// sum GPU-side as a log(G) pairwise reduce tree followed by a broadcast —
// "the CPU is slower than GPUs in terms of matrix adding". The CPU-side
// alternative the paper rejects is kept as an ablation mode (DESIGN A5).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/model.hpp"
#include "gpusim/fabric.hpp"
#include "gpusim/multi_gpu.hpp"

namespace culda::core {

enum class SyncMode {
  kGpuTree,  ///< the paper's reduce+broadcast tree (Figure 4)
  kCpuSum,   ///< ship all replicas to the CPU, add there, ship back
};

struct SyncStats {
  double seconds = 0;        ///< group-time cost of this synchronization
  uint64_t peer_bytes = 0;   ///< bytes moved GPU↔GPU
  uint64_t host_bytes = 0;   ///< bytes moved over the host link (kCpuSum)
  int reduce_rounds = 0;
};

/// Synchronizes the φ replicas: on return, every replica holds the global
/// element-wise sum (n_k is NOT recomputed here — run the compute_nk kernel
/// after, which the trainer overlaps with the θ update).
/// `replicas.size()` must equal `group.size()`. The host sums the replicas
/// in index order (integer addition makes that the reduce tree's result; a
/// count past 16 bits throws), then BillSynchronizePhi bills the sync.
SyncStats SynchronizePhi(gpusim::DeviceGroup& group, const CuldaConfig& cfg,
                         std::vector<PhiReplica>& replicas,
                         SyncMode mode = SyncMode::kGpuTree);

/// The billing half of SynchronizePhi: bills synchronizing one φ replica of
/// `replica`'s shape per device of `group` — the peer transfers and
/// phi_reduce_add launches of the tree, or the kCpuSum host-link clock —
/// without touching any φ. For a caller whose one host φ already holds the
/// global sum on behalf of every device.
SyncStats BillSynchronizePhi(gpusim::DeviceGroup& group,
                             const CuldaConfig& cfg,
                             const PhiReplica& replica,
                             SyncMode mode = SyncMode::kGpuTree);

/// Extension (the paper's "comparable or better than distributed systems"
/// thesis, made quantitative): hierarchical φ synchronization across
/// `num_nodes` machines, each holding `group.size()` GPUs. Per iteration:
///   1. intra-node reduce tree over the local PCIe/NVLink (as above),
///   2. inter-node all-reduce of the node sums over `network`
///      (ring-style: 2·(N−1)/N of the model in and out of every node),
///   3. intra-node broadcast.
/// `node_replicas[n]` holds node n's GPU replicas; every group is assumed
/// identical (the paper's homogeneous platforms). Returns the sync time —
/// this is the quantity that makes multi-node LDA unattractive versus one
/// multi-GPU box at 10 Gb/s Ethernet.
struct MultiNodeSyncStats {
  double seconds = 0;
  double intra_node_s = 0;
  double inter_node_s = 0;
  uint64_t network_bytes = 0;
};

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    std::vector<std::vector<PhiReplica>*> node_replicas,
    const gpusim::LinkSpec& network);

/// Fabric-routed variant: the inter-node exchange runs as an explicit ring
/// all-reduce — 2·(N−1) steps, each node forwarding a 1/N model segment to
/// its successor — billed segment by segment through `fabric`, so per-link
/// LinkSpec overrides, ring store-and-forward routing, and link contention
/// all land in the returned time. Node clocks are read and advanced in
/// cluster-absolute time (callers keep all groups on one shared timeline).
/// `fabric.size()` must equal `node_groups.size()`.
MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    std::vector<std::vector<PhiReplica>*> node_replicas,
    gpusim::Fabric& fabric);

}  // namespace culda::core
