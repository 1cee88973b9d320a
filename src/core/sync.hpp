// Model synchronization across GPUs (Section 5.2, Figure 4).
//
// After each iteration every GPU holds a φ replica counting only its own
// chunks' tokens; the global φ is their element-wise sum. CuLDA performs the
// sum GPU-side as a log(G) pairwise reduce tree followed by a broadcast —
// "the CPU is slower than GPUs in terms of matrix adding". The CPU-side
// alternative the paper rejects is kept as an ablation mode (DESIGN A5).
//
// Once synced, every replica holds the same bits, so the simulator keeps one
// host φ per consistency domain and the functions here only bill the sync
// (docs/simulator.md, "One host φ per trainer").
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

/// Bills synchronizing one φ replica of `replica`'s shape per device of
/// `group`: the peer transfers and phi_reduce_add launches of the tree, or
/// the kCpuSum host-link clock. No φ is touched. Trainers keep one host φ
/// that every device's update_phi adds into, so it already holds the global
/// sum (the reduce tree's result, since integer addition is exact); n_k is
/// not recomputed here — the trainer runs the compute_nk pass after, which
/// it overlaps with the θ update.
SyncStats BillSynchronizePhi(gpusim::DeviceGroup& group,
                             const CuldaConfig& cfg,
                             const PhiReplica& replica,
                             SyncMode mode = SyncMode::kGpuTree);

/// Extension (the paper's "comparable or better than distributed systems"
/// thesis, made quantitative): bills hierarchical φ synchronization across
/// `node_groups.size()` machines, each holding a DeviceGroup of GPUs. Per
/// iteration:
///   1. intra-node reduce tree over the local PCIe/NVLink (as above),
///   2. inter-node ring all-reduce of the node sums through `fabric`:
///      2·(N−1) steps, each node forwarding a ⌈model/N⌉ segment to its
///      successor, billed segment by segment, so per-link LinkSpec
///      overrides, ring store-and-forward routing, and link contention all
///      land in the returned time,
///   3. intra-node broadcast.
/// Like BillSynchronizePhi it touches no φ: `replica` gives the model's
/// shape, and the caller's one host φ already holds the global sum. Every
/// group is assumed identical (the paper's homogeneous platforms). Node
/// clocks are read and advanced in cluster-absolute time (callers keep all
/// groups on one shared timeline). `fabric.size()` must equal
/// `node_groups.size()`. The returned time is what makes multi-node LDA
/// unattractive versus one multi-GPU box at 10 Gb/s Ethernet.
struct MultiNodeSyncStats {
  double seconds = 0;
  double intra_node_s = 0;
  double inter_node_s = 0;
  uint64_t network_bytes = 0;
};

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    const PhiReplica& replica, gpusim::Fabric& fabric);

}  // namespace culda::core
