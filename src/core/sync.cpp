#include "core/sync.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace culda::core {

namespace {

/// φ += other, element-wise, with overflow detection for the 16-bit counts
/// (Section 6.1.3 argues 16 bits suffice; the check makes the claim
/// falsifiable instead of silently wrapping).
void AddReplica(WordMajorPhi& into, const WordMajorPhi& from) {
  auto dst = into.flat();
  const auto src = from.flat();
  CULDA_CHECK(dst.size() == src.size());
  for (size_t i = 0; i < dst.size(); ++i) {
    const uint32_t sum = static_cast<uint32_t>(dst[i]) + src[i];
    CULDA_CHECK_MSG(sum <= 0xFFFF,
                    "phi count overflowed 16 bits during reduce; "
                    "the corpus is too large for compressed counts");
    dst[i] = static_cast<uint16_t>(sum);
  }
}

/// Bills the element-wise add kernel on `device`.
void BillAddKernel(gpusim::Device& device, const CuldaConfig& cfg,
                   uint64_t cells, gpusim::Stream* stream) {
  const uint64_t b = cfg.phi_count_bytes();
  device.Launch("phi_reduce_add",
                {static_cast<uint32_t>(std::max<uint64_t>(1, cells >> 16)),
                 1024},
                [&](gpusim::BlockContext& ctx) {
                  const uint64_t share = cells / ctx.grid_dim();
                  ctx.ReadGlobal(2 * share * b);
                  ctx.WriteGlobal(share * b);
                  ctx.IntOps(share);
                },
                stream);
}

/// The functional half of SynchronizePhi: every replica ends holding the
/// element-wise sum of all of them.
void SumReplicas(std::vector<PhiReplica>& replicas) {
  for (size_t i = 1; i < replicas.size(); ++i) {
    AddReplica(replicas[0].phi, replicas[i].phi);
  }
  for (size_t i = 1; i < replicas.size(); ++i) {
    replicas[i].phi = replicas[0].phi;
  }
}

}  // namespace

SyncStats SynchronizePhi(gpusim::DeviceGroup& group, const CuldaConfig& cfg,
                         std::vector<PhiReplica>& replicas, SyncMode mode) {
  CULDA_CHECK(replicas.size() == group.size());
  SumReplicas(replicas);
  return BillSynchronizePhi(group, cfg, replicas[0], mode);
}

SyncStats BillSynchronizePhi(gpusim::DeviceGroup& group,
                             const CuldaConfig& cfg,
                             const PhiReplica& replica, SyncMode mode) {
  const size_t g_count = group.size();
  SyncStats stats;
  if (g_count == 1) return stats;

  const uint64_t cells =
      static_cast<uint64_t>(replica.num_topics) * replica.vocab_size;
  const uint64_t bytes = cells * cfg.phi_count_bytes();
  const double start = group.Now();

  if (mode == SyncMode::kGpuTree) {
    // Pairwise reduce (Figure 4): round r combines replicas at distance
    // 2^r; disjoint pairs run in parallel (their streams are independent).
    for (size_t step = 1; step < g_count; step *= 2) {
      ++stats.reduce_rounds;
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group.PeerTransfer(i + step, i, bytes);
        stats.peer_bytes += bytes;
        BillAddKernel(group.device(i), cfg, cells, nullptr);
      }
    }
    // Broadcast φ⁰ back out along the same tree, deepest distance first.
    size_t top = 1;
    while (top * 2 < g_count) top *= 2;
    for (size_t step = top; step >= 1; step /= 2) {
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group.PeerTransfer(i, i + step, bytes);
        stats.peer_bytes += bytes;
      }
      if (step == 1) break;
    }
  } else {
    // CPU-side sum (the rejected alternative, kept for the A5 ablation):
    // every GPU ships its replica down, the host adds G matrices, the sum is
    // shipped back up. All DMA streams land in the same host memory
    // controller, so the G copies serialize there (unlike peer transfers
    // between disjoint GPU pairs), and the adds run at CPU memory bandwidth
    // — both effects are why Section 5.2 keeps the reduction on the GPUs.
    double host_clock = group.Now();
    for (size_t i = 0; i < g_count; ++i) {
      gpusim::Device& dev = group.device(i);
      host_clock = std::max(host_clock, dev.stream(0).ready_time()) +
                   dev.host_link().TransferSeconds(bytes);
      dev.stream(0).WaitUntil(host_clock);
      stats.host_bytes += bytes;
    }
    const gpusim::DeviceSpec cpu = gpusim::XeonCpu();
    host_clock += static_cast<double>(g_count + 1) * bytes /
                  cpu.EffectiveBandwidthBps();
    for (size_t i = 0; i < g_count; ++i) {
      gpusim::Device& dev = group.device(i);
      host_clock += dev.host_link().TransferSeconds(bytes);
      dev.stream(0).WaitUntil(host_clock);
      stats.host_bytes += bytes;
    }
  }

  stats.seconds = group.Now() - start;
  return stats;
}

namespace {

/// Shared head of both multi-node overloads: intra-node reduce on every
/// group (leaves every local replica holding the node sum; reusing
/// SynchronizePhi keeps one code path — the extra broadcast is counted in
/// the tail's favour since the tail then only re-broadcasts deltas).
/// Returns {intra_start, intra_end} on the shared timeline.
std::pair<double, double> IntraNodeReduce(
    std::vector<gpusim::DeviceGroup*>& node_groups, const CuldaConfig& cfg,
    std::vector<std::vector<PhiReplica>*>& node_replicas) {
  double intra_start = 0, intra_end = 0;
  for (size_t n = 0; n < node_groups.size(); ++n) {
    intra_start = std::max(intra_start, node_groups[n]->Now());
    SynchronizePhi(*node_groups[n], cfg, *node_replicas[n],
                   SyncMode::kGpuTree);
    intra_end = std::max(intra_end, node_groups[n]->Now());
  }
  return {intra_start, intra_end};
}

/// Functional inter-node sum: adds every node's replica 0 into node 0's.
/// Returns a reference to the summed global matrix.
WordMajorPhi& SumNodeReplicas(
    std::vector<std::vector<PhiReplica>*>& node_replicas) {
  WordMajorPhi& global = (*node_replicas[0])[0].phi;
  for (size_t n = 1; n < node_replicas.size(); ++n) {
    AddReplica(global, (*node_replicas[n])[0].phi);
  }
  return global;
}

/// Shared tail: install `global` on every replica, align every device to
/// `end`, bill one intra-node broadcast round, and return the final time.
double BroadcastWithinNodes(std::vector<gpusim::DeviceGroup*>& node_groups,
                            std::vector<std::vector<PhiReplica>*>&
                                node_replicas,
                            WordMajorPhi& global, uint64_t bytes,
                            double end) {
  for (size_t n = 0; n < node_groups.size(); ++n) {
    for (auto& replica : *node_replicas[n]) {
      if (&replica.phi != &global) replica.phi = global;
    }
    for (size_t g = 0; g < node_groups[n]->size(); ++g) {
      node_groups[n]->device(g).stream(0).WaitUntil(end);
    }
    // One intra-node broadcast round over the peer link.
    if (node_groups[n]->size() > 1) {
      node_groups[n]->PeerTransfer(0, 1, bytes);
    }
    node_groups[n]->Barrier();
    end = std::max(end, node_groups[n]->Now());
  }
  return end;
}

uint64_t GlobalPhiBytes(const CuldaConfig& cfg,
                        std::vector<std::vector<PhiReplica>*>&
                            node_replicas) {
  return static_cast<uint64_t>((*node_replicas[0])[0].num_topics) *
         (*node_replicas[0])[0].vocab_size * cfg.phi_count_bytes();
}

}  // namespace

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    std::vector<std::vector<PhiReplica>*> node_replicas,
    const gpusim::LinkSpec& network) {
  const size_t nodes = node_groups.size();
  CULDA_CHECK(nodes >= 1);
  CULDA_CHECK(node_replicas.size() == nodes);

  MultiNodeSyncStats stats;
  const uint64_t bytes = GlobalPhiBytes(cfg, node_replicas);
  const auto [intra_start, intra_end] =
      IntraNodeReduce(node_groups, cfg, node_replicas);
  stats.intra_node_s = intra_end - intra_start;
  if (nodes == 1) {
    stats.seconds = stats.intra_node_s;
    return stats;
  }

  // Inter-node ring all-reduce of the node sums: each node sends and
  // receives 2·(N−1)/N of the model. Every node's NIC is busy the whole
  // time, so the wall cost is that volume over one link.
  const uint64_t ring_bytes = 2 * bytes * (nodes - 1) / nodes;
  stats.network_bytes = ring_bytes * nodes;
  stats.inter_node_s = network.TransferSeconds(ring_bytes);

  WordMajorPhi& global = SumNodeReplicas(node_replicas);
  const double end =
      BroadcastWithinNodes(node_groups, node_replicas, global, bytes,
                           intra_end + stats.inter_node_s);
  stats.seconds = end - intra_start;
  return stats;
}

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    std::vector<std::vector<PhiReplica>*> node_replicas,
    gpusim::Fabric& fabric) {
  const size_t nodes = node_groups.size();
  CULDA_CHECK(nodes >= 1);
  CULDA_CHECK(node_replicas.size() == nodes);
  CULDA_CHECK_MSG(fabric.size() == nodes,
                  "fabric has " << fabric.size() << " endpoints but "
                                << nodes << " node groups were passed");

  MultiNodeSyncStats stats;
  const uint64_t bytes = GlobalPhiBytes(cfg, node_replicas);
  const auto [intra_start, intra_end] =
      IntraNodeReduce(node_groups, cfg, node_replicas);
  stats.intra_node_s = intra_end - intra_start;
  if (nodes == 1) {
    stats.seconds = stats.intra_node_s;
    return stats;
  }

  // Explicit ring all-reduce billed through the fabric: 2·(N−1) steps —
  // (N−1) reduce-scatter then (N−1) all-gather — each node forwarding a
  // ⌈model/N⌉ segment to its ring successor. On a ring fabric every step is
  // a single physical hop; on a fully-connected one it's a direct link.
  // Sends are issued in node-index order so link-contention resolution is
  // deterministic, and each step starts only when its payload has arrived
  // (clock[n] carries the per-node data dependency across steps).
  const uint64_t payload_before = fabric.payload_bytes();
  const uint64_t segment = (bytes + nodes - 1) / nodes;
  std::vector<double> clock(nodes, 0.0);
  for (size_t n = 0; n < nodes; ++n) clock[n] = node_groups[n]->Now();
  for (size_t step = 0; step < 2 * (nodes - 1); ++step) {
    std::vector<double> arrival(nodes, 0.0);
    for (size_t n = 0; n < nodes; ++n) {
      const size_t dst = (n + 1) % nodes;
      arrival[dst] = fabric.Transfer(n, dst, segment, clock[n]);
    }
    for (size_t n = 0; n < nodes; ++n) {
      clock[n] = std::max(clock[n], arrival[n]);
    }
  }
  double end = 0;
  for (size_t n = 0; n < nodes; ++n) end = std::max(end, clock[n]);
  stats.network_bytes = fabric.payload_bytes() - payload_before;
  stats.inter_node_s = end - intra_end;

  WordMajorPhi& global = SumNodeReplicas(node_replicas);
  end = BroadcastWithinNodes(node_groups, node_replicas, global, bytes, end);
  stats.seconds = end - intra_start;
  return stats;
}

}  // namespace culda::core
