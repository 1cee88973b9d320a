#include "core/sync.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace culda::core {

namespace {

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

}  // namespace

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

MultiNodeSyncStats SynchronizePhiAcrossNodes(
    std::vector<gpusim::DeviceGroup*> node_groups, const CuldaConfig& cfg,
    const PhiReplica& replica, gpusim::Fabric& fabric) {
  const size_t nodes = node_groups.size();
  CULDA_CHECK(nodes >= 1);
  CULDA_CHECK_MSG(fabric.size() == nodes,
                  "fabric has " << fabric.size() << " endpoints but "
                                << nodes << " node groups were passed");

  MultiNodeSyncStats stats;
  const uint64_t bytes = static_cast<uint64_t>(replica.num_topics) *
                         replica.vocab_size * cfg.phi_count_bytes();
  // Intra-node reduce tree on every group, on the shared timeline.
  double intra_start = 0, intra_end = 0;
  for (gpusim::DeviceGroup* group : node_groups) {
    intra_start = std::max(intra_start, group->Now());
    BillSynchronizePhi(*group, cfg, replica, SyncMode::kGpuTree);
    intra_end = std::max(intra_end, group->Now());
  }
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

  // Align every device to the all-reduce's end and bill one intra-node
  // broadcast round over the peer link.
  for (gpusim::DeviceGroup* group : node_groups) {
    for (size_t g = 0; g < group->size(); ++g) {
      group->device(g).stream(0).WaitUntil(end);
    }
    if (group->size() > 1) group->PeerTransfer(0, 1, bytes);
    group->Barrier();
    end = std::max(end, group->Now());
  }
  stats.seconds = end - intra_start;
  return stats;
}

}  // namespace culda::core
