#include "dist/cluster.hpp"

#include <algorithm>
#include <string>

#include "core/evaluator.hpp"
#include "core/sync.hpp"
#include "corpus/chunking.hpp"
#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/philox.hpp"

namespace culda::dist {

namespace {

/// Per-(node, gpu) partial of one parallel phase, reduced into SweepStats in
/// fixed grid order afterwards so float sums never depend on scheduling.
struct alignas(64) CellPartial {
  double sampling_s = 0;
};

}  // namespace

const char* DistModeName(DistMode mode) {
  switch (mode) {
    case DistMode::kSync:
      return "sync";
    case DistMode::kAsync:
      return "async";
  }
  return "?";
}

DistMode ParseDistMode(std::string_view name) {
  if (name == "sync") return DistMode::kSync;
  if (name == "async") return DistMode::kAsync;
  throw Error(
      "--dist must be one of: sync (per-sweep inter-node all-reduce), async "
      "(nomadic shard circulation); got '" +
      std::string(name) + "'");
}

ClusterTrainer::ClusterTrainer(const corpus::Corpus& corpus,
                               core::CuldaConfig cfg, ClusterOptions opts)
    : corpus_(&corpus),
      cfg_(cfg),
      opts_(std::move(opts)),
      fabric_(opts_.num_nodes, opts_.topology, opts_.network) {
  cfg_.Validate();
  CULDA_CHECK_MSG(corpus.num_tokens() > 0, "cannot train on an empty corpus");
  CULDA_CHECK_MSG(opts_.num_nodes >= 1, "num_nodes must be >= 1");
  CULDA_CHECK_MSG(!opts_.gpus.empty(), "need at least one GPU per node");
  core::CheckWordFrequenciesFitPhi(corpus);
  nodes_.reserve(opts_.num_nodes);
  for (uint32_t n = 0; n < opts_.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<gpusim::DeviceGroup>(
        opts_.gpus, opts_.peer_link, opts_.pool));
  }

  BuildChunks();
  InitializeModel();

  // Sweep timing starts now; setup is excluded, as in CuldaTrainer.
  for (auto& node : nodes_) node->ResetTime();
  fabric_.Reset();
  node_round_end_.assign(opts_.num_nodes, 0.0);
}

void ClusterTrainer::BuildChunks() {
  const uint32_t c_count =
      opts_.num_nodes * static_cast<uint32_t>(opts_.gpus.size());
  const auto specs = corpus::PartitionByTokens(*corpus_, c_count);
  chunks_.clear();
  chunks_.reserve(specs.size());
  for (const auto& spec : specs) {
    core::ChunkState chunk;
    chunk.layout = corpus::BuildWordFirstChunk(*corpus_, spec);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg_.max_tokens_per_block);
    chunk.z.resize(chunk.layout.num_tokens());
    // Identical topic init to CuldaTrainer: keyed by the corpus-global token
    // index, so the initial state is independent of the partition (and the
    // kSync ≡ single-machine bit-identity has a common starting point).
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      PhiloxStream rng(cfg_.seed, chunk.layout.token_global[t]);
      chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(cfg_.num_topics));
    }
    chunk.theta =
        core::ThetaMatrix(chunk.layout.num_docs(), cfg_.num_topics);
    chunks_.push_back(std::move(chunk));
  }

  if (opts_.mode == DistMode::kAsync) {
    shards_ = corpus::PartitionWordsByTokens(*corpus_, opts_.num_nodes);
    // Pre-filter every chunk's work list per shard: BuildBlockWorkList
    // orders blocks by descending size, and filtering preserves that order,
    // so the shard-restricted kernel keeps the heavy-block-first schedule.
    shard_work_.assign(shards_.size(), {});
    for (size_t s = 0; s < shards_.size(); ++s) {
      shard_work_[s].resize(chunks_.size());
      for (size_t c = 0; c < chunks_.size(); ++c) {
        for (const corpus::BlockWork& bw : chunks_[c].work) {
          if (bw.word >= shards_[s].word_begin &&
              bw.word < shards_[s].word_end) {
            shard_work_[s][c].push_back(bw);
          }
        }
      }
    }
  }
}

void ClusterTrainer::ForEachNodeGpu(
    const std::function<void(size_t, size_t)>& fn) {
  const size_t g_count = opts_.gpus.size();
  const size_t total = nodes_.size() * g_count;
  if (opts_.pool != nullptr && opts_.pool->worker_count() > 0 && total > 1) {
    opts_.pool->ParallelFor(total, [&](size_t i) {
      fn(i / g_count, i % g_count);
    });
  } else {
    for (size_t i = 0; i < total; ++i) fn(i / g_count, i % g_count);
  }
}

void ClusterTrainer::InitializeModel() {
  if (opts_.mode == DistMode::kSync) {
    // Every (node, GPU) cell adds its chunk into the one freshly allocated
    // (so already zero) model; each still bills its zero_phi.
    model_ = core::PhiReplica(cfg_.num_topics, corpus_->vocab_size());
    accum_ = core::PhiReplica(cfg_.num_topics, corpus_->vocab_size());
    ForEachNodeGpu([&](size_t n, size_t g) {
      gpusim::Device& dev = nodes_[n]->device(g);
      core::ChunkState& chunk = chunks_[ChunkIndex(n, g)];
      core::BillZeroPhiKernel(dev, cfg_, model_);
      core::RunUpdatePhiKernel(dev, cfg_, chunk, model_);
      core::RunUpdateThetaKernel(dev, cfg_, chunk);
    });
    SyncAndComputeNk();
    return;
  }

  // kAsync: one canonical host-side model (consistent with z at all times)
  // plus a full-width sampling view per node, all starting fresh.
  canonical_ = core::PhiReplica(cfg_.num_topics, corpus_->vocab_size());
  for (const auto& chunk : chunks_) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      uint16_t& cell =
          canonical_.phi(chunk.z[t], chunk.layout.token_word[t]);
      CULDA_CHECK_MSG(cell < 0xFFFF, "phi count overflow at init");
      ++cell;
    }
  }
  canonical_.RecomputeTotals();
  views_.assign(nodes_.size(), canonical_);
  last_refresh_.assign(nodes_.size(),
                       std::vector<uint32_t>(shards_.size(), 0));
  ForEachNodeGpu([&](size_t n, size_t g) {
    core::RunUpdateThetaKernel(nodes_[n]->device(g), cfg_,
                               chunks_[ChunkIndex(n, g)]);
  });
  for (auto& node : nodes_) node->Barrier();
}

uint64_t ClusterTrainer::ShardBytes(size_t shard) const {
  return static_cast<uint64_t>(shards_[shard].word_end -
                               shards_[shard].word_begin) *
         cfg_.num_topics * cfg_.phi_count_bytes();
}

double ClusterTrainer::Now() const {
  double now = 0;
  for (const auto& node : nodes_) now = std::max(now, node->Now());
  return now;
}

SweepStats ClusterTrainer::Sweep() {
  CULDA_OBS_SPAN("dist/sweep");
  SweepStats stats;
  stats.sweep = sweep_;
  const double t0 = Now();
  const uint64_t payload0 = fabric_.payload_bytes();
  const uint64_t wire0 = fabric_.wire_bytes();

  if (opts_.mode == DistMode::kSync) {
    SweepSync(stats);
  } else {
    SweepAsync(stats);
  }

  stats.sim_seconds = Now() - t0;
  stats.network_payload_bytes = fabric_.payload_bytes() - payload0;
  stats.network_wire_bytes = fabric_.wire_bytes() - wire0;
  for (const auto& chunk : chunks_) stats.theta_nnz += chunk.theta.nnz();
  max_observed_staleness_ =
      std::max(max_observed_staleness_, stats.max_staleness);
  ++sweep_;
  history_.push_back(stats);
  return stats;
}

std::vector<SweepStats> ClusterTrainer::Train(uint32_t sweeps) {
  std::vector<SweepStats> out;
  out.reserve(sweeps);
  for (uint32_t i = 0; i < sweeps; ++i) out.push_back(Sweep());
  return out;
}

void ClusterTrainer::SweepSync(SweepStats& stats) {
  // One CuLDA iteration with the reduce+broadcast spanning the fabric.
  // The per-device schedule is CuldaTrainer's WS1 (resident chunks, φ
  // double-buffered, θ overlapping the sync on stream 1).
  std::vector<CellPartial> partials(chunks_.size());
  // Every cell reads the one model_, so all N·G chunks are sampled in one
  // word-major pass; each cell then bills its own launch.
  std::vector<const gpusim::Device*> billers(chunks_.size());
  for (size_t n = 0; n < nodes_.size(); ++n) {
    for (size_t g = 0; g < opts_.gpus.size(); ++g) {
      billers[ChunkIndex(n, g)] = &nodes_[n]->device(g);
    }
  }
  const core::SamplingPass pass =
      core::SampleChunks(cfg_, chunks_, billers, model_, sweep_ + 1,
                         opts_.pool, opts_.sampler, opts_.mh_cycles);
  // Zeroed once for every cell; each cell still bills its zero_phi.
  accum_.Clear();
  ForEachNodeGpu([&](size_t n, size_t g) {
    CellPartial& part = partials[ChunkIndex(n, g)];
    gpusim::Device& dev = nodes_[n]->device(g);
    core::ChunkState& chunk = chunks_[ChunkIndex(n, g)];
    gpusim::Stream& compute = dev.stream(0);

    const auto sampling = core::BillSamplingKernel(
        dev, cfg_, chunk, pass.chunks[ChunkIndex(n, g)], &compute);
    part.sampling_s += sampling.time.total_s;

    core::BillZeroPhiKernel(dev, cfg_, accum_, &compute);
    core::RunUpdatePhiKernel(dev, cfg_, chunk, accum_, &compute);

    gpusim::Stream& theta_stream = dev.stream(1);
    theta_stream.WaitUntil(sampling.end_s);
    core::RunUpdateThetaKernel(dev, cfg_, chunk, &theta_stream);
  });
  for (const CellPartial& part : partials) {
    stats.sampling_s += part.sampling_s;
  }

  // The synchronized accumulator becomes the next sweep's read model.
  std::swap(model_, accum_);
  stats.sync_s = SyncAndComputeNk();
}

double ClusterTrainer::SyncAndComputeNk() {
  std::vector<gpusim::DeviceGroup*> groups;
  for (auto& node : nodes_) groups.push_back(node.get());
  const auto sync =
      core::SynchronizePhiAcrossNodes(groups, cfg_, model_, fabric_);
  model_.RecomputeTotals(opts_.pool);
  ForEachNodeGpu([&](size_t n, size_t g) {
    core::BillComputeNkKernel(nodes_[n]->device(g), cfg_, model_);
  });
  for (auto& node : nodes_) node->Barrier();
  return sync.seconds;
}

void ClusterTrainer::SweepAsync(SweepStats& stats) {
  for (uint32_t r = 0; r < opts_.num_nodes; ++r) {
    AsyncRound(round_, stats);
    ++round_;
  }
}

void ClusterTrainer::AsyncRound(uint32_t round, SweepStats& stats) {
  const size_t n_count = nodes_.size();
  const size_t g_count = opts_.gpus.size();
  const uint32_t bound = opts_.staleness_bound;

  // Resident shard of node n this round: s with (s + round) % N == n.
  std::vector<size_t> resident(n_count);
  for (size_t n = 0; n < n_count; ++n) {
    resident[n] = (n + n_count - (round % n_count)) % n_count;
  }
  // Copies canonical's shard-s columns into node n's sampling view.
  auto refresh_view = [&](size_t n, size_t s) {
    const auto src = canonical_.phi.Words(shards_[s].word_begin,
                                          shards_[s].word_end);
    std::copy(src.begin(), src.end(),
              views_[n].phi.Words(shards_[s].word_begin,
                                  shards_[s].word_end).begin());
  };

  // --- Phase A: shard routing (sequential in node order — all fabric
  // transfers are issued here, so link contention resolves identically at
  // any worker count). Each node receives its resident shard from its ring
  // predecessor (who departed when its previous round ended), force-
  // refreshes any shard copy older than the staleness bound from that
  // shard's current holder, then distributes the fresh columns to its GPUs.
  std::vector<std::vector<uint16_t>> snapshots(chunks_.size());
  for (size_t n = 0; n < n_count; ++n) {
    const size_t s_res = resident[n];
    double arrivals = node_round_end_[n];
    uint64_t refreshed_bytes = 0;
    uint64_t refreshed_cells = 0;
    if (round > 0) {
      const size_t prev = (n + n_count - 1) % n_count;
      arrivals = std::max(
          arrivals, fabric_.Transfer(prev, n, ShardBytes(s_res),
                                     node_round_end_[prev]));
      refresh_view(n, s_res);
      last_refresh_[n][s_res] = round;
      refreshed_bytes += ShardBytes(s_res);
      refreshed_cells += static_cast<uint64_t>(shards_[s_res].word_end -
                                               shards_[s_res].word_begin) *
                         cfg_.num_topics;
    }
    if (bound != kUnboundedStaleness) {
      for (size_t s = 0; s < shards_.size(); ++s) {
        if (s == s_res) continue;
        if (round - last_refresh_[n][s] <= bound) continue;
        const size_t holder = (s + round) % n_count;
        arrivals = std::max(
            arrivals, fabric_.Transfer(holder, n, ShardBytes(s),
                                       node_round_end_[holder]));
        refresh_view(n, s);
        last_refresh_[n][s] = round;
        refreshed_bytes += ShardBytes(s);
        refreshed_cells += static_cast<uint64_t>(shards_[s].word_end -
                                                 shards_[s].word_begin) *
                           cfg_.num_topics;
      }
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      stats.max_staleness =
          std::max(stats.max_staleness, round - last_refresh_[n][s]);
    }

    gpusim::DeviceGroup& node = *nodes_[n];
    for (size_t g = 0; g < g_count; ++g) {
      node.device(g).stream(0).WaitUntil(arrivals);
      node.device(g).stream(1).WaitUntil(arrivals);
    }
    if (refreshed_bytes > 0) {
      // Install the fresh columns (device 0) and recompute the view's n_k
      // (stale mix of columns ⇒ totals change with every refresh). The
      // recompute is billed incrementally — old + new refreshed columns —
      // not as a full K×V scan.
      node.device(0).Launch(
          "install_shard",
          {static_cast<uint32_t>(
               std::max<uint64_t>(1, refreshed_cells >> 16)),
           1024},
          [&](gpusim::BlockContext& ctx) {
            ctx.WriteGlobal(refreshed_bytes / ctx.grid_dim());
          });
      if (g_count > 1) node.PeerTransfer(0, 1, refreshed_bytes);
      views_[n].RecomputeTotals();
      node.device(0).Launch(
          "refresh_nk",
          {std::max(1u, cfg_.num_topics / 4), 128},
          [&](gpusim::BlockContext& ctx) {
            ctx.ReadGlobal(2 * refreshed_cells * cfg_.phi_count_bytes() /
                           ctx.grid_dim());
            ctx.WriteGlobal(cfg_.num_topics * 4 / ctx.grid_dim());
          });
    }
    // Snapshot the resident slice's assignments: phase C derives the round's
    // count deltas from (snapshot, new z). The slice is contiguous in the
    // word-first order, so this is one sub-range per chunk.
    for (size_t g = 0; g < g_count; ++g) {
      const core::ChunkState& chunk = chunks_[ChunkIndex(n, g)];
      const uint64_t a = chunk.layout.word_offsets[shards_[s_res].word_begin];
      const uint64_t b = chunk.layout.word_offsets[shards_[s_res].word_end];
      snapshots[ChunkIndex(n, g)].assign(chunk.z.begin() + a,
                                         chunk.z.begin() + b);
    }
  }

  // --- Phase B: sampling (parallel over the node×GPU grid; every cell owns
  // disjoint chunk/device state and reads its node's view immutably).
  std::vector<CellPartial> partials(chunks_.size());
  ForEachNodeGpu([&](size_t n, size_t g) {
    CellPartial& part = partials[ChunkIndex(n, g)];
    gpusim::Device& dev = nodes_[n]->device(g);
    core::ChunkState& chunk = chunks_[ChunkIndex(n, g)];
    std::vector<corpus::BlockWork>& filtered =
        shard_work_[resident[n]][ChunkIndex(n, g)];
    const uint64_t touched = snapshots[ChunkIndex(n, g)].size();
    gpusim::Stream& compute = dev.stream(0);

    // Restrict the kernel to the resident shard's words by swapping in the
    // filtered work list — the sampling kernel iterates only chunk.work.
    std::swap(chunk.work, filtered);
    const auto sampling = core::RunSamplingKernel(
        dev, cfg_, chunk, views_[n], sweep_ + 1, &compute, nullptr,
        opts_.sampler, opts_.mh_cycles);
    std::swap(chunk.work, filtered);
    part.sampling_s += sampling.time.total_s;

    if (touched > 0) {
      // Billing for folding this round's deltas into the resident shard
      // (the functional fold runs host-side in phase C): per touched token,
      // read old/new z and apply a −1/+1 atomic pair to the φ column.
      dev.Launch(
          "update_phi_delta",
          {static_cast<uint32_t>(
               std::min<uint64_t>(std::max<uint64_t>(1, touched / 1024),
                                  4096)),
           1024},
          [&](gpusim::BlockContext& ctx) {
            const uint64_t here =
                touched / ctx.grid_dim() +
                (ctx.block_id() < touched % ctx.grid_dim());
            ctx.ReadGlobal(here * 4);
            ctx.counters().atomic_ops += 2 * here;
            ctx.WriteGlobal(2 * here * cfg_.phi_count_bytes());
          },
          &compute);
      gpusim::Stream& theta_stream = dev.stream(1);
      theta_stream.WaitUntil(sampling.end_s);
      core::RunUpdateThetaDeltaKernel(dev, cfg_, chunk, touched,
                                      &theta_stream);
    }
  });
  for (const CellPartial& part : partials) {
    stats.sampling_s += part.sampling_s;
  }

  // --- Phase C: fold each node's deltas into the canonical model
  // (sequential, fixed node/gpu/token order). Shards are disjoint word
  // ranges and each is resident at exactly one node, so the folds commute —
  // the fixed order is for bitwise reproducibility of the checks.
  for (size_t n = 0; n < n_count; ++n) {
    const size_t s_res = resident[n];
    for (size_t g = 0; g < g_count; ++g) {
      const core::ChunkState& chunk = chunks_[ChunkIndex(n, g)];
      const std::vector<uint16_t>& old_z = snapshots[ChunkIndex(n, g)];
      const uint64_t a = chunk.layout.word_offsets[shards_[s_res].word_begin];
      for (uint64_t i = 0; i < old_z.size(); ++i) {
        const uint64_t t = a + i;
        const uint16_t prev = old_z[i];
        const uint16_t next = chunk.z[t];
        if (prev == next) continue;
        const uint32_t w = chunk.layout.token_word[t];
        uint16_t& dec = canonical_.phi(prev, w);
        CULDA_CHECK_MSG(dec > 0, "phi count underflow folding round delta");
        --dec;
        uint16_t& inc = canonical_.phi(next, w);
        CULDA_CHECK_MSG(inc < 0xFFFF,
                        "phi count overflowed 16 bits folding round delta");
        ++inc;
        --canonical_.nk[prev];
        ++canonical_.nk[next];
      }
    }
    // The node's own updates live in its local shard copy: keep its view of
    // the resident shard current (no network — this is the nomadic
    // advantage). Only node n touched these columns this round, so the copy
    // picks up exactly its own deltas.
    refresh_view(n, s_res);
    nodes_[n]->Barrier();
    node_round_end_[n] = nodes_[n]->Now();
  }
}

core::GatheredModel ClusterTrainer::Gather() const {
  core::GatheredModel model;
  model.num_topics = cfg_.num_topics;
  model.vocab_size = corpus_->vocab_size();
  model.num_docs = corpus_->num_docs();
  model.theta = core::ThetaMatrix(corpus_->num_docs(), cfg_.num_topics);
  core::ThetaMatrix::RowBuilder builder(&model.theta);
  size_t next_doc = 0;
  for (const auto& chunk : chunks_) {
    CULDA_CHECK(chunk.layout.spec.doc_begin == next_doc);
    for (uint64_t d = 0; d < chunk.num_docs(); ++d) {
      builder.AppendRow(next_doc++, chunk.theta.RowIndices(d),
                        chunk.theta.RowValues(d));
    }
  }
  builder.Finish();
  if (opts_.mode == DistMode::kAsync) {
    model.phi = canonical_.phi.TopicMajor();
    model.nk = canonical_.nk;
  } else {
    model.phi = model_.phi.TopicMajor();
    model.nk = model_.nk;
  }
  return model;
}

double ClusterTrainer::LogLikelihoodPerToken() const {
  return core::LogLikelihoodPerToken(Gather(), cfg_, opts_.pool);
}

std::vector<uint16_t> ClusterTrainer::ExportAssignments() const {
  std::vector<uint16_t> z(corpus_->num_tokens());
  for (const auto& chunk : chunks_) {
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      z[chunk.layout.token_global[t]] = chunk.z[t];
    }
  }
  return z;
}

}  // namespace culda::dist
