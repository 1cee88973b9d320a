#include "core/word_partition.hpp"

#include <algorithm>

#include "core/evaluator.hpp"
#include "util/stopwatch.hpp"

namespace culda::core {

WordPartitionTrainer::WordPartitionTrainer(
    const corpus::Corpus& corpus, CuldaConfig cfg,
    std::vector<gpusim::DeviceSpec> gpus, gpusim::LinkSpec peer_link)
    : corpus_(&corpus),
      cfg_(std::move(cfg)),
      group_(std::move(gpus), std::move(peer_link)) {
  cfg_.Validate();
  ranges_ = corpus::PartitionWordsByTokens(
      corpus, static_cast<uint32_t>(group_.size()));
  state_ = TrainingState::ByWordRanges(corpus, cfg_, ranges_,
                                       /*pool=*/nullptr);

  RebuildCountsFromZ();
  group_.ResetTime();
  for (size_t g = 0; g < group_.size(); ++g) {
    group_.device(g).ResetProfile();
  }
}

void WordPartitionTrainer::RebuildCountsFromZ() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  // The model is built all zero; each device still bills its clear.
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    BillZeroPhiKernel(dev, cfg_, state_.model);
    RunUpdatePhiKernel(dev, cfg_, state_.chunks[g], state_.model);
    RunUpdateThetaKernel(dev, cfg_, state_.chunks[g]);
  }
  SynchronizeTheta();
  SynchronizeNk();
  group_.Barrier();
}

double WordPartitionTrainer::SynchronizeTheta() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  const double start = group_.Now();
  last_theta_sync_bytes_ = 0;

  // Functional: dense-sum the partial replicas, compact to the global CSR.
  ThetaMatrix global(corpus_->num_docs(), cfg_.num_topics);
  {
    sparse::DenseMatrix<int32_t> dense(corpus_->num_docs(),
                                       cfg_.num_topics);
    for (uint32_t g = 0; g < g_count; ++g) {
      const ThetaMatrix& partial = state_.chunks[g].theta;
      for (size_t d = 0; d < partial.rows(); ++d) {
        const auto idx = partial.RowIndices(d);
        const auto val = partial.RowValues(d);
        for (size_t i = 0; i < idx.size(); ++i) {
          dense(d, idx[i]) += val[i];
        }
      }
    }
    ThetaMatrix::RowBuilder builder(&global);
    std::vector<uint16_t> idx;
    std::vector<int32_t> val;
    for (size_t d = 0; d < corpus_->num_docs(); ++d) {
      idx.clear();
      val.clear();
      for (uint32_t k = 0; k < cfg_.num_topics; ++k) {
        if (dense(d, k) != 0) {
          idx.push_back(static_cast<uint16_t>(k));
          val.push_back(dense(d, k));
        }
      }
      builder.AppendRow(d, idx, val);
    }
    builder.Finish();
  }

  if (g_count > 1) {
    // Billing: pairwise reduce tree over the partial replicas (CSR bytes of
    // the sender), then broadcast of the global θ — the θ analogue of
    // Figure 4, which is exactly what partition-by-word forces.
    auto csr_bytes = [&](const ThetaMatrix& m) {
      return m.nnz() * (cfg_.theta_index_bytes() + sizeof(int32_t)) +
             (m.rows() + 1) * sizeof(uint64_t);
    };
    std::vector<uint64_t> replica_bytes(g_count);
    for (uint32_t g = 0; g < g_count; ++g) {
      replica_bytes[g] = csr_bytes(state_.chunks[g].theta);
    }
    for (size_t step = 1; step < g_count; step *= 2) {
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group_.PeerTransfer(i + step, i, replica_bytes[i + step]);
        last_theta_sync_bytes_ += replica_bytes[i + step];
        // Merge kernel on the receiver (scatter-add of the CSR entries).
        const uint64_t cells = replica_bytes[i] + replica_bytes[i + step];
        group_.device(i).Launch(
            "theta_reduce_add",
            {static_cast<uint32_t>(std::max<uint64_t>(1, cells >> 16)),
             1024},
            [&](gpusim::BlockContext& ctx) {
              ctx.ReadGlobal(cells / ctx.grid_dim());
              ctx.WriteGlobal(cells / ctx.grid_dim());
            });
        replica_bytes[i] += replica_bytes[i + step];  // merged size grows
      }
    }
    const uint64_t global_bytes = csr_bytes(global);
    size_t top = 1;
    while (top * 2 < g_count) top *= 2;
    for (size_t step = top; step >= 1; step /= 2) {
      for (size_t i = 0; i + step < g_count; i += 2 * step) {
        group_.PeerTransfer(i, i + step, global_bytes);
        last_theta_sync_bytes_ += global_bytes;
      }
      if (step == 1) break;
    }
  }

  // Install the global θ on every GPU (the sampling input of iteration t+1).
  for (uint32_t g = 0; g < g_count; ++g) {
    state_.chunks[g].theta = global;
  }
  return group_.Now() - start;
}

void WordPartitionTrainer::SynchronizeNk() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  // Local column sums, then an all-reduce of K integers (tiny). The sum of
  // the per-device column sums is the whole model's, computed once.
  state_.model.RecomputeTotals();
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    const auto& range = ranges_[g];
    dev.Launch("compute_nk_local",
               {std::max(1u, cfg_.num_topics / 4), 128},
               [&](gpusim::BlockContext& ctx) {
                 const uint64_t cols = range.word_end - range.word_begin;
                 ctx.ReadGlobal(cols * cfg_.num_topics *
                                cfg_.phi_count_bytes() / ctx.grid_dim());
                 ctx.WriteGlobal(cfg_.num_topics * 4 / ctx.grid_dim());
               });
  }
  if (g_count > 1) {
    for (size_t g = 1; g < g_count; ++g) {
      group_.PeerTransfer(g, 0, cfg_.num_topics * 4);
      group_.PeerTransfer(0, g, cfg_.num_topics * 4);
    }
  }
}

IterationStats WordPartitionTrainer::Step() {
  IterationStats stats;
  stats.iteration = iteration_;
  const double t0 = group_.Now();
  Stopwatch wall;
  const uint32_t g_count = static_cast<uint32_t>(group_.size());

  // Zeroed once for every device; each device still bills its zero_phi.
  state_.accum.Clear();
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    ChunkState& chunk = state_.chunks[g];
    const auto sampling =
        RunSamplingKernel(dev, cfg_, chunk, state_.model, iteration_ + 1);
    stats.sampling_s += sampling.time.total_s;
    // φ columns are exclusively owned: rebuild locally, no sync.
    stats.update_phi_s +=
        BillZeroPhiKernel(dev, cfg_, state_.accum).time.total_s;
    stats.update_phi_s +=
        RunUpdatePhiKernel(dev, cfg_, chunk, state_.accum).time.total_s;
    stats.update_theta_s +=
        RunUpdateThetaKernel(dev, cfg_, chunk).time.total_s;
  }
  std::swap(state_.model, state_.accum);
  stats.sync_s += SynchronizeTheta();
  SynchronizeNk();
  group_.Barrier();

  stats.sim_seconds = group_.Now() - t0;
  stats.wall_seconds = wall.Seconds();
  stats.tokens_per_sec =
      static_cast<double>(corpus_->num_tokens()) / stats.sim_seconds;
  stats.theta_nnz = state_.ThetaNnz();
  ++iteration_;
  return stats;
}

std::vector<IterationStats> WordPartitionTrainer::Train(uint32_t iterations) {
  std::vector<IterationStats> out;
  out.reserve(iterations);
  for (uint32_t i = 0; i < iterations; ++i) out.push_back(Step());
  return out;
}

double WordPartitionTrainer::LogLikelihoodPerToken() const {
  return core::LogLikelihoodPerToken(Gather(), cfg_);
}

}  // namespace culda::core
