#include "core/word_partition.hpp"

#include <algorithm>

#include "core/evaluator.hpp"
#include "util/philox.hpp"
#include "util/stopwatch.hpp"

namespace culda::core {

WordPartitionTrainer::WordPartitionTrainer(
    const corpus::Corpus& corpus, CuldaConfig cfg,
    std::vector<gpusim::DeviceSpec> gpus, gpusim::LinkSpec peer_link)
    : corpus_(&corpus),
      cfg_(std::move(cfg)),
      group_(std::move(gpus), std::move(peer_link)) {
  cfg_.Validate();
  CULDA_CHECK_MSG(corpus.num_tokens() > 0, "cannot train on an empty corpus");
  CheckWordFrequenciesFitPhi(corpus);
  const uint32_t g_count = static_cast<uint32_t>(group_.size());

  ranges_ = corpus::PartitionWordsByTokens(corpus, g_count);
  for (uint32_t g = 0; g < g_count; ++g) {
    ChunkState chunk;
    chunk.layout = corpus::BuildWordRangeChunk(corpus, ranges_[g]);
    chunk.work =
        corpus::BuildBlockWorkList(chunk.layout, cfg_.max_tokens_per_block);
    chunk.z.resize(chunk.layout.num_tokens());
    // Identical keying to CuldaTrainer: the same token gets the same draw
    // under either partition policy.
    for (uint64_t t = 0; t < chunk.z.size(); ++t) {
      PhiloxStream rng(cfg_.seed, chunk.layout.token_global[t]);
      chunk.z[t] = static_cast<uint16_t>(rng.NextBelow(cfg_.num_topics));
    }
    chunk.theta = ThetaMatrix(corpus.num_docs(), cfg_.num_topics);
    chunks_.push_back(std::move(chunk));
  }
  accum_ = PhiReplica(cfg_.num_topics, corpus.vocab_size());
  theta_global_ = ThetaMatrix(corpus.num_docs(), cfg_.num_topics);

  RebuildCountsFromZ();
  group_.ResetTime();
  for (size_t g = 0; g < group_.size(); ++g) {
    group_.device(g).ResetProfile();
  }
}

void WordPartitionTrainer::RebuildCountsFromZ() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  // A fresh allocation is already zero; each device still bills its clear.
  model_ = PhiReplica(cfg_.num_topics, corpus_->vocab_size());
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    BillZeroPhiKernel(dev, cfg_, model_);
    RunUpdatePhiKernel(dev, cfg_, chunks_[g], model_);
    RunUpdateThetaKernel(dev, cfg_, chunks_[g]);
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
  {
    sparse::DenseMatrix<int32_t> dense(corpus_->num_docs(),
                                       cfg_.num_topics);
    for (uint32_t g = 0; g < g_count; ++g) {
      const ThetaMatrix& partial = chunks_[g].theta;
      for (size_t d = 0; d < partial.rows(); ++d) {
        const auto idx = partial.RowIndices(d);
        const auto val = partial.RowValues(d);
        for (size_t i = 0; i < idx.size(); ++i) {
          dense(d, idx[i]) += val[i];
        }
      }
    }
    ThetaMatrix fresh(corpus_->num_docs(), cfg_.num_topics);
    ThetaMatrix::RowBuilder builder(&fresh);
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
    theta_global_ = std::move(fresh);
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
      replica_bytes[g] = csr_bytes(chunks_[g].theta);
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
    const uint64_t global_bytes = csr_bytes(theta_global_);
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
    chunks_[g].theta = theta_global_;
  }
  return group_.Now() - start;
}

void WordPartitionTrainer::SynchronizeNk() {
  const uint32_t g_count = static_cast<uint32_t>(group_.size());
  // Local column sums, then an all-reduce of K integers (tiny). The sum of
  // the per-device column sums is the whole model's, computed once.
  model_.RecomputeTotals();
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
  accum_.Clear();
  for (uint32_t g = 0; g < g_count; ++g) {
    gpusim::Device& dev = group_.device(g);
    ChunkState& chunk = chunks_[g];
    const auto sampling =
        RunSamplingKernel(dev, cfg_, chunk, model_, iteration_ + 1);
    stats.sampling_s += sampling.time.total_s;
    // φ columns are exclusively owned: rebuild locally, no sync.
    stats.update_phi_s +=
        BillZeroPhiKernel(dev, cfg_, accum_).time.total_s;
    stats.update_phi_s +=
        RunUpdatePhiKernel(dev, cfg_, chunk, accum_).time.total_s;
    stats.update_theta_s +=
        RunUpdateThetaKernel(dev, cfg_, chunk).time.total_s;
  }
  std::swap(model_, accum_);
  stats.sync_s += SynchronizeTheta();
  SynchronizeNk();
  group_.Barrier();

  stats.sim_seconds = group_.Now() - t0;
  stats.wall_seconds = wall.Seconds();
  stats.tokens_per_sec =
      static_cast<double>(corpus_->num_tokens()) / stats.sim_seconds;
  stats.theta_nnz = theta_global_.nnz();
  ++iteration_;
  return stats;
}

std::vector<IterationStats> WordPartitionTrainer::Train(uint32_t iterations) {
  std::vector<IterationStats> out;
  out.reserve(iterations);
  for (uint32_t i = 0; i < iterations; ++i) out.push_back(Step());
  return out;
}

GatheredModel WordPartitionTrainer::Gather() const {
  GatheredModel model;
  model.num_topics = cfg_.num_topics;
  model.vocab_size = corpus_->vocab_size();
  model.num_docs = corpus_->num_docs();
  model.theta = theta_global_;
  model.phi = model_.phi.TopicMajor();
  model.nk = model_.nk;
  return model;
}

double WordPartitionTrainer::LogLikelihoodPerToken() const {
  return core::LogLikelihoodPerToken(Gather(), cfg_);
}

}  // namespace culda::core
