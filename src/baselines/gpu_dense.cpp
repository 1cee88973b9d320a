#include "baselines/gpu_dense.hpp"

#include <vector>

#include "core/evaluator.hpp"
#include "core/kernels.hpp"
#include "util/philox.hpp"

namespace culda::baselines {

namespace {

/// The naive O(K) sampling kernel: dense conditional + linear CDF scan,
/// everything read from global memory at 32-bit width.
gpusim::KernelRecord RunDenseSamplingKernel(gpusim::Device& device,
                                            const core::CuldaConfig& cfg,
                                            core::ChunkState& chunk,
                                            const core::PhiReplica& model,
                                            uint32_t iteration) {
  const uint32_t k_topics = cfg.num_topics;
  const float alpha = static_cast<float>(cfg.EffectiveAlpha());
  const float beta = static_cast<float>(cfg.beta);
  const float beta_v = beta * static_cast<float>(model.vocab_size);

  // Prior-art access pattern: per-token dense scans with no coalescing care
  // — it sustains an even smaller bandwidth fraction than CuLDA's sampler.
  const gpusim::LaunchConfig lc{static_cast<uint32_t>(chunk.work.size()),
                                cfg.samplers_per_block * gpusim::kWarpSize,
                                0.30};
  auto body = [&](gpusim::BlockContext& ctx) {
    const corpus::BlockWork& bw = chunk.work[ctx.block_id()];
    const uint32_t w = bw.word;
    thread_local std::vector<float> theta_dense;
    thread_local std::vector<float> cdf;
    if (theta_dense.size() < k_topics) theta_dense.resize(k_topics);
    if (cdf.size() < k_topics) cdf.resize(k_topics);

    for (uint64_t t = bw.token_begin; t < bw.token_end; ++t) {
      const uint32_t d = chunk.layout.token_doc[t];
      ctx.ReadGlobal(4);

      // Expand θ_d to dense (the prior-art layout is dense to begin with;
      // billed as a dense K-row read).
      std::fill(theta_dense.begin(), theta_dense.begin() + k_topics, 0.0f);
      const auto idx = chunk.theta.RowIndices(d);
      const auto val = chunk.theta.RowValues(d);
      for (size_t j = 0; j < idx.size(); ++j) {
        theta_dense[idx[j]] = static_cast<float>(val[j]);
      }
      ctx.ReadGlobal(static_cast<uint64_t>(k_topics) * 4);  // dense n_d row

      // Dense conditional: φ column + n_k, all 32-bit, all from DRAM.
      float total = 0;
      for (uint32_t k = 0; k < k_topics; ++k) {
        const float p = (theta_dense[k] + alpha) *
                        (static_cast<float>(model.phi(k, w)) + beta) /
                        (static_cast<float>(model.nk[k]) + beta_v);
        total += p;
        cdf[k] = total;
      }
      ctx.ReadGlobal(static_cast<uint64_t>(k_topics) * 8);  // φ col + n_k
      ctx.Flops(5ull * k_topics);

      PhiloxStream rng(cfg.seed,
                       (static_cast<uint64_t>(iteration) << 40) ^
                           chunk.layout.token_global[t]);
      const float u = rng.NextFloat() * total;
      uint32_t new_k = k_topics - 1;
      for (uint32_t k = 0; k < k_topics; ++k) {
        if (cdf[k] > u) {
          new_k = k;
          break;
        }
      }
      // Linear scan re-reads the CDF it just wrote to local memory.
      ctx.ReadGlobal(static_cast<uint64_t>(k_topics) * 2);
      ctx.Flops(k_topics / 2);

      chunk.z[t] = static_cast<uint16_t>(new_k);
      ctx.WriteGlobal(4);
    }
  };
  return device.Launch("dense_sampling", lc, body);
}

}  // namespace

GpuDenseLda::GpuDenseLda(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         gpusim::DeviceSpec spec, ThreadPool* pool)
    : corpus_(&corpus), cfg_(cfg) {
  cfg_.Validate();
  // Prior art: no compression, no shared-memory tricks, no L1 routing.
  cfg_.compress_indices = false;
  cfg_.share_p2_tree = false;
  cfg_.reuse_pstar = false;
  cfg_.l1_for_indices = false;

  device_ = std::make_unique<gpusim::Device>(std::move(spec), 0, pool);

  // The whole corpus as one chunk, seeded as CuldaTrainer seeds it.
  state_ = core::TrainingState::ByDocuments(corpus, cfg_, 1, pool);
  core::ChunkState& chunk = state_.chunks.front();
  RunUpdatePhiKernel(*device_, cfg_, chunk, state_.model);
  RunUpdateThetaKernel(*device_, cfg_, chunk);
  RunComputeNkKernel(*device_, cfg_, state_.model);
  device_->ResetTime();
  device_->ResetProfile();
}

void GpuDenseLda::Step() {
  const double t0 = device_->Now();
  ++iteration_;
  core::ChunkState& chunk = state_.chunks.front();
  RunDenseSamplingKernel(*device_, cfg_, chunk, state_.model, iteration_);
  RunZeroPhiKernel(*device_, cfg_, state_.accum);
  RunUpdatePhiKernel(*device_, cfg_, chunk, state_.accum);
  RunUpdateThetaKernel(*device_, cfg_, chunk);
  RunComputeNkKernel(*device_, cfg_, state_.accum);
  std::swap(state_.model, state_.accum);
  device_->Synchronize();
  last_tokens_per_sec_ =
      static_cast<double>(corpus_->num_tokens()) / (device_->Now() - t0);
}

double GpuDenseLda::LogLikelihoodPerToken() const {
  return core::LogLikelihoodPerToken(Gather(), cfg_);
}

}  // namespace culda::baselines
