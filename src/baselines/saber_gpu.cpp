#include "baselines/saber_gpu.hpp"

#include <vector>

#include "core/sampler/alias_table.hpp"
#include "core/kernels.hpp"
#include "util/philox.hpp"

namespace culda::baselines {

namespace {

/// SaberLDA-style sampling: word-major, sparse doc bucket walked linearly,
/// dense bucket drawn from a per-word alias table in global memory; one
/// thread per token (mem_derate 0.35 — uncoalesced).
gpusim::KernelRecord RunSaberSamplingKernel(gpusim::Device& device,
                                            const core::CuldaConfig& cfg,
                                            core::ChunkState& chunk,
                                            const core::PhiReplica& model,
                                            uint32_t iteration) {
  const uint32_t k_topics = cfg.num_topics;
  const float alpha = static_cast<float>(cfg.EffectiveAlpha());
  const float beta = static_cast<float>(cfg.beta);
  const float beta_v = beta * static_cast<float>(model.vocab_size);

  const gpusim::LaunchConfig lc{static_cast<uint32_t>(chunk.work.size()),
                                cfg.samplers_per_block * gpusim::kWarpSize,
                                0.40};
  auto body = [&](gpusim::BlockContext& ctx) {
    const corpus::BlockWork& bw = chunk.work[ctx.block_id()];
    const uint32_t w = bw.word;

    // Per-word q(k) = α(φ_kv + β)/(n_k + βV) and its alias table (built in
    // global memory: K reads + ~2K float writes).
    thread_local std::vector<float> q;
    thread_local core::AliasTable table;
    if (q.size() < k_topics) q.resize(k_topics);
    float q_mass = 0;
    for (uint32_t k = 0; k < k_topics; ++k) {
      q[k] = alpha * (static_cast<float>(model.phi(k, w)) + beta) /
             (static_cast<float>(model.nk[k]) + beta_v);
      q_mass += q[k];
    }
    table.Build(std::span<const float>(q.data(), k_topics));
    ctx.ReadGlobal(static_cast<uint64_t>(k_topics) * 8);   // φ col + n_k
    ctx.WriteGlobal(static_cast<uint64_t>(k_topics) * 8);  // alias table
    ctx.Flops(6ull * k_topics);

    for (uint64_t t = bw.token_begin; t < bw.token_end; ++t) {
      const uint32_t d = chunk.layout.token_doc[t];
      ctx.ReadGlobal(8);

      const auto idx = chunk.theta.RowIndices(d);
      const auto val = chunk.theta.RowValues(d);
      const uint64_t kd = idx.size();
      // 32-bit indices and values; SaberLDA also routes index loads through
      // the texture/L1 path (its own cache-conscious design).
      ctx.ReadL1(kd * 4);
      ctx.ReadGlobal(kd * 4);

      // Sparse bucket s = Σ θ_dk · q(k)/α.
      float s_mass = 0;
      for (uint64_t j = 0; j < kd; ++j) {
        s_mass += static_cast<float>(val[j]) * q[idx[j]] / alpha;
      }
      ctx.Flops(3 * kd);

      PhiloxStream rng(cfg.seed,
                       (static_cast<uint64_t>(iteration) << 40) ^
                           chunk.layout.token_global[t]);
      const float u = rng.NextFloat() * (s_mass + q_mass);

      uint32_t new_k;
      if (u < s_mass) {
        // Linear walk of the doc bucket (no private trees in SaberLDA's
        // doc phase).
        float acc = 0;
        new_k = idx[kd - 1];
        for (uint64_t j = 0; j < kd; ++j) {
          acc += static_cast<float>(val[j]) * q[idx[j]] / alpha;
          if (acc > u) {
            new_k = idx[j];
            break;
          }
        }
        ctx.Flops(2 * kd);
      } else {
        new_k = table.Sample(rng.NextU32(), rng.NextFloat());
        ctx.ReadGlobal(8);  // one alias cell
        ctx.Flops(4);
      }
      chunk.z[t] = static_cast<uint16_t>(new_k);
      ctx.WriteGlobal(4);
    }
  };
  return device.Launch("saber_sampling", lc, body);
}

/// 32-bit data throughout.
core::CuldaConfig Uncompressed(core::CuldaConfig cfg) {
  cfg.compress_indices = false;
  return cfg;
}

}  // namespace

SaberGpuLda::SaberGpuLda(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         gpusim::DeviceSpec spec, ThreadPool* pool)
    : SingleGpuSolver(corpus, Uncompressed(cfg), "SaberLDA-like (GPU)",
                      std::move(spec), pool) {}

void SaberGpuLda::Sample(gpusim::Device& device, core::ChunkState& chunk,
                         const core::PhiReplica& model, uint32_t iteration) {
  RunSaberSamplingKernel(device, config(), chunk, model, iteration);
}

}  // namespace culda::baselines
