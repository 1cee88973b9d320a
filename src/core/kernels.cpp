#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/index_tree.hpp"
#include "core/sampler/alias_table.hpp"
#include "util/philox.hpp"

namespace culda::core {

namespace {

// Per-kernel achievable fractions of streaming DRAM bandwidth (see
// LaunchConfig::mem_derate). Calibrated once against Table 4's measured
// throughputs; the cross-platform and cross-algorithm *ratios* do not depend
// on them.
constexpr double kSamplingMemDerate = 0.45;  // divergent, dependent loads
constexpr double kUpdateMemDerate = 0.80;    // scattered atomics, some reuse
constexpr double kStreamMemDerate = 1.0;     // pure streaming kernels

/// Per-worker scratch of the sampling pass, reused across words, blocks and
/// passes; avoids heap churn on the hot path. (With a thread pool each
/// worker has its own copy, so no synchronization is needed.)
struct SamplerScratch {
  // The table of the word being sampled.
  std::vector<float> pstar;
  std::vector<float> p2_prefix;  ///< kTree: inclusive prefix sums of p2 (Q)
  std::vector<float> word_prob;  ///< kAliasMH: word alias over p*
  std::vector<uint16_t> word_alias;
  AliasBuildScratch build;
  std::vector<float> p1_prefix;  ///< inclusive prefix sums of p1 (S)
  /// One block arena per shared-memory capacity (a group's devices may
  /// differ), so a block never allocates one.
  std::vector<std::unique_ptr<gpusim::SharedMemory>> arenas;

  gpusim::SharedMemory& Arena(size_t capacity) {
    for (const auto& a : arenas) {
      if (a->capacity() == capacity) return *a;
    }
    arenas.push_back(std::make_unique<gpusim::SharedMemory>(capacity));
    return *arenas.back();
  }
};
thread_local SamplerScratch tl_scratch;

/// Scratch for the host-side θ rebuild in RunUpdateThetaKernel. `dense` is
/// kept all-zero between documents (and between kernel calls) by resetting
/// only the touched entries, so rebuild cost scales with the chunk's tokens
/// and distinct topics, never with K.
struct UpdateThetaScratch {
  std::vector<int32_t> dense;     ///< K slots, all zero at rest
  std::vector<uint16_t> touched;  ///< topics hit by the current document
  std::vector<uint16_t> idx;
  std::vector<int32_t> val;
};
thread_local UpdateThetaScratch tl_theta_scratch;

/// p*(k) = (φ_kw + β) / (n_k + βV) over word w's φ counts: the common
/// sub-expression of p1 and p2 (Eq. 8).
void ComputePstar(std::span<const uint16_t> phi_w,
                  std::span<const int32_t> nk, float beta, float beta_v,
                  std::span<float> pstar) {
  for (size_t k = 0; k < pstar.size(); ++k) {
    pstar[k] = (static_cast<float>(phi_w[k]) + beta) /
               (static_cast<float>(nk[k]) + beta_v);
  }
}

// The two running-sum passes are kept out of line so their sums stay in
// registers: inlined into the large kernel body, GCC kept each sum in a stack
// slot, a store and a reload on the dependency chain of every element.

/// Writes the running sums of p2(k) = α_k · p*(k) — the leaves of the p2
/// index tree — into `prefix` and returns Q = Σ p2. `asym_alpha` empty
/// means the symmetric α.
[[gnu::noinline]]
float P2PrefixSums(std::span<const float> pstar, float alpha,
                   std::span<const double> asym_alpha,
                   std::span<float> prefix) {
  float acc = 0;
  for (size_t k = 0; k < pstar.size(); ++k) {
    const float alpha_k =
        asym_alpha.empty() ? alpha : static_cast<float>(asym_alpha[k]);
    acc += alpha_k * pstar[k];
    prefix[k] = acc;
  }
  return acc;
}

/// Writes the running sums of p1(j) = θ_dj · p*(k_j) over one θ row — the
/// leaves of the p1 index tree — into `prefix` and returns S = Σ p1.
[[gnu::noinline]]
float P1PrefixSums(std::span<const uint16_t> topics,
                   std::span<const int32_t> counts,
                   std::span<const float> pstar, std::span<float> prefix) {
  float acc = 0;
  for (size_t j = 0; j < topics.size(); ++j) {
    const float p = static_cast<float>(counts[j]) * pstar[topics[j]];
    CULDA_DCHECK(p >= 0.0f);
    acc += p;
    prefix[j] = acc;
  }
  return acc;
}

/// Stale θ̃_d count of topic k, by binary search of the sorted CSR row.
inline int32_t ThetaAt(std::span<const uint16_t> idx,
                       std::span<const int32_t> val, uint32_t k) {
  const auto it = std::lower_bound(idx.begin(), idx.end(),
                                   static_cast<uint16_t>(k));
  if (it == idx.end() || *it != k) return 0;
  return val[static_cast<size_t>(it - idx.begin())];
}

/// What every block of one sampling pass reads besides its chunk and its
/// word's table.
struct SamplingInputs {
  const CuldaConfig& cfg;
  const PhiReplica& replica;
  TrainSampler sampler;
  uint32_t iteration;
  uint32_t mh_cycles;
  AliasTable alpha_alias;  ///< kAliasMH with asymmetric α only
};

/// One word's sampling table, built from the read model once per pass and
/// used by every block of the word in every chunk.
struct WordTable {
  std::span<const float> pstar;
  std::span<const float> p2_prefix;  ///< kTree
  float q_mass = 0;                  ///< kTree: Q = Σ p2
  std::span<const float> word_prob;  ///< kAliasMH
  std::span<const uint16_t> word_alias;
};

WordTable BuildWordTable(const SamplingInputs& in, uint32_t w,
                         SamplerScratch& scratch) {
  const CuldaConfig& cfg = in.cfg;
  const uint32_t K = cfg.num_topics;
  const float beta = static_cast<float>(cfg.beta);
  const float beta_v = beta * static_cast<float>(in.replica.vocab_size);
  if (scratch.pstar.size() < K) scratch.pstar.resize(K);
  const std::span<float> pstar(scratch.pstar.data(), K);
  ComputePstar(in.replica.phi.Word(w), in.replica.nk, beta, beta_v, pstar);
  WordTable table;
  table.pstar = pstar;
  if (in.sampler == TrainSampler::kAliasMH) {
    // The word-proposal alias over p*. The +β inside p* is the smoothing
    // branch, so one table covers the whole word conditional.
    if (scratch.word_prob.size() < K) scratch.word_prob.resize(K);
    if (scratch.word_alias.size() < K) scratch.word_alias.resize(K);
    const std::span<float> wprob(scratch.word_prob.data(), K);
    const std::span<uint16_t> walias(scratch.word_alias.data(), K);
    // Proposal draws never need the normalizer BuildAliasInto returns.
    (void)BuildAliasInto(pstar, wprob, walias, scratch.build);
    table.word_prob = wprob;
    table.word_alias = walias;
    return table;
  }
  if (scratch.p2_prefix.size() < K) scratch.p2_prefix.resize(K);
  const std::span<float> p2_prefix(scratch.p2_prefix.data(), K);
  // p2(k) = α_k · p*(k) (α_k constant under the symmetric default).
  table.q_mass =
      P2PrefixSums(pstar, static_cast<float>(cfg.EffectiveAlpha()),
                   cfg.asymmetric_alpha, p2_prefix);
  CULDA_CHECK_MSG(std::isfinite(table.q_mass) && table.q_mass >= 0.0f,
                  "index-tree mass must be finite and non-negative, "
                  "got " << table.q_mass << " (p2 of word " << w << ")");
  table.p2_prefix = p2_prefix;
  return table;
}

/// kAliasMH per-document alias tables over one chunk's stale θ̃ rows, packed
/// flat in the θ CSR layout.
struct DocAliases {
  std::vector<uint64_t> off;
  std::vector<float> prob;
  std::vector<uint16_t> alias;
  std::vector<double> len;  ///< row mass (θ̃ row sum)
};

/// Row content depends only on the document's own assignments — never on
/// the chunking — which is what makes the doc proposals partition-invariant.
/// Rebuilt every iteration from the fresh θ (the per-sweep stale-table
/// refresh); billed in the chunk's block 0.
DocAliases BuildDocAliases(const ChunkState& chunk) {
  const uint64_t num_docs = chunk.num_docs();
  DocAliases docs;
  docs.off.assign(num_docs + 1, 0);
  for (uint64_t d = 0; d < num_docs; ++d) {
    docs.off[d + 1] = docs.off[d] + chunk.theta.RowLength(d);
  }
  docs.prob.resize(docs.off[num_docs]);
  docs.alias.resize(docs.off[num_docs]);
  docs.len.assign(num_docs, 0.0);
  AliasBuildScratch build;
  std::vector<float> weights;
  for (uint64_t d = 0; d < num_docs; ++d) {
    const auto val = chunk.theta.RowValues(d);
    if (val.empty()) continue;  // α branch covers empty rows
    weights.resize(val.size());
    for (size_t j = 0; j < val.size(); ++j) {
      weights[j] = static_cast<float>(val[j]);
    }
    docs.len[d] = BuildAliasInto(
        weights, std::span<float>(docs.prob.data() + docs.off[d], val.size()),
        std::span<uint16_t>(docs.alias.data() + docs.off[d], val.size()),
        build);
  }
  return docs;
}

/// One block of Algorithm 2's exact index-tree kernel over its word's table.
/// The table is billed as this block builds it; the host keeps only its
/// leaves (p2_prefix).
void SampleTreeBlock(const SamplingInputs& in, gpusim::BlockContext& ctx,
                     ChunkState& chunk, const WordTable& table,
                     SamplerScratch& scratch, SamplingStepCounters& local) {
  const CuldaConfig& cfg = in.cfg;
  const corpus::BlockWork& bw = chunk.work[ctx.block_id()];
  const uint32_t w = bw.word;
  const uint32_t K = cfg.num_topics;
  const uint32_t samplers = cfg.samplers_per_block;
  const uint32_t fanout = cfg.tree_fanout;
  const uint64_t phi_b = cfg.phi_count_bytes();
  const uint64_t idx_b = cfg.theta_index_bytes();
  const std::span<const float> pstar = table.pstar;
  const float q_mass = table.q_mass;

  // ---- p*(k) = (φ_kv + β) / (n_k + βV): the common sub-expression of
  // p1 and p2 (Eq. 8), computed once per block and cached in shared memory
  // when reuse_pstar is on. One φ column + n_k; the column is a strided
  // walk over the device's K×V DRAM layout, n_k is small and hot so it hits
  // L1.
  local.compute_q.global_read_bytes += static_cast<uint64_t>(K) * phi_b;
  local.compute_q.l1_read_bytes += static_cast<uint64_t>(K) * 4;
  local.compute_q.flops += 2ull * K;
  if (cfg.reuse_pstar) {
    // Cached in shared memory; subsequent uses are shared reads.
    (void)ctx.shared().Alloc<float>(K);
    ctx.WriteShared(static_cast<uint64_t>(K) * 4);
  }

  // ---- Q and the p2 index tree, shared by all samplers of the block
  // when share_p2_tree is on; otherwise every token pays the rebuild.
  const size_t p2_slots = IndexTreeView::StorageSlots(K, fanout);
  bool p2_in_shared = false;
  if (cfg.share_p2_tree &&
      ctx.shared().capacity() - ctx.shared().used() >= p2_slots * 4) {
    (void)ctx.shared().Alloc<float>(p2_slots);
    p2_in_shared = true;
  }
  // Scaling by α is part of computing Q; the prefix/tree construction
  // belongs to the p2 sampling step (the paper's Table 1 attribution).
  local.compute_q.flops += K;
  local.sample_p2.flops += 2ull * K;
  if (p2_in_shared) {
    local.sample_p2.shared_write_bytes += p2_slots * 4;
  } else {
    local.sample_p2.global_write_bytes += p2_slots * 4;
  }

  // ---- Per-warp p1 arenas carved out of the remaining shared memory.
  // A p1 tree that fits its warp's arena is billed as shared traffic;
  // one that does not spills to (billed) global memory.
  const size_t shared_left =
      (ctx.shared().capacity() - ctx.shared().used()) / 4;
  const size_t warp_arena_slots = shared_left / samplers;
  if (warp_arena_slots > 0) {
    (void)ctx.shared().Alloc<float>(warp_arena_slots * samplers);
  }
  const size_t p1_arena_slots = cfg.use_shared_trees ? warp_arena_slots : 0;

  // ---- The samplers. One warp = one sampler; tokens are strided across
  // the block's samplers (Figure 6).
  for (uint32_t s = 0; s < samplers; ++s) {
    for (uint64_t t = bw.token_begin + s; t < bw.token_end; t += samplers) {
      const uint32_t local_doc = chunk.layout.token_doc[t];
      ctx.ReadGlobal(8);  // token_doc + token_global (RNG key)

      const auto theta_idx = chunk.theta.RowIndices(local_doc);
      const auto theta_val = chunk.theta.RowValues(local_doc);
      const uint64_t kd = theta_idx.size();
      CULDA_DCHECK(kd > 0);

      // θ_d row: indices via L1 (Section 6.1.2), values from DRAM.
      if (cfg.l1_for_indices) {
        local.compute_s.l1_read_bytes += kd * idx_b;
      } else {
        local.compute_s.global_read_bytes += kd * idx_b;
      }
      local.compute_s.global_read_bytes += kd * 4;

      // p1 values and S = Σ p1 (the sparse bucket mass), kept as the
      // prefix array the p1 draw searches.
      if (scratch.p1_prefix.size() < kd) scratch.p1_prefix.resize(kd);
      const std::span<float> p1_prefix(scratch.p1_prefix.data(), kd);
      const float s_mass =
          P1PrefixSums(theta_idx, theta_val, pstar, p1_prefix);
      CULDA_CHECK_MSG(std::isfinite(s_mass) && s_mass >= 0.0f,
                      "index-tree mass must be finite and non-negative, "
                      "got " << s_mass << " (p1 of word " << w << ")");
      local.compute_s.flops += 2 * kd;
      if (cfg.reuse_pstar) {
        local.compute_s.shared_read_bytes += kd * 4;
      } else {
        // p*(k) recomputed from φ/n_k for every non-zero.
        local.compute_s.global_read_bytes += kd * phi_b;
        local.compute_s.l1_read_bytes += kd * 4;
        local.compute_s.flops += 2 * kd;
      }
      if (!cfg.share_p2_tree) {
        // Without block-level sharing each token pays the p2 work.
        local.compute_q.global_read_bytes += static_cast<uint64_t>(K) * phi_b;
        local.compute_q.global_read_bytes += static_cast<uint64_t>(K) * 4;
        local.compute_q.flops += 3ull * K;
        local.sample_p2.flops += 2ull * K;
        local.sample_p2.global_write_bytes += p2_slots * 4;
      }

      // Private p1 index tree (Figure 6), spilling past shared capacity.
      // Billed as built; the host draws from its leaves (p1_prefix).
      const size_t p1_slots = IndexTreeView::StorageSlots(kd, fanout);
      const bool p1_in_shared = p1_arena_slots >= p1_slots;
      local.sample_p1.flops += kd;
      if (p1_in_shared) {
        local.sample_p1.shared_write_bytes += p1_slots * 4;
      } else {
        local.sample_p1.global_write_bytes += p1_slots * 4;
        ++local.p1_tree_spills;
      }

      // One uniform draw decides the bucket and is reused inside it
      // (u | u < S is U(0, S)). The stream is keyed by the corpus-global
      // token id, so draws are independent of the partition and schedule.
      const uint64_t global_token = chunk.layout.token_global[t];
      PhiloxStream rng(cfg.seed,
                       (static_cast<uint64_t>(in.iteration) << 40) ^
                           global_token);
      const float total = s_mass + q_mass;
      const float u = rng.NextFloat() * total;
      local.compute_s.flops += 2;

      uint32_t new_topic;
      uint64_t inspected = 0;
      if (u < s_mass) {
        const size_t j = SearchPrefixTree(p1_prefix, fanout, u, &inspected);
        new_topic = theta_idx[j];
        local.sample_p1.flops += inspected;
        if (p1_in_shared) {
          local.sample_p1.shared_read_bytes += inspected * 4;
        } else {
          local.sample_p1.global_read_bytes += inspected * 4;
        }
        ++local.p1_branches;
      } else {
        const float u2 = std::min(u - s_mass, q_mass);
        const size_t k =
            SearchPrefixTree(table.p2_prefix, fanout, u2, &inspected);
        new_topic = static_cast<uint32_t>(k);
        local.sample_p2.flops += inspected;
        if (p2_in_shared) {
          local.sample_p2.shared_read_bytes += inspected * 4;
        } else {
          local.sample_p2.global_read_bytes += inspected * 4;
        }
      }

      chunk.z[t] = static_cast<uint16_t>(new_topic);
      ctx.WriteGlobal(2);
      ++local.tokens;
    }
  }
}

/// One block of the kAliasMH kernel (docs/samplers.md). Same launch
/// geometry, RNG keying, and billed-step attribution as the exact kernel;
/// per token it runs `mh_cycles` doc/word proposal pairs against the stale
/// counts instead of the S/Q tree draw. Both proposal families read only
/// iteration-start state (θ̃ rows, φ̃ columns, ñ_k), so assignments are
/// bit-deterministic under any chunk schedule, worker count, or GPU count —
/// the same partition-invariance contract the exact kernel gets from its
/// (seed, iteration, global token) stream keying.
void SampleMhBlock(const SamplingInputs& in, gpusim::BlockContext& ctx,
                   ChunkState& chunk, const WordTable& table,
                   const DocAliases& docs, SamplingStepCounters& local) {
  const CuldaConfig& cfg = in.cfg;
  const corpus::BlockWork& bw = chunk.work[ctx.block_id()];
  const uint32_t K = cfg.num_topics;
  const double alpha_sum = cfg.AlphaSum();
  const bool asym = !cfg.asymmetric_alpha.empty();
  const uint64_t phi_b = cfg.phi_count_bytes();
  const uint64_t idx_b = cfg.theta_index_bytes();
  const std::span<const float> pstar = table.pstar;

  if (ctx.block_id() == 0) {
    // Bill the host-side doc-alias rebuild: read every θ̃ value, write
    // every (prob, alias) cell. Attributed to the doc-proposal step.
    const uint64_t cells = docs.off.back();
    local.sample_p1.global_read_bytes += cells * 4;
    local.sample_p1.global_write_bytes += cells * 6;
    local.sample_p1.flops += 3 * cells;
  }

  // ---- p*(k) = (φ_kv + β) / (n_k + βV): same per-block column pass as
  // the exact kernel (and the same compute_q attribution)...
  local.compute_q.global_read_bytes += static_cast<uint64_t>(K) * phi_b;
  local.compute_q.l1_read_bytes += static_cast<uint64_t>(K) * 4;
  local.compute_q.flops += 2ull * K;

  // ...feeding the block's word-proposal alias over p* instead of the p2
  // index tree. Placed in shared memory when it fits (alias cells are 6
  // bytes/topic vs the tree's 4·slots).
  const uint64_t alias_bytes = static_cast<uint64_t>(K) * 6;
  bool alias_in_shared = false;
  if (ctx.shared().capacity() - ctx.shared().used() >= alias_bytes) {
    (void)ctx.shared().Alloc<float>(K);
    (void)ctx.shared().Alloc<uint16_t>(K);
    alias_in_shared = true;
    local.sample_p2.shared_write_bytes += alias_bytes;
  } else {
    local.sample_p2.global_write_bytes += alias_bytes;
  }
  local.sample_p2.flops += 2ull * K;  // the O(K) small/large pairing

  for (uint64_t t = bw.token_begin; t < bw.token_end; ++t) {
    const uint32_t local_doc = chunk.layout.token_doc[t];
    ctx.ReadGlobal(8);  // token_doc + token_global (RNG key)

    const auto theta_idx = chunk.theta.RowIndices(local_doc);
    const auto theta_val = chunk.theta.RowValues(local_doc);
    const uint64_t kd = theta_idx.size();
    const uint64_t off = docs.off[local_doc];
    const std::span<const float> dprob(docs.prob.data() + off, kd);
    const std::span<const uint16_t> dalias(docs.alias.data() + off, kd);
    const double dlen = docs.len[local_doc];

    PhiloxStream rng(cfg.seed, (static_cast<uint64_t>(in.iteration) << 40) ^
                                   chunk.layout.token_global[t]);
    uint32_t cur = chunk.z[t];
    ctx.ReadGlobal(2);

    for (uint32_t cycle = 0; cycle < in.mh_cycles; ++cycle) {
      // Doc proposal q_d(k) ∝ θ̃_dk + α_k. The θ̃ branch reads one alias
      // cell + one row index; acceptance keeps only the word factor
      // p*(prop)/p*(cur) — the doc factor cancels against the proposal.
      {
        uint32_t prop;
        const double pick = rng.NextDouble() * (dlen + alpha_sum);
        if (pick < dlen) {
          const uint16_t j =
              SampleAlias(dprob, dalias,
                          rng.NextBelow(static_cast<uint32_t>(kd)),
                          rng.NextFloat());
          prop = theta_idx[j];
          local.sample_p1.global_read_bytes += 6 + idx_b;
        } else if (asym) {
          prop = in.alpha_alias.Sample(rng.NextBelow(K), rng.NextFloat());
          local.sample_p1.global_read_bytes += 6;
        } else {
          prop = rng.NextBelow(K);
        }
        const float coin = rng.NextFloat();
        ++local.mh_proposals;
        local.sample_p1.flops += 4;
        if (prop != cur && coin * pstar[cur] < pstar[prop]) {
          cur = prop;
          ++local.mh_accepts;
        }
      }
      // Word proposal q_w(k) ∝ p*(k); acceptance keeps only the doc
      // factor (θ̃ + α), read by binary search of the sorted stale row.
      {
        const uint32_t prop = SampleAlias(table.word_prob, table.word_alias,
                                          rng.NextBelow(K), rng.NextFloat());
        if (alias_in_shared) {
          local.sample_p2.shared_read_bytes += 6;
        } else {
          local.sample_p2.global_read_bytes += 6;
        }
        const float coin = rng.NextFloat();
        ++local.mh_proposals;
        local.sample_p2.flops += 4;
        if (prop != cur) {
          const uint64_t probes =
              kd == 0 ? 1 : (64 - __builtin_clzll(kd)) + 1;
          if (cfg.l1_for_indices) {
            local.compute_s.l1_read_bytes += 2 * probes * idx_b;
          } else {
            local.compute_s.global_read_bytes += 2 * probes * idx_b;
          }
          local.compute_s.global_read_bytes += 2 * 4;
          const double num =
              static_cast<double>(ThetaAt(theta_idx, theta_val, prop)) +
              cfg.AlphaOf(prop);
          const double den =
              static_cast<double>(ThetaAt(theta_idx, theta_val, cur)) +
              cfg.AlphaOf(cur);
          if (coin * den < num) {
            cur = prop;
            ++local.mh_accepts;
          }
        }
      }
    }

    chunk.z[t] = static_cast<uint16_t>(cur);
    ctx.WriteGlobal(2);
    ++local.tokens;
  }
}

/// Merges a block's per-step tallies into its billed counters.
void BillSteps(const SamplingStepCounters& local, gpusim::BlockContext& ctx) {
  for (const gpusim::KernelCounters* c :
       {&local.compute_s, &local.compute_q, &local.sample_p1,
        &local.sample_p2}) {
    ctx.counters().global_read_bytes += c->global_read_bytes;
    ctx.counters().l1_read_bytes += c->l1_read_bytes;
    ctx.counters().global_write_bytes += c->global_write_bytes;
    ctx.counters().shared_read_bytes += c->shared_read_bytes;
    ctx.counters().shared_write_bytes += c->shared_write_bytes;
    ctx.counters().flops += c->flops;
  }
}

gpusim::LaunchConfig SamplingLaunch(const CuldaConfig& cfg,
                                    const ChunkState& chunk) {
  return {static_cast<uint32_t>(chunk.work.size()),
          cfg.samplers_per_block * gpusim::kWarpSize, kSamplingMemDerate};
}

}  // namespace

SamplingPass SampleChunks(const CuldaConfig& cfg, std::span<ChunkState> chunks,
                          std::span<const gpusim::Device* const> billers,
                          const PhiReplica& replica, uint32_t iteration,
                          ThreadPool* pool, TrainSampler sampler,
                          uint32_t mh_cycles) {
  cfg.Validate();
  const bool mh = sampler == TrainSampler::kAliasMH;
  CULDA_CHECK_MSG(!mh || mh_cycles >= 1,
                  "kAliasMH needs at least one MH cycle per token");
  CULDA_CHECK(billers.size() == chunks.size());
  const uint32_t K = cfg.num_topics;
  const uint32_t V = replica.vocab_size;
  CULDA_CHECK(replica.num_topics == K);

  SamplingPass pass;
  pass.chunks.resize(chunks.size());

  // Every chunk's blocks grouped by word (a counting sort), in chunk then
  // block order within a word.
  struct BlockRef {
    uint32_t chunk;
    uint32_t block;
  };
  std::vector<uint64_t> word_begin(static_cast<size_t>(V) + 1, 0);
  for (const ChunkState& chunk : chunks) {
    CULDA_CHECK(chunk.theta.cols() == K);
    for (const corpus::BlockWork& bw : chunk.work) {
      CULDA_DCHECK(bw.word < V);
      ++word_begin[bw.word + 1];
    }
    pass.blocks += chunk.work.size();
  }
  for (uint32_t w = 0; w < V; ++w) word_begin[w + 1] += word_begin[w];
  std::vector<BlockRef> refs(pass.blocks);
  {
    std::vector<uint64_t> cursor(word_begin.begin(), word_begin.end() - 1);
    for (size_t c = 0; c < chunks.size(); ++c) {
      for (size_t b = 0; b < chunks[c].work.size(); ++b) {
        refs[cursor[chunks[c].work[b].word]++] = {static_cast<uint32_t>(c),
                                                  static_cast<uint32_t>(b)};
      }
    }
  }
  // Words are claimed heaviest first, so the last claims are light ones and
  // the workers finish together.
  std::vector<std::pair<uint64_t, uint32_t>> order;  // (tokens, word)
  for (uint32_t w = 0; w < V; ++w) {
    if (word_begin[w] == word_begin[w + 1]) continue;
    uint64_t tokens = 0;
    for (uint64_t r = word_begin[w]; r < word_begin[w + 1]; ++r) {
      tokens += chunks[refs[r].chunk].work[refs[r].block].size();
    }
    order.emplace_back(tokens, w);
  }
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  SamplingInputs in{cfg, replica, sampler, iteration, mh_cycles, {}};
  std::vector<DocAliases> docs(mh ? chunks.size() : 0);
  if (mh) {
    // α-prior alias for the asymmetric doc-proposal branch (symmetric is a
    // uniform pick — a constant-weight alias adds nothing).
    if (!cfg.asymmetric_alpha.empty()) {
      std::vector<float> weights(K);
      for (uint32_t k = 0; k < K; ++k) {
        weights[k] = static_cast<float>(cfg.AlphaOf(k));
      }
      in.alpha_alias.Build(weights);
    }
    const auto build = [&](size_t c) {
      if (!chunks[c].work.empty()) docs[c] = BuildDocAliases(chunks[c]);
    };
    if (pool != nullptr) {
      pool->ParallelFor(chunks.size(), build);
    } else {
      for (size_t c = 0; c < chunks.size(); ++c) build(c);
    }
  }

  // Per-thread partials (slot = worker id + 1), merged in slot order below;
  // every field is an integer, so the totals do not depend on which thread
  // sampled which word.
  struct alignas(64) Partial {
    std::vector<ChunkSamplingTally> chunks;
    uint64_t word_tables = 0;
  };
  std::vector<Partial> partials(pool != nullptr ? pool->worker_count() + 1
                                                : 1);
  for (Partial& p : partials) p.chunks.resize(chunks.size());
  std::atomic<size_t> next{0};
  const auto lane = [&](size_t) {
    Partial& part =
        partials[pool != nullptr ? pool->current_worker_id() + 1 : 0];
    SamplerScratch& scratch = tl_scratch;
    for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                   order.size();) {
      const uint32_t w = order[i].second;
      const WordTable table = BuildWordTable(in, w, scratch);
      ++part.word_tables;
      for (uint64_t r = word_begin[w]; r < word_begin[w + 1]; ++r) {
        const size_t c = refs[r].chunk;
        ChunkState& chunk = chunks[c];
        gpusim::SharedMemory& shared =
            scratch.Arena(billers[c]->spec().shared_mem_per_block);
        shared.Reset();
        gpusim::BlockContext ctx(refs[r].block, SamplingLaunch(cfg, chunk),
                                 &shared);
        SamplingStepCounters local;
        if (mh) {
          SampleMhBlock(in, ctx, chunk, table, docs[c], local);
        } else {
          SampleTreeBlock(in, ctx, chunk, table, scratch, local);
        }
        BillSteps(local, ctx);
        part.chunks[c].counters += ctx.counters();
        part.chunks[c].steps += local;
      }
    }
  };
  if (pool != nullptr && pool->worker_count() > 0 && order.size() > 1) {
    pool->ParallelFor(pool->worker_count() + 1, lane);
  } else {
    lane(0);
  }

  for (const Partial& part : partials) {
    pass.word_tables += part.word_tables;
    for (size_t c = 0; c < chunks.size(); ++c) {
      pass.chunks[c].counters += part.chunks[c].counters;
      pass.chunks[c].steps += part.chunks[c].steps;
    }
  }
  return pass;
}

gpusim::KernelRecord BillSamplingKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        const ChunkState& chunk,
                                        const ChunkSamplingTally& tally,
                                        gpusim::Stream* stream) {
  if (chunk.work.empty()) {
    gpusim::KernelRecord rec;
    rec.name = "sampling";
    return rec;
  }
  CULDA_CHECK_MSG(tally.counters.blocks == chunk.work.size(),
                  "sampling tally of " << tally.counters.blocks
                      << " blocks billed for a chunk of "
                      << chunk.work.size());
  return device.Bill("sampling", SamplingLaunch(cfg, chunk), tally.counters,
                     stream);
}

gpusim::KernelRecord RunSamplingKernel(
    gpusim::Device& device, const CuldaConfig& cfg, ChunkState& chunk,
    const PhiReplica& replica, uint32_t iteration, gpusim::Stream* stream,
    SamplingStepCounters* steps, TrainSampler sampler, uint32_t mh_cycles) {
  const gpusim::Device* biller = &device;
  const SamplingPass pass =
      SampleChunks(cfg, std::span<ChunkState>(&chunk, 1),
                   std::span<const gpusim::Device* const>(&biller, 1),
                   replica, iteration, device.pool(), sampler, mh_cycles);
  if (steps != nullptr) *steps += pass.chunks[0].steps;
  return BillSamplingKernel(device, cfg, chunk, pass.chunks[0], stream);
}

gpusim::KernelRecord RunZeroPhiKernel(gpusim::Device& device,
                                      const CuldaConfig& cfg,
                                      PhiReplica& replica,
                                      gpusim::Stream* stream) {
  replica.Clear();
  return BillZeroPhiKernel(device, cfg, replica, stream);
}

gpusim::KernelRecord BillZeroPhiKernel(gpusim::Device& device,
                                       const CuldaConfig& cfg,
                                       const PhiReplica& replica,
                                       gpusim::Stream* stream) {
  const uint64_t cells =
      static_cast<uint64_t>(replica.num_topics) * replica.vocab_size;
  const gpusim::LaunchConfig lc{
      static_cast<uint32_t>(std::max<uint64_t>(1, cells / (1 << 16))), 1024,
      kStreamMemDerate};
  auto body = [&](gpusim::BlockContext& ctx) {
    // Billed evenly across blocks.
    ctx.WriteGlobal(cells * cfg.phi_count_bytes() / ctx.grid_dim());
  };
  return device.Launch("zero_phi", lc, body, stream);
}

gpusim::KernelRecord RunUpdatePhiKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        const ChunkState& chunk,
                                        PhiReplica& replica,
                                        gpusim::Stream* stream) {
  if (chunk.work.empty()) {
    gpusim::KernelRecord rec;
    rec.name = "update_phi";
    return rec;
  }
  const gpusim::LaunchConfig lc{static_cast<uint32_t>(chunk.work.size()),
                                cfg.samplers_per_block * gpusim::kWarpSize,
                                kUpdateMemDerate};
  auto body = [&](gpusim::BlockContext& ctx) {
    const corpus::BlockWork& bw = chunk.work[ctx.block_id()];
    const uint32_t w = bw.word;
    const std::span<uint16_t> phi_w = replica.phi.Word(w);
    for (uint64_t t = bw.token_begin; t < bw.token_end; ++t) {
      const uint16_t k = chunk.z[t];
      ctx.ReadGlobal(2);  // z
      // Word-first order: all atomics of this block land in column w, which
      // is the data locality Section 6.2 relies on.
      const uint16_t prev =
          ctx.AtomicAdd(phi_w[k], static_cast<uint16_t>(1));
      // Section 6.1.3's 16-bit counts are a claim, not a law of nature —
      // detect the corpus that breaks it instead of silently wrapping.
      CULDA_CHECK_MSG(prev != 0xFFFF,
                      "phi count overflowed 16 bits (word " << w
                          << ", topic " << k << ")");
      ctx.WriteGlobal(cfg.phi_count_bytes());
    }
  };
  return device.Launch("update_phi", lc, body, stream);
}

namespace {

/// Exact host-side θ rebuild from chunk.z (document order — the real
/// kernel's two-pass count/scan/fill produces exactly this matrix). Walks a
/// touched-topic list instead of scanning all K counters per document, so
/// its cost is O(tokens + Σ_d k_d log k_d), not O(docs · K). Shared by the
/// full and delta θ kernels, which differ only in billed traffic.
void RebuildThetaFromZ(ChunkState& chunk, uint32_t K) {
  const uint64_t num_docs = chunk.num_docs();
  ThetaMatrix fresh(num_docs, K);
  ThetaMatrix::RowBuilder builder(&fresh);
  UpdateThetaScratch& scratch = tl_theta_scratch;
  if (scratch.dense.size() < K) scratch.dense.assign(K, 0);
  for (uint64_t d = 0; d < num_docs; ++d) {
    scratch.touched.clear();
    scratch.idx.clear();
    scratch.val.clear();
    for (uint64_t i = chunk.layout.doc_map_offsets[d];
         i < chunk.layout.doc_map_offsets[d + 1]; ++i) {
      const uint16_t k = chunk.z[chunk.layout.doc_map[i]];
      if (scratch.dense[k]++ == 0) scratch.touched.push_back(k);
    }
    // CSR rows store topics in ascending order; the touched list arrives
    // in first-seen order, so sort it (k_d is small — θ is sparse).
    std::sort(scratch.touched.begin(), scratch.touched.end());
    for (const uint16_t k : scratch.touched) {
      scratch.idx.push_back(k);
      scratch.val.push_back(scratch.dense[k]);
      scratch.dense[k] = 0;
    }
    builder.AppendRow(d, scratch.idx, scratch.val);
  }
  builder.Finish();
  chunk.theta = std::move(fresh);
}

}  // namespace

gpusim::KernelRecord RunUpdateThetaKernel(gpusim::Device& device,
                                          const CuldaConfig& cfg,
                                          ChunkState& chunk,
                                          gpusim::Stream* stream) {
  const uint32_t K = cfg.num_topics;
  const uint64_t num_docs = chunk.num_docs();
  if (num_docs == 0) {
    gpusim::KernelRecord rec;
    rec.name = "update_theta";
    return rec;
  }

  // Functional rebuild first; the launch below then bills the traffic the
  // dense-scatter + compaction kernel would move, using the rebuilt matrix's
  // true nnz (the *billed* traffic models the dense zero-and-scan the real
  // kernel performs, even though the host rebuild is sparse).
  RebuildThetaFromZ(chunk, K);

  const uint32_t grid =
      static_cast<uint32_t>(std::min<uint64_t>(num_docs, 4096));
  const gpusim::LaunchConfig lc{grid, 1024, kUpdateMemDerate};
  const uint64_t total_tokens = chunk.num_tokens();
  const uint64_t total_nnz = chunk.theta.nnz();

  auto body = [&](gpusim::BlockContext& ctx) {
    // Billing: every document zeroes a dense K array, scatters its tokens
    // with atomics, then compacts the non-zeros (prefix sum + gather).
    // Uniform per-block split; totals are exact at the launch level.
    const uint64_t docs_here = num_docs / ctx.grid_dim() +
                               (ctx.block_id() < num_docs % ctx.grid_dim());
    const uint64_t tokens_here =
        total_tokens / ctx.grid_dim() +
        (ctx.block_id() < total_tokens % ctx.grid_dim());
    const uint64_t nnz_here = total_nnz / ctx.grid_dim() +
                              (ctx.block_id() < total_nnz % ctx.grid_dim());

    // Dense scatter: zero + atomic increments through the doc map.
    ctx.WriteGlobal(docs_here * K * 4);              // zero dense rows
    ctx.ReadGlobal(tokens_here * (4 + 2));           // doc_map + z
    ctx.counters().atomic_ops += tokens_here;
    ctx.WriteGlobal(tokens_here * 4);                // atomic result
    // Compaction: scan the dense rows, write CSR out.
    ctx.ReadGlobal(docs_here * K * 4);
    ctx.IntOps(docs_here * K);
    ctx.WriteGlobal(nnz_here * (cfg.theta_index_bytes() + 4));
  };
  return device.Launch("update_theta", lc, body, stream);
}

gpusim::KernelRecord RunUpdateThetaDeltaKernel(
    gpusim::Device& device, const CuldaConfig& cfg, ChunkState& chunk,
    uint64_t touched_tokens, gpusim::Stream* stream) {
  const uint32_t K = cfg.num_topics;
  if (chunk.num_docs() == 0 || touched_tokens == 0) {
    // Nothing resampled ⇒ z unchanged ⇒ θ is already consistent.
    gpusim::KernelRecord rec;
    rec.name = "update_theta_delta";
    return rec;
  }
  CULDA_CHECK(touched_tokens <= chunk.num_tokens());

  // Same exact result as the full kernel — θ is a pure function of z — but
  // billed as the incremental kernel: each touched token reads its old and
  // new assignment and applies a −1/+1 atomic pair to its document's θ row,
  // no dense zero-and-scan of untouched documents.
  RebuildThetaFromZ(chunk, K);

  const uint32_t grid = static_cast<uint32_t>(
      std::min<uint64_t>(std::max<uint64_t>(1, touched_tokens / 1024), 4096));
  const gpusim::LaunchConfig lc{grid, 1024, kUpdateMemDerate};
  auto body = [&](gpusim::BlockContext& ctx) {
    const uint64_t tokens_here =
        touched_tokens / ctx.grid_dim() +
        (ctx.block_id() < touched_tokens % ctx.grid_dim());
    // Per token: doc_map entry + old z + new z in, two atomic row updates
    // (decrement old topic, increment new topic) with their results out.
    ctx.ReadGlobal(tokens_here * (4 + 2 + 2));
    ctx.counters().atomic_ops += 2 * tokens_here;
    ctx.WriteGlobal(2 * tokens_here * 4);
    ctx.IntOps(tokens_here);
  };
  return device.Launch("update_theta_delta", lc, body, stream);
}

gpusim::KernelRecord RunComputeNkKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        PhiReplica& replica,
                                        gpusim::Stream* stream) {
  replica.RecomputeTotals();
  return BillComputeNkKernel(device, cfg, replica, stream);
}

gpusim::KernelRecord BillComputeNkKernel(gpusim::Device& device,
                                         const CuldaConfig& cfg,
                                         const PhiReplica& replica,
                                         gpusim::Stream* stream) {
  const uint32_t K = replica.num_topics;
  const gpusim::LaunchConfig lc{std::max(1u, K / 4), 128,
                                kStreamMemDerate};
  auto body = [&](gpusim::BlockContext& ctx) {
    const uint64_t rows_here = K / ctx.grid_dim() +
                               (ctx.block_id() < K % ctx.grid_dim());
    ctx.ReadGlobal(rows_here * replica.vocab_size * cfg.phi_count_bytes());
    ctx.Flops(rows_here * replica.vocab_size);
    ctx.WriteGlobal(rows_here * 4);
  };
  return device.Launch("compute_nk", lc, body, stream);
}

}  // namespace culda::core
