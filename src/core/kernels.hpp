// The four GPU kernels of CuLDA_CGS (Section 6).
//
//   sampling      — Algorithm 2: sparsity-aware S/Q decomposition + 32-ary
//                   index-tree sampling, one warp per token, one word per
//                   thread block, shared p*/p2 tree (Figures 5 & 6).
//   update_phi    — rebuild the φ replica from the new assignments with
//                   atomic adds; word-first order gives the atomics locality
//                   (Section 6.2).
//   update_theta  — rebuild θ per document: dense scatter through the
//                   precomputed doc→token map, then prefix-sum compaction
//                   back to CSR (Section 6.2).
//   compute_nk    — derive per-topic totals n_k = Σ_v φ_kv after φ sync.
//
// All kernels are functional (they really produce the new model state) and
// bill their true memory traffic through the BlockContext, which is where
// the simulated times and the Table 1 roofline numbers come from.
//
// Sampling is split into a functional half and a billing half, as zero_phi
// and compute_nk are. SampleChunks samples every chunk that reads one φ in
// one word-major pass before the trainer's device fan-out: each word's p*
// and p2 tree (or word alias) is built once per iteration, not once per
// block per chunk, and each block's counters are recorded as the per-block
// kernel would bill them. BillSamplingKernel then bills each chunk's launch
// on its device at its stream position. RunSamplingKernel is the two halves
// applied to one chunk.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/model.hpp"
#include "core/sampler/sampler.hpp"
#include "gpusim/device.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {

/// Per-step traffic tallies for the Table 1 reproduction: the four steps of
/// one sampling (compute S, compute Q, sample from p1, sample from p2).
struct SamplingStepCounters {
  gpusim::KernelCounters compute_s;
  gpusim::KernelCounters compute_q;
  gpusim::KernelCounters sample_p1;
  gpusim::KernelCounters sample_p2;
  uint64_t tokens = 0;
  uint64_t p1_branches = 0;  ///< tokens resolved from the sparse bucket
  uint64_t p1_tree_spills = 0;  ///< p1 trees that did not fit shared memory
  uint64_t mh_proposals = 0;  ///< kAliasMH: proposal pairs evaluated
  uint64_t mh_accepts = 0;    ///< kAliasMH: proposals accepted

  /// All-integer merge; the trainer reduces per-device partials with this in
  /// fixed device order after a parallel step, so totals are exact and
  /// order-independent.
  SamplingStepCounters& operator+=(const SamplingStepCounters& o) {
    compute_s += o.compute_s;
    compute_q += o.compute_q;
    sample_p1 += o.sample_p1;
    sample_p2 += o.sample_p2;
    tokens += o.tokens;
    p1_branches += o.p1_branches;
    p1_tree_spills += o.p1_tree_spills;
    mh_proposals += o.mh_proposals;
    mh_accepts += o.mh_accepts;
    return *this;
  }
};

/// What one chunk's sampling recorded, for the device that bills it: the
/// summed counters of the chunk's blocks (what Device::Launch would have
/// billed for them) and the chunk's per-step tallies.
struct ChunkSamplingTally {
  gpusim::KernelCounters counters;
  SamplingStepCounters steps;
};

/// Result of one SampleChunks pass.
struct SamplingPass {
  std::vector<ChunkSamplingTally> chunks;  ///< one per input chunk, in order
  uint64_t blocks = 0;       ///< thread blocks sampled, over all chunks
  uint64_t word_tables = 0;  ///< word tables built: one per distinct word
};

/// The functional half of the sampling kernel, over every chunk that reads
/// `replica`: writes a new topic into chunk.z for every token of every
/// chunk, reading θ/φ/n_k of the previous iteration. Deterministic in
/// (cfg.seed, iteration, global token index) under either sampler.
///
/// kTree is Algorithm 2's exact index-tree draw. kAliasMH draws the same
/// stale per-iteration conditional p̃(k) ∝ (θ̃_dk + α_k)·(φ̃_kv + β)/(ñ_k + βV)
/// through `mh_cycles` WarpLDA-style proposal pairs per token: a doc
/// proposal from a per-document alias over the stale θ̃ row (row content is
/// partition-invariant, so determinism holds at any GPU/chunk count) and a
/// word proposal from an alias over p*(k). See docs/samplers.md.
///
/// Every block samples one word, and its p* and p2 tree (kTree) or word
/// alias (kAliasMH) depend only on the word and `replica`. So the pass visits
/// all chunks' blocks word by word, on `pool`, and builds each word's table
/// once for every block of that word in every chunk. Each block is still
/// billed as the paper's kernel builds it: its own table, in the shared
/// memory of `billers[c]`, the device that bills chunks[c]
/// (BillSamplingKernel). See docs/simulator.md, "Functional vs billed work".
SamplingPass SampleChunks(const CuldaConfig& cfg, std::span<ChunkState> chunks,
                          std::span<const gpusim::Device* const> billers,
                          const PhiReplica& replica, uint32_t iteration,
                          ThreadPool* pool,
                          TrainSampler sampler = TrainSampler::kTree,
                          uint32_t mh_cycles = 1);

/// The billing half of the sampling kernel: bills chunk's launch on `device`
/// from the tally SampleChunks recorded for it (billers[c] == &device). A
/// chunk with no blocks gets no launch.
gpusim::KernelRecord BillSamplingKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        const ChunkState& chunk,
                                        const ChunkSamplingTally& tally,
                                        gpusim::Stream* stream = nullptr);

/// Runs the sampling kernel over one chunk: SampleChunks on that chunk (on
/// the device's pool), then BillSamplingKernel. Adds the chunk's per-step
/// tallies to `steps` when given.
gpusim::KernelRecord RunSamplingKernel(
    gpusim::Device& device, const CuldaConfig& cfg, ChunkState& chunk,
    const PhiReplica& replica, uint32_t iteration,
    gpusim::Stream* stream = nullptr, SamplingStepCounters* steps = nullptr,
    TrainSampler sampler = TrainSampler::kTree, uint32_t mh_cycles = 1);

/// Zeroes the φ replica (counts and totals): PhiReplica::Clear, then
/// BillZeroPhiKernel.
gpusim::KernelRecord RunZeroPhiKernel(gpusim::Device& device,
                                      const CuldaConfig& cfg,
                                      PhiReplica& replica,
                                      gpusim::Stream* stream = nullptr);

/// The billing half of RunZeroPhiKernel: launches and bills zeroing a
/// replica of `replica`'s shape on `device`, without touching it. For a
/// caller whose one host φ stands for several device replicas.
gpusim::KernelRecord BillZeroPhiKernel(gpusim::Device& device,
                                       const CuldaConfig& cfg,
                                       const PhiReplica& replica,
                                       gpusim::Stream* stream = nullptr);

/// Accumulates chunk.z into the φ replica with atomic adds.
gpusim::KernelRecord RunUpdatePhiKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        const ChunkState& chunk,
                                        PhiReplica& replica,
                                        gpusim::Stream* stream = nullptr);

/// Rebuilds chunk.theta from chunk.z (dense scatter + compaction).
gpusim::KernelRecord RunUpdateThetaKernel(gpusim::Device& device,
                                          const CuldaConfig& cfg,
                                          ChunkState& chunk,
                                          gpusim::Stream* stream = nullptr);

/// Delta variant for shard-restricted rounds (src/dist): when only
/// `touched_tokens` of the chunk's tokens were resampled (a φ word-shard's
/// slice), the real kernel applies per-token −old/+new adjustments to the
/// affected θ rows instead of the full dense scatter. The functional result
/// is identical to RunUpdateThetaKernel (θ is rebuilt exactly from z); only
/// the billed traffic scales with `touched_tokens`, so a sweep split into N
/// shard rounds is not billed N full θ rebuilds. `touched_tokens` == 0 is a
/// no-op (z unchanged ⇒ θ already consistent).
gpusim::KernelRecord RunUpdateThetaDeltaKernel(
    gpusim::Device& device, const CuldaConfig& cfg, ChunkState& chunk,
    uint64_t touched_tokens, gpusim::Stream* stream = nullptr);

/// Recomputes replica.nk from replica.phi: PhiReplica::RecomputeTotals,
/// then BillComputeNkKernel.
gpusim::KernelRecord RunComputeNkKernel(gpusim::Device& device,
                                        const CuldaConfig& cfg,
                                        PhiReplica& replica,
                                        gpusim::Stream* stream = nullptr);

/// The billing half of RunComputeNkKernel: launches and bills the n_k pass
/// over `replica` on `device`, without touching it.
gpusim::KernelRecord BillComputeNkKernel(gpusim::Device& device,
                                         const CuldaConfig& cfg,
                                         const PhiReplica& replica,
                                         gpusim::Stream* stream = nullptr);

}  // namespace culda::core
