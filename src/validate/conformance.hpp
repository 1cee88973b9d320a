// Differential sampler-conformance harness (docs/validation.md).
//
// Two layers of cross-checking:
//
// 1. Count-table conformance. Every core::LdaSolver runs on the same
//    corpus: CuldaTrainer, WordPartitionTrainer, dist::ClusterTrainer (sync
//    and async), the GPU baselines (gpu_dense, saber_gpu) and the CPU
//    baselines (cpu_cgs, sparse_lda, fplus_lda, warp_mh). Their
//    *assignments* legitimately differ (delayed-update vs exact-Gibbs
//    semantics, stale views, distinct RNG contracts), so the harness checks
//    what must hold regardless of sampler semantics: each solver's gathered
//    θ/φ/n_k equal the tables rebuilt from its own exported z, which pins
//    the z-independent marginals — Σ_k n_kv per word (the corpus word
//    frequency), Σ_k n_dk per document (the document length), Σ n_k (the
//    token count) — to the corpus for every solver.
//
// 2. Sampling-distribution conformance. The IndexTreeView search (the
//    paper's Figure 5 structure, on both the training and serving paths) and
//    the serving engine's bucket-decomposed sampler are frequency-tested
//    against exact enumeration of small distributions with a chi-square
//    goodness-of-fit (chi_square.hpp); the harness first surfaced the
//    degenerate-input behaviors fixed in core/index_tree.hpp.
#pragma once

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "core/sampler/sampler.hpp"
#include "corpus/corpus.hpp"
#include "validate/chi_square.hpp"

namespace culda::validate {

struct ConformanceOptions {
  uint32_t iterations = 3;  ///< training iterations per solver
  /// Simulated GPUs of the CuldaTrainer and WordPartitionTrainer runs, and
  /// per node of the two-node cluster runs.
  uint32_t gpus = 1;
  /// Sampler tier of the CuldaTrainer and cluster runs. The count-table
  /// checks are sampler-independent (any correct sampler maintains exact
  /// counts), so running the harness under kAliasMH certifies the MH
  /// kernel's bookkeeping against the same bar as the exact kernel.
  core::TrainSampler sampler = core::TrainSampler::kTree;
  /// kAliasMH proposal pairs; also the WarpLDA-like baseline's cycles.
  uint32_t mh_cycles = 1;
};

/// Runs every solver listed above on `corpus` under `cfg` and applies every
/// count-table check described above. Throws ValidationError naming the
/// first solver/invariant that disagrees.
void RunCountConformance(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         const ConformanceOptions& options = {});

/// Draws `draws` samples from an IndexTreeView built over `p` (uniform u in
/// [0, total mass), deterministic in `seed`) and chi-square-tests the
/// empirical topic frequencies against the exact probabilities p/Σp.
ChiSquareResult TreeSamplingGof(std::span<const float> p, uint32_t fanout,
                                uint64_t draws, uint64_t seed);

/// Frequency-tests the serving engine's per-token conditional.
/// A single-token document of `word` is folded in for `sweeps` sweeps under
/// `draws` distinct seeds; with the token's own count decremented the
/// document bucket is empty, so the exact conditional is enumerable in
/// closed form: p(k) ∝ α_k (φ_kv + β) / (n_k + βV). Returns the chi-square
/// fit of the empirical assignment frequencies against it.
///
/// For the exact modes one sweep samples the conditional directly (they
/// exercise the word-bucket prefix search and the smoothing tree). For
/// kAliasMH the single-token chain is homogeneous with the closed form as
/// its stationary distribution, so `sweeps` controls mixing — pass a few
/// (the word proposal is exact under a symmetric prior, so one proposal
/// pair already mixes fully there).
ChiSquareResult BucketSamplerGof(const core::GatheredModel& model,
                                 const core::CuldaConfig& cfg,
                                 core::InferSampler sampler, uint32_t word,
                                 uint64_t draws, uint64_t seed,
                                 uint32_t sweeps = 1);

}  // namespace culda::validate
