// Held-out inference on a trained model ("fold-in" Gibbs).
//
// The paper's motivation includes serving LDA online (Section 1: "may
// prevent the usage of LDA in many scenarios, e.g., online service"); the
// serving-side operation is: given a trained φ, infer the topic mixture of
// an unseen document. This runs collapsed Gibbs over the new document's
// tokens with φ *fixed* — only the document's own topic counts move — and
// also provides document-completion perplexity, the standard held-out
// quality metric.
//
// Sampling specification (the serving analogue of the paper's Algorithm 2;
// see docs/serving.md). With φ fixed, the fold-in conditional factors into
// three buckets:
//
//   p(z = k | w = v) ∝ n_dk·(φ_kv + β)/(n_k + βV)     Q  doc bucket
//                    + α_k·φ_kv/(n_k + βV)            W  word bucket
//                    + α_k·β/(n_k + βV)               S  smoothing bucket
//
// Q is nonzero only on the document's topics (O(nnz(θ_d)) per token), W only
// on word v's φ column — document-independent, so its mass and an inclusive
// prefix over the column are precomputed once per engine — and S is a model
// constant sampled through a prebuilt F-ary IndexTreeView over the cached
// p*(k) = α_k·β/(n_k + βV) terms. One uniform double per token selects the
// bucket (Q first, then W, then S) and the topic within it by
// minimal-prefix-exceeding-u search.
//
// The two exact sampler modes implement this same specification with
// identical double-precision term order, so their topic assignments — and
// therefore perplexities — are bit-identical; they differ only in per-token
// cost: kDenseReference recomputes the Q and W masses by a full O(K) scan
// of the word's φ counts (contiguous: the model's φ is word-major),
// kSparseBucket reads the cached column mass and walks only the document's
// nonzero topics.
//
// The third mode, kAliasMH, is the production O(1)-per-token tier
// (docs/samplers.md): WarpLDA-class Metropolis–Hastings whose stationary
// distribution is exactly the conditional above. Because φ is frozen in
// serving, its proposal tables are exact (no staleness): a per-word alias
// over the φ column's (φ_kv + β)-proportional mixture plus a shared
// smoothing alias, and a doc proposal drawn from the live n_dk + α_k mixture
// by picking another token's topic. Both acceptance ratios collapse to two
// O(1) factor lookups. Its assignments are *statistically* — not bitwise —
// equivalent to the exact modes; conformance is certified by the chi-square
// GoF harness and the held-out convergence-parity check
// (validate/conformance.hpp, tests/test_sampler_tier.cpp).
//
// RNG contract: each document consumes exactly one PhiloxStream — stream id
// 0 of its seed — advanced in token order: len(doc) NextBelow(K) draws for
// the random init, then one NextDouble per token per sweep (kAliasMH: a
// fixed sequence of draws per proposal pair instead of the single
// NextDouble). This replaces the per-token stream reconstruction of the
// original engine and is pinned by Inference.PinnedSamplingSequence in
// tests/test_inference.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/index_tree.hpp"
#include "core/model.hpp"
#include "core/sampler/alias_table.hpp"
#include "core/topics.hpp"
#include "corpus/corpus.hpp"
#include "util/philox.hpp"
#include "util/thread_pool.hpp"

namespace culda::core {

struct InferenceResult {
  std::vector<int32_t> topic_counts;     ///< length K
  std::vector<DocTopic> mixture;         ///< smoothed, largest first
  std::vector<uint16_t> assignments;     ///< final topic per input token
  uint64_t tokens = 0;                   ///< in-vocabulary tokens used
};

/// Which per-token evaluation strategy the engine uses. The two exact modes
/// produce bit-identical assignments (see the header comment);
/// kDenseReference exists as the O(K)-per-token validation baseline and the
/// bench's "before" measurement. kAliasMH trades bit-equality for O(1)
/// per-token cost and is certified statistically (docs/samplers.md).
enum class InferSampler {
  kSparseBucket,     ///< O(nnz(θ_d)) per token via cached column masses
  kDenseReference,   ///< O(K) per token, full φ-column scan
  kAliasMH,          ///< O(1) per token, alias-table Metropolis–Hastings
};

struct InferenceOptions {
  InferSampler sampler = InferSampler::kSparseBucket;
  /// kAliasMH only: Metropolis–Hastings proposal pairs (one doc proposal +
  /// one word proposal) per token per sweep. One pair per sweep (the
  /// WarpLDA convention) keeps held-out perplexity within the parity
  /// tolerance of the exact samplers at equal sweep counts
  /// (bench_sampler_tier gates this); more pairs buy extra mixing at
  /// proportional cost.
  uint32_t mh_cycles = 1;
  /// Pool for InferBatch / DocumentCompletionPerplexity document fan-out
  /// (nullptr = sequential). Results are bit-identical at any worker count:
  /// documents are independent (one Philox stream each) and reductions run
  /// in document order.
  ThreadPool* pool = nullptr;
  /// Replicate the read-mostly sampling state — φ, the word columns,
  /// alias tables, the smoothing tree — once per socket domain of `pool`,
  /// each copy built (first-touched) on a worker of its own socket so hot
  /// φ reads stay node-local (docs/parallelism.md). The replicas are exact
  /// copies, so assignments and perplexities are bit-identical to the
  /// shared-table mode. No-op without a pool or on single-socket topologies
  /// (socket_count() == 1); hot-swap rebuilds come free because every
  /// ModelSnapshot generation constructs a fresh engine.
  bool numa_replicate = false;
};

class InferenceEngine {
 public:
  /// `model` must outlive the engine. Precomputes the per-topic inverse
  /// denominators 1/(n_k + βV), the smoothing-bucket index tree, and the
  /// per-word topic columns of φ (nonzero topics with inclusive word-bucket
  /// prefix sums, one scan of each word's contiguous counts) — O(K·V) once,
  /// O(nnz(θ_d)) per token after.
  InferenceEngine(const GatheredModel& model, CuldaConfig cfg,
                  InferenceOptions options = {});

  // The smoothing-tree view points into this engine's own storage.
  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  const InferenceOptions& options() const { return options_; }

  /// Infers the topic mixture of a new document given as word ids
  /// (out-of-vocabulary ids are rejected). Deterministic in `seed`.
  InferenceResult InferDocument(std::span<const uint32_t> words,
                                uint32_t iterations = 20,
                                uint64_t seed = 7) const;

  /// Batched fold-in: result[i] is bit-identical to
  /// InferDocument(docs[i], iterations, seeds[i]). Documents fan out over
  /// options().pool with one reusable scratch per worker (zero allocations
  /// per token); sequential when no pool is set.
  std::vector<InferenceResult> InferBatch(
      std::span<const std::vector<uint32_t>> docs, uint32_t iterations,
      std::span<const uint64_t> seeds) const;

  /// Convenience overload: document i uses seed `seed + i`.
  std::vector<InferenceResult> InferBatch(
      std::span<const std::vector<uint32_t>> docs, uint32_t iterations = 20,
      uint64_t seed = 7) const;

  /// Document-completion perplexity over `heldout`: the first half of each
  /// document's tokens estimates θ̂_d by fold-in (seed + d), the second half
  /// is scored:
  ///   ppl = exp( − Σ log p(w | θ̂_d, φ̂) / N_scored ).
  /// Lower is better; a well-trained model beats a random φ by a wide
  /// margin. Documents are scored in parallel on options().pool with
  /// per-document partials reduced in document order, so the value is
  /// bit-identical at any worker count.
  double DocumentCompletionPerplexity(const corpus::Corpus& heldout,
                                      uint32_t iterations = 20,
                                      uint64_t seed = 7) const;

  /// p(w | k) under the smoothed trained model.
  double WordGivenTopic(uint32_t word, uint32_t k) const;

  /// Smoothing-bucket mass S = Σ_k α_k·β/(n_k + βV) (model constant).
  double SmoothingMass() const { return smooth_mass_; }
  /// Word bucket mass W(v) = Σ_k α_k·φ_kv/(n_k + βV).
  double WordMass(uint32_t word) const;

 private:
  /// Reusable per-worker state: the document's dense topic counts, its
  /// sorted nonzero-topic list, and the assignment vector. Reset costs
  /// O(nnz) — only previously touched counts are zeroed. The MH path
  /// appends to `touched` instead of maintaining `nz` sorted per token
  /// (sorted inserts are O(nnz) memmoves — a real cost at MH's per-token
  /// budget) and compacts `touched` into `nz` once at the end of FoldIn.
  struct Scratch {
    std::vector<int32_t> count;    ///< dense, length K (lazily sized)
    std::vector<uint32_t> nz;      ///< nonzero topics, ascending
    std::vector<uint16_t> z;       ///< per-token assignment
    std::vector<uint32_t> touched; ///< MH only: topics ever incremented
  };

  /// Every read-mostly table the per-token hot path touches. The engine
  /// owns one set (tables_), whose φ is the model's own; with
  /// numa_replicate each further socket owns a copy that holds its own φ
  /// (BuildReplicas). Hot functions take a TableSet& so the *same code* runs
  /// against either — bit-identity between shared and replicated mode is
  /// structural, not re-proved per call site.
  struct TableSet {
    /// Word-major φ (V×K, stride = num_topics): word v's K counts are
    /// contiguous. Points at the model's φ, or at own_phi in a replica.
    const uint16_t* phi = nullptr;
    std::vector<uint16_t> own_phi;  ///< replicas only

    // Per-word topic columns: for word v, col_topic[col_ptr[v]..
    // col_ptr[v+1]) are the topics with φ_kv > 0 in ascending order and
    // col_prefix the inclusive prefix sums of their WordTerm values (exact
    // samplers only); word_mass[v] is the column total.
    std::vector<uint64_t> col_ptr;
    std::vector<uint16_t> col_topic;
    std::vector<double> col_prefix;
    std::vector<double> word_mass;

    // kAliasMH proposal state. Word proposals draw from the per-word
    // mixture q_w(k) ∝ (φ_kv + β)·inv_denom[k], split into a φ-sparse part
    // — packed alias cells over each word's column, sharing the col_ptr /
    // col_topic layout — and the shared β-smoothing part (beta_alias over
    // inv_denom). Doc proposals draw from n_dk + α_k by picking another
    // token's topic or falling through to the α prior (alpha_alias in the
    // asymmetric case; uniform otherwise, since a constant-weight alias is
    // just a uniform pick).
    std::vector<double> mh_word_mass;  ///< Σ_k φ_kv·inv_denom[k] per word
    std::vector<float> mh_prob;        ///< packed column alias cells
    std::vector<uint16_t> mh_alias;
    AliasTable beta_alias;   ///< over inv_denom (smoothing branch)
    AliasTable alpha_alias;  ///< over α_k (asymmetric priors only)

    // Smoothing bucket: the F-ary index tree (float, cfg.tree_fanout) over
    // the cached p*(k) terms, which every mode searches through.
    std::vector<float> smooth_storage;
    IndexTreeView smooth_tree;
  };

  uint16_t PhiAt(const TableSet& t, uint32_t k, uint32_t v) const {
    return t.phi[static_cast<size_t>(v) * model_->num_topics + k];
  }

  // Shared term definitions — the bucket masses and their in-bucket
  // prefixes are sums of exactly these expressions in ascending-k order in
  // every code path, which is what makes the two sampler modes bit-equal.
  double DocTerm(uint32_t k, int32_t count, uint16_t phi_kv) const {
    return static_cast<double>(count) *
           ((static_cast<double>(phi_kv) + cfg_.beta) * inv_denom_[k]);
  }
  double WordTerm(uint32_t k, uint16_t phi_kv) const {
    return cfg_.AlphaOf(k) * static_cast<double>(phi_kv) * inv_denom_[k];
  }

  void BuildSmoothingTree();
  void BuildWordColumns();
  void BuildAliasTables();
  /// Builds per-socket TableSet copies (numa_replicate; no-op otherwise).
  void BuildReplicas();
  /// The table set the calling thread should read: its socket's replica
  /// when replicas exist, the engine's own otherwise (and always for socket
  /// 0).
  const TableSet& CurrentTables() const;

  /// Runs the fold-in sweeps for one document into `s` (counts, nz list,
  /// assignments). `words` must all be in-vocabulary (checked). Reads the
  /// calling thread's CurrentTables().
  void FoldIn(std::span<const uint32_t> words, uint32_t iterations,
              uint64_t seed, Scratch& s) const;
  /// The kAliasMH fold-in body (same contract as the exact body above;
  /// called by FoldIn after the shared init).
  void FoldInMh(std::span<const uint32_t> words, uint32_t iterations,
                PhiloxStream& rng, Scratch& s, const TableSet& t) const;
  /// One conditional draw: picks the bucket from `u` ∈ [0, q+w+S) and the
  /// topic within it. `q`/`w` must be this token's bucket masses.
  uint32_t SampleTopic(uint32_t word, double q, double w, double u,
                       const Scratch& s, const TableSet& t) const;
  /// Q and W masses for (document state, word) under the configured mode.
  void BucketMasses(uint32_t word, const Scratch& s, const TableSet& t,
                    double* q, double* w) const;
  void EnsureScratch(Scratch& s) const;
  InferenceResult ResultFromScratch(std::span<const uint32_t> words,
                                    const Scratch& s) const;

  const GatheredModel* model_;
  CuldaConfig cfg_;
  InferenceOptions options_;
  std::vector<double> topic_denom_;  ///< n_k + βV per topic
  std::vector<double> inv_denom_;    ///< 1/(n_k + βV) per topic
  double smooth_mass_ = 0;  ///< S = Σ_k p*(k), in double
  double alpha_sum_ = 0;    ///< Σ_k α_k (kAliasMH)
  double beta_mass_ = 0;    ///< β·Σ_k inv_denom[k] (kAliasMH)

  // The engine's own table set, and the optional per-socket copies.
  // replicas_ is either empty (shared mode / single-socket) or sized
  // pool->socket_count() with entry 0 null — socket 0 reads tables_, which
  // the builder thread first-touched.
  TableSet tables_;
  std::vector<std::unique_ptr<TableSet>> replicas_;
};

}  // namespace culda::core
