#include "core/inference.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/philox.hpp"
#include "util/simd.hpp"

namespace culda::core {

InferenceEngine::InferenceEngine(const GatheredModel& model, CuldaConfig cfg,
                                 InferenceOptions options)
    : model_(&model), cfg_(std::move(cfg)), options_(options) {
  cfg_.Validate();
  CULDA_CHECK_MSG(model.num_topics == cfg_.num_topics,
                  "model K (" << model.num_topics
                              << ") differs from config K ("
                              << cfg_.num_topics << ")");
  topic_denom_.resize(model.num_topics);
  inv_denom_.resize(model.num_topics);
  for (uint32_t k = 0; k < model.num_topics; ++k) {
    topic_denom_[k] = static_cast<double>(model.nk[k]) +
                      cfg_.beta * model.vocab_size;
    inv_denom_[k] = 1.0 / topic_denom_[k];
  }
  tables_.phi = model.phi.flat().data();
  BuildSmoothingTree();
  BuildWordColumns();
  if (options_.sampler == InferSampler::kAliasMH) {
    CULDA_CHECK_MSG(options_.mh_cycles >= 1,
                    "kAliasMH needs at least one MH cycle per token");
    BuildAliasTables();
  }
  BuildReplicas();
}

void InferenceEngine::BuildReplicas() {
  ThreadPool* pool = options_.pool;
  if (!options_.numa_replicate || pool == nullptr ||
      pool->socket_count() <= 1) {
    return;
  }
  replicas_.resize(pool->socket_count());
  // Each socket's copy is made by (one of) its own workers, so the vector
  // pages are first-touched — and with pinned workers, physically placed —
  // on that socket's NUMA node. Socket 0 keeps reading tables_, which this
  // builder thread already touched.
  pool->ForEachSocket([&](size_t s) {
    if (s == 0) return;
    auto rep = std::make_unique<TableSet>(tables_);
    const auto phi = model_->phi.flat();
    rep->own_phi.assign(phi.begin(), phi.end());
    rep->phi = rep->own_phi.data();
    // Binding a view computes level offsets only — the copied storage
    // already holds the built tree values.
    rep->smooth_tree = IndexTreeView(rep->smooth_storage, model_->num_topics,
                                     cfg_.tree_fanout);
    replicas_[s] = std::move(rep);
  });
}

const InferenceEngine::TableSet& InferenceEngine::CurrentTables() const {
  if (replicas_.empty()) return tables_;
  const TableSet* rep =
      replicas_[static_cast<size_t>(options_.pool->current_socket())].get();
  return rep != nullptr ? *rep : tables_;
}

void InferenceEngine::BuildSmoothingTree() {
  const uint32_t k_topics = model_->num_topics;
  TableSet& t = tables_;
  t.smooth_storage.resize(
      IndexTreeView::StorageSlots(k_topics, cfg_.tree_fanout));
  t.smooth_tree = IndexTreeView(t.smooth_storage, k_topics, cfg_.tree_fanout);
  std::vector<float> terms(k_topics);
  smooth_mass_ = 0;
  if (cfg_.asymmetric_alpha.empty()) {
    // Symmetric prior: p*(k) = (αβ)·inv_denom[k] is one scale-and-narrow
    // batch. Left-to-right `α·β·inv` is (α·β)·inv, so hoisting the product
    // keeps the doubles bitwise equal to the per-k expression below.
    const double s = cfg_.EffectiveAlpha() * cfg_.beta;
    for (uint32_t k = 0; k < k_topics; ++k) smooth_mass_ += s * inv_denom_[k];
    simd::ScaleF64ToF32(inv_denom_.data(), s, terms.data(), k_topics);
  } else {
    for (uint32_t k = 0; k < k_topics; ++k) {
      const double s_k = cfg_.AlphaOf(k) * cfg_.beta * inv_denom_[k];
      smooth_mass_ += s_k;
      terms[k] = static_cast<float>(s_k);
    }
  }
  t.smooth_tree.Build(terms);
}

void InferenceEngine::BuildWordColumns() {
  const uint32_t k_topics = model_->num_topics;
  const uint32_t v_words = model_->vocab_size;
  TableSet& t = tables_;

  // One scan per word over its contiguous K counts lists its nonzero topics
  // in ascending order, so each column comes out sorted and its prefix adds
  // the WordTerm values in the order every sampler mode does. The prefix
  // feeds only the exact samplers' W binary search; kAliasMH replaces it
  // with per-column alias cells (BuildAliasTables), so it is skipped there.
  // word_mass is always needed — it is the sparse/MH scoring W mass.
  const bool need_prefix = options_.sampler != InferSampler::kAliasMH;
  std::vector<uint32_t> nonzero(k_topics);
  const auto list_word = [&](uint32_t v) {
    return simd::NonZeroIndicesU16(t.phi + static_cast<size_t>(v) * k_topics,
                                   k_topics, nonzero.data());
  };
  // A first pass counts the nonzeros, so the columns are allocated once at
  // their final size rather than grown (which would raise peak memory).
  size_t nnz = 0;
  for (uint32_t v = 0; v < v_words; ++v) nnz += list_word(v);
  t.col_topic.reserve(nnz);
  if (need_prefix) t.col_prefix.reserve(nnz);
  t.col_ptr.assign(v_words + 1, 0);
  t.word_mass.assign(v_words, 0.0);
  for (uint32_t v = 0; v < v_words; ++v) {
    const uint16_t* counts = t.phi + static_cast<size_t>(v) * k_topics;
    const size_t n = list_word(v);
    double acc = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k = nonzero[i];
      acc += WordTerm(k, counts[k]);
      t.col_topic.push_back(static_cast<uint16_t>(k));
      if (need_prefix) t.col_prefix.push_back(acc);
    }
    t.word_mass[v] = acc;
    t.col_ptr[v + 1] = t.col_topic.size();
  }
}

void InferenceEngine::BuildAliasTables() {
  const uint32_t k_topics = model_->num_topics;
  const uint32_t v_words = model_->vocab_size;
  TableSet& t = tables_;
  alpha_sum_ = cfg_.AlphaSum();

  // Shared smoothing branch of the word proposal: β·inv_denom[k], drawn
  // through one alias over inv_denom (the β factor cancels in the draw).
  std::vector<float> weights(k_topics);
  beta_mass_ = 0;
  for (uint32_t k = 0; k < k_topics; ++k) {
    beta_mass_ += cfg_.beta * inv_denom_[k];
    weights[k] = static_cast<float>(inv_denom_[k]);
  }
  t.beta_alias.Build(weights);

  // Doc-proposal prior branch: uniform when symmetric (no table needed —
  // a constant-weight alias is just NextBelow(K)), an α_k alias otherwise.
  if (!cfg_.asymmetric_alpha.empty()) {
    for (uint32_t k = 0; k < k_topics; ++k) {
      weights[k] = static_cast<float>(cfg_.AlphaOf(k));
    }
    t.alpha_alias.Build(weights);
  }

  // φ-sparse branch of the word proposal: per-word alias cells over
  // φ_kv·inv_denom[k], packed into two flat arrays sharing the CSC column
  // layout. Serving never mutates φ, so — unlike the trainer's stale-table
  // construction — these proposals are exact for the engine's lifetime.
  t.mh_word_mass.assign(v_words, 0.0);
  t.mh_prob.resize(t.col_topic.size());
  t.mh_alias.resize(t.col_topic.size());
  AliasBuildScratch scratch;
  std::vector<float> col_w;
  for (uint32_t v = 0; v < v_words; ++v) {
    const uint64_t begin = t.col_ptr[v];
    const uint64_t len = t.col_ptr[v + 1] - begin;
    if (len == 0) continue;  // all-zero column: the β branch covers it
    col_w.resize(len);
    for (uint64_t j = 0; j < len; ++j) {
      const uint32_t k = t.col_topic[begin + j];
      col_w[j] = static_cast<float>(static_cast<double>(PhiAt(t, k, v)) *
                                    inv_denom_[k]);
    }
    t.mh_word_mass[v] = BuildAliasInto(
        col_w, std::span<float>(t.mh_prob.data() + begin, len),
        std::span<uint16_t>(t.mh_alias.data() + begin, len), scratch);
  }
}

double InferenceEngine::WordGivenTopic(uint32_t word, uint32_t k) const {
  CULDA_CHECK(word < model_->vocab_size && k < model_->num_topics);
  return (static_cast<double>(model_->phi(k, word)) + cfg_.beta) /
         topic_denom_[k];
}

double InferenceEngine::WordMass(uint32_t word) const {
  CULDA_CHECK(word < model_->vocab_size);
  return tables_.word_mass[word];
}

void InferenceEngine::EnsureScratch(Scratch& s) const {
  if (s.count.size() != model_->num_topics) {
    s.count.assign(model_->num_topics, 0);
    s.nz.clear();
  }
}

namespace {

/// Sorted-insert / sorted-erase maintenance of the nonzero-topic list; the
/// ascending order is load-bearing — every bucket sum iterates it so the
/// float association matches the dense reference's k-ascending scan.
inline void IncCount(std::vector<int32_t>& count, std::vector<uint32_t>& nz,
                     uint32_t k) {
  if (count[k]++ == 0) {
    nz.insert(std::lower_bound(nz.begin(), nz.end(), k), k);
  }
}

inline void DecCount(std::vector<int32_t>& count, std::vector<uint32_t>& nz,
                     uint32_t k) {
  if (--count[k] == 0) {
    nz.erase(std::lower_bound(nz.begin(), nz.end(), k));
  }
}

}  // namespace

void InferenceEngine::BucketMasses(uint32_t word, const Scratch& s,
                                   const TableSet& t, double* q,
                                   double* w) const {
  if (options_.sampler != InferSampler::kDenseReference) {
    // Sparse bucket mode — and kAliasMH scoring, which uses the same exact
    // masses (MH changes how assignments are *sampled*, not how they are
    // scored).
    double acc = 0;
    for (const uint32_t k : s.nz) {
      acc += DocTerm(k, s.count[k], PhiAt(t, k, word));
    }
    *q = acc;
    *w = t.word_mass[word];
    return;
  }
  // Dense reference: one full pass over the word's contiguous φ counts,
  // both masses at once. Q and W accumulate separately, each in ascending-k
  // order over exactly the terms the scalar loop added, so skipping the
  // zero runs of either cursor cannot change a bit.
  double q_acc = 0, w_acc = 0;
  const size_t k_topics = model_->num_topics;
  const uint16_t* col = t.phi + static_cast<size_t>(word) * k_topics;
  const int32_t* cnt = s.count.data();
  size_t kc = simd::NextNonZeroI32(cnt, k_topics, 0);
  size_t kf = simd::NextNonZeroU16(col, k_topics, 0);
  while (kc < k_topics || kf < k_topics) {
    if (kc <= kf) {
      q_acc += DocTerm(static_cast<uint32_t>(kc), cnt[kc], col[kc]);
      if (kc == kf) {
        w_acc += WordTerm(static_cast<uint32_t>(kf), col[kf]);
        kf = simd::NextNonZeroU16(col, k_topics, kf + 1);
      }
      kc = simd::NextNonZeroI32(cnt, k_topics, kc + 1);
    } else {
      w_acc += WordTerm(static_cast<uint32_t>(kf), col[kf]);
      kf = simd::NextNonZeroU16(col, k_topics, kf + 1);
    }
  }
  *q = q_acc;
  *w = w_acc;
}

uint32_t InferenceEngine::SampleTopic(uint32_t word, double q, double w,
                                      double u, const Scratch& s,
                                      const TableSet& t) const {
  const bool sparse = options_.sampler != InferSampler::kDenseReference;
  if (u < q) {
    // Doc bucket: rescan the same DocTerm sequence until the running prefix
    // exceeds u. The final prefix equals q exactly (same terms, same
    // order), so the scan always terminates inside the loop; the clamp is a
    // belt for impossible round-off.
    double acc = 0;
    if (sparse) {
      for (const uint32_t k : s.nz) {
        acc += DocTerm(k, s.count[k], PhiAt(t, k, word));
        if (acc > u) return k;
      }
      return s.nz.back();
    }
    const size_t k_topics = model_->num_topics;
    const uint16_t* col = t.phi + static_cast<size_t>(word) * k_topics;
    const int32_t* cnt = s.count.data();
    uint32_t last = 0;
    for (size_t k = simd::NextNonZeroI32(cnt, k_topics, 0); k < k_topics;
         k = simd::NextNonZeroI32(cnt, k_topics, k + 1)) {
      acc += DocTerm(static_cast<uint32_t>(k), cnt[k], col[k]);
      if (acc > u) return static_cast<uint32_t>(k);
      last = static_cast<uint32_t>(k);
    }
    return last;
  }
  const double uw = u - q;
  if (uw < w) {
    // Word bucket. The sparse mode binary-searches the precomputed column
    // prefix; the dense mode rescans the same WordTerm sequence linearly —
    // the prefix values are bitwise the same, so both find the same topic.
    if (sparse) {
      const uint64_t begin = t.col_ptr[word];
      const uint64_t len = t.col_ptr[word + 1] - begin;
      const std::span<const double> prefix(t.col_prefix.data() + begin, len);
      const size_t j = static_cast<size_t>(
          std::upper_bound(prefix.begin(), prefix.end(), uw) -
          prefix.begin());
      return t.col_topic[begin + std::min(j, static_cast<size_t>(len - 1))];
    }
    const size_t k_topics = model_->num_topics;
    const uint16_t* col = t.phi + static_cast<size_t>(word) * k_topics;
    double acc = 0;
    uint32_t last = 0;
    for (size_t k = simd::NextNonZeroU16(col, k_topics, 0); k < k_topics;
         k = simd::NextNonZeroU16(col, k_topics, k + 1)) {
      acc += WordTerm(static_cast<uint32_t>(k), col[k]);
      if (acc > uw) return static_cast<uint32_t>(k);
      last = static_cast<uint32_t>(k);
    }
    return last;
  }
  // Smoothing bucket: the prebuilt F-ary tree over the cached p*(k) terms
  // (shared by both modes; Search clamps float round-off to K-1).
  const double us = uw - w;
  return static_cast<uint32_t>(t.smooth_tree.Search(static_cast<float>(us)));
}

void InferenceEngine::FoldIn(std::span<const uint32_t> words,
                             uint32_t iterations, uint64_t seed,
                             Scratch& s) const {
  EnsureScratch(s);
  for (const uint32_t k : s.nz) s.count[k] = 0;  // O(nnz) reset
  s.nz.clear();
  s.z.clear();

  for (const uint32_t w : words) {
    CULDA_CHECK_MSG(w < model_->vocab_size,
                    "word id " << w << " not in the trained vocabulary");
  }
  if (words.empty()) return;

  // One counter-advanced stream per document (stream id 0 of `seed`):
  // len NextBelow draws for the init, then the per-token sweep draws
  // (exact modes: one NextDouble; kAliasMH: the proposal-pair sequence).
  // Pinned by Inference.PinnedSamplingSequence.
  PhiloxStream rng(seed, 0);
  s.z.resize(words.size());
  // Resolved once per document: the socket a document runs on is fixed for
  // its whole fold-in (ThreadPool shard bodies never migrate mid-shard).
  const TableSet& t = CurrentTables();

  if (options_.sampler == InferSampler::kAliasMH) {
    // The MH path keeps only the dense counts hot during sweeps, logging
    // first-touches instead of maintaining the sorted nz list per token;
    // the list is compacted once here at the end for the result/scoring
    // contract (nz ascending, counts positive).
    s.touched.clear();
    for (size_t i = 0; i < words.size(); ++i) {
      const uint32_t k = rng.NextBelow(model_->num_topics);
      s.z[i] = static_cast<uint16_t>(k);
      if (s.count[k]++ == 0) s.touched.push_back(k);
    }
    FoldInMh(words, iterations, rng, s, t);
    std::sort(s.touched.begin(), s.touched.end());
    for (const uint32_t k : s.touched) {
      if (s.count[k] > 0 && (s.nz.empty() || s.nz.back() != k)) {
        s.nz.push_back(k);
      }
    }
    return;
  }

  for (size_t i = 0; i < words.size(); ++i) {
    const uint32_t k = rng.NextBelow(model_->num_topics);
    s.z[i] = static_cast<uint16_t>(k);
    IncCount(s.count, s.nz, k);
  }
  for (uint32_t it = 1; it <= iterations; ++it) {
    for (size_t i = 0; i < words.size(); ++i) {
      const uint32_t v = words[i];
      DecCount(s.count, s.nz, s.z[i]);
      double q, w;
      BucketMasses(v, s, t, &q, &w);
      const double u = rng.NextDouble() * ((q + w) + smooth_mass_);
      const uint32_t k = SampleTopic(v, q, w, u, s, t);
      s.z[i] = static_cast<uint16_t>(k);
      IncCount(s.count, s.nz, k);
    }
  }
}

void InferenceEngine::FoldInMh(std::span<const uint32_t> words,
                               uint32_t iterations, PhiloxStream& rng,
                               Scratch& s, const TableSet& t) const {
  const uint32_t k_topics = model_->num_topics;
  const size_t len = words.size();
  // Doc-proposal mixture mass: the len−1 *other* tokens plus the α prior.
  // With the current token excluded the token branch is never taken for a
  // one-token document (len1 == 0 and pick ≥ 0), so the prior branch covers
  // it — no special case.
  const double len1 = static_cast<double>(len - 1);
  const bool asym = !cfg_.asymmetric_alpha.empty();
  const double beta = cfg_.beta;
  // Symmetric prior hoisted out of the acceptance ratio (AlphaOf divides).
  const double* alpha_vec = asym ? cfg_.asymmetric_alpha.data() : nullptr;
  const double alpha_sym = asym ? 0.0 : cfg_.EffectiveAlpha();
  const auto alpha_at = [&](uint32_t k) {
    return alpha_vec != nullptr ? alpha_vec[k] : alpha_sym;
  };

  for (uint32_t it = 1; it <= iterations; ++it) {
    for (size_t i = 0; i < len; ++i) {
      const uint32_t v = words[i];
      uint32_t cur = s.z[i];
      --s.count[cur];  // token i excluded for the whole proposal chain

      const uint64_t begin = t.col_ptr[v];
      const uint64_t clen = t.col_ptr[v + 1] - begin;
      const std::span<const float> cprob(t.mh_prob.data() + begin, clen);
      const std::span<const uint16_t> calias(t.mh_alias.data() + begin, clen);
      const double mv = t.mh_word_mass[v];
      const double wmass = mv + beta_mass_;
      // Word-likelihood term of the current topic, kept across the proposal
      // chain so a rejected proposal costs one φ lookup, not two. Coins and
      // mixture picks are 24-bit floats (coins drawn lazily — prop == cur
      // is a no-op either way); like NextBelow's 2^-32 mapping bias, the
      // 2^-24 granularity is far below sampling noise.
      double cur_term =
          (static_cast<double>(PhiAt(t, cur, v)) + beta) * inv_denom_[cur];

      for (uint32_t cycle = 0; cycle < options_.mh_cycles; ++cycle) {
        // Doc proposal q_d(k) ∝ n_dk^{¬i} + α_k: pick another token's
        // current topic (counts branch) or draw from the prior. Acceptance
        // keeps only the word-likelihood factor — the doc factor cancels
        // against the proposal.
        {
          uint32_t prop;
          const double pick =
              static_cast<double>(rng.NextFloat()) * (len1 + alpha_sum_);
          if (pick < len1) {
            uint32_t j = rng.NextBelow(static_cast<uint32_t>(len - 1));
            if (j >= i) ++j;  // uniform over the len−1 tokens ≠ i
            prop = s.z[j];
          } else if (asym) {
            prop = t.alpha_alias.Sample(rng.NextBelow(k_topics),
                                         rng.NextFloat());
          } else {
            prop = rng.NextBelow(k_topics);
          }
          if (prop != cur) {
            const double num =
                (static_cast<double>(PhiAt(t, prop, v)) + beta) *
                inv_denom_[prop];
            if (static_cast<double>(rng.NextFloat()) * cur_term < num) {
              cur = prop;
              cur_term = num;
            }
          }
        }
        // Word proposal q_w(k) ∝ (φ_kv + β)·inv_denom[k]: φ-sparse alias
        // column or the shared β-smoothing alias. Acceptance keeps only the
        // doc factor n^{¬i} + α.
        {
          uint32_t prop;
          const double pick = static_cast<double>(rng.NextFloat()) * wmass;
          if (pick < mv) {
            prop = t.col_topic[begin + SampleAlias(cprob, calias,
                                                   rng.NextBelow(
                                                       static_cast<uint32_t>(
                                                           clen)),
                                                   rng.NextFloat())];
          } else {
            prop = t.beta_alias.Sample(rng.NextBelow(k_topics),
                                        rng.NextFloat());
          }
          if (prop != cur) {
            const double num =
                static_cast<double>(s.count[prop]) + alpha_at(prop);
            const double den =
                static_cast<double>(s.count[cur]) + alpha_at(cur);
            if (static_cast<double>(rng.NextFloat()) * den < num) {
              cur = prop;
              cur_term = (static_cast<double>(PhiAt(t, cur, v)) + beta) *
                         inv_denom_[cur];
            }
          }
        }
      }

      s.z[i] = static_cast<uint16_t>(cur);
      if (s.count[cur]++ == 0) s.touched.push_back(cur);
    }
  }
}

InferenceResult InferenceEngine::ResultFromScratch(
    std::span<const uint32_t> words, const Scratch& s) const {
  InferenceResult result;
  result.topic_counts.assign(model_->num_topics, 0);
  result.tokens = words.size();
  result.assignments.assign(s.z.begin(), s.z.end());
  const double denom = static_cast<double>(words.size()) + cfg_.AlphaSum();
  for (const uint32_t k : s.nz) {
    result.topic_counts[k] = s.count[k];
    result.mixture.push_back(
        {k, s.count[k], (s.count[k] + cfg_.AlphaOf(k)) / denom});
  }
  // Smoothed mixture, largest first.
  std::sort(result.mixture.begin(), result.mixture.end(),
            [](const DocTopic& a, const DocTopic& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.topic < b.topic;
            });
  return result;
}

InferenceResult InferenceEngine::InferDocument(
    std::span<const uint32_t> words, uint32_t iterations,
    uint64_t seed) const {
  Scratch s;
  FoldIn(words, iterations, seed, s);
  return ResultFromScratch(words, s);
}

std::vector<InferenceResult> InferenceEngine::InferBatch(
    std::span<const std::vector<uint32_t>> docs, uint32_t iterations,
    std::span<const uint64_t> seeds) const {
  CULDA_CHECK_MSG(seeds.size() == docs.size(),
                  "InferBatch needs one seed per document (got "
                      << seeds.size() << " for " << docs.size() << ")");
  CULDA_OBS_SPAN("infer/batch");
  CULDA_OBS_TIMED("infer.batch_seconds");
  std::vector<InferenceResult> results(docs.size());
  ThreadPool* pool = options_.pool;
  const size_t slots = pool != nullptr ? pool->worker_count() + 1 : 1;
  std::vector<Scratch> scratch(slots);
  const auto body = [&](size_t i) {
    CULDA_OBS_TIMED("infer.doc_seconds");
    Scratch& s =
        scratch[pool != nullptr ? pool->current_worker_id() + 1 : 0];
    FoldIn(docs[i], iterations, seeds[i], s);
    results[i] = ResultFromScratch(docs[i], s);
  };
  if (pool != nullptr) {
    pool->ParallelFor(docs.size(), body);
  } else {
    for (size_t i = 0; i < docs.size(); ++i) body(i);
  }
  CULDA_OBS_COUNT("infer.batches", 1);
  CULDA_OBS_COUNT("infer.docs", docs.size());
  if (CULDA_OBS_ENABLED()) {
    uint64_t tokens = 0;
    for (const auto& r : results) tokens += r.tokens;
    CULDA_OBS_COUNT("infer.tokens", tokens);
  }
  return results;
}

std::vector<InferenceResult> InferenceEngine::InferBatch(
    std::span<const std::vector<uint32_t>> docs, uint32_t iterations,
    uint64_t seed) const {
  std::vector<uint64_t> seeds(docs.size());
  for (size_t i = 0; i < seeds.size(); ++i) seeds[i] = seed + i;
  return InferBatch(docs, iterations, seeds);
}

double InferenceEngine::DocumentCompletionPerplexity(
    const corpus::Corpus& heldout, uint32_t iterations,
    uint64_t seed) const {
  CULDA_CHECK(heldout.vocab_size() <= model_->vocab_size);
  CULDA_OBS_SPAN("infer/perplexity");
  CULDA_OBS_TIMED("infer.ppl_wall_s");

  // Per-document partials reduced in document order below: the value is
  // independent of the worker count (and of whether a pool is set at all).
  const size_t num_docs = heldout.num_docs();
  std::vector<double> partial(num_docs, 0.0);
  std::vector<uint64_t> scored(num_docs, 0);
  ThreadPool* pool = options_.pool;
  const size_t slots = pool != nullptr ? pool->worker_count() + 1 : 1;
  std::vector<Scratch> scratch(slots);
  const auto body = [&](size_t d) {
    CULDA_OBS_TIMED("infer.ppl_doc_seconds");
    const auto tokens = heldout.DocTokens(d);
    if (tokens.size() < 2) return;
    Scratch& s =
        scratch[pool != nullptr ? pool->current_worker_id() + 1 : 0];
    const size_t half = tokens.size() / 2;
    FoldIn(tokens.subspan(0, half), iterations, seed + d, s);
    const TableSet& t = CurrentTables();
    const double denom = static_cast<double>(half) + cfg_.AlphaSum();
    double log_prob = 0;
    for (size_t i = half; i < tokens.size(); ++i) {
      double q, w;
      BucketMasses(tokens[i], s, t, &q, &w);
      // p(w | θ̂_d, φ̂) = (Q + W + S) / (half + Σα) — the same bucket sums
      // as sampling, so dense and sparse scoring agree bitwise too.
      log_prob += std::log(((q + w) + smooth_mass_) / denom);
    }
    partial[d] = log_prob;
    scored[d] = tokens.size() - half;
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_docs, body);
  } else {
    for (size_t d = 0; d < num_docs; ++d) body(d);
  }

  double log_prob = 0;
  uint64_t total_scored = 0;
  for (size_t d = 0; d < num_docs; ++d) {
    log_prob += partial[d];
    total_scored += scored[d];
  }
  CULDA_CHECK_MSG(total_scored > 0,
                  "held-out corpus has no scorable tokens");
  CULDA_OBS_COUNT("infer.tokens_scored", total_scored);
  return std::exp(-log_prob / static_cast<double>(total_scored));
}

}  // namespace culda::core
