#include "validate/conformance.hpp"

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cpu_cgs.hpp"
#include "baselines/fplus_lda.hpp"
#include "baselines/sparse_lda.hpp"
#include "core/index_tree.hpp"
#include "core/trainer.hpp"
#include "gpusim/multi_gpu.hpp"
#include "sparse/dense.hpp"
#include "util/philox.hpp"
#include "validate/invariants.hpp"

namespace culda::validate {

namespace {

[[noreturn]] void Fail(std::string_view invariant, std::string_view solver,
                       const std::string& detail) {
  std::ostringstream os;
  os << solver << ": " << detail;
  throw ValidationError(std::string(invariant), os.str());
}

/// The z-independent marginals every exact-count solver must satisfy:
/// column sums of the topic–word table are the corpus word frequencies, row
/// sums of the document–topic table are the document lengths, and both grand
/// totals are the token count. `nw` is K×V, `nd` is D×K.
void CheckDenseMarginals(std::string_view solver,
                         const corpus::Corpus& corpus,
                         const sparse::DenseMatrix<int32_t>& nd,
                         const sparse::DenseMatrix<int32_t>& nw,
                         std::span<const uint64_t> word_freq) {
  const size_t num_topics = nw.rows();
  const size_t vocab = nw.cols();
  std::vector<int64_t> col_sum(vocab, 0);
  int64_t nw_total = 0;
  for (size_t k = 0; k < num_topics; ++k) {
    for (const int32_t c : nw.Row(k)) {
      if (c < 0) {
        std::ostringstream os;
        os << "negative topic-word count " << c << " at topic " << k;
        Fail("conformance-word-marginal", solver, os.str());
      }
    }
    const auto row = nw.Row(k);
    for (size_t v = 0; v < vocab; ++v) {
      col_sum[v] += row[v];
      nw_total += row[v];
    }
  }
  for (size_t v = 0; v < vocab; ++v) {
    if (col_sum[v] != static_cast<int64_t>(word_freq[v])) {
      std::ostringstream os;
      os << "word " << v << " has topic-word column sum " << col_sum[v]
         << " but corpus frequency " << word_freq[v];
      Fail("conformance-word-marginal", solver, os.str());
    }
  }
  if (nw_total != static_cast<int64_t>(corpus.num_tokens())) {
    std::ostringstream os;
    os << "topic-word grand total " << nw_total << " != corpus tokens "
       << corpus.num_tokens();
    Fail("conformance-token-total", solver, os.str());
  }
  for (size_t d = 0; d < nd.rows(); ++d) {
    int64_t row_sum = 0;
    for (const int32_t c : nd.Row(d)) row_sum += c;
    if (row_sum != static_cast<int64_t>(corpus.DocLength(d))) {
      std::ostringstream os;
      os << "document " << d << " has doc-topic row sum " << row_sum
         << " but length " << corpus.DocLength(d);
      Fail("conformance-doc-marginal", solver, os.str());
    }
  }
}

/// Rethrows a solver's own Validate() failure under the conformance
/// invariant name, preserving the original message.
template <typename Fn>
void RunSelfConsistency(std::string_view solver, const Fn& fn) {
  try {
    fn();
  } catch (const Error& e) {
    Fail("conformance-self-consistency", solver, e.what());
  }
}

/// The trainer's gathered θ/φ/n_k must agree exactly with count tables
/// rebuilt from its exported document-major assignments — the delayed-update
/// semantics change *which* z the sampler converges to, never the
/// z-to-counts bookkeeping.
void CheckTrainerRebuild(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         const core::GatheredModel& model,
                         std::span<const uint16_t> z) {
  constexpr std::string_view kSolver = "culda";
  if (z.size() != corpus.num_tokens()) {
    std::ostringstream os;
    os << "exported " << z.size() << " assignments for "
       << corpus.num_tokens() << " tokens";
    Fail("conformance-trainer-rebuild", kSolver, os.str());
  }
  const uint32_t num_topics = cfg.num_topics;
  sparse::DenseMatrix<int32_t> nw(num_topics, corpus.vocab_size());
  std::vector<int64_t> nk(num_topics, 0);
  const auto words = corpus.words();
  for (size_t t = 0; t < z.size(); ++t) {
    const uint16_t k = z[t];
    if (k >= num_topics) {
      std::ostringstream os;
      os << "token " << t << " assigned out-of-range topic " << k;
      Fail("conformance-trainer-rebuild", kSolver, os.str());
    }
    nw(k, words[t]) += 1;
    nk[k] += 1;
  }
  for (uint32_t k = 0; k < num_topics; ++k) {
    if (nk[k] != static_cast<int64_t>(model.nk[k])) {
      std::ostringstream os;
      os << "topic " << k << ": gathered n_k " << model.nk[k]
         << " but assignments rebuild " << nk[k];
      Fail("conformance-trainer-rebuild", kSolver, os.str());
    }
    const auto rebuilt = nw.Row(k);
    for (size_t v = 0; v < rebuilt.size(); ++v) {
      const uint16_t gathered = model.phi(k, v);
      if (static_cast<int64_t>(gathered) != rebuilt[v]) {
        std::ostringstream os;
        os << "phi(" << k << ", " << v << ") gathered as " << gathered
           << " but assignments rebuild " << rebuilt[v];
        Fail("conformance-trainer-rebuild", kSolver, os.str());
      }
    }
  }
  std::vector<int32_t> row(num_topics, 0);
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    std::fill(row.begin(), row.end(), 0);
    const uint64_t begin = corpus.DocBegin(d);
    for (uint64_t t = 0; t < corpus.DocLength(d); ++t) row[z[begin + t]] += 1;
    for (uint32_t k = 0; k < num_topics; ++k) {
      const int32_t gathered = model.theta.At(d, static_cast<uint16_t>(k));
      if (gathered != row[k]) {
        std::ostringstream os;
        os << "theta(" << d << ", " << k << ") gathered as " << gathered
           << " but assignments rebuild " << row[k];
        Fail("conformance-trainer-rebuild", kSolver, os.str());
      }
    }
  }
}

}  // namespace

void RunCountConformance(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         const ConformanceOptions& options) {
  CULDA_CHECK(options.gpus >= 1);
  const std::vector<uint64_t> word_freq = corpus.WordFrequencies();

  // CuLDA trainer: gathered-model invariants plus the z→counts rebuild.
  core::TrainerOptions topts;
  topts.gpus.assign(options.gpus, gpusim::V100Volta());
  topts.sampler = options.sampler;
  topts.mh_cycles = options.mh_cycles;
  core::CuldaTrainer trainer(corpus, cfg, topts);
  trainer.Train(options.iterations);
  const core::GatheredModel model = trainer.Gather();
  RunSelfConsistency("culda", [&] { model.Validate(corpus); });
  CheckTrainerRebuild(corpus, cfg, model, trainer.ExportAssignments());

  // Exact dense CGS.
  baselines::CpuCgs cgs(corpus, cfg);
  for (uint32_t i = 0; i < options.iterations; ++i) cgs.Step();
  RunSelfConsistency("cpu_cgs", [&] { cgs.state().Validate(); });
  CheckDenseMarginals("cpu_cgs", corpus, cgs.state().nd, cgs.state().nw,
                      word_freq);

  // SparseLDA: dense counts plus its word-topic list structures.
  baselines::SparseLdaCgs sparse_lda(corpus, cfg);
  for (uint32_t i = 0; i < options.iterations; ++i) sparse_lda.Step();
  RunSelfConsistency("sparse_lda", [&] {
    sparse_lda.state().Validate();
    sparse_lda.ValidateStructures();
  });
  CheckDenseMarginals("sparse_lda", corpus, sparse_lda.state().nd,
                      sparse_lda.state().nw, word_freq);

  // F+LDA: word-major sweep with the F+ tree.
  baselines::FPlusLda fplus(corpus, cfg);
  for (uint32_t i = 0; i < options.iterations; ++i) fplus.Step();
  RunSelfConsistency("fplus_lda", [&] { fplus.Validate(); });
  CheckDenseMarginals("fplus_lda", corpus, fplus.nd(), fplus.nw(), word_freq);
}

ChiSquareResult TreeSamplingGof(std::span<const float> p, uint32_t fanout,
                                uint64_t draws, uint64_t seed) {
  CULDA_CHECK_MSG(!p.empty() && draws > 0,
                  "TreeSamplingGof needs a distribution and draws");
  core::IndexTree tree(p.size(), fanout);
  const float total = tree.view().Build(p);
  CULDA_CHECK_MSG(total > 0.0f, "TreeSamplingGof needs positive total mass");

  std::vector<uint64_t> observed(p.size(), 0);
  PhiloxStream rng(seed, /*stream=*/0);
  for (uint64_t d = 0; d < draws; ++d) {
    const float u = static_cast<float>(rng.NextDouble()) * total;
    observed[tree.view().Search(u)] += 1;
  }

  double mass = 0;
  for (const float pi : p) mass += pi;
  std::vector<double> expected(p.size());
  for (size_t i = 0; i < p.size(); ++i) {
    expected[i] = static_cast<double>(p[i]) / mass *
                  static_cast<double>(draws);
  }
  return ChiSquareGof(observed, expected);
}

ChiSquareResult BucketSamplerGof(const core::GatheredModel& model,
                                 const core::CuldaConfig& cfg,
                                 core::InferSampler sampler, uint32_t word,
                                 uint64_t draws, uint64_t seed,
                                 uint32_t sweeps) {
  CULDA_CHECK(word < model.vocab_size);
  CULDA_CHECK(draws > 0 && sweeps > 0);
  core::InferenceOptions opts;
  opts.sampler = sampler;
  const core::InferenceEngine engine(model, cfg, opts);

  // One token per draw: with the token's own count decremented every draw
  // is distributed exactly as the closed-form conditional
  // p(k) ∝ α_k (φ_kv + β) / (n_k + βV) — see the header comment. The exact
  // modes need one sweep; kAliasMH mixes over `sweeps`.
  const std::vector<uint32_t> doc = {word};
  std::vector<uint64_t> observed(cfg.num_topics, 0);
  for (uint64_t d = 0; d < draws; ++d) {
    const core::InferenceResult r =
        engine.InferDocument(doc, sweeps, seed + d);
    observed[r.assignments[0]] += 1;
  }

  const double beta_v = cfg.beta * static_cast<double>(model.vocab_size);
  std::vector<double> expected(cfg.num_topics);
  double mass = 0;
  for (uint32_t k = 0; k < cfg.num_topics; ++k) {
    const double phi_kv = static_cast<double>(model.phi(k, word));
    expected[k] = cfg.AlphaOf(k) * (phi_kv + cfg.beta) /
                  (static_cast<double>(model.nk[k]) + beta_v);
    mass += expected[k];
  }
  for (double& e : expected) e *= static_cast<double>(draws) / mass;
  return ChiSquareGof(observed, expected);
}

}  // namespace culda::validate
