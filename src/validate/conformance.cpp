#include "validate/conformance.hpp"

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/cpu_cgs.hpp"
#include "baselines/fplus_lda.hpp"
#include "baselines/gpu_dense.hpp"
#include "baselines/saber_gpu.hpp"
#include "baselines/sparse_lda.hpp"
#include "baselines/warp_mh.hpp"
#include "core/index_tree.hpp"
#include "core/trainer.hpp"
#include "core/word_partition.hpp"
#include "dist/cluster.hpp"
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

/// Runs `check`, rethrowing its failure under `invariant` with the original
/// message.
void Rethrow(std::string_view invariant, std::string_view solver,
             const std::function<void()>& check) {
  try {
    check();
  } catch (const Error& e) {
    Fail(invariant, solver, e.what());
  }
}

/// A solver's gathered θ/φ/n_k must agree exactly with count tables rebuilt
/// from its exported document-major assignments — delayed updates, stale
/// views and MH proposals change *which* z a sampler reaches, never the
/// z-to-counts bookkeeping. The rebuild counts every token under its corpus
/// word and document, so agreement also pins the z-independent marginals:
/// φ column sums are the word frequencies, θ row sums the document lengths.
void CheckRebuild(std::string_view solver, const corpus::Corpus& corpus,
                  const core::GatheredModel& model,
                  std::span<const uint16_t> z) {
  constexpr std::string_view kInvariant = "conformance-rebuild";
  if (z.size() != corpus.num_tokens()) {
    std::ostringstream os;
    os << "exported " << z.size() << " assignments for "
       << corpus.num_tokens() << " tokens";
    Fail(kInvariant, solver, os.str());
  }
  const uint32_t num_topics = model.num_topics;
  sparse::DenseMatrix<int32_t> nw(num_topics, corpus.vocab_size());
  std::vector<int64_t> nk(num_topics, 0);
  const auto words = corpus.words();
  for (size_t t = 0; t < z.size(); ++t) {
    const uint16_t k = z[t];
    if (k >= num_topics) {
      std::ostringstream os;
      os << "token " << t << " assigned out-of-range topic " << k;
      Fail(kInvariant, solver, os.str());
    }
    nw(k, words[t]) += 1;
    nk[k] += 1;
  }
  for (uint32_t k = 0; k < num_topics; ++k) {
    if (nk[k] != static_cast<int64_t>(model.nk[k])) {
      std::ostringstream os;
      os << "topic " << k << ": gathered n_k " << model.nk[k]
         << " but assignments rebuild " << nk[k];
      Fail(kInvariant, solver, os.str());
    }
    const auto rebuilt = nw.Row(k);
    for (size_t v = 0; v < rebuilt.size(); ++v) {
      const uint16_t gathered = model.phi(k, v);
      if (static_cast<int64_t>(gathered) != rebuilt[v]) {
        std::ostringstream os;
        os << "phi(" << k << ", " << v << ") gathered as " << gathered
           << " but assignments rebuild " << rebuilt[v];
        Fail(kInvariant, solver, os.str());
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
        Fail(kInvariant, solver, os.str());
      }
    }
  }
}

/// Trains `solver` (a failed internal check names the solver) and applies
/// every count check: its own self-check (`self_check`, may be empty), the
/// gathered model's invariants, and the rebuild from its assignments.
void CheckSolver(std::string_view name, core::LdaSolver& solver,
                 const corpus::Corpus& corpus, uint32_t iterations,
                 const std::function<void()>& self_check = {}) {
  Rethrow("conformance-train", name, [&] { solver.Train(iterations); });
  if (self_check) Rethrow("conformance-self-consistency", name, self_check);
  const core::GatheredModel model = solver.Gather();
  Rethrow("conformance-gathered-model", name,
          [&] { model.Validate(corpus); });
  CheckRebuild(name, corpus, model, solver.ExportAssignments());
}

}  // namespace

void RunCountConformance(const corpus::Corpus& corpus,
                         const core::CuldaConfig& cfg,
                         const ConformanceOptions& options) {
  CULDA_CHECK(options.gpus >= 1);
  const std::vector<gpusim::DeviceSpec> gpus(options.gpus,
                                             gpusim::V100Volta());
  const uint32_t iters = options.iterations;

  core::TrainerOptions topts;
  topts.gpus = gpus;
  topts.sampler = options.sampler;
  topts.mh_cycles = options.mh_cycles;
  core::CuldaTrainer trainer(corpus, cfg, topts);
  CheckSolver("culda", trainer, corpus, iters,
              [&] { trainer.ValidateState(); });

  core::WordPartitionTrainer by_word(corpus, cfg, gpus);
  CheckSolver("word_partition", by_word, corpus, iters);

  // Two nodes: sync all-reduces φ over the fabric; async samples against
  // per-node staleness views and folds each round's deltas into the model.
  dist::ClusterOptions copts;
  copts.gpus = gpus;
  copts.sampler = options.sampler;
  copts.mh_cycles = options.mh_cycles;
  for (const dist::DistMode mode : {dist::DistMode::kSync,
                                    dist::DistMode::kAsync}) {
    copts.mode = mode;
    dist::ClusterTrainer cluster(corpus, cfg, copts);
    CheckSolver(std::string("cluster_") + dist::DistModeName(mode), cluster,
                corpus, iters);
  }

  baselines::GpuDenseLda dense(corpus, cfg, gpusim::TitanXMaxwell());
  CheckSolver("gpu_dense", dense, corpus, iters);
  baselines::SaberGpuLda saber(corpus, cfg);
  CheckSolver("saber_gpu", saber, corpus, iters);

  baselines::CpuCgs cgs(corpus, cfg);
  CheckSolver("cpu_cgs", cgs, corpus, iters,
              [&] { cgs.state().Validate(); });
  baselines::SparseLdaCgs sparse_lda(corpus, cfg);
  CheckSolver("sparse_lda", sparse_lda, corpus, iters, [&] {
    sparse_lda.state().Validate();
    sparse_lda.ValidateStructures();
  });
  baselines::FPlusLda fplus(corpus, cfg);
  CheckSolver("fplus_lda", fplus, corpus, iters, [&] { fplus.Validate(); });
  baselines::WarpMhSampler warp(corpus, cfg, options.mh_cycles);
  CheckSolver("warp_mh", warp, corpus, iters,
              [&] { warp.state().Validate(); });
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
