// Sampler tier — exact bucket samplers vs the O(1) alias/MH tier
// (docs/samplers.md).
//
// The exact serving samplers pay O(nnz(θ_d)) (sparse) or O(K) (dense) per
// token; the alias/MH tier pays O(1) per proposal pair regardless of K or
// document length. This bench measures that win single-threaded at several K
// and enforces every correctness gate the tier ships with:
//
//   perf    alias-mh tokens/s vs the sparse bucket sampler at each K; the
//           headline target is ≥3× at K ≥ 1024 (reported in the JSON;
//           machine-dependent, so it is not an exit-code gate).
//   gate 1  SIMD bit-identity: sparse and dense assignments + perplexity are
//           bit-identical with the vectorized hot loops enabled and disabled
//           (simd::SetEnabled), and dense ≡ sparse throughout.
//   gate 2  chi-square GoF (p > 0.01): every sampler mode's single-token
//           conditional matches the closed-form enumeration
//           p(k) ∝ α_k (φ_kv + β)/(n_k + βV); the MH chain gets sweeps to
//           mix (validate::BucketSamplerGof).
//   gate 3  count-marginal conformance: the alias/MH *training* kernel
//           maintains exact count tables (validate::RunCountConformance with
//           TrainSampler::kAliasMH).
//   gate 4  serving convergence parity: held-out document-completion
//           perplexity of the alias/MH engine is within --parity-tol
//           (default 10%) of the sparse sampler's at equal sweeps, at every
//           K measured.
//   gate 5  training convergence parity: same bound for a model trained
//           with the alias/MH kernel vs the exact tree kernel, scored by
//           the exact serving engine.
//
// Emits BENCH_sampler_tier.json; exits nonzero if any correctness gate
// fails.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/inference.hpp"
#include "core/sampler/sampler.hpp"
#include "corpus/split.hpp"
#include "obs/sink.hpp"
#include "util/philox.hpp"
#include "util/simd.hpp"
#include "util/stopwatch.hpp"
#include "validate/conformance.hpp"

using namespace culda;

namespace {

/// A synthetic trained model with converged-looking sparsity: a handful of
/// topics per word with skewed counts (~1% column density at K=1024).
core::GatheredModel MakeModel(uint32_t k_topics, uint32_t vocab,
                              uint64_t seed) {
  core::GatheredModel model;
  model.num_topics = k_topics;
  model.vocab_size = vocab;
  model.phi = core::WordMajorPhi(k_topics, vocab);
  model.nk.assign(k_topics, 0);
  PhiloxStream rng(seed, 0);
  for (uint32_t v = 0; v < vocab; ++v) {
    const uint32_t nnz = 4 + rng.NextBelow(16);
    for (uint32_t i = 0; i < nnz; ++i) {
      const uint32_t k = rng.NextBelow(k_topics);
      model.phi(k, v) = static_cast<uint16_t>(1 + rng.NextBelow(256));
    }
  }
  for (uint32_t k = 0; k < k_topics; ++k) {
    int64_t sum = 0;
    for (uint32_t v = 0; v < vocab; ++v) sum += model.phi(k, v);
    model.nk[k] = static_cast<int32_t>(sum);
  }
  return model;
}

struct ModeRun {
  std::string name;
  double seconds = 0;
  double tokens_per_sec = 0;
  double perplexity = 0;
  std::vector<std::vector<uint16_t>> assignments;
};

ModeRun Run(const std::string& name, const core::GatheredModel& model,
            const core::CuldaConfig& cfg, core::InferSampler sampler,
            const std::vector<std::vector<uint32_t>>& docs,
            const corpus::Corpus& heldout, uint64_t tokens, uint32_t iters,
            uint32_t mh_cycles = 2) {
  core::InferenceOptions options;
  options.sampler = sampler;
  options.mh_cycles = mh_cycles;
  const core::InferenceEngine engine(model, cfg, options);
  ModeRun run;
  run.name = name;
  Stopwatch sw;
  const auto results = engine.InferBatch(docs, iters, /*seed=*/7);
  run.seconds = sw.Seconds();
  run.tokens_per_sec = static_cast<double>(tokens) * iters / run.seconds;
  run.perplexity = engine.DocumentCompletionPerplexity(heldout, iters);
  for (const auto& r : results) run.assignments.push_back(r.assignments);
  return run;
}

struct TierRow {
  uint32_t k = 0;
  double sparse_tps = 0, dense_tps = 0, mh_tps = 0, mh2_tps = 0;
  double sparse_ppl = 0, mh_ppl = 0, mh2_ppl = 0;
  double mh_speedup_vs_sparse = 0;
  double serving_parity_gap = 0;  ///< (ppl_mh − ppl_sparse)/ppl_sparse
  bool simd_bit_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Sampler tier — exact bucket samplers vs O(1) alias/MH",
      "Single-threaded serving throughput by K, plus the tier's statistical "
      "certification gates (docs/samplers.md).");

  const double scale = flags.GetDouble("scale", 0.01);
  const uint32_t iters = static_cast<uint32_t>(flags.GetInt("iters", 5));
  const uint64_t gof_draws =
      static_cast<uint64_t>(flags.GetInt("gof-draws", 20000));
  const uint32_t parity_iters =
      static_cast<uint32_t>(flags.GetInt("parity-iters", 30));
  const double parity_tol = flags.GetDouble("parity-tol", 0.10);
  const std::string out_path =
      flags.GetString("out", "BENCH_sampler_tier.json");
  bench::RejectUnknownFlags(flags);

  const corpus::Corpus corpus =
      corpus::GenerateCorpus(bench::NyTimesBenchProfile(scale));
  std::vector<std::vector<uint32_t>> docs;
  uint64_t tokens = 0;
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    const auto t = corpus.DocTokens(d);
    docs.emplace_back(t.begin(), t.end());
    tokens += t.size();
  }
  std::printf("%s | %u fold-in sweeps, single-threaded\n\n",
              corpus.Summary("held-out").c_str(), iters);

  // --- Throughput by K, with the SIMD bit-identity and serving-parity
  // gates at each K. alias-mh runs the default mh_cycles=1 (the measured
  // tier); alias-mh-x2 shows the extra-mixing configuration.
  std::vector<TierRow> rows;
  bool all_simd_identical = true;
  bool serving_parity_ok = true;
  for (const uint32_t k_topics : {256u, 1024u, 4096u}) {
    core::CuldaConfig cfg;
    cfg.num_topics = k_topics;
    cfg.Validate();
    const core::GatheredModel model = MakeModel(
        k_topics, static_cast<uint32_t>(corpus.vocab_size()), /*seed=*/42);

    simd::SetEnabled(true);
    const ModeRun sparse =
        Run("sparse", model, cfg, core::InferSampler::kSparseBucket, docs,
            corpus, tokens, iters);
    const ModeRun dense =
        Run("dense", model, cfg, core::InferSampler::kDenseReference, docs,
            corpus, tokens, iters);
    const ModeRun mh =
        Run("alias-mh", model, cfg, core::InferSampler::kAliasMH, docs,
            corpus, tokens, iters, /*mh_cycles=*/1);
    const ModeRun mh2 =
        Run("alias-mh-x2", model, cfg, core::InferSampler::kAliasMH, docs,
            corpus, tokens, iters, /*mh_cycles=*/2);
    simd::SetEnabled(false);
    const ModeRun sparse_scalar =
        Run("sparse-scalar", model, cfg, core::InferSampler::kSparseBucket,
            docs, corpus, tokens, iters);
    const ModeRun dense_scalar =
        Run("dense-scalar", model, cfg, core::InferSampler::kDenseReference,
            docs, corpus, tokens, iters);
    simd::SetEnabled(true);

    TierRow row;
    row.k = k_topics;
    row.sparse_tps = sparse.tokens_per_sec;
    row.dense_tps = dense.tokens_per_sec;
    row.mh_tps = mh.tokens_per_sec;
    row.mh2_tps = mh2.tokens_per_sec;
    row.sparse_ppl = sparse.perplexity;
    row.mh_ppl = mh.perplexity;
    row.mh2_ppl = mh2.perplexity;
    row.mh_speedup_vs_sparse = mh.tokens_per_sec / sparse.tokens_per_sec;
    row.serving_parity_gap =
        (mh.perplexity - sparse.perplexity) / sparse.perplexity;
    serving_parity_ok =
        serving_parity_ok && std::abs(row.serving_parity_gap) <= parity_tol;
    row.simd_bit_identical =
        sparse.assignments == sparse_scalar.assignments &&
        sparse.perplexity == sparse_scalar.perplexity &&
        dense.assignments == dense_scalar.assignments &&
        dense.perplexity == dense_scalar.perplexity &&
        dense.assignments == sparse.assignments &&
        dense.perplexity == sparse.perplexity;
    all_simd_identical = all_simd_identical && row.simd_bit_identical;
    rows.push_back(row);
    std::printf(
        "K=%-5u sparse %9.0f  dense %9.0f  alias-mh %9.0f  mh-x2 %9.0f "
        "tokens/s  (mh %.2fx sparse)  simd-identity %s\n"
        "        ppl sparse %.4f  alias-mh %.4f (gap %+.2f%%)  mh-x2 %.4f\n",
        k_topics, sparse.tokens_per_sec, dense.tokens_per_sec,
        mh.tokens_per_sec, mh2.tokens_per_sec, row.mh_speedup_vs_sparse,
        row.simd_bit_identical ? "OK" : "FAILED", sparse.perplexity,
        mh.perplexity, row.serving_parity_gap * 100, mh2.perplexity);
  }

  TextTable table({"K", "sparse Mtok/s", "dense Mtok/s", "alias-mh Mtok/s",
                   "mh-x2 Mtok/s", "mh vs sparse"});
  for (const TierRow& r : rows) {
    table.AddRow({std::to_string(r.k), TextTable::Num(r.sparse_tps / 1e6, 3),
                  TextTable::Num(r.dense_tps / 1e6, 3),
                  TextTable::Num(r.mh_tps / 1e6, 3),
                  TextTable::Num(r.mh2_tps / 1e6, 3),
                  TextTable::Num(r.mh_speedup_vs_sparse, 2) + "x"});
  }
  std::printf("\n");
  table.Print();
  std::printf("serving parity (alias-mh vs sparse ppl, tol %.0f%%): %s\n",
              parity_tol * 100, serving_parity_ok ? "OK" : "FAILED");

  double speedup_at_1024 = 0;
  for (const TierRow& r : rows) {
    if (r.k >= 1024 && r.mh_speedup_vs_sparse > speedup_at_1024) {
      speedup_at_1024 = r.mh_speedup_vs_sparse;
    }
  }
  std::printf("\nalias-mh best speedup at K>=1024: %.2fx (target 3x)\n",
              speedup_at_1024);

  // --- Gate 2: chi-square GoF against the closed-form conditional.
  bool gof_ok = true;
  {
    core::CuldaConfig cfg;
    cfg.num_topics = 256;
    cfg.Validate();
    const core::GatheredModel model = MakeModel(
        256, static_cast<uint32_t>(corpus.vocab_size()), /*seed=*/42);
    std::printf("\nchi-square GoF, closed-form single-token conditional "
                "(%llu draws):\n",
                static_cast<unsigned long long>(gof_draws));
    const struct {
      const char* name;
      core::InferSampler sampler;
      uint32_t sweeps;
    } gof_modes[] = {
        {"sparse", core::InferSampler::kSparseBucket, 1},
        {"dense", core::InferSampler::kDenseReference, 1},
        {"alias-mh", core::InferSampler::kAliasMH, 20},
    };
    for (const auto& m : gof_modes) {
      const auto r = validate::BucketSamplerGof(model, cfg, m.sampler,
                                                /*word=*/11, gof_draws,
                                                /*seed=*/991, m.sweeps);
      const bool ok = r.p_value > 0.01;
      gof_ok = gof_ok && ok;
      std::printf("  %-9s X2=%8.2f dof=%3.0f p=%.4f  %s\n", m.name,
                  r.statistic, r.dof, r.p_value, ok ? "OK" : "FAILED");
    }
  }

  // --- Gate 3: count-marginal conformance under the MH training kernel.
  bool conformance_ok = true;
  {
    corpus::SyntheticProfile profile;
    profile.num_docs = 120;
    profile.vocab_size = 400;
    profile.avg_doc_length = 60;
    const corpus::Corpus small = corpus::GenerateCorpus(profile);
    core::CuldaConfig cfg;
    cfg.num_topics = 64;
    cfg.Validate();
    validate::ConformanceOptions copts;
    copts.iterations = 3;
    copts.sampler = core::TrainSampler::kAliasMH;
    copts.mh_cycles = 2;
    try {
      validate::RunCountConformance(small, cfg, copts);
      std::printf("count-marginal conformance (alias-mh trainer): OK\n");
    } catch (const Error& e) {
      conformance_ok = false;
      std::printf("count-marginal conformance (alias-mh trainer): FAILED\n"
                  "  %s\n",
                  e.what());
    }
  }

  // --- Gate 5: held-out convergence parity, tree vs alias-mh training.
  bool parity_ok = true;
  double ppl_tree = 0, ppl_mh = 0, parity_gap = 0;
  {
    corpus::SyntheticProfile profile;
    profile.num_docs = 500;
    profile.vocab_size = 2000;
    profile.avg_doc_length = 120;
    corpus::Corpus train = corpus::GenerateCorpus(profile);
    auto split = corpus::SplitByDocuments(train, 0.2);
    train = std::move(split.train);
    const corpus::Corpus heldout = std::move(split.heldout);
    core::CuldaConfig cfg;
    cfg.num_topics = 64;
    cfg.Validate();
    const auto train_ppl = [&](core::TrainSampler sampler) {
      core::TrainerOptions topts;
      topts.gpus.assign(1, gpusim::V100Volta());
      topts.sampler = sampler;
      topts.mh_cycles = 2;
      core::CuldaTrainer trainer(train, cfg, topts);
      trainer.Train(parity_iters);
      const core::GatheredModel m = trainer.Gather();
      const core::InferenceEngine engine(m, cfg);
      return engine.DocumentCompletionPerplexity(heldout);
    };
    ppl_tree = train_ppl(core::TrainSampler::kTree);
    ppl_mh = train_ppl(core::TrainSampler::kAliasMH);
    parity_gap = (ppl_mh - ppl_tree) / ppl_tree;
    parity_ok = parity_gap <= parity_tol;
    std::printf(
        "training convergence parity after %u iters: tree ppl %.3f, "
        "alias-mh ppl %.3f (gap %+.2f%%, tol %.0f%%)  %s\n",
        parity_iters, ppl_tree, ppl_mh, parity_gap * 100, parity_tol * 100,
        parity_ok ? "OK" : "FAILED");
  }

  const bool gates_ok = all_simd_identical && serving_parity_ok && gof_ok &&
                        conformance_ok && parity_ok;
  std::printf("\ncorrectness gates: %s\n",
              gates_ok ? "all OK" : "FAILED (see above)");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"sampler_tier\",\n"
       << "  \"metrics_schema\": \"" << obs::kMetricsSchema << "\",\n"
       << "  \"vocab\": " << corpus.vocab_size() << ",\n"
       << "  \"docs\": " << docs.size() << ",\n"
       << "  \"tokens\": " << tokens << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"simd_compiled_on\": "
       << (simd::kCompiledDefault ? "true" : "false")
       << ",\n"
       << "  \"simd_bit_identical\": "
       << (all_simd_identical ? "true" : "false") << ",\n"
       << "  \"gof_ok\": " << (gof_ok ? "true" : "false") << ",\n"
       << "  \"conformance_ok\": " << (conformance_ok ? "true" : "false")
       << ",\n"
       << "  \"serving_parity_ok\": "
       << (serving_parity_ok ? "true" : "false") << ",\n"
       << "  \"train_parity_ppl_tree\": " << ppl_tree << ",\n"
       << "  \"train_parity_ppl_alias_mh\": " << ppl_mh << ",\n"
       << "  \"train_parity_gap\": " << parity_gap << ",\n"
       << "  \"train_parity_ok\": " << (parity_ok ? "true" : "false")
       << ",\n"
       << "  \"mh_speedup_at_k1024\": " << speedup_at_1024 << ",\n"
       << "  \"mh_speedup_target\": 3.0,\n"
       << "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const TierRow& r = rows[i];
    json << "    {\"topics\": " << r.k
         << ", \"sparse_tokens_per_sec\": " << r.sparse_tps
         << ", \"dense_tokens_per_sec\": " << r.dense_tps
         << ", \"alias_mh_tokens_per_sec\": " << r.mh_tps
         << ", \"alias_mh_x2_tokens_per_sec\": " << r.mh2_tps
         << ", \"mh_speedup_vs_sparse\": " << r.mh_speedup_vs_sparse
         << ", \"sparse_perplexity\": " << r.sparse_ppl
         << ", \"alias_mh_perplexity\": " << r.mh_ppl
         << ", \"serving_parity_gap\": " << r.serving_parity_gap << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return gates_ok ? 0 : 1;
}
