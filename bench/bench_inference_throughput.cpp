// Inference throughput — tokens/sec of the serving engine's sampler modes.
//
// The serving path (docs/serving.md) splits the fold-in conditional into the
// Q/W/S buckets so per-token cost drops from O(K) to O(nnz(θ_d)). This bench
// measures that win directly: it builds a realistically sparse φ at K=1024,
// folds the same documents through (a) the dense O(K) reference sampler,
// (b) the sparse bucket sampler, and (c) the sparse sampler batched over a
// ThreadPool, and reports tokens/sec for each. It also enforces the
// bit-identity contract — dense and sparse must produce the same topic
// assignments and the same document-completion perplexity bit for bit, and
// batched results must match sequential ones — exiting nonzero on any
// mismatch. A fourth run repeats sparse+batched with the observability
// layer enabled (metrics + span tracing) to measure the instrumentation
// overhead against its ≤3% tokens/s budget and to pin bit-identity with
// instrumentation on. Emits BENCH_inference_throughput.json.
#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "core/inference.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/sink.hpp"
#include "util/philox.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

using namespace culda;

namespace {

/// A synthetic trained model: every word gets a handful of topics with
/// Zipf-ish counts, so φ columns have the sparsity a converged model shows
/// (nnz per column ≪ K). θ is irrelevant to serving and left empty.
core::GatheredModel MakeModel(uint32_t k_topics, uint32_t vocab,
                              uint64_t seed) {
  core::GatheredModel model;
  model.num_topics = k_topics;
  model.vocab_size = vocab;
  model.phi = core::WordMajorPhi(k_topics, vocab);
  model.nk.assign(k_topics, 0);
  PhiloxStream rng(seed, 0);
  for (uint32_t v = 0; v < vocab; ++v) {
    // 4–19 topics per word, counts 1–256: ~1% column density at K=1024.
    const uint32_t nnz = 4 + rng.NextBelow(16);
    for (uint32_t i = 0; i < nnz; ++i) {
      const uint32_t k = rng.NextBelow(k_topics);
      const uint16_t c = static_cast<uint16_t>(1 + rng.NextBelow(256));
      model.phi(k, v) = c;
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
            ThreadPool* pool, const std::vector<std::vector<uint32_t>>& docs,
            const corpus::Corpus& heldout, uint64_t tokens, uint32_t iters) {
  core::InferenceOptions options;
  options.sampler = sampler;
  options.pool = pool;
  const core::InferenceEngine engine(model, cfg, options);

  ModeRun run;
  run.name = name;
  Stopwatch sw;
  const auto results = engine.InferBatch(docs, iters, /*seed=*/7);
  run.seconds = sw.Seconds();
  run.tokens_per_sec =
      static_cast<double>(tokens) * iters / run.seconds;
  run.perplexity = engine.DocumentCompletionPerplexity(heldout, iters);
  for (const auto& r : results) run.assignments.push_back(r.assignments);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Inference throughput — dense vs sparse vs sparse+batched serving",
      "Fold-in Gibbs over held-out documents; the sparse bucket sampler must "
      "match the dense O(K) reference bit for bit.");

  const uint32_t k_topics =
      static_cast<uint32_t>(flags.GetInt("topics", 1024));
  const double scale = flags.GetDouble("scale", 0.02);
  const uint32_t iters = static_cast<uint32_t>(flags.GetInt("iters", 10));
  const size_t workers = static_cast<size_t>(flags.GetInt("workers", 4));
  const std::string out_path =
      flags.GetString("out", "BENCH_inference_throughput.json");
  bench::RejectUnknownFlags(flags);

  const corpus::Corpus corpus =
      corpus::GenerateCorpus(bench::NyTimesBenchProfile(scale));
  core::CuldaConfig cfg;
  cfg.num_topics = k_topics;
  cfg.Validate();
  const core::GatheredModel model =
      MakeModel(k_topics, static_cast<uint32_t>(corpus.vocab_size()),
                /*seed=*/42);

  std::vector<std::vector<uint32_t>> docs;
  uint64_t tokens = 0;
  for (size_t d = 0; d < corpus.num_docs(); ++d) {
    const auto t = corpus.DocTokens(d);
    docs.emplace_back(t.begin(), t.end());
    tokens += t.size();
  }
  std::printf("%s | K=%u | %u fold-in sweeps | %zu workers (batched)\n\n",
              corpus.Summary("held-out").c_str(), k_topics, iters, workers);

  ThreadPool pool(workers);
  std::vector<ModeRun> runs;
  runs.push_back(Run("dense", model, cfg,
                     core::InferSampler::kDenseReference, nullptr, docs,
                     corpus, tokens, iters));
  runs.push_back(Run("sparse", model, cfg,
                     core::InferSampler::kSparseBucket, nullptr, docs,
                     corpus, tokens, iters));
  runs.push_back(Run("sparse+batched", model, cfg,
                     core::InferSampler::kSparseBucket, &pool, docs, corpus,
                     tokens, iters));
  // The instrumented run pays for the FULL telemetry plane: metrics,
  // tracing, the flight recorder, and a live exporter snapshotting the
  // registry concurrently — the ≤3% overhead gate covers all of it.
  obs::Metrics().ResetValues();
  obs::Metrics().set_enabled(true);
  obs::SpanTracer::Global().set_enabled(true);
  obs::FlightRecorder::Global().Clear();
  obs::FlightRecorder::Global().set_enabled(true);
  {
    obs::ExporterOptions eopts;
    eopts.interval_s = 0.05;
    eopts.expose_path = out_path + ".prom";
    obs::MetricsExporter exporter(eopts);
    exporter.Start();
    runs.push_back(Run("sparse+metrics", model, cfg,
                       core::InferSampler::kSparseBucket, &pool, docs,
                       corpus, tokens, iters));
  }
  std::remove((out_path + ".prom").c_str());
  obs::FlightRecorder::Global().set_enabled(false);
  obs::FlightRecorder::Global().Clear();
  obs::Metrics().set_enabled(false);
  obs::SpanTracer::Global().set_enabled(false);
  obs::SpanTracer::Global().Reset();
  obs::Metrics().ResetValues();
  for (const ModeRun& r : runs) {
    std::printf("%-15s %8.3f s  %10.0f tokens/s  ppl %.6f\n",
                r.name.c_str(), r.seconds, r.tokens_per_sec, r.perplexity);
  }
  std::printf("\n");

  // Bit-identity contract: same assignments, same perplexity, everywhere.
  bool identical = true;
  for (const ModeRun& r : runs) {
    if (r.assignments != runs[0].assignments ||
        r.perplexity != runs[0].perplexity) {
      identical = false;
    }
  }

  TextTable table({"sampler", "M tokens/s", "speedup vs dense"});
  const double base = runs[0].tokens_per_sec;
  for (const ModeRun& r : runs) {
    table.AddRow({r.name, TextTable::Num(r.tokens_per_sec / 1e6, 3),
                  TextTable::Num(r.tokens_per_sec / base, 2) + "x"});
  }
  table.Print();
  const double sparse_speedup = runs[1].tokens_per_sec / base;
  const double batched_speedup = runs[2].tokens_per_sec / base;
  const double metrics_overhead_pct =
      (1.0 - runs[3].tokens_per_sec / runs[2].tokens_per_sec) * 100.0;
  std::printf("\nbit-identity across samplers, batching, and metrics: %s\n",
              identical ? "OK (same assignments, same perplexity)"
                        : "FAILED — sampler modes diverged!");
  std::printf("sparse+batched vs dense single-threaded: %.2fx "
              "(single-core sparse alone: %.2fx)\n",
              batched_speedup, sparse_speedup);
  std::printf("enabled-metrics overhead: %.2f%% tokens/s (budget 3%%)\n",
              metrics_overhead_pct);

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"inference_throughput\",\n"
       << "  \"topics\": " << k_topics << ",\n"
       << "  \"vocab\": " << corpus.vocab_size() << ",\n"
       << "  \"docs\": " << docs.size() << ",\n"
       << "  \"tokens\": " << tokens << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"workers\": " << workers << ",\n"
       << "  \"bit_identical\": " << (identical ? "true" : "false") << ",\n"
       << "  \"sparse_speedup_vs_dense\": " << sparse_speedup << ",\n"
       << "  \"batched_speedup_vs_dense\": " << batched_speedup << ",\n"
       << "  \"metrics_schema\": \"" << obs::kMetricsSchema << "\",\n"
       << "  \"metrics_overhead_pct\": " << metrics_overhead_pct << ",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ModeRun& r = runs[i];
    json << "    {\"sampler\": \"" << r.name << "\", \"seconds\": "
         << r.seconds << ", \"tokens_per_sec\": " << r.tokens_per_sec
         << ", \"perplexity\": " << r.perplexity << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return identical ? 0 : 1;
}
