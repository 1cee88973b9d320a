// Figure 8 — Log-likelihood per token w.r.t. time.
//
// The paper plots model quality against wall-clock training time for CuLDA
// on the three platforms, WarpLDA (CPU), SaberLDA (GPU prior art, cited
// numbers), and LDA* (20-node distributed, cited numbers, PubMed only).
// The claim: CuLDA reaches any given quality level first, on every platform.
//
// Here every solver runs under the same cost model on its own platform:
//   * CuLDA on Titan / Pascal / Volta (simulated GPU time);
//   * WarpLDA-class MH and SparseLDA on the Xeon (cache-line cost model);
//   * the de-optimized dense GPU baseline standing in for SaberLDA/BIDMach;
//   * LDA* as the analytic parameter-server model (PubMed only, like the
//     paper) paired with the MH sampler's quality trajectory.
//
// Output: rows "trace,<dataset>,<solver>,t0:ll0,t1:ll1,..." plus a summary
// of time-to-quality ratios.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "baselines/distributed.hpp"
#include "baselines/fplus_lda.hpp"
#include "baselines/gpu_dense.hpp"
#include "baselines/saber_gpu.hpp"
#include "baselines/sparse_lda.hpp"
#include "baselines/warp_mh.hpp"
#include "common.hpp"

using namespace culda;

namespace {

struct Trace {
  std::string solver;
  std::vector<std::pair<double, double>> points;  // (seconds, ll/token)
  double last_tokens_per_sec = 0;  ///< modeled throughput of the last step

  /// First time the trace reaches `target` ll; +inf if never.
  double TimeTo(double target) const {
    for (const auto& [t, ll] : points) {
      if (ll >= target) return t;
    }
    return std::numeric_limits<double>::infinity();
  }
};

Trace RunSolver(core::LdaSolver& solver, int iters) {
  Trace trace{solver.name(), {}};
  for (int i = 0; i < iters; ++i) {
    trace.last_tokens_per_sec = solver.Step().tokens_per_sec;
    trace.points.emplace_back(solver.ModeledSeconds(),
                              solver.LogLikelihoodPerToken());
  }
  return trace;
}

/// LDA*: the analytic cluster-time model paired with an exact-CGS quality
/// trajectory (parameter-server LDA is CGS with stale reads; per-iteration
/// quality tracks the sequential sampler closely).
Trace RunLdaStar(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                 int iters, double node_tokens_per_sec) {
  baselines::DistributedLdaModel model;
  model.num_nodes = 20;  // the paper's LDA* PubMed setup
  model.node_tokens_per_sec = node_tokens_per_sec;
  model.model_bytes = static_cast<uint64_t>(cfg.num_topics) *
                      corpus.vocab_size() * 4;  // uncompressed K×V
  baselines::WarpMhSampler quality(corpus, cfg);
  Trace trace{"LDA*(20 nodes, model)", {}};
  double t = 0;
  for (int i = 0; i < iters; ++i) {
    quality.Step();
    t += model.IterationSeconds(corpus.num_tokens());
    trace.points.emplace_back(t, quality.LogLikelihoodPerToken());
  }
  return trace;
}

void PrintTrace(const std::string& dataset, const Trace& trace) {
  std::printf("trace,%s,%s", dataset.c_str(), trace.solver.c_str());
  for (const auto& [t, ll] : trace.points) {
    std::printf(",%.5f:%.4f", t, ll);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Figure 8 — log-likelihood per token vs (modeled) time",
      "Rows: trace,<dataset>,<solver>,t:ll,...   Lower time at equal ll = "
      "faster convergence.");

  const int iters = static_cast<int>(flags.GetInt("iters", 20));
  const int cpu_iters = static_cast<int>(flags.GetInt("cpu-iters", iters));
  const double scale = flags.GetDouble("scale", bench::kDefaultScale);
  core::CuldaConfig cfg = bench::BenchConfig(flags);

  struct Dataset {
    std::string name;
    corpus::Corpus corpus;
    bool with_lda_star;
  };
  std::vector<Dataset> datasets;
  datasets.push_back(
      {"NYTimes",
       bench::MakeCorpus(flags, bench::NyTimesBenchProfile(scale), "nytimes"),
       false});
  datasets.push_back(
      {"PubMed",
       bench::MakeCorpus(flags, bench::PubMedBenchProfile(scale), "pubmed"),
       true});
  bench::RejectUnknownFlags(flags);

  for (const auto& d : datasets) {
    std::printf("%s | K=%u\n", d.corpus.Summary(d.name).c_str(),
                cfg.num_topics);
    std::vector<Trace> traces;
    for (const auto& spec : bench::AllPlatforms()) {
      core::TrainerOptions opts;
      opts.gpus = {spec};
      core::CuldaTrainer trainer(d.corpus, cfg, opts);
      traces.push_back(RunSolver(trainer, iters));
    }
    {
      baselines::WarpMhSampler warp(d.corpus, cfg);
      traces.push_back(RunSolver(warp, cpu_iters));
      const double node_tps = traces.back().last_tokens_per_sec;
      baselines::SparseLdaCgs sparse(d.corpus, cfg);
      traces.push_back(RunSolver(sparse, cpu_iters));
      baselines::FPlusLda fplus(d.corpus, cfg);
      traces.push_back(RunSolver(fplus, cpu_iters));
      baselines::SaberGpuLda saber(d.corpus, cfg, gpusim::TitanXMaxwell());
      traces.push_back(RunSolver(saber, iters));
      baselines::GpuDenseLda dense(d.corpus, cfg, gpusim::TitanXMaxwell());
      traces.push_back(RunSolver(dense, cpu_iters));
      if (d.with_lda_star) {
        traces.push_back(RunLdaStar(d.corpus, cfg, cpu_iters, node_tps));
      }
    }
    for (const auto& trace : traces) PrintTrace(d.name, trace);

    // Time-to-quality summary: target = the worst solver's final ll.
    double target = -1e30;
    double weakest = 1e30;
    for (const auto& trace : traces) {
      weakest = std::min(weakest, trace.points.back().second);
    }
    target = weakest;
    TextTable summary({"Solver", "time to ll>=" + TextTable::Num(target, 4),
                       "final ll", "vs CuLDA/Volta"});
    const double volta_t = traces[2].TimeTo(target);
    for (const auto& trace : traces) {
      const double t = trace.TimeTo(target);
      const std::string t_str =
          std::isfinite(t) ? TextTable::Num(t, 4) + " s" : std::string("n/a");
      const std::string rel_str =
          std::isfinite(t) ? TextTable::Num(t / volta_t, 3) + "x"
                           : std::string("n/a");
      summary.AddRow({trace.solver, t_str,
                      TextTable::Num(trace.points.back().second, 4),
                      rel_str});
    }
    summary.Print();
    std::printf("\n");
  }

  std::printf(
      "Shape checks (paper Figure 8): CuLDA curves sit left of every\n"
      "baseline; Volta < Pascal < Titan in time-to-quality; the distributed\n"
      "LDA* model is slowest despite 20 nodes (Ethernet-bound sync).\n");
  return 0;
}
