// Figure 7 — Achieved sampling speed (#Tokens/sec) per iteration.
//
// The paper plots per-iteration throughput over the first 100 iterations for
// CuLDA on Titan/Pascal/Volta plus WarpLDA, on both datasets. Two phenomena
// to reproduce:
//   1. a warm-up ramp — throughput rises over the first iterations because
//      θ sparsifies (Kd shrinks) as the model concentrates;
//   2. PubMed's curve is flatter than NYTimes' — its short documents (92 vs
//      332 tokens) mean θ starts out already sparse.
//
// Output: one series per (dataset, platform) as CSV-ish rows, plus ramp
// statistics.
#include <cstdio>

#include "baselines/warp_mh.hpp"
#include "common.hpp"

using namespace culda;

namespace {

std::vector<double> CuldaSeries(const corpus::Corpus& corpus,
                                const core::CuldaConfig& cfg,
                                const gpusim::DeviceSpec& spec, int iters) {
  core::TrainerOptions opts;
  opts.gpus = {spec};
  core::CuldaTrainer trainer(corpus, cfg, opts);
  std::vector<double> series;
  for (int i = 0; i < iters; ++i) {
    series.push_back(trainer.Step().tokens_per_sec);
  }
  return series;
}

void PrintSeries(const std::string& dataset, const std::string& platform,
                 const std::vector<double>& series) {
  std::printf("series,%s,%s", dataset.c_str(), platform.c_str());
  for (const double v : series) std::printf(",%.1f", v / 1e6);
  std::printf("\n");
}

double Ramp(const std::vector<double>& series) {
  const size_t tail = series.size() > 5 ? series.size() - 5 : 0;
  double late = 0;
  for (size_t i = tail; i < series.size(); ++i) late += series[i];
  late /= static_cast<double>(series.size() - tail);
  return late / series.front();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Figure 7 — per-iteration sampling speed (M tokens/sec)",
      "Rows: series,<dataset>,<platform>,v_iter0,v_iter1,...  (M tokens/s)");

  const int iters = static_cast<int>(flags.GetInt("iters", 30));
  const int warp_iters = static_cast<int>(flags.GetInt("warp-iters", 5));
  const double scale = flags.GetDouble("scale", bench::kDefaultScale);
  core::CuldaConfig cfg = bench::BenchConfig(flags);

  struct Dataset {
    std::string name;
    corpus::Corpus corpus;
  };
  std::vector<Dataset> datasets;
  datasets.push_back({"NYTimes", bench::MakeCorpus(
                                     flags, bench::NyTimesBenchProfile(scale),
                                     "nytimes")});
  datasets.push_back({"PubMed", bench::MakeCorpus(
                                    flags, bench::PubMedBenchProfile(scale),
                                    "pubmed")});
  bench::RejectUnknownFlags(flags);

  TextTable ramps({"Dataset", "Platform", "iter0 M/s", "steady M/s",
                   "ramp (steady/first)"});
  for (const auto& d : datasets) {
    std::printf("%s\n", d.corpus.Summary(d.name).c_str());
    for (const auto& spec : bench::AllPlatforms()) {
      const auto series = CuldaSeries(d.corpus, cfg, spec, iters);
      PrintSeries(d.name, spec.name, series);
      ramps.AddRow({d.name, spec.name, TextTable::Num(series.front() / 1e6, 4),
                    TextTable::Num(series.back() / 1e6, 4),
                    TextTable::Num(Ramp(series), 3)});
    }
    // WarpLDA reference line (modeled CPU).
    baselines::WarpMhSampler warp(d.corpus, cfg);
    std::vector<double> wseries;
    for (int i = 0; i < warp_iters; ++i) {
      wseries.push_back(warp.Step().tokens_per_sec);
    }
    PrintSeries(d.name, "WarpLDA(CPU)", wseries);
    std::printf("\n");
  }

  ramps.Print();
  std::printf(
      "\nShape checks: every curve ramps up then flattens (θ sparsifies);\n"
      "the NYTimes ramp is larger than PubMed's (long docs start denser);\n"
      "platform order Volta > Pascal > Titan > WarpLDA at every "
      "iteration.\n");
  return 0;
}
