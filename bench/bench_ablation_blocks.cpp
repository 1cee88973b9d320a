// Ablation A6 — parallelization granularity (Section 6.1.2).
//
// Two knobs the paper fixes and justifies informally:
//   * samplers per thread block — the paper uses 32 ("the allowed maximal
//     value"): more warps per block amortize the shared p2 tree across more
//     tokens;
//   * max tokens per block — the heavy-word split granularity of Figure 6:
//     too large starves the grid of parallelism (long-tail), too small
//     multiplies the per-block p*/p2 setup cost.
// This bench sweeps both and reports traffic + simulated time.
#include <cstdio>

#include "common.hpp"

using namespace culda;

namespace {

struct Probe {
  double iter_ms = 0;
  double dram_mb = 0;
  uint64_t blocks = 0;
};

Probe Measure(const corpus::Corpus& corpus, core::CuldaConfig cfg,
              uint32_t samplers, uint64_t max_tokens, int iters) {
  cfg.samplers_per_block = samplers;
  cfg.max_tokens_per_block = max_tokens;
  core::TrainerOptions opts;
  opts.gpus = {gpusim::TitanXpPascal()};
  core::CuldaTrainer trainer(corpus, cfg, opts);
  Probe p;
  for (int i = 0; i < iters; ++i) {
    p.iter_ms += trainer.Step().sim_seconds * 1e3;
  }
  p.iter_ms /= iters;
  const auto& prof = trainer.group().device(0).profile().at("sampling");
  p.dram_mb = static_cast<double>(prof.counters.TotalOffChipBytes()) /
              iters / 1e6;
  p.blocks = prof.counters.blocks / iters;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Ablation A6 — sampler parallelization granularity (Section 6.1.2)",
      "Warps (samplers) per block and heavy-word split size; NYTimes "
      "profile, Pascal.");

  const auto profile = bench::NyTimesBenchProfile(
      flags.GetDouble("scale", bench::kDefaultScale));
  const auto corpus = bench::MakeCorpus(flags, profile, "nytimes");
  const int iters = static_cast<int>(flags.GetInt("iters", 3));
  core::CuldaConfig cfg = bench::BenchConfig(flags);
  bench::RejectUnknownFlags(flags);
  std::printf("%s | K=%u\n\n", corpus.Summary(profile.name).c_str(),
              cfg.num_topics);

  {
    // Constant work per sampler (128 tokens): fewer samplers per block ⇒
    // smaller blocks ⇒ more blocks ⇒ the per-block p*/p2 setup (an O(K)
    // φ-column read + tree build) is amortized over fewer tokens. This is
    // the Figure 6 sharing argument made quantitative.
    TextTable t({"samplers/block", "blocks", "sampling DRAM MB/iter",
                 "ms/iter"});
    for (const uint32_t s : {1u, 4u, 8u, 16u, 32u}) {
      const Probe p = Measure(corpus, cfg, s, 128ull * s, iters);
      t.AddRow({std::to_string(s), std::to_string(p.blocks),
                TextTable::Num(p.dram_mb, 4), TextTable::Num(p.iter_ms, 4)});
    }
    std::printf(
        "samplers per block at constant per-sampler work (paper: 32, the "
        "maximum):\n");
    t.Print();
    std::printf("\n");
  }

  {
    TextTable t({"max tokens/block", "blocks", "sampling DRAM MB/iter",
                 "ms/iter"});
    for (const uint64_t m : {32ull, 256ull, 1024ull, 4096ull, 262144ull}) {
      const Probe p = Measure(corpus, cfg, cfg.samplers_per_block, m, iters);
      t.AddRow({std::to_string(m), std::to_string(p.blocks),
                TextTable::Num(p.dram_mb, 4), TextTable::Num(p.iter_ms, 4)});
    }
    std::printf("heavy-word split granularity (Figure 6):\n");
    t.Print();
    std::printf(
        "Small caps explode the block count (setup-dominated); huge caps\n"
        "stop splitting heavy words. The default (4096) sits on the flat "
        "part.\n");
  }
  return 0;
}
