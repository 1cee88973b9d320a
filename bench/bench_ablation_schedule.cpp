// Ablation A5 — scheduling & synchronization choices (Sections 5.1 / 5.2 /
// 6.2).
//
//   (a) WS2 transfer/compute overlap: per-iteration time streaming chunks
//       with and without the double-buffered copy stream;
//   (b) φ synchronization: GPU reduce+broadcast tree vs CPU-side sum;
//   (c) kernel ordering: update φ before θ so the sync overlaps the θ
//       update, vs serializing everything.
#include <cstdio>

#include "common.hpp"

using namespace culda;

namespace {

double MeanIterMs(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
                  core::TrainerOptions opts, int iters) {
  core::CuldaTrainer trainer(corpus, cfg, std::move(opts));
  double total = 0;
  for (int i = 0; i < iters; ++i) total += trainer.Step().sim_seconds;
  return total / iters * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner("Ablation A5 — schedule & synchronization (Section 5)",
                     "WS2 overlap, sync tree vs CPU sum, and kernel-order "
                     "overlap.");

  const int iters = static_cast<int>(flags.GetInt("iters", 6));
  core::CuldaConfig cfg = bench::BenchConfig(flags);

  // (a) WS2 overlap: a memory-capped Pascal streaming M chunks.
  {
    const auto corpus = bench::MakeCorpus(
        flags, bench::PubMedBenchProfile(flags.GetDouble("scale", 0.3)),
        "pubmed");
    std::printf("%s\n\n", corpus.Summary("PubMed profile").c_str());

    gpusim::DeviceSpec capped = gpusim::TitanXpPascal();
    capped.memory_bytes = 24ull << 20;
    core::TrainerOptions overlapped, serial;
    overlapped.gpus = {capped};
    serial.gpus = {capped};
    serial.overlap_transfers = false;

    const double on_ms = MeanIterMs(corpus, cfg, overlapped, iters);
    const double off_ms = MeanIterMs(corpus, cfg, serial, iters);

    core::TrainerOptions ws1;
    ws1.gpus = {gpusim::TitanXpPascal()};
    const double ws1_ms = MeanIterMs(corpus, cfg, ws1, iters);

    TextTable t({"schedule", "ms/iter", "vs WS1"});
    t.AddRow({"WS1 (chunk resident)", TextTable::Num(ws1_ms, 4), "1.00x"});
    t.AddRow({"WS2 + overlap (Section 5.1)", TextTable::Num(on_ms, 4),
              TextTable::Num(on_ms / ws1_ms, 3) + "x"});
    t.AddRow({"WS2 serial transfers", TextTable::Num(off_ms, 4),
              TextTable::Num(off_ms / ws1_ms, 3) + "x"});
    std::printf("(a) WS2 transfer/compute overlap (device capped to 24 MiB, "
                "M>1):\n");
    t.Print();
    std::printf("overlap hides %.0f%% of the WS2 streaming penalty\n\n",
                (off_ms - on_ms) / std::max(off_ms - ws1_ms, 1e-12) * 100);

    // (b) sync mode + (c) θ/sync overlap, on 4 GPUs.
    core::TrainerOptions tree, cpusum, no_overlap;
    for (auto* o : {&tree, &cpusum, &no_overlap}) {
      o->gpus.assign(4, gpusim::TitanXpPascal());
    }
    cpusum.sync_mode = core::SyncMode::kCpuSum;
    no_overlap.overlap_theta_with_sync = false;

    const double tree_ms = MeanIterMs(corpus, cfg, tree, iters);
    const double cpu_ms = MeanIterMs(corpus, cfg, cpusum, iters);
    const double serial_theta_ms =
        MeanIterMs(corpus, cfg, no_overlap, iters);

    TextTable t2({"variant", "ms/iter", "vs CuLDA"});
    t2.AddRow({"GPU tree sync + theta overlap (CuLDA)",
               TextTable::Num(tree_ms, 4), "1.00x"});
    t2.AddRow({"CPU-side sum (rejected, Section 5.2)",
               TextTable::Num(cpu_ms, 4),
               TextTable::Num(cpu_ms / tree_ms, 3) + "x"});
    t2.AddRow({"theta update serialized after sync",
               TextTable::Num(serial_theta_ms, 4),
               TextTable::Num(serial_theta_ms / tree_ms, 3) + "x"});
    std::printf("(b,c) synchronization variants on 4 GPUs:\n");
    t2.Print();
  }

  bench::RejectUnknownFlags(flags);
  std::printf(
      "\nShape checks: overlap recovers most of WS2's transfer cost; the\n"
      "GPU tree beats the CPU-side sum; overlapping the θ update with the\n"
      "φ sync wins a further margin (Section 6.2's kernel ordering).\n");
  return 0;
}
