// Host throughput — wall-clock tokens/sec of the simulator itself.
//
// Everything else in bench/ reports *simulated* seconds; this bench measures
// how fast the host executes the simulation, which is the quantity every
// other bench's runtime is made of. It runs the same 4-simulated-GPU WS1
// training across several ThreadPool sizes (0 = inline baseline), each both
// unpinned and pinned (the topology-aware placement path), reports the
// wall-clock speedup, verifies that the model state and the simulated
// timings are bit-identical across every (workers, placement) cell — the
// determinism contract of the host-parallel execution path, and the only
// reliable signal on 1-core hosts where speedup is unobservable — and emits
// BENCH_host_throughput.json stamped with the detected topology so the
// repo's perf trajectory is trackable run over run and across machines.
#include <cstdio>
#include <fstream>

#include "common.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"
#include "util/topology.hpp"

using namespace culda;

namespace {

struct HostRun {
  size_t workers = 0;
  bool pinned = false;              ///< requested --pin placement
  size_t pinned_workers = 0;        ///< how many the kernel actually pinned
  uint64_t steals = 0;              ///< cross-socket shard claims
  double wall_s_per_iter = 0;
  double wall_tokens_per_sec = 0;
  std::vector<double> sim_seconds;  ///< per-iteration, must be bit-identical
  uint64_t z_checksum = 0;
};

uint64_t Fnv1a(const std::vector<uint16_t>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const uint16_t x : v) {
    h = (h ^ x) * 1099511628211ull;
  }
  return h;
}

HostRun Run(const corpus::Corpus& corpus, const core::CuldaConfig& cfg,
            int gpus, size_t workers, bool pin, int iters) {
  ThreadPoolOptions pool_options;
  pool_options.pin = pin;
  ThreadPool pool(workers, pool_options);
  core::TrainerOptions opts;
  opts.gpus.assign(gpus, gpusim::V100Volta());
  opts.chunks_per_gpu = 1;  // WS1: chunks stay resident, one per GPU
  if (workers > 0) opts.pool = &pool;
  core::CuldaTrainer trainer(corpus, cfg, opts);

  HostRun run;
  run.workers = workers;
  run.pinned = pin;
  run.pinned_workers = pool.pinned_worker_count();
  trainer.Step();  // warmup: first iteration pays cold caches
  double wall = 0;
  double wall_tok = 0;
  for (int i = 0; i < iters; ++i) {
    const auto st = trainer.Step();
    wall += st.wall_seconds;
    wall_tok += st.wall_tokens_per_sec;
    run.sim_seconds.push_back(st.sim_seconds);
  }
  run.wall_s_per_iter = wall / iters;
  run.wall_tokens_per_sec = wall_tok / iters;
  run.z_checksum = Fnv1a(trainer.ExportAssignments());
  run.steals = pool.steal_count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Host throughput — wall-clock tokens/sec of the simulator",
      "4 simulated GPUs, WS1, ThreadPool of 0/1/2/4 workers, pinned and "
      "unpinned; model state and simulated times must not change.");

  const double scale = flags.GetDouble("scale", bench::kDefaultScale);
  const int iters = static_cast<int>(flags.GetInt("iters", 4));
  const int gpus = static_cast<int>(flags.GetInt("gpus", 4));
  const std::string out_path =
      flags.GetString("out", "BENCH_host_throughput.json");
  core::CuldaConfig cfg = bench::BenchConfig(flags);
  if (!flags.Has("topics")) cfg.num_topics = 128;
  const auto corpus =
      bench::MakeCorpus(flags, bench::NyTimesBenchProfile(scale), "nytimes");
  bench::RejectUnknownFlags(flags);
  const CpuTopology& topo = SystemTopology();
  std::printf("%s | K=%u | %d GPUs (WS1) | %d timed iterations\n",
              corpus.Summary("NYTimes").c_str(), cfg.num_topics, gpus, iters);
  std::printf("topology: %s | auto workers = %zu\n\n", topo.Summary().c_str(),
              DefaultWorkerCount());

  // Sweep pool sizes, each unpinned then pinned (workers=0 is inline — the
  // pin knob has nothing to act on, so it runs once).
  const std::vector<size_t> worker_counts{0, 1, 2, 4};
  std::vector<HostRun> runs;
  for (const size_t w : worker_counts) {
    for (const bool pin : {false, true}) {
      if (w == 0 && pin) continue;
      runs.push_back(Run(corpus, cfg, gpus, w, pin, iters));
      const HostRun& r = runs.back();
      std::printf("workers=%zu%s: %.2f Mtok/s wall (%zu/%zu pinned)\n", w,
                  pin ? " pinned" : "", r.wall_tokens_per_sec / 1e6,
                  r.pinned_workers, w);
    }
  }
  std::printf("\n");

  // Determinism contract: identical assignments and bit-identical simulated
  // timings regardless of pool size *and* placement. This gate is the
  // bench's pass/fail signal — on a 1-core host it is the only observable.
  bool deterministic = true;
  for (const HostRun& r : runs) {
    if (r.z_checksum != runs[0].z_checksum ||
        r.sim_seconds != runs[0].sim_seconds) {
      deterministic = false;
    }
  }

  TextTable table({"workers", "pinned", "ms/iter (wall)",
                   "M tokens/s (wall)", "speedup vs 0"});
  const double base = runs[0].wall_s_per_iter;
  for (const HostRun& r : runs) {
    table.AddRow({std::to_string(r.workers),
                  r.pinned ? std::to_string(r.pinned_workers) + "/" +
                                 std::to_string(r.workers)
                           : "-",
                  TextTable::Num(r.wall_s_per_iter * 1e3, 4),
                  TextTable::Num(r.wall_tokens_per_sec / 1e6, 4),
                  TextTable::Num(base / r.wall_s_per_iter, 3) + "x"});
  }
  table.Print();
  std::printf("\ndeterminism across pool sizes and placements: %s\n",
              deterministic ? "OK (bit-identical z and sim_seconds)"
                            : "FAILED — model state or simulated time "
                              "changed with the pool size or placement!");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"host_throughput\",\n"
       << "  \"gpus\": " << gpus << ",\n"
       << "  \"schedule\": \"WS1\",\n"
       << "  \"topics\": " << cfg.num_topics << ",\n"
       << "  \"tokens\": " << corpus.num_tokens() << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"topology\": {\"effective_cpus\": " << topo.cpu_count()
       << ", \"sockets\": " << topo.num_nodes << ", \"summary\": \""
       << topo.Summary() << "\", \"auto_workers\": " << DefaultWorkerCount()
       << "},\n"
       << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n"
       << "  \"metrics_schema\": \"" << obs::kMetricsSchema << "\",\n"
       << "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const HostRun& r = runs[i];
    json << "    {\"workers\": " << r.workers << ", \"pinned\": "
         << (r.pinned ? "true" : "false")
         << ", \"pinned_workers\": " << r.pinned_workers
         << ", \"steals\": " << r.steals
         << ", \"wall_seconds_per_iter\": " << r.wall_s_per_iter
         << ", \"wall_tokens_per_sec\": " << r.wall_tokens_per_sec
         << ", \"speedup_vs_inline\": " << base / r.wall_s_per_iter << "}"
         << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return deterministic ? 0 : 1;
}
