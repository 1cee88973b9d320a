// Extension study — one multi-GPU machine vs a multi-node GPU cluster,
// synchronous and asynchronous (docs/distributed.md).
//
// The paper's design goal (Section 1): "solve large-scale LDA problems with
// one single machine and achieve comparable or even better performance than
// distributed systems." This bench makes that claim quantitative on the
// simulator by training the same workload three ways and comparing
// convergence against simulated wall-clock:
//
//   single — CuldaTrainer, N·G GPUs in one box (no network at all),
//   sync   — ClusterTrainer kSync: N nodes × G GPUs, per-sweep φ
//            all-reduce over the fabric behind a global barrier,
//   async  — ClusterTrainer kAsync: nomadic φ-shard circulation with
//            bounded staleness (per-sweep network ≈ model vs the
//            all-reduce's 2·(N−1) segments).
//
// Expected shape at 10 Gb/s Ethernet: async reaches the synchronous run's
// likelihood at lower simulated wall-clock (less traffic, no barrier), and
// the single machine beats both — which is the paper's thesis. The analytic
// LDA* parameter-server model (baselines/distributed.hpp) is printed as an
// external anchor. Emits BENCH_ext_multinode.json; the exit code gates two
// contracts — worker-count bit-identity of the async schedule, and the
// staleness bound actually holding.
#include <algorithm>
#include <cstdio>
#include <fstream>

#include "baselines/distributed.hpp"
#include "common.hpp"
#include "dist/cluster.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"

using namespace culda;

namespace {

uint64_t Fnv1a(const std::vector<uint16_t>& v) {
  uint64_t h = 1469598103934665603ull;
  for (const uint16_t x : v) {
    h = (h ^ x) * 1099511628211ull;
  }
  return h;
}

struct ModeCurve {
  std::string name;
  std::vector<double> cum_sim_s;  ///< cluster clock after each sweep
  std::vector<double> ll;         ///< log-likelihood/token after each sweep
  std::vector<double> sweep_sim_s;
  uint64_t network_payload = 0;
  uint64_t network_wire = 0;
  uint32_t max_staleness = 0;
  uint64_t z_checksum = 0;
};

/// Sweeps `solver` and records its convergence curve; the network and
/// staleness fields stay 0 for the single machine.
ModeCurve RunCurve(core::LdaSolver& solver, const std::string& name,
                   int sweeps) {
  ModeCurve curve;
  curve.name = name;
  for (int i = 0; i < sweeps; ++i) {
    const core::IterationStats st = solver.Step();
    curve.cum_sim_s.push_back(solver.ModeledSeconds());
    curve.sweep_sim_s.push_back(st.sim_seconds);
    curve.ll.push_back(solver.LogLikelihoodPerToken());
    curve.network_payload += st.network_payload_bytes;
    curve.network_wire += st.network_wire_bytes;
    curve.max_staleness = std::max(curve.max_staleness, st.max_staleness);
  }
  curve.z_checksum = Fnv1a(solver.ExportAssignments());
  return curve;
}

ModeCurve RunCluster(const corpus::Corpus& corpus,
                     const core::CuldaConfig& cfg,
                     const dist::ClusterOptions& opts, int sweeps) {
  dist::ClusterTrainer trainer(corpus, cfg, opts);
  return RunCurve(trainer, dist::DistModeName(opts.mode), sweeps);
}

/// First cluster-clock time at which `curve` reaches `target` ll (-1 if it
/// never does).
double TimeToTarget(const ModeCurve& curve, double target) {
  for (size_t i = 0; i < curve.ll.size(); ++i) {
    if (curve.ll[i] >= target) return curve.cum_sim_s[i];
  }
  return -1.0;
}

void EmitCurveJson(std::ofstream& json, const ModeCurve& c, bool last) {
  json << "    {\"mode\": \"" << c.name << "\", \"z_checksum\": \""
       << c.z_checksum << "\", \"network_payload_bytes\": "
       << c.network_payload << ", \"network_wire_bytes\": " << c.network_wire
       << ", \"max_staleness\": " << c.max_staleness << ",\n"
       << "     \"sweeps\": [";
  for (size_t i = 0; i < c.ll.size(); ++i) {
    json << (i ? ", " : "") << "{\"cum_sim_s\": " << c.cum_sim_s[i]
         << ", \"ll_per_token\": " << c.ll[i] << "}";
  }
  json << "]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  bench::PrintBanner(
      "Extension — single multi-GPU machine vs sync/async multi-node cluster",
      "The Section 1 thesis quantified: convergence vs simulated wall-clock "
      "for one box, a bulk-synchronous cluster, and nomadic shard "
      "circulation.");

  // Default scale keeps the heaviest word under the 16-bit φ count cap
  // (the full-scale profile's top word alone exceeds 65535 occurrences).
  corpus::SyntheticProfile profile =
      bench::PubMedBenchProfile(flags.GetDouble("scale", bench::kDefaultScale));
  profile.vocab_size = 6000;
  core::CuldaConfig cfg = bench::BenchConfig(flags);
  const auto corpus = bench::MakeCorpus(flags, profile, "pubmed");
  const int sweeps = static_cast<int>(flags.GetInt("iters", 8));
  const int nodes = static_cast<int>(flags.GetInt("nodes", 4));
  const int gpus = static_cast<int>(flags.GetInt("gpus", 2));
  // −1 = unbounded (the pure nomadic schedule; age is naturally ≤ N−1).
  const int64_t staleness = flags.GetInt("staleness", -1);
  const gpusim::FabricTopology topology =
      gpusim::ParseFabricTopology(flags.GetString("fabric", "ring"));
  const gpusim::LinkSpec link =
      gpusim::ParseLinkSpec(flags.GetString("link", "eth10g"));
  const std::string out_path =
      flags.GetString("out", "BENCH_ext_multinode.json");
  bench::RejectUnknownFlags(flags);
  if (nodes < 1 || gpus < 1) {
    std::fprintf(stderr, "--nodes and --gpus must be >= 1; got %d and %d\n",
                 nodes, gpus);
    return 2;
  }
  if (staleness < -1) {
    std::fprintf(stderr,
                 "--staleness must be -1 (unbounded) or >= 0 rounds; got "
                 "%lld\n",
                 static_cast<long long>(staleness));
    return 2;
  }
  std::printf("%s | K=%u | %d nodes x %d GPUs | %s fabric, link %s\n\n",
              corpus.Summary("PubMed profile").c_str(), cfg.num_topics,
              nodes, gpus, FabricTopologyName(topology), link.name.c_str());

  dist::ClusterOptions copts;
  copts.num_nodes = static_cast<uint32_t>(nodes);
  copts.gpus.assign(gpus, gpusim::V100Volta());
  copts.network = link;
  copts.topology = topology;
  copts.staleness_bound = staleness < 0
                              ? dist::kUnboundedStaleness
                              : static_cast<uint32_t>(staleness);

  core::TrainerOptions topts;
  topts.gpus.assign(nodes * gpus, gpusim::V100Volta());
  topts.chunks_per_gpu = 1;
  core::CuldaTrainer single_trainer(corpus, cfg, topts);
  const ModeCurve single = RunCurve(single_trainer, "single", sweeps);
  copts.mode = dist::DistMode::kSync;
  const ModeCurve sync = RunCluster(corpus, cfg, copts, sweeps);
  copts.mode = dist::DistMode::kAsync;
  const ModeCurve async = RunCluster(corpus, cfg, copts, sweeps);

  // Contract 1: the async schedule is bit-identical at any worker count —
  // rerun with a pool and compare assignments and clocks.
  ThreadPool pool(3);
  copts.pool = &pool;
  const ModeCurve async_pooled = RunCluster(corpus, cfg, copts, sweeps);
  const bool deterministic =
      async_pooled.z_checksum == async.z_checksum &&
      async_pooled.cum_sim_s == async.cum_sim_s &&
      async_pooled.network_payload == async.network_payload;
  // Contract 2: the staleness bound held (N−1 is the natural cap).
  const uint32_t effective_bound =
      std::min<uint32_t>(copts.staleness_bound,
                         copts.num_nodes > 0 ? copts.num_nodes - 1 : 0);
  const bool staleness_ok = async.max_staleness <= effective_bound;

  // Convergence target: the synchronous cluster's likelihood at ~3/4 of its
  // run — late enough to be a real quality bar, early enough that every
  // mode still has sweeps left to reach it.
  const double target = sync.ll[(sync.ll.size() * 3) / 4];
  TextTable t({"mode", "final ll/token", "sim s total", "net payload MB",
               "time-to-target s"});
  for (const ModeCurve* c : {&single, &sync, &async}) {
    const double ttt = TimeToTarget(*c, target);
    t.AddRow({c->name, TextTable::Num(c->ll.back(), 4),
              TextTable::Num(c->cum_sim_s.back(), 4),
              TextTable::Num(static_cast<double>(c->network_payload) / 1e6,
                             2),
              ttt < 0 ? "never" : TextTable::Num(ttt, 4)});
  }
  t.Print();

  // External anchor: the analytic LDA* 20-node parameter-server model on
  // the same link class (its 10 GbE arithmetic is what the paper cites).
  baselines::DistributedLdaModel anchor;
  anchor.network = link;
  anchor.model_bytes =
      static_cast<uint64_t>(cfg.num_topics) * corpus.vocab_size() * 4;
  const double anchor_s = anchor.IterationSeconds(corpus.num_tokens());
  std::printf(
      "\nanalytic LDA* anchor (20 CPU nodes, %s): %.4f s per iteration\n",
      link.name.c_str(), anchor_s);
  std::printf("async max observed staleness: %u (bound %u) — %s\n",
              async.max_staleness, effective_bound,
              staleness_ok ? "OK" : "VIOLATED");
  std::printf("async worker-count determinism: %s\n",
              deterministic ? "OK (bit-identical z, clocks, traffic)"
                            : "FAILED — schedule changed with the pool!");

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"ext_multinode\",\n"
       << "  \"topics\": " << cfg.num_topics << ",\n"
       << "  \"tokens\": " << corpus.num_tokens() << ",\n"
       << "  \"nodes\": " << nodes << ", \"gpus_per_node\": " << gpus
       << ",\n"
       << "  \"sweeps\": " << sweeps << ",\n"
       << "  \"fabric\": \"" << FabricTopologyName(topology) << "\",\n"
       << "  \"link\": {\"name\": \"" << link.name << "\", \"gbps\": "
       << link.bandwidth_gbps << ", \"latency_us\": " << link.latency_us
       << "},\n"
       << "  \"staleness_bound\": "
       << (copts.staleness_bound == dist::kUnboundedStaleness
               ? std::string("\"unbounded\"")
               : std::to_string(copts.staleness_bound))
       << ",\n"
       << "  \"ll_target\": " << target << ",\n"
       << "  \"time_to_target_s\": {\"single\": "
       << TimeToTarget(single, target) << ", \"sync\": "
       << TimeToTarget(sync, target) << ", \"async\": "
       << TimeToTarget(async, target) << "},\n"
       << "  \"anchor_lda_star_iter_s\": " << anchor_s << ",\n"
       << "  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n"
       << "  \"staleness_ok\": " << (staleness_ok ? "true" : "false")
       << ",\n"
       << "  \"metrics_schema\": \"" << obs::kMetricsSchema << "\",\n"
       << "  \"modes\": [\n";
  EmitCurveJson(json, single, false);
  EmitCurveJson(json, sync, false);
  EmitCurveJson(json, async, true);
  json << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());

  return (deterministic && staleness_ok) ? 0 : 1;
}
