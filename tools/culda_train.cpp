// culda_train — train an LDA model from the command line.
//
//   culda_train --uci=docword.nytimes.txt --topics=1024 --iters=100
//               --device=volta --gpus=4 --out=model.bin
//   culda_train --synthetic=pubmed --scale=0.001 --topics=256 ...
//
// SIGINT/SIGTERM is cooperative: the current sweep finishes, a checkpoint
// is written (when --checkpoint is set), and the tool exits with the
// distinct code 4 so scripts can tell "interrupted with state saved" from
// success (0) and real failures (1/3).
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/inference.hpp"
#include "core/model_io.hpp"
#include "core/sampler/sampler.hpp"
#include "core/trainer.hpp"
#include "corpus/split.hpp"
#include "corpus/synthetic.hpp"
#include "corpus/uci_reader.hpp"
#include "dist/cluster.hpp"
#include "gpusim/profiler.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/obs_cli.hpp"
#include "util/signal.hpp"

using namespace culda;

namespace {

constexpr char kUsage[] =
    R"(usage: culda_train [--uci=PATH | --synthetic=NAME] [options]

Input:
  --uci=PATH          UCI bag-of-words input (NYTimes/PubMed format)
  --synthetic=NAME    nytimes | pubmed profile instead of a file
  --scale=X           synthetic profile scale (default 0.01)
  --heldout-frac=X    hold out this document fraction for end-of-training
                      document-completion perplexity (default 0 = off)

Model / training:
  --topics=K          number of topics (default 256)
  --alpha=X, --beta=X hyper-parameters (defaults: 50/K, 0.01)
  --iters=N           training iterations (default 100)
  --seed=N            RNG seed (default 1234)
  --device=NAME       titan | pascal | volta | cpu (default volta)
  --gpus=G            simulated GPU count (default 1)
  --workers=N         host worker threads (default: effective CPUs - 1 from
                      the affinity mask, so cgroup cpusets are honored; 0 =
                      inline; wall-clock only, results are bit-identical)
  --pin               pin workers to their CPUs (pthread affinity; falls
                      back to unpinned per worker if the kernel refuses)
  --numa-replicate    replicate read-mostly inference state per socket for
                      held-out scoring (docs/parallelism.md; no-op on
                      single-socket hosts; results stay bit-identical)
  --chunks-per-gpu=M  override the automatic WS1/WS2 choice
  --sampler=MODE      tree (default) | alias-mh (docs/samplers.md)
  --mh-cycles=N       alias-mh only: MH proposal pairs per token per sweep
  --hyperopt=N        re-estimate alpha/beta every N iterations (default off)

Multi-node (docs/distributed.md; --gpus then means GPUs per node):
  --nodes=N           simulated node count (default 1 = single machine)
  --dist=MODE         sync | async inter-node strategy (default async)
  --staleness=S       async only: max φ-shard age in rounds before a forced
                      refresh; -1 = unbounded (natural cap N-1), 0 =
                      refresh every round (default -1)
  --fabric=TOPO       ring | full inter-node topology (default ring)
  --link=SPEC         eth10g | eth100g | pcie | nvlink | GBPS@LATENCY_US
                      inter-node link (default eth10g)
  --nodes>1 rejects the single-machine-only flags --checkpoint, --resume,
  --hyperopt, --chunks-per-gpu, --trace-out and --profile-json.

Persistence:
  --out=PATH          save the trained model (atomic tmp+rename write)
  --checkpoint=PATH   checkpoint every --checkpoint-every iterations
                      (atomic; previous kept as PATH.prev); also written at
                      the iteration boundary after SIGINT/SIGTERM
  --checkpoint-every=N  (default 10)
  --resume=PATH       restore a checkpoint before training; falls back to
                      PATH.prev with a warning if PATH is missing or torn
  --validate          check the invariant inventory after restore and after
                      every iteration; exits 1 on corruption

Observability (docs/observability.md):
  --log-level=L       debug | info | warn | error | off;  --quiet = warn
  --metrics-out=PATH  JSONL metrics per iteration + summary
  --trace-out=PATH    merged Chrome trace JSON (open in Perfetto)
  --metrics-expose=PATH     Prometheus text exposition, atomically
                            rewritten by a background exporter
  --export-interval-ms=N    exporter period (default 1000)
  --profile-json=PATH per-kernel aggregate profile as JSON

Exit codes: 0 success, 1 input error, 2 CLI usage error, 3 internal error,
4 interrupted by SIGINT/SIGTERM after finishing a sweep (state saved).
)";

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    if (flags.HelpRequested()) {
      CliFlags::PrintUsage(stdout, kUsage);
      return 0;
    }
    const LogLevel log_level = flags.ApplyLogFlags();

    corpus::Corpus corpus = [&] {
      const std::string uci = flags.GetString("uci", "");
      if (!uci.empty()) return corpus::ReadUciBagOfWordsFile(uci);
      const std::string name = flags.GetString("synthetic", "nytimes");
      const double scale = flags.GetDouble("scale", 0.01);
      corpus::SyntheticProfile profile =
          name == "pubmed" ? corpus::PubMedProfile(scale)
                           : corpus::NyTimesProfile(scale);
      return corpus::GenerateCorpus(profile);
    }();

    // Optional held-out split for end-of-training perplexity.
    const double heldout_frac = flags.GetDouble("heldout-frac", 0.0);
    corpus::Corpus heldout;
    if (heldout_frac > 0) {
      auto split = corpus::SplitByDocuments(corpus, heldout_frac);
      corpus = std::move(split.train);
      heldout = std::move(split.heldout);
      std::printf("held out %zu documents for evaluation\n",
                  heldout.num_docs());
    }
    std::printf("%s\n", corpus.Summary("corpus").c_str());

    core::CuldaConfig cfg;
    cfg.num_topics = static_cast<uint32_t>(flags.GetInt("topics", 256));
    cfg.alpha = flags.GetDouble("alpha", -1.0);
    cfg.beta = flags.GetDouble("beta", 0.01);
    cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));

    core::TrainerOptions opts;
    opts.gpus.assign(
        flags.GetInt("gpus", 1),
        gpusim::SpecByName(flags.GetString("device", "volta")));
    const int64_t workers_flag = flags.GetInt("workers", 0);
    CULDA_CHECK_MSG(workers_flag >= 0 && workers_flag <= 1024,
                    "--workers must be in [0, 1024], got " << workers_flag);
    // Flag absent → size from the *effective* CPU set (sched_getaffinity,
    // minus the participating caller), not hardware_concurrency, which
    // over-reports inside cpuset-restricted containers. Results are worker-
    // count-invariant, so the auto default changes wall-clock only.
    const size_t workers = flags.Has("workers")
                               ? static_cast<size_t>(workers_flag)
                               : DefaultWorkerCount();
    ThreadPoolOptions pool_options;
    pool_options.pin = flags.GetBool("pin", false);
    opts.numa_replicate = flags.GetBool("numa-replicate", false);
    ThreadPool pool(workers, pool_options);
    if (workers > 0) opts.pool = &pool;
    opts.chunks_per_gpu =
        static_cast<uint32_t>(flags.GetInt("chunks-per-gpu", 0));
    opts.sampler =
        core::ParseTrainSampler(flags.GetString("sampler", "tree"));
    const int64_t mh_cycles = flags.GetInt("mh-cycles", 1);
    CULDA_CHECK_MSG(mh_cycles >= 1 && mh_cycles <= 64,
                    "--mh-cycles must be in [1, 64], got " << mh_cycles);
    opts.mh_cycles = static_cast<uint32_t>(mh_cycles);
    opts.hyperopt_interval =
        static_cast<uint32_t>(flags.GetInt("hyperopt", 0));
    const bool validate = flags.GetBool("validate", false);
    opts.validate = opts.validate || validate;

    // Multi-node (docs/distributed.md): --nodes>1 swaps the single-machine
    // CuldaTrainer for the simulated-cluster ClusterTrainer below. The
    // parse helpers throw on bad values, echoing every accepted spelling.
    const int64_t nodes = flags.GetInt("nodes", 1);
    CULDA_CHECK_MSG(nodes >= 1 && nodes <= 64,
                    "--nodes must be in [1, 64], got " << nodes);
    const dist::DistMode dist_mode =
        dist::ParseDistMode(flags.GetString("dist", "async"));
    const int64_t staleness = flags.GetInt("staleness", -1);
    CULDA_CHECK_MSG(staleness >= -1,
                    "--staleness must be -1 (unbounded) or >= 0 rounds, got "
                        << staleness);
    const gpusim::FabricTopology fabric_topology =
        gpusim::ParseFabricTopology(flags.GetString("fabric", "ring"));
    const gpusim::LinkSpec network_link =
        gpusim::ParseLinkSpec(flags.GetString("link", "eth10g"));

    const int iters = static_cast<int>(flags.GetInt("iters", 100));
    const bool quiet = log_level > LogLevel::kInfo;
    const std::string out_path = flags.GetString("out", "");
    const std::string ckpt_path = flags.GetString("checkpoint", "");
    const int ckpt_every = static_cast<int>(flags.GetInt(
        "checkpoint-every", 10));
    const std::string resume = flags.GetString("resume", "");
    const std::string profile_path = flags.GetString("profile-json", "");
    ObsToolSupport::RegisterFlags(flags);

    if (const int rc = flags.RejectUnknownFlags(kUsage)) return rc;
    if (nodes > 1) {
      // Single-machine-only features: fail loudly instead of silently
      // ignoring them on the cluster path.
      const struct {
        bool set;
        const char* flag;
        const char* why;
      } conflicts[] = {
          {!ckpt_path.empty(), "--checkpoint",
           "checkpoints serialize single-machine trainer state"},
          {!resume.empty(), "--resume",
           "checkpoints serialize single-machine trainer state"},
          {opts.hyperopt_interval > 0, "--hyperopt",
           "hyper-parameter re-estimation runs in the single-machine "
           "trainer only"},
          {opts.chunks_per_gpu > 0, "--chunks-per-gpu",
           "the cluster trainer always runs one chunk per GPU"},
          {!flags.GetString("trace-out", "").empty(), "--trace-out",
           "the merged device trace covers a single machine's devices"},
          {!profile_path.empty(), "--profile-json",
           "the kernel profile covers a single machine's devices"},
      };
      for (const auto& c : conflicts) {
        if (!c.set) continue;
        std::fprintf(stderr,
                     "%s cannot be combined with --nodes=%lld: %s\n",
                     c.flag, static_cast<long long>(nodes), c.why);
        return 2;
      }
    }

    // Observation-only: enabling these changes no numeric result
    // (Obs.BitIdentity* pins that), so flipping them on is always safe.
    ObsToolSupport obs_support(flags);
    obs::JsonlSink& metrics_sink = obs_support.sink();
    const std::string& trace_path = obs_support.trace_path();

    // One machine, or the simulated cluster (docs/distributed.md); both run
    // the same loop and end-of-run tail through the solver interface.
    std::unique_ptr<core::CuldaTrainer> single;
    std::unique_ptr<dist::ClusterTrainer> cluster;
    core::LdaSolver* solver = nullptr;
    if (nodes > 1) {
      dist::ClusterOptions copts;
      copts.num_nodes = static_cast<uint32_t>(nodes);
      copts.gpus = opts.gpus;  // --device/--gpus apply per node
      copts.network = network_link;
      copts.topology = fabric_topology;
      copts.mode = dist_mode;
      copts.staleness_bound = staleness < 0
                                  ? dist::kUnboundedStaleness
                                  : static_cast<uint32_t>(staleness);
      copts.sampler = opts.sampler;
      copts.mh_cycles = opts.mh_cycles;
      copts.pool = opts.pool;
      cluster = std::make_unique<dist::ClusterTrainer>(corpus, cfg, copts);
      solver = cluster.get();
      std::printf("%lld nodes x %zu %s | %s fabric, %s | %s mode\n",
                  static_cast<long long>(nodes), opts.gpus.size(),
                  opts.gpus[0].name.c_str(),
                  gpusim::FabricTopologyName(fabric_topology),
                  network_link.name.c_str(), dist::DistModeName(dist_mode));
    } else {
      single = std::make_unique<core::CuldaTrainer>(corpus, cfg, opts);
      solver = single.get();
      if (!trace_path.empty()) {
        for (size_t g = 0; g < single->group().size(); ++g) {
          single->group().device(g).set_record_trace(true);
        }
      }
      if (!resume.empty()) {
        // Falls back to `resume`.prev (with a warning) when the primary
        // file is missing or torn — a crash mid-checkpoint never strands a
        // run.
        const std::string used = single->RestoreCheckpointFromFile(resume);
        std::printf("resumed from %s at iteration %u\n", used.c_str(),
                    single->iteration());
        if (validate) single->ValidateState();
      }
      std::printf("%zu x %s | M=%u (%s)\n", opts.gpus.size(),
                  opts.gpus[0].name.c_str(), single->chunks_per_gpu(),
                  single->chunks_per_gpu() == 1 ? "WorkSchedule1"
                                                : "WorkSchedule2");
    }

    // Cooperative shutdown: the handler only sets a flag; we check it at
    // iteration boundaries so a sweep is never torn mid-update.
    InstallShutdownHandler();
    bool interrupted = false;
    double wall_total = 0;
    for (int i = 0; i < iters; ++i) {
      const core::IterationStats st = solver->Step();
      if (validate) {
        if (single) {
          single->ValidateState();
        } else {
          solver->Gather().Validate(corpus);
        }
      }
      wall_total += st.wall_seconds;
      if (!quiet && (i % 10 == 0 || i + 1 == iters)) {
        if (cluster) {
          std::printf(
              "sweep %4u  %8.1f Mtok/s (sim)  net %7.2f MB  "
              "staleness %u  ll/token %.4f\n",
              st.iteration, st.tokens_per_sec / 1e6,
              static_cast<double>(st.network_payload_bytes) / 1e6,
              st.max_staleness, solver->LogLikelihoodPerToken());
        } else {
          std::printf(
              "iter %4u  %8.1f Mtok/s (sim)  %6.2f Mtok/s (wall)  "
              "sync %6.2f ms  xfer %6.2f ms  theta %6.2f ms  ll/token "
              "%.4f\n",
              st.iteration, st.tokens_per_sec / 1e6,
              st.wall_tokens_per_sec / 1e6, st.sync_s * 1e3,
              st.transfer_s * 1e3, st.update_theta_s * 1e3,
              solver->LogLikelihoodPerToken());
        }
      }
      if (metrics_sink.active() && cluster) {
        obs::JsonObject fields;
        fields.Add("sweep", static_cast<uint64_t>(st.iteration))
            .Add("sim_seconds", st.sim_seconds)
            .Add("sampling_s", st.sampling_s)
            .Add("sync_s", st.sync_s)
            .Add("network_payload_bytes", st.network_payload_bytes)
            .Add("network_wire_bytes", st.network_wire_bytes)
            .Add("max_staleness", static_cast<uint64_t>(st.max_staleness))
            .Add("theta_nnz", st.theta_nnz);
        metrics_sink.WriteSnapshot("cluster_sweep", std::move(fields));
      } else if (metrics_sink.active()) {
        obs::JsonObject fields;
        fields.Add("iteration", static_cast<uint64_t>(st.iteration))
            .Add("sim_seconds", st.sim_seconds)
            .Add("wall_seconds", st.wall_seconds)
            .Add("tokens_per_sec", st.tokens_per_sec)
            .Add("wall_tokens_per_sec", st.wall_tokens_per_sec)
            .Add("sampling_s", st.sampling_s)
            .Add("update_theta_s", st.update_theta_s)
            .Add("update_phi_s", st.update_phi_s)
            .Add("sync_s", st.sync_s)
            .Add("transfer_s", st.transfer_s)
            .Add("theta_nnz", st.theta_nnz);
        metrics_sink.WriteSnapshot("train_iteration", std::move(fields));
      }
      if (ShutdownRequested()) {
        interrupted = true;
        std::fprintf(stderr,
                     "signal %d: stopping after %s %u (sweep completed)\n",
                     ShutdownSignal(), cluster ? "sweep" : "iteration",
                     st.iteration + 1);
        // --checkpoint is single-machine only (rejected with --nodes>1).
        if (!ckpt_path.empty()) {
          single->SaveCheckpointToFile(ckpt_path);
          std::fprintf(stderr, "checkpoint written to %s\n",
                       ckpt_path.c_str());
        }
        break;
      }
      if (!ckpt_path.empty() && (i + 1) % ckpt_every == 0) {
        // Atomic write + rotation: the previous checkpoint survives as
        // `ckpt_path`.prev until the new one is fully on disk.
        single->SaveCheckpointToFile(ckpt_path);
      }
    }
    if (!interrupted && cluster) {
      std::printf(
          "done: %d sweeps, %.3f simulated seconds, %.2f MB network "
          "payload, max staleness %u\n",
          iters, solver->ModeledSeconds(),
          static_cast<double>(cluster->fabric().payload_bytes()) / 1e6,
          cluster->max_observed_staleness());
    } else if (!interrupted) {
      std::printf(
          "done: %d iterations, %.3f simulated seconds, %.3f wall seconds "
          "(%zu workers, %.2f Mtok/s wall)\n",
          iters, solver->ModeledSeconds(), wall_total, workers,
          wall_total > 0 ? static_cast<double>(solver->num_tokens()) *
                               iters / wall_total / 1e6
                         : 0.0);
    }

    if (!interrupted && heldout_frac > 0) {
      // The engine keeps a pointer into the gathered model, so it must
      // outlive the perplexity call below.
      const auto served = solver->Gather();
      core::InferenceOptions io;
      io.pool = opts.pool;
      io.numa_replicate = opts.numa_replicate;
      const core::InferenceEngine engine(served, solver->config(), io);
      std::printf("held-out document-completion perplexity: %.3f\n",
                  engine.DocumentCompletionPerplexity(heldout));
    }
    if (!interrupted && !out_path.empty()) {
      const auto model = solver->Gather();
      model.Validate(corpus);
      core::SaveModelToFile(model, out_path);
      std::printf("model saved to %s\n", out_path.c_str());
    }

    if (metrics_sink.active()) {
      obs::JsonObject fields;
      fields.Add("iterations", static_cast<uint64_t>(iters))
          .Add("sim_seconds", solver->ModeledSeconds());
      if (cluster) {
        fields.Add("network_payload_bytes", cluster->fabric().payload_bytes());
      } else {
        fields.Add("wall_seconds", wall_total);
      }
      fields.Add("workers", static_cast<uint64_t>(workers))
          .Add("tokens", solver->num_tokens());
      metrics_sink.WriteSnapshot("train_summary", std::move(fields));
      std::printf("metrics written to %s\n",
                  flags.GetString("metrics-out", "").c_str());
    }
    // The exporter stops after the summary snapshot so the exposed file
    // reflects the finished run.
    obs_support.Shutdown();
    // --trace-out and --profile-json are single-machine only (rejected
    // with --nodes>1).
    if (!trace_path.empty()) {
      // Training merges the simulated device timeline with the host spans,
      // so it writes the trace itself instead of WriteHostTrace().
      std::ofstream trace_out(trace_path, std::ios::trunc);
      CULDA_CHECK_MSG(trace_out.good(),
                      "cannot open '" << trace_path << "' for writing");
      gpusim::WriteMergedChromeTrace(single->group(),
                                     obs::SpanTracer::Global(), trace_out);
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    if (!profile_path.empty()) {
      std::ofstream profile_out(profile_path, std::ios::trunc);
      CULDA_CHECK_MSG(profile_out.good(),
                      "cannot open '" << profile_path << "' for writing");
      gpusim::WriteProfileJson(single->group(), profile_out);
      std::printf("profile written to %s\n", profile_path.c_str());
    }
    return interrupted ? kInterruptedExitCode : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Backstop for anything that escapes the validation layer (exit 3 so
    // scripts can tell an internal failure from a rejected input).
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
