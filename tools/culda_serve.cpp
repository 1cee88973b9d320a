// culda_serve — long-running inference daemon with request coalescing and
// RCU-style model hot-swap (docs/serving.md, "Daemon").
//
//   culda_serve --model=m.bin < requests.jsonl > responses.jsonl
//   culda_serve --model=m.bin --socket=/tmp/culda.sock
//   culda_serve --model=m.bin --oneshot < requests.jsonl   # reference path
//
// Requests are JSON Lines ({"id":"r1","words":[3,17],"seed":7}); responses
// come back one line each in completion order, tagged with the generation
// of the model snapshot that served them. {"op":"reload"} re-reads --model
// and hot-swaps it without blocking in-flight requests; {"op":"stats"}
// returns a metrics snapshot; {"op":"drain"} (or SIGINT/SIGTERM, or EOF on
// stdin) begins a graceful drain: stop admitting, answer everything
// admitted, flush metrics, exit 0.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/sampler/sampler.hpp"
#include "core/snapshot.hpp"
#include "obs/sink.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/obs_cli.hpp"
#include "util/signal.hpp"
#include "util/thread_pool.hpp"
#include "validate/invariants.hpp"

using namespace culda;

namespace {

constexpr char kUsage[] =
    R"(usage: culda_serve --model=MODEL.bin [options] < requests.jsonl

Long-running LDA inference daemon: coalesces concurrent JSONL requests
into batches and hot-swaps model snapshots RCU-style.
See docs/serving.md ("Daemon") for the wire protocol and semantics.

Input/transport:
  --model=PATH       trained model (required); {"op":"reload"} re-reads it
  --socket=PATH      listen on a Unix domain socket for concurrent clients
                     instead of serving stdin/stdout
  --oneshot          no daemon: read every request from stdin, run them
                     directly through InferBatch in input order, respond,
                     and exit. The bit-identity reference for the daemon
                     path (same snapshot + seed => same bytes).

Batching / admission control:
  --max-batch=N      at most N requests per batch (default 64). Dispatch is
                     work-conserving: whenever the engine is idle it takes
                     everything pending (up to N) at once, so a lone request
                     never waits and requests arriving during a batch form
                     the next one
  --max-queue=N      bounded queue; beyond it requests are shed with an
                     immediate {"error":"shed"} response (default 1024)

Inference:
  --iters=N          fold-in sweeps per request (default 20)
  --sampler=MODE     sparse (default) | dense | alias-mh (docs/samplers.md)
  --mh-cycles=N      alias-mh only: MH proposal pairs per token per sweep
  --workers=N        threads fanning one batch's documents out (default:
                     effective CPUs - 1 from the affinity mask; 0 = inline)
  --pin              pin workers to their CPUs (graceful unpinned fallback)
  --numa-replicate   per-socket replicas of the read-mostly serving tables,
                     rebuilt with every generation (docs/parallelism.md;
                     no-op single-socket; responses stay bit-identical)
  --alpha=X          document prior (default 50/K)
  --beta=X           topic prior (default 0.01)
  --validate         check model invariants at load/reload (exit 1 on
                     corruption at startup; reload answers reload_failed)

Observability (docs/observability.md):
  --metrics-out=PATH JSONL metrics; serve.request.latency, serve.batch.size,
                     serve.queue.wait, serve.shed.count et al., plus
                     per-endpoint series like serve.request.latency{op=infer}
  --trace-out=PATH   host spans as Chrome trace JSON; each request's
                     parse/queue/infer/respond spans share a trace id
                     (clients may tag requests with a "trace" field)
  --metrics-expose=P Prometheus text-exposition file, atomically replaced
                     every --export-interval-ms while the daemon runs
  --export-interval-ms=N  live exporter period (default 1000)
  --slow-request-ms=X     warn-log requests slower end-to-end than X ms
                     (default 0 = off); counted in serve.slow_requests
  --log-level=L      debug | info | warn | error | off;  --quiet = warn

Exit codes: 0 served and drained cleanly (including SIGINT/SIGTERM drain),
1 input/model error, 2 CLI usage error, 3 internal error.
)";

/// The oneshot reference path: parse every line first, then answer in
/// *input order* — inference requests run through direct InferBatch calls
/// against the current snapshot, control ops apply at their position in
/// the stream (a reload mid-file splits the batch exactly like the
/// daemon's swap boundary would).
int RunOneshot(const serve::ReloadFn& reload, core::SnapshotPtr snapshot,
               uint32_t iterations) {
  std::vector<serve::ParsedLine> lines;
  std::string line;
  while (std::getline(std::cin, line)) {
    serve::ParsedLine parsed = serve::ParseRequestLine(line);
    if (parsed.kind == serve::LineKind::kError && parsed.error.empty()) {
      continue;  // blank
    }
    lines.push_back(std::move(parsed));
  }

  std::vector<size_t> pending;  ///< indices of unanswered infer lines
  const auto flush = [&] {
    if (pending.empty()) return;
    std::vector<std::vector<uint32_t>> docs;
    std::vector<uint64_t> seeds;
    std::vector<size_t> live;
    for (const size_t i : pending) {
      const auto& req = lines[i].request;
      bool in_vocab = true;
      for (const uint32_t w : req.words) {
        if (w >= snapshot->model().vocab_size) {
          in_vocab = false;
          serve::ServeResponse resp = serve::MakeErrorResponse(
              req.id, "bad_request",
              "word id " + std::to_string(w) +
                  " is out of vocabulary (V=" +
                  std::to_string(snapshot->model().vocab_size) + ")");
          resp.trace = req.trace;
          std::printf("%s\n", serve::FormatResponse(resp).c_str());
          break;
        }
      }
      if (!in_vocab) continue;
      live.push_back(i);
      docs.push_back(req.words);
      seeds.push_back(req.seed);
    }
    if (!docs.empty()) {
      const auto results =
          snapshot->engine().InferBatch(docs, iterations, seeds);
      for (size_t j = 0; j < live.size(); ++j) {
        serve::ServeResponse response;
        response.id = lines[live[j]].request.id;
        response.trace = lines[live[j]].request.trace;
        response.ok = true;
        response.generation = snapshot->generation();
        response.result = results[j];
        std::printf("%s\n", serve::FormatResponse(response).c_str());
      }
    }
    pending.clear();
  };

  for (size_t i = 0; i < lines.size(); ++i) {
    auto& parsed = lines[i];
    if (parsed.kind == serve::LineKind::kError) {
      std::printf("%s\n",
                  serve::FormatResponse(serve::MakeErrorResponse(
                      parsed.id, "bad_request", parsed.error))
                      .c_str());
      continue;
    }
    if (parsed.kind == serve::LineKind::kInfer) {
      pending.push_back(i);
      continue;
    }
    // Control op: answer everything that came before it first.
    flush();
    if (parsed.op == "drain") {
      std::printf("%s\n", serve::FormatControlAck(parsed.id, "drain",
                                                  snapshot->generation())
                              .c_str());
      return 0;
    }
    if (parsed.op == "stats") {
      // Same payload shape as ServeDaemon::StatsPayloadJson — the oneshot
      // path has no queue, so pending/draining are trivially 0/false.
      obs::JsonObject payload;
      payload.Add("schema", obs::kMetricsSchema)
          .Add("pending", static_cast<uint64_t>(0))
          .Add("draining", false)
          .Add("slow_request_s", 0.0);
      payload.AddRaw("metrics", obs::Metrics().SnapshotJson());
      std::printf("%s\n", serve::FormatControlAck(
                              parsed.id, "stats", snapshot->generation(),
                              payload.str())
                              .c_str());
      continue;
    }
    try {
      snapshot = reload();
      std::printf("%s\n", serve::FormatControlAck(parsed.id, "reload",
                                                  snapshot->generation())
                              .c_str());
    } catch (const std::exception& e) {
      std::printf("%s\n",
                  serve::FormatResponse(serve::MakeErrorResponse(
                      parsed.id, "reload_failed", e.what()))
                      .c_str());
    }
  }
  flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags(argc, argv);
    if (flags.HelpRequested()) {
      CliFlags::PrintUsage(stdout, kUsage);
      return 0;
    }
    flags.ApplyLogFlags();

    // Read every flag before rejecting strangers, so a typo is reported as
    // a usage error (exit 2) rather than shadowed by a missing-flag check.
    const std::string model_path = flags.GetString("model", "");
    const std::string socket_path = flags.GetString("socket", "");
    const bool oneshot = flags.GetBool("oneshot", false);
    const int64_t iters = flags.GetInt("iters", 20);
    const std::string sampler_name = flags.GetString("sampler", "sparse");
    const int64_t mh_cycles = flags.GetInt("mh-cycles", 1);
    const int64_t workers_flag = flags.GetInt("workers", 0);
    const bool workers_given = flags.Has("workers");
    const bool pin = flags.GetBool("pin", false);
    const bool numa_replicate = flags.GetBool("numa-replicate", false);
    const int64_t max_batch = flags.GetInt("max-batch", 64);
    const int64_t max_queue = flags.GetInt("max-queue", 1024);
    const double alpha = flags.GetDouble("alpha", -1.0);
    const double beta = flags.GetDouble("beta", 0.01);
    const bool validate = flags.GetBool("validate", false);
    const double slow_request_ms = flags.GetDouble("slow-request-ms", 0.0);
    ObsToolSupport::RegisterFlags(flags);
    if (const int rc = flags.RejectUnknownFlags(kUsage)) return rc;

    CULDA_CHECK_MSG(!model_path.empty(), "--model is required");
    CULDA_CHECK_MSG(iters >= 1 && iters <= 10000,
                    "--iters must be in [1, 10000], got " << iters);
    CULDA_CHECK_MSG(mh_cycles >= 1 && mh_cycles <= 64,
                    "--mh-cycles must be in [1, 64], got " << mh_cycles);
    CULDA_CHECK_MSG(workers_flag >= 0 && workers_flag <= 1024,
                    "--workers must be in [0, 1024], got " << workers_flag);
    CULDA_CHECK_MSG(max_batch >= 1 && max_batch <= 65536,
                    "--max-batch must be in [1, 65536], got " << max_batch);
    CULDA_CHECK_MSG(max_queue >= 1 && max_queue <= (1 << 20),
                    "--max-queue must be in [1, 2^20], got " << max_queue);
    CULDA_CHECK_MSG(!(oneshot && !socket_path.empty()),
                    "--oneshot reads stdin; it cannot combine with --socket");
    CULDA_CHECK_MSG(slow_request_ms >= 0,
                    "--slow-request-ms must be >= 0, got " << slow_request_ms);

    // Sink, tracer, live exporter, flight recorder + fatal-dump handler —
    // the whole shared observability surface (util/obs_cli.hpp).
    ObsToolSupport obs_support(flags);
    obs::JsonlSink& metrics_sink = obs_support.sink();
    // The sampler mode as a labeled info gauge, so a scrape can tell which
    // tier this daemon runs without parsing logs (dynamic label value —
    // registered directly, not through the call-site-cached macros).
    if (obs::MetricsEnabled()) {
      obs::Metrics().GetGauge("serve.info", "sampler", sampler_name).Set(1.0);
    }

    // Flag absent → size from the effective CPU set (affinity-mask-honest,
    // unlike hardware_concurrency inside cpuset-restricted containers).
    const size_t workers = workers_given ? static_cast<size_t>(workers_flag)
                                         : DefaultWorkerCount();
    ThreadPoolOptions pool_options;
    pool_options.pin = pin;
    ThreadPool pool(workers, pool_options);
    core::InferenceOptions engine_options;
    engine_options.sampler = core::ParseInferSampler(sampler_name);
    engine_options.mh_cycles = static_cast<uint32_t>(mh_cycles);
    engine_options.numa_replicate = numa_replicate;
    if (workers > 0) engine_options.pool = &pool;

    // Each (re)load gets the next generation number; "reload" publishes
    // the result RCU-style, so in-flight batches finish on the snapshot
    // they pinned while new batches pick this one up.
    uint64_t next_generation = 0;
    const serve::ReloadFn load = [&]() -> core::SnapshotPtr {
      core::GatheredModel model = core::LoadModelFromFile(model_path);
      if (validate) validate::ValidateServedModel(model);
      core::CuldaConfig cfg;
      cfg.num_topics = model.num_topics;
      cfg.alpha = alpha;
      cfg.beta = beta;
      return core::ModelSnapshot::FromModel(std::move(model), cfg,
                                            engine_options,
                                            ++next_generation);
    };
    core::SnapshotPtr initial = load();
    CULDA_LOG(Info) << "serving model " << model_path << " (K="
                    << initial->model().num_topics << ", V="
                    << initial->model().vocab_size << ", generation "
                    << initial->generation() << ")";

    if (oneshot) {
      const int rc =
          RunOneshot(load, std::move(initial), static_cast<uint32_t>(iters));
      obs_support.WriteHostTrace();
      return rc;
    }

    // Daemon mode: cooperative shutdown (drain, don't drop) and no
    // SIGPIPE death when a socket client disappears mid-response.
    InstallShutdownHandler();
#ifndef _WIN32
    std::signal(SIGPIPE, SIG_IGN);
#endif

    serve::ServeDaemonOptions daemon_options;
    daemon_options.batch.max_batch = static_cast<size_t>(max_batch);
    daemon_options.batch.max_queue = static_cast<size_t>(max_queue);
    daemon_options.iterations = static_cast<uint32_t>(iters);
    daemon_options.pool = engine_options.pool;
    daemon_options.slow_request_s = slow_request_ms / 1000.0;
    serve::ServeDaemon daemon(daemon_options, std::move(initial));

    serve::FrontendResult front;
    if (!socket_path.empty()) {
      serve::SocketFrontend listener(daemon, socket_path, load);
      CULDA_LOG(Info) << "listening on " << socket_path;
      front = listener.Run();
    } else {
      front = serve::RunLineFrontend(daemon, /*in_fd=*/0, /*out_fd=*/1,
                                     load);
    }

    // Graceful exit on EOF, drain op, or signal: answer everything
    // admitted, then flush metrics. A signalled drain is still clean (0).
    const size_t backlog = daemon.pending();
    daemon.Drain();
    if (ShutdownRequested()) {
      CULDA_LOG(Info) << "signal " << ShutdownSignal() << ": drained "
                      << backlog << " queued request(s) before exit";
    }
    if (metrics_sink.active()) {
      obs::JsonObject fields;
      fields.Add("lines", front.lines)
          .Add("drain_requested", front.drain_requested)
          .Add("signalled", ShutdownRequested());
      metrics_sink.WriteSnapshot("serve_summary", std::move(fields));
    }
    // Shutdown ordering: the daemon drained above, the summary snapshot is
    // written — stop the exporter last so its final export (and the
    // exposed Prometheus file) reflects the fully-drained state, then dump
    // the host trace.
    obs_support.Shutdown();
    obs_support.WriteHostTrace();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 3;
  }
}
