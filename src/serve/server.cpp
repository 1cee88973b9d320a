#include "serve/server.hpp"

#include <chrono>
#include <memory>
#include <utility>

#include "obs/obs.hpp"
#include "obs/sink.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace culda::serve {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ServeDaemon::ServeDaemon(ServeDaemonOptions options, core::SnapshotPtr initial)
    : options_(options),
      slot_(std::move(initial)),
      batcher_(options.batch),
      dispatcher_([this] { DispatchLoop(); }) {}

ServeDaemon::~ServeDaemon() { Drain(); }

core::SnapshotPtr ServeDaemon::Publish(core::SnapshotPtr next) {
  CULDA_CHECK_MSG(next != nullptr, "cannot publish a null snapshot");
  CULDA_OBS_COUNT("serve.snapshot.swaps", 1);
  return slot_.Publish(std::move(next));
}

void ServeDaemon::Submit(ServeRequest request,
                         std::function<void(ServeResponse)> done,
                         std::shared_ptr<const std::atomic<bool>> gone) {
  CULDA_OBS_COUNT("serve.requests", 1);
  if (obs::SpanTracer::Global().enabled() && !request.trace_ctx.valid()) {
    // Embedders that skip the frontend still get a request trace; the
    // frontend mints the context earlier so its parse span joins in.
    request.trace_ctx = obs::NewRequestContext(request.trace);
  }
  Ticket ticket;
  ticket.request = std::move(request);
  ticket.done = std::move(done);
  ticket.enqueued = std::chrono::steady_clock::now();
  ticket.gone = std::move(gone);
  if (ticket.abandoned()) {
    CULDA_OBS_COUNT("serve.responses.dropped", 1);
    return;
  }
  if (!batcher_.Enqueue(std::move(ticket))) {
    // Enqueue only consumes the ticket on success; here we still own it.
    // Respond inline — backpressure must be immediate and non-blocking.
    CULDA_OBS_COUNT("serve.shed.count", 1);
    const bool draining = batcher_.closed();
    ServeResponse resp = MakeErrorResponse(
        std::move(ticket.request.id),
        draining ? "draining" : "shed",
        draining ? "daemon is shutting down"
                 : "queue full (" + std::to_string(options_.batch.max_queue) +
                       " pending)");
    resp.trace = std::move(ticket.request.trace);
    ticket.done(std::move(resp));
  }
}

std::future<ServeResponse> ServeDaemon::Submit(ServeRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  Submit(std::move(request),
         [promise](ServeResponse r) { promise->set_value(std::move(r)); });
  return future;
}

void ServeDaemon::Drain() {
  std::call_once(drained_, [this] {
    batcher_.Close();
    if (dispatcher_.joinable()) dispatcher_.join();
  });
}

void ServeDaemon::DispatchLoop() {
  while (true) {
    std::vector<Ticket> batch = batcher_.NextBatch();
    if (batch.empty()) return;  // closed and drained
    ServeBatch(std::move(batch));
  }
}

void ServeDaemon::ServeBatch(std::vector<Ticket> batch) {
  // Nobody will read the answers of abandoned requests; spend nothing on
  // them.
  const size_t queued = batch.size();
  std::erase_if(batch, [](const Ticket& t) { return t.abandoned(); });
  if (batch.size() < queued) {
    CULDA_OBS_COUNT("serve.responses.dropped", queued - batch.size());
  }
  if (batch.empty()) return;
  const auto dispatched = std::chrono::steady_clock::now();
  CULDA_OBS_COUNT("serve.batches", 1);
  // Unit abuse by design: the latency histogram's value axis is just
  // doubles, so batch size is recorded as-is (docs/serving.md documents
  // the unit as requests-per-batch).
  CULDA_OBS_HIST("serve.batch.size", static_cast<double>(batch.size()));

  // The coalesced batch gets a trace of its own; each member request's
  // spans link into it (the "link" arg), so Perfetto shows both the
  // per-request story and which requests shared a batch.
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  const bool tracing = tracer.enabled();
  obs::TraceContext batch_ctx;
  double dispatch_s = 0;
  if (tracing) {
    batch_ctx = obs::NewRequestContext();
    dispatch_s = tracer.ToSeconds(dispatched);
  }
  // Serving heartbeat (the dispatcher analogue of train/step): with the
  // flight recorder armed but tracing off — a --metrics-out-only daemon —
  // the ring would otherwise stay empty, and a fatal-signal dump would
  // say nothing about what the daemon was doing when it died.
  CULDA_OBS_EVENT("serve/dispatch");
  for (const Ticket& t : batch) {
    CULDA_OBS_HIST("serve.queue.wait",
                   std::chrono::duration<double>(dispatched - t.enqueued)
                       .count());
    if (tracing && t.request.trace_ctx.valid()) {
      // The wait span starts at the ticket's enqueue stamp — a span whose
      // recording site runs only after the wait ended.
      tracer.RecordSpan("serve/queue_wait", tracer.ToSeconds(t.enqueued),
                        dispatch_s, obs::ChildContext(t.request.trace_ctx),
                        batch_ctx.span_id);
    }
  }

  // Pin the current generation for the whole batch (RCU read-side): a
  // Publish racing with us retires the old snapshot only after this
  // shared_ptr dies.
  const core::SnapshotPtr snap = slot_.Acquire();
  if (snap == nullptr) {
    for (Ticket& t : batch) {
      CULDA_OBS_COUNT("serve.responses.error", 1);
      ServeResponse resp = MakeErrorResponse(std::move(t.request.id),
                                             "draining",
                                             "no model published");
      resp.trace = std::move(t.request.trace);
      t.done(std::move(resp));
    }
    return;
  }

  // Vocabulary check against *this batch's* snapshot: a request that
  // out-runs the model it was written for gets a per-request error, and
  // the rest of the batch proceeds.
  const uint32_t vocab = snap->model().vocab_size;
  std::vector<size_t> live;  ///< indices into batch that infer
  std::vector<std::vector<uint32_t>> docs;
  std::vector<uint64_t> seeds;
  live.reserve(batch.size());
  docs.reserve(batch.size());
  seeds.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    bool in_vocab = true;
    for (const uint32_t w : batch[i].request.words) {
      if (w >= vocab) {
        in_vocab = false;
        CULDA_OBS_COUNT("serve.responses.error", 1);
        ServeResponse resp = MakeErrorResponse(
            std::move(batch[i].request.id), "bad_request",
            "word id " + std::to_string(w) + " is out of vocabulary (V=" +
                std::to_string(vocab) + ")");
        resp.trace = std::move(batch[i].request.trace);
        batch[i].done(std::move(resp));
        break;
      }
    }
    if (!in_vocab) continue;
    live.push_back(i);
    docs.push_back(std::move(batch[i].request.words));
    seeds.push_back(batch[i].request.seed);
  }

  std::vector<core::InferenceResult> results;
  const double infer_start_s = tracing ? tracer.NowSeconds() : 0;
  if (!docs.empty()) {
    CULDA_OBS_TIMED("serve.batch.infer");
    // Inference runs under the batch's own span (child of batch_ctx), so
    // any macro spans inside the engine chain into the batch trace via
    // the thread-local context.
    obs::ScopedSpan batch_infer_span("serve/infer_batch", batch_ctx);
    results = snap->engine().InferBatch(docs, options_.iterations, seeds);
  }
  const double infer_end_s = tracing ? tracer.NowSeconds() : 0;
  for (size_t j = 0; j < live.size(); ++j) {
    Ticket& t = batch[live[j]];
    ServeResponse response;
    response.id = std::move(t.request.id);
    response.trace = std::move(t.request.trace);
    response.ok = true;
    response.generation = snap->generation();
    response.result = std::move(results[j]);
    const double latency_s = SecondsSince(t.enqueued);
    CULDA_OBS_COUNT("serve.responses.ok", 1);
    CULDA_OBS_HIST("serve.request.latency", latency_s);
    // The per-endpoint breakdown (ROADMAP item 4): inference latency as a
    // labeled series next to the unlabeled total; the frontend records
    // the reload/stats ops into the same family.
    CULDA_OBS_HIST_L("serve.request.latency", "op", "infer", latency_s);
    if (tracing && t.request.trace_ctx.valid()) {
      // Each request's share of the batch inference window, linked to the
      // shared batch span.
      tracer.RecordSpan("serve/infer", infer_start_s, infer_end_s,
                        obs::ChildContext(t.request.trace_ctx),
                        batch_ctx.span_id);
    }
    if (options_.slow_request_s > 0 && latency_s >= options_.slow_request_s) {
      CULDA_OBS_COUNT("serve.slow_requests", 1);
      obs::FlightRecorder& flight = obs::FlightRecorder::Global();
      if (flight.enabled()) {
        flight.Record("serve/slow_request", latency_s,
                      t.request.trace_ctx.trace_id);
      }
      CULDA_LOG(Warn) << "slow request id=" << response.id
                      << " latency_s=" << latency_s << " queue_wait_s="
                      << std::chrono::duration<double>(dispatched -
                                                       t.enqueued)
                             .count()
                      << " batch=" << batch.size()
                      << " generation=" << response.generation;
    }
    if (tracing && t.request.trace_ctx.valid()) {
      const double respond_start_s = tracer.NowSeconds();
      t.done(std::move(response));
      tracer.RecordSpan("serve/respond", respond_start_s,
                        tracer.NowSeconds(),
                        obs::ChildContext(t.request.trace_ctx));
    } else {
      t.done(std::move(response));
    }
  }
  if (tracing) {
    // The shared batch span covers dispatch through the last completion.
    tracer.RecordSpan("serve/batch", dispatch_s, tracer.NowSeconds(),
                      batch_ctx);
  }
}

std::string ServeDaemon::StatsPayloadJson() const {
  obs::JsonObject payload;
  payload.Add("schema", obs::kMetricsSchema)
      .Add("pending", static_cast<uint64_t>(pending()))
      .Add("draining", draining())
      .Add("slow_request_s", options_.slow_request_s);
  payload.AddRaw("metrics", obs::Metrics().SnapshotJson());
  return payload.str();
}

}  // namespace culda::serve
