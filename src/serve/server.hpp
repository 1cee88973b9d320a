// ServeDaemon — the long-running serving core behind tools/culda_serve.
//
// Transport-agnostic: frontends (stdin/stdout, Unix socket — serve/
// frontend.hpp) and tests Submit() parsed requests and get responses via
// callback or future. Internally one dispatch thread pulls coalesced
// batches from the CoalescingBatcher, pins the current ModelSnapshot for
// the batch, runs InferBatch, and completes every ticket.
//
// Hot swap is RCU-style through core::SnapshotSlot: Publish() is one
// atomic pointer swap from any thread (typically whatever drives training
// — e.g. OnlineTrainer::Absorb() followed by Publish(online.Snapshot())).
// The dispatch thread re-Acquires the slot per batch, so after Publish
// returns, no *new* batch uses the old generation; the batch already in
// flight finishes on the snapshot it pinned and retires it with its last
// reference. Readers never block on a swap, a swap never tears a batch,
// and every response records the generation that served it.
//
// Shutdown is graceful by construction: Drain() closes admissions (late
// Submits get an immediate "draining" response), the dispatch thread
// serves everything already queued, then exits. The destructor drains too,
// so a daemon can't be destroyed out from under queued requests.
//
// SLO metrics (docs/serving.md lists the inventory): serve.request.latency
// and serve.queue.wait histograms, serve.batch.size (histogram, unit =
// requests per batch), serve.shed.count / serve.requests / serve.responses
// (ok, error, dropped) counters, serve.snapshot.swaps. All through the PR 4 registry, so
// --metrics-out on the tool gets per-batch percentiles for free.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "core/snapshot.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"
#include "util/thread_pool.hpp"

namespace culda::serve {

struct ServeDaemonOptions {
  BatcherOptions batch;
  /// Fold-in sweeps per request (the daemon-wide quality/latency knob;
  /// per-request overrides would fragment batches, so there are none).
  uint32_t iterations = 20;
  /// Worker pool for document fan-out *within* a batch (nullptr =
  /// sequential). Results are bit-identical either way.
  ThreadPool* pool = nullptr;
  /// Slow-request threshold (seconds): an inference answered with
  /// end-to-end latency ≥ this is logged at Warn (id, latency, queue wait,
  /// batch size, generation), counted in serve.slow_requests, and flagged
  /// in the flight recorder. 0 (default) disables the log.
  double slow_request_s = 0;
};

class ServeDaemon {
 public:
  /// Starts the dispatch thread. `initial` may be null (requests are shed
  /// with "draining" semantics until the first Publish) but normally is
  /// the generation-1 snapshot.
  ServeDaemon(ServeDaemonOptions options, core::SnapshotPtr initial);

  /// Drains (serving everything queued) if Drain() was not already called.
  ~ServeDaemon();

  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Installs a new model generation; returns the previous snapshot. Never
  /// blocks on in-flight batches (RCU: they hold their own reference).
  core::SnapshotPtr Publish(core::SnapshotPtr next);

  /// The snapshot new batches will use. (A batch dispatched concurrently
  /// may still be serving the previous one.)
  core::SnapshotPtr Current() const { return slot_.Acquire(); }

  /// Enqueues a request; `done` fires exactly once with the response.
  /// Backpressure is immediate and non-blocking: when the bounded queue is
  /// full, `done` is invoked *inline* with error "shed" (callers must
  /// tolerate reentrant completion); after Drain() begins, with error
  /// "draining". `gone` (optional) is the requester's liveness flag: a
  /// request whose flag reads true by the time it would be queued or
  /// served is dropped without inference, and `done` never fires.
  void Submit(ServeRequest request, std::function<void(ServeResponse)> done,
              std::shared_ptr<const std::atomic<bool>> gone = nullptr);

  /// Future-returning convenience for tests and embedders.
  std::future<ServeResponse> Submit(ServeRequest request);

  /// Graceful shutdown: stop admitting, serve the whole queue, join the
  /// dispatch thread. Idempotent; safe to call from any thread except a
  /// completion callback.
  void Drain();

  size_t pending() const { return batcher_.pending(); }
  bool draining() const { return batcher_.closed(); }

  /// The {"op":"stats"} payload (docs/serving.md): daemon state (pending,
  /// draining, slow_request_s) plus the full registry snapshot — labeled
  /// per-endpoint latency histograms with percentiles included — under
  /// "metrics", stamped with the metrics schema version.
  std::string StatsPayloadJson() const;

 private:
  void DispatchLoop();
  /// Serves one batch against `snap` (validates vocabulary, runs
  /// InferBatch, completes tickets in batch order).
  void ServeBatch(std::vector<Ticket> batch);

  const ServeDaemonOptions options_;
  core::SnapshotSlot slot_;
  CoalescingBatcher batcher_;
  std::once_flag drained_;
  std::thread dispatcher_;  ///< last member: joins before the rest dies
};

}  // namespace culda::serve
