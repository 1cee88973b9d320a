// Request coalescing for the serving daemon: a bounded MPSC queue whose
// consumer side yields *batches* of whatever is pending.
//
// Many client threads Enqueue single requests; one dispatch thread calls
// NextBatch, which blocks only while nothing is pending and then hands back
// up to `max_batch` tickets at once. The policy is work-conserving: the
// dispatcher runs each batch to completion before it asks for the next, so
// whenever it calls NextBatch the engine is idle, and holding a request
// back would only delay it. Batches still form on their own under load —
// everything that arrives while a batch is in flight is taken together by
// the next call — and responses depend only on (snapshot, words, seed),
// never on which requests shared a batch.
//
// Admission control is explicit: the queue is bounded at `max_queue`, and
// an Enqueue against a full (or closed) queue returns false *immediately*
// — the caller sheds the request with a backpressure response instead of
// blocking the client or buffering unboundedly. Shedding at the front
// door keeps the queue-wait of admitted requests bounded by roughly
// (max_queue / max_batch) × batch-inference-time, which is what makes the
// serve.queue.wait histogram a meaningful SLO signal.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/protocol.hpp"

namespace culda::serve {

struct BatcherOptions {
  /// Hard cap on batch size.
  size_t max_batch = 64;
  /// Admission bound on pending (not yet dispatched) requests; beyond it
  /// Enqueue sheds. 0 is legal and sheds everything (useful in tests).
  size_t max_queue = 1024;
};

/// One queued request plus its completion callback and enqueue timestamp.
/// The callback is invoked exactly once, from the dispatch thread, when
/// the request's batch completes — shed requests never enter the queue
/// (Enqueue returns false and the caller responds inline). The enqueue
/// stamp doubles as the start of the request's serve/queue_wait span (the
/// request's trace context rides on ServeRequest::trace_ctx), so the wait
/// is visible per-request in the merged trace, not just as a histogram.
///
/// `gone`, when set, is the requester's liveness flag: once it reads true
/// nobody will read the response, so the request is dropped unserved and
/// `done` is never called (serve.responses.dropped counts these).
struct Ticket {
  ServeRequest request;
  std::function<void(ServeResponse)> done;
  std::chrono::steady_clock::time_point enqueued;
  std::shared_ptr<const std::atomic<bool>> gone;

  bool abandoned() const {
    return gone != nullptr && gone->load(std::memory_order_acquire);
  }
};

class CoalescingBatcher {
 public:
  explicit CoalescingBatcher(BatcherOptions options);

  /// Thread-safe; never blocks. False = shed (queue full or closed) — the
  /// ticket is only consumed on success, so on failure the caller still
  /// owns it and answers it (typically with a backpressure response). A
  /// full queue first drops its abandoned tickets: their room is not shed
  /// from anyone still waiting for an answer.
  bool Enqueue(Ticket&& ticket);

  /// Dispatch side (single consumer). Blocks while the queue is empty and
  /// open, then returns up to `max_batch` tickets in arrival order; returns
  /// an empty vector only when the batcher is closed and fully drained —
  /// the dispatch loop's termination condition.
  std::vector<Ticket> NextBatch();

  /// Stops admissions (Enqueue → false). Pending requests remain and
  /// NextBatch keeps returning them until empty: closing is *graceful* —
  /// drain, don't drop. Idempotent.
  void Close();

  size_t pending() const;
  bool closed() const;

 private:
  const BatcherOptions options_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;  ///< consumer wakeups
  std::deque<Ticket> queue_;
  bool closed_ = false;
};

}  // namespace culda::serve
