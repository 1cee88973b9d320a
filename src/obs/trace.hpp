// Host wall-clock span tracing, exportable as Chrome trace-event JSON.
//
// gpusim already records the *simulated* device timeline
// (gpusim::WriteChromeTrace); this tracer records what the host actually
// does — trainer phases, φ-sync, checkpoint fsyncs, inference batches — so
// both can be merged into one trace file (host as its own "process") and
// inspected side by side in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. gpusim::WriteMergedChromeTrace does the merging.
//
// Spans are recorded with RAII (ScopedSpan / the CULDA_OBS_SPAN macro):
// construction reads the steady clock, destruction appends one record —
// which makes nesting free (Perfetto stacks same-thread "X" events by time
// containment) and exception-safe (an unwinding scope still records its
// span). Appending takes a mutex; spans sit at phase granularity (dozens
// per iteration), never inside sampler loops, so this is far off the hot
// path. A disabled tracer (the default) records nothing and skips even the
// clock reads.
//
// Request-scoped tracing: spans may carry a TraceContext — a 64-bit trace
// id shared by every span of one logical request, a span id of their own,
// and a parent span id. The serving daemon mints a context per request (or
// derives it from the client-supplied "trace" field) so a request's life —
// parse → queue wait → batch coalesce → infer → respond — renders as one
// connected trace across threads; the coalesced batch gets its own context
// and per-request spans link into it. Context-less spans (the trainer's
// phase spans) are unchanged. ScopedSpan propagates the active context
// through a thread-local, so nested macro spans inherit their parent
// automatically; ids surface in the Chrome JSON as an "args" object.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace culda::obs {

/// The host's process id in merged trace files. Simulated devices use their
/// device index (0, 1, …) as pid; this stays clear of any plausible count.
inline constexpr int kHostTracePid = 1000;

/// Identity of one span within one logical request. All-zero (the default)
/// means "no context": the span renders exactly as before this existed.
struct TraceContext {
  uint64_t trace_id = 0;        ///< shared by every span of the request
  uint64_t span_id = 0;         ///< this span
  uint64_t parent_span_id = 0;  ///< 0 for a request's root span

  bool valid() const { return trace_id != 0; }
};

/// Process-unique nonzero 64-bit id (atomic counter fed through a mixer, so
/// ids are unique and well-spread but NOT random — observation-only code
/// must not touch the sampling RNGs).
uint64_t NewObsId();

/// Root context for one request. A non-empty `client_trace` (the wire
/// "trace" field) hashes deterministically to the trace id, so a client
/// can correlate its own ids with the server's trace; empty mints a fresh
/// id. The span id is always fresh.
TraceContext NewRequestContext(std::string_view client_trace = {});

/// Child of `parent`: same trace, fresh span id, parent link. An invalid
/// parent yields an invalid (all-zero) context.
TraceContext ChildContext(const TraceContext& parent);

/// The calling thread's innermost active ScopedSpan context (all-zero when
/// none). Plain ScopedSpans inherit this as their parent.
TraceContext CurrentTraceContext();

/// A numeric span annotation (ScopedSpan::AddArg).
using SpanArgs = std::vector<std::pair<std::string, uint64_t>>;

/// One complete Chrome "X" (duration) event, in seconds since the owning
/// timeline's epoch. Nonzero ids and any args surface in the event's
/// "args" object.
struct TraceEvent {
  std::string name;
  int pid = 0;
  int tid = 0;
  double start_s = 0;
  double dur_s = 0;
  TraceContext ctx;           ///< all-zero for context-less spans
  uint64_t link_span_id = 0;  ///< cross-trace link (request → batch span)
  SpanArgs args;
};

/// Chrome trace metadata: names a process / thread row in the UI.
struct TraceProcess {
  int pid = 0;
  std::string name;
};
struct TraceThread {
  int pid = 0;
  int tid = 0;
  std::string name;
};

class SpanTracer {
 public:
  /// The process-global tracer CULDA_OBS_SPAN records into.
  static SpanTracer& Global();

  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Seconds since this tracer's epoch (construction or last Reset).
  double NowSeconds() const;

  /// `tp` (a steady_clock stamp taken elsewhere, e.g. a batcher ticket's
  /// enqueue time) on this tracer's timeline. Lets a span start before the
  /// code that records it ran.
  double ToSeconds(std::chrono::steady_clock::time_point tp) const;

  /// Appends one span; `start_s`/`end_s` from NowSeconds(). The calling
  /// thread is assigned a dense tid (0, 1, …) on first use. A valid `ctx`
  /// ties the span into a request trace; `link_span_id` draws a link to a
  /// span in another trace (the coalesced batch span). Spans also mirror
  /// into the flight recorder when it is enabled.
  void RecordSpan(std::string name, double start_s, double end_s,
                  TraceContext ctx = {}, uint64_t link_span_id = 0,
                  SpanArgs args = {});

  /// Clears recorded spans and re-zeroes the epoch (thread ids persist).
  void Reset();

  size_t span_count() const;

  /// Recorded spans as Chrome events under process `pid`, in record order.
  std::vector<TraceEvent> CollectEvents(int pid = kHostTracePid) const;
  /// One entry per thread that recorded a span ("host thread N").
  std::vector<TraceThread> CollectThreads(int pid = kHostTracePid) const;

 private:
  struct Span {
    std::string name;
    int tid = 0;
    double start_s = 0;
    double end_s = 0;
    TraceContext ctx;
    uint64_t link_span_id = 0;
    SpanArgs args;
  };

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> thread_tids_;
  int next_tid_ = 0;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span on a tracer (the global one by default). If the tracer is
/// disabled at construction, the whole object is inert.
///
/// An active ScopedSpan installs its context as the thread's current one
/// (restored on destruction), so nested spans chain parent links without
/// plumbing. The plain constructor inherits the thread's current context
/// as its parent — a context-less thread yields a context-less span, same
/// as always; the explicit-parent constructor starts (or continues) a
/// request trace as a child of `parent`.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name,
                      SpanTracer& tracer = SpanTracer::Global());
  ScopedSpan(std::string name, const TraceContext& parent,
             SpanTracer& tracer = SpanTracer::Global());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's context (all-zero when inert or context-less).
  const TraceContext& ctx() const { return ctx_; }

  /// Attaches `key = value` to the span's Chrome-trace "args" (e.g. the
  /// work a phase did). Ignored when the span is inert.
  void AddArg(std::string key, uint64_t value) {
    if (tracer_ != nullptr) args_.emplace_back(std::move(key), value);
  }

 private:
  void Begin(std::string name, const TraceContext& parent,
             SpanTracer& tracer);

  SpanTracer* tracer_ = nullptr;  ///< null when disabled at construction
  std::string name_;
  double start_s_ = 0;
  TraceContext ctx_;
  TraceContext saved_ctx_;  ///< thread-local context to restore
  SpanArgs args_;
};

/// Writes `events` (+ process/thread naming metadata) as one Chrome
/// trace-event JSON object: {"traceEvents":[...],"displayTimeUnit":"ms"}.
/// Timestamps are converted to microseconds as the format requires; spans
/// with a trace context carry {"trace","span","parent","link"} hex ids in
/// "args". Loads in Perfetto and chrome://tracing.
void WriteChromeTraceJson(std::span<const TraceEvent> events,
                          std::span<const TraceProcess> processes,
                          std::span<const TraceThread> threads,
                          std::ostream& out);

/// Host-only convenience: the tracer's spans as a complete trace file
/// (used by culda_infer, which has no simulated devices).
void WriteChromeTrace(const SpanTracer& tracer, std::ostream& out);

}  // namespace culda::obs
