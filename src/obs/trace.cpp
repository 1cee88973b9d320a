#include "obs/trace.hpp"

#include <ostream>

#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"

namespace culda::obs {

namespace {

/// splitmix64 finisher: spreads a sequential counter over the id space so
/// ids from different sources don't collide on low bits. Deterministic and
/// completely separate from the sampling RNGs (observation-only contract).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the client-supplied trace string: the same client id always
/// maps to the same trace id, so client and server logs correlate.
uint64_t HashClientTrace(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

thread_local TraceContext t_current_ctx;

}  // namespace

uint64_t NewObsId() {
  static std::atomic<uint64_t> counter{0};
  uint64_t id = 0;
  while (id == 0) {
    id = Mix64(counter.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  return id;
}

TraceContext NewRequestContext(std::string_view client_trace) {
  TraceContext ctx;
  if (client_trace.empty()) {
    ctx.trace_id = NewObsId();
  } else {
    ctx.trace_id = HashClientTrace(client_trace);
    if (ctx.trace_id == 0) ctx.trace_id = 1;  // 0 means "no context"
  }
  ctx.span_id = NewObsId();
  return ctx;
}

TraceContext ChildContext(const TraceContext& parent) {
  if (!parent.valid()) return {};
  return {parent.trace_id, NewObsId(), parent.span_id};
}

TraceContext CurrentTraceContext() { return t_current_ctx; }

SpanTracer& SpanTracer::Global() {
  // Leaked for the same reason as the metrics registry: spans recorded
  // during static destruction must still have a live home.
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

SpanTracer::SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

double SpanTracer::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double SpanTracer::ToSeconds(
    std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double>(tp - epoch_).count();
}

void SpanTracer::RecordSpan(std::string name, double start_s, double end_s,
                            TraceContext ctx, uint64_t link_span_id,
                            SpanArgs args) {
  FlightRecorder& flight = FlightRecorder::Global();
  if (flight.enabled()) {
    flight.Record(name, end_s - start_s, ctx.trace_id);
  }
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = thread_tids_.try_emplace(self, next_tid_);
  if (inserted) ++next_tid_;
  spans_.push_back({std::move(name), it->second, start_s, end_s, ctx,
                    link_span_id, std::move(args)});
}

void SpanTracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

size_t SpanTracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<TraceEvent> SpanTracer::CollectEvents(int pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> events;
  events.reserve(spans_.size());
  for (const Span& s : spans_) {
    events.push_back({s.name, pid, s.tid, s.start_s, s.end_s - s.start_s,
                      s.ctx, s.link_span_id, s.args});
  }
  return events;
}

std::vector<TraceThread> SpanTracer::CollectThreads(int pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceThread> threads;
  threads.reserve(thread_tids_.size());
  for (const auto& [id, tid] : thread_tids_) {
    threads.push_back(
        {pid, tid, "host thread " + std::to_string(tid)});
  }
  return threads;
}

ScopedSpan::ScopedSpan(std::string name, SpanTracer& tracer) {
  if (tracer.enabled()) Begin(std::move(name), t_current_ctx, tracer);
}

ScopedSpan::ScopedSpan(std::string name, const TraceContext& parent,
                       SpanTracer& tracer) {
  if (tracer.enabled()) Begin(std::move(name), parent, tracer);
}

void ScopedSpan::Begin(std::string name, const TraceContext& parent,
                       SpanTracer& tracer) {
  tracer_ = &tracer;
  name_ = std::move(name);
  ctx_ = ChildContext(parent);
  saved_ctx_ = t_current_ctx;
  if (ctx_.valid()) t_current_ctx = ctx_;
  start_s_ = tracer.NowSeconds();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) {
    if (ctx_.valid()) t_current_ctx = saved_ctx_;
    tracer_->RecordSpan(std::move(name_), start_s_, tracer_->NowSeconds(),
                        ctx_, 0, std::move(args_));
  }
}

namespace {

std::string HexId(uint64_t id) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kDigits[id & 0xF];
    id >>= 4;
  }
  return out;
}

}  // namespace

void WriteChromeTraceJson(std::span<const TraceEvent> events,
                          std::span<const TraceProcess> processes,
                          std::span<const TraceThread> threads,
                          std::ostream& out) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };
  for (const TraceProcess& p : processes) {
    JsonObject args;
    args.Add("name", p.name);
    JsonObject m;
    m.Add("name", "process_name")
        .Add("ph", "M")
        .Add("pid", p.pid)
        .Add("tid", 0)
        .AddRaw("args", args.str());
    sep() << "  " << m.str();
  }
  for (const TraceThread& t : threads) {
    JsonObject args;
    args.Add("name", t.name);
    JsonObject m;
    m.Add("name", "thread_name")
        .Add("ph", "M")
        .Add("pid", t.pid)
        .Add("tid", t.tid)
        .AddRaw("args", args.str());
    sep() << "  " << m.str();
  }
  for (const TraceEvent& e : events) {
    JsonObject x;
    x.Add("name", e.name)
        .Add("ph", "X")
        .Add("pid", e.pid)
        .Add("tid", e.tid)
        .Add("ts", e.start_s * 1e6)
        .Add("dur", e.dur_s * 1e6);
    if (e.ctx.valid() || e.link_span_id != 0 || !e.args.empty()) {
      JsonObject args;
      if (e.ctx.valid()) {
        args.Add("trace", HexId(e.ctx.trace_id))
            .Add("span", HexId(e.ctx.span_id));
        if (e.ctx.parent_span_id != 0) {
          args.Add("parent", HexId(e.ctx.parent_span_id));
        }
      }
      if (e.link_span_id != 0) args.Add("link", HexId(e.link_span_id));
      for (const auto& [key, value] : e.args) args.Add(key, value);
      x.AddRaw("args", args.str());
    }
    sep() << "  " << x.str();
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void WriteChromeTrace(const SpanTracer& tracer, std::ostream& out) {
  const std::vector<TraceEvent> events = tracer.CollectEvents();
  const std::vector<TraceThread> threads = tracer.CollectThreads();
  const std::vector<TraceProcess> processes = {{kHostTracePid, "host"}};
  WriteChromeTraceJson(events, processes, threads, out);
}

}  // namespace culda::obs
