// Tests for the host observability layer (src/obs): histogram percentile
// semantics, lock-free concurrent recording, span tracing, the JSONL sink,
// and — the load-bearing one — bit-identity of every numeric result with
// instrumentation on vs off.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "core/model_io.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "obs/sink.hpp"
#include "util/thread_pool.hpp"

namespace culda::obs {
namespace {

/// Enables metrics + tracing for the test body and restores the global
/// default (everything off, values zeroed) afterwards, so obs tests cannot
/// leak state into each other or into unrelated tests in this binary.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Metrics().ResetValues();
    Metrics().set_enabled(true);
    SpanTracer::Global().Reset();
    SpanTracer::Global().set_enabled(true);
  }
  void TearDown() override {
    Metrics().set_enabled(false);
    Metrics().ResetValues();
    SpanTracer::Global().set_enabled(false);
    SpanTracer::Global().Reset();
  }
};

TEST(ObsHistogram, EmptyReportsZeroEverywhere) {
  Histogram h;
  const auto s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
}

TEST(ObsHistogram, SingleSampleIsExactAtEveryPercentile) {
  Histogram h;
  const double v = 0.00123456;
  h.Record(v);
  const auto s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min, v);
  EXPECT_EQ(s.max, v);
  // The bucket upper edge is clamped to [min, max], so one sample reports
  // its own value exactly — not a bucket boundary.
  EXPECT_EQ(s.p50, v);
  EXPECT_EQ(s.p95, v);
  EXPECT_EQ(s.p99, v);
  EXPECT_EQ(h.Percentile(0.0), v);
  EXPECT_EQ(h.Percentile(1.0), v);
}

TEST(ObsHistogram, AllInOverflowBucketReportsTrueMax) {
  Histogram h;
  // Everything ≥ ~67 s lands in the unbounded overflow bucket, whose edge
  // is +inf; the clamp must bring the report back to the observed max.
  h.Record(80.0);
  h.Record(90.0);
  h.Record(100.0);
  const auto s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.min, 80.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.p99, 100.0);
}

TEST(ObsHistogram, PercentilesLandInTheRightBucket) {
  Histogram h;
  // 90 fast samples (~2 µs) and 10 slow ones (~1 ms): p50 must report a
  // fast-bucket edge, p99 a slow-bucket one.
  for (int i = 0; i < 90; ++i) h.Record(2e-6);
  for (int i = 0; i < 10; ++i) h.Record(1e-3);
  const auto s = h.Snapshot();
  EXPECT_LE(s.p50, 1e-5);
  EXPECT_GE(s.p99, 5e-4);
  EXPECT_LE(s.p99, 1e-3);  // clamped to the observed max
}

TEST(ObsHistogram, ResetClearsEverything) {
  Histogram h;
  h.Record(0.5);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  h.Record(0.25);
  EXPECT_EQ(h.Snapshot().min, 0.25);  // min re-engages after Reset
}

TEST_F(ObsTest, ConcurrentCounterIncrementsAreLossless) {
  constexpr size_t kItems = 200000;
  Counter& c = Metrics().GetCounter("obs_test.concurrent_counter");
  Histogram& h = Metrics().GetHistogram("obs_test.concurrent_hist");
  ThreadPool pool(4);
  pool.ParallelForRanges(kItems, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      c.Add(1);
      h.Record(1e-6 * static_cast<double>(i % 64));
    }
  });
  EXPECT_EQ(c.value(), kItems);
  EXPECT_EQ(h.Snapshot().count, kItems);
}

TEST_F(ObsTest, MacrosRecordOnlyWhenEnabled) {
  CULDA_OBS_COUNT("obs_test.macro_counter", 2);
  CULDA_OBS_COUNT("obs_test.macro_counter", 3);
#ifdef CULDA_OBS_OFF
  // Compiled-away macros must leave no trace at all.
  EXPECT_EQ(Metrics().GetCounter("obs_test.macro_counter").value(), 0u);
#else
  EXPECT_EQ(Metrics().GetCounter("obs_test.macro_counter").value(), 5u);

  Metrics().set_enabled(false);
  CULDA_OBS_COUNT("obs_test.macro_counter", 100);
  EXPECT_EQ(Metrics().GetCounter("obs_test.macro_counter").value(), 5u);
#endif
}

TEST_F(ObsTest, LabeledMetricsAreDistinctSeries) {
  Metrics().GetCounter("obs_test.ops", "op", "infer").Add(3);
  Metrics().GetCounter("obs_test.ops", "op", "stats").Add(1);
  Metrics().GetCounter("obs_test.ops", "op", "infer").Add(2);
  EXPECT_EQ(Metrics().GetCounter("obs_test.ops", "op", "infer").value(), 5u);
  EXPECT_EQ(Metrics().GetCounter("obs_test.ops", "op", "stats").value(), 1u);
  // The canonical series name is name{key=value}.
  EXPECT_EQ(MetricsRegistry::LabeledName("obs_test.ops", "op", "infer"),
            "obs_test.ops{op=infer}");
  const auto samples = Metrics().CollectSamples();
  size_t labeled = 0;
  for (const auto& [name, value] : samples.counters) {
    if (name.rfind("obs_test.ops{", 0) == 0) ++labeled;
  }
  EXPECT_EQ(labeled, 2u);
}

TEST_F(ObsTest, LabelCardinalityIsBoundedWithOverflowFold) {
  for (int i = 0; i < 100; ++i) {
    Metrics()
        .GetCounter("obs_test.cardinality", "client",
                    "c" + std::to_string(i))
        .Add(1);
  }
  // Only kMaxLabelValues distinct values get their own series; the rest
  // fold into {client=overflow} so a hostile label can't grow the registry
  // without bound.
  uint64_t total = 0;
  size_t series = 0;
  for (const auto& [name, value] : Metrics().CollectSamples().counters) {
    if (name.rfind("obs_test.cardinality{", 0) == 0) {
      ++series;
      total += value;
    }
  }
  EXPECT_EQ(series, MetricsRegistry::kMaxLabelValues + 1);  // + overflow
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(Metrics()
                .GetCounter("obs_test.cardinality", "client", "overflow")
                .value(),
            100u - MetricsRegistry::kMaxLabelValues);
}

TEST_F(ObsTest, LabeledMacrosRecordUnderTheLabeledName) {
  for (int i = 0; i < 3; ++i) {
    CULDA_OBS_COUNT_L("obs_test.macro_ops", "op", "infer", 1);
    CULDA_OBS_HIST_L("obs_test.macro_lat", "op", "infer", 0.001);
  }
#ifdef CULDA_OBS_OFF
  EXPECT_EQ(
      Metrics().GetCounter("obs_test.macro_ops", "op", "infer").value(), 0u);
#else
  EXPECT_EQ(
      Metrics().GetCounter("obs_test.macro_ops", "op", "infer").value(), 3u);
  EXPECT_EQ(Metrics()
                .GetHistogram("obs_test.macro_lat", "op", "infer")
                .Snapshot()
                .count,
            3u);
#endif
}

TEST(ObsTraceContext, IdsAreUniqueAndNonZero) {
  const TraceContext a = NewRequestContext();
  const TraceContext b = NewRequestContext();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(a.span_id, b.span_id);
  EXPECT_EQ(a.parent_span_id, 0u);
}

TEST(ObsTraceContext, ClientTraceHashesDeterministically) {
  const TraceContext a = NewRequestContext("req-abc");
  const TraceContext b = NewRequestContext("req-abc");
  const TraceContext c = NewRequestContext("req-xyz");
  // Same client trace string → same trace id (so retries correlate), but
  // fresh span ids each time.
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_NE(a.trace_id, c.trace_id);
  EXPECT_NE(a.span_id, b.span_id);
}

TEST(ObsTraceContext, ChildInheritsTraceAndLinksParent) {
  const TraceContext parent = NewRequestContext();
  const TraceContext child = ChildContext(parent);
  EXPECT_EQ(child.trace_id, parent.trace_id);
  EXPECT_EQ(child.parent_span_id, parent.span_id);
  EXPECT_NE(child.span_id, parent.span_id);
}

TEST_F(ObsTest, ScopedSpanPropagatesContextToNestedSpans) {
  const TraceContext request = NewRequestContext();
  {
    ScopedSpan outer("ctx_outer", request);
    // A plain nested span picks the active context up from the thread
    // local — this is how engine-internal spans join a request's trace.
    ScopedSpan inner("ctx_inner");
    EXPECT_EQ(inner.ctx().trace_id, request.trace_id);
    EXPECT_EQ(inner.ctx().parent_span_id, outer.ctx().span_id);
  }
  // The thread-local is restored on unwind.
  EXPECT_FALSE(CurrentTraceContext().valid());
  const auto events = SpanTracer::Global().CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ctx.trace_id, request.trace_id);
  EXPECT_EQ(events[1].ctx.trace_id, request.trace_id);
  EXPECT_EQ(events[1].ctx.parent_span_id, request.span_id);
}

TEST_F(ObsTest, ChromeJsonCarriesTraceIdsAndLinks) {
  SpanTracer& tracer = SpanTracer::Global();
  const TraceContext request = NewRequestContext();
  tracer.RecordSpan("linked", 0.001, 0.002, ChildContext(request),
                    /*link_span_id=*/0x1234u);
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"trace\":"), std::string::npos);
  EXPECT_NE(s.find("\"span\":"), std::string::npos);
  EXPECT_NE(s.find("\"parent\":"), std::string::npos);
  EXPECT_NE(s.find("\"link\":\"0000000000001234\""), std::string::npos);
}

TEST_F(ObsTest, SpanNestingIsContainedAndInDestructionOrder) {
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
  }
  const auto events = SpanTracer::Global().CollectEvents();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction, so the inner one lands first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Time containment is what makes Perfetto stack them.
  EXPECT_GE(events[0].start_s, events[1].start_s);
  EXPECT_LE(events[0].start_s + events[0].dur_s,
            events[1].start_s + events[1].dur_s);
}

TEST_F(ObsTest, SpanRecordsThroughExceptions) {
  try {
    ScopedSpan span("unwinding");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  const auto events = SpanTracer::Global().CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unwinding");
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  SpanTracer tracer;  // disabled by default
  { ScopedSpan span("invisible", tracer); }
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ObsTrace, ChromeJsonCarriesMetadataAndEvents) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  { ScopedSpan span("phase", tracer); }
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"process_name\""), std::string::npos);
  EXPECT_NE(s.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("\"phase\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(s.front(), '{');
}

TEST(ObsTrace, SpanArgsReachTheChromeJson) {
  SpanTracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan span("counted", tracer);
    span.AddArg("blocks", 7);
    span.AddArg("word_tables", 5);
  }
  const auto events = tracer.CollectEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].args,
            (SpanArgs{{"blocks", 7}, {"word_tables", 5}}));
  std::ostringstream out;
  WriteChromeTrace(tracer, out);
  EXPECT_NE(out.str().find("\"args\":{\"blocks\":7,\"word_tables\":5}"),
            std::string::npos)
      << out.str();

  SpanTracer off;  // an inert span drops its args with it
  {
    ScopedSpan span("invisible", off);
    span.AddArg("blocks", 7);
  }
  EXPECT_EQ(off.span_count(), 0u);
}

#ifndef CULDA_OBS_OFF
TEST_F(ObsTest, TrainerSamplesAllChunksInOneSpanBeforeTheDeviceSpans) {
  // WS2 over 2 GPUs: 4 chunks, sampled in one word-major pass whose span
  // carries the pass's block and word-table counts; the per-device spans
  // that follow cover only billing and the updates.
  corpus::SyntheticProfile profile;
  profile.num_docs = 200;
  profile.vocab_size = 120;
  profile.seed = 5;
  const auto corpus = corpus::GenerateCorpus(profile);
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  core::TrainerOptions opts;
  opts.gpus.assign(2, gpusim::TitanXpPascal());
  opts.chunks_per_gpu = 2;
  core::CuldaTrainer trainer(corpus, cfg, opts);
  SpanTracer::Global().Reset();
  trainer.Step();

  const auto events = SpanTracer::Global().CollectEvents();
  const TraceEvent* sampling = nullptr;
  std::vector<const TraceEvent*> devices;
  for (const TraceEvent& e : events) {
    if (e.name == "train/sampling") sampling = &e;
    if (e.name.rfind("train/ws2 gpu", 0) == 0) devices.push_back(&e);
  }
  ASSERT_NE(sampling, nullptr);
  ASSERT_EQ(devices.size(), 2u);
  for (const TraceEvent* d : devices) {
    EXPECT_GE(d->start_s, sampling->start_s + sampling->dur_s);
  }
  ASSERT_EQ(sampling->args.size(), 2u);
  EXPECT_EQ(sampling->args[0].first, "blocks");
  EXPECT_EQ(sampling->args[1].first, "word_tables");
  const uint64_t blocks = sampling->args[0].second;
  const uint64_t tables = sampling->args[1].second;
  // Every word occurs in several of the 4 chunks, so there are fewer
  // tables than blocks, and at most one per vocabulary word.
  EXPECT_GT(tables, 0u);
  EXPECT_LE(tables, corpus.vocab_size());
  EXPECT_LT(tables, blocks);
}
#endif

TEST_F(ObsTest, JsonlSinkWritesOneSchemaStampedLinePerSnapshot) {
  const std::string path = ::testing::TempDir() + "obs_sink_test.jsonl";
  {
    JsonlSink sink(path);
    // Direct registry call (not a macro) so this holds in OBS_OFF builds
    // too — the library surface is always present, only macros vanish.
    Metrics().GetCounter("obs_test.sink_counter").Add(7);
    JsonObject fields;
    fields.Add("iteration", static_cast<uint64_t>(3));
    sink.WriteSnapshot("test_kind", std::move(fields));
    sink.WriteSnapshot("test_kind2", JsonObject());
  }
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::remove(path.c_str());
  // v3: the sink opens with a schema header line, then one line per
  // snapshot — every line self-identifies its schema version.
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find(std::string("\"schema\":\"") + obs::kMetricsSchema +
                        "\""),
              std::string::npos);
  }
  EXPECT_NE(lines[0].find("\"kind\":\"header\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"test_kind\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"iteration\":3"), std::string::npos);
  EXPECT_NE(lines[1].find("\"obs_test.sink_counter\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"test_kind2\""), std::string::npos);
}

TEST(ObsSink, InactiveSinkIsANoOp) {
  JsonlSink sink;
  EXPECT_FALSE(sink.active());
  sink.WriteSnapshot("ignored", JsonObject());  // must not crash
}

TEST(ObsJson, NumbersRoundTripAndNonFiniteBecomesNull) {
  EXPECT_EQ(JsonNumber(0.1), "0.1");
  EXPECT_EQ(JsonNumber(3.0), "3");
  EXPECT_EQ(std::strtod(JsonNumber(1.0 / 3.0).c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
}

/// JsonNumber's definition, kept as the oracle: try `%.{p}g` for
/// p = 6, 7, ..., 17 and keep the first rendering that strtod parses back.
std::string JsonNumberBySearch(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

/// Compares JsonNumber with the oracle on every value; returns how many
/// differ and describes the first in `*first`.
size_t CountOracleMismatches(const std::vector<double>& values,
                             std::string* first) {
  size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = JsonNumber(v);
    const std::string want = JsonNumberBySearch(v);
    if (got == want) continue;
    if (mismatches++ == 0) {
      char hex[64];
      std::snprintf(hex, sizeof(hex), "%a", v);
      *first = std::string(hex) + ": got " + got + ", want " + want;
    }
  }
  return mismatches;
}

TEST(ObsJson, NumberMatchesPrintfSearchOnEdgeCases) {
  std::vector<double> values = {0.0,
                                -0.0,
                                DBL_TRUE_MIN,
                                DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                std::nan(""),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
  const auto add_with_neighbours = [&values](double x) {
    for (const double y :
         {x, std::nextafter(x, 0.0), std::nextafter(x, HUGE_VAL)}) {
      values.push_back(y);
      values.push_back(-y);
    }
  };
  // Every power of two, subnormals included: where the rounding interval
  // is lopsided, the nearest s-digit decimal may not round-trip.
  for (int e = -1074; e <= 1023; ++e) add_with_neighbours(std::ldexp(1, e));
  for (int e = -323; e <= 308; ++e) {
    add_with_neighbours(std::strtod(("1e" + std::to_string(e)).c_str(),
                                    nullptr));
  }
  // Around %g's switch between fixed and exponent notation (exponent < -4
  // or >= precision), including values that round up across a decade.
  for (int e = -7; e <= 18; ++e) {
    for (const double m : {1.0, 1.5, 5.0, 9.999995, 9.9999995, 9.99999999,
                           9.999999999999999}) {
      add_with_neighbours(m * std::pow(10.0, e));
    }
  }
  std::string first;
  EXPECT_EQ(CountOracleMismatches(values, &first), 0u) << first;
}

TEST(ObsJson, NumberMatchesPrintfSearchOnRandomBitPatterns) {
  std::mt19937_64 rng(20261019);
  std::vector<double> values(1u << 20);
  for (double& v : values) {
    const uint64_t bits = rng();
    std::memcpy(&v, &bits, sizeof(v));
  }
  // Topic proportions, the daemon's bulk traffic: products of uniforms.
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 65536; ++i) values.push_back(unit(rng) * unit(rng));
  std::string first;
  EXPECT_EQ(CountOracleMismatches(values, &first), 0u) << first;
}

TEST(ObsJson, EscapesControlCharactersAndQuotes) {
  JsonObject o;
  o.Add("k\"ey", "va\\l\nue");
  EXPECT_EQ(o.str(), "{\"k\\\"ey\":\"va\\\\l\\nue\"}");
}

// --- Bit-identity: instrumentation must be observation-only. -------------

struct RunResult {
  std::string model_bytes;
  std::vector<uint16_t> assignments;
  double perplexity = 0;
  std::vector<std::vector<uint16_t>> infer_assignments;
};

RunResult TrainAndInfer(bool instrumented) {
  corpus::SyntheticProfile profile;
  profile.num_docs = 220;
  profile.vocab_size = 300;
  profile.seed = 99;
  const auto corpus = corpus::GenerateCorpus(profile);

  core::CuldaConfig cfg;
  cfg.num_topics = 24;
  cfg.seed = 4321;

  ThreadPool pool(3);
  core::TrainerOptions opts;
  opts.gpus.assign(2, gpusim::TitanXpPascal());
  opts.pool = &pool;

  core::CuldaTrainer trainer(corpus, cfg, opts);
  if (instrumented) {
    for (size_t g = 0; g < trainer.group().size(); ++g) {
      trainer.group().device(g).set_record_trace(true);
    }
  }
  trainer.Train(4);

  RunResult r;
  const auto model = trainer.Gather();
  std::ostringstream bytes;
  core::SaveModel(model, bytes);
  r.model_bytes = bytes.str();
  r.assignments = trainer.ExportAssignments();

  core::InferenceOptions io;
  io.pool = &pool;
  const core::InferenceEngine engine(model, cfg, io);
  std::vector<std::vector<uint32_t>> docs = {
      {1, 2, 3, 4, 5, 6}, {7, 8, 9, 7, 8, 9, 7}, {250, 10, 20, 30}};
  for (const auto& res : engine.InferBatch(docs, 15, uint64_t{77})) {
    r.infer_assignments.push_back(res.assignments);
  }
  r.perplexity = engine.DocumentCompletionPerplexity(corpus, 5);
  return r;
}

TEST(ObsBitIdentity, MetricsAndTracingChangeNoNumericResult) {
  // Baseline: everything off (the global default).
  Metrics().set_enabled(false);
  SpanTracer::Global().set_enabled(false);
  FlightRecorder::Global().set_enabled(false);
  const RunResult off = TrainAndInfer(/*instrumented=*/false);

  // Instrumented: the full telemetry plane — metrics + tracing + device
  // trace recording + flight recorder + a live exporter snapshotting the
  // registry concurrently with the run.
  Metrics().ResetValues();
  Metrics().set_enabled(true);
  SpanTracer::Global().Reset();
  SpanTracer::Global().set_enabled(true);
  FlightRecorder::Global().Clear();
  FlightRecorder::Global().set_enabled(true);
  const std::string expose_path =
      ::testing::TempDir() + "obs_bit_identity.prom";
  RunResult on;
  {
    ExporterOptions eopts;
    eopts.interval_s = 0.01;
    eopts.expose_path = expose_path;
    MetricsExporter exporter(eopts);
    exporter.Start();
    on = TrainAndInfer(/*instrumented=*/true);
  }  // Stop() + final export

  // The instrumented run must actually have observed something…
#ifndef CULDA_OBS_OFF
  EXPECT_GT(Metrics().GetCounter("train.iterations").value(), 0u);
  EXPECT_GT(SpanTracer::Global().span_count(), 0u);
  EXPECT_GT(FlightRecorder::Global().recorded(), 0u);
#endif
  std::remove(expose_path.c_str());

  Metrics().set_enabled(false);
  Metrics().ResetValues();
  SpanTracer::Global().set_enabled(false);
  SpanTracer::Global().Reset();
  FlightRecorder::Global().set_enabled(false);
  FlightRecorder::Global().Clear();

  // …and changed nothing: model bytes, z, inference output, perplexity.
  EXPECT_EQ(off.model_bytes, on.model_bytes);
  EXPECT_EQ(off.assignments, on.assignments);
  EXPECT_EQ(off.infer_assignments, on.infer_assignments);
  EXPECT_EQ(off.perplexity, on.perplexity);
}

}  // namespace
}  // namespace culda::obs
