// Serving daemon tests: wire-protocol strictness, the coalescing batcher's
// flush/shed/drain policy, ServeDaemon end-to-end (including backpressure
// and hot-swap), and the fd-pair line frontend.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/snapshot.hpp"
#include "core/trainer.hpp"
#include "corpus/synthetic.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/batcher.hpp"
#include "serve/frontend.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace culda::serve {
namespace {

core::SnapshotPtr TestSnapshot(uint64_t generation = 1,
                               uint32_t train_iters = 5) {
  corpus::SyntheticProfile p;
  p.num_docs = 120;
  p.vocab_size = 200;
  p.avg_doc_length = 25;
  core::CuldaConfig cfg;
  cfg.num_topics = 16;
  // The trainer keeps a pointer to its corpus; it must stay alive until
  // the snapshot is gathered.
  const auto corpus = corpus::GenerateCorpus(p);
  core::CuldaTrainer trainer(corpus, cfg, {});
  trainer.Train(train_iters);
  return core::SnapshotFromTrainer(trainer, {}, generation);
}

// ------------------------------------------------------------ protocol

TEST(Protocol, ParsesMinimalRequest) {
  const auto p = ParseRequestLine(R"({"id":"r1","words":[3,17,3]})");
  ASSERT_EQ(p.kind, LineKind::kInfer);
  EXPECT_EQ(p.request.id, "r1");
  EXPECT_EQ(p.request.words, (std::vector<uint32_t>{3, 17, 3}));
  EXPECT_EQ(p.request.seed, 7u);  // documented default
}

TEST(Protocol, ParsesSeedAndWhitespace) {
  const auto p =
      ParseRequestLine(R"(  { "seed" : 42 , "id" : "x" , "words" : [ 1 ] } )");
  ASSERT_EQ(p.kind, LineKind::kInfer);
  EXPECT_EQ(p.request.seed, 42u);
}

TEST(Protocol, BlankLineIsSilentSkip) {
  const auto p = ParseRequestLine("   \t  ");
  EXPECT_EQ(p.kind, LineKind::kError);
  EXPECT_TRUE(p.error.empty());
}

TEST(Protocol, RejectsStrictly) {
  // Each of these must fail loudly (PR 5 spirit: typos never pass silently).
  const char* bad[] = {
      R"({"id":"r","words":[1],"wordz":[2]})",    // unknown field
      R"({"id":"r","words":[1],"id":"r2"})",      // duplicate key
      R"({"id":"r","words":[1]} trailing)",       // trailing garbage
      R"({"id":"r","words":[1.5]})",              // non-integer word id
      R"({"id":"r","words":[-3]})",               // negative word id
      R"({"words":[1]})",                         // missing id
      R"({"id":"","words":[1]})",                 // empty id
      R"({"id":"r"})",                            // missing words
      R"({"id":"r","words":1})",                  // words not an array
      R"({"id":"r","words":[1],"seed":"7"})",     // seed not a number
      R"(["id","r"])",                            // not an object
      R"({"id":"r","words":[1])",                 // unterminated
  };
  for (const char* line : bad) {
    const auto p = ParseRequestLine(line);
    EXPECT_EQ(p.kind, LineKind::kError) << line;
    EXPECT_FALSE(p.error.empty()) << line;
  }
}

TEST(Protocol, ControlOps) {
  const auto drain = ParseRequestLine(R"({"op":"drain","id":"c1"})");
  ASSERT_EQ(drain.kind, LineKind::kControl);
  EXPECT_EQ(drain.op, "drain");
  EXPECT_EQ(drain.id, "c1");

  const auto reload = ParseRequestLine(R"({"op":"reload"})");
  ASSERT_EQ(reload.kind, LineKind::kControl);
  EXPECT_EQ(reload.op, "reload");
  EXPECT_TRUE(reload.id.empty());

  EXPECT_EQ(ParseRequestLine(R"({"op":"restart"})").kind, LineKind::kError);
  // Control requests are just as strict: no stray fields.
  EXPECT_EQ(ParseRequestLine(R"({"op":"drain","words":[1]})").kind,
            LineKind::kError);
}

TEST(Protocol, StringEscapes) {
  const auto p = ParseRequestLine(R"({"id":"a\"b\\cA","words":[1]})");
  ASSERT_EQ(p.kind, LineKind::kInfer);
  EXPECT_EQ(p.request.id, "a\"b\\cA");
}

TEST(Protocol, FormatErrorResponse) {
  const auto line =
      FormatResponse(MakeErrorResponse("r9", "shed", "queue full"));
  EXPECT_EQ(line,
            R"({"id":"r9","ok":false,"error":"shed","detail":"queue full"})");
}

TEST(Protocol, FormatOkResponseIsStable) {
  ServeResponse r;
  r.id = "r1";
  r.ok = true;
  r.generation = 3;
  r.result.tokens = 2;
  r.result.mixture = {{4, 1, 0.5}, {9, 1, 0.25}};
  r.result.assignments = {4, 9};
  const auto line = FormatResponse(r);
  EXPECT_EQ(line,
            R"({"id":"r1","ok":true,"generation":3,"tokens":2,)"
            R"("topics":[[4,0.5],[9,0.25]],"assignments":[4,9]})");
}

TEST(Protocol, ParsesAndEchoesTrace) {
  const auto p =
      ParseRequestLine(R"({"id":"r1","words":[1],"trace":"req-7f"})");
  ASSERT_EQ(p.kind, LineKind::kInfer);
  EXPECT_EQ(p.request.trace, "req-7f");

  // The echo sits right after "id" on ok and error lines alike, so the
  // daemon and --oneshot paths stay byte-identical.
  ServeResponse ok;
  ok.id = "r1";
  ok.trace = "req-7f";
  ok.ok = true;
  ok.generation = 1;
  EXPECT_EQ(FormatResponse(ok).rfind(R"({"id":"r1","trace":"req-7f",)", 0),
            0u);
  ServeResponse err = MakeErrorResponse("r1", "shed", "queue full");
  err.trace = "req-7f";
  EXPECT_EQ(FormatResponse(err).rfind(R"({"id":"r1","trace":"req-7f",)", 0),
            0u);
  // No trace → no field.
  EXPECT_EQ(FormatResponse(MakeErrorResponse("r1", "shed", "x"))
                .find("\"trace\""),
            std::string::npos);
}

TEST(Protocol, TraceFieldIsStrict) {
  const char* bad[] = {
      R"({"id":"r","words":[1],"trace":""})",          // empty
      R"({"id":"r","words":[1],"trace":7})",           // not a string
      R"({"id":"r","words":[1],"trace":"a","trace":"b"})",  // duplicate
      R"({"op":"drain","trace":"a"})",                 // control op
  };
  for (const char* line : bad) {
    const auto p = ParseRequestLine(line);
    EXPECT_EQ(p.kind, LineKind::kError) << line;
    EXPECT_FALSE(p.error.empty()) << line;
  }
  // Over the 128-byte cap.
  const std::string long_trace(200, 'x');
  const auto p = ParseRequestLine(R"({"id":"r","words":[1],"trace":")" +
                                  long_trace + R"("})");
  EXPECT_EQ(p.kind, LineKind::kError);
}

// ------------------------------------------------------------- batcher

Ticket MakeTicket(std::string id,
                  std::function<void(ServeResponse)> done = [](auto) {}) {
  Ticket t;
  t.request.id = std::move(id);
  t.request.words = {1};
  t.done = std::move(done);
  t.enqueued = std::chrono::steady_clock::now();
  return t;
}

double MillisSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Batcher, FlushesOnFullBatch) {
  BatcherOptions opts;
  opts.max_batch = 3;
  CoalescingBatcher b(opts);
  ASSERT_TRUE(b.Enqueue(MakeTicket("a")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("b")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("c")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("d")));
  const auto batch = b.NextBatch();  // capped at max_batch, in order
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].request.id, "a");
  EXPECT_EQ(batch[2].request.id, "c");
  const auto rest = b.NextBatch();  // the overflow forms the next batch
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].request.id, "d");
}

TEST(Batcher, LoneRequestDispatchesWithoutWaiting) {
  BatcherOptions opts;
  opts.max_batch = 1000;  // never fills
  CoalescingBatcher b(opts);

  // Already pending when the dispatcher asks: returned at once.
  ASSERT_TRUE(b.Enqueue(MakeTicket("pending")));
  const auto t0 = std::chrono::steady_clock::now();
  const auto batch = b.NextBatch();
  const double waited_ms = MillisSince(t0);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].request.id, "pending");

  // Arriving while the dispatcher waits on an empty queue (its state
  // whenever the daemon is idle): the enqueue itself wakes it.
  std::atomic<bool> waiting{false};
  std::vector<Ticket> woken;
  std::chrono::steady_clock::time_point returned;
  std::thread consumer([&] {
    waiting.store(true);
    woken = b.NextBatch();
    returned = std::chrono::steady_clock::now();
  });
  while (!waiting.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto enqueued = std::chrono::steady_clock::now();
  ASSERT_TRUE(b.Enqueue(MakeTicket("arrives")));
  consumer.join();
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0].request.id, "arrives");
  const double wake_ms =
      std::chrono::duration<double, std::milli>(returned - enqueued).count();

  // There is no timer to wait out; the bounds only absorb slow CI hosts.
  EXPECT_LT(waited_ms, 1000.0);
  EXPECT_LT(wake_ms, 1000.0);
}

TEST(Batcher, ShedsWhenFullAndTicketSurvives) {
  BatcherOptions opts;
  opts.max_queue = 2;
  CoalescingBatcher b(opts);
  ASSERT_TRUE(b.Enqueue(MakeTicket("a")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("b")));
  bool called = false;
  Ticket shed = MakeTicket("c", [&](ServeResponse) { called = true; });
  ASSERT_FALSE(b.Enqueue(std::move(shed)));
  // On failure the caller still owns the ticket — callback included.
  ASSERT_NE(shed.done, nullptr);
  shed.done({});
  EXPECT_TRUE(called);
  EXPECT_EQ(b.pending(), 2u);
}

TEST(Batcher, ZeroCapacityShedsEverything) {
  BatcherOptions opts;
  opts.max_queue = 0;
  CoalescingBatcher b(opts);
  EXPECT_FALSE(b.Enqueue(MakeTicket("a")));
}

TEST(Batcher, CloseDrainsGracefully) {
  BatcherOptions opts;
  opts.max_batch = 2;
  CoalescingBatcher b(opts);
  ASSERT_TRUE(b.Enqueue(MakeTicket("a")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("b")));
  ASSERT_TRUE(b.Enqueue(MakeTicket("c")));
  b.Close();
  EXPECT_TRUE(b.closed());
  EXPECT_FALSE(b.Enqueue(MakeTicket("late")));  // no new admissions...
  EXPECT_EQ(b.NextBatch().size(), 2u);          // ...but the queue drains
  EXPECT_EQ(b.NextBatch().size(), 1u);
  EXPECT_TRUE(b.NextBatch().empty());  // terminal: closed and empty
}

TEST(Batcher, ManyProducersOneConsumer) {
  BatcherOptions opts;
  opts.max_batch = 8;
  CoalescingBatcher b(opts);
  constexpr int kThreads = 4, kPerThread = 50;
  std::vector<std::thread> producers;
  std::atomic<int> accepted{0};
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&b, &accepted] {
      for (int i = 0; i < kPerThread; ++i) {
        if (b.Enqueue(MakeTicket("x"))) accepted.fetch_add(1);
      }
    });
  }
  int drained = 0;
  std::thread consumer([&] {
    while (true) {
      const auto batch = b.NextBatch();
      if (batch.empty()) return;
      drained += static_cast<int>(batch.size());
    }
  });
  for (auto& t : producers) t.join();
  b.Close();
  consumer.join();
  EXPECT_EQ(drained, accepted.load());
}

// -------------------------------------------------------------- daemon

TEST(Daemon, ServesAndMatchesDirectInference) {
  const auto snap = TestSnapshot();
  ServeDaemonOptions opts;
  opts.iterations = 10;
  ServeDaemon daemon(opts, snap);

  ServeRequest req;
  req.id = "r1";
  req.words = {3, 17, 3, 40};
  req.seed = 99;
  auto future = daemon.Submit(req);
  const ServeResponse r = future.get();
  ASSERT_TRUE(r.ok) << r.error << ": " << r.detail;
  EXPECT_EQ(r.id, "r1");
  EXPECT_EQ(r.generation, 1u);

  // Coalescing must not change results: the daemon's answer is
  // bit-identical to a direct single-document call.
  const auto direct = snap->engine().InferDocument(req.words, 10, 99);
  EXPECT_EQ(r.result.assignments, direct.assignments);
  EXPECT_EQ(r.result.tokens, direct.tokens);
}

TEST(Daemon, ResponseBytesIndependentOfBatchComposition) {
  constexpr uint32_t kIters = 10;
  const auto snap = TestSnapshot();
  obs::Metrics().ResetValues();
  obs::Metrics().set_enabled(true);
  const obs::Counter& batches = obs::Metrics().GetCounter("serve.batches");
  ServeDaemonOptions opts;
  opts.iterations = kIters;
  ServeDaemon daemon(opts, snap);

  ServeRequest target;
  target.id = "target";
  target.words = {3, 17, 3, 40, 199, 0, 17};
  target.seed = 99;

  // Alone: nothing else is pending, so it is a batch of one.
  const ServeResponse alone = daemon.Submit(target).get();
  ASSERT_TRUE(alone.ok) << alone.error << ": " << alone.detail;
  EXPECT_EQ(batches.value(), 1u);

  // Inside a full batch: a plug request's completion callback holds the
  // dispatch thread while 64 requests queue up behind it, so releasing it
  // hands all 64 to the next NextBatch. They mix document lengths (1 to
  // 120 tokens) and one is out of vocabulary.
  std::promise<void> plugged, release;
  std::shared_future<void> released = release.get_future().share();
  ServeRequest plug;
  plug.id = "plug";
  plug.words = {1};
  daemon.Submit(plug, [&plugged, released](ServeResponse) {
    plugged.set_value();
    released.wait();
  });
  plugged.get_future().wait();
  std::vector<ServeRequest> sent;
  std::vector<std::future<ServeResponse>> replies;
  for (uint32_t i = 0; i < 64; ++i) {
    ServeRequest req;
    if (i == 20) {
      req = target;
    } else if (i == 41) {
      req.id = "oov";
      req.words = {5, 1u << 20, 6};
    } else {
      req.id = "b" + std::to_string(i);
      const uint32_t len = 1 + (i * 37) % 120;
      for (uint32_t j = 0; j < len; ++j) {
        req.words.push_back((i * 7 + j * 13) % 200);
      }
      req.seed = 1000 + i;
    }
    sent.push_back(req);
    replies.push_back(daemon.Submit(std::move(req)));
  }
  release.set_value();
  std::vector<ServeResponse> batched;
  for (auto& f : replies) batched.push_back(f.get());
  EXPECT_EQ(batches.value(), 3u);  // alone, plug, and the 64 together

  EXPECT_EQ(FormatResponse(batched[20]), FormatResponse(alone));
  EXPECT_EQ(batched[41].error, "bad_request");
  // Every in-vocabulary member equals a direct single-document inference
  // on the same snapshot and seed, byte for byte.
  for (size_t i = 0; i < sent.size(); ++i) {
    if (i == 41) continue;
    ServeResponse direct;
    direct.id = sent[i].id;
    direct.ok = true;
    direct.generation = snap->generation();
    direct.result =
        snap->engine().InferDocument(sent[i].words, kIters, sent[i].seed);
    EXPECT_EQ(FormatResponse(batched[i]), FormatResponse(direct)) << i;
  }
  daemon.Drain();
  obs::Metrics().set_enabled(false);
  obs::Metrics().ResetValues();
}

TEST(Daemon, AbandonedRequestsAreDroppedUnserved) {
  obs::Metrics().ResetValues();
  obs::Metrics().set_enabled(true);
  const obs::Counter& dropped =
      obs::Metrics().GetCounter("serve.responses.dropped");
  const obs::Counter& batches = obs::Metrics().GetCounter("serve.batches");
  ServeDaemonOptions opts;
  opts.iterations = 5;
  opts.batch.max_queue = 4;
  ServeDaemon daemon(opts, TestSnapshot());
  const auto request = [](const std::string& id) {
    ServeRequest req;
    req.id = id;
    req.words = {1, 2, 3};
    return req;
  };

  // A completion callback holds the dispatcher while the queue fills.
  std::promise<void> plugged, release;
  std::shared_future<void> released = release.get_future().share();
  daemon.Submit(request("plug"), [&plugged, released](ServeResponse) {
    plugged.set_value();
    released.wait();
  });
  plugged.get_future().wait();
  auto gone_a = std::make_shared<std::atomic<bool>>(false);
  auto gone_b = std::make_shared<std::atomic<bool>>(false);
  std::atomic<int> answered{0};
  const auto count = [&answered](ServeResponse) { ++answered; };
  daemon.Submit(request("a0"), count, gone_a);
  daemon.Submit(request("a1"), count, gone_a);
  daemon.Submit(request("b0"), count, gone_b);
  daemon.Submit(request("b1"), count, gone_b);
  // While every requester lives, a full queue sheds.
  EXPECT_EQ(daemon.Submit(request("shed")).get().error, "shed");
  // Once some are gone, a full queue gives their room to the next request,
  // and a request from a gone requester is never queued.
  gone_b->store(true);
  std::future<ServeResponse> kept = daemon.Submit(request("kept"));
  EXPECT_EQ(dropped.value(), 2u);
  daemon.Submit(request("b2"), count, gone_b);
  EXPECT_EQ(dropped.value(), 3u);
  // Requests whose requester goes while they wait are skipped at dispatch.
  gone_a->store(true);
  release.set_value();
  const ServeResponse kept_response = kept.get();
  EXPECT_TRUE(kept_response.ok) << kept_response.error;
  daemon.Drain();
  EXPECT_EQ(dropped.value(), 5u);
  EXPECT_EQ(answered.load(), 0);
  EXPECT_EQ(batches.value(), 2u);  // the plug, then "kept" alone
  obs::Metrics().set_enabled(false);
  obs::Metrics().ResetValues();
}

TEST(Daemon, OutOfVocabGetsBadRequestOthersProceed) {
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, TestSnapshot());

  ServeRequest good;
  good.id = "ok";
  good.words = {1, 2};
  ServeRequest bad;
  bad.id = "oov";
  bad.words = {1, 1 << 20};
  auto fg = daemon.Submit(good);
  auto fb = daemon.Submit(bad);
  EXPECT_TRUE(fg.get().ok);
  const auto rb = fb.get();
  EXPECT_FALSE(rb.ok);
  EXPECT_EQ(rb.error, "bad_request");
}

TEST(Daemon, ShedsWithImmediateResponse) {
  ServeDaemonOptions opts;
  opts.batch.max_queue = 0;  // shed everything
  ServeDaemon daemon(opts, TestSnapshot());
  ServeRequest req;
  req.id = "r";
  req.words = {1};
  const auto r = daemon.Submit(req).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "shed");
}

TEST(Daemon, DrainAnswersQueuedThenRejectsLate) {
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, TestSnapshot());
  std::vector<std::future<ServeResponse>> inflight;
  for (int i = 0; i < 20; ++i) {
    ServeRequest req;
    req.id = "q" + std::to_string(i);
    req.words = {static_cast<uint32_t>(i % 50)};
    inflight.push_back(daemon.Submit(req));
  }
  daemon.Drain();
  for (auto& f : inflight) {
    const auto r = f.get();  // every admitted request is answered
    EXPECT_TRUE(r.ok) << r.error;
  }
  ServeRequest late;
  late.id = "late";
  late.words = {1};
  const auto r = daemon.Submit(late).get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "draining");
  EXPECT_TRUE(daemon.draining());
}

TEST(Daemon, NullInitialSnapshotShedsUntilPublish) {
  ServeDaemonOptions opts;
  ServeDaemon daemon(opts, nullptr);
  ServeRequest req;
  req.id = "early";
  req.words = {1};
  const auto r = daemon.Submit(req).get();
  EXPECT_FALSE(r.ok);

  daemon.Publish(TestSnapshot());
  ServeRequest req2;
  req2.id = "after";
  req2.words = {1};
  EXPECT_TRUE(daemon.Submit(req2).get().ok);
}

TEST(Daemon, PublishSwapsGeneration) {
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, TestSnapshot(1));
  ServeRequest req;
  req.id = "a";
  req.words = {2, 3};
  EXPECT_EQ(daemon.Submit(req).get().generation, 1u);

  const auto prev = daemon.Publish(TestSnapshot(2, 8));
  EXPECT_EQ(prev->generation(), 1u);  // returned, not destroyed
  EXPECT_EQ(daemon.Current()->generation(), 2u);
  ServeRequest req2;
  req2.id = "b";
  req2.words = {2, 3};
  EXPECT_EQ(daemon.Submit(req2).get().generation, 2u);
}

TEST(Daemon, RequestSpansShareOneTraceAndLinkTheBatch) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Reset();
  tracer.set_enabled(true);
  uint64_t want_trace = 0;
  {
    ServeDaemonOptions opts;
    opts.iterations = 5;
    ServeDaemon daemon(opts, TestSnapshot());

    ServeRequest req;
    req.id = "traced";
    req.words = {1, 2, 3};
    req.trace_ctx = obs::NewRequestContext("client-trace-1");
    want_trace = req.trace_ctx.trace_id;
    ASSERT_TRUE(daemon.Submit(req).get().ok);
  }
  // Collect only after the daemon is destroyed: the response future is
  // fulfilled *before* the dispatcher records the respond/batch spans, so
  // reading the tracer right after .get() races the dispatch thread. The
  // destructor joins it, making the event list complete.
  //
  // The request's life — queue wait, inference, respond — shares the
  // request's trace id, and the queue/infer spans carry a link into the
  // shared batch span (which has its own trace).
  const auto events = tracer.CollectEvents();
  uint64_t batch_trace = 0;
  bool saw_queue = false, saw_infer = false, saw_respond = false;
  for (const auto& e : events) {
    if (e.name == "serve/batch") batch_trace = e.ctx.trace_id;
  }
  EXPECT_NE(batch_trace, 0u);
  for (const auto& e : events) {
    if (e.name == "serve/queue_wait") {
      saw_queue = true;
      EXPECT_EQ(e.ctx.trace_id, want_trace);
      EXPECT_NE(e.link_span_id, 0u);
    }
    if (e.name == "serve/infer") {
      saw_infer = true;
      EXPECT_EQ(e.ctx.trace_id, want_trace);
      EXPECT_NE(e.link_span_id, 0u);
    }
    if (e.name == "serve/respond") {
      saw_respond = true;
      EXPECT_EQ(e.ctx.trace_id, want_trace);
    }
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_infer);
  EXPECT_TRUE(saw_respond);
  tracer.set_enabled(false);
  tracer.Reset();
}

TEST(Daemon, SubmitMintsContextWhenFrontendDidNot) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Reset();
  tracer.set_enabled(true);
  {
    ServeDaemonOptions opts;
    opts.iterations = 5;
    ServeDaemon daemon(opts, TestSnapshot());
    ServeRequest req;
    req.id = "embedded";
    req.words = {1};
    ASSERT_TRUE(daemon.Submit(req).get().ok);  // no ctx pre-minted
  }
  // Collected after the destructor joins the dispatcher (span recording
  // races the fulfilled future otherwise).
  bool saw_infer = false;
  for (const auto& e : tracer.CollectEvents()) {
    if (e.name == "serve/infer") {
      saw_infer = true;
      EXPECT_NE(e.ctx.trace_id, 0u);
    }
  }
  EXPECT_TRUE(saw_infer);
  tracer.set_enabled(false);
  tracer.Reset();
}

TEST(Daemon, SlowRequestThresholdCountsAndRecords) {
  obs::Metrics().ResetValues();
  obs::Metrics().set_enabled(true);
  obs::FlightRecorder::Global().Clear();
  obs::FlightRecorder::Global().set_enabled(true);
  {
    ServeDaemonOptions opts;
    opts.iterations = 5;
    opts.slow_request_s = 1e-12;  // everything is "slow"
    ServeDaemon daemon(opts, TestSnapshot());
    ServeRequest req;
    req.id = "slow";
    req.words = {1, 2};
    ASSERT_TRUE(daemon.Submit(req).get().ok);
  }
  EXPECT_GE(obs::Metrics().GetCounter("serve.slow_requests").value(), 1u);
  EXPECT_GE(obs::FlightRecorder::Global().recorded(), 1u);
  obs::FlightRecorder::Global().set_enabled(false);
  obs::FlightRecorder::Global().Clear();
  obs::Metrics().set_enabled(false);
  obs::Metrics().ResetValues();
}

TEST(Daemon, StatsPayloadCarriesPerEndpointHistograms) {
  obs::Metrics().ResetValues();
  obs::Metrics().set_enabled(true);
  {
    ServeDaemonOptions opts;
    opts.iterations = 5;
    ServeDaemon daemon(opts, TestSnapshot());
    ServeRequest req;
    req.id = "h";
    req.words = {1};
    ASSERT_TRUE(daemon.Submit(req).get().ok);
    const std::string payload = daemon.StatsPayloadJson();
    EXPECT_NE(payload.find("\"schema\":\"culda.metrics.v3\""),
              std::string::npos);
    EXPECT_NE(payload.find("\"pending\""), std::string::npos);
    EXPECT_NE(payload.find("\"draining\""), std::string::npos);
    // The per-endpoint labeled histogram with its percentile summary.
    EXPECT_NE(payload.find("\"serve.request.latency{op=infer}\""),
              std::string::npos);
    EXPECT_NE(payload.find("\"p99\""), std::string::npos);
  }
  obs::Metrics().set_enabled(false);
  obs::Metrics().ResetValues();
}

// ------------------------------------------------------------ frontend

/// Runs RunLineFrontend over pipes: `input` in, captured stdout-side out.
std::vector<std::string> RunFrontend(ServeDaemon& daemon,
                                     const std::string& input,
                                     const ReloadFn& reload,
                                     FrontendResult* result = nullptr) {
  int in_pipe[2], out_pipe[2];
  EXPECT_EQ(pipe(in_pipe), 0);
  EXPECT_EQ(pipe(out_pipe), 0);
  std::thread feeder([&] {
    size_t off = 0;
    while (off < input.size()) {
      const ssize_t n =
          write(in_pipe[1], input.data() + off, input.size() - off);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    close(in_pipe[1]);
  });
  FrontendOptions fopts;
  fopts.poll_interval_ms = 5;
  const FrontendResult fr =
      RunLineFrontend(daemon, in_pipe[0], out_pipe[1], reload, fopts);
  if (result != nullptr) *result = fr;
  feeder.join();
  close(in_pipe[0]);
  // Responses may still be in flight on the dispatch thread; drain before
  // reading so the writer's last line is out.
  daemon.Drain();
  close(out_pipe[1]);
  std::string all;
  char buf[4096];
  ssize_t n;
  while ((n = read(out_pipe[0], buf, sizeof buf)) > 0) {
    all.append(buf, static_cast<size_t>(n));
  }
  close(out_pipe[0]);
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i] == '\n') {
      lines.push_back(all.substr(start, i - start));
      start = i + 1;
    }
  }
  return lines;
}

TEST(Frontend, ServesParsesAndAnswersControl) {
  const auto snap = TestSnapshot();
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, snap);
  int reloads = 0;
  const ReloadFn reload = [&]() -> core::SnapshotPtr {
    ++reloads;
    return TestSnapshot(2);
  };
  FrontendResult fr;
  const auto lines = RunFrontend(daemon,
                                 "{\"id\":\"a\",\"words\":[1,2]}\n"
                                 "not json\n"
                                 "{\"op\":\"reload\",\"id\":\"c\"}\n"
                                 "{\"id\":\"b\",\"words\":[1,2]}\n"
                                 "{\"op\":\"drain\",\"id\":\"d\"}\n",
                                 reload, &fr);
  EXPECT_TRUE(fr.drain_requested);
  EXPECT_EQ(reloads, 1);
  ASSERT_EQ(lines.size(), 5u);
  int ok = 0, bad = 0, gen2 = 0;
  for (const auto& l : lines) {
    if (l.find("\"ok\":true") != std::string::npos) ++ok;
    if (l.find("\"bad_request\"") != std::string::npos) ++bad;
    if (l.find("\"generation\":2") != std::string::npos) ++gen2;
  }
  EXPECT_EQ(ok, 4);   // a, b, reload ack, drain ack
  EXPECT_EQ(bad, 1);  // the non-JSON line
  // The reload ack reports generation 2; request b (after the swap) must
  // be served by it too.
  EXPECT_GE(gen2, 2);
}

TEST(Frontend, ReloadFailureKeepsServing) {
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, TestSnapshot());
  const ReloadFn reload = []() -> core::SnapshotPtr {
    throw Error("model file corrupted");
  };
  const auto lines = RunFrontend(daemon,
                                 "{\"op\":\"reload\",\"id\":\"c\"}\n"
                                 "{\"id\":\"a\",\"words\":[1]}\n",
                                 reload);
  ASSERT_EQ(lines.size(), 2u);
  int reload_failed = 0, ok = 0;
  for (const auto& l : lines) {
    if (l.find("\"reload_failed\"") != std::string::npos) ++reload_failed;
    if (l.find("\"ok\":true") != std::string::npos) ++ok;
  }
  EXPECT_EQ(reload_failed, 1);
  EXPECT_EQ(ok, 1);  // the old generation keeps serving
  EXPECT_EQ(daemon.Current()->generation(), 1u);
}

int ConnectUnixSocketForTest(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    close(fd);
    return -1;
  }
  path.copy(addr.sun_path, path.size());
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

TEST(Frontend, SocketServesConcurrentClients) {
  const auto snap = TestSnapshot();
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, snap);
  const std::string path =
      testing::TempDir() + "culda_serve_test_" +
      std::to_string(static_cast<unsigned>(getpid())) + ".sock";
  FrontendOptions fopts;
  fopts.poll_interval_ms = 5;
  SocketFrontend listener(daemon, path, nullptr, fopts);
  std::thread server([&] { listener.Run(); });

  auto client = [&](int id) {
    // Tiny blocking client: connect, one request, read one line.
    struct Result {
      bool ok = false;
    };
    int fd = -1;
    for (int attempt = 0; attempt < 100 && fd < 0; ++attempt) {
      fd = ConnectUnixSocketForTest(path);
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(fd, 0);
    const std::string req = "{\"id\":\"c" + std::to_string(id) +
                            "\",\"words\":[1,2,3]}\n";
    ASSERT_EQ(write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string line;
    char c;
    while (read(fd, &c, 1) == 1 && c != '\n') line.push_back(c);
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    close(fd);
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) clients.emplace_back(client, i);
  for (auto& t : clients) t.join();
  listener.Stop();
  server.join();
}

TEST(Frontend, HalfClosedSocketClientReceivesEveryAnswer) {
  // A client may send all its requests, half-close, and then read: the
  // answers still in flight when the daemon sees end of input must reach
  // it, each exactly once, and the socket must close after the last one.
  ServeDaemonOptions opts;
  opts.iterations = 20;
  ServeDaemon daemon(opts, TestSnapshot());
  const std::string path =
      testing::TempDir() + "culda_serve_halfclose_" +
      std::to_string(static_cast<unsigned>(getpid())) + ".sock";
  FrontendOptions fopts;
  fopts.poll_interval_ms = 5;
  SocketFrontend listener(daemon, path, nullptr, fopts);
  std::thread server([&] { listener.Run(); });

  const int fd = ConnectUnixSocketForTest(path);
  ASSERT_GE(fd, 0);
  constexpr int kRequests = 64;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += "{\"id\":\"h" + std::to_string(i) +
                "\",\"words\":[1,2,3,4,5,6,7,8],\"seed\":" +
                std::to_string(i) + "}\n";
  }
  ASSERT_EQ(write(fd, requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  ASSERT_EQ(shutdown(fd, SHUT_WR), 0);

  std::string received;
  bool closed = false;
  const auto t0 = std::chrono::steady_clock::now();
  while (!closed && MillisSince(t0) < 10000.0) {
    pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, 50) <= 0) continue;
    char buf[4096];
    const ssize_t n = read(fd, buf, sizeof buf);
    if (n <= 0) {
      closed = true;
    } else {
      received.append(buf, static_cast<size_t>(n));
    }
  }
  close(fd);
  EXPECT_TRUE(closed) << "the daemon never closed the connection";
  std::vector<int> answers(kRequests, 0);
  size_t lines = 0;
  for (size_t pos = 0, nl; (nl = received.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    const std::string line = received.substr(pos, nl - pos);
    ++lines;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    for (int i = 0; i < kRequests; ++i) {
      if (line.find("\"id\":\"h" + std::to_string(i) + "\",") !=
          std::string::npos) {
        ++answers[i];
      }
    }
  }
  EXPECT_EQ(lines, static_cast<size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(answers[i], 1) << "request h" << i;
  }
  listener.Stop();
  server.join();
}

TEST(Frontend, NonReadingSocketClientDoesNotStallOthers) {
  // The daemon's writes to a client that has gone away must fail, not kill
  // the test process.
  std::signal(SIGPIPE, SIG_IGN);
  ServeDaemonOptions opts;
  opts.iterations = 5;
  ServeDaemon daemon(opts, TestSnapshot());
  const std::string path =
      testing::TempDir() + "culda_serve_stall_" +
      std::to_string(static_cast<unsigned>(getpid())) + ".sock";
  FrontendOptions fopts;
  fopts.poll_interval_ms = 5;
  SocketFrontend listener(daemon, path, nullptr, fopts);
  std::thread server([&] { listener.Run(); });

  // The stalled client sends far more requests than the socket buffers
  // can hold answers for, and never reads. Its own sends give up after 2 s
  // so the test cannot hang on them.
  const int stalled = ConnectUnixSocketForTest(path);
  ASSERT_GE(stalled, 0);
  const timeval client_timeout = {2, 0};
  ASSERT_EQ(setsockopt(stalled, SOL_SOCKET, SO_SNDTIMEO, &client_timeout,
                       sizeof(client_timeout)),
            0);
  std::string flood_line = "{\"id\":\"s\",\"words\":[";
  for (int w = 0; w < 100; ++w) {
    flood_line += (w > 0 ? "," : "") + std::to_string(w);
  }
  flood_line += "]}\n";
  for (int i = 0; i < 3000; ++i) {
    size_t off = 0;
    while (off < flood_line.size()) {
      const ssize_t n = send(stalled, flood_line.data() + off,
                             flood_line.size() - off, MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    if (off < flood_line.size()) break;  // the daemon dropped us (or 2 s)
  }

  // The daemon drops the stalled client once a write to it times out; from
  // then on the client's sends fail.
  bool dropped = false;
  const auto drop_t0 = std::chrono::steady_clock::now();
  while (!dropped && MillisSince(drop_t0) < 10000.0) {
    dropped = send(stalled, "\n", 1, MSG_NOSIGNAL) < 0 &&
              (errno == EPIPE || errno == ECONNRESET);
  }
  ASSERT_TRUE(dropped) << "the stalled client was never dropped";

  // The dropped client's queued requests are discarded, not served and not
  // left holding the queue, so a well-behaved client's first request is
  // answered, not shed.
  const int probe = ConnectUnixSocketForTest(path);
  ASSERT_GE(probe, 0);
  const std::string req = "{\"id\":\"probe\",\"words\":[1,2,3]}\n";
  ASSERT_EQ(write(probe, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string line;
  const auto t0 = std::chrono::steady_clock::now();
  while (MillisSince(t0) < 5000.0) {
    pollfd pfd = {probe, POLLIN, 0};
    if (poll(&pfd, 1, 50) <= 0) continue;
    char c;
    if (read(probe, &c, 1) != 1 || c == '\n') break;
    line.push_back(c);
  }
  EXPECT_NE(line.find("\"id\":\"probe\",\"ok\":true"), std::string::npos)
      << "probe answer: '" << line << "'";

  // The daemon drains while the stalled client is still connected.
  auto drained = std::async(std::launch::async, [&] { daemon.Drain(); });
  const bool drained_in_time =
      drained.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Disconnecting unblocks a daemon still stuck writing, so a failure ends
  // the test instead of hanging it.
  shutdown(stalled, SHUT_RDWR);
  close(stalled);
  close(probe);
  drained.wait();
  EXPECT_TRUE(drained_in_time);
  listener.Stop();
  server.join();
}

}  // namespace
}  // namespace culda::serve
