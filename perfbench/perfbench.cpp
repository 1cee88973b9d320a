// perfbench — the measuring programs behind run.py (see README.md):
//
//   perfbench gen    --profile=nyt|pubmed --seed=N --out-dir=D [traffic]
//       writes D/corpus.uci, D/requests.jsonl and D/manifest.json
//   perfbench train  --corpus=F --out=M [--sampler --chunks-per-gpu --trace]
//       one training run through the public calls culda_train makes,
//       timed call by call; prints one JSON line
//   perfbench load   --model=M --workers=N
//       times the model read and the serving-snapshot build
//   perfbench client --socket=S --requests=F --phase=low|high|closed
//       single-threaded open- or closed-loop load against culda_serve;
//       prints one JSON line
#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_lib.hpp"
#include "core/model_io.hpp"
#include "core/sampler/sampler.hpp"
#include "core/snapshot.hpp"
#include "core/trainer.hpp"
#include "corpus/uci_reader.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

using namespace culda;
using perfbench::Percentile;
using Clock = std::chrono::steady_clock;

namespace {

// Settings every run shares. run.py passes only what differs between
// workloads or runs: the profile, seed, arrival rates, phase lengths,
// sampler, chunks per GPU and tracing.
constexpr uint32_t kTopics = 1024;
constexpr int kIters = 10;
constexpr size_t kGpus = 2;
// 3 pool workers plus the calling thread: 4 busy threads, the CPU count of
// the host the benchmark was tuned on.
constexpr size_t kTrainWorkers = 3;
// One set-up takes a fraction of a second and moves with the host, so each
// training process sets up this many times and reports the median.
constexpr int kSetupReps = 5;
constexpr int kLoadReps = 3;
constexpr int64_t kReloads = 8;       ///< hot swaps at fixed points of `high`
constexpr int64_t kClosedPool = 512;  ///< distinct requests the closed loop cycles
constexpr size_t kClientConns = 3;    ///< request connections; one more for control
/// Two full batches of the daemon's default max-batch of 64, so the
/// dispatcher never waits for a batch to fill.
constexpr size_t kClosedOutstanding = 128;
constexpr double kClosedWarmupS = 0.3;
constexpr double kDrainS = 60;         ///< longest wait for the last answers
constexpr uint64_t kSampleEvery = 50;  ///< every 50th request is replayed by --oneshot

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double CpuSeconds() {
  rusage ru = {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Minimal ordered JSON object writer for the one-line results.
class JsonLine {
 public:
  JsonLine& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonLine& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonLine& Raw(const std::string& key, const std::string& v) {
    out_ += out_.empty() ? "{" : ",";
    out_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string str() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// --- gen -------------------------------------------------------------------

struct Profile {
  perfbench::CorpusShape shape;
  size_t docs;
};

/// NYTimes-shaped: long documents over many topics (dense θ rows).
/// PubMed-shaped: short documents over few topics (sparse θ rows).
Profile ProfileByName(const std::string& name) {
  Profile p;
  if (name == "nyt") {
    p.shape.mean_doc_len = 332;
    p.shape.topics_per_doc = 12;
    p.docs = 600;
  } else if (name == "pubmed") {
    p.shape.mean_doc_len = 90;
    p.shape.topics_per_doc = 2;
    p.docs = 4000;
  } else {
    throw std::invalid_argument("unknown profile '" + name +
                                "' (expected nyt | pubmed)");
  }
  return p;
}

std::string RequestJson(const std::string& id,
                        const std::vector<uint32_t>& words, uint64_t seed) {
  std::string s = "{\"id\":\"" + id + "\",\"words\":[";
  for (size_t i = 0; i < words.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(words[i]);
  }
  return s + "],\"seed\":" + std::to_string(seed) + "}";
}

int RunGen(const CliFlags& flags) {
  const std::string profile_name = flags.GetString("profile", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string dir = flags.GetString("out-dir", "");
  const double low_rate = flags.GetDouble("low-rate", 100);
  const int64_t low_n = flags.GetInt("low-n", 1200);
  const double high_rate = flags.GetDouble("high-rate", 300);
  const int64_t high_n = flags.GetInt("high-n", 1200);
  if (const int rc = flags.RejectUnknownFlags("perfbench gen")) return rc;
  if (dir.empty()) throw std::invalid_argument("--out-dir is required");

  const Profile profile = ProfileByName(profile_name);
  perfbench::CorpusGenerator gen(profile.shape, seed);
  perfbench::Docs docs = gen.MakeDocs(profile.docs);
  const double pruned = perfbench::PruneHeavyWords(docs, profile.shape.vocab);
  perfbench::WriteUci(docs, profile.shape.vocab, dir + "/corpus.uci");
  uint64_t tokens = 0;
  for (const auto& d : docs) tokens += d.size();

  // Requests are held-out documents of the same generative model, their
  // lengths an even mix of the two corpus profiles. Their length spread is
  // narrower than the corpus's: a request's infer time grows with its
  // length, and a handful of extreme documents would otherwise decide a
  // phase's tail latency on their own.
  const double kShortLen = 90, kLongLen = 332, kRequestLenSigma = 0.25;
  perfbench::Rng rng(seed ^ 0x5eedf00dull);
  const auto next_doc = [&] {
    return gen.Doc(rng.Below(2) == 0 ? kShortLen : kLongLen,
                   kRequestLenSigma);
  };
  FILE* f = std::fopen((dir + "/requests.jsonl").c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write requests.jsonl");
  size_t n_requests = 0;
  const auto open_phase = [&](const char* phase, const char* prefix,
                              double rate, int64_t n, int64_t n_reload) {
    const std::vector<double> at =
        perfbench::PoissonSchedule(rng, rate, static_cast<size_t>(n));
    for (size_t i = 0; i < at.size(); ++i) {
      // Reloads go at fixed fractions of the phase, just before a request.
      for (int64_t r = 1; r <= n_reload; ++r) {
        if (static_cast<int64_t>(i) == n * r / (n_reload + 1)) {
          std::fprintf(
              f, "{\"phase\":\"%s\",\"at_s\":%.9f,\"op\":\"reload\"}\n",
              phase, at[i]);
        }
      }
      const std::string req =
          RequestJson(prefix + std::to_string(i), next_doc(),
                      rng.NextU64() >> 32);
      std::fprintf(f, "{\"phase\":\"%s\",\"at_s\":%.9f,\"request\":%s}\n",
                   phase, at[i], req.c_str());
      ++n_requests;
    }
  };
  open_phase("low", "l", low_rate, low_n, 0);
  open_phase("high", "h", high_rate, high_n, kReloads);
  for (int64_t i = 0; i < kClosedPool; ++i) {
    const std::string req =
        RequestJson("c" + std::to_string(i), next_doc(), rng.NextU64() >> 32);
    std::fprintf(f, "{\"phase\":\"closed\",\"request\":%s}\n", req.c_str());
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write requests");

  std::ofstream manifest(dir + "/manifest.json");
  manifest << JsonLine()
                  .Str("profile", profile_name)
                  .Num("seed", static_cast<double>(seed))
                  .Num("docs", static_cast<double>(docs.size()))
                  .Num("vocab", profile.shape.vocab)
                  .Num("tokens", static_cast<double>(tokens))
                  .Num("pruned_token_frac", pruned)
                  .Num("open_requests", static_cast<double>(n_requests))
                  .Num("closed_pool", static_cast<double>(kClosedPool))
                  .str()
           << "\n";
  return manifest.good() ? 0 : 1;
}

// --- train -----------------------------------------------------------------

int RunTrain(const CliFlags& flags) {
  const std::string corpus_path = flags.GetString("corpus", "");
  const std::string out_path = flags.GetString("out", "");
  core::CuldaConfig cfg;
  cfg.num_topics = kTopics;
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  core::TrainerOptions opts;
  opts.chunks_per_gpu =
      static_cast<uint32_t>(flags.GetInt("chunks-per-gpu", 0));
  opts.sampler = core::ParseTrainSampler(flags.GetString("sampler", "tree"));
  const bool trace = flags.GetBool("trace", false);
  if (const int rc = flags.RejectUnknownFlags("perfbench train")) return rc;
  if (corpus_path.empty() || out_path.empty()) {
    throw std::invalid_argument("--corpus and --out are required");
  }
  opts.gpus.assign(kGpus, gpusim::V100Volta());
  ThreadPool pool(kTrainWorkers);
  opts.pool = &pool;
  opts.collect_step_counters = trace;

  // The last set-up is the one that trains, and the end-to-end clock
  // starts with it.
  std::vector<double> read_s, init_s, setup_s;
  std::unique_ptr<corpus::Corpus> corpus_owner;
  std::unique_ptr<core::CuldaTrainer> trainer_owner;
  Clock::time_point t0;
  for (int r = 0; r < kSetupReps; ++r) {
    trainer_owner.reset();  // it points into the corpus
    corpus_owner.reset();
    t0 = Clock::now();
    corpus_owner = std::make_unique<corpus::Corpus>(
        corpus::ReadUciBagOfWordsFile(corpus_path));
    read_s.push_back(Since(t0));
    const auto t = Clock::now();
    trainer_owner =
        std::make_unique<core::CuldaTrainer>(*corpus_owner, cfg, opts);
    init_s.push_back(Since(t));
    setup_s.push_back(Since(t0));
  }
  const corpus::Corpus& corpus = *corpus_owner;
  core::CuldaTrainer& trainer = *trainer_owner;
  if (trace) {
    // The program's own telemetry plane, observation-only by contract; the
    // benchmark reads what it records and adds nothing to it. It starts
    // after the set-ups, so its counters cover the one run that trains.
    obs::Metrics().set_enabled(true);
    obs::SpanTracer::Global().set_enabled(true);
  }

  std::vector<double> step_s;
  core::IterationStats sum;
  const double cpu0 = CpuSeconds();
  Clock::time_point t;
  for (int i = 0; i < kIters; ++i) {
    t = Clock::now();
    const core::IterationStats st = trainer.Step();
    step_s.push_back(Since(t));
    sum.sim_seconds += st.sim_seconds;
    sum.sampling_s += st.sampling_s;
    sum.update_phi_s += st.update_phi_s;
    sum.update_theta_s += st.update_theta_s;
    sum.sync_s += st.sync_s;
    sum.transfer_s += st.transfer_s;
    sum.theta_nnz = st.theta_nnz;
  }
  const double cpu_s = CpuSeconds() - cpu0;
  double steps_s = 0;
  for (const double s : step_s) steps_s += s;

  t = Clock::now();
  const core::GatheredModel model = trainer.Gather();
  const double gather_s = Since(t);
  t = Clock::now();
  core::SaveModelToFile(model, out_path);
  const double save_s = Since(t);
  const double e2e_s = Since(t0);
  const double rss_mb = PeakRssMb();

  t = Clock::now();
  const double nll = -trainer.LogLikelihoodPerToken();
  const double ll_s = Since(t);

  // Correctness, outside every timed span: the saved file must reload into
  // a model consistent with the corpus it was trained on.
  const core::GatheredModel reloaded = core::LoadModelFromFile(out_path);
  reloaded.Validate(corpus);
  if (reloaded.num_topics != cfg.num_topics ||
      reloaded.vocab_size != corpus.vocab_size()) {
    throw std::runtime_error("reloaded model has the wrong dimensions");
  }

  double compute_nk_s = 0, sampling_bytes = 0, transfer_bytes = 0;
  for (size_t g = 0; g < trainer.group().size(); ++g) {
    const gpusim::Device& dev = trainer.group().device(g);
    const auto& prof = dev.profile();
    if (const auto it = prof.find("compute_nk"); it != prof.end()) {
      compute_nk_s += it->second.total_s;
    }
    if (const auto it = prof.find("sampling"); it != prof.end()) {
      sampling_bytes +=
          static_cast<double>(it->second.counters.TotalOffChipBytes());
    }
    transfer_bytes += static_cast<double>(dev.transfer_bytes());
  }
  std::vector<double> sorted = step_s;
  std::sort(sorted.begin(), sorted.end());
  const double tokens = static_cast<double>(corpus.num_tokens());
  const double sampled = tokens * kIters;

  JsonLine out;
  out.Num("tokens", tokens)
      .Num("iters", kIters)
      .Num("chunks_per_gpu", trainer.chunks_per_gpu())
      .Num("read_s", Median(read_s))
      .Num("init_s", Median(init_s))
      .Num("setup_s", Median(setup_s))
      .Num("steps_s", steps_s)
      .Num("step_p50_s", Percentile(sorted, 0.5))
      .Num("step_p90_s", Percentile(sorted, 0.9))
      .Num("gather_s", gather_s)
      .Num("save_s", save_s)
      .Num("e2e_s", e2e_s)
      .Num("ll_s", ll_s)
      .Num("rss_mb", rss_mb)
      .Num("nll", nll)
      .Num("tokens_per_s", sampled / steps_s)
      .Num("sim_tokens_per_s", sampled / sum.sim_seconds)
      .Num("cpu_util", cpu_s / (steps_s * (kTrainWorkers + 1)))
      .Num("theta_nnz", static_cast<double>(sum.theta_nnz))
      .Num("sim_sampling_s", sum.sampling_s)
      .Num("sim_update_phi_s", sum.update_phi_s)
      .Num("sim_update_theta_s", sum.update_theta_s)
      .Num("sim_compute_nk_s", compute_nk_s)
      .Num("sim_sync_s", sum.sync_s)
      .Num("sim_transfer_s", sum.transfer_s)
      .Num("sim_sampling_bytes", sampling_bytes)
      .Num("sim_transfer_bytes", transfer_bytes)
      .Num("sim_peer_bytes", static_cast<double>(trainer.group().peer_bytes()));
  if (trace) {
    obs::MetricsRegistry& reg = obs::Metrics();
    const core::SamplingStepCounters& sc = trainer.step_counters();
    // Useful outcomes per attempt: tokens the sparse p1 branch resolved
    // (tree sampler) or MH proposals accepted (alias/MH sampler).
    const double useful_frac =
        opts.sampler == core::TrainSampler::kTree
            ? static_cast<double>(sc.p1_branches) /
                  static_cast<double>(sc.tokens)
            : static_cast<double>(sc.mh_accepts) /
                  static_cast<double>(sc.mh_proposals);
    out.Num("sync_wall_s",
            reg.GetHistogram("train.sync_wall_s").Snapshot().sum)
        .Num("schedule_wall_s",
             reg.GetHistogram("train.schedule_wall_s").Snapshot().sum)
        .Num("tasks_run",
             static_cast<double>(reg.GetCounter("threadpool.tasks_run").value()))
        .Num("steals",
             static_cast<double>(reg.GetCounter("threadpool.steals").value()))
        .Num("fsync_s", reg.GetHistogram("io.fsync_s").Snapshot().sum)
        .Num("useful_frac", useful_frac);
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

// --- load ------------------------------------------------------------------

/// What the daemon does at start-up and on every reload, timed in two
/// parts: reading the model file, and building the serving snapshot with
/// the daemon's default engine options.
int RunLoad(const CliFlags& flags) {
  const std::string model_path = flags.GetString("model", "");
  const int64_t workers = flags.GetInt("workers", 2);
  if (const int rc = flags.RejectUnknownFlags("perfbench load")) return rc;
  if (model_path.empty()) throw std::invalid_argument("--model is required");
  ThreadPool pool(static_cast<size_t>(workers));
  core::InferenceOptions options;
  if (workers > 0) options.pool = &pool;
  std::vector<double> load_s, build_s;
  for (int i = 0; i < kLoadReps; ++i) {
    auto t = Clock::now();
    core::GatheredModel model = core::LoadModelFromFile(model_path);
    load_s.push_back(Since(t));
    core::CuldaConfig cfg;
    cfg.num_topics = model.num_topics;
    t = Clock::now();
    const core::SnapshotPtr snap =
        core::ModelSnapshot::FromModel(std::move(model), cfg, options);
    build_s.push_back(Since(t));
  }
  std::printf("%s\n", JsonLine()
                          .Num("load_s", Median(load_s))
                          .Num("build_s", Median(build_s))
                          .str()
                          .c_str());
  return 0;
}

// --- client ----------------------------------------------------------------

struct Entry {
  double at_s = 0;       ///< scheduled offset (open phases)
  bool reload = false;   ///< a {"op":"reload"} control request
  std::string id;
  std::string line;      ///< request JSON (no newline)
};

std::string FieldString(const std::string& line, const std::string& key) {
  const std::string pat = "\"" + key + "\":\"";
  const size_t p = line.find(pat);
  if (p == std::string::npos) return "";
  const size_t b = p + pat.size();
  return line.substr(b, line.find('"', b) - b);
}

std::vector<Entry> LoadPhase(const std::string& path,
                             const std::string& phase) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<Entry> entries;
  std::string line;
  while (std::getline(in, line)) {
    if (FieldString(line, "phase") != phase) continue;
    Entry e;
    if (const size_t p = line.find("\"at_s\":"); p != std::string::npos) {
      e.at_s = std::stod(line.substr(p + 7));
    }
    if (FieldString(line, "op") == "reload") {
      e.reload = true;
      e.id = "reload" + std::to_string(entries.size());
      e.line = "{\"op\":\"reload\",\"id\":\"" + e.id + "\"}";
    } else {
      const size_t p = line.find("\"request\":");
      if (p == std::string::npos) throw std::runtime_error("bad line: " + line);
      e.line = line.substr(p + 10, line.size() - (p + 10) - 1);
      e.id = FieldString(e.line, "id");
    }
    entries.push_back(std::move(e));
  }
  if (entries.empty()) throw std::runtime_error("no entries for " + phase);
  return entries;
}

class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " +
                               std::strerror(errno));
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd() const { return fd_; }

  void Send(const std::string& line) {
    const std::string buf = line + "\n";
    size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n =
          ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("send failed: ") +
                                 std::strerror(errno));
      }
    }
  }

  /// Reads what is available without blocking; appends complete lines.
  /// Returns false once the peer has closed the connection.
  bool ReadLines(std::vector<std::string>& lines) {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf_.append(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n == 0) return false;
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    size_t start = 0, nl;
    while ((nl = buf_.find('\n', start)) != std::string::npos) {
      lines.push_back(buf_.substr(start, nl - start));
      start = nl + 1;
    }
    buf_.erase(0, start);
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Latency recorded for a shed, failed or missing request: it misses any
/// latency limit, so it sorts above every answered request.
constexpr double kMissedMs = 1e9;

struct LatencySummary {
  std::vector<double> ms;
  void Emit(JsonLine& out, const std::string& prefix) {
    std::sort(ms.begin(), ms.end());
    out.Num(prefix + "_n", static_cast<double>(ms.size()));
    if (ms.empty()) return;
    double sum = 0;
    for (const double v : ms) sum += v;
    out.Num(prefix + "_mean", sum / static_cast<double>(ms.size()))
        .Num(prefix + "_p50", Percentile(ms, 0.5))
        .Num(prefix + "_p90", Percentile(ms, 0.9))
        .Num(prefix + "_p99", Percentile(ms, 0.99))
        .Num(prefix + "_max", ms.back())
        .Raw(prefix + "_p90_supported",
             perfbench::PercentileSupported(ms.size(), 0.9) ? "true"
                                                            : "false");
  }
};

int RunClient(const CliFlags& flags) {
  const std::string socket_path = flags.GetString("socket", "");
  const std::string requests = flags.GetString("requests", "");
  const std::string phase = flags.GetString("phase", "");
  const double closed_s = flags.GetDouble("closed-s", 3);
  const std::string sample_out = flags.GetString("sample-out", "");
  const std::string stats_out = flags.GetString("stats-out", "");
  if (const int rc = flags.RejectUnknownFlags("perfbench client")) return rc;
  const bool closed = phase == "closed";
  const std::vector<Entry> entries = LoadPhase(requests, phase);

  // Sleep with 1 ns timer slack: ppoll deadlines are what send lag is made
  // of, and the default 50 µs slack would be a visible share of it.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t i = 0; i < kClientConns; ++i) {
    conns.push_back(std::make_unique<Conn>(socket_path));
  }
  Conn control(socket_path);  // reloads and stats: they block their reader
  std::vector<pollfd> pfds;
  for (const auto& c : conns) pfds.push_back({c->fd(), POLLIN, 0});
  pfds.push_back({control.fd(), POLLIN, 0});

  // Request bookkeeping by id. Closed-loop ids get a round suffix so
  // that every request sent is distinct.
  struct Pending {
    double due_s;
    size_t conn;
  };
  std::map<std::string, Pending> pending;
  std::set<std::string> sampled;
  std::set<std::string> answered;
  uint64_t attempted = 0, ok = 0, shed = 0, errors = 0, duplicates = 0;
  LatencySummary latency, lag;
  std::vector<double> reload_ms;
  std::map<std::string, double> reload_sent;
  std::ofstream samples;
  if (!sample_out.empty()) samples.open(sample_out);

  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double window_end_s = kClosedWarmupS + closed_s;
  perfbench::ClosedLoopAccount account(kClosedWarmupS, window_end_s);
  size_t next = 0;       ///< next entry to send
  uint64_t round = 0;    ///< closed loop: times the pool has wrapped

  const auto send_entry = [&](size_t conn_hint, double due_s) {
    const Entry& e = entries[next % entries.size()];
    if (closed && next > 0 && next % entries.size() == 0) ++round;
    ++next;
    if (e.reload) {
      reload_sent[e.id] = now_s();
      control.Send(e.line);
      return;
    }
    std::string id = e.id, line = e.line;
    if (round > 0) {
      id += "." + std::to_string(round);
      const std::string field = "{\"id\":\"" + e.id + "\"";
      line = "{\"id\":\"" + id + "\"" + line.substr(field.size());
    }
    const size_t conn = conn_hint % conns.size();
    pending[id] = {due_s, conn};
    ++attempted;
    if (samples.is_open() && (attempted - 1) % kSampleEvery == 0) {
      sampled.insert(id);
      samples << "{\"request\":" << line << "}\n";
    }
    conns[conn]->Send(line);
  };

  const auto handle = [&](const std::string& resp, bool from_control) {
    const double t = now_s();
    const std::string id = FieldString(resp, "id");
    if (from_control) {
      if (const auto it = reload_sent.find(id); it != reload_sent.end()) {
        if (resp.find("\"ok\":true") == std::string::npos) {
          throw std::runtime_error("reload failed: " + resp);
        }
        reload_ms.push_back(1e3 * (t - it->second));
        reload_sent.erase(it);
        return;
      }
    }
    const auto it = pending.find(id);
    if (it == pending.end()) {
      if (answered.count(id) > 0) ++duplicates;
      return;
    }
    const Pending p = it->second;
    pending.erase(it);
    answered.insert(id);
    if (resp.find("\"ok\":true") != std::string::npos) {
      ++ok;
      latency.ms.push_back(1e3 * (t - p.due_s));
      if (sampled.count(id) > 0) {
        samples << "{\"response\":" << resp << "}\n";
      }
    } else {
      ++(resp.find("\"error\":\"shed\"") != std::string::npos ? shed
                                                              : errors);
      latency.ms.push_back(kMissedMs);
    }
    if (closed) {
      account.OnComplete(t);
      if (t < window_end_s) send_entry(p.conn, t);
    }
  };

  const auto pump = [&](double until_s) {
    const double wait = std::max(0.0, until_s - now_s());
    timespec ts;
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
    const int pr = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
    if (pr < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (pr <= 0) return;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      const bool is_control = i == conns.size();
      Conn& c = is_control ? control : *conns[i];
      std::vector<std::string> lines;
      if (!c.ReadLines(lines)) throw std::runtime_error("daemon hung up");
      for (const auto& l : lines) handle(l, is_control);
    }
  };

  while (now_s() < 0) pump(0);
  if (closed) {
    for (size_t i = 0; i < kClosedOutstanding; ++i) send_entry(i, now_s());
    while (now_s() < window_end_s) pump(window_end_s);
  } else {
    while (next < entries.size()) {
      const double due = entries[next].at_s;
      if (now_s() < due) {
        pump(due);
        continue;
      }
      lag.ms.push_back(1e3 * (now_s() - due));
      send_entry(next, due);
    }
  }
  // Drain: every request must come back, and every reload be acked.
  const double drain_end = now_s() + kDrainS;
  while ((!pending.empty() || !reload_sent.empty()) && now_s() < drain_end) {
    pump(now_s() + 0.05);
  }
  const uint64_t missing = pending.size();
  latency.ms.insert(latency.ms.end(), missing, kMissedMs);
  if (!reload_sent.empty()) throw std::runtime_error("reload never acked");

  if (!stats_out.empty()) {
    control.Send("{\"op\":\"stats\",\"id\":\"stats\"}");
    std::string stats;
    while (stats.empty()) {
      pollfd pfd = {control.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) throw std::runtime_error("no stats");
      std::vector<std::string> lines;
      if (!control.ReadLines(lines)) throw std::runtime_error("hung up");
      for (const auto& l : lines) {
        if (FieldString(l, "id") == "stats") stats = l;
      }
    }
    std::ofstream(stats_out) << stats << "\n";
  }

  JsonLine out;
  out.Str("phase", phase)
      .Num("attempted", static_cast<double>(attempted))
      .Num("ok", static_cast<double>(ok))
      .Num("failed", static_cast<double>(shed + errors + missing))
      .Num("shed", static_cast<double>(shed))
      .Num("errors", static_cast<double>(errors))
      .Num("missing", static_cast<double>(missing))
      .Num("duplicates", static_cast<double>(duplicates))
      .Num("conns", static_cast<double>(conns.size() + 1));
  latency.Emit(out, "lat_ms");
  if (!closed) lag.Emit(out, "lag_ms");
  if (closed) {
    out.Num("closed_rps", account.Rate())
        .Num("closed_in_window", static_cast<double>(account.in_window()));
  }
  std::string reloads = "[";
  for (size_t i = 0; i < reload_ms.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", reload_ms[i]);
    reloads += buf;
  }
  out.Raw("reload_ms", reloads + "]");
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string usage =
      "usage: perfbench gen|train|load|client [--flag=value ...]\n";
  if (argc < 2) {
    std::fputs(usage.c_str(), stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const CliFlags flags(argc - 1, argv + 1);
    if (cmd == "gen") return RunGen(flags);
    if (cmd == "train") return RunTrain(flags);
    if (cmd == "load") return RunLoad(flags);
    if (cmd == "client") return RunClient(flags);
    std::fputs(usage.c_str(), stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
