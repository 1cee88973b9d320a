#include "serve/frontend.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/signal.hpp"

namespace culda::serve {

namespace {

/// How long one write() of a response may block on an accepted socket. The
/// dispatch thread writes every connection's responses, so a client that
/// stops reading must cost the others at most this, once.
constexpr int kSocketSendTimeoutS = 1;

/// Serializes response lines onto one fd. Shared (refcounted) between the
/// reader loop and every in-flight completion callback, so a frontend can
/// return while the daemon is still completing its requests. A socket
/// connection's writer owns its fd and closes it when the last reference
/// drops, after the last response; stdin/stdout are never closed.
class LineWriter {
 public:
  LineWriter(int fd, bool owns_fd) : fd_(fd), owns_fd_(owns_fd) {}
  ~LineWriter() {
    if (owns_fd_) ::close(fd_);
  }
  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  /// Set once a write has failed: no later response reaches the client.
  const std::atomic<bool>& dead() const { return dead_; }

  void WriteLine(const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dead_.load(std::memory_order_relaxed)) return;
    std::string buf = line;
    buf += '\n';
    size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::write(fd_, buf.data() + off, buf.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      // Client gone (EPIPE etc.; SIGPIPE is ignored in the tool) or not
      // reading (EAGAIN once a socket's send timeout expires): drop this
      // and every later response, and shut the socket down so the
      // connection's reader loop sees EOF and ends. The daemon keeps
      // serving other connections. (shutdown fails harmlessly on a pipe.)
      dead_.store(true, std::memory_order_release);
      ::shutdown(fd_, SHUT_RDWR);
      return;
    }
  }

 private:
  const int fd_;
  const bool owns_fd_;
  std::mutex mutex_;  ///< serializes writes
  std::atomic<bool> dead_{false};  ///< written under mutex_, read anywhere
};

bool ShouldStop(const FrontendOptions& options) {
  if (ShutdownRequested()) return true;
  return options.stop != nullptr &&
         options.stop->load(std::memory_order_relaxed);
}

/// The line loop behind RunLineFrontend, answering through `writer`.
FrontendResult RunLines(ServeDaemon& daemon, int in_fd,
                        const std::shared_ptr<LineWriter>& writer,
                        const ReloadFn& reload,
                        const FrontendOptions& options) {
  FrontendResult result;
  std::string buffer;
  size_t scan_from = 0;
  bool eof = false;

  const auto handle_line = [&](std::string_view line) -> bool {
    obs::SpanTracer& tracer = obs::SpanTracer::Global();
    const bool tracing = tracer.enabled();
    const double parse_start_s = tracing ? tracer.NowSeconds() : 0;
    ParsedLine parsed = ParseRequestLine(line);
    if (parsed.kind == LineKind::kError) {
      if (parsed.error.empty()) return true;  // blank line
      ++result.lines;
      CULDA_OBS_COUNT("serve.bad_lines", 1);
      writer->WriteLine(FormatResponse(MakeErrorResponse(
          std::move(parsed.id), "bad_request", std::move(parsed.error))));
      return true;
    }
    ++result.lines;
    if (parsed.kind == LineKind::kControl) {
      if (parsed.op == "drain") {
        result.drain_requested = true;
        const auto snap = daemon.Current();
        writer->WriteLine(FormatControlAck(
            parsed.id, "drain", snap ? snap->generation() : 0));
        return false;  // stop reading; caller drains
      }
      if (parsed.op == "stats") {
        CULDA_OBS_TIMED_L("serve.request.latency", "op", "stats");
        writer->WriteLine(FormatControlAck(
            parsed.id, "stats",
            daemon.Current() ? daemon.Current()->generation() : 0,
            daemon.StatsPayloadJson()));
        return true;
      }
      // reload: build the next generation, publish, ack with its number.
      CULDA_OBS_TIMED_L("serve.request.latency", "op", "reload");
      try {
        CULDA_CHECK_MSG(reload != nullptr,
                        "this daemon has no reload source");
        core::SnapshotPtr next = reload();
        daemon.Publish(next);
        writer->WriteLine(
            FormatControlAck(parsed.id, "reload", next->generation()));
      } catch (const std::exception& e) {
        writer->WriteLine(FormatResponse(MakeErrorResponse(
            std::move(parsed.id), "reload_failed", e.what())));
      }
      return true;
    }
    if (tracing) {
      // Mint the request's trace context here so the parse span joins the
      // same trace the daemon's queue/infer/respond spans will use.
      parsed.request.trace_ctx =
          obs::NewRequestContext(parsed.request.trace);
      tracer.RecordSpan("serve/parse", parse_start_s, tracer.NowSeconds(),
                        obs::ChildContext(parsed.request.trace_ctx));
    }
    // Inference: the callback owns a writer reference, so completion after
    // this frame returns is safe. The writer's dead flag tells the daemon
    // when nobody will read the answer.
    daemon.Submit(std::move(parsed.request),
                  [writer](ServeResponse response) {
                    writer->WriteLine(FormatResponse(response));
                  },
                  std::shared_ptr<const std::atomic<bool>>(writer,
                                                           &writer->dead()));
    return true;
  };

  while (!eof && !ShouldStop(options)) {
    // Drain complete lines already buffered before reading more.
    size_t nl;
    bool keep_going = true;
    while (keep_going &&
           (nl = buffer.find('\n', scan_from)) != std::string::npos) {
      keep_going = handle_line(
          std::string_view(buffer).substr(scan_from, nl - scan_from));
      scan_from = nl + 1;
    }
    buffer.erase(0, scan_from);
    scan_from = 0;
    if (!keep_going) return result;
    CULDA_CHECK_MSG(buffer.size() <= options.max_line_bytes,
                    "request line exceeds " << options.max_line_bytes
                                            << " bytes");

    struct pollfd pfd = {};
    pfd.fd = in_fd;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, options.poll_interval_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;  // signal: loop re-checks the flag
      CULDA_CHECK_MSG(false, "poll failed: " << std::strerror(errno));
    }
    if (pr == 0) continue;  // timeout: re-check stop flags
    if ((pfd.revents & (POLLIN | POLLHUP)) == 0) {
      eof = true;  // POLLERR/POLLNVAL: treat as end of stream
      continue;
    }
    char chunk[65536];
    const ssize_t n = ::read(in_fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      eof = true;
      continue;
    }
    if (n == 0) {
      eof = true;
      continue;
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  // EOF with an unterminated final line: serve it too (files rarely end
  // in exactly '\n' when humans write them).
  if (eof && !buffer.empty()) handle_line(buffer);
  return result;
}

}  // namespace

FrontendResult RunLineFrontend(ServeDaemon& daemon, int in_fd, int out_fd,
                               const ReloadFn& reload,
                               FrontendOptions options) {
  return RunLines(daemon, in_fd,
                  std::make_shared<LineWriter>(out_fd, /*owns_fd=*/false),
                  reload, options);
}

SocketFrontend::SocketFrontend(ServeDaemon& daemon, std::string path,
                               ReloadFn reload, FrontendOptions options)
    : daemon_(daemon),
      path_(std::move(path)),
      reload_(std::move(reload)),
      options_(options) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  CULDA_CHECK_MSG(path_.size() < sizeof(addr.sun_path),
                  "socket path too long (" << path_.size() << " bytes): "
                                           << path_);
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CULDA_CHECK_MSG(listen_fd_ >= 0,
                  "socket() failed: " << std::strerror(errno));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    CULDA_CHECK_MSG(false, "cannot bind socket " << path_ << ": "
                                                 << std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(path_.c_str());
    listen_fd_ = -1;
    CULDA_CHECK_MSG(false, "cannot listen on " << path_ << ": "
                                               << std::strerror(err));
  }
}

SocketFrontend::~SocketFrontend() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }
}

FrontendResult SocketFrontend::Run() {
  FrontendResult total;
  std::mutex merge_mutex;  ///< guards `total` against connection threads
  std::vector<std::thread> connections;

  while (!stop_.load(std::memory_order_relaxed) && !ShutdownRequested()) {
    struct pollfd pfd = {};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int pr = ::poll(&pfd, 1, options_.poll_interval_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      CULDA_CHECK_MSG(false, "poll failed: " << std::strerror(errno));
    }
    if (pr == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      CULDA_LOG(Warn) << "accept failed: " << std::strerror(errno);
      continue;
    }
    CULDA_OBS_COUNT("serve.connections", 1);
    const timeval send_timeout = {kSocketSendTimeoutS, 0};
    if (::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                     sizeof(send_timeout)) != 0) {
      CULDA_LOG(Warn) << "setsockopt(SO_SNDTIMEO) failed: "
                      << std::strerror(errno);
    }
    // The connection's writer owns `conn`: responses still in flight when
    // the reader sees end of input (a client that half-closes after its
    // last request) reach the client, and the fd closes after the last one.
    auto writer = std::make_shared<LineWriter>(conn, /*owns_fd=*/true);
    connections.emplace_back([this, conn, writer = std::move(writer), &total,
                              &merge_mutex] {
      FrontendOptions conn_options = options_;
      conn_options.stop = &stop_;
      const FrontendResult r =
          RunLines(daemon_, conn, writer, reload_, conn_options);
      std::lock_guard<std::mutex> lock(merge_mutex);
      total.lines += r.lines;
      total.drain_requested |= r.drain_requested;
      // A drain op from any client shuts the whole listener down.
      if (r.drain_requested) stop_.store(true, std::memory_order_relaxed);
    });
  }
  for (auto& t : connections) t.join();
  return total;
}

void SocketFrontend::Stop() { stop_.store(true, std::memory_order_relaxed); }

}  // namespace culda::serve
