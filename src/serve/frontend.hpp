// Transports for ServeDaemon: a JSONL line loop over any fd pair (stdin/
// stdout in the tool, one loop per connection under the socket listener)
// and a Unix-domain-socket acceptor for concurrent clients.
//
// The frontends are deliberately thin: they parse lines, Submit, and write
// response lines back (completion order, one write per line, serialized by
// a shared writer so concurrent batch completions never interleave bytes).
// Control ops are handled here — "reload" asks the embedder for a fresh
// snapshot via ReloadFn and publishes it (the tool's hot-swap path),
// "stats" answers with ServeDaemon::StatsPayloadJson (daemon state + the
// full registry snapshot, per-endpoint histograms included), "drain" acks,
// stops this frontend, and reports drain_requested so the caller runs the
// daemon's graceful drain.
//
// All blocking I/O is poll()-bounded and installed without SA_RESTART
// (util/signal.hpp), so SIGINT/SIGTERM stops a frontend within one poll
// interval even when no input is arriving.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "core/snapshot.hpp"
#include "serve/server.hpp"

namespace culda::serve {

/// Builds the next model generation for a "reload" op (e.g. re-read
/// --model from disk). Throws culda::Error on failure; the frontend
/// answers the op with error "reload_failed" and keeps serving the
/// current generation.
using ReloadFn = std::function<core::SnapshotPtr()>;

struct FrontendOptions {
  /// How often blocked reads wake up to check shutdown/stop flags.
  int poll_interval_ms = 50;
  /// Hard cap on one request line; longer input fails the connection
  /// loudly instead of buffering without bound.
  size_t max_line_bytes = 16u << 20;
  /// Optional external stop flag (the socket listener points every
  /// connection loop at its own); null = only EOF/drain/signals stop.
  const std::atomic<bool>* stop = nullptr;
};

struct FrontendResult {
  uint64_t lines = 0;            ///< non-blank request lines consumed
  bool drain_requested = false;  ///< a {"op":"drain"} arrived
};

/// Runs one JSONL request loop: read lines from `in_fd` until EOF, a drain
/// op, a stop flag, or ShutdownRequested(); write responses to `out_fd`.
/// Returns without draining the daemon — callers own shutdown sequencing
/// (several frontends may share one daemon). Response writes that started
/// before return are completed by the daemon's dispatch thread through a
/// refcounted writer, so returning early never dangles a callback.
FrontendResult RunLineFrontend(ServeDaemon& daemon, int in_fd, int out_fd,
                               const ReloadFn& reload,
                               FrontendOptions options = {});

/// Accepts concurrent clients on a Unix domain socket; each connection
/// runs RunLineFrontend on its own thread. A drain op from any client (or
/// a process signal) stops the listener and every connection.
///
/// One dispatch thread writes every connection's responses, so a write to
/// an accepted socket blocks for at most one second (SO_SNDTIMEO). A client
/// that does not read within that is disconnected: its socket is shut
/// down, its queued requests are discarded unserved, and everyone else
/// keeps being served. A connection's fd stays open until its last
/// response is written, so a client that half-closes after its last
/// request still receives every answer.
class SocketFrontend {
 public:
  /// Binds and listens; throws culda::Error if the path is taken or too
  /// long (sun_path is ~107 bytes). The socket file is unlinked on
  /// destruction.
  SocketFrontend(ServeDaemon& daemon, std::string path, ReloadFn reload,
                 FrontendOptions options = {});
  ~SocketFrontend();

  SocketFrontend(const SocketFrontend&) = delete;
  SocketFrontend& operator=(const SocketFrontend&) = delete;

  /// Accept loop; returns once stopped (Stop(), a drain op, or a shutdown
  /// signal) with every connection thread joined.
  FrontendResult Run();

  /// Asks Run() to return; safe from any thread. Idempotent.
  void Stop();

  const std::string& path() const { return path_; }

 private:
  ServeDaemon& daemon_;
  std::string path_;
  ReloadFn reload_;
  FrontendOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
};

}  // namespace culda::serve
