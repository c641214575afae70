// The `punt serve` daemon (DESIGN.md §9): a Unix domain socket server that
// keeps one ModelCache and one Executor (thread pool) resident across
// requests, so repeated synthesis of the same STG pays neither process
// startup nor phase-1 reconstruction — the regime where the
// unfolding-segment approach amortises best.
//
// Concurrency model: an accept loop (poll on the listen fd plus a self-pipe
// wake, so an idle daemon sleeps indefinitely yet stop/reap requests are
// honoured immediately) hands each connection to its own thread; every
// connection thread parses frames, dispatches into server/service.hpp over
// the *shared* cache and executor, appends the request's cache summary line
// and writes response frames.  A synth request is parsed once (lint
// admission and the job's Stg share the parse) and runs on its connection
// thread as a one-entry batch, once it holds one of `max_queue` admission
// slots; with every slot taken it is shed with an explicit "overloaded"
// refusal instead of waiting without bound.  A request admitted while no
// other synth request runs fans its graph out over the resident pool, so a
// lone large spec keeps its parallelism; one admitted while others run
// executes inline on its connection thread, since the busy cores gain
// nothing from a thread hop each way.  Requests for one model key share
// its build through the cache's in-flight joins, whichever path they take.
//
// Lifecycle: serve() accepts until stop is requested — by a client
// {"op":"shutdown"} (acknowledged before the drain begins) or by
// request_stop() (the CLI's SIGTERM/SIGINT handler).  It then stops
// accepting, half-closes and joins every in-flight connection thread (each
// finishes its request; nothing is aborted mid-graph), unlinks the socket
// and returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/server/endpoint.hpp"
#include "src/server/service.hpp"

namespace punt::server {

struct ServerOptions {
  /// Where to listen: the Unix socket path (`--socket`).  Required.
  Endpoint endpoint;
  /// Resident executor width (`--jobs`; 0 = hardware default): the pool a
  /// lone synth request, `check` and deep lint fan out over.
  std::size_t jobs = 1;
  /// How many synth requests may run at once across the daemon
  /// (`--max-queue`); one more is shed with an "overloaded" refusal.
  std::size_t max_queue = 256;
  /// Per-write() SO_SNDTIMEO on every connection (`--send-timeout`), so a
  /// client that stops reading cannot pin its handler — and therefore the
  /// shutdown drain — forever.  Must be positive.
  long send_timeout_seconds = 30;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens on the socket path.  Path ownership is arbitrated
  /// by an flock on `<socket>.lock` (endpoint.hpp), so a stale socket file
  /// left by a crashed server is reclaimed while a live daemon's path is
  /// refused with a throw.
  void start();

  /// The accept loop; blocks until shutdown is requested, then drains
  /// in-flight connections and removes the socket file.  start() first.
  void serve();

  /// Asks serve() to stop accepting and drain.  Async-signal-safe in the
  /// only way that matters: it stores an atomic flag and write()s one byte
  /// down the self-pipe the poll loop watches, so the CLI's SIGTERM handler
  /// may call it directly and the shutdown is immediate, not
  /// next-poll-interval.
  void request_stop();

  core::ModelCache& cache() { return *cache_; }
  std::size_t jobs() const { return executor_.jobs(); }

  /// Snapshot of the synth admission counters.
  BatcherStats batcher_stats() const;

  /// Requests fully handled (response frame written) since start().
  std::size_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// Connections currently being handled — what tests poll to order a
  /// shutdown *behind* an in-flight request deterministically.
  std::size_t active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

  /// Connections accepted since start().
  std::size_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  /// One connection's frame loop; runs on its own thread.  The fd is owned
  /// by the Connection record (closed by the reaper after the join), so the
  /// drain can safely ::shutdown() it while the handler still runs.
  void handle_connection(int fd);

  /// Joins finished connection threads (all of them when `all`, otherwise
  /// just the ones whose handler already returned) and closes their fds.
  /// The `all` drain first half-closes every connection's read side, so a
  /// handler idling in read_frame between requests wakes with EOF and
  /// finishes — in-flight *requests* complete, idle keep-alives don't stall
  /// the shutdown forever.
  void reap_connections(bool all);

  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;
  };

  /// Takes an admission slot and runs a prepared synth job — over the
  /// resident executor when no other synth request holds a slot, inline on
  /// the calling thread otherwise — or answers without a slot: a job lint
  /// or the parser refused needs none, and with every slot taken the
  /// request is shed ("overloaded: ...").
  Response synth(const SynthJob& job);

  /// Writes one byte down the self-pipe so the accept loop's poll returns.
  /// Used by request_stop() and by finishing connection handlers (so the
  /// loop reaps them promptly despite its infinite poll timeout).
  void wake_accept_loop();

  ServerOptions options_;
  std::shared_ptr<core::ModelCache> cache_;
  core::Executor executor_;
  /// Synth admission: `running_` counts the requests holding a slot; the
  /// one that takes the first slot is the one that runs on the pool.
  mutable std::mutex admission_mutex_;
  std::size_t running_ = 0;
  BatcherStats admission_;
  /// The socket behind the accept loop (endpoint.hpp); owns the listen fd,
  /// the socket file and the path lock.
  Listener listener_;
  /// Self-pipe: [0] is polled by the accept loop, [1] is written by
  /// request_stop() / finishing handlers.  Created in the constructor so a
  /// pre-start() request_stop() still works.
  int wake_fds_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> requests_served_{0};
  std::atomic<std::size_t> active_connections_{0};
  std::atomic<std::size_t> connections_accepted_{0};
  std::mutex connections_mutex_;
  std::vector<Connection> connections_;
};

}  // namespace punt::server
