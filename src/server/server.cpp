#include "src/server/server.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "src/server/protocol.hpp"
#include "src/server/service.hpp"
#include "src/util/error.hpp"
#include "src/util/strings.hpp"

namespace punt::server {
namespace {

/// Backoff when accept() hits transient resource exhaustion; the loop
/// otherwise blocks in poll() with no timeout at all.
constexpr int kAcceptBackoffMillis = 100;

std::string errno_text() { return std::string(std::strerror(errno)); }

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(std::make_shared<core::ModelCache>()),
      executor_(options_.jobs),
      listener_(options_.endpoint.path) {
  // Self-pipe for the accept loop: non-blocking (a full pipe must not block
  // a finishing handler — one unread byte is wake enough) and CLOEXEC.
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw Error("serve: cannot create wake pipe: " + errno_text());
  }
}

Server::~Server() {
  listener_.close_fd();
  reap_connections(true);
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  listener_.cleanup();
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  wake_accept_loop();
}

void Server::wake_accept_loop() {
  // Async-signal-safe (write on an int fd) and non-blocking: if the pipe is
  // already full the loop has unread wakes pending, which is just as good.
  if (wake_fds_[1] >= 0) {
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
  }
}

void Server::start() {
  // A client vanishing mid-response must surface as an EPIPE write error on
  // that one connection, not kill the whole daemon.
  std::signal(SIGPIPE, SIG_IGN);
  // Path ownership is arbitrated in the listener (flock on <path>.lock).
  listener_.open();
}

void Server::serve() {
  if (listener_.fd() < 0) throw Error("serve: start() the server before serve()");
  while (!stop_.load(std::memory_order_relaxed)) {
    reap_connections(false);
    // Block until a connection arrives or the self-pipe is written (by
    // request_stop(), or by a handler finishing so it gets reaped).  No
    // timeout: an idle daemon makes no wakeups at all, where the old loop
    // re-polled a stop flag 10x a second.
    pollfd poll_fds[2] = {{listener_.fd(), POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int ready = ::poll(poll_fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // a signal; the loop re-checks stop_
      throw Error("serve: poll failed: " + errno_text());
    }
    if (poll_fds[1].revents != 0) {
      // Drain every pending wake byte; the work (reap / stop check) happens
      // at the top of the loop.
      char buffer[64];
      while (::read(wake_fds_[0], buffer, sizeof buffer) > 0) {
      }
    }
    if ((poll_fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept4(listener_.fd(), nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK) {
        continue;
      }
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Transient resource pressure — often fd exhaustion from the
        // daemon's own concurrent connections.  Dying here would throw
        // away the warm cache exactly when load is highest; back off a
        // beat and let finishing connections free the resources.
        std::this_thread::sleep_for(std::chrono::milliseconds(kAcceptBackoffMillis));
        continue;
      }
      throw Error("serve: accept failed: " + errno_text());
    }
    const timeval send_timeout{options_.send_timeout_seconds, 0};
    (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::thread thread([this, fd, done] {
      handle_connection(fd);
      done->store(true, std::memory_order_release);
      // Wake the accept loop so the finished thread is reaped promptly —
      // with an infinite poll timeout nobody else would notice.
      wake_accept_loop();
    });
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.push_back(Connection{std::move(thread), std::move(done), fd});
  }
  // Drain: no new connections; every accepted request runs to completion
  // (its graph finishes on the resident pool) before the socket goes away.
  listener_.close_fd();
  reap_connections(true);
  listener_.cleanup();
}

BatcherStats Server::batcher_stats() const {
  std::lock_guard<std::mutex> lock(admission_mutex_);
  BatcherStats stats = admission_;
  stats.batches = stats.fused_requests = stats.admitted;  // one-entry batches
  return stats;
}

Response Server::synth(const SynthJob& job) {
  if (!job.ok) return job.failure;
  bool alone = false;
  {
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_ >= options_.max_queue) {
      ++admission_.shed_queue_full;
      Response refusal;
      refusal.error = printf_string(
          "overloaded: %zu synth request(s) already running; retry later, or "
          "serve with a larger --max-queue",
          running_);
      return refusal;
    }
    ++running_;
    ++admission_.admitted;
    admission_.queue_high_water = std::max(admission_.queue_high_water, running_);
    alone = running_ == 1;
    if (alone) ++admission_.fanned_out;
  }
  // Gives the slot back on every exit, a throwing synthesis included.
  struct Slot {
    Server* server;
    ~Slot() {
      std::lock_guard<std::mutex> lock(server->admission_mutex_);
      --server->running_;
    }
  } slot{this};
  // Alone, the request fans its graph out over the resident pool.  With
  // others running, their threads already contend for the cores, and
  // posting this graph to the pool would add a thread hop each way, so it
  // runs on this thread (DESIGN.md §9 has the measurements).
  return run_synth(job, cache_.get(), alone ? &executor_ : nullptr);
}

void Server::reap_connections(bool all) {
  std::vector<Connection> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all || it->done->load(std::memory_order_acquire)) {
        if (all) {
          // Half-close the read side: a handler parked in read_frame
          // between requests wakes with EOF and winds down, while one mid-
          // request keeps its write side to deliver the response.  The fd
          // stays valid (owned here, closed after the join below), so this
          // cannot race a close-and-reuse.
          ::shutdown(it->fd, SHUT_RD);
        }
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: a drain join can wait on a whole synthesis run,
  // and new connections must not block on it (they only do during `all`,
  // when accepting already stopped).
  for (Connection& connection : finished) {
    connection.thread.join();
    ::close(connection.fd);
  }
}

void Server::handle_connection(int fd) {
  active_connections_.fetch_add(1, std::memory_order_relaxed);
  // One read buffer for the connection's whole lifetime: read_frame resizes
  // it per frame, so steady traffic stops allocating once the buffer has
  // seen its largest request.
  std::string payload;
  while (true) {
    // Frame or protocol errors answer best-effort and close the connection
    // (the stream cannot be trusted past a framing fault); request-level
    // failures are ordinary ok-responses carrying the CLI's exit code.
    try {
      if (read_frame(fd, payload) == FrameStatus::Eof) break;
    } catch (const std::exception& e) {
      Response refusal;
      refusal.error = e.what();
      try {
        write_frame(fd, to_json(refusal));
      } catch (...) {
        // The peer is gone; nothing left to tell it.
      }
      break;
    }
    Response response;
    bool shutdown = false;
    try {
      Request request = request_from_json(payload);
      const Op op = request.op;
      const core::ModelCacheStats before = cache_->stats();
      switch (op) {
        case Op::Synth:
          // Shed work comes back ok=false and the `!ok` exit below closes
          // the connection, per the protocol contract.
          response = synth(prepare_synth(std::move(request)));
          break;
        case Op::Check:
          // Unadmitted: check and lint answer inline without a slot.
          response = run_check(request, *cache_, &executor_);
          break;
        case Op::Lint:
          // The request carries a whole client batch already — its files
          // fan out on the resident executor inside the handler.
          response = run_lint(request, *cache_, &executor_);
          break;
        case Op::CacheStats: {
          response.ok = true;
          ServeInfo info;
          info.requests_served = requests_served();
          info.jobs = executor_.jobs();
          info.listen = listener_.path();
          info.connections = connections_accepted();
          response.output = cache_stats_json(cache_->stats(), info, batcher_stats());
          break;
        }
        case Op::Ping:
          response.ok = true;
          response.output = "pong\n";
          break;
        case Op::Shutdown:
          response.ok = true;
          shutdown = true;
          break;
      }
      if (op == Op::Synth || op == Op::Check || op == Op::Lint) {
        // The request's share of the resident cache, the line a client
        // streams to its stderr.  Concurrent requests' deltas can bleed
        // into each other; the line is attribution for humans.
        response.log += core::summarize(core::delta_stats(before, cache_->stats()));
      }
    } catch (const std::exception& e) {
      response = Response{};
      response.error = e.what();
    }
    try {
      write_frame(fd, to_json(response));
    } catch (...) {
      break;  // the peer is gone; drop the connection, keep the server
    }
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    if (shutdown) {
      // Acknowledge first (the frame above), then stop: the accept loop
      // drains every other in-flight connection before the socket is
      // unlinked, so a shutdown never truncates a neighbour's synthesis.
      request_stop();
      break;
    }
    if (!response.ok) break;  // framing/JSON fault: resync is impossible
  }
  // The fd is closed by the reaper after this thread is joined — closing it
  // here would race the drain's ::shutdown() against kernel fd reuse.
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace punt::server
