// The Unix domain socket of `punt serve` (DESIGN.md §9): the daemon's
// `--socket=<path>` and its clients' `--connect=<path>` name the same
// filesystem path.  The daemon side is `Listener`, which owns the listening
// socket and arbitrates the path with an flock on `<path>.lock` (a stale
// socket file left by a crash is reclaimed, a live daemon's path is
// refused); the client side is connect_endpoint.  Remote clients reach the
// daemon by forwarding the socket over SSH.
#pragma once

#include <string>
#include <utility>

namespace punt::server {

/// Where a daemon listens: its Unix socket path.
struct Endpoint {
  std::string path;
};

Endpoint unix_endpoint(std::string path);

/// The daemon's listening socket, owned.  The flock on `<path>.lock` is
/// held for the listener's life: a probe-then-unlink would leave a window
/// in which two concurrently starting daemons both see a dead socket and
/// one unlinks the other's fresh bind, while an flock dies with its holder,
/// so a crashed daemon's path is reclaimed with no staleness heuristic.
/// The .lock file itself is never deleted: unlinking it would hand a second
/// daemon a different inode to lock, reopening the race.
class Listener {
 public:
  explicit Listener(std::string path) : path_(std::move(path)) {}
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Takes the path lock, replaces any file at the path, binds and listens.
  /// Throws Error when a live daemon holds the path or the bind fails.
  void open();

  /// Unlinks the socket file and drops the path lock.  Idempotent; called
  /// by the server's drain and destructor.
  void cleanup();

  const std::string& path() const { return path_; }
  int fd() const { return fd_; }
  /// Closes the listening fd (stops accepting) without cleanup().
  void close_fd();

 private:
  std::string path_;
  int fd_ = -1;
  int lock_fd_ = -1;
  bool bound_ = false;
};

/// Client side: a connected stream socket to the daemon at `socket_path`
/// (CLOEXEC).  Throws Error with a "is `punt serve` running?" hint when
/// nothing listens there.
int connect_endpoint(const std::string& socket_path);

}  // namespace punt::server
