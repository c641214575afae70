// Client side of the `punt serve` protocol: connect to a daemon's Unix
// socket, send framed requests, read framed responses.  This is what
// `punt synth|check|lint --connect=<socket>` (and ping/shutdown/cache
// stats) runs instead of the in-process pipeline — the synthesis happens in
// the daemon against its warm ModelCache, and the client merely replays the
// response's stdout/stderr text and exit code.
#pragma once

#include <string>

#include "src/server/protocol.hpp"

namespace punt::server {

/// One connection to a serve daemon.  Requests on one client are
/// sequential (frame out, frame in); open several clients for concurrency.
class Client {
 public:
  /// Connects; throws Error when nothing listens at `socket_path` (with a
  /// hint to start `punt serve`).
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Round-trips one request.  Throws Error on transport failure or when
  /// the server answered ok=false (the protocol-level refusal's text — the
  /// daemon's "overloaded: ..." load-shed refusal surfaces here too, and
  /// the server closes the connection after any refusal, so a shed client
  /// must reconnect to retry).
  Response request(const Request& request);

 private:
  int fd_ = -1;
  /// Reused across requests: read_frame resizes it per frame, so a client
  /// looping over many requests stops allocating once the buffer has seen
  /// its largest response.
  std::string payload_;
};

/// Convenience: connect, send one request, disconnect.
Response request_once(const std::string& socket_path, const Request& request);

}  // namespace punt::server
