#include "src/server/client.hpp"

#include <unistd.h>

#include <csignal>

#include "src/server/endpoint.hpp"
#include "src/util/error.hpp"

namespace punt::server {

Client::Client(const std::string& socket_path) {
  // A daemon dying mid-exchange must surface as an Error throw (connect
  // refused, EPIPE from write_frame), not kill the client with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  fd_ = connect_endpoint(socket_path);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Response Client::request(const Request& request) {
  write_frame(fd_, to_json(request));
  if (read_frame(fd_, payload_) == FrameStatus::Eof) {
    throw Error("the server closed the connection without answering");
  }
  Response response = response_from_json(payload_);
  if (!response.ok) {
    throw Error("the server refused the request: " + response.error);
  }
  return response;
}

Response request_once(const std::string& socket_path, const Request& request) {
  Client client(socket_path);
  return client.request(request);
}

}  // namespace punt::server
