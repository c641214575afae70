#include "src/server/endpoint.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>

#include "src/util/error.hpp"

namespace punt::server {
namespace {

std::string errno_text() { return std::string(std::strerror(errno)); }

/// The AF_UNIX address for `path`.  Throws Error on an empty path or one
/// exceeding the sun_path limit (~107 bytes) — shared by the bind and the
/// client connect so the validation and its diagnostic cannot drift apart.
sockaddr_un unix_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof address.sun_path) {
    throw Error("serve socket path '" + path + "' must be 1.." +
                std::to_string(sizeof address.sun_path - 1) +
                " bytes (a Unix socket path limit)");
  }
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

Endpoint unix_endpoint(std::string path) { return Endpoint{std::move(path)}; }

Listener::~Listener() {
  close_fd();
  cleanup();
}

void Listener::open() {
  sockaddr_un address = unix_address(path_);
  const std::string lock_path = path_ + ".lock";
  lock_fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw Error("serve: cannot open lock file '" + lock_path + "': " + errno_text());
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw Error("serve: a server is already listening on '" + path_ +
                "' (shut it down first, or pick another --socket path)");
  }
  // Holding the lock, any file at the socket path is ours to replace: a
  // previous owner either exited (unlinking it) or crashed (leaving it
  // stale).
  ::unlink(path_.c_str());
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    const std::string why = errno_text();
    cleanup();
    throw Error("serve: cannot create socket: " + why);
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
    const std::string why = errno_text();
    close_fd();
    cleanup();
    throw Error("serve: cannot bind '" + path_ + "': " + why);
  }
  if (::listen(fd_, 64) != 0) {
    const std::string why = errno_text();
    close_fd();
    ::unlink(path_.c_str());
    cleanup();
    throw Error("serve: cannot listen on '" + path_ + "': " + why);
  }
  bound_ = true;
}

void Listener::cleanup() {
  if (bound_) {
    ::unlink(path_.c_str());
    bound_ = false;
  }
  if (lock_fd_ >= 0) {
    ::close(lock_fd_);  // closing drops the flock; the file stays
    lock_fd_ = -1;
  }
}

void Listener::close_fd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

int connect_endpoint(const std::string& socket_path) {
  sockaddr_un address = unix_address(socket_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw Error("cannot create socket: " + errno_text());
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address) != 0) {
    const std::string why = errno_text();
    ::close(fd);
    throw Error("cannot connect to '" + socket_path + "': " + why +
                " (is `punt serve --socket=" + socket_path + "` running?)");
  }
  return fd;
}

}  // namespace punt::server
