#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "core/timer.hpp"

namespace mts::net {

namespace {

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

sockaddr_in make_address(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw InvalidInput("not an IPv4 literal: '" + host + "'");
  }
  return address;
}

}  // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

std::size_t Socket::read_some(char* buffer, std::size_t capacity) const {
  require(valid(), "Socket::read_some on an invalid socket");
  for (;;) {
    const ssize_t n = ::recv(fd_, buffer, capacity, 0);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    // A reset peer is an orderly end of conversation for a line protocol:
    // report EOF and let the caller finish its drain.
    if (errno == ECONNRESET) return 0;
    throw_errno("recv");
  }
}

void Socket::write_all(std::string_view data) const {
  require(valid(), "Socket::write_all on an invalid socket");
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + written, data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    written += static_cast<std::size_t>(n);
  }
}

bool Socket::write_all_for(std::string_view data, int timeout_ms) const {
  if (timeout_ms <= 0) {
    write_all(data);
    return true;
  }
  require(valid(), "Socket::write_all_for on an invalid socket");
  Stopwatch elapsed;
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_, data.data() + written, data.size() - written,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) throw_errno("send");
    // Kernel buffer full: wait for drain within the remaining budget.
    const double remaining_ms = timeout_ms - elapsed.seconds() * 1000.0;
    if (remaining_ms <= 0.0) return false;
    pollfd poll_entry{};
    poll_entry.fd = fd_;
    poll_entry.events = POLLOUT;
    const int ready = ::poll(&poll_entry, 1, static_cast<int>(remaining_ms) + 1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (ready == 0 && elapsed.seconds() * 1000.0 >= timeout_ms) return false;
    // POLLERR/POLLHUP (or a spurious wake): loop and let send() report it.
  }
  return true;
}

void Socket::shutdown_read() const {
  if (valid()) ::shutdown(fd_, SHUT_RD);  // best effort: peer may be gone already
}

void Socket::shutdown_both() const {
  if (valid()) ::shutdown(fd_, SHUT_RDWR);  // best effort, like shutdown_read
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener Listener::bind(const std::string& host, std::uint16_t port) {
  const sockaddr_in address = make_address(host, port);
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket");
  const int enable = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(socket.fd(), kListenBacklog) != 0) throw_errno("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    throw_errno("getsockname");
  }
  Listener listener;
  listener.socket_ = std::move(socket);
  listener.port_ = ntohs(bound.sin_port);
  return listener;
}

std::optional<Socket> Listener::accept_for(int timeout_ms) const {
  require(valid(), "Listener::accept_for on a closed listener");
  pollfd poll_entry{};
  poll_entry.fd = socket_.fd();
  poll_entry.events = POLLIN;
  const int ready = ::poll(&poll_entry, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;  // signal: let the caller re-check its flag
    throw_errno("poll");
  }
  if (ready == 0) return std::nullopt;
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;  // transient (peer gone between poll and accept)
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  return Socket(fd);
}

Socket connect_to(const std::string& host, std::uint16_t port) {
  const sockaddr_in address = make_address(host, port);
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) throw_errno("socket");
  for (;;) {
    if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&address),
                  sizeof address) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  const int enable = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
  return socket;
}

}  // namespace mts::net
