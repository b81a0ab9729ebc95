// Minimal RAII wrappers over POSIX TCP sockets (loopback service use).
//
// The routed daemon and loadgen client need exactly four operations: bind+
// accept with a poll timeout (so the accept loop can observe a shutdown
// flag), connect, blocking read, and full write.  These wrappers own the
// file descriptors, retry EINTR, and suppress SIGPIPE on writes; every
// hard failure surfaces as mts::Error with errno context instead of a raw
// return code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mts::net {

/// Movable owner of one socket file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Blocking read of up to `capacity` bytes.  Returns 0 on orderly EOF;
  /// throws Error on hard failure.  Retries EINTR.
  std::size_t read_some(char* buffer, std::size_t capacity) const;

  /// Writes all of `data` (looping over short writes, EINTR-safe,
  /// SIGPIPE-suppressed).  Throws Error when the peer is gone.
  void write_all(std::string_view data) const;

  /// Like write_all, but gives the peer at most `timeout_ms` of cumulative
  /// not-draining time: non-blocking sends interleaved with POLLOUT waits.
  /// Returns false when the timeout expires mid-write (the peer is a slow
  /// client; some prefix of `data` may have been sent), true on completion.
  /// `timeout_ms <= 0` degrades to plain blocking write_all.  Throws Error
  /// on hard socket failure, like write_all.
  [[nodiscard]] bool write_all_for(std::string_view data, int timeout_ms) const;

  /// Half-closes the read side: a peer blocked in read_some() on this fd
  /// wakes with EOF.  Used to interrupt reader threads at shutdown.
  void shutdown_read() const;

  /// Shuts down both directions: our reader wakes with EOF and the peer
  /// sees the connection end.  Used to evict slow clients without closing
  /// the fd out from under threads still holding it.
  void shutdown_both() const;

  /// Full close (idempotent).
  void close();

 private:
  int fd_ = -1;
};

/// Listening TCP socket bound to `host` (an IPv4 literal, normally
/// 127.0.0.1).  Port 0 binds an ephemeral port; port() reports the choice.
class Listener {
 public:
  static Listener bind(const std::string& host, std::uint16_t port);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool valid() const { return socket_.valid(); }

  /// Waits up to `timeout_ms` for a connection.  Returns the accepted
  /// socket, or nullopt on timeout (and on transient accept errors, so a
  /// flaky client cannot kill the accept loop).  Throws Error only when
  /// the listener itself is broken.
  std::optional<Socket> accept_for(int timeout_ms) const;

  void close() { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Connects to host:port (IPv4 literal).  Throws Error on failure.
Socket connect_to(const std::string& host, std::uint16_t port);

}  // namespace mts::net
