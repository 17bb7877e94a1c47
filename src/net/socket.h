// Minimal RAII wrappers over POSIX TCP sockets: exactly what the wire
// protocol needs — connect, accept, full-buffer send/recv with timeouts —
// and nothing else. All failures surface as NetworkError with errno text.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/util/bytes.h"
#include "src/util/error.h"

namespace wre::net {

/// A connected stream socket (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  /// Adopts an already-connected descriptor (Listener::accept()).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Blocking TCP connect. Throws NetworkError on resolution/connect
  /// failure.
  static Socket connect(const std::string& host, uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends the entire buffer (loops over partial writes). SIGPIPE is
  /// suppressed; a closed peer raises NetworkError instead.
  void send_all(ByteView data);

  /// Receives exactly `n` bytes. Throws NetworkError on error, timeout, or
  /// EOF mid-buffer.
  void recv_all(uint8_t* out, size_t n);

  /// Like recv_all, but a clean EOF *before the first byte* returns false —
  /// how a session loop distinguishes "client hung up between requests"
  /// from "connection died mid-frame".
  bool recv_all_or_eof(uint8_t* out, size_t n);

  /// Bounds how long a recv may block (0 = forever) — the server's idle /
  /// read timeout. Expiry surfaces as NetworkError("...timed out...").
  void set_recv_timeout_ms(int ms);

  /// O_NONBLOCK on/off — the epoll server runs every accepted socket
  /// non-blocking and resumes partial frames on readiness.
  void set_nonblocking(bool on);

  /// Non-blocking single send. Returns bytes written (>= 0), or -1 when the
  /// kernel buffer is full (EAGAIN — retry on EPOLLOUT). Hard failures
  /// (peer reset, injected faults) throw NetworkError.
  ssize_t send_some(ByteView data);

  /// Non-blocking single recv into `out`. Returns bytes read (> 0), 0 on
  /// clean EOF, or -1 when no data is available (EAGAIN — retry on
  /// EPOLLIN). Hard failures throw NetworkError.
  ssize_t recv_some(uint8_t* out, size_t n);

  void close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket. close() (from any thread) wakes a blocked
/// accept(), which then returns nullopt — the accept loop's shutdown path.
/// close() shuts the socket down (kernel refuses further connections) but
/// defers the descriptor release to the destructor, so a racing accept()
/// never touches a recycled fd.
class Listener {
 public:
  /// Binds and listens. `port` 0 picks an ephemeral port (see port()).
  Listener(const std::string& host, uint16_t port, int backlog = 128);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// The bound port (resolves ephemeral binds).
  uint16_t port() const { return port_; }

  /// Blocks until a connection arrives or close() is called.
  std::optional<Socket> accept();

  /// Non-blocking accept for the epoll server, which polls fd() itself.
  enum class AcceptStatus {
    kAccepted,     // *out holds the new connection
    kWouldBlock,   // nothing pending
    kRetryLater,   // transient failure (ECONNABORTED storm, injected fault)
    kFdExhausted,  // EMFILE/ENFILE — the caller should shed and back off
    kClosed,       // the listener was close()d
  };
  AcceptStatus try_accept(Socket* out);

  /// The listening descriptor, for callers that poll readiness themselves.
  int fd() const { return fd_; }

  void close();

 private:
  int fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // close() writes, accept() polls
  uint16_t port_ = 0;
  bool nonblocking_ = false;  // set lazily by the first try_accept()
  std::atomic<bool> stopping_{false};
};

/// Holds one spare descriptor so an accept loop hitting EMFILE can briefly
/// release it, accept the pending connection, answer it with an overload
/// shed, and close it — instead of leaving the peer hanging in the backlog.
class ReserveFd {
 public:
  ReserveFd();
  ~ReserveFd();
  ReserveFd(const ReserveFd&) = delete;
  ReserveFd& operator=(const ReserveFd&) = delete;

  bool held() const { return fd_ >= 0; }
  /// Closes the spare descriptor, freeing one fd-table slot.
  void release();
  /// Re-opens the spare (best effort — may fail under continued pressure).
  void reacquire();

 private:
  int fd_ = -1;
};

}  // namespace wre::net
