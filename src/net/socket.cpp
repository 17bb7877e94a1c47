#include "src/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/net/net_fault.h"

namespace wre::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetworkError(what + ": " + std::strerror(errno));
}

void injected_sleep_ms(uint32_t ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

Socket Socket::connect(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetworkError("Socket::connect: not an IPv4 address: " + host);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("Socket::connect: socket()");
  Socket sock(fd);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("Socket::connect: connect to " + host + ":" +
                std::to_string(port));
  }
  // Request/response round-trips are latency-bound; never Nagle-delay them.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

void Socket::send_all(ByteView data) {
  if (NetFaultInjector::instance().armed()) {
    auto plan = NetFaultInjector::instance().on_send(data.size());
    injected_sleep_ms(plan.delay_ms);
    if (plan.torn) {
      // Deliver a strict prefix, then die: the peer observes a frame torn
      // mid-stream — the classic half-delivered mutation a retry must heal.
      ByteView prefix = data.subspan(0, plan.torn_prefix);
      size_t sent = 0;
      while (sent < prefix.size()) {
        ssize_t n = ::send(fd_, prefix.data() + sent, prefix.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<size_t>(n);
      }
      close();
      throw NetworkError("Socket::send_all: injected torn write (" +
                         std::to_string(sent) + "/" +
                         std::to_string(data.size()) + " bytes)");
    }
    if (plan.reset) {
      close();
      throw NetworkError("Socket::send_all: injected connection reset");
    }
  }
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("Socket::send_all");
    }
    sent += static_cast<size_t>(n);
  }
}

bool Socket::recv_all_or_eof(uint8_t* out, size_t n) {
  if (NetFaultInjector::instance().armed()) {
    auto plan = NetFaultInjector::instance().on_recv();
    injected_sleep_ms(plan.stall_ms);
    if (plan.reset) {
      close();
      throw NetworkError("Socket::recv: injected connection reset");
    }
  }
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd_, out + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw NetworkError("Socket::recv: timed out");
      }
      throw_errno("Socket::recv");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      throw NetworkError("Socket::recv: connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return true;
}

void Socket::recv_all(uint8_t* out, size_t n) {
  if (!recv_all_or_eof(out, n)) {
    throw NetworkError("Socket::recv: connection closed by peer");
  }
}

void Socket::set_nonblocking(bool on) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) throw_errno("Socket::set_nonblocking: F_GETFL");
  flags = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_, F_SETFL, flags) < 0) {
    throw_errno("Socket::set_nonblocking: F_SETFL");
  }
}

ssize_t Socket::send_some(ByteView data) {
  if (NetFaultInjector::instance().armed()) {
    auto plan = NetFaultInjector::instance().on_send(data.size());
    injected_sleep_ms(plan.delay_ms);
    if (plan.torn) {
      // Same semantics as send_all: a strict prefix escapes, then the
      // connection dies — the peer sees a frame torn mid-stream.
      ByteView prefix = data.subspan(0, plan.torn_prefix);
      size_t sent = 0;
      while (sent < prefix.size()) {
        ssize_t n = ::send(fd_, prefix.data() + sent, prefix.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<size_t>(n);
      }
      close();
      throw NetworkError("Socket::send_some: injected torn write (" +
                         std::to_string(sent) + "/" +
                         std::to_string(data.size()) + " bytes)");
    }
    if (plan.reset) {
      close();
      throw NetworkError("Socket::send_some: injected connection reset");
    }
  }
  for (;;) {
    ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("Socket::send_some");
  }
}

ssize_t Socket::recv_some(uint8_t* out, size_t n) {
  if (NetFaultInjector::instance().armed()) {
    auto plan = NetFaultInjector::instance().on_recv();
    injected_sleep_ms(plan.stall_ms);
    if (plan.reset) {
      close();
      throw NetworkError("Socket::recv_some: injected connection reset");
    }
  }
  for (;;) {
    ssize_t r = ::recv(fd_, out, n, 0);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    throw_errno("Socket::recv_some");
  }
}

void Socket::set_recv_timeout_ms(int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("Socket::set_recv_timeout_ms");
  }
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::Listener(const std::string& host, uint16_t port, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetworkError("Listener: not an IPv4 address: " + host);
  }

  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("Listener: socket()");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("Listener: bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("Listener: listen()");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    throw_errno("Listener: getsockname()");
  }
  port_ = ntohs(bound.sin_port);

  if (::pipe(wake_pipe_) != 0) throw_errno("Listener: pipe()");
}

Listener::~Listener() {
  close();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

std::optional<Socket> Listener::accept() {
  while (!stopping_.load(std::memory_order_acquire)) {
    if (NetFaultInjector::instance().armed() &&
        NetFaultInjector::instance().on_accept()) {
      // Models accept() failing with a transient, resource-exhaustion style
      // error (EMFILE/ENFILE): throwing — not continuing — so the caller's
      // retry/backoff path is what gets exercised.
      throw NetworkError(
          "Listener::accept: injected transient failure "
          "(too many open files)");
    }
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("Listener::accept: poll()");
    }
    if (stopping_.load(std::memory_order_acquire) || fds[1].revents != 0) {
      return std::nullopt;
    }
    if (!(fds[0].revents & POLLIN)) continue;
    int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EBADF || errno == EINVAL) return std::nullopt;
      throw_errno("Listener::accept");
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(client);
  }
  return std::nullopt;
}

Listener::AcceptStatus Listener::try_accept(Socket* out) {
  if (stopping_.load(std::memory_order_acquire)) return AcceptStatus::kClosed;
  if (NetFaultInjector::instance().armed() &&
      NetFaultInjector::instance().on_accept()) {
    // Models accept() failing with a transient, resource-exhaustion style
    // error (EMFILE/ENFILE): the caller's backoff path is what gets
    // exercised; pending connections park in the kernel backlog meanwhile.
    return AcceptStatus::kRetryLater;
  }
  if (!nonblocking_) {
    // try_accept is only called by the epoll server, which polls fd()
    // readiness itself — the listening socket must never block it.
    int flags = ::fcntl(fd_, F_GETFL, 0);
    if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    nonblocking_ = true;
  }
  int client = ::accept4(fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (client < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return AcceptStatus::kWouldBlock;
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      return AcceptStatus::kRetryLater;
    }
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      return AcceptStatus::kFdExhausted;
    }
    if (errno == EBADF || errno == EINVAL) return AcceptStatus::kClosed;
    throw_errno("Listener::try_accept");
  }
  int one = 1;
  ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  *out = Socket(client);
  return AcceptStatus::kAccepted;
}

void Listener::close() {
  // Signal first, then kick both wake-up channels: the kernel stops
  // accepting at shutdown(), and the pipe write covers the window where
  // accept() is already past its stopping_ check.
  stopping_.store(true, std::memory_order_release);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  if (wake_pipe_[1] >= 0) {
    uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

ReserveFd::ReserveFd() { reacquire(); }

ReserveFd::~ReserveFd() { release(); }

void ReserveFd::release() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ReserveFd::reacquire() {
  if (fd_ < 0) fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

}  // namespace wre::net
