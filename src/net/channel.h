// Request channels and connection pooling.
//
// Channel is one TCP connection that carries one request at a time: call()
// writes a request frame and reads its response. The wire protocol carries
// no sequence numbers; the server answers each connection's requests in
// the order they arrive, and a channel never has a second request in
// flight, so the next response on the socket is always the one it waits
// for.
//
// A channel is intentionally NOT thread-safe. Concurrent send and recv on
// one socket would force destructive teardown (close on error) to race
// with a blocked recv on the same fd — the classic close/reuse hazard.
// Instead, ChannelPool hands out *exclusive leases*: one thread owns a
// channel for a whole call, and concurrency comes from the pool width —
// one channel per concurrent caller — not from sharing a socket.
//
// Error model: any transport failure (connect, send, recv, decode) poisons
// the channel — every later call throws NetworkError, and the pool drops
// the carcass instead of returning it. Server-reported errors (kError
// frames) leave the stream aligned and the channel healthy; they are
// returned as ordinary responses for the caller to interpret.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/net/socket.h"
#include "src/net/wire.h"

namespace wre::net {

/// One wre_server's address.
struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

class Channel {
 public:
  /// `recv_timeout_ms` bounds each response read (0 = wait forever);
  /// call() may tighten it with its deadline hint.
  Channel(Endpoint endpoint, size_t max_frame_bytes, int recv_timeout_ms);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends one request frame (connecting lazily) and reads its response.
  /// `deadline_hint_ms`, if non-zero, tightens the receive timeout for this
  /// call. Throws NetworkError on transport failure, FrameTooLargeError on
  /// a response over max_frame_bytes; the channel is dead after either.
  Frame call(Opcode op, ByteView payload, const RequestExt& ext,
             uint64_t deadline_hint_ms = 0);

  bool dead() const { return dead_; }

  /// Whether an idle channel can carry the next call: not dead, and its
  /// socket (if connected) is still open with nothing waiting on it. A
  /// server closes connections it finds idle too long; one non-blocking
  /// MSG_PEEK that reads EAGAIN tells a live, quiet socket apart from one
  /// at end of stream, in error, or holding bytes no request asked for.
  bool reusable() const;

  /// Marks the channel dead without throwing — for when the transport
  /// itself worked but the response was out-of-protocol (e.g. an
  /// unexpected opcode), so the stream can no longer be trusted.
  void poison(std::string why);

 private:
  Frame read_response(uint64_t deadline_hint_ms);

  Endpoint endpoint_;
  size_t max_frame_bytes_;
  int recv_timeout_ms_;

  std::optional<Socket> sock_;
  bool dead_ = false;
  std::string death_reason_;
};

/// A pool of channels to one server. acquire() returns an exclusive RAII
/// lease on a reusable idle channel, or on a new one when none is, so the
/// pool never blocks. Releasing keeps every channel that is still healthy,
/// so the pool's width follows the peak number of concurrent leases it has
/// seen.
class ChannelPool {
 public:
  class Lease {
   public:
    Lease(std::unique_ptr<Channel> ch, ChannelPool* pool)
        : ch_(std::move(ch)), pool_(pool) {}
    ~Lease() {
      if (ch_ && pool_) pool_->release(std::move(ch_));
    }
    Lease(Lease&& other) noexcept
        : ch_(std::move(other.ch_)), pool_(other.pool_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Channel* operator->() { return ch_.get(); }

   private:
    std::unique_ptr<Channel> ch_;
    ChannelPool* pool_;
  };

  ChannelPool(Endpoint endpoint, size_t max_frame_bytes,
              int recv_timeout_ms);

  /// Exclusive lease on an idle (or freshly created) channel. Never blocks
  /// and never throws — connect errors surface from the lease's first
  /// call().
  Lease acquire();

 private:
  friend class Lease;
  void release(std::unique_ptr<Channel> ch);

  Endpoint endpoint_;
  size_t max_frame_bytes_;
  int recv_timeout_ms_;

  std::mutex mu_;
  std::vector<std::unique_ptr<Channel>> idle_;
};

}  // namespace wre::net
