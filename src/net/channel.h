// Pipelined request channels and connection pooling.
//
// PipelinedChannel is one TCP connection that allows multiple in-flight
// request frames. The wire protocol carries no sequence numbers: the
// server guarantees responses come back in request order (the epoll core
// executes each connection's pipeline FIFO), so a ticket is just the
// request's position in the stream. submit() writes a frame and returns a
// ticket; await() reads responses in order until the ticket's arrives,
// parking any it reads past in a small reorder map.
//
// A channel is intentionally NOT thread-safe. Concurrent send and recv on
// one socket would force destructive teardown (close on error) to race
// with a blocked recv on the same fd — the classic close/reuse hazard.
// Instead, ChannelPool hands out *exclusive leases*: one thread owns a
// channel for a whole submit…await burst, and concurrency comes from the
// pool width — one channel per concurrent caller — not from sharing a
// socket. This matches RemoteConnection's request loop exactly: it leases
// one channel, bursts its requests, then awaits them.
//
// Error model: any transport failure (send, recv, decode) poisons the
// channel — every outstanding and future call throws NetworkError, and
// the pool drops the carcass instead of returning it. Server-reported
// errors (kError frames) leave the stream aligned and the channel healthy;
// they are returned as ordinary responses for the caller to interpret.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
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

class PipelinedChannel {
 public:
  struct Response {
    Opcode opcode = Opcode::kError;
    Bytes payload;
  };

  /// `recv_timeout_ms` bounds each response read (0 = wait forever);
  /// await() may tighten it per call with its deadline hint.
  PipelinedChannel(Endpoint endpoint, size_t max_frame_bytes,
                   int recv_timeout_ms);

  PipelinedChannel(const PipelinedChannel&) = delete;
  PipelinedChannel& operator=(const PipelinedChannel&) = delete;

  /// Encodes one request frame into the channel's output buffer (connecting
  /// lazily) and returns its ticket. Frames are corked until flush() — a
  /// submit burst costs one send syscall, not one per frame. Throws
  /// NetworkError on connect failure (channel is then dead).
  uint64_t submit(Opcode op, ByteView payload, const RequestExt& ext);

  /// Sends every corked frame in one write. await() flushes implicitly; a
  /// caller flushes explicitly to put a burst on the wire before it does
  /// anything else. Throws NetworkError on send failure (channel dead).
  void flush();

  /// Blocks until `ticket`'s response has been read, reading (and parking)
  /// any earlier in-flight responses on the way. `deadline_hint_ms`, if
  /// non-zero, tightens the receive timeout for reads done by this call.
  /// Tickets must be awaited at most once. Throws NetworkError on
  /// transport failure, FrameTooLargeError on a response over
  /// max_frame_bytes (the channel is dead after either).
  Response await(uint64_t ticket, uint64_t deadline_hint_ms = 0);

  /// Requests submitted but not yet awaited/read.
  size_t in_flight() const { return next_ticket_ - next_response_; }

  bool dead() const { return dead_; }

  /// Marks the channel dead without throwing — for when the transport
  /// itself worked but the response was out-of-protocol (e.g. an
  /// unexpected opcode), so the stream can no longer be trusted.
  void poison(std::string why);

 private:
  [[noreturn]] void die(const std::string& why);
  Response read_one(uint64_t deadline_hint_ms);

  Endpoint endpoint_;
  size_t max_frame_bytes_;
  int recv_timeout_ms_;

  std::optional<Socket> sock_;
  Bytes outbuf_;  // encoded frames corked since the last flush
  bool dead_ = false;
  std::string death_reason_;
  uint64_t next_ticket_ = 0;    // next ticket submit() hands out
  uint64_t next_response_ = 0;  // ticket the next wire response answers
  std::map<uint64_t, Response> parked_;  // read past while awaiting later
};

/// A pool of channels to one server. acquire() returns an exclusive RAII
/// lease on an idle channel, or on a new one when none is idle, so the
/// pool never blocks. Releasing keeps every channel that is still healthy
/// and has no un-awaited responses, so the pool's width follows the peak
/// number of concurrent leases it has seen.
class ChannelPool {
 public:
  class Lease {
   public:
    Lease(std::shared_ptr<PipelinedChannel> ch, ChannelPool* pool)
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

    PipelinedChannel* operator->() { return ch_.get(); }
    PipelinedChannel& operator*() { return *ch_; }

   private:
    std::shared_ptr<PipelinedChannel> ch_;
    ChannelPool* pool_;
  };

  ChannelPool(Endpoint endpoint, size_t max_frame_bytes,
              int recv_timeout_ms);

  /// Exclusive lease on an idle (or freshly created) channel. Never blocks
  /// and never throws — connect errors surface from the lease's first
  /// submit().
  Lease acquire();

  const Endpoint& endpoint() const { return endpoint_; }

 private:
  friend class Lease;
  void release(std::shared_ptr<PipelinedChannel> ch);

  Endpoint endpoint_;
  size_t max_frame_bytes_;
  int recv_timeout_ms_;

  std::mutex mu_;
  std::vector<std::shared_ptr<PipelinedChannel>> idle_;
};

}  // namespace wre::net
