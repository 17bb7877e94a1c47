#include "src/net/channel.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "src/util/error.h"

namespace wre::net {

Channel::Channel(Endpoint endpoint, size_t max_frame_bytes,
                 int recv_timeout_ms)
    : endpoint_(std::move(endpoint)),
      max_frame_bytes_(max_frame_bytes),
      recv_timeout_ms_(recv_timeout_ms) {}

void Channel::poison(std::string why) {
  dead_ = true;
  death_reason_ = std::move(why);
  sock_.reset();
}

Frame Channel::call(Opcode op, ByteView payload, const RequestExt& ext,
                    uint64_t deadline_hint_ms) {
  if (dead_) throw NetworkError(death_reason_);
  // Encoded before any I/O: a request too large for a frame never touches
  // the stream, so the channel stays healthy.
  const Bytes frame = encode_request_frame(op, payload, ext);
  try {
    if (!sock_) sock_.emplace(Socket::connect(endpoint_.host, endpoint_.port));
    sock_->send_all(frame);
    return read_response(deadline_hint_ms);
  } catch (const NetworkError& e) {
    // The stream position is lost; the error keeps its type, so a
    // FrameTooLargeError stays distinguishable from a dropped link.
    poison(e.what());
    throw;
  }
}

bool Channel::reusable() const {
  if (dead_) return false;
  if (!sock_) return true;  // never connected: connects on its first call
  uint8_t byte = 0;
  ssize_t n = ::recv(sock_->fd(), &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
}

Frame Channel::read_response(uint64_t deadline_hint_ms) {
  // Per-read timeout: the tighter of the channel's response timeout and
  // the caller's remaining deadline, so one stalled response cannot eat
  // the whole retry window.
  uint64_t timeout =
      recv_timeout_ms_ > 0 ? static_cast<uint64_t>(recv_timeout_ms_) : 0;
  if (deadline_hint_ms > 0 && (timeout == 0 || deadline_hint_ms < timeout)) {
    timeout = deadline_hint_ms;
  }
  if (timeout > 0) {
    sock_->set_recv_timeout_ms(static_cast<int>(
        std::min<uint64_t>(timeout, std::numeric_limits<int>::max())));
  }
  uint8_t header[kFrameHeaderBytes];
  sock_->recv_all(header, sizeof(header));
  FrameHeader fh = decode_frame_header(header, max_frame_bytes_);
  Frame resp{fh.opcode, Bytes(fh.payload_length)};
  if (fh.payload_length > 0) {
    sock_->recv_all(resp.payload.data(), resp.payload.size());
  }
  return resp;
}

ChannelPool::ChannelPool(Endpoint endpoint, size_t max_frame_bytes,
                         int recv_timeout_ms)
    : endpoint_(std::move(endpoint)),
      max_frame_bytes_(max_frame_bytes),
      recv_timeout_ms_(recv_timeout_ms) {}

ChannelPool::Lease ChannelPool::acquire() {
  for (;;) {
    std::unique_ptr<Channel> ch;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (idle_.empty()) break;
      ch = std::move(idle_.back());
      idle_.pop_back();
    }
    // Probed outside the lock; a stale channel is closed as it drops.
    if (ch->reusable()) return Lease(std::move(ch), this);
  }
  return Lease(std::make_unique<Channel>(endpoint_, max_frame_bytes_,
                                         recv_timeout_ms_),
               this);
}

void ChannelPool::release(std::unique_ptr<Channel> ch) {
  if (ch->dead()) return;  // drop the carcass
  std::lock_guard<std::mutex> lk(mu_);
  idle_.push_back(std::move(ch));
}

}  // namespace wre::net
