#include "src/net/channel.h"

#include <algorithm>
#include <limits>

#include "src/util/error.h"

namespace wre::net {

PipelinedChannel::PipelinedChannel(Endpoint endpoint,
                                   size_t max_frame_bytes, int recv_timeout_ms)
    : endpoint_(std::move(endpoint)),
      max_frame_bytes_(max_frame_bytes),
      recv_timeout_ms_(recv_timeout_ms) {}

void PipelinedChannel::poison(std::string why) {
  dead_ = true;
  death_reason_ = std::move(why);
  sock_.reset();
  outbuf_.clear();
  parked_.clear();
}

void PipelinedChannel::die(const std::string& why) {
  poison(why);
  throw NetworkError(why);
}

uint64_t PipelinedChannel::submit(Opcode op, ByteView payload,
                                  const RequestExt& ext) {
  if (dead_) throw NetworkError(death_reason_);
  try {
    if (!sock_) sock_.emplace(Socket::connect(endpoint_.host, endpoint_.port));
  } catch (const NetworkError& e) {
    die(e.what());
  }
  Bytes frame = encode_request_frame(op, payload, ext);
  outbuf_.insert(outbuf_.end(), frame.begin(), frame.end());
  return next_ticket_++;
}

void PipelinedChannel::flush() {
  if (dead_) throw NetworkError(death_reason_);
  if (outbuf_.empty()) return;
  try {
    sock_->send_all(outbuf_);
  } catch (const NetworkError& e) {
    die(e.what());
  }
  outbuf_.clear();
}

PipelinedChannel::Response PipelinedChannel::read_one(
    uint64_t deadline_hint_ms) {
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
  Response resp;
  resp.opcode = fh.opcode;
  resp.payload.resize(fh.payload_length);
  if (fh.payload_length > 0) {
    sock_->recv_all(resp.payload.data(), resp.payload.size());
  }
  return resp;
}

PipelinedChannel::Response PipelinedChannel::await(uint64_t ticket,
                                                   uint64_t deadline_hint_ms) {
  if (dead_) throw NetworkError(death_reason_);
  auto it = parked_.find(ticket);
  if (it != parked_.end()) {
    Response resp = std::move(it->second);
    parked_.erase(it);
    return resp;
  }
  if (ticket < next_response_ || ticket >= next_ticket_) {
    throw NetworkError("channel: ticket " + std::to_string(ticket) +
                       " is not in flight");
  }
  flush();
  for (;;) {
    Response resp;
    try {
      resp = read_one(deadline_hint_ms);
    } catch (const NetworkError& e) {
      // The stream position is lost; the error keeps its type, so a
      // FrameTooLargeError stays distinguishable from a dropped link.
      poison(e.what());
      throw;
    }
    uint64_t answered = next_response_++;
    if (answered == ticket) return resp;
    parked_.emplace(answered, std::move(resp));
  }
}

ChannelPool::ChannelPool(Endpoint endpoint, size_t max_frame_bytes,
                         int recv_timeout_ms)
    : endpoint_(std::move(endpoint)),
      max_frame_bytes_(max_frame_bytes),
      recv_timeout_ms_(recv_timeout_ms) {}

ChannelPool::Lease ChannelPool::acquire() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    while (!idle_.empty()) {
      std::shared_ptr<PipelinedChannel> ch = std::move(idle_.back());
      idle_.pop_back();
      if (!ch->dead()) return Lease(std::move(ch), this);
    }
  }
  return Lease(std::make_shared<PipelinedChannel>(endpoint_, max_frame_bytes_,
                                                  recv_timeout_ms_),
               this);
}

void ChannelPool::release(std::shared_ptr<PipelinedChannel> ch) {
  if (ch->dead() || ch->in_flight() > 0) return;  // drop the carcass
  std::lock_guard<std::mutex> lk(mu_);
  idle_.push_back(std::move(ch));
}

}  // namespace wre::net
