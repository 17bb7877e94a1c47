#include "src/net/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>

#include "src/core/transport.h"
#include "src/sql/parser.h"

namespace wre::net {

namespace {

/// epoll user-data tags for the two non-connection descriptors; Conn
/// pointers are never 0 or 1.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Bytes pulled off one socket per readiness event, so one firehose
/// client cannot starve the rest of the loop (level-triggered epoll
/// re-reports whatever is left).
constexpr size_t kReadBudgetBytes = 256u << 10;

/// A kExecSql payload (one length-prefixed string) parsed into its
/// statement. Malformed SQL throws its SqlError here, before the request
/// takes a lock or a dedup claim.
sql::Statement parse_exec_sql(ByteView payload) {
  WireReader r(payload);
  std::string sql = r.string();
  r.expect_end();
  return sql::parse_statement(sql);
}

/// Whether executing this request can change database state: the requests
/// the idempotency cache must dedup, and the ones that take the write
/// lock. Decided once per request. `stmt` is a kExecSql request's parsed
/// statement: a SELECT (EXPLAIN included) reads, any other statement
/// writes.
bool request_mutates(Opcode op, const sql::Statement* stmt) {
  switch (op) {
    case Opcode::kInsertBatch:
    case Opcode::kCreateTable:
    case Opcode::kCreateIndex:
      return true;
    case Opcode::kExecSql:
      return !std::holds_alternative<sql::SelectStmt>(*stmt);
    default:
      return false;
  }
}

}  // namespace

Server::Server(sql::Database& db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      listener_(options_.host, options_.port),
      dedup_(options_.dedup) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  draining_.store(false);
  drain_started_ = false;
  unsigned workers = options_.worker_threads;
  if (workers == 0) {
    workers = std::max(4u, std::thread::hardware_concurrency());
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    running_.store(false);
    throw NetworkError("server: failed to create event-loop descriptors");
  }
  pool_ = std::make_unique<util::ThreadPool>(workers);
  event_thread_ = std::thread([this] { event_loop(); });
  if (options_.checkpoint_interval_ms > 0) {
    checkpoint_thread_ = std::thread([this] { checkpoint_loop(); });
  }
}

void Server::checkpoint_loop() {
  std::unique_lock<std::mutex> lk(checkpoint_mu_);
  const auto interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  while (!draining_.load()) {
    if (checkpoint_cv_.wait_for(lk, interval,
                                [this] { return draining_.load(); })) {
      break;
    }
    try {
      // Shared, not unique: checkpoint only needs writers excluded (they
      // hold db_mu_ exclusively); concurrent reads keep flowing.
      std::shared_lock db_lock(db_mu_);
      db_.checkpoint();
      checkpoints_.fetch_add(1);
    } catch (const std::exception&) {
      // A failed checkpoint is not fatal: the WAL still holds everything,
      // so durability is unaffected — only the replay bound grows.
    }
  }
}

void Server::stop() {
  if (!running_.load()) return;
  draining_.store(true);
  checkpoint_cv_.notify_all();
  if (checkpoint_thread_.joinable()) checkpoint_thread_.join();
  wake_event_thread();
  // The event thread accepts connections already in the backlog, closes
  // the listener, finishes every request already sent, flushes the
  // responses, closes every connection, then exits.
  if (event_thread_.joinable()) event_thread_.join();
  listener_.close();  // already closed unless the event loop failed
  // Workers may still be finishing requests whose connections died; the
  // pool destructor drains them (their completions go nowhere).
  pool_.reset();
  conns_.clear();
  lru_.clear();
  doomed_.clear();
  {
    std::lock_guard<std::mutex> lk(completions_mu_);
    completions_.clear();
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  running_.store(false);
}

void Server::wake_event_thread() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void Server::add_listener() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) == 0) {
    listener_registered_ = true;
  }
}

void Server::pause_accept() {
  if (listener_registered_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_registered_ = false;
  }
  accept_resume_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(accept_backoff_ms_);
  accept_backoff_ms_ = std::min(accept_backoff_ms_ * 2, 200u);
}

void Server::event_loop() {
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  }
  add_listener();

  std::vector<epoll_event> events(128);
  while (true) {
    if (draining_.load(std::memory_order_acquire) && !drain_started_) {
      begin_drain();
    }
    for (uint64_t id : doomed_) conns_.erase(id);
    doomed_.clear();
    if (drain_started_ && conns_.empty()) break;

    if (!listener_registered_ && !drain_started_ &&
        std::chrono::steady_clock::now() >= accept_resume_) {
      add_listener();
    }

    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd itself is broken: the server is unusable
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.u64 == kListenerTag) {
        accept_ready();
        continue;
      }
      if (ev.data.u64 == kWakeTag) {
        uint64_t v;
        while (::read(wake_fd_, &v, sizeof(v)) > 0) {
        }
        drain_completions();
        continue;
      }
      Conn* c = static_cast<Conn*>(ev.data.ptr);
      if (c->dead) continue;
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        kill_conn(c);
        continue;
      }
      if (ev.events & EPOLLOUT) conn_writable(c);
      if (c->dead) continue;
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) conn_readable(c);
    }
    drain_completions();
    reap_idle();
  }
}

int Server::next_timeout_ms() const {
  using std::chrono::duration_cast;
  using std::chrono::milliseconds;
  const auto now = std::chrono::steady_clock::now();
  long best = -1;
  if (options_.read_timeout_ms > 0 && !lru_.empty()) {
    auto deadline = lru_.front()->last_activity +
                    milliseconds(options_.read_timeout_ms);
    best = std::max(0L,
                    static_cast<long>(
                        duration_cast<milliseconds>(deadline - now).count()) +
                        1);
  }
  if (!listener_registered_ && !drain_started_) {
    long ms = std::max(
        0L, static_cast<long>(
                duration_cast<milliseconds>(accept_resume_ - now).count()) +
                1);
    best = best < 0 ? ms : std::min(best, ms);
  }
  if (drain_started_) {
    // Completions arrive via the eventfd; this is only a backstop.
    best = best < 0 ? 100 : std::min(best, 100L);
  }
  if (best < 0) return -1;
  return static_cast<int>(std::min(best, 60000L));
}

bool Server::accept_ready() {
  // Bounded burst per readiness event; level-triggered epoll re-reports
  // whatever is still pending.
  for (int burst = 0; burst < 64; ++burst) {
    Socket sock;
    Listener::AcceptStatus st;
    try {
      st = listener_.try_accept(&sock);
    } catch (const NetworkError&) {
      accept_retries_.fetch_add(1);
      pause_accept();
      return false;
    }
    switch (st) {
      case Listener::AcceptStatus::kAccepted: {
        accept_backoff_ms_ = 1;
        sessions_accepted_.fetch_add(1);
        // Admission control: past the cap, shedding with a retryable error
        // is kinder than queueing — the client backs off instead of timing
        // out.
        if (options_.max_connections > 0 &&
            live_sessions_.load() >= options_.max_connections) {
          shed_connection(std::move(sock),
                          "server: at capacity (" +
                              std::to_string(options_.max_connections) +
                              " connections); retry after backoff");
          continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->id = next_conn_id_.fetch_add(1);
        conn->sock = std::move(sock);
        conn->counted = true;
        live_sessions_.fetch_add(1);
        register_conn(std::move(conn));
        continue;
      }
      case Listener::AcceptStatus::kWouldBlock:
        return false;
      case Listener::AcceptStatus::kRetryLater:
        // Transient failure (ECONNABORTED storm, injected fault): the one
        // thing the accept path must never do is hot-spin or die. Pause
        // the listener briefly; pending connections park in the backlog.
        accept_retries_.fetch_add(1);
        pause_accept();
        return false;
      case Listener::AcceptStatus::kFdExhausted: {
        accept_retries_.fetch_add(1);
        if (reserve_.held()) {
          // Briefly release the reserve fd so accept() has a slot to land
          // in, shed the pending connection with a proactive overload
          // frame, and take the reserve back — instead of leaving the peer
          // parked in the backlog while we back off.
          reserve_.release();
          Socket pending;
          if (listener_.try_accept(&pending) ==
              Listener::AcceptStatus::kAccepted) {
            sessions_accepted_.fetch_add(1);
            shed_connection(
                std::move(pending),
                "server: out of file descriptors; retry after backoff");
          }
          reserve_.reacquire();
        }
        pause_accept();
        return false;
      }
      case Listener::AcceptStatus::kClosed:
        if (listener_registered_) {
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
          listener_registered_ = false;
        }
        return false;
    }
  }
  return true;
}

void Server::shed_connection(Socket sock, const std::string& reason) {
  sessions_shed_.fetch_add(1);
  try {
    OverloadedError e(reason);
    Frame f = error_frame(e);
    Bytes frame = encode_frame(f.opcode, f.payload);
    // Best effort on a non-blocking socket: the ~60-byte frame virtually
    // always fits a fresh socket buffer in one call.
    size_t off = 0;
    for (int spin = 0; off < frame.size() && spin < 8; ++spin) {
      ssize_t n = sock.send_some(
          ByteView(frame.data() + off, frame.size() - off));
      if (n < 0) break;
      off += static_cast<size_t>(n);
    }
  } catch (const std::exception&) {
    // Peer already gone — it was going to learn about the shed either way.
  }
  // Socket closes on return; the client sees the error frame, then EOF.
}

void Server::register_conn(std::unique_ptr<Conn> conn) {
  Conn* c = conn.get();
  c->last_activity = std::chrono::steady_clock::now();
  lru_.push_back(c);
  c->lru_it = std::prev(lru_.end());
  conns_.emplace(c->id, std::move(conn));
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.ptr = c;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c->sock.fd(), &ev) != 0) {
    kill_conn(c);
    return;
  }
  c->registered = true;
  c->interest = EPOLLIN | EPOLLRDHUP;
}

void Server::touch(Conn* c) {
  c->last_activity = std::chrono::steady_clock::now();
  lru_.splice(lru_.end(), lru_, c->lru_it);
}

void Server::kill_conn(Conn* c) {
  if (c->dead) return;
  c->dead = true;
  if (c->registered) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->sock.fd(), nullptr);
    c->registered = false;
  }
  c->sock.close();
  lru_.erase(c->lru_it);
  if (c->counted) {
    live_sessions_.fetch_sub(1);
    c->counted = false;
  }
  // A connection with a request in flight stays in conns_ until the
  // completion arrives (the worker still reads its request); everything
  // else is erased at the end of the current event batch.
  if (!c->request) doomed_.push_back(c->id);
}

bool Server::wants_input(const Conn* c) const {
  if (c->saw_eof || c->read_done) return false;
  // A drain reads until the socket holds nothing more; after a framing
  // fault input is dropped until the peer closes. Otherwise, backpressure:
  // a connection is not read while its next frame waits whole in inbuf.
  if (drain_started_ || c->close_after_flush) return true;
  RequestHead head;
  try {
    return !next_frame(c, &head);
  } catch (const NetworkError&) {
    return false;  // the bytes in hand already show a framing fault
  }
}

void Server::update_interest(Conn* c) {
  if (c->dead || !c->registered) return;
  uint32_t want = 0;
  // EPOLLRDHUP goes with EPOLLIN, or a half-closed peer would busy-wake
  // the loop while its buffered requests execute.
  if (wants_input(c)) want |= EPOLLIN | EPOLLRDHUP;
  if (c->outbuf_off < c->outbuf.size()) want |= EPOLLOUT;
  if (want == c->interest) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = c;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->sock.fd(), &ev) == 0) {
    c->interest = want;
  }
}

void Server::conn_readable(Conn* c) {
  if (c->dead) return;
  uint8_t buf[64 * 1024];
  size_t budget = kReadBudgetBytes;
  bool got_any = false;
  while (budget > 0 && wants_input(c)) {
    ssize_t n;
    try {
      n = c->sock.recv_some(buf, std::min(sizeof(buf), budget));
    } catch (const NetworkError&) {
      kill_conn(c);  // peer reset (or injected fault): nothing to answer
      return;
    }
    if (n < 0) {  // EAGAIN: drained the socket
      c->read_done = drain_started_;
      break;
    }
    if (n == 0) {
      c->saw_eof = true;
      break;
    }
    budget -= static_cast<size_t>(n);
    if (c->close_after_flush) continue;  // dropped, and not activity
    got_any = true;
    c->inbuf.insert(c->inbuf.end(), buf, buf + n);
  }
  if (got_any) touch(c);
  advance(c);
}

void Server::conn_writable(Conn* c) {
  if (c->dead) return;
  touch(c);  // the peer is consuming its response: that is activity
  advance(c);
}

void Server::advance(Conn* c) {
  flush_outbuf(c);
  if (c->dead) return;
  if (!c->request && c->outbuf.empty()) {
    serve_next(c);
    flush_outbuf(c);
    if (c->dead) return;
    if (!c->request && c->outbuf.empty()) {
      if (c->saw_eof || c->read_done) {
        // Nothing more will arrive. A peer that hung up mid-frame closes
        // silently.
        kill_conn(c);
        return;
      }
      if (c->close_after_flush && !c->write_shut) {
        // The framing-fault error is sent: the peer now reads EOF.
        ::shutdown(c->sock.fd(), SHUT_WR);
        c->write_shut = true;
      }
    }
  }
  update_interest(c);
}

bool Server::next_frame(const Conn* c, RequestHead* head) const {
  const ByteView in(c->inbuf.data() + c->inbuf_off,
                    c->inbuf.size() - c->inbuf_off);
  return decode_request_head(in, options_.max_frame_bytes, head) &&
         in.size() - kRequestHeadBytes >= head->payload_length;
}

void Server::serve_next(Conn* c) {
  if (c->close_after_flush) return;
  RequestHead head;
  try {
    if (!next_frame(c, &head)) return;
  } catch (const NetworkError& e) {
    // Bad magic, version, length or extension: answered without a worker,
    // always with kNetwork (an oversized length included), which makes the
    // client drop the channel. The stream position past the bad bytes is
    // unrecoverable, so the connection then closes (advance).
    protocol_errors_.fetch_add(1);
    Frame f = error_frame(NetworkError(e.what()));
    c->outbuf = encode_frame(f.opcode, f.payload);
    c->close_after_flush = true;
    c->inbuf.clear();
    c->inbuf_off = 0;
    return;
  }
  const uint8_t* payload = c->inbuf.data() + c->inbuf_off + kRequestHeadBytes;
  c->request.emplace(Request{head.opcode, head.ext,
                             Bytes(payload, payload + head.payload_length)});
  c->inbuf_off += kRequestHeadBytes + head.payload_length;
  if (c->inbuf_off == c->inbuf.size()) {
    c->inbuf.clear();
    c->inbuf_off = 0;
  } else if (c->inbuf_off > kReadBudgetBytes) {
    c->inbuf.erase(c->inbuf.begin(),
                   c->inbuf.begin() + static_cast<long>(c->inbuf_off));
    c->inbuf_off = 0;
  }
  // The pool outlives the event thread (stop() joins the thread first),
  // so the submit always lands; the request lives in the connection,
  // which kill_conn keeps until the completion arrives.
  const Request* req = &*c->request;
  pool_->submit([this, id = c->id, req] {
    Completion comp{id, process_request(*req)};
    {
      std::lock_guard<std::mutex> lk(completions_mu_);
      completions_.push_back(std::move(comp));
    }
    wake_event_thread();
  });
}

void Server::drain_completions() {
  std::vector<Completion> ready;
  {
    std::lock_guard<std::mutex> lk(completions_mu_);
    ready.swap(completions_);
  }
  for (Completion& comp : ready) {
    auto it = conns_.find(comp.conn_id);
    if (it == conns_.end()) continue;
    Conn* c = it->second.get();
    c->request.reset();
    if (c->dead) {
      // Killed mid-request; its erase was deferred until now.
      doomed_.push_back(c->id);
      continue;
    }
    // A request starts only once the previous response is flushed, so
    // outbuf is empty here.
    c->outbuf = std::move(comp.frame);
    frames_served_.fetch_add(1);
    touch(c);
    advance(c);
  }
}

void Server::flush_outbuf(Conn* c) {
  if (c->dead) return;
  while (c->outbuf_off < c->outbuf.size()) {
    ByteView rest(c->outbuf.data() + c->outbuf_off,
                  c->outbuf.size() - c->outbuf_off);
    ssize_t n;
    try {
      n = c->sock.send_some(rest);
    } catch (const NetworkError&) {
      kill_conn(c);  // peer is gone; nothing to flush
      return;
    }
    if (n < 0) return;  // kernel buffer full: resume on EPOLLOUT
    c->outbuf_off += static_cast<size_t>(n);
  }
  c->outbuf.clear();
  c->outbuf_off = 0;
}

void Server::reap_idle() {
  if (options_.read_timeout_ms <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::milliseconds(options_.read_timeout_ms);
  while (!lru_.empty()) {
    Conn* c = lru_.front();
    if (now - c->last_activity < timeout) break;
    if (c->request) {
      // Mid-request is not idle: the timeout clocks gaps between requests.
      touch(c);
      continue;
    }
    kill_conn(c);
  }
}

void Server::begin_drain() {
  drain_started_ = true;
  // A connection still in the backlog is already open on the client's
  // side and may carry requests: accept it before the listener closes
  // (closing would reset it).
  while (accept_ready()) {
  }
  if (listener_registered_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listener_.fd(), nullptr);
    listener_registered_ = false;
  }
  listener_.close();
  // Final reads: every request already on the wire — including frames sent
  // back to back — gets parsed, executed and answered before the close.
  // Each connection is read until its socket has nothing buffered
  // (read_done), then answers its buffered frames one at a time. An idle
  // one closes right away (advance), so its client sees the close
  // promptly.
  std::vector<Conn*> all;
  all.reserve(conns_.size());
  for (auto& [id, conn] : conns_) all.push_back(conn.get());
  for (Conn* c : all) conn_readable(c);
}

Bytes Server::process_request(const Request& req) {
  // Effective deadline: the tighter of the server flag and what the client
  // says it is still willing to wait.
  uint32_t deadline_ms = options_.request_deadline_ms;
  if (req.ext.deadline_ms > 0 &&
      (deadline_ms == 0 || req.ext.deadline_ms < deadline_ms)) {
    deadline_ms = req.ext.deadline_ms;
  }
  Frame response;
  // The frame boundary is intact here: any failure — unknown opcode, a
  // payload that flunks bounds checks, SQL/storage errors from execution —
  // gets an error response and the session continues.
  try {
    if (!is_request_opcode(static_cast<uint8_t>(req.op))) {
      throw NetworkError("wire: unknown request opcode " +
                         std::to_string(static_cast<int>(req.op)));
    }
    std::optional<sql::Statement> parsed;
    if (req.op == Opcode::kExecSql) parsed = parse_exec_sql(req.payload);
    const sql::Statement* stmt = parsed ? &*parsed : nullptr;
    if (request_mutates(req.op, stmt)) {
      // Exactly-once: first arrival executes and records; a retry of
      // the same key replays the recorded response. A request shed
      // before execution (OverloadedError) aborts its claim instead —
      // "never ran" must stay retryable, not become a cached error.
      // The key is scoped by tenant: replaying (or poisoning) another
      // tenant's key is structurally impossible.
      DedupKey dkey{req.ext.tenant_id, req.ext.key};
      Frame cached;
      if (!dedup_.begin(dkey, &cached)) {
        response = std::move(cached);
      } else {
        try {
          response = handle_request(req.op, req.payload, stmt, deadline_ms);
          dedup_.complete(dkey, response);
        } catch (const OverloadedError&) {
          dedup_.abort(dkey);
          throw;
        } catch (const std::exception& e) {
          // Deterministic failure (bad SQL, duplicate PK, decode
          // error): record it so a retry replays the same error
          // instead of executing twice.
          response = error_frame(e);
          dedup_.complete(dkey, response);
          if (dynamic_cast<const NetworkError*>(&e) != nullptr) {
            protocol_errors_.fetch_add(1);
          }
        }
      }
    } else {
      response = handle_request(req.op, req.payload, stmt, deadline_ms);
    }
  } catch (const OverloadedError& e) {
    // A shed request is load, not a protocol violation.
    response = error_frame(e);
  } catch (const FrameTooLargeError& e) {
    // A SELECT stopped once its response passed the frame limit: the
    // request's answer (kFrameTooLarge), not a protocol violation.
    response = error_frame(e);
  } catch (const NetworkError& e) {
    protocol_errors_.fetch_add(1);
    response = error_frame(e);
  } catch (const std::exception& e) {
    response = error_frame(e);
  }
  // A response larger than a frame may carry fails its request for good:
  // running it again yields the same rows. It is answered with a
  // deterministic error, never kOverloaded, so the client does not retry.
  // A SELECT never gets here oversized (execute_select_wire stops at the
  // limit); this holds the line for every other response.
  if (response.payload.size() > response_limit()) {
    response = error_frame(FrameTooLargeError(
        "server: response payload of " +
        std::to_string(response.payload.size()) + " bytes exceeds the " +
        std::to_string(response_limit()) + "-byte frame limit"));
  }
  return encode_frame(response.opcode, response.payload);
}

size_t Server::response_limit() const {
  return std::min(options_.max_frame_bytes, kMaxFramePayloadBytes);
}

Frame Server::error_frame(const std::exception& e) {
  WireWriter w;
  w.u16(static_cast<uint16_t>(status_code_for(e)));
  w.string(e.what());
  return Frame{Opcode::kError, std::move(w.bytes())};
}

// Deadline-bounded acquisition is a polled try_lock loop rather than
// try_lock_for: libstdc++ implements the latter via glibc's
// pthread_rwlock_clock{rd,wr}lock, which ThreadSanitizer does not
// intercept, so a successful timed acquisition would record no
// happens-before edge and every access under the lock would be reported
// as a race. Deadlines are millisecond-granular; a 100 µs poll costs
// noise against that while keeping the lock visible to the sanitizer.
template <class Lock>
Lock Server::lock_db(uint32_t deadline_ms) {
  if (deadline_ms == 0) return Lock(db_mu_);
  Lock lock(db_mu_, std::try_to_lock);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  while (!lock.owns_lock() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    (void)lock.try_lock();
  }
  if (!lock.owns_lock()) {
    deadline_rejects_.fetch_add(1);
    throw OverloadedError("server: request shed — database busy past the " +
                          std::to_string(deadline_ms) + " ms deadline");
  }
  return lock;
}

void Server::write_and_commit(uint32_t deadline_ms,
                              const std::function<void()>& write) {
  storage::CommitHandle commit;
  {
    auto lock = lock_db<UniqueDbLock>(deadline_ms);
    write();
    commit = db_.commit_async();
  }
  // Group commit: wait AFTER releasing the write lock, so the next
  // writer's work (and its commit) overlaps this fsync — the log writer
  // batches every queued commit into one sync.
  commit.wait();
}

Frame Server::handle_request(Opcode op, ByteView payload,
                             const sql::Statement* stmt,
                             uint32_t deadline_ms) {
  WireReader r(payload);
  WireWriter w;
  switch (op) {
    case Opcode::kPing: {
      r.expect_end();
      return Frame{Opcode::kOkPong, {}};
    }
    case Opcode::kExecSql: {
      // A SELECT encodes its response straight from the heap records or
      // column segment; no sql::Row is built on the server.
      if (const auto* select = std::get_if<sql::SelectStmt>(stmt)) {
        auto lock = lock_db<SharedDbLock>(deadline_ms);
        Bytes payload;
        db_.execute_select_wire(*select, &payload, response_limit());
        return Frame{Opcode::kOkResult, std::move(payload)};
      }
      sql::ResultSet rs;
      write_and_commit(deadline_ms, [&] { rs = db_.execute(*stmt); });
      encode_result_set(rs, w);
      return Frame{Opcode::kOkResult, std::move(w.bytes())};
    }
    case Opcode::kInsertBatch: {
      std::string table = r.string();
      uint32_t nrows = r.u32();
      if (nrows > r.remaining() / 4) {  // each row carries a u32 arity
        throw NetworkError("wire: insert row count overruns frame");
      }
      std::vector<sql::Row> rows;
      rows.reserve(nrows);
      for (uint32_t i = 0; i < nrows; ++i) rows.push_back(r.row());
      r.expect_end();
      std::vector<int64_t> ids;
      write_and_commit(deadline_ms,
                       [&] { ids = db_.insert_batch(table, rows); });
      w.u32(static_cast<uint32_t>(ids.size()));
      for (int64_t id : ids) w.i64(id);
      return Frame{Opcode::kOkIds, std::move(w.bytes())};
    }
    case Opcode::kCreateTable: {
      std::string table = r.string();
      sql::Schema schema = r.schema();
      r.expect_end();
      write_and_commit(deadline_ms,
                       [&] { db_.create_table(table, std::move(schema)); });
      return Frame{Opcode::kOkUnit, {}};
    }
    case Opcode::kCreateIndex: {
      std::string table = r.string();
      std::string column = r.string();
      r.expect_end();
      write_and_commit(deadline_ms, [&] { db_.create_index(table, column); });
      return Frame{Opcode::kOkUnit, {}};
    }
    case Opcode::kHasTable: {
      std::string table = r.string();
      r.expect_end();
      auto lock = lock_db<SharedDbLock>(deadline_ms);
      w.u8(db_.has_table(table) ? 1 : 0);
      return Frame{Opcode::kOkBool, std::move(w.bytes())};
    }
    case Opcode::kRowCount: {
      std::string table = r.string();
      r.expect_end();
      auto lock = lock_db<SharedDbLock>(deadline_ms);
      w.u64(db_.table(table).row_count());
      return Frame{Opcode::kOkCount, std::move(w.bytes())};
    }
    case Opcode::kTableSchema: {
      std::string table = r.string();
      r.expect_end();
      auto lock = lock_db<SharedDbLock>(deadline_ms);
      w.schema(db_.table(table).schema());
      return Frame{Opcode::kOkSchema, std::move(w.bytes())};
    }
    case Opcode::kTagScan: {
      // The prepared multi-probe path: the tag list becomes the IN
      // predicate AST directly — a 10k-tag WRE search never round-trips
      // through SQL text on the server.
      std::string table = r.string();
      std::string tag_column = r.string();
      bool star = r.u8() != 0;
      uint32_t ntags = r.u32();
      if (ntags > r.remaining() / 8) {
        throw NetworkError("wire: tag count overruns frame");
      }
      std::vector<uint64_t> tags(ntags);
      for (uint64_t& tag : tags) tag = r.u64();
      r.expect_end();
      sql::SelectStmt stmt = core::tag_scan_stmt(table, tag_column, tags, star);
      auto lock = lock_db<SharedDbLock>(deadline_ms);
      Bytes payload;
      db_.execute_select_wire(stmt, &payload, response_limit());
      return Frame{Opcode::kOkResult, std::move(payload)};
    }
    case Opcode::kScanTable: {
      // A table scan is SELECT * with no predicate.
      sql::SelectStmt star_stmt;
      star_stmt.star = true;
      star_stmt.table = r.string();
      r.expect_end();
      auto lock = lock_db<SharedDbLock>(deadline_ms);
      Bytes payload;
      db_.execute_select_wire(star_stmt, &payload, response_limit());
      return Frame{Opcode::kOkResult, std::move(payload)};
    }
    default:
      throw NetworkError("wire: opcode " + std::string(opcode_name(op)) +
                         " is not a request");
  }
}

}  // namespace wre::net
