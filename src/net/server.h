// wre_server's serving core: hosts one sql::Database behind an epoll event
// loop speaking the binary wire protocol (src/net/wire.h).
//
// Threading model (DESIGN.md §5.8):
//   - ONE event thread owns every socket: it runs epoll_wait over the
//     listener, a wakeup eventfd, and all connections (level-triggered,
//     non-blocking). Partial frame reads and writes are per-connection
//     state that resumes on readiness — no thread is ever parked on a
//     socket, so an idle or stalled client costs a few kilobytes, not a
//     worker;
//   - a small util::ThreadPool executes requests, so crypto/storage work
//     never blocks the event thread. A connection serves one request at a
//     time: the next frame is parsed only once the previous response has
//     been flushed, so a client that sends several frames back to back
//     gets its answers in the order it sent them — no sequence id needed;
//   - the engine's single-writer rule is enforced with a shared mutex:
//     statements that mutate (INSERT / CREATE / batched inserts) hold it
//     exclusively, everything else shares it, so concurrent WRE searches
//     from many clients proceed in parallel exactly like the in-process
//     concurrent read path (DESIGN.md §5.2).
//
// Fault tolerance (DESIGN.md §5.6):
//   - the accept loop survives transient accept() failures (ECONNABORTED
//     storms, injected faults) by pausing the listener briefly; on
//     EMFILE/ENFILE it releases a reserve fd to accept the pending
//     connection and shed it with a proactive kOverloaded frame instead of
//     hot-spinning while the peer hangs in the backlog;
//   - admission control: beyond max_connections live sessions, new
//     connections are shed with a retryable kOverloaded error frame;
//   - per-request deadlines (server flag and/or the request extension's
//     deadline) bound how long a request may wait for the database lock;
//     expiry sheds the request with kOverloaded *before* it executes;
//   - a DedupCache keyed by (tenant, idempotency key) replays recorded
//     responses for retried mutations, so a retry after a lost ACK cannot
//     double-apply (exactly-once ingest);
//   - a framing fault (anything but the one request form, wire.h) is
//     answered with a kNetwork error, then the session closes: the server
//     shuts its write side and drops input until the peer closes, so a
//     client still sending a refused frame reads the error, not a reset;
//   - backpressure: a connection stops being read while its next frame
//     sits whole in its input buffer, so it buffers at most one frame plus
//     one read budget. A client that never reads its responses stalls only
//     itself and is eventually idle-reaped.
//
// Shutdown (stop(), also wired to SIGTERM in wre_server): connections
// already in the accept backlog are accepted, then the listener closes.
// Every connection is read until its socket holds nothing more, so each
// request a client sent before the drain — including frames sent back to
// back — runs to completion and its response is flushed; idle
// connections close at once. Then the workers join.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/net/dedup_cache.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/sql/database.h"
#include "src/util/thread_pool.h"

namespace wre::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with Server::port().
  uint16_t port = 0;
  /// Request-execution worker threads (0 = one per hardware thread,
  /// floored at 4). Workers only run ready requests — connections live on
  /// the event thread — so the pool bounds CPU concurrency, not the number
  /// of connected clients.
  unsigned worker_threads = 0;
  /// Per-frame payload ceiling. Oversized requests are refused before their
  /// payload is read (the client gets a kNetwork error, then the session
  /// closes — the stream offset is unrecoverable past a bad header). A
  /// response over it is replaced by a kFrameTooLarge error, and the
  /// session continues.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Idle timeout per connection in milliseconds (0 = no timeout): a
  /// connection with no traffic for this long is closed by the event
  /// loop's timer sweep (the epoll replacement for SO_RCVTIMEO).
  int read_timeout_ms = 60000;
  /// Background checkpoint period in milliseconds (0 = disabled). Each tick
  /// runs Database::checkpoint() under a *shared* lock — that excludes
  /// writers (they hold the lock exclusively) while letting reads proceed —
  /// bounding how much WAL a crash would replay.
  uint32_t checkpoint_interval_ms = 0;
  /// Admission control: cap on live connections. 0 = unlimited.
  /// Connections beyond the cap are shed with a retryable kOverloaded
  /// error frame instead of silently queueing.
  size_t max_connections = 0;
  /// Server-side per-request deadline in milliseconds (0 = none): bounds
  /// how long a request may wait for the database lock before being shed
  /// with kOverloaded. The effective deadline is the tighter of this and
  /// the client's RequestExt deadline.
  uint32_t request_deadline_ms = 0;
  /// Bounds on the idempotency-key replay cache (see dedup_cache.h). The
  /// cache is keyed by (tenant id, idempotency key): one tenant's retries
  /// can never replay another tenant's recorded responses.
  DedupCache::Options dedup;
};

class Server {
 public:
  /// Binds immediately (so an ephemeral port is known) but serves nothing
  /// until start(). The database must outlive the server.
  Server(sql::Database& db, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Launches the event loop. Idempotent.
  void start();

  /// Graceful drain; see the header comment. Idempotent, thread-safe with
  /// respect to sessions (but call from one controlling thread).
  void stop();

  uint16_t port() const { return listener_.port(); }
  bool running() const { return running_.load(); }

  /// Monotonic counters, for tests and the server's exit report.
  uint64_t sessions_accepted() const { return sessions_accepted_.load(); }
  uint64_t frames_served() const { return frames_served_.load(); }
  uint64_t protocol_errors() const { return protocol_errors_.load(); }
  uint64_t checkpoints() const { return checkpoints_.load(); }
  /// Connections refused by admission control (max_connections) or shed
  /// under fd exhaustion.
  uint64_t sessions_shed() const { return sessions_shed_.load(); }
  /// Requests shed because a deadline expired before the lock was held.
  uint64_t deadline_rejects() const { return deadline_rejects_.load(); }
  /// Transient accept() failures survived by backoff-and-retry.
  uint64_t accept_retries() const { return accept_retries_.load(); }
  /// Mutations answered from the idempotency cache instead of re-executed.
  uint64_t dedup_hits() const { return dedup_.hits(); }
  /// Live connections right now (admission-control gauge).
  uint64_t live_sessions() const { return live_sessions_.load(); }

 private:
  /// One parsed request frame.
  struct Request {
    Opcode op = Opcode::kPing;
    RequestExt ext;
    Bytes payload;
  };

  /// Per-connection state machine, owned by the event thread.
  struct Conn {
    uint64_t id = 0;
    Socket sock;
    /// Unparsed received bytes (consumed from the front via `inbuf_off`).
    Bytes inbuf;
    size_t inbuf_off = 0;
    /// The request a worker is executing (read by that worker until its
    /// completion arrives). At most one per connection.
    std::optional<Request> request;
    /// The encoded response awaiting the socket (consumed via
    /// `outbuf_off`).
    Bytes outbuf;
    size_t outbuf_off = 0;
    /// Peer half-closed; answer the frames already buffered, then close.
    bool saw_eof = false;
    /// Framing fault: the stream is unrecoverable. Input is dropped from
    /// here on; once the error response is flushed the write side is shut,
    /// and the connection closes when the peer does.
    bool close_after_flush = false;
    /// The write side is shut (after a framing fault).
    bool write_shut = false;
    /// Draining: the socket was read until it had nothing more buffered;
    /// answer the frames already buffered, then close.
    bool read_done = false;
    /// Counted in live_sessions_ (shed connections are not).
    bool counted = false;
    /// Torn down mid-request; destroyed when the request completes.
    bool dead = false;
    /// Registered with epoll (deregistered when dead).
    bool registered = false;
    /// Last epoll event mask registered for this socket.
    uint32_t interest = 0;
    std::chrono::steady_clock::time_point last_activity;
    std::list<Conn*>::iterator lru_it;
  };

  /// One finished request, handed back to the event thread.
  struct Completion {
    uint64_t conn_id = 0;
    Bytes frame;  // the encoded response
  };

  void event_loop();
  void checkpoint_loop();

  // --- event-thread helpers (all run on the event thread only) ---
  /// Accepts a bounded burst; true when the burst ran out before the
  /// backlog did.
  bool accept_ready();
  void register_conn(std::unique_ptr<Conn> conn);
  void conn_readable(Conn* c);
  void conn_writable(Conn* c);
  /// Moves a connection on after any event: flushes its response and,
  /// once it is idle (no request in flight, nothing left to send), starts
  /// its next buffered frame or closes it.
  void advance(Conn* c);
  /// Whether the frame at the front of inbuf is all there; throws
  /// NetworkError for a framing fault.
  bool next_frame(const Conn* c, RequestHead* head) const;
  /// Hands the next buffered frame to a worker, or answers a framing
  /// fault; call only while the connection is idle.
  void serve_next(Conn* c);
  void flush_outbuf(Conn* c);
  bool wants_input(const Conn* c) const;
  void update_interest(Conn* c);
  void touch(Conn* c);
  void kill_conn(Conn* c);
  void drain_completions();
  void reap_idle();
  int next_timeout_ms() const;
  void begin_drain();
  void add_listener();
  void pause_accept();
  void wake_event_thread();
  /// Best-effort overload frame + close for a connection that will never
  /// be served (admission control / fd exhaustion).
  void shed_connection(Socket sock, const std::string& reason);

  // --- worker-side ---
  /// Executes one request end-to-end (dedup wrapper + handle_request) and
  /// returns the encoded response frame. Never throws. A response over the
  /// frame limit is answered with kFrameTooLarge instead.
  Bytes process_request(const Request& req);
  /// Decodes and executes one request frame; returns the response frame.
  /// `stmt` is a kExecSql request's statement, parsed once by
  /// process_request (null for every other opcode): a SELECT runs under
  /// the shared lock, any other statement through write_and_commit.
  /// `deadline_ms` (0 = none) bounds the db-lock wait; expiry throws
  /// OverloadedError before any state changes.
  Frame handle_request(Opcode op, ByteView payload,
                       const sql::Statement* stmt, uint32_t deadline_ms);
  /// Timed db_mu_ acquisition, shared or exclusive as `Lock` is a
  /// std::shared_lock or std::unique_lock; throws OverloadedError when the
  /// deadline passes first (and counts it in deadline_rejects_).
  using SharedDbLock = std::shared_lock<std::shared_timed_mutex>;
  using UniqueDbLock = std::unique_lock<std::shared_timed_mutex>;
  template <class Lock>
  Lock lock_db(uint32_t deadline_ms);
  /// The one write path: takes db_mu_ exclusively within the deadline,
  /// runs `write`, queues its commit, releases the lock, then waits until
  /// the commit is durable.
  void write_and_commit(uint32_t deadline_ms,
                        const std::function<void()>& write);
  static Frame error_frame(const std::exception& e);
  /// The largest response payload a frame carries to a client: the
  /// configured max_frame_bytes, or the u32 length field's limit.
  size_t response_limit() const;

  sql::Database& db_;
  ServerOptions options_;
  Listener listener_;
  ReserveFd reserve_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread event_thread_;
  std::thread checkpoint_thread_;
  std::mutex checkpoint_mu_;
  std::condition_variable checkpoint_cv_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  // Event-loop state (event thread only, except the completion queue).
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  bool drain_started_ = false;
  bool listener_registered_ = false;
  /// Accept backoff after transient failures (steady_clock; zero = none).
  std::chrono::steady_clock::time_point accept_resume_{};
  uint32_t accept_backoff_ms_ = 1;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  /// Connections in ascending last_activity order (uniform timeout makes
  /// strict LRU exact: touching always moves to the back).
  std::list<Conn*> lru_;
  /// Killed connections whose erase is deferred to the end of the current
  /// event batch (so stale epoll_event pointers stay dereferenceable).
  std::vector<uint64_t> doomed_;

  /// Worker -> event thread handoff.
  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Single-writer exclusion over db_ (see the threading model above).
  /// Timed so request deadlines can bound the wait (lock_db).
  std::shared_timed_mutex db_mu_;

  /// Idempotency-key replay cache (exactly-once retried mutations),
  /// keyed by (tenant, key).
  DedupCache dedup_;

  std::atomic<uint64_t> sessions_accepted_{0};
  std::atomic<uint64_t> frames_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> sessions_shed_{0};
  std::atomic<uint64_t> deadline_rejects_{0};
  std::atomic<uint64_t> accept_retries_{0};
  std::atomic<uint64_t> live_sessions_{0};
  std::atomic<uint64_t> next_conn_id_{0};
};

}  // namespace wre::net
