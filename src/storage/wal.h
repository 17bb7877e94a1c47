// Write-ahead log: segmented redo log with group commit and crash recovery.
//
// The engine's durability story before this file was "checkpoint on
// SIGTERM": a crash lost every acknowledged write since the last flush. The
// WAL closes that hole with the canonical redo-log design (MariaDB/InnoDB
// shape, scaled to this engine's single-writer discipline):
//
//   * Physical redo, page-image grained. A commit carries the after-image of
//     every page dirtied since the previous commit, the resulting extent
//     (page count) of each touched file, and — when it changed — the SQL
//     catalog. Replay is pure last-writer-wins redo: applying any committed
//     prefix of the log in order reproduces exactly that committed state, so
//     recovery is idempotent and restartable (a crash *during* recovery just
//     replays again).
//
//   * No-steal buffering upstream (BufferPool refuses to evict or flush
//     pages whose changes are not yet durably logged — including pages in
//     a commit group still awaiting its fsync; WalCommitRequest::on_durable
//     ends that window), so the data files never contain unlogged
//     mutations. Together: log-before-data, the WAL invariant.
//
//   * Group commit. commit() enqueues a pre-encoded batch and returns a
//     CommitHandle; a dedicated log-writer thread drains every queued batch,
//     writes them with one fdatasync, and releases all their waiters. A
//     writer that releases the engine's write lock before waiting overlaps
//     its fsync with the next writer's work — the fsync batches across
//     concurrent bulk-ingest sessions.
//
//   * Segmented on-disk format. Records are CRC32C-framed and
//     length-prefixed; segments rotate at a configurable size so checkpoint
//     truncation is file deletion, not rewriting. A torn or bit-flipped tail
//     fails its CRC (or its length prefix overruns the file) and recovery
//     discards everything from the first invalid byte onward — a corrupt
//     record is never replayed, and neither is anything after it.
//
// On-disk format (all integers little-endian):
//   segment file  wal-NNNNNN.log := header record*
//   header        "WREWAL01" (8 bytes) | u64 segment_seq
//   record        u32 crc32c(body) | u32 body_len | body
//   body          u8 type | payload
//   kPageImage    u16 name_len | name | u32 page_no | u32 len | page bytes
//   kFileExtent   u16 name_len | name | u32 page_count
//   kCatalog      u32 len | catalog text
//   kCommit       u64 commit_seq | u32 records_in_batch
//
// File identity is the file's basename relative to the database directory,
// so a recovered log replays onto a copied/moved directory unchanged.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/page.h"
#include "src/util/bytes.h"

namespace wre::storage {

struct WalOptions {
  /// Rotate to a fresh segment once the current one exceeds this.
  uint64_t segment_bytes = 16ull << 20;
  /// fdatasync every group (true for durability; tests may disable to
  /// isolate logic from I/O latency).
  bool fsync = true;
};

enum class WalRecordType : uint8_t {
  kPageImage = 1,
  kFileExtent = 2,
  kCatalog = 3,
  kCommit = 4,
};

/// After-image of one page, addressed by file basename.
struct WalPageImage {
  std::string file;  // basename within the database directory
  PageNumber page = 0;
  Bytes data;  // exactly kPageSize bytes
};

/// Committed size of one file, applied by ftruncate during replay so
/// uncommitted physical extensions disappear.
struct WalFileExtent {
  std::string file;
  PageNumber page_count = 0;
};

/// One durability unit: everything a single engine mutation dirtied.
struct WalCommitRequest {
  std::vector<WalPageImage> pages;
  std::vector<WalFileExtent> extents;
  std::optional<std::string> catalog;  // present iff the catalog changed
  /// Invoked on the log-writer thread after this batch's group fdatasync
  /// completes, strictly before the CommitHandle becomes ready. Never
  /// invoked if the write or sync fails. The engine uses it to end the
  /// batch's no-steal window (BufferPool::wal_durable): only once the
  /// records are durable may the pages reach the data files. Must not
  /// throw.
  std::function<void()> on_durable;
};

struct WalStats {
  uint64_t commits = 0;          // commit() calls accepted
  uint64_t records = 0;          // records appended (incl. commit markers)
  uint64_t fsyncs = 0;           // fdatasync calls on segment files
  uint64_t groups = 0;           // write+sync rounds (== batches flushed)
  uint64_t max_group = 0;        // largest commit count in one round
  uint64_t segments_created = 0;
  uint64_t bytes_appended = 0;
};

struct WalRecoveryStats {
  uint64_t segments_scanned = 0;
  uint64_t commits_applied = 0;
  uint64_t pages_replayed = 0;
  uint64_t extents_applied = 0;
  uint64_t catalogs_replayed = 0;
  uint64_t bytes_scanned = 0;
  /// Records after the last commit marker, discarded (never acknowledged).
  uint64_t uncommitted_records_discarded = 0;
  /// True if a CRC mismatch, impossible length, or short frame was found;
  /// everything from that byte on was discarded.
  bool tail_truncated = false;
};

/// Waitable acknowledgement of one commit(). Default-constructed handles are
/// immediately ready (the non-durable no-op). wait() rethrows the log
/// writer's failure, so a caller never acknowledges a write the log lost.
class CommitHandle {
 public:
  CommitHandle() = default;
  /// Blocks until the commit's group is durable (records + fdatasync).
  void wait() const {
    if (fut_.valid()) fut_.get();
  }

 private:
  friend class Wal;
  explicit CommitHandle(std::shared_future<void> fut) : fut_(std::move(fut)) {}
  std::shared_future<void> fut_;
};

class Wal {
 public:
  /// Opens the log in `dir` (created if absent) and starts the log-writer
  /// thread. Call recover() on the directory first: construction begins a
  /// fresh segment after any existing ones but never replays them.
  explicit Wal(std::string dir, WalOptions options = {});

  /// Drains pending commits (completing their handles), then stops.
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Crash recovery, run before opening a database: scans `wal_dir`,
  /// replays every committed batch onto the files in `data_dir` (creating
  /// them as needed), fsyncs the results, then deletes all segments. A
  /// missing or empty `wal_dir` is a no-op. Throws StorageError only on
  /// environmental failure (unwritable data files); log corruption is not
  /// an error — it marks the truncation point.
  static WalRecoveryStats recover(const std::string& wal_dir,
                                  const std::string& data_dir);

  /// Enqueues one commit for the group-commit thread. The returned handle
  /// becomes ready once the batch and its commit marker are durable.
  /// Thread-safe. Throws StorageError if the log is broken (a previous
  /// write failed): the engine must not acknowledge writes it cannot log.
  CommitHandle commit(WalCommitRequest request);

  /// commit() + wait().
  void commit_sync(WalCommitRequest request) { commit(std::move(request)).wait(); }

  /// Queue barrier: blocks until every commit enqueued before this call is
  /// durable and has run its on_durable callback. Checkpoint needs this
  /// before flushing data pages — a commit whose group fsync is still in
  /// flight has frames inside their no-steal window, and truncating the log
  /// while skipping them would lose the acknowledged batch. Throws
  /// StorageError if the log is broken.
  void sync();

  /// Checkpoint truncation: deletes every segment and starts a fresh one.
  /// Caller contract: every committed record is already reflected in
  /// fsync'd data files (Database::checkpoint guarantees this). Pending
  /// uncommitted batches survive — they are written to the fresh segment.
  void truncate_all();

  /// Bytes in live segments — the replay bound a crash right now would pay.
  uint64_t live_bytes() const;

  WalStats stats() const;

  const std::string& dir() const { return dir_; }

 private:
  struct Pending {
    Bytes encoded;  // framed records, commit marker last
    uint64_t commits = 1;
    std::function<void()> on_durable;  // see WalCommitRequest
    std::promise<void> done;
  };

  void writer_loop();
  void flush_group(std::vector<Pending>& group);
  void open_fresh_segment();  // requires io_mu_
  void write_fully(const uint8_t* data, size_t len);  // requires io_mu_

  std::string dir_;
  WalOptions options_;

  // Queue state (mu_/cv_): producers enqueue, the writer thread drains.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool broken_ = false;  // a log write failed; all later commits fail fast

  // Segment I/O state, serialized between the writer thread and
  // truncate_all() by io_mu_.
  mutable std::mutex io_mu_;
  int fd_ = -1;
  uint64_t segment_seq_ = 0;
  uint64_t segment_bytes_written_ = 0;
  uint64_t next_commit_seq_ = 1;  // guarded by mu_

  uint64_t live_bytes_ = 0;  // guarded by mu_
  WalStats stats_;           // guarded by mu_

  std::thread writer_;
};

}  // namespace wre::storage
