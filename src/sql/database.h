// The embedded relational database: catalog, SQL entry point, planner and
// executor. This is the "legacy server" of the paper's deployment model —
// the WRE client talks to it exclusively through SQL text plus the generic
// table APIs, never through anything encryption-specific.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/sql/ast.h"
#include "src/sql/result_set.h"
#include "src/sql/table.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/disk_manager.h"
#include "src/storage/wal.h"

namespace wre::columnar {
class ColumnStoreManager;
}

namespace wre::sql {

/// Tuning and simulation knobs for a Database.
struct DatabaseOptions {
  /// Buffer-pool capacity in 4 KiB pages (default 64 MiB).
  size_t buffer_pool_pages = 16384;
  /// Write-ahead logging (DESIGN.md §5.5). When true, every mutation is
  /// buffered in memory until commit()/commit_async() logs its page
  /// after-images; a crash loses at most the uncommitted tail. Off by
  /// default: embedded experiments that never crash keep the old
  /// flush-on-checkpoint behaviour and pay zero logging cost.
  bool durability = false;
  /// fdatasync each commit group. Tests may disable to isolate logic from
  /// I/O latency; production durability requires true.
  bool wal_fsync = true;
  /// In-memory columnar ciphertext store (DESIGN.md §5.9). When true, full
  /// scans and non-indexed predicates run against dictionary-compressed
  /// column segments, and index-probe plans materialize selected rows from
  /// them instead of chasing the heap. Results stay byte-identical to the
  /// row path. A segment is built from the heap on first use; after
  /// inserts, the next query appends only the new rows to it as a tail
  /// chunk. Off by default.
  bool columnar = false;
};

/// An embedded relational database rooted at a directory.
///
/// Concurrency: any number of threads may run SELECTs concurrently (the
/// storage layer latches pages); each SELECT runs serially on its caller's
/// thread. Statements that write (CREATE/INSERT) or mutate cache state
/// (clear_cache, checkpoint, set_columnar_enabled) require exclusion from
/// all other calls — the engine's single-writer rule.
class Database {
 public:
  /// Opens (or creates) the database in `dir`. The directory must exist.
  /// Any leftover WAL from a crashed durable instance is replayed first
  /// (see recovery_stats()); then an existing catalog is reloaded,
  /// reattaching tables and indexes.
  explicit Database(std::string dir, DatabaseOptions options = {});

  /// Best-effort checkpoint when durable (storage errors are swallowed; a
  /// crash before the checkpoint lands is what the WAL is for).
  ~Database();

  /// Parses and executes one SQL statement.
  ResultSet execute(std::string_view sql);
  /// Executes one parsed statement.
  ResultSet execute(const Statement& stmt);

  /// Programmatic fast paths (used for bulk load; equivalent to SQL).
  Table& create_table(const std::string& name, Schema schema);
  void create_index(const std::string& table, const std::string& column);
  Table& table(const std::string& name);
  bool has_table(const std::string& name) const;

  /// Batched insert entry point (see Table::insert_batch): equivalent to one
  /// INSERT per row but with per-row parsing, heap-metadata and B+-tree
  /// descent costs amortized across the batch. Returns the primary keys.
  std::vector<int64_t> insert_batch(const std::string& table,
                                    const std::vector<Row>& rows);

  /// Executes a parsed SELECT (lets clients pre-build ASTs): runs
  /// execute_select_wire's plan into its wire bytes and decodes them with
  /// ResultSet::wire_decode, so a local answer and a remote one come from
  /// the same bytes through the same decoder. used_columnar and
  /// columnar_rows, which the wire form does not carry, come from the run.
  ResultSet execute_select(const SelectStmt& stmt);

  /// Runs a SELECT and appends its answer in wire form (ResultSet's layout,
  /// counters included) to `*out`. This is the executor's one output: no
  /// plan materializes a Row. Heap records are copied as stored (the
  /// record layout is the wire row layout, see Value::wire_encode), or cell
  /// by cell for a projection; columnar plans encode from the packed
  /// columns; index-only plans write the pks. On error it throws and
  /// leaves `*out` as it was. Same locking rules as any SELECT.
  /// `max_bytes` caps the appended bytes: the query stops with
  /// FrameTooLargeError as soon as they pass it, so an answer too large to
  /// send is never built in full.
  void execute_select_wire(const SelectStmt& stmt, Bytes* out,
                           size_t max_bytes = SIZE_MAX);

  /// Drops every cached page: the next query runs cold. Reproduces the
  /// paper's drop_caches + server-restart procedure.
  void clear_cache();

  /// Toggles the columnar scan path at runtime (requires write exclusion).
  /// Enabling creates the store manager on first use; disabling keeps
  /// built segments cached but stops routing to them.
  void set_columnar_enabled(bool on);

  /// The column store manager, or null when columnar was never enabled.
  /// Exposed for stats and tests.
  columnar::ColumnStoreManager* column_store() { return columnar_mgr_.get(); }

  /// Durability boundary (no-op unless opened with durability=true).
  /// Collects every page dirtied since the previous commit, enqueues one
  /// WAL batch, and returns a handle that becomes ready when the batch is
  /// fsync'd. Call under the engine's write exclusion; wait() on the handle
  /// AFTER releasing it so concurrent writers' fsyncs batch (group commit).
  /// A write must not be acknowledged before its handle is ready.
  storage::CommitHandle commit_async();

  /// commit_async() + wait.
  void commit();

  bool durable() const { return wal_ != nullptr; }
  storage::Wal* wal() { return wal_.get(); }

  /// What crash recovery replayed when this instance opened.
  const storage::WalRecoveryStats& recovery_stats() const {
    return recovery_stats_;
  }

  /// Flushes all dirty pages to disk. When durable, this is a full fuzzy
  /// checkpoint: commit pending mutations, flush + fsync the data files,
  /// write the catalog, then truncate the WAL — bounding the replay work a
  /// later crash would pay. Requires write exclusion (readers may proceed:
  /// flushing clean state does not mutate pages).
  void checkpoint();

  /// Heap bytes across all tables (the paper's "DB Size").
  uint64_t data_size_bytes() const;
  /// Index bytes across all tables ("DB + Indexes" minus data).
  uint64_t index_size_bytes() const;

  storage::BufferPool& buffer_pool() { return *pool_; }
  storage::DiskManager& disk() { return disk_; }

 private:
  void save_catalog();
  void load_catalog();
  std::string catalog_text() const;
  void write_catalog_file(const std::string& text);

  ResultSet execute_insert(const InsertStmt& stmt);
  /// The column store when it is enabled; null sends every plan to the row
  /// path.
  columnar::ColumnStoreManager* columnar_store() const;

  std::string dir_;
  storage::DiskManager disk_;
  std::unique_ptr<storage::BufferPool> pool_;
  std::unique_ptr<storage::Wal> wal_;  // null unless durability=true
  storage::WalRecoveryStats recovery_stats_;
  // Under WAL the catalog file write is deferred: save_catalog() marks this
  // and the next commit carries the catalog text in the log (log-before-
  // data applies to the catalog too). Checkpoint/recovery write the file.
  bool catalog_dirty_ = false;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::unique_ptr<columnar::ColumnStoreManager> columnar_mgr_;
  bool columnar_enabled_ = false;
};

/// If `expr` is a disjunction of equality/IN predicates on one single
/// column, returns (column, values); otherwise nullopt. This is the planner
/// pattern that turns WRE search queries into multi-probe index scans.
std::optional<std::pair<std::string, std::vector<Value>>>
extract_single_column_disjunction(const Expr& expr);

}  // namespace wre::sql
