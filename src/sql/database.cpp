#include "src/sql/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "src/columnar/store_manager.h"
#include "src/sql/parser.h"
#include "src/util/error.h"

namespace wre::sql {

namespace {

constexpr const char* kCatalogFile = "catalog.wre";

ValueType type_from_name(const std::string& t) {
  if (t == "INTEGER") return ValueType::kInt64;
  if (t == "TEXT") return ValueType::kText;
  if (t == "BLOB") return ValueType::kBlob;
  throw SqlError("catalog: unknown type " + t);
}

std::string basename_of(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::optional<std::pair<std::string, std::vector<Value>>>
extract_single_column_disjunction(const Expr& expr) {
  std::string column;
  std::vector<Value> values;

  // Walk the tree; only OR / Equals / In nodes over one column qualify.
  auto walk = [&](const Expr& e, auto&& self) -> bool {
    switch (e.kind) {
      case Expr::Kind::kEquals:
      case Expr::Kind::kIn:
        if (column.empty()) {
          column = e.column;
        } else if (column != e.column) {
          return false;
        }
        values.insert(values.end(), e.values.begin(), e.values.end());
        return true;
      case Expr::Kind::kOr:
        return std::all_of(e.children.begin(), e.children.end(),
                           [&](const Expr& c) { return self(c, self); });
      case Expr::Kind::kAnd:
        return false;
    }
    return false;
  };

  if (!walk(expr, walk) || column.empty()) return std::nullopt;
  return std::make_pair(std::move(column), std::move(values));
}

Database::Database(std::string dir, DatabaseOptions options)
    : dir_(std::move(dir)) {
  // Crash recovery runs first, before any file is opened: a leftover WAL
  // means the previous (durable) instance died without checkpointing, and
  // its committed batches must reach the data files before the catalog and
  // tables are read. This happens even when this open is non-durable — the
  // log's committed writes were acknowledged and must not be lost.
  recovery_stats_ = storage::Wal::recover(dir_ + "/wal", dir_);

  pool_ = std::make_unique<storage::BufferPool>(disk_,
                                                options.buffer_pool_pages);
  if (options.durability) {
    storage::WalOptions wal_opts;
    wal_opts.fsync = options.wal_fsync;
    wal_ = std::make_unique<storage::Wal>(dir_ + "/wal", wal_opts);
    pool_->set_wal_tracking(true);
  }
  load_catalog();
  if (options.columnar) set_columnar_enabled(true);
}

Database::~Database() {
  if (wal_ != nullptr) {
    try {
      checkpoint();
    } catch (const Error&) {
      // Unflushed committed state stays in the WAL; the next open replays.
    }
  }
}

void Database::set_columnar_enabled(bool on) {
  columnar_enabled_ = on;
  if (on && columnar_mgr_ == nullptr) {
    columnar_mgr_ = std::make_unique<columnar::ColumnStoreManager>();
  }
}

Table& Database::create_table(const std::string& name, Schema schema) {
  std::string lowered = to_lower(name);
  if (tables_.contains(lowered)) {
    throw SqlError("table already exists: " + lowered);
  }
  auto table =
      std::make_unique<Table>(*pool_, dir_, lowered, std::move(schema));
  Table& ref = *table;
  tables_.emplace(lowered, std::move(table));
  save_catalog();
  return ref;
}

void Database::create_index(const std::string& table_name,
                            const std::string& column) {
  table(table_name).create_index(column);
  save_catalog();
}

Table& Database::table(const std::string& name) {
  auto it = tables_.find(to_lower(name));
  if (it == tables_.end()) throw SqlError("unknown table: " + name);
  return *it->second;
}

bool Database::has_table(const std::string& name) const {
  return tables_.contains(to_lower(name));
}

std::vector<int64_t> Database::insert_batch(const std::string& table_name,
                                            const std::vector<Row>& rows) {
  return table(table_name).insert_batch(rows);
}

ResultSet Database::execute(std::string_view sql) {
  return execute(parse_statement(sql));
}

ResultSet Database::execute(const Statement& stmt) {
  return std::visit(
      [&](auto&& s) -> ResultSet {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, CreateTableStmt>) {
          create_table(s.table, Schema(s.columns));
          return ResultSet{};
        } else if constexpr (std::is_same_v<T, CreateIndexStmt>) {
          create_index(s.table, s.column);
          return ResultSet{};
        } else if constexpr (std::is_same_v<T, InsertStmt>) {
          return execute_insert(s);
        } else {
          return execute_select(s);
        }
      },
      stmt);
}

ResultSet Database::execute_insert(const InsertStmt& stmt) {
  Table& t = table(stmt.table);
  for (const Row& row : stmt.rows) {
    t.insert(row);
  }
  ResultSet rs;
  rs.rows_affected = stmt.rows.size();
  return rs;
}

namespace {

/// A WHERE clause with every column resolved to its schema position once
/// per query, evaluated on a record's encoded cells with sql_equals
/// semantics: NULL and cross-type probes never match.
class BoundExpr {
 public:
  BoundExpr(const Expr& expr, const Schema& schema)
      : kind_(expr.kind), values_(&expr.values) {
    switch (expr.kind) {
      case Expr::Kind::kEquals:
      case Expr::Kind::kIn: {
        auto idx = schema.index_of(expr.column);
        if (!idx) {
          throw SqlError("unknown column in WHERE clause: " + expr.column);
        }
        column_ = *idx;
        return;
      }
      case Expr::Kind::kAnd:
      case Expr::Kind::kOr:
        children_.reserve(expr.children.size());
        for (const Expr& c : expr.children) children_.emplace_back(c, schema);
        return;
    }
  }

  /// `cells` holds one view per schema column (Schema::split_record).
  bool matches(const CellView* cells) const {
    switch (kind_) {
      case Expr::Kind::kEquals:
      case Expr::Kind::kIn:
        return std::any_of(
            values_->begin(), values_->end(),
            [&](const Value& v) { return cells[column_].sql_equals(v); });
      case Expr::Kind::kAnd:
        return std::all_of(
            children_.begin(), children_.end(),
            [&](const BoundExpr& c) { return c.matches(cells); });
      case Expr::Kind::kOr:
        return std::any_of(
            children_.begin(), children_.end(),
            [&](const BoundExpr& c) { return c.matches(cells); });
    }
    return false;
  }

 private:
  Expr::Kind kind_;
  const std::vector<Value>* values_;  // the statement's; it outlives this
  size_t column_ = 0;
  std::vector<BoundExpr> children_;
};

/// Resolves the SELECT list to column positions, appending the output
/// column names to `names`. COUNT(*) yields an empty projection.
std::vector<size_t> resolve_projection(const SelectStmt& stmt,
                                       const Schema& schema,
                                       std::vector<std::string>* names) {
  std::vector<size_t> projection;
  if (stmt.star) {
    for (size_t i = 0; i < schema.column_count(); ++i) {
      projection.push_back(i);
      names->push_back(schema.column(i).name);
    }
  } else if (!stmt.count_star) {
    for (const auto& name : stmt.columns) {
      auto idx = schema.index_of(name);
      if (!idx) throw SqlError("unknown column in SELECT list: " + name);
      projection.push_back(*idx);
      names->push_back(schema.column(*idx).name);
    }
  } else {
    names->push_back("count(*)");
  }
  return projection;
}

/// The planner's probe choice:
///  1. the whole WHERE is a single-column disjunction -> probe it (the
///     caller still checks the column is indexed);
///  2. WHERE is a conjunction with at least one indexed such child ->
///     probe the child with the fewest values and recheck the full
///     predicate (`*whole_predicate` = false);
///  3. otherwise no probe -> scan.
std::optional<std::pair<std::string, std::vector<Value>>> choose_probe(
    const SelectStmt& stmt, const Table& t, bool* whole_predicate) {
  *whole_predicate = true;
  if (!stmt.where) return std::nullopt;
  auto probe = extract_single_column_disjunction(*stmt.where);
  if (!probe && stmt.where->kind == Expr::Kind::kAnd) {
    for (const Expr& child : stmt.where->children) {
      auto candidate = extract_single_column_disjunction(child);
      if (!candidate || !t.has_index(candidate->first)) continue;
      if (!probe || candidate->second.size() < probe->second.size()) {
        probe = std::move(candidate);
      }
    }
    *whole_predicate = false;
  }
  return probe;
}

/// One SELECT's plan, built once per statement. EXPLAIN renders it and
/// execute_plan runs it, so what EXPLAIN reports is what runs.
struct SelectPlan {
  enum class Access {
    kIndexOnly,   // probe the index; the pks are the answer
    kIndexFetch,  // probe, then fetch and recheck each row
    kScan,        // no usable probe: scan the table
  };

  const SelectStmt* stmt = nullptr;
  const Table* table = nullptr;
  std::vector<std::string> columns;
  std::vector<size_t> projection;
  /// The projection is every column in order: a heap record is then
  /// byte for byte the body of its wire row.
  bool whole_record = false;
  std::optional<BoundExpr> where;
  uint64_t limit = UINT64_MAX;

  Access access = Access::kScan;
  std::string probe_column;
  size_t probe_terms = 0;            // probe values as written (EXPLAIN)
  std::vector<Value> probe_values;   // sorted, deduplicated
  bool residual = false;             // the probe covers only part of WHERE

  /// Non-null when the column store serves this table (DESIGN.md §5.9):
  /// it then runs the scan outright, and the record fetch of index plans.
  columnar::ColumnStoreManager* columnar = nullptr;
};

SelectPlan make_plan(const SelectStmt& stmt, const Table& t,
                     columnar::ColumnStoreManager* columnar) {
  const Schema& schema = t.schema();
  SelectPlan p;
  p.stmt = &stmt;
  p.table = &t;
  p.columnar = columnar;
  // Plan-time validation: every column the predicate names must exist,
  // even if the plan never evaluates it (e.g. empty tables).
  if (stmt.where) p.where.emplace(*stmt.where, schema);
  p.projection = resolve_projection(stmt, schema, &p.columns);
  if (stmt.explain) p.columns = {"plan"};
  p.whole_record = p.projection.size() == schema.column_count();
  for (size_t i = 0; i < p.projection.size() && p.whole_record; ++i) {
    p.whole_record = p.projection[i] == i;
  }
  p.limit = stmt.limit.value_or(UINT64_MAX);

  bool whole_predicate = true;
  auto probe = choose_probe(stmt, t, &whole_predicate);
  if (!probe || !t.has_index(probe->first)) return p;

  p.probe_column = std::move(probe->first);
  p.probe_terms = probe->second.size();
  p.residual = !whole_predicate;
  // Deduplicate probe values so `x = 1 OR x = 1` probes once.
  p.probe_values = std::move(probe->second);
  std::sort(p.probe_values.begin(), p.probe_values.end());
  p.probe_values.erase(
      std::unique(p.probe_values.begin(), p.probe_values.end()),
      p.probe_values.end());

  // An index probe never needs the heap when the projection touches only
  // the primary-key column (or COUNT(*)). Text-keyed indexes are
  // hash-reduced to 64 bits, so an index-only answer carries a ~2^-64
  // per-pair false-positive probability — the same trade a production
  // hash index makes; projections that materialize rows recheck exactly.
  // A conjunction's residual predicates require the row, so index-only
  // answers are possible only when the probe covers the whole WHERE.
  auto pk_col = schema.primary_key_index();
  const bool pk_only =
      !stmt.star && pk_col.has_value() &&
      std::all_of(p.projection.begin(), p.projection.end(),
                  [&](size_t i) { return i == *pk_col; });
  p.access = (pk_only || stmt.count_star) && whole_predicate
                 ? SelectPlan::Access::kIndexOnly
                 : SelectPlan::Access::kIndexFetch;
  return p;
}

std::string explain(const SelectPlan& p) {
  const SelectStmt& stmt = *p.stmt;
  std::string plan;
  if (p.access != SelectPlan::Access::kScan) {
    plan = "multi-probe index scan on " + stmt.table + " using index(" +
           p.probe_column + "), " + std::to_string(p.probe_terms) +
           " probe(s)";
    if (p.access == SelectPlan::Access::kIndexOnly) {
      plan += ", index-only";
    }
    if (p.residual) plan += ", recheck residual predicate";
    if (p.access == SelectPlan::Access::kIndexFetch && p.columnar) {
      plan += ", columnar materialization";
    }
  } else {
    plan = (p.columnar ? "columnar scan on " : "sequential scan on ") +
           stmt.table;
    if (stmt.where) plan += ", filter";
  }
  if (stmt.limit) plan += ", limit " + std::to_string(*stmt.limit);
  return plan;
}

/// What one execution did: the matched-row count and the executor
/// counters ResultSet reports.
struct ExecStats {
  uint64_t rows = 0;  // rows matched within LIMIT (COUNT(*)'s answer)
  uint64_t index_probes = 0;
  uint64_t heap_fetches = 0;
  uint64_t columnar_rows = 0;
  bool used_index = false;
  bool used_columnar = false;
};

/// The executor's row sink: appends each result row in ResultSet's wire
/// layout (u32 cell count, then the cells in Value::wire_encode layout).
/// Heap records and their cells are copied as they are stored — that
/// layout is the wire layout. It takes over `*out`'s bytes and appends
/// after them; the body (what it appends) passing `max_body` bytes stops
/// the query with FrameTooLargeError.
class WireRows {
 public:
  WireRows(const SelectPlan& p, Bytes* out, size_t max_body)
      : plan_(&p), max_body_(max_body) {
    bytes.swap(*out);
    base_ = bytes.size();
  }

  Bytes bytes;

  /// Where the body starts in `bytes`.
  size_t base() const { return base_; }

  void pk(int64_t pk) {
    store_le32(bytes, static_cast<uint32_t>(plan_->projection.size()));
    for (size_t i = 0; i < plan_->projection.size(); ++i) {
      bytes.push_back(static_cast<uint8_t>(ValueType::kInt64));
      store_le64(bytes, static_cast<uint64_t>(pk));
    }
    check_size();
  }
  void record(const CellView* cells, ByteView record) {
    store_le32(bytes, static_cast<uint32_t>(plan_->projection.size()));
    if (plan_->whole_record) {
      append(bytes, record);
    } else {
      for (size_t idx : plan_->projection) append(bytes, cells[idx].encoded());
    }
    check_size();
  }
  void segment_rows(const columnar::TableSegment& seg,
                    const columnar::Selection& sel) {
    seg.wire_encode_rows(sel, plan_->projection, &bytes);
    check_size();
  }
  void value(const Value& v) {
    store_le32(bytes, 1);
    v.wire_encode(bytes);
    check_size();
  }

  void check_size() const {
    if (bytes.size() - base_ > max_body_) {
      throw FrameTooLargeError("select: response passed the " +
                               std::to_string(max_body_) +
                               "-byte frame limit");
    }
  }

 private:
  const SelectPlan* plan_;
  size_t max_body_;
  size_t base_ = 0;
};

/// Probe phase: the matching pks, sorted and unique.
std::vector<int64_t> probe_pks(const SelectPlan& p, ExecStats& st) {
  std::vector<int64_t> pks;
  for (const Value& v : p.probe_values) {
    if (v.is_null()) continue;
    ++st.index_probes;
    auto matches = p.table->probe_index(p.probe_column, v);
    pks.insert(pks.end(), matches.begin(), matches.end());
  }
  std::sort(pks.begin(), pks.end());
  pks.erase(std::unique(pks.begin(), pks.end()), pks.end());
  return pks;
}

/// Runs `p` (not EXPLAIN), writing result rows to `sink` — none for
/// COUNT(*), whose answer is the returned `rows`.
ExecStats execute_plan(const SelectPlan& p, WireRows& sink) {
  const SelectStmt& stmt = *p.stmt;
  const Table& t = *p.table;
  const Schema& schema = t.schema();
  const bool emit = !stmt.count_star;
  ExecStats st;

  std::vector<CellView> cells(schema.column_count());
  // Fetches the record of `pk` from the heap, rechecks the predicate on
  // its encoded cells and emits it — no Row, no record copy.
  auto fetch = [&](int64_t pk) {
    t.visit_by_pk(pk, [&](ByteView record) {
      schema.split_record(record, cells.data());
      ++st.heap_fetches;
      if (!p.where->matches(cells.data())) return;
      ++st.rows;
      if (emit) sink.record(cells.data(), record);
    });
  };
  // Index-only plans never read rows, so they leave the segment alone: a
  // snapshot would make it catch up with every insert.
  std::shared_ptr<const columnar::TableSegment> seg =
      p.columnar != nullptr && p.access != SelectPlan::Access::kIndexOnly
          ? p.columnar->snapshot(t)
          : nullptr;

  if (p.access == SelectPlan::Access::kScan) {
    if (seg != nullptr) {
      // Columnar scan: one vectorized predicate pass over the compressed
      // columns yields the selection vector (ascending row positions =
      // heap order, the sequential scan's emission order); only selected
      // rows are materialized, and COUNT(*) materializes none at all.
      st.used_columnar = true;
      if (stmt.count_star && !stmt.where) {
        st.rows = std::min<uint64_t>(seg->row_count(), p.limit);
        return st;
      }
      columnar::Selection sel =
          stmt.where ? seg->select(*stmt.where) : seg->select_all();
      if (sel.size() > p.limit) sel.resize(p.limit);
      st.rows = sel.size();
      if (emit) {
        st.columnar_rows = sel.size();
        sink.segment_rows(*seg, sel);
      }
      return st;
    }
    // Sequential scan in heap order. The heap scan has no early-exit
    // channel; a LIMIT that is hit simply stops emitting.
    t.scan_records([&](ByteView record) {
      if (st.rows >= p.limit) return;
      schema.split_record(record, cells.data());
      if (p.where && !p.where->matches(cells.data())) return;
      ++st.heap_fetches;
      ++st.rows;
      if (emit) sink.record(cells.data(), record);
    });
    return st;
  }

  st.used_index = true;
  const std::vector<int64_t> pks = probe_pks(p, st);

  if (p.access == SelectPlan::Access::kIndexOnly) {
    for (int64_t pk : pks) {
      if (st.rows >= p.limit) break;
      ++st.rows;
      if (emit) sink.pk(pk);
    }
  } else if (seg != nullptr) {
    // Record fetch from the column segment: binary-search each pk, recheck
    // the predicate on the compressed columns, and materialize the
    // survivors' projected cells in one pass, in pk order.
    st.used_columnar = true;
    columnar::Selection sel;
    auto flush = [&] {
      if (emit && !sel.empty()) {
        st.columnar_rows += sel.size();
        sink.segment_rows(*seg, sel);
      }
      sel.clear();
    };
    for (int64_t pk : pks) {
      if (st.rows >= p.limit) break;
      auto row_pos = seg->row_of_pk(pk);
      if (!row_pos) {
        // Defensive only: a fresh segment contains every indexed pk.
        flush();
        fetch(pk);
        continue;
      }
      if (!seg->row_matches(*stmt.where, *row_pos)) continue;  // recheck
      ++st.rows;
      sel.push_back(*row_pos);
    }
    flush();
  } else {
    for (int64_t pk : pks) {
      if (st.rows >= p.limit) break;
      fetch(pk);
    }
  }
  return st;
}

/// Runs `stmt` against `t` and appends its answer in wire form to `*out`
/// (Database::execute_select_wire's contract), returning what the run did.
ExecStats write_select(const SelectStmt& stmt, const Table& t,
                       columnar::ColumnStoreManager* columnar, Bytes* out,
                       size_t max_bytes) {
  const SelectPlan plan = make_plan(stmt, t, columnar);
  // The rows go straight into `*out`, between the envelope's head and its
  // counter trailer.
  WireRows sink(plan, out, max_bytes);
  ExecStats st;
  try {
    const size_t count_at = begin_result_body(plan.columns, sink.bytes);
    uint64_t rows = 1;
    if (stmt.explain) {
      sink.value(Value::text(explain(plan)));
    } else {
      st = execute_plan(plan, sink);
      if (stmt.count_star) {
        sink.value(Value::int64(static_cast<int64_t>(st.rows)));
      } else {
        rows = st.rows;
      }
    }
    ResultSet counters;
    counters.index_probes = st.index_probes;
    counters.heap_fetches = st.heap_fetches;
    counters.used_index = st.used_index;
    end_result_body(count_at, static_cast<uint32_t>(rows), counters,
                    sink.bytes);
    sink.check_size();
  } catch (...) {
    sink.bytes.resize(sink.base());
    sink.bytes.swap(*out);
    throw;
  }
  sink.bytes.swap(*out);
  return st;
}

}  // namespace

columnar::ColumnStoreManager* Database::columnar_store() const {
  return columnar_enabled_ ? columnar_mgr_.get() : nullptr;
}

ResultSet Database::execute_select(const SelectStmt& stmt) {
  Bytes body;
  const ExecStats st = write_select(stmt, table(stmt.table), columnar_store(),
                                    &body, SIZE_MAX);
  size_t pos = 0;
  ResultSet rs = ResultSet::wire_decode(body, pos);
  rs.used_columnar = st.used_columnar;
  rs.columnar_rows = st.columnar_rows;
  return rs;
}

void Database::execute_select_wire(const SelectStmt& stmt, Bytes* out,
                                   size_t max_bytes) {
  write_select(stmt, table(stmt.table), columnar_store(), out, max_bytes);
}

void Database::clear_cache() {
  // Under WAL, clear_cache's flush would push unlogged mutations into the
  // data files; commit first so log-before-data holds. The barrier also
  // waits out earlier in-flight commit groups (a concurrent writer may
  // still be waiting on its handle outside the write lock), whose frames
  // are no-steal until their fsync lands.
  if (wal_ != nullptr) {
    commit();
    wal_->sync();
  }
  pool_->clear_cache();
  // Cold means cold: the next columnar scan rebuilds its segment from the
  // (now uncached) heap, mirroring the paper's drop_caches procedure.
  if (columnar_mgr_ != nullptr) columnar_mgr_->drop_all();
}

storage::CommitHandle Database::commit_async() {
  if (wal_ == nullptr) return {};

  storage::WalCommitRequest req;
  auto dirty = pool_->collect_wal_dirty();
  std::set<storage::FileId> touched;
  req.pages.reserve(dirty.images.size());
  for (auto& [id, bytes] : dirty.images) {
    touched.insert(id.file);
    req.pages.push_back(storage::WalPageImage{
        basename_of(disk_.file_path(id.file)), id.page, std::move(bytes)});
  }
  // Extents let replay ftruncate away uncommitted physical growth: the heap
  // scan trusts the file's page count, so a crash between allocate_page and
  // commit must not leave phantom pages behind.
  for (storage::FileId f : touched) {
    req.extents.push_back(storage::WalFileExtent{
        basename_of(disk_.file_path(f)), disk_.page_count(f)});
  }
  bool had_catalog = catalog_dirty_;
  if (catalog_dirty_) {
    req.catalog = catalog_text();
    catalog_dirty_ = false;
  }
  if (req.pages.empty() && req.extents.empty() && !req.catalog.has_value()) {
    return {};  // nothing to make durable; handle is already ready
  }
  // The collected frames stay no-steal until the log-writer reports this
  // batch's group fsync complete — callers wait on the handle outside the
  // write lock, so concurrent reads (and their evictions) overlap the
  // pending fsync. The pool outlives the WAL (member order), so the
  // callback's pool pointer is valid for every writer-thread invocation.
  storage::BufferPool* pool = pool_.get();
  uint64_t epoch = dirty.epoch;
  req.on_durable = [pool, epoch] { pool->wal_durable(epoch); };
  try {
    return wal_->commit(std::move(req));
  } catch (...) {
    // Nothing was enqueued: the images are unlogged again. Re-mark the
    // frames (and the catalog) so they stay no-steal and a later commit
    // re-collects them.
    pool_->wal_abort(epoch);
    catalog_dirty_ = had_catalog || catalog_dirty_;
    throw;
  }
}

void Database::commit() { commit_async().wait(); }

void Database::checkpoint() {
  if (wal_ == nullptr) {
    pool_->flush_all();
    return;
  }
  // Fuzzy checkpoint: (1) pending mutations become durable in the log,
  // (2) every committed page reaches its data file, (3) the data files and
  // catalog are fsync'd, and only then (4) the log is truncated. A crash
  // between any two steps recovers correctly: before (4) the log still
  // holds everything, and replay is idempotent.
  //
  // The barrier after commit() is load-bearing: commit() only waits for
  // THIS call's batch (and waits for nothing when nothing is newly dirty),
  // but a concurrent writer that released the write lock may still be
  // waiting on its own handle. Until that group's fdatasync lands, its
  // frames are no-steal — flush_all would skip them — yet its records live
  // in the segments step (4) deletes. sync() drains the queue, so by
  // flush_all every committed frame is flushable.
  commit();
  wal_->sync();
  pool_->flush_all();
  disk_.fsync_all();
  write_catalog_file(catalog_text());
  wal_->truncate_all();
}

uint64_t Database::data_size_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, t] : tables_) total += t->data_size_bytes();
  return total;
}

uint64_t Database::index_size_bytes() const {
  uint64_t total = 0;
  for (const auto& [name, t] : tables_) total += t->index_size_bytes();
  return total;
}

std::string Database::catalog_text() const {
  std::ostringstream out;
  for (const auto& [name, t] : tables_) {
    out << "table " << name << " " << t->schema().column_count() << "\n";
    for (const Column& c : t->schema().columns()) {
      out << "col " << c.name << " " << type_name(c.type) << " "
          << (c.primary_key ? 1 : 0) << "\n";
    }
    for (const std::string& col : t->indexed_columns()) {
      out << "index " << name << " " << col << "\n";
    }
  }
  return out.str();
}

void Database::write_catalog_file(const std::string& text) {
  // Atomic replace: write + fsync a sibling, rename over the target, fsync
  // the directory. A crash leaves either the old or the new catalog — never
  // a torn one.
  const std::string final_path = dir_ + "/" + kCatalogFile;
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc | std::ios::binary);
    if (!out) throw SqlError("cannot write catalog in " + dir_);
    out << text;
    out.flush();
    if (!out) throw SqlError("cannot write catalog in " + dir_);
  }
  int fd = ::open(tmp_path.c_str(), O_RDONLY);
  if (fd < 0) throw SqlError("cannot reopen catalog tmp in " + dir_);
  bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) throw SqlError("cannot fsync catalog in " + dir_);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw SqlError("cannot install catalog in " + dir_);
  }
  int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

void Database::save_catalog() {
  if (wal_ != nullptr) {
    // Deferred: the file write would be data-before-log. The next commit
    // carries the catalog text; checkpoint/recovery write the real file.
    catalog_dirty_ = true;
    return;
  }
  write_catalog_file(catalog_text());
}

void Database::load_catalog() {
  std::ifstream in(dir_ + "/" + kCatalogFile);
  if (!in) return;  // fresh database
  std::string word;
  while (in >> word) {
    if (word == "table") {
      std::string name;
      size_t ncols;
      in >> name >> ncols;
      std::vector<Column> cols;
      for (size_t i = 0; i < ncols; ++i) {
        std::string kw, cname, ctype;
        int pk;
        in >> kw >> cname >> ctype >> pk;
        if (kw != "col") throw SqlError("catalog: corrupt column entry");
        cols.push_back(Column{cname, type_from_name(ctype), pk != 0});
      }
      tables_.emplace(name, std::make_unique<Table>(*pool_, dir_, name,
                                                    Schema(std::move(cols))));
    } else if (word == "index") {
      std::string tname, col;
      in >> tname >> col;
      table(tname).attach_index(col);
    } else {
      throw SqlError("catalog: unknown entry " + word);
    }
  }
}

}  // namespace wre::sql
