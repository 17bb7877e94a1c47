#include "src/sql/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "src/columnar/store_manager.h"
#include "src/sql/parser.h"
#include "src/util/error.h"

namespace wre::sql {

namespace {

constexpr const char* kCatalogFile = "catalog.wre";

/// Runs fn(0..n-1) on `pool` and blocks until all complete. Completion is
/// tracked per call (not via ThreadPool::wait_idle), so concurrent SELECTs
/// can share one pool without waiting on each other's tasks. The first
/// exception thrown by any task is rethrown here.
void run_tasks(util::ThreadPool& pool, size_t n,
               const std::function<void(size_t)>& fn) {
  std::mutex mu;
  std::condition_variable cv;
  size_t remaining = n;
  std::exception_ptr error;

  for (size_t i = 0; i < n; ++i) {
    pool.submit([&, i] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!error) error = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(mu);
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(mu);
  cv.wait(lk, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
}

/// Splits [0, n) into at most `max_slices` contiguous slices of near-equal
/// size; returns the slice boundaries (size() - 1 slices).
std::vector<size_t> slice_bounds(size_t n, size_t max_slices) {
  size_t slices = std::min(max_slices, n);
  if (slices == 0) slices = 1;
  std::vector<size_t> bounds;
  bounds.reserve(slices + 1);
  for (size_t s = 0; s <= slices; ++s) {
    bounds.push_back(n * s / slices);
  }
  return bounds;
}

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

bool eval_expr(const Expr& expr, const Schema& schema, const Row& row) {
  switch (expr.kind) {
    case Expr::Kind::kEquals:
    case Expr::Kind::kIn: {
      auto idx = schema.index_of(expr.column);
      if (!idx) throw SqlError("unknown column " + expr.column);
      const Value& cell = row[*idx];
      return std::any_of(expr.values.begin(), expr.values.end(),
                         [&](const Value& v) { return cell.sql_equals(v); });
    }
    case Expr::Kind::kAnd:
      return std::all_of(
          expr.children.begin(), expr.children.end(),
          [&](const Expr& c) { return eval_expr(c, schema, row); });
    case Expr::Kind::kOr:
      return std::any_of(
          expr.children.begin(), expr.children.end(),
          [&](const Expr& c) { return eval_expr(c, schema, row); });
  }
  throw SqlError("eval_expr: corrupt expression");
}

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

  disk_.set_read_latency_micros(options.read_latency_us);
  disk_.set_write_latency_micros(options.write_latency_us);
  pool_ = std::make_unique<storage::BufferPool>(disk_,
                                                options.buffer_pool_pages);
  if (options.durability) {
    storage::WalOptions wal_opts;
    wal_opts.segment_bytes = options.wal_segment_bytes;
    wal_opts.group_window_us = options.wal_group_window_us;
    wal_opts.fsync = options.wal_fsync;
    wal_ = std::make_unique<storage::Wal>(dir_ + "/wal", wal_opts);
    pool_->set_wal_tracking(true);
  }
  load_catalog();
  if (options.query_threads != 1) set_query_threads(options.query_threads);
  columnar_dict_max_ = options.columnar_dict_max;
  columnar_min_rows_ = options.columnar_min_rows;
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
    columnar::ColumnStoreOptions opt;
    opt.dict_max = columnar_dict_max_;
    opt.min_rows = columnar_min_rows_;
    columnar_mgr_ = std::make_unique<columnar::ColumnStoreManager>(opt);
  }
}

void Database::set_query_threads(unsigned n) {
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  query_threads_ = n;
  query_pool_.reset();
  if (n > 1) query_pool_ = std::make_unique<util::ThreadPool>(n);
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
  Statement stmt = parse_statement(sql);
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

// Plan-time validation: every column referenced by the predicate must exist,
// even if the scan never evaluates it (e.g. empty tables).
void validate_expr_columns(const Expr& expr, const Schema& schema) {
  switch (expr.kind) {
    case Expr::Kind::kEquals:
    case Expr::Kind::kIn:
      if (!schema.index_of(expr.column)) {
        throw SqlError("unknown column in WHERE clause: " + expr.column);
      }
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      for (const Expr& c : expr.children) validate_expr_columns(c, schema);
      return;
  }
}

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

/// The planner's probe choice, shared by execute_select and the wire fast
/// path so both agree on when a multi-probe index plan wins:
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

}  // namespace

ResultSet Database::execute_select(const SelectStmt& stmt) {
  Table& t = table(stmt.table);
  const Schema& schema = t.schema();
  if (stmt.where) validate_expr_columns(*stmt.where, schema);
  ResultSet rs;

  std::vector<size_t> projection =
      resolve_projection(stmt, schema, &rs.columns);

  uint64_t limit = stmt.limit.value_or(UINT64_MAX);
  uint64_t count = 0;

  auto emit_row = [&](int64_t pk, const Row* row) -> bool {
    // Returns false once the limit is reached.
    if (count >= limit) return false;
    ++count;
    if (stmt.count_star) return count < limit;
    Row out;
    out.reserve(projection.size());
    for (size_t idx : projection) {
      if (row == nullptr) {
        // Index-only path: the only projectable column is the primary key.
        out.push_back(Value::int64(pk));
      } else {
        out.push_back((*row)[idx]);
      }
    }
    rs.rows.push_back(std::move(out));
    return count < limit;
  };

  // Plan selection (see choose_probe): multi-probe index scan when the
  // predicate offers an indexed probe set, sequential/columnar scan
  // otherwise.
  bool probe_is_whole_predicate = true;
  std::optional<std::pair<std::string, std::vector<Value>>> probe =
      choose_probe(stmt, t, &probe_is_whole_predicate);

  // Columnar routing (DESIGN.md §5.9): with the store enabled and the
  // table above the size floor, a segment serves (a) the scan path
  // outright — vectorized predicate kernels + late materialization — and
  // (b) the record-fetch phase of index-probe plans, replacing the
  // pk-index descent + heap read + record decode per selected row.
  // Results are byte-identical to the row path in both uses: the scan
  // emits heap order like the sequential scan, the fetch emits sorted-pk
  // order like the serial fetch loop.
  const bool columnar_route =
      columnar_enabled_ && columnar_mgr_ != nullptr &&
      t.row_count() >= columnar_min_rows_;

  if (stmt.explain) {
    rs.columns = {"plan"};
    std::string plan;
    if (probe && t.has_index(probe->first)) {
      auto pk_col = schema.primary_key_index();
      bool pk_only =
          !stmt.star && pk_col.has_value() &&
          std::all_of(projection.begin(), projection.end(),
                      [&](size_t i) { return i == *pk_col; });
      bool idx_only =
          (pk_only || stmt.count_star) && probe_is_whole_predicate;
      plan = "multi-probe index scan on " + stmt.table + " using index(" +
             probe->first + "), " + std::to_string(probe->second.size()) +
             " probe(s)";
      if (idx_only) plan += ", index-only";
      if (!probe_is_whole_predicate) plan += ", recheck residual predicate";
      if (!idx_only && columnar_route) plan += ", columnar materialization";
    } else if (columnar_route) {
      plan = "columnar scan on " + stmt.table;
      if (stmt.where) plan += ", filter";
    } else {
      plan = "sequential scan on " + stmt.table;
      if (stmt.where) plan += ", filter";
    }
    if (stmt.limit) plan += ", limit " + std::to_string(*stmt.limit);
    rs.rows.push_back({Value::text(std::move(plan))});
    return rs;
  }

  if (probe && t.has_index(probe->first)) {
    rs.used_index = true;
    auto pk_col = schema.primary_key_index();

    // Deduplicate probe values so `x = 1 OR x = 1` probes once.
    std::vector<Value> values = probe->second;
    std::sort(values.begin(), values.end(), [](const Value& a, const Value& b) {
      return a.to_sql_literal() < b.to_sql_literal();
    });
    values.erase(std::unique(values.begin(), values.end()), values.end());

    // An index probe never needs the heap when the projection touches only
    // the primary-key column (or COUNT(*)). Text-keyed indexes are
    // hash-reduced to 64 bits, so an index-only answer carries a ~2^-64
    // per-pair false-positive probability — the same trade a production
    // hash index makes; projections that materialize rows recheck exactly.
    bool pk_only_projection =
        !stmt.star && pk_col.has_value() &&
        std::all_of(projection.begin(), projection.end(),
                    [&](size_t i) { return i == *pk_col; });
    // A conjunction's residual predicates require the row, so index-only
    // answers are possible only when the probe covers the whole WHERE.
    bool index_only =
        (pk_only_projection || stmt.count_star) && probe_is_whole_predicate;

    // Probe phase. With a worker pool the probes fan out in contiguous
    // value slices; each slice collects its own pks and probe count, and
    // the slice-ordered concatenation below feeds the same sort+unique as
    // the serial path — parallel and serial runs produce identical pk
    // lists. Below the threshold the fan-out overhead beats the win.
    constexpr size_t kMinItemsPerTask = 8;
    std::vector<int64_t> pks;
    if (query_pool_ && values.size() >= 2 * kMinItemsPerTask) {
      auto bounds = slice_bounds(values.size(), query_threads_);
      size_t slices = bounds.size() - 1;
      std::vector<std::vector<int64_t>> slice_pks(slices);
      std::vector<uint64_t> slice_probes(slices, 0);
      run_tasks(*query_pool_, slices, [&](size_t s) {
        for (size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
          const Value& v = values[i];
          if (v.is_null()) continue;
          ++slice_probes[s];
          auto matches = t.probe_index(probe->first, v);
          slice_pks[s].insert(slice_pks[s].end(), matches.begin(),
                              matches.end());
        }
      });
      for (size_t s = 0; s < slices; ++s) {
        rs.index_probes += slice_probes[s];
        pks.insert(pks.end(), slice_pks[s].begin(), slice_pks[s].end());
      }
    } else {
      for (const Value& v : values) {
        if (v.is_null()) continue;
        ++rs.index_probes;
        auto matches = t.probe_index(probe->first, v);
        pks.insert(pks.end(), matches.begin(), matches.end());
      }
    }
    std::sort(pks.begin(), pks.end());
    pks.erase(std::unique(pks.begin(), pks.end()), pks.end());

    if (index_only) {
      for (int64_t pk : pks) {
        if (!emit_row(pk, nullptr)) break;
      }
    } else if (std::shared_ptr<const columnar::TableSegment> seg =
                   columnar_route ? columnar_mgr_->snapshot(t) : nullptr) {
      // Record-fetch phase from the column segment: binary-search the pk,
      // recheck the predicate directly on the compressed columns, and
      // materialize only the projected cells of surviving rows. Same
      // sorted-pk emission order and limit semantics as the loops below.
      rs.used_columnar = true;
      for (int64_t pk : pks) {
        if (count >= limit) break;
        auto row_pos = seg->row_of_pk(pk);
        if (!row_pos) {
          // Defensive only: a fresh segment contains every indexed pk.
          auto row = t.find_by_pk(pk);
          if (!row) continue;
          ++rs.heap_fetches;
          if (!eval_expr(*stmt.where, schema, *row)) continue;
          if (!emit_row(pk, &*row)) break;
          continue;
        }
        if (!seg->row_matches(*stmt.where, *row_pos)) continue;  // recheck
        ++count;
        if (!stmt.count_star) {
          ++rs.columnar_rows;
          rs.rows.push_back(seg->materialize(*row_pos, projection));
        }
      }
    } else if (query_pool_ && limit == UINT64_MAX &&
               pks.size() >= 2 * kMinItemsPerTask) {
      // Record-fetch phase, parallel variant: materialize all rows first
      // (no LIMIT means every pk is needed), then recheck and emit in pk
      // order exactly as the serial loop would.
      std::vector<std::optional<Row>> fetched(pks.size());
      auto bounds = slice_bounds(pks.size(), query_threads_);
      run_tasks(*query_pool_, bounds.size() - 1, [&](size_t s) {
        for (size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
          fetched[i] = t.find_by_pk(pks[i]);
        }
      });
      for (size_t i = 0; i < pks.size(); ++i) {
        if (!fetched[i]) continue;  // cannot happen in the append-only engine
        ++rs.heap_fetches;
        if (!eval_expr(*stmt.where, schema, *fetched[i])) continue;  // recheck
        if (!emit_row(pks[i], &*fetched[i])) break;
      }
    } else {
      for (int64_t pk : pks) {
        auto row = t.find_by_pk(pk);
        if (!row) continue;  // cannot happen in the append-only engine
        ++rs.heap_fetches;
        if (!eval_expr(*stmt.where, schema, *row)) continue;  // recheck
        if (!emit_row(pk, &*row)) break;
      }
    }
  } else if (std::shared_ptr<const columnar::TableSegment> seg =
                 columnar_route ? columnar_mgr_->snapshot(t) : nullptr) {
    // Columnar scan: one vectorized predicate pass over the compressed
    // columns yields the selection vector (ascending row positions = heap
    // order, the sequential scan's emission order); only selected rows are
    // materialized, and COUNT(*) materializes none at all.
    rs.used_columnar = true;
    if (stmt.count_star && !stmt.where) {
      count = std::min<uint64_t>(seg->row_count(), limit);
    } else {
      columnar::Selection sel =
          stmt.where ? seg->select(*stmt.where) : seg->select_all();
      if (sel.size() > limit) sel.resize(limit);
      count = sel.size();
      if (!stmt.count_star) {
        rs.columnar_rows = sel.size();
        seg->materialize_rows(sel, projection, &rs.rows);
      }
    }
  } else {
    // Sequential scan. Table::scan has no early-exit channel; a LIMIT that
    // is hit simply stops emitting.
    t.scan([&](int64_t pk, const Row& row) {
      if (count >= limit) return;
      if (stmt.where && !eval_expr(*stmt.where, schema, row)) return;
      ++rs.heap_fetches;
      emit_row(pk, &row);
    });
  }

  if (stmt.count_star) {
    rs.rows.push_back({Value::int64(static_cast<int64_t>(count))});
  }
  return rs;
}

bool Database::execute_select_wire(const SelectStmt& stmt, Bytes* out) {
  if (stmt.explain || stmt.count_star) return false;
  if (!columnar_enabled_ || columnar_mgr_ == nullptr) return false;
  Table& t = table(stmt.table);
  const Schema& schema = t.schema();
  if (t.row_count() < columnar_min_rows_) return false;
  if (stmt.where) validate_expr_columns(*stmt.where, schema);

  // Only when the planner would scan: an indexed probe set means the
  // multi-probe index plan wins and the caller takes the ResultSet path.
  bool whole_predicate = true;
  auto probe = choose_probe(stmt, t, &whole_predicate);
  if (probe && t.has_index(probe->first)) return false;

  std::shared_ptr<const columnar::TableSegment> seg =
      columnar_mgr_->snapshot(t);
  if (seg == nullptr) return false;

  std::vector<std::string> names;
  std::vector<size_t> projection = resolve_projection(stmt, schema, &names);
  columnar::Selection sel =
      stmt.where ? seg->select(*stmt.where) : seg->select_all();
  uint64_t limit = stmt.limit.value_or(UINT64_MAX);
  if (sel.size() > limit) sel.resize(limit);

  // The result-set envelope, byte-for-byte what net::encode_result_set
  // emits for this plan: column names, rows, then the executor counters a
  // columnar scan reports (no probes, no heap fetches, no index).
  store_le32(*out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    store_le32(*out, static_cast<uint32_t>(name.size()));
    out->insert(out->end(), name.begin(), name.end());
  }
  store_le32(*out, static_cast<uint32_t>(sel.size()));
  seg->wire_encode_rows(sel, projection, out);
  store_le64(*out, 0);  // rows_affected
  store_le64(*out, 0);  // index_probes
  store_le64(*out, 0);  // heap_fetches
  out->push_back(0);    // used_index
  return true;
}

bool Database::execute_sql_wire(std::string_view sql, Bytes* out) {
  if (!columnar_enabled_ || columnar_mgr_ == nullptr) return false;
  Statement stmt = parse_statement(sql);
  auto* select = std::get_if<SelectStmt>(&stmt);
  if (select == nullptr) return false;
  return execute_select_wire(*select, out);
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
