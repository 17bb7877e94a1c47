// The client-side query proxy: the "easily deployable" layer that turns a
// plaintext table + WRE configuration into plain SQL against an unmodified
// relational server (Section I-A / IV).
//
// Server-side layout: each encrypted column `c` of the logical schema is
// replaced by two physical columns,
//   c_tag INTEGER  — the weakly randomized search tag (indexed), and
//   c_enc BLOB     — the strongly randomized AES-CTR payload,
// mirroring the evaluation's layout ("Each encrypted column is expanded into
// two columns: one 64 bit Integer column for the WRE search tag and another
// column to hold the ... AES-encrypted data", Section VI-A). Range columns
// use the same pair with a bucket tag. The layout is decided once per table,
// in a private RowCodec that every insert, ingest and decrypt path shares.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/ingest_pipeline.h"
#include "src/core/range.h"
#include "src/core/transport.h"
#include "src/core/wre_scheme.h"
#include "src/sql/database.h"

namespace wre::core {

/// Per-column encryption configuration.
struct EncryptedColumnSpec {
  std::string column;
  SaltMethod method = SaltMethod::kPoisson;
  double parameter = 1000;  // N, N_T or lambda depending on method
  /// Handling of values outside the registered distribution (see
  /// UnseenValuePolicy in wre_scheme.h for the leakage trade-off).
  UnseenValuePolicy unseen = UnseenValuePolicy::kReject;
};

/// Configuration for a range-searchable encrypted INTEGER column
/// (bucketized ranges; see src/core/range.h for the leakage trade-off).
struct RangeColumnSpec {
  RangeColumnSpec() = default;
  RangeColumnSpec(std::string column, int64_t lo, int64_t hi,
                  uint32_t buckets, std::vector<int64_t> uppers = {})
      : column(std::move(column)),
        domain_lo(lo),
        domain_hi(hi),
        buckets(buckets),
        uppers(std::move(uppers)) {}

  std::string column;
  int64_t domain_lo = 0;
  int64_t domain_hi = 0;
  uint32_t buckets = 256;
  /// Non-empty = explicit (e.g. equi-depth) partition: bucket i covers
  /// (uppers[i-1], uppers[i]], starting at domain_lo. domain_hi and
  /// `buckets` are then derived from the cut points. Build with
  /// RangeBucketizer::equi_depth over a sample of the column.
  std::vector<int64_t> uppers;
};

/// Result of an encrypted query, post client-side processing.
struct EncryptedQueryResult {
  /// select_star: decrypted plaintext rows (false positives removed).
  std::vector<sql::Row> rows;
  /// select_ids: matching primary keys as returned by the server. With a
  /// bucketized column these may include false positives — without payloads
  /// the client cannot filter them, which is precisely the masking effect
  /// Figures 8 and 9 measure.
  std::vector<int64_t> ids;

  uint64_t server_rows_returned = 0;  // before client-side filtering
  uint64_t false_positives = 0;       // removed by filtering (select_star)
  uint64_t tags_in_query = 0;         // fan-out of the rewritten predicate
  std::string sql;                    // the rewritten query text
};

/// A connection that transparently encrypts configured columns.
///
/// Usage: construct over a Database with a 32-byte master secret, call
/// create_table() with the logical schema, the per-column specs and the
/// plaintext distribution of each encrypted column, then insert() and
/// select_*() in terms of plaintext values.
///
/// Concurrency: the query methods (select_ids, select_star, select_star_and,
/// select_star_range, rewrite_select) are safe to call from multiple threads
/// on one connection — the crypto contexts are stateless for reads and the
/// per-column tag cache takes its own lock. Everything that writes or
/// rebuilds state (insert, insert_bulk, create/attach/open/migrate_table,
/// save_manifest) requires exclusion from all other calls.
class EncryptedConnection {
 public:
  /// In-process form: wraps `db` in a LocalTransport it owns.
  EncryptedConnection(sql::Database& db, ByteView master_secret);

  /// Transport form: the server may be anywhere (net::RemoteConnection runs
  /// it over TCP). The transport must outlive the connection.
  EncryptedConnection(DbTransport& transport, ByteView master_secret);

  /// The server transport this connection issues its rewritten SQL through.
  DbTransport& transport() { return *transport_; }

  /// Creates the server-side table and tag indexes. Encrypted columns must
  /// be TEXT in the logical schema; every encrypted column needs an entry
  /// in `distributions` unless its method is kDeterministic or kFixed
  /// (which do not use P_M).
  void create_table(
      const std::string& table, const sql::Schema& logical_schema,
      const std::vector<EncryptedColumnSpec>& specs,
      const std::map<std::string, PlaintextDistribution>& distributions,
      const std::vector<RangeColumnSpec>& range_specs = {});

  /// Rebuilds client-side state for a table that already exists on the
  /// server (e.g. after a client restart). The same master secret, logical
  /// schema, specs and distributions must be supplied; keys and salt
  /// layouts are re-derived deterministically, so previously written tags
  /// remain searchable.
  void attach_table(
      const std::string& table, const sql::Schema& logical_schema,
      const std::vector<EncryptedColumnSpec>& specs,
      const std::map<std::string, PlaintextDistribution>& distributions,
      const std::vector<RangeColumnSpec>& range_specs = {});

  /// Reopens a table created by this connection (or any connection holding
  /// the same master secret) using the encrypted manifest that create_table
  /// stored in the server-side `_wre_manifest` table. The server only ever
  /// sees the manifest as an opaque AES-CTR blob.
  void open_table(const std::string& table);

  /// Re-persists the manifest for `table` (e.g. after the data owner
  /// updates a column's distribution estimate out of band).
  void save_manifest(const std::string& table);

  /// Encrypts and inserts one logical row.
  void insert(const std::string& table, const sql::Row& row);

  /// Encrypts and inserts many logical rows through the parallel bulk-ingest
  /// pipeline (see ingest_pipeline.h): tags and payloads are computed on
  /// worker threads, then written in input order via the batched insert path.
  /// One-shot convenience over IngestPipeline; streaming callers that ingest
  /// chunk by chunk should hold an IngestPipeline so record indices (and the
  /// randomness stream) continue across chunks.
  IngestStats insert_bulk(const std::string& table,
                          const std::vector<sql::Row>& rows,
                          const IngestOptions& options = {});

  /// SELECT id FROM table WHERE column = value  (index-only on the server).
  EncryptedQueryResult select_ids(const std::string& table,
                                  const std::string& column,
                                  const std::string& value);

  /// SELECT id FROM table WHERE column IN (v1, v2, ...): one server round
  /// trip probing the union of every value's tag expansion. The IN-scan of
  /// the multi-tenant workload — fan-out grows with values * lambda, which
  /// is exactly what the tag index's multi-probe path is built for.
  EncryptedQueryResult select_ids_in(const std::string& table,
                                     const std::string& column,
                                     const std::vector<std::string>& values);

  /// SELECT * FROM table WHERE column = value. Rows are decrypted and,
  /// because payloads are available, false positives are filtered out.
  EncryptedQueryResult select_star(const std::string& table,
                                   const std::string& column,
                                   const std::string& value);

  /// One equality conjunct of a multi-column query. Encrypted columns take
  /// TEXT values (rewritten to tag disjunctions); plaintext columns accept
  /// any value and are passed through verbatim.
  struct Conjunct {
    std::string column;
    sql::Value value;
  };

  /// SELECT * FROM table WHERE c1 = v1 AND c2 = v2 AND ... across any mix
  /// of encrypted and plaintext columns. The server probes the most
  /// selective tag index and rechecks the rest; the client decrypts and
  /// removes residual false positives per encrypted conjunct.
  EncryptedQueryResult select_star_and(const std::string& table,
                                       const std::vector<Conjunct>& conjuncts);

  /// SELECT * FROM table WHERE lo <= column <= hi over a range-encrypted
  /// INTEGER column. The server matches whole buckets; the client decrypts
  /// and trims to the exact range.
  EncryptedQueryResult select_star_range(const std::string& table,
                                         const std::string& column,
                                         int64_t lo, int64_t hi);

  /// The rewritten SQL for an equality query (exposed for inspection).
  std::string rewrite_select(const std::string& table,
                             const std::string& column,
                             const std::string& value, bool star);

  /// Distribution-drift report for one encrypted column, computed from the
  /// inserts made through *this connection instance*. Large drift (or any
  /// unseen rows) means the registered P_M no longer matches the data and
  /// the tag frequencies are no longer fully smoothed; migrate_table() with
  /// a refreshed distribution restores the guarantee.
  struct ColumnDrift {
    uint64_t observed_rows = 0;
    uint64_t unseen_rows = 0;   // values outside the registered P_M
    double tv_distance = 0;     // TV(P_M, observed empirical distribution)
  };
  ColumnDrift column_drift(const std::string& table,
                           const std::string& column) const;

  /// Decrypts every row of `source`, re-encrypts under the new
  /// configuration and loads it into (newly created) `destination`. For any
  /// encrypted column missing from `distributions` the distribution is
  /// estimated from the decrypted data itself — the "calculated during
  /// database initialization" option of Section IV.
  void migrate_table(
      const std::string& source, const std::string& destination,
      const std::vector<EncryptedColumnSpec>& specs,
      std::map<std::string, PlaintextDistribution> distributions,
      const std::vector<RangeColumnSpec>& range_specs = {});

  /// The logical schema registered for `table`.
  const sql::Schema& logical_schema(const std::string& table) const;

  /// Direct access to a column's scheme (attack harnesses use this).
  const WreScheme& scheme(const std::string& table,
                          const std::string& column) const;

 private:
  // The bulk-ingest pipeline clones each worker's RowCodec from TableState
  // and shares this connection's drift counters and rng.
  friend class IngestPipeline;

  // Memoizes WreScheme::search_tags per plaintext value. A repeated search
  // recomputes up to lambda HMAC invocations otherwise; the expansion is
  // deterministic per column key, so it can be cached for the lifetime of
  // the column state. Invalidation is structural: create/attach/open/migrate
  // rebuild the owning RowCodec (and thus a fresh cache) whenever keys,
  // salt layout or distribution change.
  struct TagCache {
    std::mutex mu;
    std::unordered_map<std::string,
                       std::shared_ptr<const std::vector<crypto::Tag>>>
        by_value;
  };

  // The table's physical layout, decided once in build_table_state: one
  // entry per logical column, in logical order. A plaintext column is one
  // physical cell; a WRE or range column is a (tag, payload) pair. Every
  // path that writes or reads physical rows goes through this codec.
  class RowCodec {
   public:
    enum class Kind : uint8_t { kPlain, kWre, kRange };
    struct Column {
      Kind kind = Kind::kPlain;
      size_t offset = 0;  // physical index of the column's first cell
      // kWre: the column's scheme (PRF and AES contexts, shared allocator).
      std::unique_ptr<WreScheme> scheme;
      // kRange: the shared bucketizer plus the column's PRF and AES contexts.
      std::shared_ptr<const RangeBucketizer> bucketizer;
      std::unique_ptr<crypto::TagPrf> range_prf;
      std::unique_ptr<crypto::AesCtr> range_payload;
      // kWre, connection only (clones start empty): search-tag cache and
      // drift counters over the rows this connection wrote.
      std::unique_ptr<TagCache> tag_cache = std::make_unique<TagCache>();
      std::unordered_map<std::string, uint64_t> observed;
      uint64_t observed_total = 0;
      uint64_t unseen_total = 0;
    };

    /// For an ingest worker: private copies of every PRF and AES context,
    /// sharing the immutable allocators and bucketizers. Encodes exactly
    /// like the original.
    RowCodec clone() const;
    /// The physical row of a checked logical row. Each column draws from
    /// `rng` in logical order (WRE: salt choice, then AES nonce; range: AES
    /// nonce), so a fixed rng stream always yields the same bytes.
    sql::Row encode(const sql::Row& logical, crypto::SecureRandom& rng) const;
    /// Throws WreError unless `physical` has `width` cells.
    void check_width(const sql::Row& physical) const;
    /// The logical value of column `i` in a physical row of checked width;
    /// a plaintext cell is moved out of `physical`. Throws on a payload
    /// that does not decrypt to a value of the column's kind.
    sql::Value decode_column(size_t i, sql::Row& physical) const;
    /// The logical row of a physical one: check_width, then decode_column
    /// for every column.
    sql::Row decode(sql::Row&& physical) const;
    /// Drift bookkeeping for logical rows that were written.
    void count_written(std::span<const sql::Row> rows);

    std::vector<Column> columns;  // logical order
    size_t width = 0;             // physical cells per row
  };

  struct TableState {
    sql::Schema logical;
    sql::Schema physical;
    RowCodec codec;
    // Inputs retained for manifest persistence.
    std::vector<EncryptedColumnSpec> specs;
    std::map<std::string, PlaintextDistribution> distributions;
    std::vector<RangeColumnSpec> range_specs;
  };

  const TableState& state(const std::string& table) const;
  TableState& mutable_state(const std::string& table);
  /// The codec entry of `column` in `ts`; throws WreError (`what` followed
  /// by the column name) unless it exists and has kind `kind`.
  static const RowCodec::Column& codec_column(
      const TableState& ts, const std::string& column,
      RowCodec::Kind kind = RowCodec::Kind::kWre,
      const char* what = "EncryptedConnection: column not encrypted: ");
  /// search_tags through the column's TagCache (thread-safe; the HMAC
  /// expansion runs outside the cache lock).
  static std::shared_ptr<const std::vector<crypto::Tag>> search_tags_cached(
      const RowCodec::Column& col, const std::string& value);
  void build_table_state(
      const std::string& table, const sql::Schema& logical_schema,
      const std::vector<EncryptedColumnSpec>& specs,
      const std::map<std::string, PlaintextDistribution>& distributions,
      const std::vector<RangeColumnSpec>& range_specs);
  std::unique_ptr<WreScheme> build_scheme(
      const std::string& table, const EncryptedColumnSpec& spec,
      const PlaintextDistribution* dist) const;
  /// One client-side filter term: the decoded cell of logical column
  /// `column` must satisfy `matches` (which sees NULL cells too).
  struct Recheck {
    size_t column;
    std::function<bool(const sql::Value&)> matches;
  };
  /// Filters the rows the server returned for a SELECT *. Each row's width
  /// is checked, then only its recheck cells are decoded, in order; a row
  /// failing one is counted as a false positive and its other cells are
  /// never decoded. The rest of a surviving row is decoded into
  /// `result->rows`. Also records server_rows_returned.
  static void decrypt_and_filter(const TableState& ts,
                                 sql::ResultSet&& server,
                                 std::span<const Recheck> rechecks,
                                 EncryptedQueryResult* result);
  /// The primary keys of a `SELECT id` tag scan into `result->ids`; throws
  /// WreError on a row that is not one cell wide.
  static void collect_ids(sql::ResultSet&& server,
                          EncryptedQueryResult* result);
  /// The one tag search behind select_ids_in, select_star and
  /// select_star_range: reports the rewritten SQL and the tag fan-out, then
  /// (unless `tags` is empty, which matches no row) runs the tag scan and
  /// either filters the SELECT * answer by `rechecks` or collects the ids.
  EncryptedQueryResult tag_search(const TableState& ts,
                                  const std::string& table,
                                  const std::string& column,
                                  const std::vector<crypto::Tag>& tags,
                                  bool star, std::span<const Recheck> rechecks);

  std::unique_ptr<DbTransport> owned_transport_;  // only the Database& ctor
  DbTransport* transport_;
  Bytes master_secret_;
  crypto::SecureRandom rng_;
  std::map<std::string, TableState> tables_;
};

}  // namespace wre::core
