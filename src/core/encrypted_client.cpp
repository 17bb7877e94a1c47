#include "src/core/encrypted_client.h"

#include <algorithm>
#include <cmath>

#include "src/core/manifest.h"
#include "src/crypto/aes_ctr.h"
#include "src/crypto/hkdf.h"

namespace wre::core {

using sql::Column;
using sql::Row;
using sql::Schema;
using sql::Value;
using sql::ValueType;

EncryptedConnection::EncryptedConnection(sql::Database& db,
                                         ByteView master_secret)
    : owned_transport_(std::make_unique<LocalTransport>(db)),
      transport_(owned_transport_.get()),
      master_secret_(master_secret.begin(), master_secret.end()) {}

EncryptedConnection::EncryptedConnection(DbTransport& transport,
                                         ByteView master_secret)
    : transport_(&transport),
      master_secret_(master_secret.begin(), master_secret.end()) {}

std::unique_ptr<WreScheme> EncryptedConnection::build_scheme(
    const std::string& table, const EncryptedColumnSpec& spec,
    const PlaintextDistribution* dist) const {
  // Independent keys per (table, column) via HKDF context separation.
  Bytes context = to_bytes("wre-column:" + table + ":" + spec.column);
  Bytes column_secret = crypto::hkdf(to_bytes("wre-column-keys-v1"),
                                     master_secret_, context, 32);
  crypto::KeyBundle keys = crypto::KeyBundle::derive(column_secret);

  std::unique_ptr<SaltAllocator> allocator;
  try {
    allocator = make_salt_allocator(spec.method, spec.parameter, dist,
                                    keys.shuffle_key, context);
  } catch (const WreError& e) {
    throw WreError("column " + spec.column + ": " + e.what());
  }
  return std::make_unique<WreScheme>(std::move(keys), std::move(allocator),
                                     spec.unseen);
}

namespace {

constexpr const char* kManifestTable = "_wre_manifest";
// Manifests routinely exceed one storage page (five columns of
// distributions over thousands of values), so blobs are chunked across
// rows. A "generation" groups one save's chunks; the highest complete
// generation per table name is current.
constexpr size_t kManifestChunkBytes = 2048;

Schema manifest_schema() {
  return Schema({Column{"id", ValueType::kInt64, true},
                 Column{"tname", ValueType::kText},
                 Column{"gen", ValueType::kInt64},
                 Column{"seq", ValueType::kInt64},
                 Column{"nchunks", ValueType::kInt64},
                 Column{"data", ValueType::kBlob}});
}

// The server returns manifest rows, so their width and cell types are
// untrusted until checked.
bool is_manifest_row(const Schema& schema, const Row& row) {
  if (row.size() != schema.column_count()) return false;
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].type() != schema.column(i).type) return false;
  }
  return true;
}

}  // namespace

void EncryptedConnection::create_table(
    const std::string& table, const Schema& logical_schema,
    const std::vector<EncryptedColumnSpec>& specs,
    const std::map<std::string, PlaintextDistribution>& distributions,
    const std::vector<RangeColumnSpec>& range_specs) {
  build_table_state(table, logical_schema, specs, distributions, range_specs);
  const TableState& ts = tables_.at(sql::to_lower(table));
  transport_->create_table(table, ts.physical);
  for (const RowCodec::Column& col : ts.codec.columns) {
    if (col.kind != RowCodec::Kind::kPlain) {
      transport_->create_index(table, ts.physical.column(col.offset).name);
    }
  }
  save_manifest(table);
}

void EncryptedConnection::save_manifest(const std::string& table) {
  const TableState& ts = state(table);
  TableManifest manifest{ts.logical, ts.specs, ts.distributions,
                         ts.range_specs};

  Bytes key = crypto::hkdf(to_bytes("wre-manifest-v1"), master_secret_,
                           to_bytes("manifest-key"), 32);
  crypto::AesCtr cipher(key);
  Bytes blob = cipher.encrypt(serialize_manifest(manifest), rng_);

  if (!transport_->has_table(kManifestTable)) {
    transport_->create_table(kManifestTable, manifest_schema());
  }
  int64_t gen = static_cast<int64_t>(transport_->row_count(kManifestTable));
  auto nchunks = static_cast<int64_t>(
      (blob.size() + kManifestChunkBytes - 1) / kManifestChunkBytes);
  if (nchunks == 0) nchunks = 1;
  std::vector<Row> chunks;
  chunks.reserve(static_cast<size_t>(nchunks));
  for (int64_t seq = 0; seq < nchunks; ++seq) {
    size_t begin = static_cast<size_t>(seq) * kManifestChunkBytes;
    size_t end = std::min(blob.size(), begin + kManifestChunkBytes);
    chunks.push_back(
        {Value::int64(gen + seq), Value::text(sql::to_lower(table)),
         Value::int64(gen), Value::int64(seq), Value::int64(nchunks),
         Value::blob(Bytes(blob.begin() + static_cast<ptrdiff_t>(begin),
                           blob.begin() + static_cast<ptrdiff_t>(end)))});
  }
  transport_->insert_batch(kManifestTable, chunks);
}

void EncryptedConnection::open_table(const std::string& table) {
  if (!transport_->has_table(kManifestTable)) {
    throw WreError("open_table: no manifest table in this database");
  }
  std::string lowered = sql::to_lower(table);
  // Collect chunks of the highest generation for this table.
  std::map<int64_t, std::map<int64_t, Bytes>> generations;  // gen -> seq -> chunk
  std::map<int64_t, int64_t> expected_chunks;
  const Schema schema = manifest_schema();
  transport_->scan(kManifestTable, [&](const Row& row) {
    if (!is_manifest_row(schema, row)) {
      throw WreError("open_table: malformed manifest row");
    }
    if (row[1].as_text() != lowered) return;
    int64_t gen = row[2].as_int64();
    generations[gen][row[3].as_int64()] = row[5].as_blob();
    expected_chunks[gen] = row[4].as_int64();
  });

  std::optional<Bytes> latest;
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    if (static_cast<int64_t>(it->second.size()) !=
        expected_chunks[it->first]) {
      continue;  // torn write; fall back to the previous generation
    }
    Bytes assembled;
    for (const auto& [seq, chunk] : it->second) append(assembled, chunk);
    latest = std::move(assembled);
    break;
  }
  if (!latest) {
    throw WreError("open_table: no manifest recorded for table " + table);
  }

  Bytes key = crypto::hkdf(to_bytes("wre-manifest-v1"), master_secret_,
                           to_bytes("manifest-key"), 32);
  crypto::AesCtr cipher(key);
  TableManifest manifest = [&] {
    try {
      return deserialize_manifest(cipher.decrypt(*latest));
    } catch (const WreError&) {
      throw WreError(
          "open_table: cannot decode manifest (wrong master secret?)");
    } catch (const std::exception&) {
      // Wrong master secret decrypts to garbage, which can also surface as
      // allocation/length failures while parsing; normalize the error.
      throw WreError(
          "open_table: cannot decode manifest (wrong master secret?)");
    }
  }();
  attach_table(table, manifest.logical_schema, manifest.specs,
               manifest.distributions, manifest.range_specs);
}

void EncryptedConnection::attach_table(
    const std::string& table, const Schema& logical_schema,
    const std::vector<EncryptedColumnSpec>& specs,
    const std::map<std::string, PlaintextDistribution>& distributions,
    const std::vector<RangeColumnSpec>& range_specs) {
  if (!transport_->has_table(table)) {
    throw WreError("attach_table: no such table on the server: " + table);
  }
  build_table_state(table, logical_schema, specs, distributions, range_specs);
  // Sanity check the physical layout against the server's catalog.
  const TableState& ts = tables_.at(sql::to_lower(table));
  const Schema server = transport_->table_schema(table);
  if (server.column_count() != ts.physical.column_count()) {
    throw WreError("attach_table: schema mismatch with server table " + table);
  }
}

void EncryptedConnection::build_table_state(
    const std::string& table, const Schema& logical_schema,
    const std::vector<EncryptedColumnSpec>& specs,
    const std::map<std::string, PlaintextDistribution>& distributions,
    const std::vector<RangeColumnSpec>& range_specs) {
  TableState ts;
  ts.logical = logical_schema;

  std::map<std::string, const EncryptedColumnSpec*> by_column;
  for (const auto& spec : specs) {
    by_column[sql::to_lower(spec.column)] = &spec;
  }
  std::map<std::string, const RangeColumnSpec*> range_by_column;
  for (const auto& spec : range_specs) {
    if (by_column.contains(sql::to_lower(spec.column))) {
      throw WreError("column cannot be both equality- and range-encrypted: " +
                     spec.column);
    }
    range_by_column[sql::to_lower(spec.column)] = &spec;
  }

  std::vector<Column> physical_columns;
  size_t wre_columns = 0;
  size_t range_columns = 0;
  for (size_t i = 0; i < logical_schema.column_count(); ++i) {
    const Column& col = logical_schema.column(i);
    RowCodec::Column& cc = ts.codec.columns.emplace_back();
    cc.offset = physical_columns.size();

    auto rit = range_by_column.find(col.name);
    auto it = by_column.find(col.name);
    if (rit == range_by_column.end() && it == by_column.end()) {
      physical_columns.push_back(col);
      continue;
    }
    physical_columns.push_back(Column{col.name + "_tag", ValueType::kInt64});
    physical_columns.push_back(Column{col.name + "_enc", ValueType::kBlob});

    if (rit != range_by_column.end()) {
      if (col.type != ValueType::kInt64) {
        throw WreError("range-encrypted column must be INTEGER: " + col.name);
      }
      if (col.primary_key) {
        throw WreError("primary key cannot be range-encrypted: " + col.name);
      }
      Bytes context = to_bytes("wre-range-column:" + table + ":" + col.name);
      Bytes column_secret = crypto::hkdf(to_bytes("wre-column-keys-v1"),
                                         master_secret_, context, 32);
      crypto::KeyBundle keys = crypto::KeyBundle::derive(column_secret);

      const RangeColumnSpec& spec = *rit->second;
      cc.kind = RowCodec::Kind::kRange;
      cc.bucketizer =
          spec.uppers.empty()
              ? std::make_shared<RangeBucketizer>(spec.domain_lo,
                                                  spec.domain_hi, spec.buckets)
              : std::make_shared<RangeBucketizer>(spec.domain_lo, spec.uppers);
      cc.range_prf = std::make_unique<crypto::TagPrf>(keys.tag_key);
      cc.range_payload = std::make_unique<crypto::AesCtr>(keys.payload_key);
      ++range_columns;
      continue;
    }

    if (col.type != ValueType::kText) {
      throw WreError("encrypted column must be TEXT: " + col.name);
    }
    auto dit = distributions.find(col.name);
    cc.kind = RowCodec::Kind::kWre;
    cc.scheme = build_scheme(table, *it->second,
                             dit == distributions.end() ? nullptr : &dit->second);
    ++wre_columns;
  }
  if (wre_columns != by_column.size() ||
      range_columns != range_by_column.size()) {
    throw WreError("create_table: spec references unknown column");
  }

  ts.physical = Schema(physical_columns);
  ts.codec.width = physical_columns.size();
  ts.specs = specs;
  ts.distributions = distributions;
  ts.range_specs = range_specs;
  tables_.insert_or_assign(sql::to_lower(table), std::move(ts));
}

const EncryptedConnection::TableState& EncryptedConnection::state(
    const std::string& table) const {
  auto it = tables_.find(sql::to_lower(table));
  if (it == tables_.end()) {
    throw WreError("EncryptedConnection: unknown table " + table);
  }
  return it->second;
}

EncryptedConnection::TableState& EncryptedConnection::mutable_state(
    const std::string& table) {
  auto it = tables_.find(sql::to_lower(table));
  if (it == tables_.end()) {
    throw WreError("EncryptedConnection: unknown table " + table);
  }
  return it->second;
}

const EncryptedConnection::RowCodec::Column&
EncryptedConnection::codec_column(const TableState& ts,
                                  const std::string& column,
                                  RowCodec::Kind kind, const char* what) {
  auto idx = ts.logical.index_of(column);
  if (!idx || ts.codec.columns[*idx].kind != kind) {
    throw WreError(std::string(what) + column);
  }
  return ts.codec.columns[*idx];
}

std::shared_ptr<const std::vector<crypto::Tag>>
EncryptedConnection::search_tags_cached(const RowCodec::Column& col,
                                        const std::string& value) {
  // Bounds client memory at ~kMaxCachedValues * lambda tags per column;
  // overflow wipes the map wholesale (cheap, and query workloads that blow
  // past it are uniform sweeps that would not re-hit entries anyway).
  constexpr size_t kMaxCachedValues = 4096;
  TagCache& cache = *col.tag_cache;
  {
    std::lock_guard<std::mutex> lk(cache.mu);
    auto it = cache.by_value.find(value);
    if (it != cache.by_value.end()) return it->second;
  }
  // Compute outside the lock: the expansion is up to lambda HMACs and must
  // not serialize concurrent searches for different values.
  auto tags = std::make_shared<const std::vector<crypto::Tag>>(
      col.scheme->search_tags(value));
  std::lock_guard<std::mutex> lk(cache.mu);
  if (cache.by_value.size() >= kMaxCachedValues) cache.by_value.clear();
  // On a lost race the first writer's (identical) vector wins.
  return cache.by_value.emplace(value, std::move(tags)).first->second;
}

const Schema& EncryptedConnection::logical_schema(
    const std::string& table) const {
  return state(table).logical;
}

const WreScheme& EncryptedConnection::scheme(const std::string& table,
                                             const std::string& column) const {
  return *codec_column(state(table), column).scheme;
}

EncryptedConnection::RowCodec EncryptedConnection::RowCodec::clone() const {
  RowCodec copy;
  copy.width = width;
  copy.columns.resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& from = columns[i];
    Column& to = copy.columns[i];
    to.kind = from.kind;
    to.offset = from.offset;
    if (from.scheme) to.scheme = from.scheme->clone();
    to.bucketizer = from.bucketizer;
    if (from.range_prf) {
      to.range_prf = std::make_unique<crypto::TagPrf>(*from.range_prf);
      to.range_payload = std::make_unique<crypto::AesCtr>(*from.range_payload);
    }
  }
  return copy;
}

Row EncryptedConnection::RowCodec::encode(const Row& logical,
                                          crypto::SecureRandom& rng) const {
  Row physical;
  physical.reserve(width);
  for (size_t i = 0; i < columns.size(); ++i) {
    const Column& col = columns[i];
    const Value& v = logical[i];
    if (col.kind == Kind::kPlain) {
      physical.push_back(v);
    } else if (v.is_null()) {
      physical.push_back(Value::null());
      physical.push_back(Value::null());
    } else if (col.kind == Kind::kWre) {
      EncryptedCell cell = col.scheme->encrypt(v.as_text(), rng);
      physical.push_back(Value::tag(cell.tag));
      physical.push_back(Value::blob(std::move(cell.ciphertext)));
    } else {
      int64_t x = v.as_int64();
      Bytes plain;
      store_le64(plain, static_cast<uint64_t>(x));
      physical.push_back(
          Value::tag(col.range_prf->range_tag(col.bucketizer->bucket_of(x))));
      physical.push_back(Value::blob(col.range_payload->encrypt(plain, rng)));
    }
  }
  return physical;
}

void EncryptedConnection::RowCodec::check_width(const Row& physical) const {
  if (physical.size() != width) {
    throw WreError("server row has " + std::to_string(physical.size()) +
                   " cells, the table has " + std::to_string(width));
  }
}

Value EncryptedConnection::RowCodec::decode_column(size_t i,
                                                   Row& physical) const {
  const Column& col = columns[i];
  if (col.kind == Kind::kPlain) return std::move(physical[col.offset]);
  const Value& enc = physical[col.offset + 1];
  if (enc.is_null()) return Value::null();
  if (col.kind == Kind::kWre) {
    return Value::text(col.scheme->decrypt(enc.as_blob()));
  }
  const Bytes& c = enc.as_blob();
  uint8_t plain[8] = {};
  if (crypto::AesCtr::plaintext_size(c) != sizeof plain) {
    throw WreError("corrupt range-column payload");
  }
  col.range_payload->decrypt(c, plain);
  return Value::int64(static_cast<int64_t>(load_le64(plain)));
}

Row EncryptedConnection::RowCodec::decode(Row&& physical) const {
  check_width(physical);
  Row logical;
  logical.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    logical.push_back(decode_column(i, physical));
  }
  return logical;
}

void EncryptedConnection::RowCodec::count_written(std::span<const Row> rows) {
  for (size_t i = 0; i < columns.size(); ++i) {
    Column& col = columns[i];
    if (col.kind != Kind::kWre) continue;
    for (const Row& row : rows) {
      if (row[i].is_null()) continue;
      const std::string& value = row[i].as_text();
      ++col.observed[value];
      ++col.observed_total;
      if (!col.scheme->allocator().covers(value)) ++col.unseen_total;
    }
  }
}

void EncryptedConnection::insert(const std::string& table, const Row& row) {
  TableState& ts = mutable_state(table);
  ts.logical.check_row(row);
  transport_->insert_batch(table, {ts.codec.encode(row, rng_)});
  ts.codec.count_written({&row, 1});
}

IngestStats EncryptedConnection::insert_bulk(const std::string& table,
                                             const std::vector<Row>& rows,
                                             const IngestOptions& options) {
  IngestPipeline pipeline(*this, table, options);
  return pipeline.ingest(rows);
}

namespace {

/// The physical search-tag column of logical column `column`.
std::string tag_column(const std::string& column) {
  return sql::to_lower(column) + "_tag";
}

}  // namespace

std::string EncryptedConnection::rewrite_select(const std::string& table,
                                                const std::string& column,
                                                const std::string& value,
                                                bool star) {
  auto tags = search_tags_cached(codec_column(state(table), column), value);
  return tag_scan_sql(table, tag_column(column), *tags, star);
}

void EncryptedConnection::decrypt_and_filter(
    const TableState& ts, sql::ResultSet&& server,
    std::span<const Recheck> rechecks, EncryptedQueryResult* result) {
  const RowCodec& codec = ts.codec;
  std::vector<bool> rechecked(codec.columns.size(), false);
  for (const Recheck& r : rechecks) rechecked[r.column] = true;

  result->server_rows_returned = server.rows.size();
  std::vector<Value> checked(rechecks.size());
  for (Row& physical : server.rows) {
    codec.check_width(physical);
    // Late materialization: decode only the recheck cells first, so a
    // false positive costs one decrypt per recheck rather than one per
    // encrypted cell, and no logical row is built for it.
    bool keep = true;
    for (size_t k = 0; k < rechecks.size() && keep; ++k) {
      checked[k] = codec.decode_column(rechecks[k].column, physical);
      keep = rechecks[k].matches(checked[k]);
    }
    if (!keep) {
      ++result->false_positives;
      continue;
    }
    Row logical(codec.columns.size());
    for (size_t k = 0; k < rechecks.size(); ++k) {
      logical[rechecks[k].column] = std::move(checked[k]);
    }
    for (size_t i = 0; i < logical.size(); ++i) {
      if (!rechecked[i]) logical[i] = codec.decode_column(i, physical);
    }
    result->rows.push_back(std::move(logical));
  }
}

void EncryptedConnection::collect_ids(sql::ResultSet&& server,
                                      EncryptedQueryResult* result) {
  result->server_rows_returned = server.rows.size();
  result->ids.reserve(server.rows.size());
  for (const Row& row : server.rows) {
    if (row.size() != 1) {
      throw WreError("server id row has " + std::to_string(row.size()) +
                     " cells, expected 1");
    }
    result->ids.push_back(row[0].as_int64());
  }
}

EncryptedQueryResult EncryptedConnection::tag_search(
    const TableState& ts, const std::string& table, const std::string& column,
    const std::vector<crypto::Tag>& tags, bool star,
    std::span<const Recheck> rechecks) {
  const std::string tag_col = tag_column(column);
  EncryptedQueryResult result;
  result.sql = tag_scan_sql(table, tag_col, tags, star);
  result.tags_in_query = tags.size();
  if (tags.empty()) return result;  // matches no row: skip the round trip
  sql::ResultSet server = transport_->tag_scan(table, tag_col, tags, star);
  if (star) {
    decrypt_and_filter(ts, std::move(server), rechecks, &result);
  } else {
    collect_ids(std::move(server), &result);
  }
  return result;
}

EncryptedQueryResult EncryptedConnection::select_ids(
    const std::string& table, const std::string& column,
    const std::string& value) {
  return select_ids_in(table, column, {value});
}

EncryptedQueryResult EncryptedConnection::select_ids_in(
    const std::string& table, const std::string& column,
    const std::vector<std::string>& values) {
  if (values.empty()) {
    throw WreError("select_ids_in: need at least one value");
  }
  const TableState& ts = state(table);
  const RowCodec::Column& col = codec_column(ts, column);
  // Union of every value's expansion, one round trip. Duplicate tags are
  // harmless (the server's IN probe dedups matches), but dropping them
  // keeps the wire fan-out at the true union size.
  std::vector<crypto::Tag> tags;
  for (const std::string& value : values) {
    auto expansion = search_tags_cached(col, value);
    tags.insert(tags.end(), expansion->begin(), expansion->end());
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return tag_search(ts, table, column, tags, /*star=*/false, {});
}

EncryptedQueryResult EncryptedConnection::select_star_and(
    const std::string& table, const std::vector<Conjunct>& conjuncts) {
  if (conjuncts.empty()) {
    throw WreError("select_star_and: need at least one conjunct");
  }
  const TableState& ts = state(table);
  EncryptedQueryResult result;

  // A multi-column conjunction has no tag-scan form: it is the one search
  // sent as SQL text. The server matches plaintext conjuncts exactly; each
  // encrypted one is rechecked on the decrypted cell.
  std::vector<Recheck> rechecks;
  std::string sql = "SELECT * FROM " + sql::to_lower(table) + " WHERE ";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Conjunct& c = conjuncts[i];
    std::string col = sql::to_lower(c.column);
    if (i > 0) sql += " AND ";
    auto idx = ts.logical.index_of(col);
    if (!idx) throw WreError("select_star_and: unknown column " + col);
    const RowCodec::Column& cc = ts.codec.columns[*idx];
    if (cc.kind != RowCodec::Kind::kWre) {
      sql += col + " = " + c.value.to_sql_literal();
      continue;
    }
    const std::string& value = c.value.as_text();
    auto tags = search_tags_cached(cc, value);
    result.tags_in_query += tags->size();
    sql += "(" + tag_in_sql(tag_column(col), *tags) + ")";
    rechecks.push_back({*idx, [&value](const Value& v) {
                          return !v.is_null() && v.as_text() == value;
                        }});
  }
  result.sql = sql;

  decrypt_and_filter(ts, transport_->execute(sql), rechecks, &result);
  return result;
}

EncryptedQueryResult EncryptedConnection::select_star_range(
    const std::string& table, const std::string& column, int64_t lo,
    int64_t hi) {
  const TableState& ts = state(table);
  const RowCodec::Column& range =
      codec_column(ts, column, RowCodec::Kind::kRange,
                   "select_star_range: column is not range-encrypted: ");
  auto [b_lo, b_hi] = range.bucketizer->buckets_for_range(lo, hi);
  std::vector<crypto::Tag> tags;
  for (uint64_t b = b_lo; b_lo <= b_hi && b <= b_hi; ++b) {
    tags.push_back(range.range_prf->range_tag(static_cast<uint32_t>(b)));
  }

  // Bucket-granularity overshoot is trimmed on the decrypted value.
  const Recheck recheck{*ts.logical.index_of(column), [&](const Value& v) {
                          return !v.is_null() && v.as_int64() >= lo &&
                                 v.as_int64() <= hi;
                        }};
  return tag_search(ts, table, column, tags, /*star=*/true, {&recheck, 1});
}

EncryptedQueryResult EncryptedConnection::select_star(
    const std::string& table, const std::string& column,
    const std::string& value) {
  const TableState& ts = state(table);
  auto tags = search_tags_cached(codec_column(ts, column), value);
  // Client-side filtering: drop bucketized false positives (and the
  // cryptographically negligible tag-collision ones) by comparing the
  // decrypted value against the query.
  const Recheck recheck{*ts.logical.index_of(column), [&](const Value& v) {
                          return !v.is_null() && v.as_text() == value;
                        }};
  return tag_search(ts, table, column, *tags, /*star=*/true, {&recheck, 1});
}

EncryptedConnection::ColumnDrift EncryptedConnection::column_drift(
    const std::string& table, const std::string& column) const {
  const TableState& ts = state(table);
  const RowCodec::Column& cs = codec_column(
      ts, column, RowCodec::Kind::kWre, "column_drift: column not encrypted: ");

  ColumnDrift drift;
  drift.observed_rows = cs.observed_total;
  drift.unseen_rows = cs.unseen_total;
  if (cs.observed_total == 0) return drift;

  // TV distance between the registered distribution and the empirical one,
  // over the union of supports.
  auto dit = ts.distributions.find(sql::to_lower(column));
  double tv = 0;
  double total = static_cast<double>(cs.observed_total);
  if (dit == ts.distributions.end()) {
    // No registered distribution (fixed/deterministic methods): drift is
    // defined as 0; only unseen_rows is meaningful (always 0 here too).
    return drift;
  }
  const PlaintextDistribution& registered = dit->second;
  for (const std::string& m : registered.messages()) {
    auto oit = cs.observed.find(m);
    double observed =
        oit == cs.observed.end()
            ? 0.0
            : static_cast<double>(oit->second) / total;
    tv += std::abs(registered.probability(m) - observed);
  }
  for (const auto& [m, count] : cs.observed) {
    if (!registered.contains(m)) {
      tv += static_cast<double>(count) / total;
    }
  }
  drift.tv_distance = tv / 2.0;
  return drift;
}

void EncryptedConnection::migrate_table(
    const std::string& source, const std::string& destination,
    const std::vector<EncryptedColumnSpec>& specs,
    std::map<std::string, PlaintextDistribution> distributions,
    const std::vector<RangeColumnSpec>& range_specs) {
  const TableState& src = state(source);
  if (transport_->has_table(destination)) {
    throw WreError("migrate_table: destination exists: " + destination);
  }

  // Pass 1: decrypt every row (the whole point of migration is that only
  // the key holder can re-encrypt).
  std::vector<Row> rows;
  rows.reserve(transport_->row_count(source));
  transport_->scan(source, [&](const Row& physical) {
    rows.push_back(src.codec.decode(Row(physical)));
  });

  // Estimate any missing distribution from the data itself.
  for (const EncryptedColumnSpec& spec : specs) {
    std::string col = sql::to_lower(spec.column);
    if (distributions.contains(col)) continue;
    if (spec.method == SaltMethod::kDeterministic ||
        spec.method == SaltMethod::kFixed) {
      continue;  // methods that do not use P_M
    }
    auto idx = src.logical.index_of(col);
    if (!idx) throw WreError("migrate_table: unknown column " + col);
    std::unordered_map<std::string, uint64_t> counts;
    for (const Row& row : rows) {
      if (!row[*idx].is_null()) ++counts[row[*idx].as_text()];
    }
    if (counts.empty()) {
      throw WreError("migrate_table: cannot estimate distribution for empty "
                     "column " + col);
    }
    distributions.emplace(col, PlaintextDistribution::from_counts(counts));
  }

  create_table(destination, src.logical, specs, distributions, range_specs);
  insert_bulk(destination, rows);
}

}  // namespace wre::core
