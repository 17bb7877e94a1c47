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

const char* salt_method_name(SaltMethod m) {
  switch (m) {
    case SaltMethod::kDeterministic: return "deterministic";
    case SaltMethod::kFixed: return "fixed";
    case SaltMethod::kProportional: return "proportional";
    case SaltMethod::kPoisson: return "poisson";
    case SaltMethod::kBucketizedPoisson: return "bucketized-poisson";
  }
  return "?";
}

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

  auto need_dist = [&]() -> const PlaintextDistribution& {
    if (dist == nullptr) {
      throw WreError("column " + spec.column + " with method " +
                     salt_method_name(spec.method) +
                     " requires a plaintext distribution");
    }
    return *dist;
  };

  std::unique_ptr<SaltAllocator> allocator;
  switch (spec.method) {
    case SaltMethod::kDeterministic:
      allocator = std::make_unique<DeterministicAllocator>();
      break;
    case SaltMethod::kFixed:
      allocator = std::make_unique<FixedSaltAllocator>(
          static_cast<uint32_t>(spec.parameter));
      break;
    case SaltMethod::kProportional:
      allocator = std::make_unique<ProportionalSaltAllocator>(
          need_dist(), static_cast<uint32_t>(spec.parameter));
      break;
    case SaltMethod::kPoisson:
      allocator = std::make_unique<PoissonSaltAllocator>(
          need_dist(), spec.parameter, keys.shuffle_key);
      break;
    case SaltMethod::kBucketizedPoisson:
      allocator = std::make_unique<BucketizedPoissonAllocator>(
          need_dist(), spec.parameter, keys.shuffle_key, context);
      break;
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

}  // namespace

void EncryptedConnection::create_table(
    const std::string& table, const Schema& logical_schema,
    const std::vector<EncryptedColumnSpec>& specs,
    const std::map<std::string, PlaintextDistribution>& distributions,
    const std::vector<RangeColumnSpec>& range_specs) {
  build_table_state(table, logical_schema, specs, distributions, range_specs);
  const TableState& ts = tables_.at(sql::to_lower(table));
  transport_->create_table(table, ts.physical);
  for (const auto& [col, cs] : ts.encrypted) {
    transport_->create_index(table, col + "_tag");
  }
  for (const auto& [col, rs] : ts.ranges) {
    transport_->create_index(table, col + "_tag");
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
    transport_->create_table(
        kManifestTable, Schema({Column{"id", ValueType::kInt64, true},
                                Column{"tname", ValueType::kText},
                                Column{"gen", ValueType::kInt64},
                                Column{"seq", ValueType::kInt64},
                                Column{"nchunks", ValueType::kInt64},
                                Column{"data", ValueType::kBlob}}));
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
  transport_->scan(kManifestTable, [&](const Row& row) {
    if (row[1].is_null() || row[1].as_text() != lowered) return;
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
  for (size_t i = 0; i < logical_schema.column_count(); ++i) {
    const Column& col = logical_schema.column(i);
    ts.physical_offset.push_back(physical_columns.size());

    if (auto rit = range_by_column.find(col.name);
        rit != range_by_column.end()) {
      if (col.type != ValueType::kInt64) {
        throw WreError("range-encrypted column must be INTEGER: " + col.name);
      }
      if (col.primary_key) {
        throw WreError("primary key cannot be range-encrypted: " + col.name);
      }
      physical_columns.push_back(Column{col.name + "_tag", ValueType::kInt64});
      physical_columns.push_back(Column{col.name + "_enc", ValueType::kBlob});

      Bytes context = to_bytes("wre-range-column:" + table + ":" + col.name);
      Bytes column_secret = crypto::hkdf(to_bytes("wre-column-keys-v1"),
                                         master_secret_, context, 32);
      crypto::KeyBundle keys = crypto::KeyBundle::derive(column_secret);

      RangeColumnState rs;
      rs.spec = *rit->second;
      rs.bucketizer =
          rs.spec.uppers.empty()
              ? std::make_unique<RangeBucketizer>(
                    rs.spec.domain_lo, rs.spec.domain_hi, rs.spec.buckets)
              : std::make_unique<RangeBucketizer>(rs.spec.domain_lo,
                                                  rs.spec.uppers);
      rs.prf = std::make_unique<crypto::TagPrf>(keys.tag_key);
      rs.payload = std::make_unique<crypto::AesCtr>(keys.payload_key);
      rs.logical_index = i;
      ts.ranges.emplace(col.name, std::move(rs));
      continue;
    }

    auto it = by_column.find(col.name);
    if (it == by_column.end()) {
      physical_columns.push_back(col);
      continue;
    }
    if (col.type != ValueType::kText) {
      throw WreError("encrypted column must be TEXT: " + col.name);
    }
    physical_columns.push_back(Column{col.name + "_tag", ValueType::kInt64});
    physical_columns.push_back(Column{col.name + "_enc", ValueType::kBlob});

    const PlaintextDistribution* dist = nullptr;
    auto dit = distributions.find(col.name);
    if (dit != distributions.end()) dist = &dit->second;

    ColumnState cs;
    cs.spec = *it->second;
    cs.scheme = build_scheme(table, cs.spec, dist);
    cs.logical_index = i;
    ts.encrypted.emplace(col.name, std::move(cs));
  }
  if (ts.encrypted.size() != by_column.size() ||
      ts.ranges.size() != range_by_column.size()) {
    throw WreError("create_table: spec references unknown column");
  }

  ts.physical = Schema(physical_columns);
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

const EncryptedConnection::ColumnState& EncryptedConnection::column_state(
    const std::string& table, const std::string& column) const {
  const TableState& ts = state(table);
  auto it = ts.encrypted.find(sql::to_lower(column));
  if (it == ts.encrypted.end()) {
    throw WreError("EncryptedConnection: column not encrypted: " + column);
  }
  return it->second;
}

std::shared_ptr<const std::vector<crypto::Tag>>
EncryptedConnection::search_tags_cached(const ColumnState& cs,
                                        const std::string& value) const {
  // Bounds client memory at ~kMaxCachedValues * lambda tags per column;
  // overflow wipes the map wholesale (cheap, and query workloads that blow
  // past it are uniform sweeps that would not re-hit entries anyway).
  constexpr size_t kMaxCachedValues = 4096;
  TagCache& cache = *cs.tag_cache;
  {
    std::lock_guard<std::mutex> lk(cache.mu);
    auto it = cache.by_value.find(value);
    if (it != cache.by_value.end()) return it->second;
  }
  // Compute outside the lock: the expansion is up to lambda HMACs and must
  // not serialize concurrent searches for different values.
  auto tags = std::make_shared<const std::vector<crypto::Tag>>(
      cs.scheme->search_tags(value));
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
  const TableState& ts = state(table);
  auto it = ts.encrypted.find(sql::to_lower(column));
  if (it == ts.encrypted.end()) {
    throw WreError("EncryptedConnection: column not encrypted: " + column);
  }
  return *it->second.scheme;
}

void EncryptedConnection::insert(const std::string& table, const Row& row) {
  // Mutable access: drift counters are updated per encrypted cell.
  TableState& ts = mutable_state(table);
  ts.logical.check_row(row);

  Row physical;
  physical.reserve(ts.physical.column_count());
  for (size_t i = 0; i < ts.logical.column_count(); ++i) {
    const Column& col = ts.logical.column(i);

    if (auto rit = ts.ranges.find(col.name); rit != ts.ranges.end()) {
      if (row[i].is_null()) {
        physical.push_back(Value::null());
        physical.push_back(Value::null());
        continue;
      }
      const RangeColumnState& rs = rit->second;
      int64_t v = row[i].as_int64();
      uint32_t bucket = rs.bucketizer->bucket_of(v);
      Bytes plain;
      store_le64(plain, static_cast<uint64_t>(v));
      physical.push_back(Value::tag(rs.prf->range_tag(bucket)));
      physical.push_back(Value::blob(rs.payload->encrypt(plain, rng_)));
      continue;
    }

    auto it = ts.encrypted.find(col.name);
    if (it == ts.encrypted.end()) {
      physical.push_back(row[i]);
      continue;
    }
    if (row[i].is_null()) {
      physical.push_back(Value::null());
      physical.push_back(Value::null());
      continue;
    }
    ColumnState& cs = it->second;
    const std::string& value = row[i].as_text();
    EncryptedCell cell = cs.scheme->encrypt(value, rng_);
    // Drift bookkeeping (after encrypt, so rejected values don't count).
    ++cs.observed[value];
    ++cs.observed_total;
    if (!cs.scheme->allocator().covers(value)) ++cs.unseen_total;
    physical.push_back(Value::tag(cell.tag));
    physical.push_back(Value::blob(std::move(cell.ciphertext)));
  }
  transport_->insert_batch(table, {std::move(physical)});
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
  const ColumnState& cs = column_state(table, column);
  auto tags = search_tags_cached(cs, value);
  return tag_scan_sql(table, tag_column(column), *tags, star);
}

Row EncryptedConnection::decrypt_row(const TableState& ts,
                                     Row&& physical) const {
  Row logical;
  logical.reserve(ts.logical.column_count());
  for (size_t i = 0; i < ts.logical.column_count(); ++i) {
    const Column& col = ts.logical.column(i);
    size_t off = ts.physical_offset[i];

    if (auto rit = ts.ranges.find(col.name); rit != ts.ranges.end()) {
      const Value& enc = physical[off + 1];
      if (enc.is_null()) {
        logical.push_back(Value::null());
        continue;
      }
      Bytes plain = rit->second.payload->decrypt(enc.as_blob());
      if (plain.size() != 8) {
        throw WreError("corrupt range-column payload in " + col.name);
      }
      logical.push_back(
          Value::int64(static_cast<int64_t>(load_le64(plain.data()))));
      continue;
    }

    auto it = ts.encrypted.find(col.name);
    if (it == ts.encrypted.end()) {
      logical.push_back(std::move(physical[off]));
      continue;
    }
    const Value& enc = physical[off + 1];
    if (enc.is_null()) {
      logical.push_back(Value::null());
      continue;
    }
    logical.push_back(Value::text(it->second.scheme->decrypt(enc.as_blob())));
  }
  return logical;
}

void EncryptedConnection::decrypt_and_filter(
    const TableState& ts, sql::ResultSet&& server,
    const std::function<bool(const Row&)>& keep,
    EncryptedQueryResult* result) const {
  result->server_rows_returned = server.rows.size();
  for (Row& physical : server.rows) {
    Row logical = decrypt_row(ts, std::move(physical));
    if (keep(logical)) {
      result->rows.push_back(std::move(logical));
    } else {
      ++result->false_positives;
    }
  }
}

EncryptedQueryResult EncryptedConnection::select_ids(
    const std::string& table, const std::string& column,
    const std::string& value) {
  const ColumnState& cs = column_state(table, column);
  auto tags = search_tags_cached(cs, value);
  const std::string tag_col = tag_column(column);
  EncryptedQueryResult result;
  result.sql = tag_scan_sql(table, tag_col, *tags, /*star=*/false);
  result.tags_in_query = tags->size();

  sql::ResultSet rs =
      transport_->tag_scan(table, tag_col, *tags, /*star=*/false);
  result.server_rows_returned = rs.rows.size();
  result.ids.reserve(rs.rows.size());
  for (const Row& row : rs.rows) result.ids.push_back(row[0].as_int64());
  return result;
}

EncryptedQueryResult EncryptedConnection::select_ids_in(
    const std::string& table, const std::string& column,
    const std::vector<std::string>& values) {
  if (values.empty()) {
    throw WreError("select_ids_in: need at least one value");
  }
  const ColumnState& cs = column_state(table, column);
  // Union of every value's expansion, one round trip. Duplicate tags are
  // harmless (the server's IN probe dedups matches), but dropping them
  // keeps the wire fan-out at the true union size.
  std::vector<crypto::Tag> tags;
  for (const std::string& value : values) {
    auto expansion = search_tags_cached(cs, value);
    tags.insert(tags.end(), expansion->begin(), expansion->end());
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());

  const std::string tag_col = tag_column(column);
  EncryptedQueryResult result;
  result.sql = tag_scan_sql(table, tag_col, tags, /*star=*/false);
  result.tags_in_query = tags.size();
  sql::ResultSet rs = transport_->tag_scan(table, tag_col, tags, /*star=*/false);
  result.server_rows_returned = rs.rows.size();
  result.ids.reserve(rs.rows.size());
  for (const Row& row : rs.rows) result.ids.push_back(row[0].as_int64());
  return result;
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
  // encrypted one is rechecked on the decrypted cell (logical index, value).
  std::vector<std::pair<size_t, const std::string*>> rechecks;
  std::string sql = "SELECT * FROM " + sql::to_lower(table) + " WHERE ";
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Conjunct& c = conjuncts[i];
    std::string col = sql::to_lower(c.column);
    if (i > 0) sql += " AND ";
    auto it = ts.encrypted.find(col);
    if (it == ts.encrypted.end()) {
      if (!ts.logical.index_of(col)) {
        throw WreError("select_star_and: unknown column " + col);
      }
      sql += col + " = " + c.value.to_sql_literal();
      continue;
    }
    const std::string& value = c.value.as_text();
    auto tags = search_tags_cached(it->second, value);
    result.tags_in_query += tags->size();
    sql += "(" + tag_in_sql(tag_column(col), *tags) + ")";
    rechecks.emplace_back(it->second.logical_index, &value);
  }
  result.sql = sql;

  decrypt_and_filter(
      ts, transport_->execute(sql),
      [&](const Row& row) {
        for (const auto& [idx, value] : rechecks) {
          if (row[idx].is_null() || row[idx].as_text() != *value) return false;
        }
        return true;
      },
      &result);
  return result;
}

EncryptedQueryResult EncryptedConnection::select_star_range(
    const std::string& table, const std::string& column, int64_t lo,
    int64_t hi) {
  const TableState& ts = state(table);
  auto rit = ts.ranges.find(sql::to_lower(column));
  if (rit == ts.ranges.end()) {
    throw WreError("select_star_range: column is not range-encrypted: " +
                   column);
  }
  const RangeColumnState& range = rit->second;
  auto [b_lo, b_hi] = range.bucketizer->buckets_for_range(lo, hi);
  std::vector<crypto::Tag> tags;
  for (uint64_t b = b_lo; b_lo <= b_hi && b <= b_hi; ++b) {
    tags.push_back(range.prf->range_tag(static_cast<uint32_t>(b)));
  }

  const std::string tag_col = tag_column(column);
  EncryptedQueryResult result;
  result.sql = tag_scan_sql(table, tag_col, tags, /*star=*/true);
  result.tags_in_query = tags.size();
  if (tags.empty()) return result;  // empty range

  // Bucket-granularity overshoot is trimmed on the decrypted value.
  const size_t col_idx = range.logical_index;
  decrypt_and_filter(
      ts, transport_->tag_scan(table, tag_col, tags, /*star=*/true),
      [&](const Row& row) {
        const Value& v = row[col_idx];
        return !v.is_null() && v.as_int64() >= lo && v.as_int64() <= hi;
      },
      &result);
  return result;
}

EncryptedQueryResult EncryptedConnection::select_star(
    const std::string& table, const std::string& column,
    const std::string& value) {
  const TableState& ts = state(table);
  const ColumnState& cs = column_state(table, column);
  auto tags = search_tags_cached(cs, value);
  const std::string tag_col = tag_column(column);
  EncryptedQueryResult result;
  result.sql = tag_scan_sql(table, tag_col, *tags, /*star=*/true);
  result.tags_in_query = tags->size();

  // Client-side filtering: drop bucketized false positives (and the
  // cryptographically negligible tag-collision ones) by comparing the
  // decrypted value against the query.
  const size_t col_idx = cs.logical_index;
  decrypt_and_filter(
      ts, transport_->tag_scan(table, tag_col, *tags, /*star=*/true),
      [&](const Row& row) {
        return !row[col_idx].is_null() && row[col_idx].as_text() == value;
      },
      &result);
  return result;
}

EncryptedConnection::ColumnDrift EncryptedConnection::column_drift(
    const std::string& table, const std::string& column) const {
  const TableState& ts = state(table);
  auto it = ts.encrypted.find(sql::to_lower(column));
  if (it == ts.encrypted.end()) {
    throw WreError("column_drift: column not encrypted: " + column);
  }
  const ColumnState& cs = it->second;

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
    rows.push_back(decrypt_row(src, Row(physical)));
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
