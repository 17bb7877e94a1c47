#include "src/sql/table.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/util/error.h"

namespace wre::sql {

uint64_t index_key_for(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
      return static_cast<uint64_t>(v.as_int64());
    case ValueType::kText: {
      auto digest = crypto::Sha256::digest(to_bytes(v.as_text()));
      return load_le64(digest.data());
    }
    case ValueType::kBlob: {
      auto digest = crypto::Sha256::digest(v.as_blob());
      return load_le64(digest.data());
    }
    case ValueType::kNull:
      throw SqlError("index_key_for: NULL is not indexable");
  }
  throw SqlError("index_key_for: bad value type");
}

Table::Table(storage::BufferPool& pool, std::string dir, std::string name,
             Schema schema)
    : pool_(pool),
      dir_(std::move(dir)),
      name_(std::move(name)),
      schema_(std::move(schema)) {
  storage::FileId heap_file = pool_.disk().open_file(dir_ + "/" + name_ + ".tbl");
  heap_ = std::make_unique<storage::HeapFile>(pool_, heap_file);
  storage::FileId pk_file =
      pool_.disk().open_file(dir_ + "/" + name_ + ".pk.idx");
  pk_index_ = std::make_unique<storage::BPlusTree>(pool_, pk_file);
  next_hidden_pk_ = static_cast<int64_t>(heap_->record_count());
}

std::string Table::index_path(const std::string& column_name) const {
  return dir_ + "/" + name_ + "." + to_lower(column_name) + ".idx";
}

int64_t Table::insert(const Row& row) {
  schema_.check_row(row);

  int64_t pk;
  if (auto pk_col = schema_.primary_key_index()) {
    pk = row[*pk_col].as_int64();
    if (!pk_index_->find(static_cast<uint64_t>(pk)).empty()) {
      throw SqlError("duplicate primary key " + std::to_string(pk) +
                     " in table " + name_);
    }
  } else {
    pk = next_hidden_pk_++;
  }

  storage::RecordId rid = heap_->append(schema_.encode_row(row));
  pk_index_->insert(static_cast<uint64_t>(pk), rid.pack());

  for (auto& [col, tree] : indexes_) {
    size_t idx = *schema_.index_of(col);
    if (row[idx].is_null()) continue;
    tree->insert(index_key_for(row[idx]), static_cast<uint64_t>(pk));
  }
  return pk;
}

std::vector<int64_t> Table::insert_batch(const std::vector<Row>& rows) {
  std::vector<int64_t> pks;
  pks.reserve(rows.size());
  auto pk_col = schema_.primary_key_index();

  // Validate everything before writing anything, so a bad row cannot leave a
  // half-applied batch behind. Hidden keys are assigned from a local cursor
  // that is committed only after validation succeeds.
  int64_t hidden = next_hidden_pk_;
  std::unordered_set<int64_t> batch_pks;
  for (const Row& row : rows) {
    schema_.check_row(row);
    int64_t pk;
    if (pk_col) {
      pk = row[*pk_col].as_int64();
      if (!batch_pks.insert(pk).second ||
          !pk_index_->find(static_cast<uint64_t>(pk)).empty()) {
        throw SqlError("duplicate primary key " + std::to_string(pk) +
                       " in table " + name_);
      }
    } else {
      pk = hidden++;
    }
    pks.push_back(pk);
  }
  next_hidden_pk_ = hidden;

  std::vector<Bytes> encoded;
  encoded.reserve(rows.size());
  for (const Row& row : rows) encoded.push_back(schema_.encode_row(row));
  std::vector<storage::RecordId> rids = heap_->append_batch(encoded);
  for (size_t i = 0; i < rows.size(); ++i) {
    pk_index_->insert(static_cast<uint64_t>(pks[i]), rids[i].pack());
  }

  // Secondary indexes: one sorted (key, pk) run per index.
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  for (auto& [col, tree] : indexes_) {
    size_t idx = *schema_.index_of(col);
    entries.clear();
    entries.reserve(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i][idx].is_null()) continue;
      entries.emplace_back(index_key_for(rows[i][idx]),
                           static_cast<uint64_t>(pks[i]));
    }
    std::sort(entries.begin(), entries.end());
    for (const auto& [key, pk] : entries) tree->insert(key, pk);
  }
  return pks;
}

void Table::create_index(const std::string& column_name) {
  std::string col = to_lower(column_name);
  auto idx = schema_.index_of(col);
  if (!idx) throw SqlError("create_index: unknown column " + col);
  if (indexes_.contains(col)) {
    throw SqlError("create_index: index already exists on " + col);
  }

  storage::FileId file = pool_.disk().open_file(index_path(col));
  auto tree = std::make_unique<storage::BPlusTree>(pool_, file);

  // Backfill from existing rows. Hidden primary keys are assigned in
  // insertion order, which equals heap order in this append-only engine, so
  // they can be recovered positionally.
  size_t column_pos = *idx;
  auto pk_col = schema_.primary_key_index();
  int64_t hidden_pk = 0;
  heap_->scan([&](storage::RecordId, ByteView record) {
    Row row = schema_.decode_row(record);
    int64_t pk = pk_col ? row[*pk_col].as_int64() : hidden_pk++;
    if (row[column_pos].is_null()) return;
    tree->insert(index_key_for(row[column_pos]), static_cast<uint64_t>(pk));
  });

  indexes_.emplace(col, std::move(tree));
}

void Table::attach_index(const std::string& column_name) {
  std::string col = to_lower(column_name);
  if (!schema_.index_of(col)) {
    throw SqlError("attach_index: unknown column " + col);
  }
  if (indexes_.contains(col)) return;
  storage::FileId file = pool_.disk().open_file(index_path(col));
  indexes_.emplace(col, std::make_unique<storage::BPlusTree>(pool_, file));
}

bool Table::has_index(const std::string& column_name) const {
  return indexes_.contains(to_lower(column_name));
}

const storage::BPlusTree& Table::index_for(const std::string& column_name) const {
  auto it = indexes_.find(to_lower(column_name));
  if (it == indexes_.end()) {
    throw SqlError("no index on column " + column_name);
  }
  return *it->second;
}

storage::BPlusTree& Table::index_for(const std::string& column_name) {
  return const_cast<storage::BPlusTree&>(
      static_cast<const Table*>(this)->index_for(column_name));
}

std::vector<int64_t> Table::probe_index(const std::string& column_name,
                                        const Value& v) const {
  if (v.is_null()) return {};
  auto pks = index_for(column_name).find(index_key_for(v));
  std::vector<int64_t> out;
  out.reserve(pks.size());
  for (uint64_t pk : pks) out.push_back(static_cast<int64_t>(pk));
  return out;
}

void Table::scan(const std::function<void(int64_t, const Row&)>& fn) const {
  scan_from(ScanCursor{}, fn);
}

void Table::scan_records(const std::function<void(ByteView)>& fn) const {
  heap_->scan([&](storage::RecordId, ByteView record) { fn(record); });
}

Table::ScanCursor Table::scan_from(
    const ScanCursor& from,
    const std::function<void(int64_t, const Row&)>& fn) const {
  auto pk_col = schema_.primary_key_index();
  ScanCursor at = from;
  at.next =
      heap_->scan_from(from.next, [&](storage::RecordId, ByteView record) {
        Row row = schema_.decode_row(record);
        int64_t pk = pk_col ? row[*pk_col].as_int64()
                            : static_cast<int64_t>(at.row);
        ++at.row;
        fn(pk, row);
      });
  return at;
}

uint64_t Table::data_size_bytes() const {
  return pool_.disk().file_size_bytes(heap_->file());
}

uint64_t Table::index_size_bytes() const {
  uint64_t total = pool_.disk().file_size_bytes(pk_index_->file());
  for (const auto& [col, tree] : indexes_) {
    total += pool_.disk().file_size_bytes(tree->file());
  }
  return total;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::string> out;
  out.reserve(indexes_.size());
  for (const auto& [col, tree] : indexes_) out.push_back(col);
  return out;
}

}  // namespace wre::sql
