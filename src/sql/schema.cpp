#include "src/sql/schema.h"

#include <cctype>

#include "src/util/error.h"

namespace wre::sql {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].name = to_lower(columns_[i].name);
    if (columns_[i].primary_key) {
      if (pk_index_.has_value()) {
        throw SqlError("Schema: multiple PRIMARY KEY columns");
      }
      if (columns_[i].type != ValueType::kInt64) {
        throw SqlError("Schema: PRIMARY KEY must be an INTEGER column");
      }
      pk_index_ = i;
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (size_t j = i + 1; j < columns_.size(); ++j) {
      if (columns_[i].name == columns_[j].name) {
        throw SqlError("Schema: duplicate column name " + columns_[i].name);
      }
    }
  }
}

std::optional<size_t> Schema::index_of(std::string_view name) const {
  std::string lowered = to_lower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == lowered) return i;
  }
  return std::nullopt;
}

void Schema::check_row(const Row& row) const {
  if (row.size() != columns_.size()) {
    throw SqlError("row arity mismatch: expected " +
                   std::to_string(columns_.size()) + " values, got " +
                   std::to_string(row.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      if (columns_[i].primary_key) {
        throw SqlError("NULL in PRIMARY KEY column " + columns_[i].name);
      }
      continue;
    }
    if (row[i].type() != columns_[i].type) {
      throw SqlError("type mismatch in column " + columns_[i].name +
                     ": expected " + type_name(columns_[i].type) + ", got " +
                     type_name(row[i].type()));
    }
  }
}

Bytes Schema::encode_row(const Row& row) const {
  check_row(row);
  Bytes out;
  for (const Value& v : row) v.wire_encode(out);
  return out;
}

void Schema::split_record(ByteView record, CellView* cells) const {
  size_t pos = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    cells[i] = read_cell(record, pos);
  }
  if (pos != record.size()) throw SqlError("record: trailing bytes");
}

Row Schema::decode_row(ByteView record) const {
  Row row;
  row.reserve(columns_.size());
  size_t pos = 0;
  for (size_t i = 0; i < columns_.size(); ++i) {
    row.push_back(read_cell(record, pos).value());
  }
  if (pos != record.size()) throw SqlError("record: trailing bytes");
  return row;
}

void Schema::wire_encode(Bytes& out) const {
  store_le32(out, static_cast<uint32_t>(columns_.size()));
  for (const Column& col : columns_) {
    store_le32(out, static_cast<uint32_t>(col.name.size()));
    append(out, to_bytes(col.name));
    out.push_back(static_cast<uint8_t>(col.type));
    out.push_back(col.primary_key ? 1 : 0);
  }
}

Schema Schema::wire_decode(ByteView data, size_t& pos) {
  auto need = [&](size_t n) {
    if (n > data.size() || pos > data.size() - n) {
      throw SqlError("Schema: truncated wire encoding");
    }
  };
  need(4);
  uint32_t ncols = load_le32(data.data() + pos);
  pos += 4;
  // Each column occupies at least 6 bytes; an inflated count must not
  // translate into an unbounded reserve.
  if (ncols > (data.size() - pos) / 6) {
    throw SqlError("Schema: column count overruns frame");
  }
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    need(4);
    uint32_t len = load_le32(data.data() + pos);
    pos += 4;
    need(len);
    std::string name(reinterpret_cast<const char*>(data.data() + pos), len);
    pos += len;
    need(2);
    uint8_t type = data[pos++];
    if (type > static_cast<uint8_t>(ValueType::kBlob)) {
      throw SqlError("Schema: unknown column type byte " +
                     std::to_string(type));
    }
    uint8_t pk = data[pos++];
    columns.push_back(
        Column{std::move(name), static_cast<ValueType>(type), pk != 0});
  }
  return Schema(std::move(columns));
}

}  // namespace wre::sql
