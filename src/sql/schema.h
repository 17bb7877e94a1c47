// Table schemas and row (de)serialization for the heap file.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/sql/value.h"
#include "src/util/bytes.h"

namespace wre::sql {

/// Declared column type. kInt64 columns may carry PRIMARY KEY.
struct Column {
  std::string name;
  ValueType type = ValueType::kText;
  bool primary_key = false;
};

/// A materialized row.
using Row = std::vector<Value>;

/// Ordered column list. Column names are case-insensitive and stored
/// lower-cased.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t column_count() const { return columns_.size(); }
  const Column& column(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of `name` (case-insensitive), or nullopt.
  std::optional<size_t> index_of(std::string_view name) const;

  /// Index of the PRIMARY KEY column, or nullopt if none was declared.
  std::optional<size_t> primary_key_index() const { return pk_index_; }

  /// Validates that `row` matches the schema (arity and per-column type;
  /// NULL allowed in non-PK columns). Throws SqlError on mismatch.
  void check_row(const Row& row) const;

  /// Serializes a row for heap storage: its cells back to back in the
  /// Value::wire_encode layout, so a record is the body of a wire row.
  Bytes encode_row(const Row& row) const;

  /// Parses a heap record back into a row. Throws SqlError on corruption:
  /// a truncated cell, an unknown type byte, or trailing bytes.
  Row decode_row(ByteView record) const;

  /// decode_row without materializing anything: points cells[i] at column
  /// i's encoded cell inside `record`. Applies exactly decode_row's checks
  /// and throws the same SqlErrors. `cells` holds column_count() entries.
  void split_record(ByteView record, CellView* cells) const;

  /// Appends the wire encoding (column count, then per column: name,
  /// type byte, primary-key flag) to `out` — how CREATE TABLE requests and
  /// schema responses travel in the network protocol (src/net/wire.h).
  void wire_encode(Bytes& out) const;

  /// Decodes a schema starting at `data[pos]`, advancing `pos`. All reads
  /// are bounds-checked; throws SqlError on truncation or invalid content
  /// (Schema's own constructor invariants also apply).
  static Schema wire_decode(ByteView data, size_t& pos);

 private:
  std::vector<Column> columns_;
  std::optional<size_t> pk_index_;
};

/// Lower-cases an identifier (ASCII).
std::string to_lower(std::string_view s);

}  // namespace wre::sql
