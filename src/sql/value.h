// Typed SQL values. The engine supports the column types the paper's
// evaluation needs: 64-bit integers (search tags, ids, zip codes), text
// (plaintext columns) and blobs (AES-CTR ciphertexts).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "src/util/bytes.h"

namespace wre::sql {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kText = 2,
  kBlob = 3,
};

/// Returns a human-readable type name ("INTEGER", "TEXT", ...).
const char* type_name(ValueType t);

/// A dynamically typed SQL value with value semantics.
class Value {
 public:
  Value() : data_(std::monostate{}) {}

  static Value null() { return Value(); }
  static Value int64(int64_t v) { return Value(v); }
  /// Bit-casts an unsigned 64-bit tag into the INTEGER domain.
  static Value tag(uint64_t v) { return Value(static_cast<int64_t>(v)); }
  static Value text(std::string v) { return Value(std::move(v)); }
  static Value blob(Bytes v) { return Value(std::move(v)); }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors. Throw SqlError on type mismatch.
  int64_t as_int64() const;
  uint64_t as_tag() const { return static_cast<uint64_t>(as_int64()); }
  const std::string& as_text() const;
  const Bytes& as_blob() const;

  /// SQL equality: NULL never equals anything (including NULL).
  bool sql_equals(const Value& other) const;

  /// Renders the value as a SQL literal (NULL, 42, 'escaped text', X'hex').
  std::string to_sql_literal() const;

  /// Appends the cell encoding to `out`: a type byte, then for kInt64 the
  /// 8-byte little-endian value, for kText/kBlob a 32-bit little-endian
  /// length followed by the raw bytes (kNull has no payload). This one
  /// codec is both the heap record layout (Schema::encode_row) and the row
  /// serialization the network protocol (src/net/wire.h) traffics in, so a
  /// stored record is already the body of a wire row.
  void wire_encode(Bytes& out) const;

  /// Decodes one value starting at `data[pos]`, advancing `pos` past it.
  /// Every read is bounds-checked against `data`; throws SqlError on a
  /// truncated buffer, an unknown type byte, or a length that overruns the
  /// input — a malformed frame must never read out of bounds or over-alloc.
  static Value wire_decode(ByteView data, size_t& pos);

  /// Exact structural comparison (used by tests and containers).
  friend bool operator==(const Value&, const Value&) = default;
  /// Total order: by type (NULL < INTEGER < TEXT < BLOB), then by value
  /// (bytewise for TEXT and BLOB). Lets callers sort and dedupe values
  /// without rendering them.
  friend std::strong_ordering operator<=>(const Value&,
                                          const Value&) = default;

 private:
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(Bytes v) : data_(std::move(v)) {}

  std::variant<std::monostate, int64_t, std::string, Bytes> data_;
};

/// One encoded cell (Value::wire_encode layout), viewed in place inside a
/// heap record or a frame. Valid only while the underlying bytes are.
struct CellView {
  const uint8_t* begin = nullptr;  // the type byte
  size_t size = 0;                 // encoded bytes, type byte included

  ValueType type() const { return static_cast<ValueType>(*begin); }
  /// The whole encoded cell, ready to append to a wire row.
  ByteView encoded() const { return {begin, size}; }
  /// Payload accessors; the caller has checked type().
  int64_t int64() const;
  std::string_view bytes() const;  // kText / kBlob payload

  /// Value::sql_equals(cell, v) without materializing the cell.
  bool sql_equals(const Value& v) const;
  /// Materializes the cell.
  Value value() const;
};

/// Reads the cell starting at `data[pos]` and advances `pos` past it. Every
/// read is bounds-checked against `data`; throws SqlError on a truncated
/// cell or an unknown type byte. The decoder half of the cell codec: both
/// Value::wire_decode and Schema::decode_row/split_record are built on it.
CellView read_cell(ByteView data, size_t& pos);

}  // namespace wre::sql
