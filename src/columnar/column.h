// Dictionary-compressed immutable column vectors for the in-memory
// columnar ciphertext store (DESIGN.md §5.9).
//
// A column is built once (append per row, then seal) and never mutated
// afterwards — new rows go into a new segment chunk, and merging chunks
// builds a new column from the sealed ones. seal() picks the layout:
//
//   dictionary  distinct values <= dict_max AND each value repeated twice
//               on average (compression must pay): a sorted dictionary
//               plus one uint32 code per row. WRE tag columns compress
//               extremely well here — a Poisson-1000 salt set over 50
//               plaintexts is ~50k distinct 64-bit tags no matter how many
//               rows carry them. Scans probe the dictionary once (binary
//               search) and then compare 4-byte codes, not 8-byte values
//               or strings.
//   plain       high-cardinality fallback: the raw values, densely packed
//               (int64 array / packed bytes + offsets) in heap order.
//               Encrypted payload columns land here — every AES-CTR
//               ciphertext is unique, so codes would gain nothing and a
//               dictionary gather would cost a cache miss per row — and
//               stay packed and undecrypted until a selected row is
//               materialized (sequentially, for a scan).
//
// NULLs: rows with NULL get the reserved code `dict size` in dictionary
// layout (the probe bitmap has a never-set slot for it) and a bit in a
// packed null bitmap in plain layout. SQL NULL never equals anything, so
// scan kernels simply never select a NULL row.
//
// Scan kernels take a probe list and append matching row positions to a
// selection vector in ascending order. The hot loops are branch-light
// compares over dense arrays, written so the compiler auto-vectorizes
// them (no gather/scatter, no per-iteration allocation).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/sql/value.h"
#include "src/util/bytes.h"

namespace wre::columnar {

/// Ascending row positions selected by a scan.
using Selection = std::vector<uint32_t>;

/// Layout chosen by seal().
enum class ColumnLayout : uint8_t { kDictionary, kPlain };

namespace detail {
inline bool get_bit(const std::vector<uint64_t>& words, size_t i) {
  size_t w = i / 64;
  return w < words.size() && (words[w] >> (i % 64)) & 1;
}
}  // namespace detail

/// Fixed-width INTEGER column: search tags, primary keys, zip codes.
class Int64Column {
 public:
  void reserve(size_t rows) { raw_.reserve(rows); }
  void append(int64_t v);
  void append_null();

  /// Freezes the column, choosing dictionary layout when the number of
  /// distinct values is at most `dict_max`, and trims build-time slack.
  void seal(size_t dict_max);

  size_t size() const { return row_count_; }
  ColumnLayout layout() const { return layout_; }
  size_t dictionary_size() const { return dict_.size(); }
  bool has_nulls() const { return has_nulls_; }
  size_t bytes() const;

  /// Appends the positions of rows equal to any probe to `out`, in
  /// ascending order. NULL rows never match.
  void scan_in(const int64_t* probes, size_t n, Selection* out) const;

  /// True when the row equals any probe (point recheck; NULL never matches).
  bool matches(uint32_t row, const int64_t* probes, size_t n) const;

  // Per-cell accessors are inline: materialization and wire encoding call
  // them once per selected cell in their hot loops.
  bool is_null(uint32_t row) const {
    if (layout_ == ColumnLayout::kDictionary) {
      return codes_[row] == dict_.size();
    }
    return has_nulls_ && detail::get_bit(null_words_, row);
  }
  /// Value of a non-NULL row.
  int64_t at(uint32_t row) const {
    if (layout_ == ColumnLayout::kDictionary) return dict_[codes_[row]];
    return raw_[row];
  }

 private:
  // Build state (cleared by seal except when the plain layout keeps raw_).
  std::vector<int64_t> raw_;
  std::vector<uint64_t> null_words_;  // bit-packed; empty when no NULLs
  size_t row_count_ = 0;
  bool has_nulls_ = false;

  ColumnLayout layout_ = ColumnLayout::kPlain;
  std::vector<int64_t> dict_;    // sorted distinct values
  std::vector<uint32_t> codes_;  // per row; NULL rows hold dict_.size()
};

/// Variable-width TEXT/BLOB column: packed bytes + offsets, optionally
/// dictionary-compressed. Encrypted payload columns (ciphertexts) always
/// take the plain layout and stay packed until materialization.
class BytesColumn {
 public:
  explicit BytesColumn(sql::ValueType type) : type_(type) {}

  void reserve(size_t rows) { offsets_.reserve(rows + 1); }

  void append(std::string_view v);
  void append_null();
  void seal(size_t dict_max);

  size_t size() const { return row_count_; }
  ColumnLayout layout() const { return layout_; }
  size_t dictionary_size() const { return dict_offsets_.empty() ? 0 : dict_offsets_.size() - 1; }
  bool has_nulls() const { return has_nulls_; }
  size_t bytes() const;
  sql::ValueType value_type() const { return type_; }

  void scan_in(const std::string_view* probes, size_t n, Selection* out) const;
  bool matches(uint32_t row, const std::string_view* probes, size_t n) const;

  bool is_null(uint32_t row) const {
    if (layout_ == ColumnLayout::kDictionary) {
      return codes_[row] == dictionary_size();
    }
    return has_nulls_ && detail::get_bit(null_words_, row);
  }
  /// Bytes of a non-NULL row (borrowed from the packed buffer).
  std::string_view at(uint32_t row) const {
    if (layout_ == ColumnLayout::kDictionary) return dict_entry(codes_[row]);
    const char* base = reinterpret_cast<const char*>(packed_.data());
    return {base + offsets_[row],
            static_cast<size_t>(offsets_[row + 1] - offsets_[row])};
  }

 private:
  std::string_view dict_entry(uint32_t code) const {
    const char* base = reinterpret_cast<const char*>(dict_packed_.data());
    return {base + dict_offsets_[code],
            static_cast<size_t>(dict_offsets_[code + 1] - dict_offsets_[code])};
  }

  sql::ValueType type_;
  std::vector<uint8_t> packed_;    // plain layout: all row bytes, dense
  std::vector<uint64_t> offsets_;  // plain layout: row i = [offsets_[i], offsets_[i+1])
  std::vector<uint64_t> null_words_;
  size_t row_count_ = 0;
  bool has_nulls_ = false;

  ColumnLayout layout_ = ColumnLayout::kPlain;
  std::vector<uint8_t> dict_packed_;     // sorted distinct byte strings
  std::vector<uint64_t> dict_offsets_;   // dict entry i = [i, i+1)
  std::vector<uint32_t> codes_;          // per row; NULL rows hold dict size
};

}  // namespace wre::columnar
