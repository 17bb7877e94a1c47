// A statement's answer and its one wire form: the kOkResult body of the
// network protocol (src/net/wire.h). This module is the only place that
// layout is written and read:
//
//   u32 column count, then each column name as u32 length + bytes
//   u32 row count, then each row as u32 cell count + its cells in
//       Value::wire_encode layout (a heap record is the body of a row)
//   25-byte counter trailer: u64 rows_affected, u64 index_probes,
//       u64 heap_fetches, u8 used_index
//
// ResultSet::wire_encode and Database::execute_select_wire both write the
// envelope through begin_result_body/end_result_body, and
// ResultSet::wire_decode is the one decoder, for the client and for
// Database::execute_select alike.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/sql/schema.h"
#include "src/util/bytes.h"

namespace wre::sql {

/// Result of a SELECT (other statements return an empty set with
/// `rows_affected` filled in).
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  uint64_t rows_affected = 0;

  /// Executor counters for the run that produced this result.
  uint64_t index_probes = 0;   // B+-tree equality probes issued
  uint64_t heap_fetches = 0;   // heap records read (and rechecked)
  bool used_index = false;     // false = sequential scan
  /// Columnar-path counters. Local only: they are not part of the wire
  /// form, so Database::execute_select sets them from its own run after
  /// decoding, and a decoded remote answer leaves them at zero.
  bool used_columnar = false;   // scan/fetch served from the column store
  uint64_t columnar_rows = 0;   // rows written from a column segment

  /// Appends the wire form (layout above) to `out`.
  void wire_encode(Bytes& out) const;

  /// Decodes a wire form starting at `data[pos]`, advancing `pos` past it.
  /// Every read is bounds-checked; throws SqlError on truncation, on a
  /// column, row or cell count that overruns the input (checked before
  /// anything is allocated for it), on a row whose cell count differs
  /// from the column count, and on a malformed cell (read_cell).
  static ResultSet wire_decode(ByteView data, size_t& pos);
};

/// Bytes of the counter trailer that ends every wire form.
inline constexpr size_t kResultTrailerBytes = 25;

/// Appends the head of a wire form to `out`: the column names, then a row
/// count of zero for end_result_body to patch. Returns the row count's
/// offset in `out`. The caller appends the rows in between.
size_t begin_result_body(const std::vector<std::string>& columns, Bytes& out);

/// Ends the wire form whose row count sits at `count_at`: sets that count
/// to `rows` and appends the trailer from `counters`' rows_affected,
/// index_probes, heap_fetches and used_index.
void end_result_body(size_t count_at, uint32_t rows,
                     const ResultSet& counters, Bytes& out);

}  // namespace wre::sql
