// An immutable columnar snapshot of one table (DESIGN.md §5.9).
//
// A TableSegment is a list of sealed chunks over consecutive heap ranges:
// chunk 0 (the base) starts at the first row, and each later chunk starts
// where the one before it ends. Chunks never change once sealed. The heap
// is append-only, so a segment can fall behind its table but never
// disagree with it. extend() catches up by building a tail chunk from only
// the rows appended since; the result shares every older chunk and keeps
// the chunk count logarithmic with an inline size-tiered merge (see
// extend()). Queries hold a segment through a shared_ptr, so an extension
// triggered by a later reader never invalidates a scan already in flight.
//
// Row positions are heap order, the order Table::scan emits and the row
// path's sequential scan preserves — so a columnar scan's selection
// vector, encoded in order by wire_encode_rows() (the one way rows leave a
// segment), is byte-identical to the row path's answer. For index-probe
// plans the segment also serves the record-fetch phase: row_of_pk()
// replaces the pk-index descent + heap read + record decode with a binary
// search and a column gather (late materialization: only selected rows
// ever touch the packed payload bytes).
//
// Build and extend scan the heap, so callers hold the engine's shared
// latch (writers excluded) exactly as a sequential scan requires.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "src/columnar/column.h"
#include "src/sql/ast.h"
#include "src/sql/table.h"

namespace wre::columnar {

class TableSegment {
 public:
  /// Scans all of `t` into a single-chunk segment.
  static std::shared_ptr<const TableSegment> build(const sql::Table& t);

  /// This segment caught up with `t`: every chunk shared, plus one tail
  /// chunk built from only the rows appended since this segment was
  /// built. Then, while the newest chunk holds more than half the rows of
  /// the one before it (at least as many, when that one is the base), the
  /// two merge from their column data — the heap is never re-read. Chunk
  /// sizes therefore at least halve from the base outward, so a segment
  /// of n rows has at most ⌈log2 n⌉ + 1 chunks, and the base is rewritten
  /// only once the tail has grown to the base's size.
  std::shared_ptr<const TableSegment> extend(const sql::Table& t) const;

  uint32_t row_count() const { return row_count_; }
  size_t chunk_count() const { return chunks_.size(); }
  const sql::Schema& schema() const { return schema_; }

  /// Evaluates a predicate over every row: ascending selection of the
  /// matching positions. Column types mirror sql_equals — a probe value
  /// whose type differs from the column's declared type (or NULL) never
  /// matches.
  Selection select(const sql::Expr& expr) const;

  /// Every row (the unfiltered select_star selection).
  Selection select_all() const;

  /// Point predicate recheck at one row, without materializing values.
  bool row_matches(const sql::Expr& expr, uint32_t row) const;

  /// Late materialization straight to the network, and the segment's only
  /// way out: appends the wire encoding of every selected row, in
  /// selection order (which need not be ascending) — u32 value count, then
  /// each projected cell in sql::Value::wire_encode layout — directly from
  /// the packed columns; no sql::Value or Row is ever built. The bytes
  /// equal the row path's: the same rows read from the heap and encoded
  /// with net::WireWriter::row.
  void wire_encode_rows(const Selection& sel,
                        const std::vector<size_t>& projection,
                        Bytes* out) const;

  int64_t pk_at(uint32_t row) const;
  /// Position of the row with primary key `pk`, if present.
  std::optional<uint32_t> row_of_pk(int64_t pk) const;

  /// Resident size (memory accounting / stats).
  size_t bytes() const;

 private:
  class Chunk;

  TableSegment() = default;

  /// The chunk holding `row`, and the row's position inside it.
  std::pair<const Chunk*, uint32_t> locate(uint32_t row) const;
  /// Splits `sel` into maximal runs of positions in one chunk and calls
  /// fn(chunk, local) per run, in selection order, with `local` the run's
  /// positions rebased to the chunk. Any order works: an ascending
  /// selection gives one run per chunk. A single-chunk segment passes
  /// `sel` through untouched.
  template <typename Fn>
  void for_each_run(const Selection& sel, Fn&& fn) const;

  uint32_t row_count_ = 0;
  sql::Schema schema_;
  bool hidden_pk_ = false;
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  sql::Table::ScanCursor cursor_;  // where the next tail chunk starts
};

}  // namespace wre::columnar
