#include "src/columnar/segment.h"

#include <algorithm>
#include <cstring>
#include <variant>

#include "src/util/error.h"

namespace wre::columnar {

namespace {

using AnyColumn = std::variant<Int64Column, BytesColumn>;

/// Per-column dictionary cardinality cap; above it a column falls back to
/// the plain dense layout.
constexpr size_t kDictMax = size_t{1} << 16;

/// Merge-intersects two ascending selections.
Selection intersect(const Selection& a, const Selection& b) {
  Selection out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Merge-unions two ascending selections.
Selection unite(const Selection& a, const Selection& b) {
  Selection out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

/// TEXT and BLOB values as the byte strings a BytesColumn stores.
std::string_view bytes_of(const sql::Value& v) {
  if (v.type() == sql::ValueType::kText) return v.as_text();
  const Bytes& b = v.as_blob();
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

void append_value(AnyColumn& column, const sql::Value& v) {
  std::visit(
      [&](auto& col) {
        using C = std::decay_t<decltype(col)>;
        if (v.is_null()) {
          col.append_null();
        } else if constexpr (std::is_same_v<C, Int64Column>) {
          col.append(v.as_int64());
        } else {
          col.append(bytes_of(v));
        }
      },
      column);
}

/// Appends every row of the sealed column `src` to the same-typed `dst`.
void append_column(const AnyColumn& src, AnyColumn& dst) {
  std::visit(
      [&](auto& d) {
        using C = std::decay_t<decltype(d)>;
        const C& s = std::get<C>(src);
        for (uint32_t row = 0; row < s.size(); ++row) {
          if (s.is_null(row)) {
            d.append_null();
          } else {
            d.append(s.at(row));
          }
        }
      },
      dst);
}

/// Point recheck of one equality/IN leaf at one row.
bool leaf_matches(const AnyColumn& column, const sql::Expr& leaf,
                  uint32_t row) {
  return std::visit(
      [&](const auto& col) {
        using C = std::decay_t<decltype(col)>;
        for (const sql::Value& v : leaf.values) {
          if constexpr (std::is_same_v<C, Int64Column>) {
            if (v.type() != sql::ValueType::kInt64) continue;
            int64_t p = v.as_int64();
            if (col.matches(row, &p, 1)) return true;
          } else {
            if (v.type() != col.value_type()) continue;
            std::string_view p = bytes_of(v);
            if (col.matches(row, &p, 1)) return true;
          }
        }
        return false;
      },
      column);
}

}  // namespace

/// Rows [first_row, first_row + rows) of the table, sealed. Immutable once
/// built; segments share chunks through shared_ptr.
class TableSegment::Chunk {
 public:
  Chunk(const sql::Schema& schema, uint32_t first, size_t rows_hint)
      : first_row(first) {
    columns.reserve(schema.column_count());
    for (size_t c = 0; c < schema.column_count(); ++c) {
      if (schema.column(c).type == sql::ValueType::kInt64) {
        columns.emplace_back(std::in_place_type<Int64Column>);
      } else {
        columns.emplace_back(std::in_place_type<BytesColumn>,
                             schema.column(c).type);
      }
      std::visit([&](auto& col) { col.reserve(rows_hint); }, columns.back());
    }
  }

  /// The table's rows from `*cursor` on; advances `*cursor` past them.
  static std::shared_ptr<const Chunk> from_heap(const sql::Table& t,
                                                sql::Table::ScanCursor* cursor) {
    auto chunk = std::make_shared<Chunk>(
        t.schema(), static_cast<uint32_t>(cursor->row),
        static_cast<size_t>(t.row_count() - cursor->row));
    *cursor = t.scan_from(*cursor, [&](int64_t, const sql::Row& row) {
      for (size_t c = 0; c < chunk->columns.size(); ++c) {
        append_value(chunk->columns[c], row[c]);
      }
      ++chunk->rows;
    });
    for (auto& col : chunk->columns) {
      std::visit([&](auto& c) { c.seal(kDictMax); }, col);
    }
    chunk->index_pks(t.schema());
    return chunk;
  }

  /// One chunk holding `older`'s rows followed by `newer`'s, rebuilt from
  /// their column data. Each column is sealed as soon as it is filled, so
  /// build slack is held for one column at a time.
  static std::shared_ptr<const Chunk> merge(const Chunk& older,
                                            const Chunk& newer,
                                            const sql::Schema& schema) {
    auto chunk = std::make_shared<Chunk>(schema, older.first_row,
                                         older.rows + newer.rows);
    for (size_t c = 0; c < chunk->columns.size(); ++c) {
      append_column(older.columns[c], chunk->columns[c]);
      append_column(newer.columns[c], chunk->columns[c]);
      std::visit([&](auto& col) { col.seal(kDictMax); },
                 chunk->columns[c]);
    }
    chunk->rows = older.rows + newer.rows;
    chunk->index_pks(schema);
    return chunk;
  }

  void wire_encode_rows(const Selection& sel,
                        const std::vector<size_t>& projection,
                        Bytes* out) const;

  std::optional<uint32_t> row_of_pk(int64_t pk) const {
    auto it = std::lower_bound(
        pk_sorted.begin(), pk_sorted.end(), pk,
        [](const std::pair<int64_t, uint32_t>& e, int64_t key) {
          return e.first < key;
        });
    if (it == pk_sorted.end() || it->first != pk) return std::nullopt;
    return it->second;
  }

  size_t bytes() const {
    size_t total =
        pk_sorted.capacity() * sizeof(std::pair<int64_t, uint32_t>);
    for (const auto& col : columns) {
      total += std::visit([](const auto& c) { return c.bytes(); }, col);
    }
    return total;
  }

  uint32_t first_row = 0;
  uint32_t rows = 0;
  std::vector<AnyColumn> columns;
  // (pk, row) sorted by pk, for the record-fetch phase. Tables with a
  // hidden pk use position == pk and keep it empty.
  std::vector<std::pair<int64_t, uint32_t>> pk_sorted;

 private:
  void index_pks(const sql::Schema& schema) {
    auto pk_col = schema.primary_key_index();
    if (!pk_col) return;
    const auto& pks = std::get<Int64Column>(columns[*pk_col]);
    pk_sorted.reserve(rows);
    for (uint32_t i = 0; i < rows; ++i) pk_sorted.emplace_back(pks.at(i), i);
    std::sort(pk_sorted.begin(), pk_sorted.end());
  }
};

void TableSegment::Chunk::wire_encode_rows(
    const Selection& sel, const std::vector<size_t>& projection,
    Bytes* out) const {
  // Column at a time: each pass streams through one column's arrays
  // instead of hopping across every projected column per row. The sizing
  // pass gives each row its exact byte range, so the write pass fills a
  // single resize through per-row cursors. It runs in blocks of rows, so
  // the output bytes the column passes revisit stay in cache.
  const size_t n = sel.size();
  std::vector<size_t> cursor(n, 4 + projection.size());  // arity + types
  for (size_t c : projection) {
    std::visit(
        [&](const auto& col) {
          using C = std::decay_t<decltype(col)>;
          const bool nulls = col.has_nulls();
          for (size_t i = 0; i < n; ++i) {
            const uint32_t row = sel[i];
            if (nulls && col.is_null(row)) continue;
            if constexpr (std::is_same_v<C, Int64Column>) {
              cursor[i] += 8;
            } else {
              cursor[i] += 4 + col.at(row).size();
            }
          }
        },
        columns[c]);
  }
  size_t at = out->size();
  for (size_t& c : cursor) {  // row sizes -> each row's first byte
    const size_t size = c;
    c = at;
    at += size;
  }
  out->resize(at);
  uint8_t* p = out->data();

  constexpr size_t kBlockRows = 128;
  const uint32_t arity = static_cast<uint32_t>(projection.size());
  for (size_t first = 0; first < n; first += kBlockRows) {
    const size_t last = std::min(n, first + kBlockRows);
    for (size_t i = first; i < last; ++i) {
      store_le32(p + cursor[i], arity);
      cursor[i] += 4;
    }
    for (size_t c : projection) {
      std::visit(
          [&](const auto& col) {
            using C = std::decay_t<decltype(col)>;
            const bool nulls = col.has_nulls();
            uint8_t type = static_cast<uint8_t>(sql::ValueType::kInt64);
            if constexpr (std::is_same_v<C, BytesColumn>) {
              type = static_cast<uint8_t>(col.value_type());
            }
            for (size_t i = first; i < last; ++i) {
              const uint32_t row = sel[i];
              uint8_t* q = p + cursor[i];
              if (nulls && col.is_null(row)) {
                *q = static_cast<uint8_t>(sql::ValueType::kNull);
                cursor[i] += 1;
                continue;
              }
              *q = type;
              if constexpr (std::is_same_v<C, Int64Column>) {
                store_le64(q + 1, static_cast<uint64_t>(col.at(row)));
                cursor[i] += 9;
              } else {
                std::string_view v = col.at(row);
                store_le32(q + 1, static_cast<uint32_t>(v.size()));
                std::memcpy(q + 5, v.data(), v.size());
                cursor[i] += 5 + v.size();
              }
            }
          },
          columns[c]);
    }
  }
}

// ------------------------------------------------------------ TableSegment

std::shared_ptr<const TableSegment> TableSegment::build(
    const sql::Table& t) {
  auto seg = std::shared_ptr<TableSegment>(new TableSegment());
  seg->schema_ = t.schema();
  seg->hidden_pk_ = !seg->schema_.primary_key_index().has_value();
  seg->chunks_.push_back(Chunk::from_heap(t, &seg->cursor_));
  seg->row_count_ = static_cast<uint32_t>(seg->cursor_.row);
  return seg;
}

std::shared_ptr<const TableSegment> TableSegment::extend(
    const sql::Table& t) const {
  auto seg = std::shared_ptr<TableSegment>(new TableSegment(*this));
  auto tail = Chunk::from_heap(t, &seg->cursor_);
  if (tail->rows == 0) return seg;
  seg->row_count_ = static_cast<uint32_t>(seg->cursor_.row);
  std::vector<std::shared_ptr<const Chunk>>& chunks = seg->chunks_;
  chunks.push_back(std::move(tail));
  while (chunks.size() >= 2) {
    const Chunk& older = *chunks[chunks.size() - 2];
    const Chunk& newer = *chunks.back();
    const bool merge = chunks.size() == 2
                           ? newer.rows >= older.rows
                           : uint64_t{2} * newer.rows > older.rows;
    if (!merge) break;
    auto merged = Chunk::merge(older, newer, schema_);
    chunks.pop_back();
    chunks.back() = std::move(merged);
  }
  return seg;
}

std::pair<const TableSegment::Chunk*, uint32_t> TableSegment::locate(
    uint32_t row) const {
  if (chunks_.size() == 1) return {chunks_.front().get(), row};
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), row,
      [](uint32_t r, const std::shared_ptr<const Chunk>& c) {
        return r < c->first_row;
      });
  const Chunk* chunk = std::prev(it)->get();
  return {chunk, row - chunk->first_row};
}

template <typename Fn>
void TableSegment::for_each_run(const Selection& sel, Fn&& fn) const {
  if (chunks_.size() == 1) {
    fn(*chunks_.front(), sel);
    return;
  }
  Selection local;
  for (size_t i = 0; i < sel.size();) {
    const Chunk* chunk = locate(sel[i]).first;
    const uint32_t first = chunk->first_row;
    const uint32_t end = first + chunk->rows;
    local.clear();
    for (; i < sel.size() && sel[i] >= first && sel[i] < end; ++i) {
      local.push_back(sel[i] - first);
    }
    fn(*chunk, local);
  }
}

Selection TableSegment::select_all() const {
  Selection out(row_count_);
  for (uint32_t i = 0; i < row_count_; ++i) out[i] = i;
  return out;
}

Selection TableSegment::select(const sql::Expr& expr) const {
  switch (expr.kind) {
    case sql::Expr::Kind::kEquals:
    case sql::Expr::Kind::kIn: {
      auto idx = schema_.index_of(expr.column);
      if (!idx) throw SqlError("unknown column " + expr.column);
      // Only probes of the column's declared type can match (sql_equals is
      // false across types and for NULL).
      const sql::ValueType type = schema_.column(*idx).type;
      std::vector<int64_t> ints;
      std::vector<std::string_view> strings;
      for (const sql::Value& v : expr.values) {
        if (v.type() != type) continue;
        if (type == sql::ValueType::kInt64) {
          ints.push_back(v.as_int64());
        } else {
          strings.push_back(bytes_of(v));
        }
      }
      Selection out;
      for (const auto& chunk : chunks_) {
        const size_t from = out.size();
        const AnyColumn& column = chunk->columns[*idx];
        if (const auto* col = std::get_if<Int64Column>(&column)) {
          col->scan_in(ints.data(), ints.size(), &out);
        } else {
          std::get<BytesColumn>(column).scan_in(strings.data(),
                                                strings.size(), &out);
        }
        if (chunk->first_row == 0) continue;
        for (size_t i = from; i < out.size(); ++i) out[i] += chunk->first_row;
      }
      return out;
    }
    case sql::Expr::Kind::kAnd: {
      Selection out = select(expr.children.front());
      for (size_t i = 1; i < expr.children.size() && !out.empty(); ++i) {
        out = intersect(out, select(expr.children[i]));
      }
      return out;
    }
    case sql::Expr::Kind::kOr: {
      Selection out;
      for (const sql::Expr& child : expr.children) {
        out = unite(out, select(child));
      }
      return out;
    }
  }
  throw SqlError("columnar select: corrupt expression");
}

bool TableSegment::row_matches(const sql::Expr& expr, uint32_t row) const {
  switch (expr.kind) {
    case sql::Expr::Kind::kEquals:
    case sql::Expr::Kind::kIn: {
      auto idx = schema_.index_of(expr.column);
      if (!idx) throw SqlError("unknown column " + expr.column);
      auto [chunk, local] = locate(row);
      return leaf_matches(chunk->columns[*idx], expr, local);
    }
    case sql::Expr::Kind::kAnd:
      return std::all_of(
          expr.children.begin(), expr.children.end(),
          [&](const sql::Expr& c) { return row_matches(c, row); });
    case sql::Expr::Kind::kOr:
      return std::any_of(
          expr.children.begin(), expr.children.end(),
          [&](const sql::Expr& c) { return row_matches(c, row); });
  }
  throw SqlError("columnar row_matches: corrupt expression");
}

void TableSegment::wire_encode_rows(const Selection& sel,
                                    const std::vector<size_t>& projection,
                                    Bytes* out) const {
  for_each_run(sel, [&](const Chunk& chunk, const Selection& local) {
    chunk.wire_encode_rows(local, projection, out);
  });
}

int64_t TableSegment::pk_at(uint32_t row) const {
  if (hidden_pk_) return static_cast<int64_t>(row);
  auto [chunk, local] = locate(row);
  return std::get<Int64Column>(chunk->columns[*schema_.primary_key_index()])
      .at(local);
}

std::optional<uint32_t> TableSegment::row_of_pk(int64_t pk) const {
  if (hidden_pk_) {
    if (pk < 0 || static_cast<uint64_t>(pk) >= row_count_) {
      return std::nullopt;
    }
    return static_cast<uint32_t>(pk);
  }
  for (const auto& chunk : chunks_) {
    if (auto local = chunk->row_of_pk(pk)) return chunk->first_row + *local;
  }
  return std::nullopt;
}

size_t TableSegment::bytes() const {
  size_t total = 0;
  for (const auto& chunk : chunks_) total += chunk->bytes();
  return total;
}

}  // namespace wre::columnar
