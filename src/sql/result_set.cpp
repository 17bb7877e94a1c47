#include "src/sql/result_set.h"

#include "src/util/error.h"

namespace wre::sql {

size_t begin_result_body(const std::vector<std::string>& columns,
                         Bytes& out) {
  store_le32(out, static_cast<uint32_t>(columns.size()));
  for (const std::string& name : columns) {
    store_le32(out, static_cast<uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
  }
  const size_t count_at = out.size();
  store_le32(out, 0);
  return count_at;
}

void end_result_body(size_t count_at, uint32_t rows,
                     const ResultSet& counters, Bytes& out) {
  store_le32(out.data() + count_at, rows);
  store_le64(out, counters.rows_affected);
  store_le64(out, counters.index_probes);
  store_le64(out, counters.heap_fetches);
  out.push_back(counters.used_index ? 1 : 0);
}

void ResultSet::wire_encode(Bytes& out) const {
  const size_t count_at = begin_result_body(columns, out);
  for (const Row& row : rows) {
    store_le32(out, static_cast<uint32_t>(row.size()));
    for (const Value& v : row) v.wire_encode(out);
  }
  end_result_body(count_at, static_cast<uint32_t>(rows.size()), *this, out);
}

ResultSet ResultSet::wire_decode(ByteView data, size_t& pos) {
  auto need = [&](size_t n) {
    if (n > data.size() - pos) {
      throw SqlError("result: truncated body (need " + std::to_string(n) +
                     " bytes, have " + std::to_string(data.size() - pos) +
                     ")");
    }
  };
  auto u32 = [&] {
    need(4);
    const uint32_t v = load_le32(data.data() + pos);
    pos += 4;
    return v;
  };
  auto u64 = [&] {
    need(8);
    const uint64_t v = load_le64(data.data() + pos);
    pos += 8;
    return v;
  };

  ResultSet rs;
  const uint32_t ncols = u32();
  if (ncols > (data.size() - pos) / 4) {  // each name carries a u32 length
    throw SqlError("result: column count overruns body");
  }
  rs.columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    const uint32_t len = u32();
    need(len);
    rs.columns.emplace_back(reinterpret_cast<const char*>(data.data() + pos),
                            len);
    pos += len;
  }
  const uint32_t nrows = u32();
  if (nrows > (data.size() - pos) / 4) {  // each row carries a u32 count
    throw SqlError("result: row count overruns body");
  }
  rs.rows.reserve(nrows);
  for (uint32_t i = 0; i < nrows; ++i) {
    const uint32_t n = u32();
    if (n > data.size() - pos) {  // each cell is at least its type byte
      throw SqlError("result: row cell count overruns body");
    }
    if (n != ncols) {
      throw SqlError("result: row " + std::to_string(i) + " has " +
                     std::to_string(n) + " values for " +
                     std::to_string(ncols) + " columns");
    }
    Row& row = rs.rows.emplace_back();
    row.reserve(n);
    for (uint32_t c = 0; c < n; ++c) {
      row.push_back(read_cell(data, pos).value());
    }
  }
  rs.rows_affected = u64();
  rs.index_probes = u64();
  rs.heap_fetches = u64();
  need(1);
  rs.used_index = data[pos++] != 0;
  return rs;
}

}  // namespace wre::sql
