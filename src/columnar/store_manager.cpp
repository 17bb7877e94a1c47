#include "src/columnar/store_manager.h"

namespace wre::columnar {

std::shared_ptr<const TableSegment> ColumnStoreManager::snapshot(
    const sql::Table& t) {
  const uint64_t rows = t.row_count();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = segments_.find(t.name());
  const TableSegment* cached =
      it == segments_.end() ? nullptr : it->second.get();
  if (cached != nullptr && cached->row_count() == rows) {
    ++hits_;
    return it->second;
  }
  std::shared_ptr<const TableSegment> seg;
  if (cached != nullptr && cached->row_count() < rows) {
    seg = cached->extend(t);
    ++appends_;
    merges_ += cached->chunk_count() + 1 - seg->chunk_count();
  } else {
    // Nothing cached — or a segment with more rows than the table, which
    // an append-only heap cannot produce for the table it was built from.
    seg = TableSegment::build(t);
    ++builds_;
    if (cached != nullptr) ++rebuilds_;
  }
  segments_[t.name()] = seg;  // a replaced segment stays alive for readers
  return seg;
}

void ColumnStoreManager::drop_all() {
  std::lock_guard<std::mutex> lock(mu_);
  segments_.clear();
}

ColumnStoreManager::Stats ColumnStoreManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.builds = builds_;
  s.hits = hits_;
  s.rebuilds = rebuilds_;
  s.appends = appends_;
  s.merges = merges_;
  s.segments = segments_.size();
  for (const auto& [name, seg] : segments_) s.bytes += seg->bytes();
  return s;
}

}  // namespace wre::columnar
