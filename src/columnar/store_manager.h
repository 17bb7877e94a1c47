// ColumnStoreManager: catch-up columnar snapshots of hot tables
// (DESIGN.md §5.9).
//
// The manager caches at most one TableSegment per table. Freshness is the
// row count: the heap is append-only, so a cached segment whose row count
// equals the table's is current, and one with fewer rows is a prefix of
// it. snapshot() serves the first case from cache and the second by
// TableSegment::extend (a tail chunk of only the new rows, merged inline);
// only the first use of a table, or the first after drop_all(), scans the
// whole heap. A replaced segment is only unreferenced — queries already
// scanning it keep their shared_ptr, so readers never observe a segment
// mutate.
//
// Synchronization contract: snapshot() may be called concurrently from
// any number of readers (they serialize on an internal mutex for the
// cache lookup and any build or extension); callers must hold the
// engine's shared latch so writers are excluded while the heap is read,
// exactly as a sequential scan requires.
//
// Durability composes by construction: segments live only in memory, and
// crash-recovery replay (storage::Wal::recover) runs in the Database
// constructor before any manager exists, so a post-recovery instance
// starts with no segments.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "src/columnar/segment.h"

namespace wre::columnar {

class ColumnStoreManager {
 public:
  /// A snapshot of `t` holding every row it has: the cached segment when
  /// it is current, the cached segment extended by a tail chunk when rows
  /// were appended since, a full build when nothing is cached.
  std::shared_ptr<const TableSegment> snapshot(const sql::Table& t);

  /// Drops every cached segment (cold-cache reproduction; clear_cache).
  void drop_all();

  struct Stats {
    uint64_t builds = 0;    // full heap builds
    uint64_t hits = 0;      // snapshot() served from cache as is
    uint64_t rebuilds = 0;  // full builds that replaced a cached segment
    uint64_t appends = 0;   // tail chunks built from newly appended rows
    uint64_t merges = 0;    // chunk merges those appends triggered
    size_t segments = 0;    // currently cached
    size_t bytes = 0;       // resident bytes across cached segments
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const TableSegment>> segments_;
  uint64_t builds_ = 0;
  uint64_t hits_ = 0;
  uint64_t rebuilds_ = 0;
  uint64_t appends_ = 0;
  uint64_t merges_ = 0;
};

}  // namespace wre::columnar
