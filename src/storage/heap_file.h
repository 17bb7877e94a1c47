// Slotted-page heap file: the row store backing each SQL table.
//
// The engine is append-only by design: the paper's evaluation workload is
// bulk load followed by read-only queries, and WRE's update story
// (Section IV, "Updates") is itself append-only — new records get a fresh
// tag and ciphertext and are appended. Nothing in the scheme requires
// in-place mutation.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/storage/buffer_pool.h"
#include "src/util/bytes.h"
#include "src/util/error.h"

namespace wre::storage {

/// Location of a record: (page number, slot within page).
struct RecordId {
  PageNumber page = kInvalidPage;
  uint16_t slot = 0;

  friend bool operator==(const RecordId&, const RecordId&) = default;

  /// Packs into a 64-bit value for storage in index leaves.
  uint64_t pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static RecordId unpack(uint64_t v) {
    return RecordId{static_cast<PageNumber>(v >> 16),
                    static_cast<uint16_t>(v & 0xffff)};
  }
};

/// Variable-length record heap over one page file.
///
/// Page 0 holds metadata (record count, tail page). Records must fit in a
/// single page (<= kPageSize - 8 bytes); the SQL layer enforces row sizes
/// well below that.
class HeapFile {
 public:
  /// Binds to `file` inside `pool`'s disk manager. A fresh file is
  /// initialized on first use; an existing file resumes from its metadata.
  HeapFile(BufferPool& pool, FileId file);

  /// Appends a record, returning its id.
  RecordId append(ByteView record);

  /// Appends every record in `records`, returning their ids in order. One
  /// metadata write covers the whole batch (append() persists the record
  /// count per call), which is the heap-file half of the bulk-ingest
  /// amortization. Equivalent to calling append() per record.
  std::vector<RecordId> append_batch(const std::vector<Bytes>& records);

  /// Reads the record at `rid`. Throws StorageError for invalid ids.
  /// Thread-safe against other readers (shared page latches).
  Bytes read(const RecordId& rid) const;

  /// read() without the copy: calls fn(record) with a view into the page,
  /// valid only during the call, while the page holds a shared latch.
  template <typename Fn>
  void visit(const RecordId& rid, Fn&& fn) const {
    if (rid.page == kInvalidPage) {
      throw StorageError("HeapFile: invalid record id");
    }
    PageGuard page = pool_.fetch(PageId{file_, rid.page}, LatchMode::kShared);
    fn(record_in(page.data(), rid.slot));
  }

  /// Position of the first record a fresh heap will hold (page 0 is
  /// metadata).
  static constexpr RecordId kFirstRecord{1, 0};

  /// Invokes fn(rid, record_bytes) for every record in file order.
  /// Thread-safe against other readers.
  void scan(const std::function<void(RecordId, ByteView)>& fn) const;

  /// scan() restricted to the records at or after `from`; returns the
  /// position just past the last record visited (`from` when none was).
  /// Appends fill the tail page and then fresh pages, so resuming at the
  /// returned position later visits exactly the records appended since.
  RecordId scan_from(RecordId from,
                     const std::function<void(RecordId, ByteView)>& fn) const;

  uint64_t record_count() const { return record_count_; }

  /// Pages occupied, including the metadata page.
  PageNumber page_count() const;

  FileId file() const { return file_; }

 private:
  /// The record in `slot` of the latched data page `page`.
  static ByteView record_in(const uint8_t* page, uint16_t slot);

  void load_or_init_meta();
  void save_meta();
  /// Places one record without persisting metadata; callers save_meta().
  RecordId append_record(ByteView record);

  BufferPool& pool_;
  FileId file_;
  uint64_t record_count_ = 0;
  PageNumber tail_page_ = kInvalidPage;  // page currently accepting appends
};

}  // namespace wre::storage
