#include "src/storage/heap_file.h"

#include <cstring>

#include "src/util/error.h"

namespace wre::storage {

// Data page layout:
//   [0..1]  u16 slot count
//   [2..3]  u16 data_low — offset of the lowest record byte; records grow
//           downward from kPageSize, slots grow upward from byte 4.
//   [4..]   slot directory: per slot, u16 offset + u16 length
//
// Metadata page (page 0) layout:
//   [0..3]  magic 'WRHP'
//   [4..11] u64 record count
//   [12..15] u32 tail page
namespace {

constexpr uint32_t kMagic = 0x57524850;  // "WRHP"
constexpr size_t kPageHeader = 4;
constexpr size_t kSlotSize = 4;

uint16_t load_u16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}
void store_u16(uint8_t* p, uint16_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
}

size_t free_space(const uint8_t* page) {
  uint16_t count = load_u16(page);
  uint16_t data_low = load_u16(page + 2);
  size_t slots_end = kPageHeader + kSlotSize * count;
  return data_low > slots_end ? data_low - slots_end : 0;
}

}  // namespace

HeapFile::HeapFile(BufferPool& pool, FileId file) : pool_(pool), file_(file) {
  load_or_init_meta();
}

void HeapFile::load_or_init_meta() {
  PageGuard meta = pool_.fetch(PageId{file_, 0});
  const uint8_t* p = meta.data();
  if (load_be32(p) == kMagic) {
    record_count_ = load_le64(p + 4);
    tail_page_ = load_le32(p + 12);
    return;
  }
  uint8_t* mp = meta.mutable_data();
  store_be32(mp, kMagic);
  record_count_ = 0;
  tail_page_ = kInvalidPage;
  meta.release();  // save_meta re-latches page 0; never hold it twice
  save_meta();
}

void HeapFile::save_meta() {
  PageGuard meta = pool_.fetch(PageId{file_, 0});
  uint8_t* p = meta.mutable_data();
  store_be32(p, kMagic);
  Bytes tmp;
  store_le64(tmp, record_count_);
  store_le32(tmp, tail_page_);
  std::memcpy(p + 4, tmp.data(), tmp.size());
}

RecordId HeapFile::append(ByteView record) {
  RecordId rid = append_record(record);
  save_meta();
  return rid;
}

std::vector<RecordId> HeapFile::append_batch(const std::vector<Bytes>& records) {
  std::vector<RecordId> rids;
  rids.reserve(records.size());
  for (const Bytes& record : records) {
    rids.push_back(append_record(record));
  }
  if (!records.empty()) save_meta();
  return rids;
}

RecordId HeapFile::append_record(ByteView record) {
  if (record.size() + kPageHeader + kSlotSize > kPageSize) {
    throw StorageError("HeapFile: record larger than a page");
  }

  PageGuard page;
  if (tail_page_ != kInvalidPage) {
    page = pool_.fetch(PageId{file_, tail_page_});
    if (free_space(page.data()) < record.size() + kSlotSize) {
      page.release();
    }
  }
  if (!page) {
    page = pool_.allocate(file_);
    uint8_t* p = page.mutable_data();
    store_u16(p, 0);
    store_u16(p + 2, static_cast<uint16_t>(kPageSize));
    tail_page_ = page.id().page;
  }

  uint8_t* p = page.mutable_data();
  uint16_t count = load_u16(p);
  uint16_t data_low = load_u16(p + 2);

  data_low = static_cast<uint16_t>(data_low - record.size());
  std::memcpy(p + data_low, record.data(), record.size());
  uint8_t* slot = p + kPageHeader + kSlotSize * count;
  store_u16(slot, data_low);
  store_u16(slot + 2, static_cast<uint16_t>(record.size()));
  store_u16(p, static_cast<uint16_t>(count + 1));
  store_u16(p + 2, data_low);

  RecordId rid{page.id().page, count};
  page.release();

  ++record_count_;
  return rid;
}

ByteView HeapFile::record_in(const uint8_t* page, uint16_t slot) {
  if (slot >= load_u16(page)) throw StorageError("HeapFile: slot out of range");
  const uint8_t* entry = page + kPageHeader + kSlotSize * slot;
  uint16_t offset = load_u16(entry);
  uint16_t length = load_u16(entry + 2);
  if (size_t{offset} + length > kPageSize) {
    throw StorageError("HeapFile: record overruns its page");
  }
  return ByteView(page + offset, length);
}

Bytes HeapFile::read(const RecordId& rid) const {
  Bytes out;
  visit(rid, [&](ByteView record) { out.assign(record.begin(), record.end()); });
  return out;
}

void HeapFile::scan(const std::function<void(RecordId, ByteView)>& fn) const {
  scan_from(kFirstRecord, fn);
}

RecordId HeapFile::scan_from(
    RecordId from, const std::function<void(RecordId, ByteView)>& fn) const {
  RecordId next = from;
  PageNumber pages = pool_.disk().page_count(file_);
  for (PageNumber pn = from.page; pn < pages; ++pn) {
    PageGuard page = pool_.fetch(PageId{file_, pn}, LatchMode::kShared);
    const uint8_t* p = page.data();
    uint16_t count = load_u16(p);
    for (uint16_t s = pn == from.page ? from.slot : 0; s < count; ++s) {
      fn(RecordId{pn, s}, record_in(p, s));
      next = RecordId{pn, static_cast<uint16_t>(s + 1)};
    }
  }
  return next;
}

PageNumber HeapFile::page_count() const {
  return pool_.disk().page_count(file_);
}

}  // namespace wre::storage
