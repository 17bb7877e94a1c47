#include "src/storage/disk_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "src/storage/fault_injector.h"
#include "src/util/bytes.h"
#include "src/util/crc32c.h"
#include "src/util/error.h"

namespace wre::storage {

namespace {

void synthetic_delay(uint32_t micros) {
  if (micros == 0) return;
  // sleep_for has coarse granularity for sub-millisecond delays on some
  // kernels, but the benches use it for relative comparisons only, where a
  // constant scheduling overhead per page I/O is itself realistic.
  std::this_thread::sleep_for(std::chrono::microseconds(micros));
}

/// Full-record positioned read/write of one physical page (header + data);
/// retries short transfers (signals, pipe-ish filesystems) until complete.
bool pread_page(int fd, uint8_t* out, uint64_t offset) {
  size_t done = 0;
  while (done < kPhysicalPageBytes) {
    ssize_t n = ::pread(fd, out + done, kPhysicalPageBytes - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

bool pwrite_page(int fd, const uint8_t* data, uint64_t offset) {
  size_t done = 0;
  while (done < kPhysicalPageBytes) {
    ssize_t n = ::pwrite(fd, data + done, kPhysicalPageBytes - done,
                         static_cast<off_t>(offset + done));
    if (n <= 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

uint64_t physical_offset(PageNumber page) {
  return static_cast<uint64_t>(page) * kPhysicalPageBytes;
}

}  // namespace

void frame_page_record(const uint8_t* data, uint8_t* out) {
  uint32_t crc = util::crc32c(data, kPageSize);
  store_le32(out, crc);
  store_le32(out + 4, 0);  // reserved
  std::memcpy(out + kPageDiskHeaderBytes, data, kPageSize);
}

DiskManager::~DiskManager() {
  for (auto& f : files_) {
    if (f->fd >= 0) ::close(f->fd);
  }
}

DiskManager::File& DiskManager::file_at(FileId id) {
  if (id >= files_.size()) throw StorageError("DiskManager: bad file id");
  return *files_[id];
}

const DiskManager::File& DiskManager::file_at(FileId id) const {
  if (id >= files_.size()) throw StorageError("DiskManager: bad file id");
  return *files_[id];
}

FileId DiskManager::open_file(const std::string& path) {
  auto f = std::make_unique<File>();
  f->path = path;
  f->fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (f->fd < 0) {
    throw StorageError("DiskManager: cannot open " + path);
  }
  off_t size = ::lseek(f->fd, 0, SEEK_END);
  if (size < 0) throw StorageError("DiskManager: seek failed on " + path);
  if (size % kPhysicalPageBytes != 0) {
    throw CorruptionError("DiskManager: " + path + " is " +
                          std::to_string(size) +
                          " bytes, not a multiple of the physical page size " +
                          std::to_string(kPhysicalPageBytes) +
                          " (truncated or pre-checksum format)");
  }
  f->pages.store(static_cast<PageNumber>(size / kPhysicalPageBytes),
                 std::memory_order_relaxed);

  bool fresh = f->pages.load(std::memory_order_relaxed) == 0;
  files_.push_back(std::move(f));
  FileId id = static_cast<FileId>(files_.size() - 1);

  if (fresh) {
    // Reserve page 0 as the metadata page.
    allocate_page(id);
  }
  return id;
}

PageNumber DiskManager::page_count(FileId file) const {
  return file_at(file).pages.load(std::memory_order_acquire);
}

PageNumber DiskManager::allocate_page(FileId file) {
  File& f = file_at(file);
  PageNumber page = f.pages.load(std::memory_order_relaxed);
  uint8_t zeros[kPageSize] = {0};
  uint8_t framed[kPhysicalPageBytes];
  frame_page_record(zeros, framed);
  if (!pwrite_page(f.fd, framed, physical_offset(page))) {
    throw StorageError("DiskManager: allocate failed on " + f.path);
  }
  f.pages.store(page + 1, std::memory_order_release);
  pages_allocated_.fetch_add(1, std::memory_order_relaxed);
  return page;
}

void DiskManager::read_page(PageId id, uint8_t* out) {
  File& f = file_at(id.file);
  if (id.page >= f.pages.load(std::memory_order_acquire)) {
    throw StorageError("DiskManager: read past end of " + f.path);
  }
  uint8_t framed[kPhysicalPageBytes];
  if (!pread_page(f.fd, framed, physical_offset(id.page))) {
    throw StorageError("DiskManager: read failed on " + f.path);
  }
  uint32_t stored = load_le32(framed);
  uint32_t actual = util::crc32c(framed + kPageDiskHeaderBytes, kPageSize);
  if (stored != actual) {
    throw CorruptionError(
        "DiskManager: checksum mismatch on page " + std::to_string(id.page) +
        " of " + f.path + " (stored " + std::to_string(stored) + ", data " +
        std::to_string(actual) + ") — refusing to serve corrupted data");
  }
  std::memcpy(out, framed + kPageDiskHeaderBytes, kPageSize);
  page_reads_.fetch_add(1, std::memory_order_relaxed);
  synthetic_delay(read_latency_us_.load(std::memory_order_relaxed));
}

void DiskManager::write_page(PageId id, const uint8_t* data) {
  File& f = file_at(id.file);
  if (id.page >= f.pages.load(std::memory_order_acquire)) {
    throw StorageError("DiskManager: write past end of " + f.path);
  }
  if (FaultInjector::instance().should_drop_page_write(f.path)) {
    // Injected silent write loss: the caller believes the page landed.
    // Models a flush that never reached the platter (crash-consistency
    // tests pair this with WAL replay, which must restore the page).
    page_writes_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint8_t framed[kPhysicalPageBytes];
  frame_page_record(data, framed);
  if (FaultInjector::instance().should_bitflip_page_write(f.path)) {
    // Injected silent media corruption: the checksum covers the pristine
    // image but one data bit lands inverted. Only the next read can (and
    // must) notice.
    framed[kPageDiskHeaderBytes + kPageSize / 2] ^= 0x04;
  }
  if (!pwrite_page(f.fd, framed, physical_offset(id.page))) {
    throw StorageError("DiskManager: write failed on " + f.path);
  }
  page_writes_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t DiskManager::file_size_bytes(FileId file) const {
  return static_cast<uint64_t>(page_count(file)) * kPageSize;
}

const std::string& DiskManager::file_path(FileId file) const {
  return file_at(file).path;
}

void DiskManager::fsync_file(FileId file) {
  File& f = file_at(file);
  if (::fsync(f.fd) != 0) {
    throw StorageError("DiskManager: fsync failed on " + f.path);
  }
}

void DiskManager::fsync_all() {
  for (FileId id = 0; id < files_.size(); ++id) fsync_file(id);
}

DiskStats DiskManager::stats() const {
  DiskStats s;
  s.page_reads = page_reads_.load(std::memory_order_relaxed);
  s.page_writes = page_writes_.load(std::memory_order_relaxed);
  s.pages_allocated = pages_allocated_.load(std::memory_order_relaxed);
  return s;
}

void DiskManager::reset_stats() {
  page_reads_.store(0, std::memory_order_relaxed);
  page_writes_.store(0, std::memory_order_relaxed);
  pages_allocated_.store(0, std::memory_order_relaxed);
}

}  // namespace wre::storage
