// File-backed page I/O with configurable synthetic latency.
//
// The paper's testbed used an array of 10k-RPM disks; in this reproduction
// physical reads may be served from a RAM-backed filesystem, which would
// erase the cold/warm-cache effect the evaluation measures (Figures 4-7).
// DiskManager therefore supports an optional synthetic per-page read/write
// latency that models seek+transfer cost. Benches enable it; unit tests
// leave it at zero.
//
// I/O uses positioned reads/writes (pread/pwrite) on raw file descriptors,
// so any number of threads may read pages concurrently — there is no shared
// file cursor and no lock on the read path. Writes and page allocation
// follow the engine's single-writer discipline; open_file() must not race
// with I/O on the same manager.
//
// Integrity: each page is stored with a CRC32C header (kPageDiskHeaderBytes
// in page.h) covering its data image. write_page computes it, read_page
// verifies it and throws CorruptionError on mismatch — a flipped bit on the
// platter is detected at the first read instead of being served as data.
// The header is invisible above this layer: callers still see kPageSize
// byte pages, and file_size_bytes() reports the logical (data) size.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/storage/page.h"
#include "src/util/bytes.h"

namespace wre::storage {

/// I/O statistics, cumulative since construction or reset_stats().
struct DiskStats {
  uint64_t page_reads = 0;
  uint64_t page_writes = 0;
  uint64_t pages_allocated = 0;
};

/// Renders the on-disk record for one page into `out` (which must hold
/// kPhysicalPageBytes): CRC32C header followed by the kPageSize data image.
/// Shared by DiskManager and WAL replay, which writes page files directly.
void frame_page_record(const uint8_t* data, uint8_t* out);

/// Manages a set of page files. Reads are thread-safe; writes/opens are
/// single-writer (matching the engine).
class DiskManager {
 public:
  DiskManager() = default;
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating if absent) a page file and returns its handle. A fresh
  /// file is created with one page (page 0, zeroed) reserved for metadata.
  FileId open_file(const std::string& path);

  /// Number of pages currently in the file (including page 0).
  PageNumber page_count(FileId file) const;

  /// Appends a zeroed page to the file and returns its number.
  PageNumber allocate_page(FileId file);

  /// Reads/writes one full page. Throws StorageError on I/O failure or
  /// out-of-range page numbers, and CorruptionError when a read page fails
  /// its checksum. read_page is safe to call from any number of threads
  /// concurrently.
  void read_page(PageId id, uint8_t* out);
  void write_page(PageId id, const uint8_t* data);

  /// File size in bytes (page_count * kPageSize).
  uint64_t file_size_bytes(FileId file) const;

  /// Path the file was opened with.
  const std::string& file_path(FileId file) const;

  /// fsync one file / every open file. Used by checkpoint: data pages must
  /// be durable before the WAL is truncated.
  void fsync_file(FileId file);
  void fsync_all();

  /// Synthetic latency, applied once per physical page read. Zero
  /// disables it.
  void set_read_latency_micros(uint32_t us) {
    read_latency_us_.store(us, std::memory_order_relaxed);
  }

  /// Snapshot of the cumulative I/O counters.
  DiskStats stats() const;
  void reset_stats();

 private:
  struct File {
    std::string path;
    int fd = -1;
    std::atomic<PageNumber> pages{0};
  };

  File& file_at(FileId id);
  const File& file_at(FileId id) const;

  std::vector<std::unique_ptr<File>> files_;
  std::atomic<uint64_t> page_reads_{0};
  std::atomic<uint64_t> page_writes_{0};
  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint32_t> read_latency_us_{0};
};

}  // namespace wre::storage
