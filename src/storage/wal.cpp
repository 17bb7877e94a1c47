#include "src/storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>

#include "src/storage/disk_manager.h"
#include "src/storage/fault_injector.h"
#include "src/util/crc32c.h"
#include "src/util/error.h"

namespace wre::storage {

namespace {

constexpr char kMagic[8] = {'W', 'R', 'E', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = 16;  // magic + u64 segment_seq
constexpr size_t kFrameBytes = 8;    // u32 crc + u32 body_len
/// Upper bound on one record body; anything larger in a length prefix is
/// corruption, not data (a page image — the largest record — is ~4.1 KiB).
constexpr uint32_t kMaxBodyBytes = 1u << 20;

void store_u16(Bytes& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v & 0xff));
  out.push_back(static_cast<uint8_t>(v >> 8));
}

std::string segment_name(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Appends one framed record (crc | len | type | payload) to `out`.
void frame_record(Bytes& out, WalRecordType type, ByteView payload) {
  // Writer-side enforcement of the recovery-side bound: next_record()
  // treats any length prefix over kMaxBodyBytes as corruption and truncates
  // the tail there, so a larger record (an enormous catalog is the only
  // unbounded one) must fail the commit loudly now — otherwise it would be
  // acknowledged and then silently discarded, along with every commit
  // after it, on the next recovery.
  if (payload.size() >= kMaxBodyBytes) {
    throw StorageError("wal: record exceeds maximum body size");
  }
  Bytes body;
  body.reserve(1 + payload.size());
  body.push_back(static_cast<uint8_t>(type));
  append(body, payload);
  store_le32(out, util::crc32c(body));
  store_le32(out, static_cast<uint32_t>(body.size()));
  append(out, body);
}

void frame_name(Bytes& payload, const std::string& name) {
  if (name.size() > UINT16_MAX) {
    throw StorageError("wal: file name too long: " + name);
  }
  store_u16(payload, static_cast<uint16_t>(name.size()));
  append(payload, to_bytes(name));
}

void fsync_fd(int fd, const std::string& what) {
  if (::fdatasync(fd) != 0) {
    throw StorageError("wal: fdatasync failed on " + what);
  }
}

void fsync_path(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;  // directory fsync is best-effort on odd filesystems
  ::fsync(fd);
  ::close(fd);
}

/// Segment files in `dir`, sorted by sequence number.
std::vector<std::pair<uint64_t, std::string>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    unsigned long long seq = 0;
    int consumed = 0;
    // No width cap on the sequence — segment_name() zero-pads to six digits
    // but emits more once the monotonically growing seq passes 999999, and
    // a misparsed name would fail the header seq check and discard the
    // segment's committed records. %n pins the match to the whole name.
    if (std::sscanf(name.c_str(), "wal-%llu.log%n", &seq, &consumed) == 1 &&
        consumed == static_cast<int>(name.size())) {
      segments.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

// ----------------------------------------------------------- recovery

/// Bounds-checked cursor over one segment's bytes.
struct Cursor {
  const uint8_t* p;
  size_t remaining;

  bool take(size_t n, const uint8_t** out) {
    if (remaining < n) return false;
    *out = p;
    p += n;
    remaining -= n;
    return true;
  }
};

struct ParsedRecord {
  WalRecordType type;
  Bytes payload;
};

/// Parses the next framed record; returns false on clean end-of-segment.
/// Throws nothing: corruption (bad crc, impossible length, short frame) is
/// reported through `*corrupt`.
bool next_record(Cursor& cur, ParsedRecord* out, bool* corrupt) {
  if (cur.remaining == 0) return false;
  const uint8_t* frame;
  if (!cur.take(kFrameBytes, &frame)) {
    *corrupt = true;  // torn mid-frame
    return false;
  }
  uint32_t crc = load_le32(frame);
  uint32_t body_len = load_le32(frame + 4);
  const uint8_t* body;
  if (body_len == 0 || body_len > kMaxBodyBytes ||
      !cur.take(body_len, &body)) {
    *corrupt = true;  // length prefix overruns the file (torn tail)
    return false;
  }
  if (util::crc32c(body, body_len) != crc) {
    *corrupt = true;  // bit flip
    return false;
  }
  uint8_t type = body[0];
  if (type < static_cast<uint8_t>(WalRecordType::kPageImage) ||
      type > static_cast<uint8_t>(WalRecordType::kCommit)) {
    *corrupt = true;
    return false;
  }
  out->type = static_cast<WalRecordType>(type);
  out->payload.assign(body + 1, body + body_len);
  return true;
}

/// Payload mini-reader with hard bounds checks; any overrun marks the
/// record corrupt (CRC passed but the structure is impossible — treat it
/// the same as a torn tail rather than replaying garbage).
struct PayloadReader {
  const Bytes& b;
  size_t pos = 0;

  bool u16(uint16_t* out) {
    if (b.size() - pos < 2) return false;
    *out = static_cast<uint16_t>(b[pos] | (b[pos + 1] << 8));
    pos += 2;
    return true;
  }
  bool u32(uint32_t* out) {
    if (b.size() - pos < 4) return false;
    *out = load_le32(b.data() + pos);
    pos += 4;
    return true;
  }
  bool u64(uint64_t* out) {
    if (b.size() - pos < 8) return false;
    *out = load_le64(b.data() + pos);
    pos += 8;
    return true;
  }
  bool bytes(size_t n, const uint8_t** out) {
    if (b.size() - pos < n) return false;
    *out = b.data() + pos;
    pos += n;
    return true;
  }
  bool name(std::string* out) {
    uint16_t len;
    const uint8_t* p;
    if (!u16(&len) || !bytes(len, &p)) return false;
    out->assign(reinterpret_cast<const char*>(p), len);
    // A basename with a path separator can only come from corruption (or an
    // attack on the log file); never let replay escape the data directory.
    return !out->empty() && out->find('/') == std::string::npos &&
           *out != "." && *out != "..";
  }
};

/// Applies one committed batch onto the data files.
class Replayer {
 public:
  explicit Replayer(std::string data_dir) : data_dir_(std::move(data_dir)) {}

  ~Replayer() {
    for (auto& [name, fd] : fds_) ::close(fd);
  }

  void page_image(const std::string& name, PageNumber page, ByteView data) {
    int fd = fd_for(name);
    // The log carries the logical (kPageSize) image; on disk every page is
    // a checksummed physical record, so replay re-frames it exactly like
    // DiskManager::write_page would. Writing past the current end would
    // leave zero-filled holes (invalid records) for the pages in between,
    // so frame those as zero pages first.
    uint64_t offset = static_cast<uint64_t>(page) * kPhysicalPageBytes;
    fill_framed_zeros_up_to(fd, name, static_cast<off_t>(offset));
    uint8_t framed[kPhysicalPageBytes];
    frame_page_record(data.data(), framed);
    write_record_at(fd, name, framed, static_cast<off_t>(offset));
  }

  void extent(const std::string& name, PageNumber page_count) {
    int fd = fd_for(name);
    off_t target = static_cast<off_t>(page_count) *
                   static_cast<off_t>(kPhysicalPageBytes);
    off_t current = ::lseek(fd, 0, SEEK_END);
    if (current < 0) {
      throw StorageError("wal recover: cannot size " + name);
    }
    // Growing: plain ftruncate would zero-fill, which is not a valid
    // checksummed record. Append properly framed zero pages instead (the
    // same image DiskManager::allocate_page writes).
    if (current < target) {
      fill_framed_zeros_up_to(fd, name, target);
      return;
    }
    if (::ftruncate(fd, target) != 0) {
      throw StorageError("wal recover: cannot truncate " + name);
    }
  }

  void catalog(const std::string& text) {
    std::string path = data_dir_ + "/catalog.wre";
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) throw StorageError("wal recover: cannot write catalog");
    size_t done = 0;
    while (done < text.size()) {
      ssize_t n = ::write(fd, text.data() + done, text.size() - done);
      if (n <= 0) {
        ::close(fd);
        throw StorageError("wal recover: cannot write catalog");
      }
      done += static_cast<size_t>(n);
    }
    ::fsync(fd);
    ::close(fd);
  }

  void fsync_all() {
    for (auto& [name, fd] : fds_) fsync_fd(fd, name);
    fsync_path(data_dir_);
  }

 private:
  /// pwrites one full physical record at `off`, retrying short transfers.
  static void write_record_at(int fd, const std::string& name,
                              const uint8_t* framed, off_t off) {
    size_t done = 0;
    while (done < kPhysicalPageBytes) {
      ssize_t n = ::pwrite(fd, framed + done, kPhysicalPageBytes - done,
                           off + static_cast<off_t>(done));
      if (n <= 0) {
        throw StorageError("wal recover: cannot write " + name);
      }
      done += static_cast<size_t>(n);
    }
  }

  /// Extends the file with framed zero pages (the image allocate_page
  /// writes) until it is at least `target` bytes. A crash can leave a torn
  /// record at the tail; round down so every appended record starts on a
  /// physical-page boundary.
  static void fill_framed_zeros_up_to(int fd, const std::string& name,
                                      off_t target) {
    off_t current = ::lseek(fd, 0, SEEK_END);
    if (current < 0) {
      throw StorageError("wal recover: cannot size " + name);
    }
    if (current >= target) return;
    current -= current % static_cast<off_t>(kPhysicalPageBytes);
    uint8_t zeros[kPageSize] = {0};
    uint8_t framed[kPhysicalPageBytes];
    frame_page_record(zeros, framed);
    for (off_t off = current; off < target;
         off += static_cast<off_t>(kPhysicalPageBytes)) {
      write_record_at(fd, name, framed, off);
    }
  }

  int fd_for(const std::string& name) {
    auto it = fds_.find(name);
    if (it != fds_.end()) return it->second;
    std::string path = data_dir_ + "/" + name;
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd < 0) throw StorageError("wal recover: cannot open " + path);
    fds_.emplace(name, fd);
    return fd;
  }

  std::string data_dir_;
  std::map<std::string, int> fds_;
};

Bytes read_file(const std::string& path) {
  Bytes out;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw StorageError("wal recover: cannot read " + path);
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size > 0) {
    out.resize(static_cast<size_t>(size));
    size_t done = 0;
    while (done < out.size()) {
      ssize_t n = ::pread(fd, out.data() + done, out.size() - done,
                          static_cast<off_t>(done));
      if (n <= 0) {
        ::close(fd);
        throw StorageError("wal recover: short read on " + path);
      }
      done += static_cast<size_t>(n);
    }
  }
  ::close(fd);
  return out;
}

}  // namespace

// ----------------------------------------------------------------- recover

WalRecoveryStats Wal::recover(const std::string& wal_dir,
                              const std::string& data_dir) {
  WalRecoveryStats stats;
  if (!std::filesystem::exists(wal_dir)) return stats;
  auto segments = list_segments(wal_dir);
  if (segments.empty()) return stats;

  Replayer replayer(data_dir);
  std::vector<ParsedRecord> batch;  // records since the last commit marker
  bool stop = false;  // corruption found: ignore everything after it

  for (const auto& [seq, path] : segments) {
    if (stop) break;
    Bytes data = read_file(path);
    stats.bytes_scanned += data.size();
    ++stats.segments_scanned;

    Cursor cur{data.data(), data.size()};
    const uint8_t* header;
    if (!cur.take(kHeaderBytes, &header) ||
        std::memcmp(header, kMagic, sizeof(kMagic)) != 0 ||
        load_le64(header + 8) != seq) {
      stats.tail_truncated = true;
      break;
    }

    ParsedRecord rec;
    bool corrupt = false;
    while (next_record(cur, &rec, &corrupt)) {
      if (rec.type != WalRecordType::kCommit) {
        batch.push_back(std::move(rec));
        continue;
      }
      // Validate the commit marker and decode the whole batch before
      // applying any of it: a CRC-valid record with an impossible payload
      // structure is treated exactly like a torn tail, and must not leave
      // a half-applied commit behind.
      PayloadReader r{rec.payload};
      uint64_t commit_seq;
      uint32_t count;
      if (!r.u64(&commit_seq) || !r.u32(&count) ||
          count != batch.size()) {
        corrupt = true;
        break;
      }
      struct PageAction {
        std::string name;
        uint32_t page;
        const uint8_t* bytes;
      };
      struct ExtentAction {
        std::string name;
        uint32_t pages;
      };
      std::vector<PageAction> page_actions;
      std::vector<ExtentAction> extent_actions;
      std::vector<std::string> catalog_actions;
      for (const ParsedRecord& b : batch) {
        PayloadReader pr{b.payload};
        switch (b.type) {
          case WalRecordType::kPageImage: {
            PageAction a;
            uint32_t len;
            if (!pr.name(&a.name) || !pr.u32(&a.page) || !pr.u32(&len) ||
                len != kPageSize || !pr.bytes(len, &a.bytes)) {
              corrupt = true;
              break;
            }
            page_actions.push_back(std::move(a));
            break;
          }
          case WalRecordType::kFileExtent: {
            ExtentAction a;
            if (!pr.name(&a.name) || !pr.u32(&a.pages)) {
              corrupt = true;
              break;
            }
            extent_actions.push_back(std::move(a));
            break;
          }
          case WalRecordType::kCatalog: {
            uint32_t len;
            const uint8_t* bytes;
            if (!pr.u32(&len) || !pr.bytes(len, &bytes)) {
              corrupt = true;
              break;
            }
            catalog_actions.emplace_back(
                reinterpret_cast<const char*>(bytes), len);
            break;
          }
          case WalRecordType::kCommit:
            corrupt = true;  // nested commit: impossible by construction
            break;
        }
        if (corrupt) break;
      }
      if (corrupt) break;
      for (const PageAction& a : page_actions) {
        replayer.page_image(a.name, a.page, ByteView(a.bytes, kPageSize));
        ++stats.pages_replayed;
      }
      for (const ExtentAction& a : extent_actions) {
        replayer.extent(a.name, a.pages);
        ++stats.extents_applied;
      }
      for (const std::string& text : catalog_actions) {
        replayer.catalog(text);
        ++stats.catalogs_replayed;
      }
      ++stats.commits_applied;
      batch.clear();
    }
    if (corrupt) {
      stats.tail_truncated = true;
      stop = true;
    }
  }

  // Records after the last commit marker (or after the corruption point)
  // were never acknowledged: discard them.
  stats.uncommitted_records_discarded = batch.size();

  if (stats.commits_applied > 0) replayer.fsync_all();

  // The committed state is durable in the data files; the log is spent.
  for (const auto& [seq, path] : segments) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  fsync_path(wal_dir);
  return stats;
}

// -------------------------------------------------------------------- Wal

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {
  std::filesystem::create_directories(dir_);
  // Never append into an existing segment (its tail may be torn); start a
  // fresh one after the highest existing sequence number.
  auto segments = list_segments(dir_);
  segment_seq_ = segments.empty() ? 0 : segments.back().first;
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    open_fresh_segment();
  }
  writer_ = std::thread([this] { writer_loop(); });
}

Wal::~Wal() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (fd_ >= 0) ::close(fd_);
}

void Wal::open_fresh_segment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ++segment_seq_;
  std::string path = dir_ + "/" + segment_name(segment_seq_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) throw StorageError("wal: cannot create " + path);
  Bytes header;
  append(header, ByteView(reinterpret_cast<const uint8_t*>(kMagic),
                          sizeof(kMagic)));
  store_le64(header, segment_seq_);
  write_fully(header.data(), header.size());
  segment_bytes_written_ = header.size();
  {
    std::lock_guard<std::mutex> lk(mu_);
    live_bytes_ += header.size();
    ++stats_.segments_created;
  }
  // Make the new directory entry durable before any record lands in it.
  if (options_.fsync) {
    fsync_fd(fd_, path);
    fsync_path(dir_);
  }
}

void Wal::write_fully(const uint8_t* data, size_t len) {
  // Fault hook: a torn write persists only a prefix, then fails — exactly
  // what a crash mid-write leaves on disk.
  size_t writable = FaultInjector::instance().wal_writable_bytes(len);
  size_t done = 0;
  while (done < writable) {
    ssize_t n = ::write(fd_, data + done, writable - done);
    if (n <= 0) throw StorageError("wal: write failed");
    done += static_cast<size_t>(n);
  }
  if (writable < len) {
    if (options_.fsync) ::fdatasync(fd_);  // persist the torn prefix
    throw StorageError("wal: injected torn write");
  }
}

CommitHandle Wal::commit(WalCommitRequest request) {
  Pending pending;
  pending.on_durable = std::move(request.on_durable);
  // Encode on the caller's thread: the writer thread should spend its time
  // in write()/fdatasync(), not serialization.
  Bytes& out = pending.encoded;
  uint32_t records = 0;
  for (const WalPageImage& image : request.pages) {
    if (image.data.size() != kPageSize) {
      throw StorageError("wal: page image must be exactly one page");
    }
    Bytes payload;
    payload.reserve(image.file.size() + kPageSize + 16);
    frame_name(payload, image.file);
    store_le32(payload, image.page);
    store_le32(payload, static_cast<uint32_t>(image.data.size()));
    append(payload, image.data);
    frame_record(out, WalRecordType::kPageImage, payload);
    ++records;
  }
  for (const WalFileExtent& extent : request.extents) {
    Bytes payload;
    frame_name(payload, extent.file);
    store_le32(payload, extent.page_count);
    frame_record(out, WalRecordType::kFileExtent, payload);
    ++records;
  }
  if (request.catalog) {
    Bytes payload;
    store_le32(payload, static_cast<uint32_t>(request.catalog->size()));
    append(payload, to_bytes(*request.catalog));
    frame_record(out, WalRecordType::kCatalog, payload);
    ++records;
  }

  std::shared_future<void> fut;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_ || stop_) {
      throw StorageError("wal: log is broken; cannot accept commits");
    }
    Bytes marker;
    store_le64(marker, next_commit_seq_++);
    store_le32(marker, records);
    frame_record(out, WalRecordType::kCommit, marker);

    ++stats_.commits;
    stats_.records += records + 1;
    fut = pending.done.get_future().share();
    queue_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return CommitHandle(fut);
}

void Wal::sync() {
  // An empty Pending rides the FIFO queue as a pure barrier: by the time
  // the writer thread completes it, every earlier group has been written,
  // fsync'd, and has run its on_durable callbacks (those fire before each
  // group's promises are satisfied, and groups drain in order).
  Pending pending;
  pending.commits = 0;
  std::shared_future<void> fut;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (broken_ || stop_) {
      throw StorageError("wal: log is broken; cannot sync");
    }
    fut = pending.done.get_future().share();
    queue_.push_back(std::move(pending));
  }
  cv_.notify_all();
  fut.get();
}

void Wal::writer_loop() {
  for (;;) {
    std::vector<Pending> group;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty() && stop_) return;
      // Everything queued while the previous group synced forms this one.
      while (!queue_.empty()) {
        group.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (!group.empty()) flush_group(group);
  }
}

void Wal::flush_group(std::vector<Pending>& group) {
  try {
    uint64_t bytes = 0;
    {
      std::lock_guard<std::mutex> io(io_mu_);
      if (segment_bytes_written_ >= options_.segment_bytes) {
        open_fresh_segment();
      }
      for (const Pending& p : group) {
        write_fully(p.encoded.data(), p.encoded.size());
        segment_bytes_written_ += p.encoded.size();
        bytes += p.encoded.size();
      }
      if (options_.fsync) fsync_fd(fd_, "wal segment");
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      live_bytes_ += bytes;
      stats_.bytes_appended += bytes;
      ++stats_.groups;
      if (options_.fsync) ++stats_.fsyncs;
      stats_.max_group = std::max(stats_.max_group,
                                  static_cast<uint64_t>(group.size()));
    }
    // Durability callbacks run before the handles become ready: a waiter
    // that observes its commit acknowledged must also observe the frames
    // released from their no-steal window (and in no case may an eviction
    // see them released earlier than this point).
    for (Pending& p : group) {
      if (p.on_durable) p.on_durable();
      p.done.set_value();
    }
  } catch (...) {
    // The log can no longer guarantee durability: fail this group and every
    // later commit. Acknowledged writes stay acknowledged (their records
    // are already durable); unacknowledged ones surface the error.
    {
      std::lock_guard<std::mutex> lk(mu_);
      broken_ = true;
    }
    for (Pending& p : group) {
      // Members completed before the failure keep their satisfied promise;
      // set_exception on them would itself throw.
      try {
        p.done.set_exception(std::current_exception());
      } catch (const std::future_error&) {
      }
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (Pending& p : queue_) {
      p.done.set_exception(std::make_exception_ptr(
          StorageError("wal: log is broken; commit aborted")));
    }
    queue_.clear();
  }
}

void Wal::truncate_all() {
  std::lock_guard<std::mutex> io(io_mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  for (const auto& [seq, path] : list_segments(dir_)) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  open_fresh_segment();
  std::lock_guard<std::mutex> lk(mu_);
  live_bytes_ = segment_bytes_written_;
}

uint64_t Wal::live_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_bytes_;
}

WalStats Wal::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace wre::storage
