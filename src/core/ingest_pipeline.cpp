#include "src/core/ingest_pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <span>
#include <thread>

#include "src/core/encrypted_client.h"
#include "src/crypto/hkdf.h"
#include "src/crypto/hmac_sha256.h"
#include "src/util/timer.h"

namespace wre::core {

// Each worker is a clone of the table's RowCodec: private PRF/AES state, so
// no two threads ever touch the same cipher object, while the salt
// allocators and range bucketizers behind it are immutable after
// construction and shared by all workers.
struct IngestPipeline::Worker {
  EncryptedConnection::RowCodec codec;
};

IngestPipeline::IngestPipeline(EncryptedConnection& conn, std::string table,
                               IngestOptions options)
    : conn_(conn), table_(std::move(table)), options_(std::move(options)) {
  threads_ = options_.threads;
  if (threads_ == 0) {
    threads_ = std::thread::hardware_concurrency();
    if (threads_ == 0) threads_ = 1;
  }
  if (options_.batch_rows == 0) options_.batch_rows = 1;
  next_index_ = options_.start_index;

  // Record g's randomness stream is seeded with
  //   HMAC(record_key, nonce || le64(g)),
  // so an encryption depends only on (master secret, table, nonce, g, row)
  // — never on which worker ran it or how rows were batched. That is the
  // whole determinism argument: together with salt sets being pseudorandom
  // in (key, m), parallel ingest is bit-identical to serial ingest.
  record_key_ = std::make_unique<crypto::HmacSha256::Key>(
      crypto::hkdf(to_bytes("wre-ingest-rng-v1"), conn_.master_secret_,
                   to_bytes("ingest:" + sql::to_lower(table_)), 32));
  nonce_ = options_.stream_nonce.empty() ? conn_.rng_.bytes(16)
                                         : options_.stream_nonce;

  const EncryptedConnection::TableState& ts = conn_.state(table_);
  workers_.reserve(threads_);
  for (unsigned t = 0; t < threads_; ++t) {
    workers_.push_back(std::make_unique<Worker>(Worker{ts.codec.clone()}));
    free_workers_.push_back(workers_.back().get());
  }
  if (threads_ > 1) pool_ = std::make_unique<util::ThreadPool>(threads_);
}

IngestPipeline::~IngestPipeline() = default;

IngestPipeline::Worker* IngestPipeline::acquire_worker() {
  std::lock_guard<std::mutex> lk(workers_mu_);
  // Never empty: the pool runs at most threads_ tasks at once and there are
  // exactly threads_ contexts.
  Worker* w = free_workers_.back();
  free_workers_.pop_back();
  return w;
}

void IngestPipeline::release_worker(Worker* w) {
  std::lock_guard<std::mutex> lk(workers_mu_);
  free_workers_.push_back(w);
}

std::vector<sql::Row> IngestPipeline::encrypt_batch(
    Worker& w, const std::vector<sql::Row>& rows, size_t begin, size_t end,
    uint64_t base_index) const {
  std::vector<sql::Row> out;
  out.reserve(end - begin);
  uint8_t index_le[8];
  for (size_t r = begin; r < end; ++r) {
    store_le64(index_le, base_index + (r - begin));
    crypto::HmacSha256 h(*record_key_);
    h.update(nonce_);
    h.update(ByteView(index_le, sizeof(index_le)));
    auto seed = h.finish();
    crypto::SecureRandom rng{ByteView(seed.data(), seed.size())};
    out.push_back(w.codec.encode(rows[r], rng));
  }
  return out;
}

IngestStats IngestPipeline::ingest(const std::vector<sql::Row>& rows) {
  Timer total;
  IngestStats stats;
  stats.threads = threads_;
  stats.rows = rows.size();
  if (rows.empty()) return stats;

  EncryptedConnection::TableState& ts = conn_.mutable_state(table_);
  for (const sql::Row& row : rows) ts.logical.check_row(row);
  DbTransport& out = conn_.transport();

  const size_t batch = options_.batch_rows;
  const size_t nbatches = (rows.size() + batch - 1) / batch;
  stats.batches = nbatches;
  const uint64_t base = next_index_;

  // With a pool, workers encrypt every batch ahead of the writer; without
  // one, the writer encrypts each batch inline just before writing it.
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::vector<sql::Row>> done;
    std::vector<char> ready;
    size_t first_error;
    std::exception_ptr error;
    size_t outstanding;
    double encrypt_seconds = 0;
  } sh;
  if (pool_) {
    sh.done.resize(nbatches);
    sh.ready.assign(nbatches, 0);
    sh.first_error = nbatches;
    sh.outstanding = nbatches;
    Timer enc_timer;
    for (size_t b = 0; b < nbatches; ++b) {
      const size_t begin = b * batch;
      const size_t end = std::min(rows.size(), begin + batch);
      pool_->submit([this, &rows, &sh, enc_timer, b, begin, end, base] {
        std::vector<sql::Row> physical;
        std::exception_ptr err;
        Worker* w = acquire_worker();
        try {
          physical = encrypt_batch(*w, rows, begin, end, base + begin);
        } catch (...) {
          err = std::current_exception();
        }
        release_worker(w);
        std::lock_guard<std::mutex> lk(sh.mu);
        if (err) {
          if (b < sh.first_error) {
            sh.first_error = b;
            sh.error = err;
          }
        } else {
          sh.done[b] = std::move(physical);
          sh.ready[b] = 1;
        }
        if (--sh.outstanding == 0) {
          sh.encrypt_seconds = enc_timer.elapsed_seconds();
        }
        sh.cv.notify_all();
      });
    }
  }

  // This thread is the single writer, draining batches strictly in input
  // order; drift counts only rows whose batch was written.
  try {
    for (size_t b = 0; b < nbatches; ++b) {
      const size_t begin = b * batch;
      const size_t end = std::min(rows.size(), begin + batch);
      std::vector<sql::Row> physical;
      if (pool_) {
        std::unique_lock<std::mutex> lk(sh.mu);
        sh.cv.wait(lk, [&] { return sh.ready[b] || sh.first_error <= b; });
        if (sh.first_error <= b) break;
        physical = std::move(sh.done[b]);
      } else {
        Timer enc_timer;
        physical = encrypt_batch(*workers_.front(), rows, begin, end,
                                 base + begin);
        stats.encrypt_seconds += enc_timer.elapsed_seconds();
      }
      Timer write_timer;
      out.insert_batch(table_, physical);
      stats.write_seconds += write_timer.elapsed_seconds();
      ts.codec.count_written(std::span(rows).subspan(begin, end - begin));
      next_index_ += end - begin;
    }
  } catch (...) {
    // A failure must not leave workers touching `sh` (stack memory) after
    // we unwind.
    if (pool_) pool_->wait_idle();
    throw;
  }

  if (pool_) {
    pool_->wait_idle();
    std::lock_guard<std::mutex> lk(sh.mu);
    stats.encrypt_seconds = sh.encrypt_seconds;
    if (sh.error) std::rethrow_exception(sh.error);
  }
  stats.total_seconds = total.elapsed_seconds();
  return stats;
}

}  // namespace wre::core
