#include "src/core/ingest_pipeline.h"

#include <algorithm>
#include <atomic>
#include <future>
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
  }
}

IngestPipeline::~IngestPipeline() = default;

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

  // With more than one thread, workers encrypt every batch ahead of the
  // writer; with one, the writer encrypts each batch inline just before
  // writing it. Everything the workers touch is declared before `threads`,
  // whose destructors stop and join them on every way out of this function.
  struct Encrypted {
    std::vector<sql::Row> rows;
    double done_at;  // seconds since the workers started
  };
  std::vector<std::promise<Encrypted>> encrypted;
  std::atomic<size_t> next_batch{0};
  const Timer enc_timer;
  std::vector<std::jthread> threads;
  if (threads_ > 1) {
    encrypted.resize(nbatches);
    const size_t nthreads = std::min<size_t>(workers_.size(), nbatches);
    for (size_t t = 0; t < nthreads; ++t) {
      threads.emplace_back([&, t](std::stop_token stop) {
        size_t b;
        while (!stop.stop_requested() &&
               (b = next_batch.fetch_add(1)) < nbatches) {
          const size_t begin = b * batch;
          const size_t end = std::min(rows.size(), begin + batch);
          try {
            auto physical =
                encrypt_batch(*workers_[t], rows, begin, end, base + begin);
            encrypted[b].set_value(
                {std::move(physical), enc_timer.elapsed_seconds()});
          } catch (...) {
            encrypted[b].set_exception(std::current_exception());
          }
        }
      });
    }
  }

  // This thread is the single writer, draining batches strictly in input
  // order: the first failing batch's error surfaces from its future, after
  // every earlier batch was written. Drift counts only written rows.
  for (size_t b = 0; b < nbatches; ++b) {
    const size_t begin = b * batch;
    const size_t end = std::min(rows.size(), begin + batch);
    std::vector<sql::Row> physical;
    if (threads.empty()) {
      Timer inline_timer;
      physical =
          encrypt_batch(*workers_.front(), rows, begin, end, base + begin);
      stats.encrypt_seconds += inline_timer.elapsed_seconds();
    } else {
      Encrypted done = encrypted[b].get_future().get();
      physical = std::move(done.rows);
      stats.encrypt_seconds = std::max(stats.encrypt_seconds, done.done_at);
    }
    Timer write_timer;
    out.insert_batch(table_, physical);
    stats.write_seconds += write_timer.elapsed_seconds();
    ts.codec.count_written(std::span(rows).subspan(begin, end - begin));
    next_index_ += end - begin;
  }
  stats.total_seconds = total.elapsed_seconds();
  return stats;
}

}  // namespace wre::core
