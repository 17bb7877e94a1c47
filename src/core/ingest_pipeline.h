// Parallel bulk-ingest pipeline: encrypt record batches on worker threads,
// then drain them — in input order — through the SQL layer's batched insert
// path.
//
// The paper's evaluation treats database creation time as a first-class
// cost (Section VI-B: 10M records, ~9x slower than plaintext, dominated by
// client-side AES + HMAC per cell). That work is embarrassingly parallel
// *provided* parallel ingest stays bit-identical to serial ingest, which WRE
// makes possible: a value's salt set derives pseudorandomly from (key, m)
// alone, and the remaining per-record randomness (salt choice, AES-CTR
// nonces) is drawn here from a per-record PRF stream keyed by
// (master secret, stream nonce, record index) — independent of scheduling.
//
// Threading model:
//   - construction clones the table's row codec once per worker: each clone
//     owns private PRF/AES state for every column and encodes exactly like
//     EncryptedConnection::insert, while the large immutable salt-allocator
//     tables and range bucketizers are shared read-only;
//   - with more than one thread, each ingest() call starts one std::jthread
//     per codec clone (at most one per batch). A worker claims the next
//     batch from an atomic counter and publishes its encrypted rows, or its
//     exception, through that batch's std::promise;
//   - workers only encrypt; the storage engine stays single-threaded — the
//     caller's thread is the single writer, whose one loop takes each
//     batch's future in input order, writes it through Table::insert_batch
//     (with one thread it encrypts each batch inline, with no workers) and
//     counts drift for each batch written. Leaving ingest() stops and joins
//     the workers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/crypto/hmac_sha256.h"
#include "src/sql/schema.h"
#include "src/util/bytes.h"

namespace wre::core {

class EncryptedConnection;

struct IngestOptions {
  /// Worker threads. 0 = one per hardware thread; 1 = encrypt inline on the
  /// caller's thread (no workers), still using the batched write path.
  unsigned threads = 0;
  /// Rows per work unit handed to a worker / to Table::insert_batch.
  size_t batch_rows = 512;
  /// Record index of the first ingested row; later ingest() calls continue
  /// from where the previous one stopped. Indices key per-record randomness,
  /// so re-using an (index, stream_nonce) pair re-uses randomness.
  uint64_t start_index = 0;
  /// Fixed randomness-stream nonce for reproducible ingest (tests, the
  /// determinism suite). Empty = a fresh random nonce per pipeline, which is
  /// what production callers want: distinct pipelines then never share
  /// per-record randomness even for equal record indices.
  Bytes stream_nonce;
};

struct IngestStats {
  uint64_t rows = 0;
  size_t batches = 0;
  unsigned threads = 1;
  /// Wall-clock seconds until the last batch finished encrypting.
  double encrypt_seconds = 0;
  /// Seconds the writer spent inside the batched insert path.
  double write_seconds = 0;
  double total_seconds = 0;
};

/// A reusable bulk-ingest channel into one encrypted table.
///
/// Failure semantics match serial insert at batch granularity: batches are
/// written in input order, and the first batch whose encryption or write
/// fails aborts the run — batches before it are durably inserted, the
/// failing batch and everything after it are discarded.
///
/// Not thread-safe itself: one caller thread drives ingest() (it is the
/// single writer); parallelism lives inside.
class IngestPipeline {
 public:
  /// Clones one row codec per worker for `table`. The connection
  /// and its table state must outlive the pipeline; encryption-relevant
  /// reconfiguration of the table (e.g. migrate) invalidates it.
  IngestPipeline(EncryptedConnection& conn, std::string table,
                 IngestOptions options = {});
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Encrypts `rows` across the workers and inserts them in order. May be
  /// called repeatedly; record indices continue across calls.
  IngestStats ingest(const std::vector<sql::Row>& rows);

  /// Record index the next ingest() call will start at.
  uint64_t next_index() const { return next_index_; }

  unsigned threads() const { return threads_; }

 private:
  struct Worker;  // a worker's row-codec clone (ingest_pipeline.cpp)

  /// Encrypts rows [begin, end) of `rows` into physical rows, drawing each
  /// record's randomness from its global index.
  std::vector<sql::Row> encrypt_batch(Worker& w,
                                      const std::vector<sql::Row>& rows,
                                      size_t begin, size_t end,
                                      uint64_t base_index) const;

  EncryptedConnection& conn_;
  std::string table_;
  IngestOptions options_;
  unsigned threads_ = 1;
  /// Midstate-cached key of the per-record randomness PRF: every record seed
  /// is an HMAC under the same derived key, so the key-block compressions
  /// are paid once at pipeline construction.
  std::unique_ptr<crypto::HmacSha256::Key> record_key_;
  Bytes nonce_;  // stream nonce mixed into every record seed
  uint64_t next_index_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;  // threads_ codec clones
};

}  // namespace wre::core
