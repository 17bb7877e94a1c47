// A table: heap file + primary-key index + secondary indexes.
//
// Index organization follows the InnoDB model: secondary indexes map a
// column key to the row's primary key, and a clustered primary-key index
// maps primary key to the heap record id. Consequently an equality probe
// that only projects the primary key ("SELECT id FROM main WHERE tag = ...")
// is satisfied from the secondary index alone, while "SELECT *" must chase
// primary keys through the PK index into heap pages — exactly the
// index-scan vs record-fetch split the paper's Figures 4-7 measure.
//
// Index keys are 64-bit: INTEGER values are used directly; TEXT values are
// reduced to the first 8 bytes of their SHA-256. Hash-reduced text keys make
// text indexes equality-only (no range scans) and carry a 2^-64 collision
// probability per pair; the executor rechecks the predicate whenever it
// fetches the full row anyway.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/sql/schema.h"
#include "src/storage/bptree.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/heap_file.h"

namespace wre::sql {

/// Derives the 64-bit index key for a non-NULL value.
uint64_t index_key_for(const Value& v);

class Table {
 public:
  /// Opens (or creates) the table's heap file `<dir>/<name>.tbl`. Existing
  /// secondary indexes are reattached by the Database catalog, not here.
  Table(storage::BufferPool& pool, std::string dir, std::string name,
        Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Inserts a row; returns its primary key. For tables without a declared
  /// PRIMARY KEY a hidden monotonically increasing key is assigned. Throws
  /// SqlError on duplicate explicit primary keys.
  int64_t insert(const Row& row);

  /// Bulk-load fast path: inserts `rows` in order and returns their primary
  /// keys. Produces the same table contents as calling insert() per row, but
  /// amortizes the per-row costs: every row is validated up front (on error
  /// nothing is written), heap appends share one metadata write, and each
  /// secondary index receives its keys as one sorted run, so consecutive
  /// B+-tree descents revisit hot pages instead of ping-ponging across the
  /// key space.
  std::vector<int64_t> insert_batch(const std::vector<Row>& rows);

  /// Looks up the row with primary key `pk` without decoding or copying:
  /// calls fn(record) with the row's encoded heap record
  /// (Schema::encode_row layout), valid only during the call, while its
  /// page is latched. Returns false, without calling fn, when no row has
  /// primary key `pk`. Thread-safe against other readers (index probes,
  /// scans); writers require exclusion.
  template <typename Fn>
  bool visit_by_pk(int64_t pk, Fn&& fn) const {
    auto rids = pk_index_->find(static_cast<uint64_t>(pk));
    if (rids.empty()) return false;
    heap_->visit(storage::RecordId::unpack(rids.front()), fn);
    return true;
  }

  /// Creates (and backfills) a secondary index on `column_name`.
  /// Throws SqlError if the column is unknown or already indexed.
  void create_index(const std::string& column_name);

  /// Reattaches an existing index file (used when reopening a database).
  void attach_index(const std::string& column_name);

  bool has_index(const std::string& column_name) const;

  /// Primary keys of rows whose `column_name` equals `v` according to the
  /// index (text keys may, with probability ~2^-64, include a hash-collision
  /// false positive; callers that fetch rows recheck). Thread-safe against
  /// other readers — the executor fans probes of one query across threads.
  std::vector<int64_t> probe_index(const std::string& column_name,
                                   const Value& v) const;

  /// Full scan in heap order: fn(primary_key, row). Thread-safe against
  /// other readers.
  void scan(const std::function<void(int64_t, const Row&)>& fn) const;

  /// scan() of the encoded heap records, undecoded: fn(record), each view
  /// valid only during its call.
  void scan_records(const std::function<void(ByteView)>& fn) const;

  /// Where a heap-order scan stopped: the next record's heap position and
  /// its row ordinal (hidden primary keys are positional). The default
  /// cursor is the start of the table.
  struct ScanCursor {
    storage::RecordId next = storage::HeapFile::kFirstRecord;
    uint64_t row = 0;
  };

  /// scan() of only the rows at or after `from`; returns the cursor past
  /// the last row visited. The heap is append-only, so resuming at the
  /// returned cursor later visits exactly the rows inserted in between.
  ScanCursor scan_from(
      const ScanCursor& from,
      const std::function<void(int64_t, const Row&)>& fn) const;

  uint64_t row_count() const { return heap_->record_count(); }

  /// On-disk sizes, for the Table I reproduction.
  uint64_t data_size_bytes() const;
  uint64_t index_size_bytes() const;

  /// Names of columns with secondary indexes.
  std::vector<std::string> indexed_columns() const;

 private:
  std::string index_path(const std::string& column_name) const;
  const storage::BPlusTree& index_for(const std::string& column_name) const;
  storage::BPlusTree& index_for(const std::string& column_name);

  storage::BufferPool& pool_;
  std::string dir_;
  std::string name_;
  Schema schema_;
  std::unique_ptr<storage::HeapFile> heap_;
  std::unique_ptr<storage::BPlusTree> pk_index_;  // pk -> packed RecordId
  std::map<std::string, std::unique_ptr<storage::BPlusTree>> indexes_;
  int64_t next_hidden_pk_ = 0;
};

}  // namespace wre::sql
