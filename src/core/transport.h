// The client's view of the untrusted server: every interaction the WRE
// layer has with the relational backend goes through this interface, so the
// same EncryptedConnection runs against an in-process sql::Database
// (LocalTransport) or a remote wre_server over TCP (net::RemoteConnection).
//
// The interface *is* the paper's trust boundary (Section I-A): everything
// that crosses it — SQL text, physical rows, tag lists — contains only
// search tags, AES ciphertexts and plaintext-by-configuration columns.
// Salts, keys and decrypted values never appear in these calls.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/sql/database.h"

namespace wre::core {

/// Abstract server transport. Implementations must preserve sql::Database
/// semantics: statements execute in call order, SELECTs return rows in the
/// engine's deterministic order, and errors surface as the same wre::Error
/// subclass the engine would throw in process.
///
/// Fault semantics: a call returns successfully exactly once or throws.
/// Implementations may retry internally across transient transport
/// failures — including for mutating calls — but only if the retry cannot
/// double-apply (net::RemoteConnection stamps every request with an
/// idempotency key the server dedups, DESIGN.md §5.6). When retries are
/// exhausted the typed error (RetriesExhaustedError) reports attempts and
/// elapsed time; the caller cannot assume the last attempt didn't land.
class DbTransport {
 public:
  virtual ~DbTransport() = default;

  /// Parses and executes one SQL statement.
  virtual sql::ResultSet execute(const std::string& sql) = 0;

  /// DDL fast paths (equivalent to CREATE TABLE / CREATE INDEX).
  virtual void create_table(const std::string& table,
                            const sql::Schema& schema) = 0;
  virtual void create_index(const std::string& table,
                            const std::string& column) = 0;

  virtual bool has_table(const std::string& table) = 0;
  virtual uint64_t row_count(const std::string& table) = 0;

  /// The server-side (physical) schema of `table`.
  virtual sql::Schema table_schema(const std::string& table) = 0;

  /// Batched insert; returns the assigned primary keys.
  virtual std::vector<int64_t> insert_batch(
      const std::string& table, const std::vector<sql::Row>& rows) = 0;

  /// The WRE hot path: SELECT id / SELECT * with `tag_column IN (tags)`.
  /// Every implementation executes the statement tag_scan_stmt() builds —
  /// in process, or server-side behind the kTagScan opcode — so a
  /// thousands-of-tags probe list never pays SQL rendering and parsing.
  virtual sql::ResultSet tag_scan(const std::string& table,
                                  const std::string& tag_column,
                                  const std::vector<uint64_t>& tags,
                                  bool star) = 0;

  /// Full-table scan in heap order (manifest recovery, migration).
  virtual void scan(const std::string& table,
                    const std::function<void(const sql::Row&)>& fn) = 0;
};

/// In-process transport over an embedded sql::Database — the configuration
/// every pre-network caller uses, and the one wre_server hosts server-side.
class LocalTransport final : public DbTransport {
 public:
  explicit LocalTransport(sql::Database& db) : db_(db) {}

  sql::ResultSet execute(const std::string& sql) override;
  void create_table(const std::string& table,
                    const sql::Schema& schema) override;
  void create_index(const std::string& table,
                    const std::string& column) override;
  bool has_table(const std::string& table) override;
  uint64_t row_count(const std::string& table) override;
  sql::Schema table_schema(const std::string& table) override;
  std::vector<int64_t> insert_batch(
      const std::string& table, const std::vector<sql::Row>& rows) override;
  sql::ResultSet tag_scan(const std::string& table,
                          const std::string& tag_column,
                          const std::vector<uint64_t>& tags,
                          bool star) override;
  void scan(const std::string& table,
            const std::function<void(const sql::Row&)>& fn) override;

  sql::Database& database() { return db_; }

 private:
  sql::Database& db_;
};

/// The one statement behind every tag scan: "SELECT id|* FROM table WHERE
/// tag_column IN (t1, ...)", the query shape WRE Search produces, built as
/// an AST. An empty `tags` gives an empty IN list, which matches no row.
sql::SelectStmt tag_scan_stmt(const std::string& table,
                              const std::string& tag_column,
                              const std::vector<uint64_t>& tags, bool star);

/// Renders "tag_column IN (t1, ...)" as SQL text.
std::string tag_in_sql(const std::string& tag_column,
                       const std::vector<uint64_t>& tags);

/// tag_scan_stmt() as SQL text: what EncryptedConnection reports as the
/// rewritten query. No transport renders a tag scan to text to run it.
std::string tag_scan_sql(const std::string& table,
                         const std::string& tag_column,
                         const std::vector<uint64_t>& tags, bool star);

}  // namespace wre::core
