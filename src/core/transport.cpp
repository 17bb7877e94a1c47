#include "src/core/transport.h"

namespace wre::core {

sql::SelectStmt tag_scan_stmt(const std::string& table,
                              const std::string& tag_column,
                              const std::vector<uint64_t>& tags, bool star) {
  std::vector<sql::Value> values;
  values.reserve(tags.size());
  for (uint64_t tag : tags) values.push_back(sql::Value::tag(tag));
  sql::SelectStmt stmt;
  stmt.star = star;
  if (!star) stmt.columns = {"id"};
  stmt.table = sql::to_lower(table);
  stmt.where = sql::Expr::in_list(tag_column, std::move(values));
  return stmt;
}

std::string tag_in_sql(const std::string& tag_column,
                       const std::vector<uint64_t>& tags) {
  std::string sql = sql::to_lower(tag_column) + " IN (";
  for (size_t i = 0; i < tags.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += sql::Value::tag(tags[i]).to_sql_literal();
  }
  sql += ")";
  return sql;
}

std::string tag_scan_sql(const std::string& table,
                         const std::string& tag_column,
                         const std::vector<uint64_t>& tags, bool star) {
  std::string sql = star ? "SELECT * FROM " : "SELECT id FROM ";
  return sql + sql::to_lower(table) + " WHERE " + tag_in_sql(tag_column, tags);
}

sql::ResultSet LocalTransport::execute(const std::string& sql) {
  return db_.execute(sql);
}

void LocalTransport::create_table(const std::string& table,
                                  const sql::Schema& schema) {
  db_.create_table(table, schema);
}

void LocalTransport::create_index(const std::string& table,
                                  const std::string& column) {
  db_.create_index(table, column);
}

bool LocalTransport::has_table(const std::string& table) {
  return db_.has_table(table);
}

uint64_t LocalTransport::row_count(const std::string& table) {
  return db_.table(table).row_count();
}

sql::Schema LocalTransport::table_schema(const std::string& table) {
  return db_.table(table).schema();
}

std::vector<int64_t> LocalTransport::insert_batch(
    const std::string& table, const std::vector<sql::Row>& rows) {
  return db_.insert_batch(table, rows);
}

sql::ResultSet LocalTransport::tag_scan(const std::string& table,
                                        const std::string& tag_column,
                                        const std::vector<uint64_t>& tags,
                                        bool star) {
  return db_.execute_select(tag_scan_stmt(table, tag_column, tags, star));
}

void LocalTransport::scan(const std::string& table,
                          const std::function<void(const sql::Row&)>& fn) {
  db_.table(table).scan([&](int64_t, const sql::Row& row) { fn(row); });
}

}  // namespace wre::core
