#include "src/sql/value.h"

#include "src/util/error.h"

namespace wre::sql {

const char* type_name(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "NULL";
    case ValueType::kInt64: return "INTEGER";
    case ValueType::kText: return "TEXT";
    case ValueType::kBlob: return "BLOB";
  }
  return "?";
}

ValueType Value::type() const {
  return static_cast<ValueType>(data_.index());
}

int64_t Value::as_int64() const {
  if (const auto* v = std::get_if<int64_t>(&data_)) return *v;
  throw SqlError(std::string("Value: expected INTEGER, got ") +
                 type_name(type()));
}

const std::string& Value::as_text() const {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  throw SqlError(std::string("Value: expected TEXT, got ") +
                 type_name(type()));
}

const Bytes& Value::as_blob() const {
  if (const auto* v = std::get_if<Bytes>(&data_)) return *v;
  throw SqlError(std::string("Value: expected BLOB, got ") +
                 type_name(type()));
}

bool Value::sql_equals(const Value& other) const {
  if (is_null() || other.is_null()) return false;
  return data_ == other.data_;
}

std::string Value::to_sql_literal() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(std::get<int64_t>(data_));
    case ValueType::kText: {
      const std::string& s = std::get<std::string>(data_);
      std::string out = "'";
      for (char c : s) {
        out.push_back(c);
        if (c == '\'') out.push_back('\'');  // SQL doubling escape
      }
      out.push_back('\'');
      return out;
    }
    case ValueType::kBlob:
      return "X'" + to_hex(std::get<Bytes>(data_)) + "'";
  }
  return "NULL";
}

void Value::wire_encode(Bytes& out) const {
  out.push_back(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      store_le64(out, static_cast<uint64_t>(std::get<int64_t>(data_)));
      break;
    case ValueType::kText: {
      const std::string& s = std::get<std::string>(data_);
      store_le32(out, static_cast<uint32_t>(s.size()));
      out.insert(out.end(), s.begin(), s.end());
      break;
    }
    case ValueType::kBlob: {
      const Bytes& b = std::get<Bytes>(data_);
      store_le32(out, static_cast<uint32_t>(b.size()));
      append(out, b);
      break;
    }
  }
}

CellView read_cell(ByteView data, size_t& pos) {
  auto need = [&](size_t n) {
    if (n > data.size() || pos > data.size() - n) {
      throw SqlError("cell: truncated encoding");
    }
  };
  need(1);
  const size_t start = pos++;
  switch (static_cast<ValueType>(data[start])) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      need(8);
      pos += 8;
      break;
    case ValueType::kText:
    case ValueType::kBlob: {
      need(4);
      uint32_t len = load_le32(data.data() + pos);
      pos += 4;
      // The length check also bounds any later copy by the input size.
      need(len);
      pos += len;
      break;
    }
    default:
      throw SqlError("cell: unknown type byte " +
                     std::to_string(data[start]));
  }
  return CellView{data.data() + start, pos - start};
}

int64_t CellView::int64() const {
  return static_cast<int64_t>(load_le64(begin + 1));
}

std::string_view CellView::bytes() const {
  return {reinterpret_cast<const char*>(begin + 5), size - 5};
}

bool CellView::sql_equals(const Value& v) const {
  const ValueType t = type();
  if (t == ValueType::kNull || t != v.type()) return false;
  switch (t) {
    case ValueType::kInt64:
      return int64() == v.as_int64();
    case ValueType::kText:
      return bytes() == v.as_text();
    case ValueType::kBlob: {
      const Bytes& b = v.as_blob();
      return bytes() ==
             std::string_view(reinterpret_cast<const char*>(b.data()),
                              b.size());
    }
    case ValueType::kNull:
      break;
  }
  return false;
}

Value CellView::value() const {
  switch (type()) {
    case ValueType::kInt64:
      return Value::int64(int64());
    case ValueType::kText:
      return Value::text(std::string(bytes()));
    case ValueType::kBlob: {
      const uint8_t* p = begin + 5;
      return Value::blob(Bytes(p, p + (size - 5)));
    }
    case ValueType::kNull:
      break;
  }
  return Value::null();
}

Value Value::wire_decode(ByteView data, size_t& pos) {
  return read_cell(data, pos).value();
}

}  // namespace wre::sql
