#include "src/net/wire.h"

#include <algorithm>

namespace wre::net {

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kPing: return "Ping";
    case Opcode::kExecSql: return "ExecSql";
    case Opcode::kInsertBatch: return "InsertBatch";
    case Opcode::kCreateTable: return "CreateTable";
    case Opcode::kCreateIndex: return "CreateIndex";
    case Opcode::kHasTable: return "HasTable";
    case Opcode::kRowCount: return "RowCount";
    case Opcode::kTableSchema: return "TableSchema";
    case Opcode::kTagScan: return "TagScan";
    case Opcode::kScanTable: return "ScanTable";
    case Opcode::kOkResult: return "OkResult";
    case Opcode::kOkBool: return "OkBool";
    case Opcode::kOkIds: return "OkIds";
    case Opcode::kOkSchema: return "OkSchema";
    case Opcode::kOkUnit: return "OkUnit";
    case Opcode::kOkCount: return "OkCount";
    case Opcode::kOkPong: return "OkPong";
    case Opcode::kError: return "Error";
  }
  return "?";
}

bool is_request_opcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kPing) &&
         op <= static_cast<uint8_t>(Opcode::kScanTable);
}

StatusCode status_code_for(const std::exception& e) {
  // Most-derived first: every subclass is also a wre::Error.
  if (dynamic_cast<const OverloadedError*>(&e)) return StatusCode::kOverloaded;
  if (dynamic_cast<const FrameTooLargeError*>(&e)) {
    return StatusCode::kFrameTooLarge;
  }
  if (dynamic_cast<const StorageError*>(&e)) return StatusCode::kStorage;
  if (dynamic_cast<const SqlError*>(&e)) return StatusCode::kSql;
  if (dynamic_cast<const CryptoError*>(&e)) return StatusCode::kCrypto;
  if (dynamic_cast<const WreError*>(&e)) return StatusCode::kWre;
  if (dynamic_cast<const NetworkError*>(&e)) return StatusCode::kNetwork;
  return StatusCode::kGeneric;
}

void rethrow_status(StatusCode code, const std::string& message) {
  switch (code) {
    case StatusCode::kStorage: throw StorageError(message);
    case StatusCode::kSql: throw SqlError(message);
    case StatusCode::kCrypto: throw CryptoError(message);
    case StatusCode::kWre: throw WreError(message);
    case StatusCode::kNetwork: throw NetworkError(message);
    case StatusCode::kOverloaded: throw OverloadedError(message);
    case StatusCode::kFrameTooLarge: throw FrameTooLargeError(message);
    case StatusCode::kGeneric: break;
  }
  // Unknown future codes degrade to the hierarchy root rather than failing.
  throw Error(message);
}

namespace {

/// The request extension's flags byte: idempotency key and tenant id
/// present — in every request frame.
constexpr uint8_t kRequestExtFlags = 0x03;

/// The header's length field for `payload`; a payload it cannot express is
/// refused rather than sent with a truncated length, which would desync
/// the stream.
uint32_t frame_length(ByteView payload) {
  if (payload.size() > kMaxFramePayloadBytes) {
    throw FrameTooLargeError("wire: frame payload of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the u32 length field");
  }
  return static_cast<uint32_t>(payload.size());
}

}  // namespace

Bytes encode_frame(Opcode opcode, ByteView payload) {
  const uint32_t length = frame_length(payload);
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kWireVersion);
  out.push_back(static_cast<uint8_t>(opcode));
  store_le32(out, length);
  append(out, payload);
  return out;
}

Bytes encode_request_frame(Opcode opcode, ByteView payload,
                           const RequestExt& ext) {
  const uint32_t length = frame_length(payload);
  Bytes out;
  out.reserve(kRequestHeadBytes + payload.size());
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kWireVersionExt);
  out.push_back(static_cast<uint8_t>(opcode));
  store_le32(out, length);
  out.push_back(static_cast<uint8_t>(kRequestExtBytes));
  out.push_back(kRequestExtFlags);
  out.push_back(0);  // reserved
  out.push_back(0);
  store_le32(out, ext.deadline_ms);
  out.insert(out.end(), ext.key.begin(), ext.key.end());
  store_le64(out, ext.tenant_id);
  append(out, payload);
  return out;
}

FrameHeader decode_frame_header(const uint8_t (&header)[kFrameHeaderBytes],
                                size_t max_frame_bytes) {
  if (header[0] != kMagic0 || header[1] != kMagic1) {
    throw NetworkError("wire: bad frame magic");
  }
  if (header[2] != kWireVersion && header[2] != kWireVersionExt) {
    throw NetworkError("wire: unsupported protocol version " +
                       std::to_string(header[2]));
  }
  uint32_t length = load_le32(header + 4);
  if (length > max_frame_bytes) {
    throw FrameTooLargeError("wire: frame payload of " +
                             std::to_string(length) + " bytes exceeds the " +
                             std::to_string(max_frame_bytes) + "-byte limit");
  }
  return FrameHeader{static_cast<Opcode>(header[3]), length, header[2]};
}

bool decode_request_head(ByteView in, size_t max_frame_bytes,
                         RequestHead* out) {
  if (in.size() < kFrameHeaderBytes) return false;
  uint8_t header[kFrameHeaderBytes];
  std::copy_n(in.begin(), kFrameHeaderBytes, header);
  const FrameHeader fh = decode_frame_header(header, max_frame_bytes);
  if (fh.version != kWireVersionExt) {
    throw NetworkError("wire: request frame of version " +
                       std::to_string(fh.version) + ", need " +
                       std::to_string(kWireVersionExt));
  }
  if (in.size() < kFrameHeaderBytes + 1) return false;
  const uint8_t ext_len = in[kFrameHeaderBytes];
  if (ext_len != kRequestExtBytes) {
    throw NetworkError("wire: request extension of " +
                       std::to_string(ext_len) + " bytes, need " +
                       std::to_string(kRequestExtBytes));
  }
  if (in.size() < kRequestHeadBytes) return false;
  const uint8_t* ext = in.data() + kFrameHeaderBytes + 1;
  if (ext[0] != kRequestExtFlags || ext[1] != 0 || ext[2] != 0) {
    throw NetworkError("wire: request extension flags must be 0x03, "
                       "reserved bytes zero");
  }
  out->opcode = fh.opcode;
  out->payload_length = fh.payload_length;
  out->ext.deadline_ms = load_le32(ext + 3);
  std::copy_n(ext + 7, out->ext.key.size(), out->ext.key.begin());
  out->ext.tenant_id = load_le64(ext + 23);
  return true;
}

void WireReader::need(size_t n) const {
  if (n > remaining()) {
    throw NetworkError("wire: truncated payload (need " + std::to_string(n) +
                       " bytes, have " + std::to_string(remaining()) + ")");
  }
}

uint8_t WireReader::u8() {
  need(1);
  return data_[pos_++];
}

uint16_t WireReader::u16() {
  need(2);
  uint16_t v = static_cast<uint16_t>(data_[pos_] |
                                     (static_cast<uint16_t>(data_[pos_ + 1])
                                      << 8));
  pos_ += 2;
  return v;
}

uint32_t WireReader::u32() {
  need(4);
  uint32_t v = load_le32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

uint64_t WireReader::u64() {
  need(8);
  uint64_t v = load_le64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::string WireReader::string() {
  uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

Bytes WireReader::blob() {
  uint32_t len = u32();
  need(len);
  Bytes b(data_.begin() + static_cast<ptrdiff_t>(pos_),
          data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += len;
  return b;
}

sql::Value WireReader::value() {
  // Value::wire_decode bounds-checks against the same buffer; translate its
  // SqlError into the protocol-level error the session handler expects.
  try {
    return sql::Value::wire_decode(data_, pos_);
  } catch (const SqlError& e) {
    throw NetworkError(std::string("wire: ") + e.what());
  }
}

sql::Row WireReader::row() {
  uint32_t n = u32();
  // Each value is at least one type byte.
  if (n > remaining()) {
    throw NetworkError("wire: row value count overruns frame");
  }
  sql::Row r;
  r.reserve(n);
  for (uint32_t i = 0; i < n; ++i) r.push_back(value());
  return r;
}

sql::Schema WireReader::schema() {
  try {
    return sql::Schema::wire_decode(data_, pos_);
  } catch (const SqlError& e) {
    throw NetworkError(std::string("wire: ") + e.what());
  }
}

void WireReader::expect_end() const {
  if (remaining() != 0) {
    throw NetworkError("wire: " + std::to_string(remaining()) +
                       " trailing bytes after payload");
  }
}

void WireWriter::u16(uint16_t v) {
  out_.push_back(static_cast<uint8_t>(v & 0xff));
  out_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::string(std::string_view s) {
  u32(static_cast<uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

void WireWriter::row(const sql::Row& r) {
  u32(static_cast<uint32_t>(r.size()));
  for (const sql::Value& v : r) value(v);
}

void encode_result_set(const sql::ResultSet& rs, WireWriter& w) {
  rs.wire_encode(w.bytes());
}

sql::ResultSet decode_result_set(WireReader& r) {
  try {
    return sql::ResultSet::wire_decode(r.data_, r.pos_);
  } catch (const SqlError& e) {
    throw NetworkError(std::string("wire: ") + e.what());
  }
}

}  // namespace wre::net
