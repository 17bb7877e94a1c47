// The length-prefixed binary wire protocol between a WRE client and
// wre_server. Every frame starts with one 8-byte header:
//
//   offset  size  field
//   0       2     magic "WR"
//   2       1     frame format version
//   3       1     opcode (request 0x01-0x7F, response 0x80-0xFF)
//   4       4     payload length, little-endian
//
// A response frame is version 1 (kWireVersion): the header, then the
// payload. A request frame has exactly one form, version 2
// (kWireVersionExt), with a fixed request extension between the header
// and the payload:
//
//   8       1     ext_len, always 31 (kRequestExtBytes)
//   9       1     flags, always 0x03 (idempotency key and tenant id)
//   10      2     reserved, zero
//   12      4     request deadline in ms, little-endian (0 = none)
//   16      16    idempotency key (client-generated, random)
//   32      8     tenant id, little-endian (0 = the default tenant)
//   40      n     payload (opcode-specific; see the Opcode table)
//
// The extension is what makes retries safe end-to-end: the client stamps
// every request with a fresh random idempotency key, keeps the key constant
// across retries of that request, and the server's dedup cache replays the
// recorded response instead of re-executing a mutation it already applied.
// The deadline lets the server stop waiting for a request whose client has
// already given up. The tenant id scopes the idempotency key: the dedup
// cache is keyed by (tenant, key), so one tenant can never replay — or
// poison — another tenant's recorded responses. Any other request framing
// (version 1, another ext_len, other flags) is a framing fault: the server
// answers with a kNetwork error and closes the session.
//
// Integers are little-endian; strings and blobs are a u32 length followed by
// raw bytes; sql::Value / sql::Schema use their own wire_encode hooks. All
// decoding is strictly bounds-checked: malformed framing (bad magic or
// version, oversized length, a bad extension) or a malformed payload
// (truncated field, inflated element count) raises NetworkError before any
// out-of-bounds read or unbounded allocation can happen. The server answers
// either with an error frame; after bad framing it also closes the session,
// since the stream position past it is lost.
//
// Security note (the paper's trust boundary, Section I-A): frames carry SQL
// text over tag columns, search-tag lists and AES-CTR ciphertext blobs.
// Nothing in this protocol can transport keys, salts or plaintexts of
// encrypted columns — those never leave the client process.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sql/database.h"
#include "src/util/bytes.h"
#include "src/util/error.h"

namespace wre::net {

inline constexpr uint8_t kMagic0 = 'W';
inline constexpr uint8_t kMagic1 = 'R';
/// Response frames: header + payload.
inline constexpr uint8_t kWireVersion = 1;
/// Request frames: header + request extension + payload.
inline constexpr uint8_t kWireVersionExt = 2;
inline constexpr size_t kFrameHeaderBytes = 8;
/// Extension bytes following the ext_len byte of a request frame.
inline constexpr size_t kRequestExtBytes = 31;
/// A request frame's bytes before its payload: header, ext_len, extension.
inline constexpr size_t kRequestHeadBytes =
    kFrameHeaderBytes + 1 + kRequestExtBytes;
/// Default ceiling on one frame's payload. Requests above it are rejected
/// without being read — the server's backpressure limit against hostile or
/// buggy clients allocating unbounded memory server-side.
inline constexpr size_t kDefaultMaxFrameBytes = 64u << 20;  // 64 MiB
/// What a frame's u32 length field can carry; encode_frame refuses more.
inline constexpr size_t kMaxFramePayloadBytes = UINT32_MAX;

/// Message types. Requests pair with the response listed next to them; any
/// request may instead receive kError.
enum class Opcode : uint8_t {
  // Requests.
  kPing = 0x01,         // -> kOkPong; liveness / version handshake
  kExecSql = 0x02,      // -> kOkResult; payload: string sql
  kInsertBatch = 0x03,  // -> kOkIds; payload: table, u32 nrows, rows
  kCreateTable = 0x04,  // -> kOkUnit; payload: table, schema
  kCreateIndex = 0x05,  // -> kOkUnit; payload: table, column
  kHasTable = 0x06,     // -> kOkBool; payload: table
  kRowCount = 0x07,     // -> kOkCount; payload: table
  kTableSchema = 0x08,  // -> kOkSchema; payload: table
  kTagScan = 0x09,      // -> kOkResult; payload: table, tag column, u8 star,
                        //    u32 ntags, u64 tags — the prepared multi-probe
                        //    path: no SQL rendering/parsing for WRE searches
  kScanTable = 0x0A,    // -> kOkResult; payload: table (heap-order full scan)
  // 0x0B and 0x87 are retired and stay unassigned, so an old peer that
  // sends 0x0B gets kError instead of a reinterpreted request.

  // Responses.
  kOkResult = 0x80,     // result set (columns, rows, counters)
  kOkBool = 0x81,       // u8
  kOkIds = 0x82,        // u32 n, n * i64
  kOkSchema = 0x83,     // schema
  kOkUnit = 0x84,       // empty
  kOkCount = 0x85,      // u64
  kOkPong = 0x86,       // empty
  kError = 0xFF,        // u16 status code, string message
};

const char* opcode_name(Opcode op);
bool is_request_opcode(uint8_t op);

/// Stable wire encodings of the wre::Error hierarchy. The server maps a
/// thrown exception to a code with status_code_for(); the client re-throws
/// the *same* subclass via rethrow_status(), so `catch (SqlError&)` works
/// identically against a local database and a remote server.
enum class StatusCode : uint16_t {
  kGeneric = 1,  // wre::Error or any non-wre std::exception
  kStorage = 2,
  kSql = 3,
  kCrypto = 4,
  kWre = 5,
  /// The request's bytes were malformed. After a framing fault the server
  /// also closes the session, so a client drops the channel that drew it.
  kNetwork = 6,
  /// Retryable: the server shed the request (admission control or
  /// server-side deadline) without executing it — or it is safe to replay
  /// because the idempotency key dedups it. Clients back off and retry
  /// instead of failing.
  kOverloaded = 7,
  /// The response is larger than a frame may carry (FrameTooLargeError):
  /// the request's answer, not a broken stream, so the session stays open.
  /// Deterministic, so not retried.
  kFrameTooLarge = 8,
};

StatusCode status_code_for(const std::exception& e);
[[noreturn]] void rethrow_status(StatusCode code, const std::string& message);

/// One decoded message.
struct Frame {
  Opcode opcode = Opcode::kPing;
  Bytes payload;
};

/// The per-request extension (see the format comment above).
struct RequestExt {
  std::array<uint8_t, 16> key{};
  /// How long the client is still willing to wait, in ms (0 = no deadline).
  /// The server bounds its database-lock wait by it.
  uint32_t deadline_ms = 0;
  /// The tenant this request acts for; 0 is the default single-tenant
  /// space. Scopes the server's idempotency cache; carries no cryptographic
  /// authority — keys never cross the wire, so a mislabelled tenant can
  /// only talk to tag integers it cannot forge matches for.
  uint64_t tenant_id = 0;
};

/// Renders a response frame: header + payload, ready for send(). Throws
/// FrameTooLargeError for a payload over kMaxFramePayloadBytes, as
/// encode_request_frame does.
Bytes encode_frame(Opcode opcode, ByteView payload);

/// Renders a request frame: header + extension + payload.
Bytes encode_request_frame(Opcode opcode, ByteView payload,
                           const RequestExt& ext);

/// Parsed and validated frame header.
struct FrameHeader {
  Opcode opcode;
  uint32_t payload_length = 0;
  /// kWireVersion (a response) or kWireVersionExt (a request).
  uint8_t version = kWireVersion;
};

/// Validates magic, version and length (<= max_frame_bytes). Throws
/// NetworkError describing exactly what was malformed: FrameTooLargeError
/// for a length over max_frame_bytes.
FrameHeader decode_frame_header(const uint8_t (&header)[kFrameHeaderBytes],
                                size_t max_frame_bytes);

/// A request frame's header and extension, validated.
struct RequestHead {
  Opcode opcode = Opcode::kPing;
  uint32_t payload_length = 0;
  RequestExt ext;
};

/// Decodes the request head at the front of `in`, checking each field as
/// soon as it has arrived. Returns false while `in` is too short to finish;
/// throws NetworkError for any framing but the one request form
/// (FrameTooLargeError for a payload length over max_frame_bytes).
bool decode_request_head(ByteView in, size_t max_frame_bytes,
                         RequestHead* out);

/// Bounds-checked sequential reader over one frame's payload. Every
/// accessor throws NetworkError on overrun; element counts are validated
/// against the bytes actually present before any allocation.
class WireReader {
 public:
  explicit WireReader(ByteView data) : data_(data) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int64_t i64() { return static_cast<int64_t>(u64()); }
  std::string string();
  Bytes blob();
  sql::Value value();
  sql::Row row();
  sql::Schema schema();

  size_t remaining() const { return data_.size() - pos_; }
  /// Rejects trailing garbage after the last expected field.
  void expect_end() const;

 private:
  friend sql::ResultSet decode_result_set(WireReader& r);

  void need(size_t n) const;

  ByteView data_;
  size_t pos_ = 0;
};

/// Payload builder; thin appending wrapper so encode sites read like the
/// format spec.
class WireWriter {
 public:
  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v);
  void u32(uint32_t v) { store_le32(out_, v); }
  void u64(uint64_t v) { store_le64(out_, v); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void string(std::string_view s);
  void value(const sql::Value& v) { v.wire_encode(out_); }
  void row(const sql::Row& r);
  void schema(const sql::Schema& s) { s.wire_encode(out_); }

  Bytes& bytes() { return out_; }

 private:
  Bytes out_;
};

/// The kOkResult body: sql::ResultSet's wire form, whose layout and codec
/// live in src/sql/result_set.h. These forward to ResultSet::wire_encode and
/// ResultSet::wire_decode; the decoder's SqlError becomes NetworkError.
void encode_result_set(const sql::ResultSet& rs, WireWriter& w);
sql::ResultSet decode_result_set(WireReader& r);

}  // namespace wre::net
