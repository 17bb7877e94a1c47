// Byte-buffer helpers shared across the library: hex (de)serialization,
// little-endian integer packing, and constant-time comparison.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wre {

/// Owning byte buffer. All crypto and storage interfaces traffic in Bytes or
/// std::span<const uint8_t> views over them.
using Bytes = std::vector<uint8_t>;
using ByteView = std::span<const uint8_t>;

/// Encodes `data` as lowercase hex (two characters per byte).
std::string to_hex(ByteView data);

/// Decodes a hex string (upper or lower case). Throws std::invalid_argument
/// on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Reinterprets a string's characters as bytes (no copy avoided; returns an
/// owning buffer so the caller need not keep the string alive).
Bytes to_bytes(std::string_view s);

/// Reinterprets a byte buffer as a std::string.
std::string to_string(ByteView data);

/// Appends `data` to `out`.
void append(Bytes& out, ByteView data);

// Little-endian packing of fixed-width integers. These sit under every cell
// of the record, wire and segment codecs, so they are inline: one unaligned
// memcpy load or store each (a byte swap on big-endian hosts).

/// Writes `v` least significant byte first to out[0..3] / out[0..7].
inline void store_le32(uint8_t* out, uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  std::memcpy(out, &v, sizeof v);
}
inline void store_le64(uint8_t* out, uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(out, &v, sizeof v);
}

/// Appends the 4 or 8 bytes of `v` to `out` (one resize).
inline void store_le32(Bytes& out, uint32_t v) {
  const size_t at = out.size();
  out.resize(at + sizeof v);
  store_le32(out.data() + at, v);
}
inline void store_le64(Bytes& out, uint64_t v) {
  const size_t at = out.size();
  out.resize(at + sizeof v);
  store_le64(out.data() + at, v);
}

/// Little-endian unpacking at any alignment. Precondition: `data` holds at
/// least the width.
inline uint32_t load_le32(const uint8_t* data) {
  uint32_t v = 0;
  std::memcpy(&v, data, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}
inline uint64_t load_le64(const uint8_t* data) {
  uint64_t v = 0;
  std::memcpy(&v, data, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// Big-endian helpers (used by SHA-256 and AES-CTR counters).
void store_be32(uint8_t* out, uint32_t v);
void store_be64(uint8_t* out, uint64_t v);
uint32_t load_be32(const uint8_t* data);

/// Constant-time equality: runtime depends only on the lengths, never on the
/// contents. Returns false immediately if the lengths differ.
bool constant_time_equal(ByteView a, ByteView b);

}  // namespace wre
