#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/cpu_features.h"
#include "src/crypto/hw_kernels.h"
#include "src/util/error.h"

namespace wre::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress_scalar(uint32_t state[8], const uint8_t* blocks,
                     size_t nblocks) {
  while (nblocks--) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(blocks + 4 * i);
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
    blocks += Sha256::kBlockSize;
  }
}

}  // namespace

Sha256::Sha256() {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
}

Sha256::Sha256(const State& midstate) : total_len_(midstate.bytes) {
  std::memcpy(state_, midstate.h, sizeof(state_));
}

Sha256::State Sha256::midstate() const {
  if (buffer_len_ != 0) {
    throw CryptoError("Sha256::midstate: not at a block boundary");
  }
  State s;
  std::memcpy(s.h, state_, sizeof(state_));
  s.bytes = total_len_;
  return s;
}

void Sha256::process_blocks(const uint8_t* blocks, size_t nblocks) {
#ifdef WRE_HAVE_SHANI
  static const bool kHasShaNi = CpuFeatures::get().sha_ni;
  if (kHasShaNi && hwcrypto_enabled()) {
    detail::sha256_compress_shani(state_, blocks, nblocks);
    return;
  }
#endif
  compress_scalar(state_, blocks, nblocks);
}

void Sha256::update(ByteView data) {
  // An empty view may carry a null pointer, which memcpy must not see.
  if (data.empty()) return;
  total_len_ += data.size();
  size_t offset = 0;

  if (buffer_len_ > 0) {
    size_t take = std::min(kBlockSize - buffer_len_, data.size());
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kBlockSize) {
      process_blocks(buffer_, 1);
      buffer_len_ = 0;
    }
  }

  // Compress the whole block-aligned middle in one dispatched call so the
  // accelerated kernel amortizes its state repacking across blocks.
  if (size_t full = (data.size() - offset) / kBlockSize; full > 0) {
    process_blocks(data.data() + offset, full);
    offset += full * kBlockSize;
  }

  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_, data.data() + offset, buffer_len_);
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::finish() {
  uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, then the 64-bit big-endian length.
  uint8_t pad[kBlockSize * 2] = {0x80};
  size_t pad_len = (buffer_len_ < 56) ? (56 - buffer_len_)
                                      : (kBlockSize + 56 - buffer_len_);
  update(ByteView(pad, pad_len));

  uint8_t len_bytes[8];
  store_be64(len_bytes, bit_len);
  update(ByteView(len_bytes, 8));

  std::array<uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace wre::crypto
