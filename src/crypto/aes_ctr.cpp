#include "src/crypto/aes_ctr.h"

#include <cstring>

#include "src/util/error.h"

namespace wre::crypto {

void AesCtr::apply(ByteView data, const uint8_t nonce[kNonceSize],
                   uint8_t* out) const {
  uint8_t counter[kNonceSize];
  std::memcpy(counter, nonce, kNonceSize);

  // Counter blocks are generated in batches and encrypted through the
  // multi-block path, which pipelines them under AES-NI; the scalar
  // fallback degrades to the same block-at-a-time loop as before.
  constexpr size_t kBatchBlocks = 8;
  uint8_t counters[kBatchBlocks * Aes::kBlockSize];
  uint8_t keystream[kBatchBlocks * Aes::kBlockSize];
  size_t offset = 0;
  while (offset < data.size()) {
    const size_t remaining = data.size() - offset;
    const size_t blocks = std::min(
        kBatchBlocks, (remaining + Aes::kBlockSize - 1) / Aes::kBlockSize);
    for (size_t b = 0; b < blocks; ++b) {
      std::memcpy(counters + b * Aes::kBlockSize, counter, kNonceSize);
      // Increment the counter block as a 128-bit big-endian integer.
      for (int i = kNonceSize - 1; i >= 0; --i) {
        if (++counter[i] != 0) break;
      }
    }
    cipher_.encrypt_blocks(counters, keystream, blocks);
    const size_t n = std::min(remaining, blocks * Aes::kBlockSize);
    for (size_t i = 0; i < n; ++i) {
      out[offset + i] = data[offset + i] ^ keystream[i];
    }
    offset += n;
  }
}

Bytes AesCtr::transform(ByteView data, const uint8_t nonce[kNonceSize]) const {
  Bytes out(data.size());
  apply(data, nonce, out.data());
  return out;
}

Bytes AesCtr::encrypt(ByteView plaintext, SecureRandom& rng) const {
  Bytes out(kNonceSize + plaintext.size());
  rng.fill(std::span<uint8_t>(out.data(), kNonceSize));
  apply(plaintext, out.data(), out.data() + kNonceSize);
  return out;
}

size_t AesCtr::plaintext_size(ByteView ciphertext) {
  if (ciphertext.size() < kNonceSize) {
    throw CryptoError("AesCtr::decrypt: ciphertext shorter than nonce");
  }
  return ciphertext.size() - kNonceSize;
}

void AesCtr::decrypt(ByteView ciphertext, uint8_t* out) const {
  const size_t n = plaintext_size(ciphertext);
  apply(ciphertext.last(n), ciphertext.data(), out);
}

Bytes AesCtr::decrypt(ByteView ciphertext) const {
  Bytes out(plaintext_size(ciphertext));
  decrypt(ciphertext, out.data());
  return out;
}

}  // namespace wre::crypto
