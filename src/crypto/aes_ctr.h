// AES in counter (CTR) mode — the IND-CPA-secure payload encryption Enc' of
// the WRE construction (Figure 1). Each cell ciphertext is
//   nonce(16 bytes) || AES-CTR(key, nonce, plaintext)
// with a fresh random nonce per encryption, so equal plaintexts encrypt to
// independent-looking ciphertexts. Keystream blocks are independent, so they
// are generated through Aes::encrypt_blocks, which keeps multiple blocks in
// flight on AES-NI hardware.
#pragma once

#include "src/crypto/aes.h"
#include "src/crypto/secure_random.h"
#include "src/util/bytes.h"

namespace wre::crypto {

/// Stateless CTR-mode wrapper around the AES block cipher.
class AesCtr {
 public:
  static constexpr size_t kNonceSize = Aes::kBlockSize;

  /// Key must be 16, 24 or 32 bytes (AES-128/192/256).
  explicit AesCtr(ByteView key) : cipher_(key) {}

  /// Produces nonce || keystream-xor-plaintext using a fresh nonce drawn
  /// from `rng`.
  Bytes encrypt(ByteView plaintext, SecureRandom& rng) const;

  /// Inverse of encrypt. Throws CryptoError if `ciphertext` is shorter than
  /// the nonce.
  Bytes decrypt(ByteView ciphertext) const;

  /// Inverse of encrypt into caller memory: writes plaintext_size(ciphertext)
  /// bytes to `out`. Throws CryptoError (writing nothing) if `ciphertext` is
  /// shorter than the nonce.
  void decrypt(ByteView ciphertext, uint8_t* out) const;

  /// Length of the plaintext inside `ciphertext`. Throws CryptoError if
  /// `ciphertext` is shorter than the nonce.
  static size_t plaintext_size(ByteView ciphertext);

  /// Raw CTR keystream application with an explicit starting counter block;
  /// exposed for tests against NIST SP 800-38A vectors.
  Bytes transform(ByteView data, const uint8_t nonce[kNonceSize]) const;

 private:
  /// XORs the keystream starting at counter block `nonce` over `data` into
  /// `out` (data.size() bytes).
  void apply(ByteView data, const uint8_t nonce[kNonceSize],
             uint8_t* out) const;

  Aes cipher_;
};

}  // namespace wre::crypto
