#include "src/crypto/hmac_sha256.h"

#include <cstring>

namespace wre::crypto {

HmacSha256::Key::Key(ByteView key) {
  std::array<uint8_t, Sha256::kBlockSize> block{};
  if (key.size() > Sha256::kBlockSize) {
    auto digest = Sha256::digest(key);
    std::memcpy(block.data(), digest.data(), digest.size());
  } else if (!key.empty()) {  // an empty key's data() may be null
    std::memcpy(block.data(), key.data(), key.size());
  }

  std::array<uint8_t, Sha256::kBlockSize> ipad_key, opad_key;
  for (size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad_key[i] = block[i] ^ 0x36;
    opad_key[i] = block[i] ^ 0x5c;
  }
  Sha256 inner;
  inner.update(ipad_key);
  inner_ = inner.midstate();
  Sha256 outer;
  outer.update(opad_key);
  outer_ = outer.midstate();
}

HmacSha256::HmacSha256(const Key& key)
    : inner_(key.inner_), outer_mid_(key.outer_) {}

void HmacSha256::update(ByteView data) { inner_.update(data); }

std::array<uint8_t, HmacSha256::kDigestSize> HmacSha256::finish() {
  auto inner_digest = inner_.finish();
  Sha256 outer(outer_mid_);
  outer.update(inner_digest);
  return outer.finish();
}

std::array<uint8_t, HmacSha256::kDigestSize> HmacSha256::mac(ByteView key,
                                                             ByteView data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finish();
}

std::array<uint8_t, HmacSha256::kDigestSize> HmacSha256::mac(const Key& key,
                                                             ByteView data) {
  HmacSha256 h(key);
  h.update(data);
  return h.finish();
}

}  // namespace wre::crypto
