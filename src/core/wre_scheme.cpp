#include "src/core/wre_scheme.h"

#include <algorithm>

namespace wre::core {

WreScheme::WreScheme(crypto::KeyBundle keys,
                     std::unique_ptr<SaltAllocator> allocator,
                     UnseenValuePolicy unseen_policy)
    : WreScheme(std::move(keys),
                std::shared_ptr<const SaltAllocator>(std::move(allocator)),
                unseen_policy) {}

WreScheme::WreScheme(crypto::KeyBundle keys,
                     std::shared_ptr<const SaltAllocator> allocator,
                     UnseenValuePolicy unseen_policy)
    : keys_(std::move(keys)),
      prf_(keys_.tag_key),
      payload_(keys_.payload_key),
      allocator_(std::move(allocator)),
      unseen_policy_(unseen_policy) {
  if (!allocator_) throw WreError("WreScheme: null allocator");
}

std::unique_ptr<WreScheme> WreScheme::clone() const {
  return std::unique_ptr<WreScheme>(
      new WreScheme(keys_, allocator_, unseen_policy_));
}

crypto::Tag WreScheme::tag_for(uint64_t salt, const std::string& m) const {
  // The deterministic fallback tag is always message-bound, even for the
  // bucketized scheme whose regular tags bind to the salt alone: a shared
  // "unseen" tag would merge all unseen values into one equality class.
  if (salt == kUnseenSalt) return prf_.tag(salt, to_bytes(m));
  return allocator_->bucketized() ? prf_.bucket_tag(salt)
                                  : prf_.tag(salt, to_bytes(m));
}

SaltSet WreScheme::salts_with_policy(const std::string& m) const {
  if (allocator_->covers(m)) return allocator_->salts_for(m);
  switch (unseen_policy_) {
    case UnseenValuePolicy::kReject:
      throw WreError("value outside the plaintext distribution: '" + m +
                     "' (configure kDeterministicFallback to accept it)");
    case UnseenValuePolicy::kDeterministicFallback:
      return SaltSet{{kUnseenSalt}, {1.0}};
  }
  throw WreError("corrupt unseen-value policy");
}

EncryptedCell WreScheme::encrypt(const std::string& m,
                                 crypto::SecureRandom& rng) const {
  SaltSet salts = salts_with_policy(m);
  uint64_t salt = salts.sample(rng);
  return EncryptedCell{tag_for(salt, m), payload_.encrypt(to_bytes(m), rng)};
}

std::string WreScheme::decrypt(ByteView ciphertext) const {
  std::string m(crypto::AesCtr::plaintext_size(ciphertext), '\0');
  payload_.decrypt(ciphertext, reinterpret_cast<uint8_t*>(m.data()));
  return m;
}

std::vector<crypto::Tag> WreScheme::search_tags(const std::string& m) const {
  SaltSet salts = salts_with_policy(m);
  std::vector<crypto::Tag> tags(salts.salts.size());
  // The unseen-value fallback is a single message-bound tag even for the
  // bucketized scheme (see tag_for); everything else goes through the
  // batched PRF so per-call overhead amortizes across the salt set.
  if (salts.salts.size() == 1 && salts.salts[0] == kUnseenSalt) {
    tags[0] = tag_for(kUnseenSalt, m);
  } else if (allocator_->bucketized()) {
    prf_.bucket_tags(salts.salts.data(), salts.salts.size(), tags.data());
  } else {
    prf_.tags(salts.salts.data(), salts.salts.size(), to_bytes(m),
              tags.data());
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  return tags;
}

}  // namespace wre::core
