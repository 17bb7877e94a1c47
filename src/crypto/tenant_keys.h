// Per-tenant key derivation for the multi-tenant service shape: one
// wre_server, millions of tenants, one 32-byte service master secret.
//
// Each tenant gets an independent 32-byte tenant secret via HKDF under a
// tenant-scoped info label, and from it the standard WRE KeyBundle
// (KeyBundle::derive), so a tenant behaves exactly like a standalone
// deployment holding that secret: its payload keys, tag-PRF keys and shuffle
// keys share no algebraic relation with any other tenant's. In particular
// two tenants' search tags for the same plaintext are outputs of
// independently-keyed PRFs — tag namespaces are cryptographically disjoint,
// which is what lets tenants share one physical table server-side.
//
// Derivation (locked by golden KATs in tests/multi_tenant_test.cpp — a
// silent change here would orphan every existing tenant's data):
//
//   PRK            = HKDF-Extract(salt = "wre-tenant-keyring-v1",
//                                 ikm  = service master secret)
//   tenant_secret  = HKDF-Expand(PRK, "tenant" || le64(tenant_id), 32)
//   tenant bundle  = KeyBundle::derive(tenant_secret)
//
// The PRK is held as precomputed HMAC midstates, so a tenant derivation
// costs two SHA-256 compressions per output block and no per-call key
// scheduling.
#pragma once

#include <cstdint>

#include "src/crypto/hmac_sha256.h"
#include "src/util/bytes.h"

namespace wre::crypto {

/// Derives one independent WRE key universe per tenant id. Thread-safe:
/// any number of threads may derive concurrently.
class TenantKeyring {
 public:
  explicit TenantKeyring(ByteView master_secret);

  /// The tenant's 32-byte master secret (see the derivation spec above).
  /// Hand this to an EncryptedConnection and the tenant's tables encrypt,
  /// search and reopen exactly like a single-tenant deployment.
  Bytes tenant_secret(uint64_t tenant_id) const;

 private:
  HmacSha256::Key prk_;  // midstates of the extracted PRK
};

}  // namespace wre::crypto
