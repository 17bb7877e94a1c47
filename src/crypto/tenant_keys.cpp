#include "src/crypto/tenant_keys.h"

#include "src/crypto/hkdf.h"

namespace wre::crypto {

TenantKeyring::TenantKeyring(ByteView master_secret)
    : prk_(hkdf_extract(to_bytes("wre-tenant-keyring-v1"), master_secret)) {}

Bytes TenantKeyring::tenant_secret(uint64_t tenant_id) const {
  // info = "tenant" || le64(tenant_id): the explicit fixed-width id keeps
  // the label space prefix-free, so no two tenants share an info string.
  Bytes info = to_bytes("tenant");
  store_le64(info, tenant_id);
  return hkdf_expand(prk_, info, 32);
}

}  // namespace wre::crypto
