#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "src/crypto/aes.h"
#include "src/crypto/aes_ctr.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/cpu_features.h"
#include "src/crypto/hkdf.h"
#include "src/crypto/hmac_sha256.h"
#include "src/crypto/keys.h"
#include "src/crypto/prf.h"
#include "src/crypto/prs.h"
#include "src/crypto/secure_random.h"
#include "src/crypto/sha256.h"
#include "src/util/error.h"

namespace wre::crypto {
namespace {

std::string hex_of(ByteView data) { return to_hex(data); }

template <size_t N>
std::string hex_of(const std::array<uint8_t, N>& a) {
  return to_hex(ByteView(a.data(), a.size()));
}

// Runs every known-answer test under both dispatch settings: hardware
// kernels allowed (param true — falls back to scalar on CPUs without the
// extensions) and scalar forced (param false — what WRE_DISABLE_HWCRYPTO=1
// selects at startup). Either way the answers must be bit-identical.
class CryptoKatBothPaths : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { prev_ = set_hwcrypto_enabled(GetParam()); }
  void TearDown() override { set_hwcrypto_enabled(prev_); }

 private:
  bool prev_ = true;
};

INSTANTIATE_TEST_SUITE_P(Dispatch, CryptoKatBothPaths, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hardware" : "ForcedScalar";
                         });

// NIST CAVP vectors (SHA256ShortMsg.rsp, HMAC.rsp L=32, SP 800-38A CTR),
// pinned against both kernel paths.

TEST_P(CryptoKatBothPaths, Sha256CavpShortMsgLen8) {
  EXPECT_EQ(hex_of(Sha256::digest(from_hex("d3"))),
            "28969cdfa74a12c82f3bad960b0b000aca2ac329deea5c2328ebc6f2ba9802c1");
}

TEST_P(CryptoKatBothPaths, Sha256CavpShortMsgLen512) {
  Bytes msg = from_hex(
      "5a86b737eaea8ee976a0a24da63e7ed7eefad18a101c1211e2b3650c5187c2a8"
      "a650547208251f6d4237e661c7bf4c77f335390394c37fa1a9f9be836ac28509");
  EXPECT_EQ(hex_of(Sha256::digest(msg)),
            "42e61e174fbb3897d6dd6cef3dd2802fe67b331953b06114a65c772859dfc1aa");
}

TEST_P(CryptoKatBothPaths, Sha256Fips180Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(CryptoKatBothPaths, HmacSha256CavpCount30) {
  Bytes key = from_hex(
      "9779d9120642797f1747025d5b22b7ac607cab08e1758f2f3a46c8be1e25c53b"
      "8c6a8f58ffefa176");
  Bytes msg = from_hex(
      "b1689c2591eaf3c9e66070f8a77954ffb81749f1b00346f9dfe0b2ee905dcc28"
      "8baf4a92de3f4001dd9f44c468c3d07d6c6ee82faceafc97c2fc0fc0601719d2"
      "dcd0aa2aec92d1b0ae933c65eb06a03c9c935c2bad0459810241347ab87e9f11"
      "adb30415424c6c7f5f22a003b8ab8de54f6ded0e3ab9245fa79568451dfa258e");
  EXPECT_EQ(hex_of(HmacSha256::mac(key, msg)),
            "769f00d3e6a6cc1fb426a14a4f76c6462e6149726e0dee0ec0cf97a16605ac8b");
}

TEST_P(CryptoKatBothPaths, HmacSha256Rfc4231Case2) {
  EXPECT_EQ(hex_of(HmacSha256::mac(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST_P(CryptoKatBothPaths, AesCtrSp80038aF51Aes128) {
  AesCtr ctr(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(ctr.transform(pt, nonce.data())),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST_P(CryptoKatBothPaths, AesCtrSp80038aF53Aes192) {
  AesCtr ctr(from_hex("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"));
  Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(ctr.transform(pt, nonce.data())),
            "1abc932417521ca24f2b0459fe7e6e0b"
            "090339ec0aa6faefd5ccc2c6f4ce8e94"
            "1e36b26bd1ebc670d1bd1d665620abf7"
            "4f78a7f6d29809585a97daec58c6b050");
}

TEST_P(CryptoKatBothPaths, AesCtrSp80038aF55Aes256) {
  AesCtr ctr(from_hex(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4"));
  Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(to_hex(ctr.transform(pt, nonce.data())),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988d"
            "dfc9c58db67aada613c2dd08457941a6");
}

// Decrypt into caller memory: the SP 800-38A initial counter block is the
// nonce, so nonce || ciphertext decrypts to the vector's plaintext.
TEST_P(CryptoKatBothPaths, AesCtrDecryptIntoCallerMemorySp80038a) {
  const std::string pt =
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710";
  const struct {
    const char* key;
    const char* ct;
  } kVectors[] = {
      {"2b7e151628aed2a6abf7158809cf4f3c",  // F.5.2 CTR-AES128.Decrypt
       "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
       "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee"},
      {"8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",  // F.5.4
       "1abc932417521ca24f2b0459fe7e6e0b090339ec0aa6faefd5ccc2c6f4ce8e94"
       "1e36b26bd1ebc670d1bd1d665620abf74f78a7f6d29809585a97daec58c6b050"},
      {"603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
       // F.5.6 CTR-AES256.Decrypt
       "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
       "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6"},
  };
  for (const auto& v : kVectors) {
    SCOPED_TRACE(v.key);
    AesCtr ctr(from_hex(v.key));
    Bytes ciphertext = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
    append(ciphertext, from_hex(v.ct));
    // Every prefix: whole blocks, a partial last block, and nothing.
    for (size_t len : {64u, 63u, 17u, 16u, 1u, 0u}) {
      ByteView c = ByteView(ciphertext).first(AesCtr::kNonceSize + len);
      ASSERT_EQ(AesCtr::plaintext_size(c), len);
      Bytes out(len + 1, 0xee);  // one guard byte past the plaintext
      ctr.decrypt(c, out.data());
      EXPECT_EQ(to_hex(ByteView(out).first(len)), pt.substr(0, 2 * len));
      EXPECT_EQ(out[len], 0xee);
    }
  }
}

TEST_P(CryptoKatBothPaths, AesCtrDecryptIntoCallerMemoryRejectsShort) {
  AesCtr ctr(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  for (size_t len : {0u, 3u, 15u}) {
    Bytes out(4, 0xee);
    EXPECT_THROW(ctr.decrypt(Bytes(len, 0x01), out.data()), CryptoError)
        << len;
    EXPECT_EQ(out, Bytes(4, 0xee)) << len;  // nothing written
    EXPECT_THROW(AesCtr::plaintext_size(Bytes(len, 0x01)), CryptoError);
  }
}

TEST_P(CryptoKatBothPaths, Aes128Fips197Block) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16], back[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_of(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_of(ByteView(back, 16)), to_hex(pt));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyMessage) {
  EXPECT_EQ(hex_of(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(Sha256::digest(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data = to_bytes("the quick brown fox jumps over the lazy dog etc");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(ByteView(data.data(), split));
    h.update(ByteView(data.data() + split, data.size() - split));
    EXPECT_EQ(hex_of(h.finish()), hex_of(Sha256::digest(data)));
  }
}

TEST(Sha256, BoundaryLengths) {
  // Padding boundary cases: 55, 56, 63, 64, 65 bytes.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    Bytes data(len, 'x');
    Sha256 a;
    a.update(data);
    // Byte-at-a-time must agree.
    Sha256 b;
    for (uint8_t byte : data) b.update(ByteView(&byte, 1));
    EXPECT_EQ(hex_of(a.finish()), hex_of(b.finish())) << "len=" << len;
  }
}

// ----------------------------------------------------------- HMAC-SHA-256

TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(HmacSha256::mac(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hex_of(HmacSha256::mac(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(hex_of(HmacSha256::mac(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6OversizedKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(hex_of(HmacSha256::mac(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, IncrementalMatchesOneShot) {
  Bytes key = to_bytes("test key");
  HmacSha256 h(key);
  h.update(to_bytes("part one "));
  h.update(to_bytes("part two"));
  EXPECT_EQ(hex_of(h.finish()),
            hex_of(HmacSha256::mac(key, to_bytes("part one part two"))));
}

// ------------------------------------------------------------------- AES

TEST(Aes, Fips197Aes128) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_of(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_of(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, Fips197Aes192) {
  Aes aes(from_hex("000102030405060708090a0b0c0d0e0f1011121314151617"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_of(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_of(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, Fips197Aes256) {
  Aes aes(from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(hex_of(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(hex_of(ByteView(back, 16)), to_hex(pt));
}

TEST(Aes, RejectsBadKeySize) {
  EXPECT_THROW(Aes(Bytes(15)), CryptoError);
  EXPECT_THROW(Aes(Bytes(33)), CryptoError);
  EXPECT_THROW(Aes(Bytes(0)), CryptoError);
}

TEST(Aes, EncryptDecryptRoundTripRandomKeys) {
  SecureRandom rng = SecureRandom::for_testing(7);
  for (size_t key_len : {16u, 24u, 32u}) {
    Aes aes(rng.bytes(key_len));
    for (int i = 0; i < 20; ++i) {
      Bytes pt = rng.bytes(16);
      uint8_t ct[16], back[16];
      aes.encrypt_block(pt.data(), ct);
      aes.decrypt_block(ct, back);
      EXPECT_EQ(Bytes(back, back + 16), pt);
    }
  }
}

// --------------------------------------------------------------- AES-CTR

TEST(AesCtr, Sp80038aF51) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt.
  AesCtr ctr(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  Bytes nonce = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  Bytes ct = ctr.transform(pt, nonce.data());
  EXPECT_EQ(to_hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
}

TEST(AesCtr, RoundTripWithRandomNonce) {
  SecureRandom rng = SecureRandom::for_testing(11);
  AesCtr ctr(rng.bytes(32));
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1000u}) {
    Bytes pt = rng.bytes(len);
    Bytes ct = ctr.encrypt(pt, rng);
    EXPECT_EQ(ct.size(), len + AesCtr::kNonceSize);
    EXPECT_EQ(ctr.decrypt(ct), pt);
  }
}

TEST(AesCtr, EqualPlaintextsEncryptDifferently) {
  SecureRandom rng = SecureRandom::for_testing(12);
  AesCtr ctr(rng.bytes(32));
  Bytes pt = to_bytes("same message");
  EXPECT_NE(ctr.encrypt(pt, rng), ctr.encrypt(pt, rng));
}

TEST(AesCtr, CounterRollsOverAcrossBlockBoundary) {
  // A nonce of all 0xff forces the 128-bit counter to wrap between the
  // first and second block; transform must still be an involution.
  SecureRandom rng = SecureRandom::for_testing(21);
  AesCtr ctr(rng.bytes(32));
  Bytes nonce(16, 0xff);
  Bytes pt = rng.bytes(100);
  Bytes ct = ctr.transform(pt, nonce.data());
  EXPECT_NE(ct, pt);
  EXPECT_EQ(ctr.transform(ct, nonce.data()), pt);
  // The second keystream block (post-wrap) must differ from the first.
  EXPECT_NE(Bytes(ct.begin(), ct.begin() + 16),
            Bytes(ct.begin() + 16, ct.begin() + 32));
}

TEST(AesCtr, DecryptRejectsTruncated) {
  SecureRandom rng = SecureRandom::for_testing(13);
  AesCtr ctr(rng.bytes(16));
  EXPECT_THROW(ctr.decrypt(Bytes(8)), CryptoError);
}

// -------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439Example) {
  Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = from_hex("000000000000004a00000000");
  ChaCha20 stream(key, nonce, 1);
  Bytes pt = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.");
  Bytes ct = stream.transform(pt);
  EXPECT_EQ(to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, RejectsBadSizes) {
  EXPECT_THROW(ChaCha20(Bytes(16), Bytes(12)), CryptoError);
  EXPECT_THROW(ChaCha20(Bytes(32), Bytes(8)), CryptoError);
}

// ------------------------------------------------------------------ HKDF

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandRejectsHugeLength) {
  Bytes prk(32, 1);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), CryptoError);
}

TEST(Hkdf, DistinctInfosYieldIndependentKeys) {
  Bytes master(32, 0x42);
  Bytes a = hkdf(to_bytes("salt"), master, to_bytes("context-a"), 32);
  Bytes b = hkdf(to_bytes("salt"), master, to_bytes("context-b"), 32);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------- TagPrf

TEST(TagPrf, DeterministicPerKey) {
  TagPrf prf(to_bytes("key-1"));
  EXPECT_EQ(prf.tag(3, to_bytes("alice")), prf.tag(3, to_bytes("alice")));
}

TEST(TagPrf, SaltSeparatesTags) {
  TagPrf prf(to_bytes("key-1"));
  EXPECT_NE(prf.tag(0, to_bytes("alice")), prf.tag(1, to_bytes("alice")));
}

TEST(TagPrf, MessageSeparatesTags) {
  TagPrf prf(to_bytes("key-1"));
  EXPECT_NE(prf.tag(0, to_bytes("alice")), prf.tag(0, to_bytes("bob")));
}

TEST(TagPrf, KeySeparatesTags) {
  TagPrf a(to_bytes("key-1"));
  TagPrf b(to_bytes("key-2"));
  EXPECT_NE(a.tag(0, to_bytes("alice")), b.tag(0, to_bytes("alice")));
}

TEST(TagPrf, LengthAmbiguityResolved) {
  // (salt=0x6261, "t") must not collide with (salt=0x61, "bt")-style
  // packings; the length prefix forces distinct PRF inputs.
  TagPrf prf(to_bytes("key-1"));
  std::set<Tag> tags;
  tags.insert(prf.tag(0x61, to_bytes("bt")));
  tags.insert(prf.tag(0x6261, to_bytes("t")));
  tags.insert(prf.tag(0, to_bytes("abt")));
  EXPECT_EQ(tags.size(), 3u);
}

TEST(TagPrf, BucketTagIndependentOfMessageTag) {
  TagPrf prf(to_bytes("key-1"));
  EXPECT_NE(prf.bucket_tag(7), prf.tag(7, {}));
}

TEST(Sha256, MidstateResumeMatchesStraightThrough) {
  Bytes prefix(64, 0x36);
  Bytes tail = to_bytes("suffix data of arbitrary length");
  Sha256 a;
  a.update(prefix);
  Sha256 b(a.midstate());
  a.update(tail);
  b.update(tail);
  EXPECT_EQ(hex_of(a.finish()), hex_of(b.finish()));
}

TEST(Sha256, MidstateRejectsPartialBlock) {
  Sha256 h;
  h.update(to_bytes("short"));
  EXPECT_THROW(h.midstate(), CryptoError);
}

TEST(HmacSha256, PrecomputedKeyMatchesRawKey) {
  SecureRandom rng = SecureRandom::for_testing(31);
  for (size_t key_len : {0u, 1u, 32u, 64u, 65u, 131u}) {
    Bytes key = rng.bytes(key_len);
    HmacSha256::Key mid(key);
    for (size_t msg_len : {0u, 17u, 64u, 200u}) {
      Bytes msg = rng.bytes(msg_len);
      EXPECT_EQ(hex_of(HmacSha256::mac(mid, msg)),
                hex_of(HmacSha256::mac(key, msg)))
          << "key_len=" << key_len << " msg_len=" << msg_len;
    }
  }
}

TEST(TagPrf, BatchedTagsMatchSingles) {
  TagPrf prf(to_bytes("batch-key"));
  Bytes msg = to_bytes("alice");
  std::vector<uint64_t> salts;
  for (uint64_t s = 0; s < 100; ++s) salts.push_back(s * 31 + 7);
  std::vector<Tag> batch = prf.tags(salts, msg);
  ASSERT_EQ(batch.size(), salts.size());
  for (size_t i = 0; i < salts.size(); ++i) {
    EXPECT_EQ(batch[i], prf.tag(salts[i], msg)) << "i=" << i;
  }
}

TEST(TagPrf, BatchedBucketTagsMatchSingles) {
  TagPrf prf(to_bytes("batch-key"));
  std::vector<uint64_t> salts = {0, 1, 2, 1000, ~uint64_t{0}};
  std::vector<Tag> batch = prf.bucket_tags(salts);
  ASSERT_EQ(batch.size(), salts.size());
  for (size_t i = 0; i < salts.size(); ++i) {
    EXPECT_EQ(batch[i], prf.bucket_tag(salts[i])) << "i=" << i;
  }
}

TEST(TagPrf, TagsLookUniform) {
  TagPrf prf(to_bytes("spread"));
  std::unordered_set<Tag> seen;
  for (uint64_t s = 0; s < 10000; ++s) seen.insert(prf.bucket_tag(s));
  EXPECT_EQ(seen.size(), 10000u);  // no collisions in 10^4 draws
}

// ------------------------------------------------------------------- PRS

TEST(Prs, PermutationIsValidAndDeterministic) {
  PseudoRandomShuffle prs(to_bytes("key"), to_bytes("ctx"));
  auto p1 = prs.permutation(100);
  auto p2 = prs.permutation(100);
  EXPECT_EQ(p1, p2);
  std::set<size_t> unique(p1.begin(), p1.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

TEST(Prs, KeyAndContextChangePermutation) {
  auto p1 = PseudoRandomShuffle(to_bytes("k1"), to_bytes("c")).permutation(50);
  auto p2 = PseudoRandomShuffle(to_bytes("k2"), to_bytes("c")).permutation(50);
  auto p3 = PseudoRandomShuffle(to_bytes("k1"), to_bytes("d")).permutation(50);
  EXPECT_NE(p1, p2);
  EXPECT_NE(p1, p3);
}

TEST(Prs, ApplyShufflesInPlace) {
  PseudoRandomShuffle prs(to_bytes("key"), to_bytes("ctx"));
  std::vector<std::string> items = {"a", "b", "c", "d", "e", "f", "g", "h"};
  auto original = items;
  prs.apply(items);
  EXPECT_NE(items, original);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, original);
}

// ---------------------------------------------------------- SecureRandom

TEST(SecureRandom, SeededStreamsAreReproducible) {
  auto a = SecureRandom::for_testing(9);
  auto b = SecureRandom::for_testing(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SecureRandom, DifferentSeedsDiffer) {
  auto a = SecureRandom::for_testing(1);
  auto b = SecureRandom::for_testing(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(SecureRandom, FillCoversRequestedLength) {
  auto rng = SecureRandom::for_testing(3);
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 200u}) {
    EXPECT_EQ(rng.bytes(n).size(), n);
  }
}

TEST(SecureRandom, NextBelowRespectsBound) {
  auto rng = SecureRandom::for_testing(4);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(SecureRandom, ExponentialMeanMatches) {
  auto rng = SecureRandom::for_testing(5);
  double sum = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

// ------------------------------------------------------------- KeyBundle

TEST(KeyBundle, DerivedKeysAreDistinctAndStable) {
  Bytes master(32, 0x11);
  KeyBundle a = KeyBundle::derive(master);
  KeyBundle b = KeyBundle::derive(master);
  EXPECT_EQ(a.payload_key, b.payload_key);
  EXPECT_EQ(a.tag_key, b.tag_key);
  EXPECT_EQ(a.shuffle_key, b.shuffle_key);
  EXPECT_NE(a.payload_key, a.tag_key);
  EXPECT_NE(a.tag_key, a.shuffle_key);
  EXPECT_EQ(a.payload_key.size(), 32u);
}

TEST(KeyBundle, DifferentMastersDiffer) {
  KeyBundle a = KeyBundle::derive(Bytes(32, 0x01));
  KeyBundle b = KeyBundle::derive(Bytes(32, 0x02));
  EXPECT_NE(a.payload_key, b.payload_key);
}

}  // namespace
}  // namespace wre::crypto
