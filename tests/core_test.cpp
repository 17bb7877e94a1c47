#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <numeric>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/distribution.h"
#include "src/core/encrypted_client.h"
#include "src/core/salts.h"
#include "src/core/wre_scheme.h"
#include "src/net/wire.h"
#include "tests/test_util.h"

namespace wre::core {
namespace {

using wre::testing::TempDir;

PlaintextDistribution small_dist() {
  return PlaintextDistribution::from_probabilities(
      {{"alice", 0.5}, {"bob", 0.3}, {"carol", 0.2}});
}

crypto::KeyBundle test_keys(uint64_t seed = 1) {
  auto rng = crypto::SecureRandom::for_testing(seed);
  return crypto::KeyBundle::generate(rng);
}

double weight_sum(const SaltSet& s) {
  return std::accumulate(s.weights.begin(), s.weights.end(), 0.0);
}

// --------------------------------------------------- PlaintextDistribution

TEST(Distribution, FromCountsNormalizes) {
  auto d = PlaintextDistribution::from_counts({{"a", 30}, {"b", 70}});
  EXPECT_NEAR(d.probability("a"), 0.3, 1e-12);
  EXPECT_NEAR(d.probability("b"), 0.7, 1e-12);
  EXPECT_EQ(d.support_size(), 2u);
}

TEST(Distribution, FromCountsSkipsZeros) {
  auto d = PlaintextDistribution::from_counts({{"a", 10}, {"zero", 0}});
  EXPECT_FALSE(d.contains("zero"));
}

TEST(Distribution, RejectsEmptyAndBadSums) {
  EXPECT_THROW(PlaintextDistribution::from_counts({}), WreError);
  EXPECT_THROW(
      PlaintextDistribution::from_probabilities({{"a", 0.5}, {"b", 0.4}}),
      WreError);
  EXPECT_THROW(PlaintextDistribution::from_probabilities({{"a", -0.1},
                                                          {"b", 1.1}}),
               WreError);
}

TEST(Distribution, OutsideSupportThrows) {
  EXPECT_THROW(small_dist().probability("mallory"), WreError);
}

TEST(Distribution, MinMaxProbability) {
  auto d = small_dist();
  EXPECT_NEAR(d.min_probability(), 0.2, 1e-12);
  EXPECT_NEAR(d.max_probability(), 0.5, 1e-12);
}

TEST(Distribution, MessagesSortedDeterministically) {
  auto d = small_dist();
  EXPECT_EQ(d.messages(),
            (std::vector<std::string>{"alice", "bob", "carol"}));
}

TEST(Distribution, LambdaAdvantageRelation) {
  auto d = small_dist();  // tau = 0.2
  double lambda = lambda_for_advantage(1e-9, d);
  EXPECT_NEAR(advantage_for_lambda(lambda, d), 1e-9, 1e-12);
  EXPECT_NEAR(lambda, -std::log(1e-9) / 0.2, 1e-6);
  EXPECT_THROW(lambda_for_advantage(0, d), WreError);
  EXPECT_THROW(lambda_for_advantage(1, d), WreError);
  EXPECT_THROW(advantage_for_lambda(0, d), WreError);
}

// ---------------------------------------------------------- SaltAllocators

TEST(DeterministicAllocator, SingleSalt) {
  DeterministicAllocator a;
  auto s = a.salts_for("anything");
  EXPECT_EQ(s.salts, std::vector<uint64_t>{0});
  EXPECT_NEAR(weight_sum(s), 1.0, 1e-12);
  EXPECT_FALSE(a.bucketized());
}

TEST(FixedSaltAllocator, ExactlyNSaltsUniform) {
  FixedSaltAllocator a(100);
  auto s = a.salts_for("alice");
  EXPECT_EQ(s.salts.size(), 100u);
  EXPECT_NEAR(weight_sum(s), 1.0, 1e-9);
  for (double w : s.weights) EXPECT_NEAR(w, 0.01, 1e-12);
  // Same salts for every message (the method ignores frequencies).
  EXPECT_EQ(a.salts_for("bob").salts, s.salts);
}

TEST(FixedSaltAllocator, RejectsZero) {
  EXPECT_THROW(FixedSaltAllocator(0), WreError);
}

TEST(ProportionalSaltAllocator, CountsTrackFrequency) {
  auto d = small_dist();
  ProportionalSaltAllocator a(d, 100);
  EXPECT_EQ(a.salts_for("alice").salts.size(), 50u);
  EXPECT_EQ(a.salts_for("bob").salts.size(), 30u);
  EXPECT_EQ(a.salts_for("carol").salts.size(), 20u);
  EXPECT_NEAR(weight_sum(a.salts_for("alice")), 1.0, 1e-9);
}

TEST(ProportionalSaltAllocator, RareValuesGetAtLeastOneSalt) {
  auto d = PlaintextDistribution::from_probabilities(
      {{"common", 0.999}, {"rare", 0.001}});
  ProportionalSaltAllocator a(d, 10);
  EXPECT_EQ(a.salts_for("rare").salts.size(), 1u);
}

TEST(ProportionalSaltAllocator, AliasingExampleFromPaper) {
  // Section V-B: P(m1)=0.7, P(m2)=0.3. N_T=10 divides evenly; N_T=12
  // rounds to 8 and 4 salts whose per-tag frequencies differ (0.0875 vs
  // 0.075) — the aliasing problem.
  auto d = PlaintextDistribution::from_probabilities(
      {{"m1", 0.7}, {"m2", 0.3}});
  ProportionalSaltAllocator even(d, 10);
  EXPECT_EQ(even.salts_for("m1").salts.size(), 7u);
  EXPECT_EQ(even.salts_for("m2").salts.size(), 3u);
  // per-tag frequency identical: 0.7/7 == 0.3/3 == 0.1

  ProportionalSaltAllocator aliased(d, 12);
  auto s1 = aliased.salts_for("m1");
  auto s2 = aliased.salts_for("m2");
  EXPECT_EQ(s1.salts.size(), 8u);
  EXPECT_EQ(s2.salts.size(), 4u);
  double f1 = 0.7 / 8, f2 = 0.3 / 4;
  EXPECT_GT(std::abs(f1 - f2), 0.01);  // distinguishable per-tag frequency
}

TEST(PoissonSaltAllocator, DeterministicPerKeyAndMessage) {
  auto d = small_dist();
  auto keys = test_keys();
  PoissonSaltAllocator a(d, 50, keys.shuffle_key);
  auto s1 = a.salts_for("alice");
  auto s2 = a.salts_for("alice");
  EXPECT_EQ(s1.salts, s2.salts);
  EXPECT_EQ(s1.weights, s2.weights);
}

TEST(PoissonSaltAllocator, DifferentKeysDiffer) {
  auto d = small_dist();
  PoissonSaltAllocator a(d, 500, test_keys(1).shuffle_key);
  PoissonSaltAllocator b(d, 500, test_keys(2).shuffle_key);
  EXPECT_NE(a.salts_for("alice").weights, b.salts_for("alice").weights);
}

TEST(PoissonSaltAllocator, SaltCountNearLambdaTimesProbability) {
  auto d = small_dist();
  PoissonSaltAllocator a(d, 1000, test_keys().shuffle_key);
  // E[#salts for m] = lambda * P(m) + 1.
  auto n_alice = a.salts_for("alice").salts.size();
  EXPECT_NEAR(static_cast<double>(n_alice), 1000 * 0.5 + 1, 5 * 22.4);
  EXPECT_NEAR(weight_sum(a.salts_for("alice")), 1.0, 1e-9);
  EXPECT_NEAR(weight_sum(a.salts_for("carol")), 1.0, 1e-9);
}

TEST(PoissonSaltAllocator, WeightsAreExponentialLike) {
  // Across many messages the (uncapped) tag frequencies should have mean
  // ~1/lambda.
  std::map<std::string, double> probs;
  constexpr int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) {
    probs["m" + std::to_string(i)] = 1.0 / kMessages;
  }
  auto d = PlaintextDistribution::from_probabilities(probs);
  double lambda = 2000;
  PoissonSaltAllocator a(d, lambda, test_keys().shuffle_key);
  std::vector<double> freqs;
  for (const auto& m : d.messages()) {
    auto s = a.salts_for(m);
    double p = d.probability(m);
    // Drop the final (capped) weight of each message.
    for (size_t i = 0; i + 1 < s.weights.size(); ++i) {
      freqs.push_back(s.weights[i] * p);
    }
  }
  ASSERT_GT(freqs.size(), 1000u);
  double mean = std::accumulate(freqs.begin(), freqs.end(), 0.0) /
                static_cast<double>(freqs.size());
  EXPECT_NEAR(mean, 1.0 / lambda, 0.15 / lambda);
}

TEST(PoissonSaltAllocator, RejectsBadLambda) {
  auto d = small_dist();
  EXPECT_THROW(PoissonSaltAllocator(d, 0, test_keys().shuffle_key), WreError);
  EXPECT_THROW(PoissonSaltAllocator(d, -5, test_keys().shuffle_key), WreError);
}

TEST(BucketizedPoissonAllocator, BucketsPartitionUnitInterval) {
  auto d = small_dist();
  auto keys = test_keys();
  BucketizedPoissonAllocator a(d, 100, keys.shuffle_key, to_bytes("col"));
  EXPECT_TRUE(a.bucketized());
  // Expected bucket count ~ lambda + 1.
  EXPECT_NEAR(static_cast<double>(a.bucket_count()), 101, 5 * 10);

  // The union of all messages' salt weights must cover every bucket and the
  // per-message weights must sum to 1.
  std::set<uint64_t> all_salts;
  for (const auto& m : d.messages()) {
    auto s = a.salts_for(m);
    EXPECT_NEAR(weight_sum(s), 1.0, 1e-9) << m;
    all_salts.insert(s.salts.begin(), s.salts.end());
  }
  EXPECT_EQ(all_salts.size(), a.bucket_count());
}

TEST(BucketizedPoissonAllocator, SharedBucketsCreateAmbiguity) {
  // With few buckets relative to messages, some bucket must straddle two
  // messages — the ambiguity that defeats frequency matching.
  std::map<std::string, double> probs;
  for (int i = 0; i < 50; ++i) probs["m" + std::to_string(i)] = 0.02;
  auto d = PlaintextDistribution::from_probabilities(probs);
  BucketizedPoissonAllocator a(d, 20, test_keys().shuffle_key,
                               to_bytes("col"));
  std::unordered_map<uint64_t, int> bucket_owners;
  for (const auto& m : d.messages()) {
    for (uint64_t s : a.salts_for(m).salts) ++bucket_owners[s];
  }
  int shared = 0;
  for (const auto& [b, owners] : bucket_owners) {
    if (owners > 1) ++shared;
  }
  EXPECT_GT(shared, 0);
}

TEST(BucketizedPoissonAllocator, DeterministicAndKeyDependent) {
  auto d = small_dist();
  BucketizedPoissonAllocator a(d, 100, test_keys(1).shuffle_key,
                               to_bytes("col"));
  BucketizedPoissonAllocator b(d, 100, test_keys(1).shuffle_key,
                               to_bytes("col"));
  BucketizedPoissonAllocator c(d, 100, test_keys(2).shuffle_key,
                               to_bytes("col"));
  EXPECT_EQ(a.salts_for("bob").salts, b.salts_for("bob").salts);
  EXPECT_NE(a.salts_for("bob").salts, c.salts_for("bob").salts);
}

TEST(BucketizedPoissonAllocator, OutsideSupportThrows) {
  auto d = small_dist();
  BucketizedPoissonAllocator a(d, 100, test_keys().shuffle_key,
                               to_bytes("col"));
  EXPECT_THROW(a.salts_for("mallory"), WreError);
}

TEST(SaltSet, SampleHonorsWeights) {
  SaltSet s{{1, 2}, {0.9, 0.1}};
  auto rng = crypto::SecureRandom::for_testing(3);
  int ones = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (s.sample(rng) == 1) ++ones;
  }
  EXPECT_NEAR(ones / static_cast<double>(kDraws), 0.9, 0.02);
}

// Regression: weight sums slightly below 1.0 (floating-point slack) must
// clamp into the final *positive-weight* bucket. Before the fix, a draw
// landing in the slack returned salts.back() — which could be a zero-weight
// salt the Poisson allocators legitimately emit at the tail, i.e. a salt
// that must appear with probability 0.
TEST(SaltSet, SampleClampsSlackIntoFinalPositiveBucket) {
  SaltSet s{{7, 8, 9, 10}, {0.5, 0.25, 0.25 - 1e-9, 0.0}};
  auto rng = crypto::SecureRandom::for_testing(17);
  bool drew_clamped = false;
  for (int i = 0; i < 50000; ++i) {
    uint64_t salt = s.sample(rng);
    EXPECT_NE(salt, 10u);  // zero-weight: probability must stay 0
    if (salt == 9) drew_clamped = true;
  }
  EXPECT_TRUE(drew_clamped);
}

TEST(SaltSet, SampleAdversarialWeightSums) {
  auto rng = crypto::SecureRandom::for_testing(23);
  // A grossly short sum (0.5): any slack draw clamps into the last
  // positive-weight salt, so only declared salts ever come back.
  SaltSet shorted{{1, 2}, {0.25, 0.25}};
  for (int i = 0; i < 10000; ++i) {
    uint64_t salt = shorted.sample(rng);
    EXPECT_TRUE(salt == 1 || salt == 2);
  }
  // Zero-weight salts sprinkled through the set are never drawn.
  SaltSet holes{{1, 2, 3, 4}, {0.0, 0.6, 0.0, 0.4 - 1e-12}};
  for (int i = 0; i < 10000; ++i) {
    uint64_t salt = holes.sample(rng);
    EXPECT_TRUE(salt == 2 || salt == 4);
  }
}

TEST(SaltSet, SampleRejectsMalformedSets) {
  auto rng = crypto::SecureRandom::for_testing(29);
  SaltSet empty;
  EXPECT_THROW(empty.sample(rng), WreError);
  SaltSet mismatched{{1, 2}, {1.0}};
  EXPECT_THROW(mismatched.sample(rng), WreError);
  SaltSet all_zero{{1, 2}, {0.0, 0.0}};
  EXPECT_THROW(all_zero.sample(rng), WreError);
}

// -------------------------------------------------------------- WreScheme

std::unique_ptr<WreScheme> make_scheme(SaltMethod method, double param,
                                       uint64_t seed = 1) {
  auto keys = test_keys(seed);
  auto d = small_dist();
  auto alloc = make_salt_allocator(method, param, &d, keys.shuffle_key,
                                   to_bytes("test-col"));
  return std::make_unique<WreScheme>(std::move(keys), std::move(alloc));
}

class WreSchemeAllMethods
    : public ::testing::TestWithParam<std::pair<SaltMethod, double>> {};

TEST_P(WreSchemeAllMethods, EncryptDecryptRoundTrip) {
  auto [method, param] = GetParam();
  auto scheme = make_scheme(method, param);
  auto rng = crypto::SecureRandom::for_testing(42);
  for (const std::string m : {"alice", "bob", "carol"}) {
    auto cell = scheme->encrypt(m, rng);
    EXPECT_EQ(scheme->decrypt(cell.ciphertext), m);
  }
}

TEST_P(WreSchemeAllMethods, SearchTagsContainEveryEncryptionTag) {
  // Completeness: any tag Enc can emit must be in Search's tag list.
  auto [method, param] = GetParam();
  auto scheme = make_scheme(method, param);
  auto rng = crypto::SecureRandom::for_testing(43);
  for (const std::string m : {"alice", "bob", "carol"}) {
    auto tags = scheme->search_tags(m);
    std::set<crypto::Tag> tag_set(tags.begin(), tags.end());
    for (int i = 0; i < 200; ++i) {
      auto cell = scheme->encrypt(m, rng);
      EXPECT_TRUE(tag_set.contains(cell.tag))
          << "method param " << param << " message " << m;
    }
  }
}

TEST_P(WreSchemeAllMethods, CiphertextsAreRandomized) {
  auto [method, param] = GetParam();
  auto scheme = make_scheme(method, param);
  auto rng = crypto::SecureRandom::for_testing(44);
  auto c1 = scheme->encrypt("alice", rng);
  auto c2 = scheme->encrypt("alice", rng);
  EXPECT_NE(c1.ciphertext, c2.ciphertext);
}

TEST_P(WreSchemeAllMethods, CloneIsBitIdenticalToOriginal) {
  // The parallel ingest pipeline hands each worker a clone(); correctness
  // of the whole design rests on a clone behaving exactly like its source
  // for the same (message, rng stream).
  auto [method, param] = GetParam();
  auto scheme = make_scheme(method, param);
  auto clone = scheme->clone();
  for (const std::string m : {"alice", "bob", "carol"}) {
    EXPECT_EQ(scheme->search_tags(m), clone->search_tags(m));
    auto rng_a = crypto::SecureRandom::for_testing(45);
    auto rng_b = crypto::SecureRandom::for_testing(45);
    for (int i = 0; i < 8; ++i) {
      auto ca = scheme->encrypt(m, rng_a);
      auto cb = clone->encrypt(m, rng_b);
      EXPECT_EQ(ca.tag, cb.tag);
      EXPECT_EQ(ca.ciphertext, cb.ciphertext);
      EXPECT_EQ(clone->decrypt(ca.ciphertext), m);
      EXPECT_EQ(scheme->decrypt(cb.ciphertext), m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, WreSchemeAllMethods,
    ::testing::Values(std::pair{SaltMethod::kDeterministic, 0.0},
                      std::pair{SaltMethod::kFixed, 10.0},
                      std::pair{SaltMethod::kFixed, 100.0},
                      std::pair{SaltMethod::kProportional, 50.0},
                      std::pair{SaltMethod::kPoisson, 10.0},
                      std::pair{SaltMethod::kPoisson, 200.0},
                      std::pair{SaltMethod::kBucketizedPoisson, 10.0},
                      std::pair{SaltMethod::kBucketizedPoisson, 200.0}));

TEST(WreScheme, DecryptRoundTripsLengthsAroundTheAesBlock) {
  // Plaintexts shorter than, equal to and past one or two AES blocks: the
  // payload is decrypted straight into the returned string.
  auto keys = test_keys(3);
  WreScheme scheme(keys, make_salt_allocator(SaltMethod::kFixed, 4, nullptr,
                                             keys.shuffle_key,
                                             to_bytes("test-col")));
  auto rng = crypto::SecureRandom::for_testing(9);
  for (size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u}) {
    std::string m;
    for (size_t i = 0; i < len; ++i) m.push_back(static_cast<char>(i * 7));
    EncryptedCell cell = scheme.encrypt(m, rng);
    ASSERT_EQ(cell.ciphertext.size(), crypto::AesCtr::kNonceSize + len);
    EXPECT_EQ(scheme.decrypt(cell.ciphertext), m) << len;
  }
  EXPECT_THROW(scheme.decrypt(Bytes(15, 0)), CryptoError);
}

TEST(WreScheme, DeterministicMethodYieldsOneTagPerMessage) {
  auto scheme = make_scheme(SaltMethod::kDeterministic, 0);
  EXPECT_EQ(scheme->search_tags("alice").size(), 1u);
  auto rng = crypto::SecureRandom::for_testing(1);
  auto t1 = scheme->encrypt("alice", rng).tag;
  auto t2 = scheme->encrypt("alice", rng).tag;
  EXPECT_EQ(t1, t2);
}

TEST(WreScheme, DifferentMessagesNeverShareTagsInPlainWre) {
  auto scheme = make_scheme(SaltMethod::kFixed, 50);
  auto ta = scheme->search_tags("alice");
  auto tb = scheme->search_tags("bob");
  std::set<crypto::Tag> sa(ta.begin(), ta.end());
  for (auto t : tb) EXPECT_FALSE(sa.contains(t));
}

TEST(WreScheme, BucketizedSchemesShareTagsAcrossMessages) {
  // With lambda small relative to the support, boundary buckets are shared.
  auto scheme = make_scheme(SaltMethod::kBucketizedPoisson, 10.0);
  std::set<crypto::Tag> all;
  size_t total = 0;
  for (const std::string m : {"alice", "bob", "carol"}) {
    auto tags = scheme->search_tags(m);
    total += tags.size();
    all.insert(tags.begin(), tags.end());
  }
  EXPECT_LT(all.size(), total);  // at least one shared tag
}

TEST(WreScheme, FalsePositiveFlagMatchesAllocator) {
  EXPECT_FALSE(
      make_scheme(SaltMethod::kPoisson, 100)->may_return_false_positives());
  EXPECT_TRUE(make_scheme(SaltMethod::kBucketizedPoisson, 100)
                  ->may_return_false_positives());
}

// ----------------------------------------------------- EncryptedConnection

sql::Schema people_schema() {
  return sql::Schema({sql::Column{"id", sql::ValueType::kInt64, true},
                      sql::Column{"fname", sql::ValueType::kText},
                      sql::Column{"age", sql::ValueType::kInt64}});
}

struct ClientFixture {
  TempDir dir;
  sql::Database db;
  EncryptedConnection conn;

  explicit ClientFixture(SaltMethod method, double param)
      : db(dir.str()), conn(db, Bytes(32, 0x24)) {
    std::map<std::string, PlaintextDistribution> dists;
    dists.emplace("fname", small_dist());
    conn.create_table("people", people_schema(),
                      {EncryptedColumnSpec{"fname", method, param}}, dists);
  }

  void load(int n) {
    auto rng = crypto::SecureRandom::for_testing(5);
    const char* names[] = {"alice", "alice", "alice", "alice", "alice",
                           "bob",   "bob",   "bob",   "carol", "carol"};
    for (int i = 0; i < n; ++i) {
      conn.insert("people",
                  {sql::Value::int64(i), sql::Value::text(names[i % 10]),
                   sql::Value::int64(20 + i % 50)});
    }
    (void)rng;
  }
};

TEST(EncryptedConnection, PhysicalSchemaSplitsEncryptedColumns) {
  ClientFixture f(SaltMethod::kPoisson, 100);
  const auto& physical = f.db.table("people").schema();
  EXPECT_EQ(physical.column_count(), 4u);
  EXPECT_TRUE(physical.index_of("fname_tag").has_value());
  EXPECT_TRUE(physical.index_of("fname_enc").has_value());
  EXPECT_FALSE(physical.index_of("fname").has_value());
  EXPECT_TRUE(f.db.table("people").has_index("fname_tag"));
}

TEST(EncryptedConnection, ServerNeverSeesPlaintext) {
  ClientFixture f(SaltMethod::kPoisson, 100);
  f.load(10);
  auto rs = f.db.execute("SELECT * FROM people");
  for (const auto& row : rs.rows) {
    // fname_enc is a blob; nothing textual equals the plaintext.
    EXPECT_EQ(row[1].type(), sql::ValueType::kInt64);  // tag
    EXPECT_EQ(row[2].type(), sql::ValueType::kBlob);   // ciphertext
  }
}

TEST(EncryptedConnection, NonBucketizedHasNoFalsePositives) {
  ClientFixture f(SaltMethod::kPoisson, 100);
  f.load(100);
  auto result = f.conn.select_star("people", "fname", "carol");
  EXPECT_EQ(result.false_positives, 0u);
}

TEST(EncryptedConnection, BucketizedFalsePositivesAreFiltered) {
  // Tiny lambda => few buckets => many shared tags => false positives.
  ClientFixture f(SaltMethod::kBucketizedPoisson, 3.0);
  f.load(100);
  auto result = f.conn.select_star("people", "fname", "carol");
  EXPECT_EQ(result.rows.size(), 20u);
  EXPECT_GT(result.server_rows_returned, result.rows.size());
  EXPECT_GT(result.false_positives, 0u);
}

TEST(EncryptedConnection, RewriteSelectProducesInClause) {
  ClientFixture f(SaltMethod::kFixed, 4);
  std::string sql = f.conn.rewrite_select("people", "fname", "bob", false);
  EXPECT_TRUE(sql.starts_with("SELECT id FROM people WHERE fname_tag IN ("));
  // Fixed-4 yields exactly 4 tags.
  EXPECT_EQ(std::count(sql.begin(), sql.end(), ','), 3);
}

TEST(EncryptedConnection, NullValuesPassThrough) {
  ClientFixture f(SaltMethod::kPoisson, 50);
  f.conn.insert("people", {sql::Value::int64(1), sql::Value::null(),
                           sql::Value::int64(30)});
  auto rs = f.db.execute("SELECT * FROM people");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(rs.rows[0][1].is_null());
  EXPECT_TRUE(rs.rows[0][2].is_null());
}

TEST(EncryptedConnection, UnknownTableOrColumnThrows) {
  ClientFixture f(SaltMethod::kPoisson, 50);
  EXPECT_THROW(f.conn.select_ids("ghost", "fname", "x"), WreError);
  EXPECT_THROW(f.conn.select_ids("people", "age", "x"), WreError);
  EXPECT_THROW(f.conn.scheme("people", "age"), WreError);
}

TEST(EncryptedConnection, DriftCountsOnlyWrittenRows) {
  // A duplicate primary key fails the write; its cell must not count as
  // observed, on the single-row and the bulk path alike.
  const sql::Row row{sql::Value::int64(1), sql::Value::text("bob"),
                     sql::Value::int64(30)};
  ClientFixture single(SaltMethod::kPoisson, 50);
  single.conn.insert("people", row);
  EXPECT_THROW(single.conn.insert("people", row), SqlError);
  EXPECT_EQ(single.db.table("people").row_count(), 1u);
  EXPECT_EQ(single.conn.column_drift("people", "fname").observed_rows, 1u);

  ClientFixture bulk(SaltMethod::kPoisson, 50);
  bulk.conn.insert_bulk("people", {row});
  EXPECT_THROW(bulk.conn.insert_bulk("people", {row}), SqlError);
  EXPECT_EQ(bulk.db.table("people").row_count(), 1u);
  EXPECT_EQ(bulk.conn.column_drift("people", "fname").observed_rows, 1u);
}

/// A broken server: every SELECT * answer (tag scan or SQL text) passes
/// through `tamper` before the client sees it. With `via_wire` the response
/// also passes through the wire codec, as a remote server's would.
class TamperingTransport final : public DbTransport {
 public:
  using Tamper = std::function<void(sql::ResultSet&)>;

  TamperingTransport(sql::Database& db, Tamper tamper, bool via_wire)
      : inner_(db), tamper_(std::move(tamper)), via_wire_(via_wire) {}

  sql::ResultSet tag_scan(const std::string& table,
                          const std::string& tag_column,
                          const std::vector<uint64_t>& tags,
                          bool star) override {
    return tampered(inner_.tag_scan(table, tag_column, tags, star));
  }
  sql::ResultSet execute(const std::string& sql) override {
    return tampered(inner_.execute(sql));
  }
  void create_table(const std::string& table,
                    const sql::Schema& schema) override {
    inner_.create_table(table, schema);
  }
  void create_index(const std::string& table,
                    const std::string& column) override {
    inner_.create_index(table, column);
  }
  bool has_table(const std::string& table) override {
    return inner_.has_table(table);
  }
  uint64_t row_count(const std::string& table) override {
    return inner_.row_count(table);
  }
  sql::Schema table_schema(const std::string& table) override {
    return inner_.table_schema(table);
  }
  std::vector<int64_t> insert_batch(
      const std::string& table, const std::vector<sql::Row>& rows) override {
    return inner_.insert_batch(table, rows);
  }
  void scan(const std::string& table,
            const std::function<void(const sql::Row&)>& fn) override {
    inner_.scan(table, fn);
  }

 private:
  sql::ResultSet tampered(sql::ResultSet rs) {
    tamper_(rs);
    if (!via_wire_) return rs;
    net::WireWriter w;
    net::encode_result_set(rs, w);
    net::WireReader r(w.bytes());
    return net::decode_result_set(r);
  }

  LocalTransport inner_;
  Tamper tamper_;
  bool via_wire_;
};

TEST(EncryptedConnection, MisshapenServerRowsAreRejected) {
  ClientFixture f(SaltMethod::kPoisson, 50);
  f.load(20);
  // SELECT * rows are 4 cells wide (id, fname_tag, fname_enc, age); SELECT
  // id rows are 1 wide. Any other width is a typed error, never a read past
  // the row: WreError from the client, NetworkError from the wire decoder.
  for (bool via_wire : {false, true}) {
    for (size_t cells : {1u, 2u, 5u}) {
      // Every row comes back `cells` wide, cut short or padded with NULLs.
      TamperingTransport transport(
          f.db,
          [cells](sql::ResultSet& rs) {
            for (sql::Row& row : rs.rows) row.resize(cells, sql::Value::null());
          },
          via_wire);
      EncryptedConnection conn(transport, Bytes(32, 0x24));
      conn.open_table("people");
      SCOPED_TRACE(std::to_string(cells) + (via_wire ? " via wire" : ""));
      if (via_wire) {
        EXPECT_THROW(conn.select_star("people", "fname", "bob"), NetworkError);
      } else {
        EXPECT_THROW(conn.select_star("people", "fname", "bob"), WreError);
      }
      if (cells == 1) {
        EXPECT_FALSE(conn.select_ids("people", "fname", "bob").ids.empty());
      } else if (via_wire) {
        EXPECT_THROW(conn.select_ids("people", "fname", "bob"), NetworkError);
        EXPECT_THROW(conn.select_ids_in("people", "fname", {"bob"}),
                     NetworkError);
      } else {
        EXPECT_THROW(conn.select_ids("people", "fname", "bob"), WreError);
        EXPECT_THROW(conn.select_ids_in("people", "fname", {"bob"}), WreError);
      }
    }
  }
}

// Late materialization: a SELECT * decodes each row's recheck cells first
// and the rest of a row only if it survives the filter. The server here
// plants rows in the answer that the client never wrote. Their other
// encrypted cells are broken: a 3-byte blob (shorter than the AES nonce)
// or a range ciphertext whose payload is 7 bytes (a range payload is 8).
// In a false positive those cells are never decoded; in a matching row they
// still throw, and a row of the wrong width throws whether it matches or not.
struct PlantedRowFixture {
  // Physical layout: id, e_tag, e_enc, f_tag, f_enc, r_tag, r_enc.
  static constexpr size_t kETag = 1, kEEnc = 2, kFTag = 3, kFEnc = 4,
                          kREnc = 6;

  TempDir dir;
  sql::Database db;
  std::vector<sql::Row> planted;  // appended to every SELECT * answer

  PlantedRowFixture() : db(dir.str()) {
    EncryptedConnection writer(db, secret());
    std::map<std::string, PlaintextDistribution> dists;
    dists.emplace("e", PlaintextDistribution::from_probabilities(
                           {{"x", 0.5}, {"y", 0.5}}));
    dists.emplace("f", PlaintextDistribution::from_probabilities(
                           {{"z", 0.5}, {"w", 0.5}}));
    writer.create_table(
        "t",
        sql::Schema({sql::Column{"id", sql::ValueType::kInt64, true},
                     sql::Column{"e", sql::ValueType::kText},
                     sql::Column{"f", sql::ValueType::kText},
                     sql::Column{"r", sql::ValueType::kInt64}}),
        {EncryptedColumnSpec{"e", SaltMethod::kPoisson, 4},
         EncryptedColumnSpec{"f", SaltMethod::kPoisson, 4}},
        dists, {RangeColumnSpec{"r", 0, 99, 10}});  // buckets of 10 values
    writer.insert("t", logical(1, "x", "z", 15));
    writer.insert("t", logical(2, "y", "w", 12));
  }

  static Bytes secret() { return Bytes(32, 0x31); }
  static sql::Row logical(int64_t id, const char* e, const char* f,
                          int64_t r) {
    return {sql::Value::int64(id), sql::Value::text(e), sql::Value::text(f),
            sql::Value::int64(r)};
  }

  /// The stored physical row of `id`, renumbered `new_id`.
  sql::Row copy_of(int64_t id, int64_t new_id) {
    sql::Row row =
        db.execute("SELECT * FROM t WHERE id = " + std::to_string(id))
            .rows.at(0);
    row[0] = sql::Value::int64(new_id);
    return row;
  }

  static void break_blob(sql::Row& row, size_t enc) {
    row[enc] = sql::Value::blob(Bytes{1, 2, 3});
  }
  static void shorten_range_payload(sql::Row& row) {
    Bytes c = row[kREnc].as_blob();
    c.resize(crypto::AesCtr::kNonceSize + 7);
    row[kREnc] = sql::Value::blob(std::move(c));
  }
  /// Gives `row` a tag of the search for `searched` in WRE column `column`
  /// (cells at `tag`, `tag + 1`) over a ciphertext of `plaintext`.
  static void set_wre_cell(sql::Row& row, EncryptedConnection& conn,
                           const char* column, size_t tag,
                           const char* searched, const char* plaintext) {
    const WreScheme& scheme = conn.scheme("t", column);
    auto rng = crypto::SecureRandom::for_testing(7);
    row[tag] = sql::Value::tag(scheme.search_tags(searched).front());
    row[tag + 1] = sql::Value::blob(scheme.encrypt(plaintext, rng).ciphertext);
  }
};

TEST(EncryptedConnection, FalsePositiveCellsPastTheRecheckAreNeverDecoded) {
  using F = PlantedRowFixture;
  const sql::Row row1 = F::logical(1, "x", "z", 15);
  const sql::Row row2 = F::logical(2, "y", "w", 12);
  for (bool via_wire : {false, true}) {
    SCOPED_TRACE(via_wire ? "via wire" : "in process");
    F f;
    TamperingTransport transport(
        f.db,
        [&f](sql::ResultSet& rs) {
          rs.rows.insert(rs.rows.end(), f.planted.begin(), f.planted.end());
        },
        via_wire);
    EncryptedConnection conn(transport, F::secret());
    conn.open_table("t");

    // select_star e = 'x' rechecks e. The planted row carries a tag of the
    // search, but its e decrypts to 'y'; f and r are broken.
    sql::Row fp = f.copy_of(1, 100);
    F::set_wre_cell(fp, conn, "e", F::kETag, "x", "y");
    F::break_blob(fp, F::kFEnc);
    F::shorten_range_payload(fp);
    f.planted = {fp};
    auto star = conn.select_star("t", "e", "x");
    EXPECT_EQ(star.rows, std::vector<sql::Row>{row1});
    EXPECT_EQ(star.server_rows_returned, 2u);
    EXPECT_EQ(star.false_positives, 1u);
    sql::Row hit = f.copy_of(1, 101);  // e is 'x', so f is decoded
    F::break_blob(hit, F::kFEnc);
    f.planted = {hit};
    EXPECT_THROW(conn.select_star("t", "e", "x"), CryptoError);
    hit = f.copy_of(1, 101);
    F::shorten_range_payload(hit);
    f.planted = {hit};
    EXPECT_THROW(conn.select_star("t", "e", "x"), WreError);

    // select_star_range r in [10, 14] rechecks r. Row 1 (r = 15) shares
    // the bucket [10, 19], so a copy of it with e and f broken is one more
    // false positive.
    fp = f.copy_of(1, 102);
    F::break_blob(fp, F::kEEnc);
    F::break_blob(fp, F::kFEnc);
    f.planted = {fp};
    auto range = conn.select_star_range("t", "r", 10, 14);
    EXPECT_EQ(range.rows, std::vector<sql::Row>{row2});
    EXPECT_EQ(range.server_rows_returned, 3u);
    EXPECT_EQ(range.false_positives, 2u);
    hit = f.copy_of(2, 103);  // r = 12, so e is decoded
    F::break_blob(hit, F::kEEnc);
    f.planted = {hit};
    EXPECT_THROW(conn.select_star_range("t", "r", 10, 14), CryptoError);
    hit = f.copy_of(2, 104);  // the recheck cell itself: a 7-byte payload
    F::shorten_range_payload(hit);
    f.planted = {hit};
    EXPECT_THROW(conn.select_star_range("t", "r", 10, 14), WreError);

    // select_star_and e = 'x' AND f = 'z' rechecks e, then f. One planted
    // row passes e and fails f with r broken; the other fails e, so its
    // broken f is never decoded either.
    const std::vector<EncryptedConnection::Conjunct> both = {
        {"e", sql::Value::text("x")}, {"f", sql::Value::text("z")}};
    sql::Row fails_f = f.copy_of(1, 105);
    F::set_wre_cell(fails_f, conn, "f", F::kFTag, "z", "w");
    F::shorten_range_payload(fails_f);
    sql::Row fails_e = f.copy_of(1, 106);
    F::set_wre_cell(fails_e, conn, "e", F::kETag, "x", "y");
    F::break_blob(fails_e, F::kFEnc);
    f.planted = {fails_f, fails_e};
    auto conj = conn.select_star_and("t", both);
    EXPECT_EQ(conj.rows, std::vector<sql::Row>{row1});
    EXPECT_EQ(conj.server_rows_returned, 3u);
    EXPECT_EQ(conj.false_positives, 2u);
    hit = f.copy_of(1, 107);  // passes both, so r is decoded
    F::shorten_range_payload(hit);
    f.planted = {hit};
    EXPECT_THROW(conn.select_star_and("t", both), WreError);

    // Width is checked before anything is decoded, false positive or not;
    // through the wire codec the frame itself is malformed.
    fp = f.copy_of(1, 108);
    F::set_wre_cell(fp, conn, "e", F::kETag, "x", "y");
    fp.push_back(sql::Value::null());
    f.planted = {fp};
    if (via_wire) {
      EXPECT_THROW(conn.select_star("t", "e", "x"), NetworkError);
    } else {
      EXPECT_THROW(conn.select_star("t", "e", "x"), WreError);
      EXPECT_THROW(conn.select_star_and("t", both), WreError);
    }
  }
}

TEST(EncryptedConnection, NonTextEncryptedColumnRejected) {
  TempDir dir;
  sql::Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  EXPECT_THROW(
      conn.create_table("t", people_schema(),
                        {EncryptedColumnSpec{"age", SaltMethod::kFixed, 5}},
                        {}),
      WreError);
}

TEST(EncryptedConnection, MissingDistributionRejectedWhenRequired) {
  TempDir dir;
  sql::Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  EXPECT_THROW(
      conn.create_table(
          "t", people_schema(),
          {EncryptedColumnSpec{"fname", SaltMethod::kPoisson, 100}}, {}),
      WreError);
}

TEST(EncryptedConnection, FixedMethodNeedsNoDistribution) {
  TempDir dir;
  sql::Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 1));
  EXPECT_NO_THROW(conn.create_table(
      "t", people_schema(),
      {EncryptedColumnSpec{"fname", SaltMethod::kFixed, 8}}, {}));
}

TEST(EncryptedConnection, ConjunctionAcrossEncryptedAndPlaintextColumns) {
  ClientFixture f(SaltMethod::kPoisson, 60);
  f.load(100);
  // fname = 'alice' (encrypted) AND age = 25 (plaintext).
  auto result = f.conn.select_star_and(
      "people", {{"fname", sql::Value::text("alice")},
                 {"age", sql::Value::int64(25)}});
  // alice rows are ids with i % 10 < 5; age = 20 + i % 50 == 25 -> i%50==5.
  size_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    if (i % 10 < 5 && 20 + i % 50 == 25) ++expected;
  }
  EXPECT_EQ(result.rows.size(), expected);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[1].as_text(), "alice");
    EXPECT_EQ(row[2].as_int64(), 25);
  }
}

TEST(EncryptedConnection, ConjunctionOfTwoEncryptedColumns) {
  TempDir dir;
  sql::Database db(dir.str());
  EncryptedConnection conn(db, Bytes(32, 9));
  sql::Schema schema({sql::Column{"id", sql::ValueType::kInt64, true},
                      sql::Column{"fname", sql::ValueType::kText},
                      sql::Column{"city", sql::ValueType::kText}});
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("fname", small_dist());
  dists.emplace("city", PlaintextDistribution::from_probabilities(
                            {{"rome", 0.6}, {"oslo", 0.4}}));
  conn.create_table(
      "t", schema,
      {EncryptedColumnSpec{"fname", SaltMethod::kBucketizedPoisson, 20},
       EncryptedColumnSpec{"city", SaltMethod::kPoisson, 20}},
      dists);
  const char* names[] = {"alice", "bob", "carol", "alice"};
  const char* cities[] = {"rome", "rome", "oslo", "oslo"};
  for (int i = 0; i < 40; ++i) {
    conn.insert("t", {sql::Value::int64(i), sql::Value::text(names[i % 4]),
                      sql::Value::text(cities[i % 4])});
  }
  auto result = conn.select_star_and(
      "t", {{"fname", sql::Value::text("alice")},
            {"city", sql::Value::text("oslo")}});
  EXPECT_EQ(result.rows.size(), 10u);  // i % 4 == 3
  for (const auto& row : result.rows) {
    EXPECT_EQ(row[1].as_text(), "alice");
    EXPECT_EQ(row[2].as_text(), "oslo");
  }
}

TEST(EncryptedConnection, ConjunctionRejectsBadInput) {
  ClientFixture f(SaltMethod::kPoisson, 60);
  EXPECT_THROW(f.conn.select_star_and("people", {}), WreError);
  EXPECT_THROW(f.conn.select_star_and(
                   "people", {{"ghost", sql::Value::text("x")}}),
               WreError);
}

TEST(EncryptedConnection, DifferentMasterSecretsProduceDifferentTags) {
  TempDir dir1, dir2;
  sql::Database db1(dir1.str()), db2(dir2.str());
  EncryptedConnection c1(db1, Bytes(32, 1)), c2(db2, Bytes(32, 2));
  std::map<std::string, PlaintextDistribution> dists;
  dists.emplace("fname", small_dist());
  auto specs = std::vector<EncryptedColumnSpec>{
      EncryptedColumnSpec{"fname", SaltMethod::kDeterministic, 0}};
  c1.create_table("t", people_schema(), specs, dists);
  c2.create_table("t", people_schema(), specs, dists);
  EXPECT_NE(c1.scheme("t", "fname").search_tags("alice"),
            c2.scheme("t", "fname").search_tags("alice"));
}

}  // namespace
}  // namespace wre::core
