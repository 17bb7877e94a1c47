#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "src/attack/capped_exponential.h"
#include "src/attack/frequency_attack.h"
#include "src/attack/ind_cuda.h"
#include "src/attack/optimal_matching.h"
#include "src/core/encrypted_client.h"
#include "src/core/salts.h"
#include "src/core/wre_scheme.h"

namespace wre::attack {
namespace {

using core::PlaintextDistribution;
using core::SaltAllocator;
using core::WreScheme;

// ------------------------------------------------------ capped exponential

TEST(CappedExponential, CdfMatchesExponentialBelowTau) {
  double lambda = 10, tau = 0.3;
  for (double x : {0.0, 0.05, 0.1, 0.29}) {
    EXPECT_NEAR(capped_exponential_cdf(lambda, tau, x),
                exponential_cdf(lambda, x), 1e-12);
  }
}

TEST(CappedExponential, AllMassAtOrBelowTau) {
  EXPECT_EQ(capped_exponential_cdf(10, 0.3, 0.3), 1.0);
  EXPECT_EQ(capped_exponential_cdf(10, 0.3, 5.0), 1.0);
  EXPECT_EQ(capped_exponential_ccdf(10, 0.3, 0.3), 0.0);
}

TEST(CappedExponential, DistanceIsExpMinusLambdaTau) {
  EXPECT_NEAR(capped_exponential_distance(10, 0.3), std::exp(-3.0), 1e-12);
  EXPECT_NEAR(capped_exponential_distance(1000, 0.01), std::exp(-10.0),
              1e-15);
}

TEST(CappedExponential, DistanceShrinksWithLambda) {
  double tau = 0.05;
  EXPECT_GT(capped_exponential_distance(100, tau),
            capped_exponential_distance(1000, tau));
}

TEST(CappedExponential, CcdfSeriesShapes) {
  auto series = ccdf_series(10, 0.2, 0.5, 51);
  ASSERT_EQ(series.x.size(), 51u);
  EXPECT_EQ(series.exponential.front(), 1.0);
  EXPECT_EQ(series.capped.front(), 1.0);
  // Beyond tau the capped CCDF is exactly zero; the exponential is not.
  for (size_t i = 0; i < series.x.size(); ++i) {
    if (series.x[i] >= 0.2) {
      EXPECT_EQ(series.capped[i], 0.0);
      EXPECT_GT(series.exponential[i], 0.0);
    } else {
      EXPECT_NEAR(series.capped[i], series.exponential[i], 1e-12);
    }
  }
}

TEST(EmpiricalStats, TvDistanceZeroForIdenticalSamples) {
  std::vector<double> a = {1, 2, 3, 4, 5};
  EXPECT_EQ(empirical_tv_distance(a, a, 10), 0.0);
}

TEST(EmpiricalStats, TvDistanceLargeForDisjointSamples) {
  std::vector<double> a = {0, 0.1, 0.2};
  std::vector<double> b = {10, 10.1, 10.2};
  EXPECT_GT(empirical_tv_distance(a, b, 20), 0.9);
}

TEST(EmpiricalStats, KsStatisticSmallForTrueExponential) {
  auto rng = crypto::SecureRandom::for_testing(7);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.next_exponential(5));
  EXPECT_LT(ks_statistic_exponential(sample, 5), 0.02);
  // Against the wrong rate the statistic is large.
  EXPECT_GT(ks_statistic_exponential(sample, 1), 0.3);
}

// --------------------------------------------------------- helper fixtures

/// Encrypts a population drawn from `dist` (db_size records) with the given
/// allocator and returns (tag histogram, per-record truth).
struct SimulatedColumn {
  TagHistogram tags;
  std::vector<std::pair<crypto::Tag, std::string>> records;
};

SimulatedColumn simulate_column(const PlaintextDistribution& dist,
                                std::unique_ptr<SaltAllocator> alloc,
                                uint64_t db_size, uint64_t seed) {
  auto keygen = crypto::SecureRandom::for_testing(seed);
  WreScheme scheme(crypto::KeyBundle::generate(keygen), std::move(alloc));
  auto rng = crypto::SecureRandom::for_testing(seed + 1);

  // Draw records i.i.d. from the distribution.
  std::vector<std::string> messages = dist.messages();
  std::vector<double> cumulative;
  double c = 0;
  for (const auto& m : messages) {
    c += dist.probability(m);
    cumulative.push_back(c);
  }

  SimulatedColumn out;
  for (uint64_t i = 0; i < db_size; ++i) {
    double x = rng.next_double();
    size_t idx = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), x) -
        cumulative.begin());
    if (idx >= messages.size()) idx = messages.size() - 1;
    const std::string& m = messages[idx];
    auto cell = scheme.encrypt(m, rng);
    ++out.tags[cell.tag];
    out.records.emplace_back(cell.tag, m);
  }
  return out;
}

PlaintextDistribution zipf_dist(int n) {
  std::map<std::string, double> probs;
  double h = 0;
  for (int i = 1; i <= n; ++i) h += 1.0 / i;
  for (int i = 1; i <= n; ++i) {
    probs["msg" + std::to_string(i)] = (1.0 / i) / h;
  }
  return PlaintextDistribution::from_probabilities(probs);
}

AuxDistribution aux_of(const PlaintextDistribution& d) {
  AuxDistribution aux;
  for (const auto& m : d.messages()) aux[m] = d.probability(m);
  return aux;
}

// -------------------------------------------------------- frequency attacks

TEST(RankMatching, BreaksDeterministicEncryption) {
  auto dist = zipf_dist(20);
  auto col = simulate_column(dist, std::make_unique<core::DeterministicAllocator>(),
                             20000, 11);
  auto guess = rank_matching_attack(col.tags, aux_of(dist));
  auto score = score_assignment(guess, col.records);
  // With a Zipf head and 20k records, rank matching recovers most records.
  EXPECT_GT(score.recovery_rate, 0.8);
}

TEST(RankMatching, NearUselessAgainstPoisson) {
  auto dist = zipf_dist(20);
  auto keygen = crypto::SecureRandom::for_testing(99);
  auto keys = crypto::KeyBundle::generate(keygen);
  auto col = simulate_column(
      dist,
      std::make_unique<core::PoissonSaltAllocator>(dist, 2000,
                                                   keys.shuffle_key),
      20000, 12);
  auto guess = rank_matching_attack(col.tags, aux_of(dist));
  auto score = score_assignment(guess, col.records);
  // Only 20 plaintexts get assigned to ~2000 tags; recovery collapses.
  EXPECT_LT(score.recovery_rate, 0.05);
}

TEST(MassMatching, BreaksFixedSalts) {
  auto dist = zipf_dist(10);
  auto col = simulate_column(
      dist, std::make_unique<core::FixedSaltAllocator>(10), 50000, 13);
  auto guess = mass_matching_attack(col.tags, aux_of(dist), 50000);
  auto score = score_assignment(guess, col.records);
  // Fixed salts split each plaintext into 10 equal shares; the shares still
  // sort by plaintext frequency, so greedy mass matching recovers most
  // records.
  EXPECT_GT(score.recovery_rate, 0.6);
}

TEST(MassMatching, DegradesAgainstPoisson) {
  auto dist = zipf_dist(10);
  auto keygen = crypto::SecureRandom::for_testing(98);
  auto keys = crypto::KeyBundle::generate(keygen);
  auto col = simulate_column(
      dist,
      std::make_unique<core::PoissonSaltAllocator>(dist, 1000,
                                                   keys.shuffle_key),
      50000, 14);
  auto guess = mass_matching_attack(col.tags, aux_of(dist), 50000);
  auto fixed_col = simulate_column(
      dist, std::make_unique<core::FixedSaltAllocator>(10), 50000, 13);
  auto fixed_guess =
      mass_matching_attack(fixed_col.tags, aux_of(dist), 50000);
  double poisson_rate = score_assignment(guess, col.records).recovery_rate;
  double fixed_rate =
      score_assignment(fixed_guess, fixed_col.records).recovery_rate;
  EXPECT_LT(poisson_rate, fixed_rate * 0.8);
}

TEST(SubsetSum, FindsTargetMassUnderPoisson) {
  // Lacharité-Paterson: under (non-bucketized) Poisson the per-plaintext tag
  // counts sum to ~P_M(m) * n, so a subset-sum exists.
  auto dist = zipf_dist(5);
  auto keygen = crypto::SecureRandom::for_testing(97);
  auto keys = crypto::KeyBundle::generate(keygen);
  auto col = simulate_column(
      dist,
      std::make_unique<core::PoissonSaltAllocator>(dist, 50, keys.shuffle_key),
      20000, 15);
  auto subset =
      subset_sum_attack(col.tags, dist.probability("msg1"), 20000, 0.01);
  EXPECT_FALSE(subset.empty());
  int64_t sum = 0;
  for (auto t : subset) sum += static_cast<int64_t>(col.tags.at(t));
  auto target = static_cast<int64_t>(
      std::llround(dist.probability("msg1") * 20000));
  EXPECT_NEAR(static_cast<double>(sum), static_cast<double>(target),
              0.01 * static_cast<double>(target) + 1);
}

TEST(SubsetSum, SolutionsAreNotUniqueUnderBucketization) {
  // Against the bucketized scheme a subset with the right sum typically
  // still exists (counts are fine-grained), but it no longer identifies the
  // target's true tags: buckets straddle plaintexts. Verify that the found
  // subset covers tags that do NOT all belong to the target.
  auto dist = zipf_dist(5);
  auto keygen = crypto::SecureRandom::for_testing(96);
  auto keys = crypto::KeyBundle::generate(keygen);
  auto col = simulate_column(
      dist,
      std::make_unique<core::BucketizedPoissonAllocator>(
          dist, 50, keys.shuffle_key, to_bytes("col")),
      20000, 16);
  auto subset =
      subset_sum_attack(col.tags, dist.probability("msg1"), 20000, 0.02);
  if (subset.empty()) {
    SUCCEED();  // no subset found: the attack outright fails
    return;
  }
  // Count how many records covered by the subset are actually msg1.
  std::set<crypto::Tag> chosen(subset.begin(), subset.end());
  uint64_t covered = 0, correct = 0;
  for (const auto& [tag, truth] : col.records) {
    if (chosen.contains(tag)) {
      ++covered;
      if (truth == "msg1") ++correct;
    }
  }
  ASSERT_GT(covered, 0u);
  // The matching is polluted: well below perfect attribution.
  EXPECT_LT(static_cast<double>(correct) / static_cast<double>(covered),
            0.95);
}

// ------------------------------------------------------- optimal matching

TEST(HungarianSolver, SolvesKnownThreeByThree) {
  // Classic example: optimal assignment is the anti-diagonal (cost 5).
  std::vector<double> cost = {4, 1, 3,
                              2, 0, 5,
                              3, 2, 2};
  auto match = solve_assignment(cost, 3);
  double total = 0;
  for (size_t r = 0; r < 3; ++r) total += cost[r * 3 + match[r]];
  EXPECT_DOUBLE_EQ(total, 5.0);  // 1 + 2 + 2
  // Assignment must be a permutation.
  std::set<size_t> cols(match.begin(), match.end());
  EXPECT_EQ(cols.size(), 3u);
}

TEST(HungarianSolver, IdentityWhenDiagonalIsFree) {
  std::vector<double> cost = {0, 9, 9,
                              9, 0, 9,
                              9, 9, 0};
  auto match = solve_assignment(cost, 3);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(match[r], r);
}

TEST(HungarianSolver, RejectsNonSquare) {
  EXPECT_THROW(solve_assignment({1, 2, 3}, 2), std::invalid_argument);
}

TEST(OptimalMatching, PerfectAgainstDeterministic) {
  auto dist = zipf_dist(20);
  auto col = simulate_column(
      dist, std::make_unique<core::DeterministicAllocator>(), 50000, 21);
  auto guess = optimal_matching_attack(col.tags, aux_of(dist), 50000);
  auto score = score_assignment(guess, col.records);
  // Note: minimizing total l1 cost does not maximize record recovery, so
  // the optimal matcher can differ slightly from greedy ranking under
  // sampling noise; both must devastate DET.
  auto rank_score = score_assignment(
      rank_matching_attack(col.tags, aux_of(dist)), col.records);
  EXPECT_GT(score.recovery_rate, 0.8);
  EXPECT_GT(rank_score.recovery_rate, 0.8);
  EXPECT_NEAR(score.recovery_rate, rank_score.recovery_rate, 0.1);
}

TEST(OptimalMatching, HandlesMoreTagsThanPlaintexts) {
  auto dist = zipf_dist(5);
  auto col = simulate_column(
      dist, std::make_unique<core::FixedSaltAllocator>(8), 30000, 22);
  // 40 tags vs 5 plaintexts: padding absorbs 35 tags.
  auto guess = optimal_matching_attack(col.tags, aux_of(dist), 30000);
  EXPECT_LE(guess.size(), 5u);  // at most one tag per plaintext
  for (const auto& [tag, m] : guess) {
    EXPECT_TRUE(col.tags.contains(tag));
  }
}

TEST(OptimalMatching, CollapsesAgainstPoisson) {
  auto dist = zipf_dist(10);
  auto keygen = crypto::SecureRandom::for_testing(95);
  auto keys = crypto::KeyBundle::generate(keygen);
  auto col = simulate_column(
      dist,
      std::make_unique<core::PoissonSaltAllocator>(dist, 400,
                                                   keys.shuffle_key),
      30000, 23);
  auto guess = optimal_matching_attack(col.tags, aux_of(dist), 30000);
  auto score = score_assignment(guess, col.records);
  EXPECT_LT(score.recovery_rate, 0.15);
}

TEST(OptimalMatching, EmptyInputsYieldEmptyAssignment) {
  EXPECT_TRUE(optimal_matching_attack({}, {{"a", 1.0}}, 10).empty());
  EXPECT_TRUE(optimal_matching_attack({{1, 5}}, {}, 10).empty());
  EXPECT_TRUE(optimal_matching_attack({{1, 5}}, {{"a", 1.0}}, 0).empty());
}

TEST(ScoreAssignment, CountsExactMatchesOnly) {
  TagAssignment guess = {{1, "a"}, {2, "b"}};
  std::vector<std::pair<crypto::Tag, std::string>> records = {
      {1, "a"}, {1, "a"}, {2, "z"}, {3, "a"}};
  auto score = score_assignment(guess, records);
  EXPECT_EQ(score.records_total, 4u);
  EXPECT_EQ(score.records_recovered, 2u);
  EXPECT_NEAR(score.recovery_rate, 0.5, 1e-12);
}

// ----------------------------------------------------------------- IND-CUDA

SchemeFactory factory_for(core::SaltMethod method, double param) {
  return [method, param](const PlaintextDistribution& dist,
                         crypto::SecureRandom& keygen)
             -> std::unique_ptr<WreScheme> {
    auto keys = crypto::KeyBundle::generate(keygen);
    auto alloc = core::make_salt_allocator(method, param, &dist,
                                           keys.shuffle_key, to_bytes("game"));
    return std::make_unique<WreScheme>(std::move(keys), std::move(alloc));
  };
}

// The adversary's classic list pair: all-distinct vs all-identical.
std::pair<std::vector<std::string>, std::vector<std::string>> crowd_vs_clone(
    int n) {
  std::vector<std::string> m0, m1;
  for (int i = 0; i < n; ++i) {
    m0.push_back("user" + std::to_string(i));
    m1.push_back("userX");
  }
  return {m0, m1};
}

TEST(IndCuda, DeterministicEncryptionIsTriviallyDistinguishable) {
  auto [m0, m1] = crowd_vs_clone(32);
  auto factory = factory_for(core::SaltMethod::kDeterministic, 0);
  auto adversary = make_collision_adversary(factory, 4, 7);
  auto result = run_ind_cuda(factory, m0, m1, adversary, 60, 1234);
  EXPECT_GT(result.success_rate, 0.95);
}

TEST(IndCuda, FixedSaltsStillDistinguishable) {
  auto [m0, m1] = crowd_vs_clone(64);
  auto factory = factory_for(core::SaltMethod::kFixed, 4);
  auto adversary = make_collision_adversary(factory, 4, 8);
  auto result = run_ind_cuda(factory, m0, m1, adversary, 60, 999);
  EXPECT_GT(result.success_rate, 0.8);
}

TEST(IndCuda, BucketizedPoissonHidesValuesGivenMatchedProfile) {
  // Lists with the same multiplicity profile but disjoint values: the
  // bucketized construction's tag stream is identically distributed for
  // both, so no adversary should win. (This is the meaningful payload of
  // Theorem V.1: the tags reveal the multiset *shape*, never the values.)
  std::vector<std::string> m0, m1;
  for (int v = 0; v < 8; ++v) {
    for (int c = 0; c < 8; ++c) {
      m0.push_back("left" + std::to_string(v));
      m1.push_back("rght" + std::to_string(v));
    }
  }
  auto factory = factory_for(core::SaltMethod::kBucketizedPoisson, 200);
  auto adversary = make_collision_adversary(factory, 4, 9);
  auto result = run_ind_cuda(factory, m0, m1, adversary, 100, 4321);
  EXPECT_LT(result.advantage, 0.15);
}

TEST(IndCuda, BucketizedPoissonBeatsDeterminismOnExtremeLists) {
  // Reproduction note: with adversarially extreme lists (all-distinct vs
  // all-identical) even the bucketized scheme leaks through *second-order*
  // statistics — records of message m only ever sample buckets inside m's
  // interval, so the all-distinct list places points stratified across
  // [0, 1] while the all-identical list places them i.i.d., and collision
  // counts differ. Theorem V.1's proof sketch ("tags have exactly the same
  // values and the same frequency") holds for the expected frequencies, not
  // for these variance statistics. We therefore check the honest ordering:
  // bucketized advantage is far below the deterministic baseline's, though
  // measurably above zero.
  auto [m0, m1] = crowd_vs_clone(64);
  auto det_factory = factory_for(core::SaltMethod::kDeterministic, 0);
  auto det_result = run_ind_cuda(
      det_factory, m0, m1, make_collision_adversary(det_factory, 4, 9), 60,
      4321);
  auto bkt_factory = factory_for(core::SaltMethod::kBucketizedPoisson, 200);
  auto bkt_result = run_ind_cuda(
      bkt_factory, m0, m1, make_collision_adversary(bkt_factory, 4, 9), 60,
      4321);
  EXPECT_GT(det_result.success_rate, 0.95);
  EXPECT_LT(bkt_result.success_rate, det_result.success_rate - 0.03);
}

TEST(IndCuda, PoissonWithAdequateLambdaResists) {
  auto [m0, m1] = crowd_vs_clone(32);
  // tau = 1/32 under m0; lambda = 2000 gives advantage e^{-62.5} per salt.
  auto factory = factory_for(core::SaltMethod::kPoisson, 2000);
  auto adversary = make_collision_adversary(factory, 4, 10);
  auto result = run_ind_cuda(factory, m0, m1, adversary, 100, 777);
  EXPECT_LT(result.advantage, 0.15);
}

TEST(IndCuda, RejectsMalformedLists) {
  auto factory = factory_for(core::SaltMethod::kDeterministic, 0);
  Adversary dummy = [](const auto&, const auto&, const auto&) { return 0; };
  EXPECT_THROW(run_ind_cuda(factory, {}, {}, dummy, 1, 1), WreError);
  EXPECT_THROW(run_ind_cuda(factory, {"a"}, {"a", "b"}, dummy, 1, 1),
               WreError);
}

}  // namespace
}  // namespace wre::attack
