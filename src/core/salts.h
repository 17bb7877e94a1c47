// The getSalts strategies of Sections V-A through V-C1.
//
// A salt allocator answers, for a plaintext m, the set S of salts that may
// be prepended to m and the distribution P_S over them (Figure 1's getSalts
// subroutine). Search must reproduce the exact same set at query time, so
// every randomized allocator derives its randomness pseudorandomly from a
// key and the message (or, for the bucketized variant, from the key alone).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/distribution.h"
#include "src/crypto/hmac_sha256.h"
#include "src/crypto/secure_random.h"
#include "src/util/bytes.h"

namespace wre::core {

/// The salt set S and distribution P_S for one plaintext.
struct SaltSet {
  std::vector<uint64_t> salts;
  std::vector<double> weights;  // same length; sums to 1 (within fp error)

  /// Draws a salt according to the weights.
  uint64_t sample(crypto::SecureRandom& rng) const;
};

/// Strategy interface for getSalts.
class SaltAllocator {
 public:
  virtual ~SaltAllocator() = default;

  /// S and P_S for message m. Deterministic per (allocator state, m).
  virtual SaltSet salts_for(const std::string& m) const = 0;

  /// Whether m is inside the allocator's plaintext support. Allocators that
  /// ignore P_M (deterministic, fixed) cover everything.
  virtual bool covers(const std::string& /*m*/) const { return true; }

  /// True for the bucketized construction, whose tags bind to the salt only
  /// (PRF input excludes the message, Section V-C1).
  virtual bool bucketized() const { return false; }

  /// Human-readable strategy name for logs and benches.
  virtual std::string name() const = 0;
};

/// Degenerate baseline: one fixed salt — plain deterministic encryption
/// (DET). Included as the inference-attack baseline.
class DeterministicAllocator final : public SaltAllocator {
 public:
  SaltSet salts_for(const std::string& m) const override;
  std::string name() const override { return "deterministic"; }
};

/// Section V-A, the "folklore" fixed-salts method: N salts per plaintext,
/// uniform, regardless of frequency.
class FixedSaltAllocator final : public SaltAllocator {
 public:
  explicit FixedSaltAllocator(uint32_t num_salts);
  SaltSet salts_for(const std::string& m) const override;
  std::string name() const override;

 private:
  uint32_t num_salts_;
};

/// Section V-B, proportional salts: plaintext m gets about P_M(m) * N_T
/// salts (at least one), uniform. Equivalent to Lacharité-Paterson
/// frequency-smoothing homophonic encoding. Suffers integer-rounding
/// aliasing (demonstrated by `bench_paper salt_schemes`).
class ProportionalSaltAllocator final : public SaltAllocator {
 public:
  ProportionalSaltAllocator(const PlaintextDistribution& dist,
                            uint32_t total_tags);
  SaltSet salts_for(const std::string& m) const override;
  bool covers(const std::string& m) const override {
    return dist_.contains(m);
  }
  std::string name() const override;

 private:
  PlaintextDistribution dist_;  // owned copy: allocators outlive callers' maps
  uint32_t total_tags_;
};

/// Section V-C, Poisson random frequencies (Algorithm 1): for plaintext m,
/// run a rate-lambda Poisson process over [0, P_M(m)]; the inter-arrival
/// lengths are the salt weights. All weights are Exponential(lambda) samples
/// except the last (capped). Randomness is drawn from a PRG keyed by
/// HMAC(key, m) so encryption and search agree.
class PoissonSaltAllocator final : public SaltAllocator {
 public:
  PoissonSaltAllocator(const PlaintextDistribution& dist, double lambda,
                       ByteView key);
  SaltSet salts_for(const std::string& m) const override;
  bool covers(const std::string& m) const override {
    return dist_.contains(m);
  }
  std::string name() const override;

  double lambda() const { return lambda_; }

 private:
  PlaintextDistribution dist_;  // owned copy: allocators outlive callers' maps
  double lambda_;
  // Precomputed HMAC midstates for the salt-seed PRF: every salts_for() call
  // MACs the message under the same key, so the ipad/opad compressions are
  // paid once here instead of per call.
  crypto::HmacSha256::Key seed_key_;
};

/// Section V-C1, bucketized Poisson (Algorithm 2): one rate-lambda Poisson
/// process over [0, 1] shared by all plaintexts. The message space is laid
/// end-to-end on [0, 1] in a keyed pseudo-random-shuffle order; a message's
/// salts are the (global) buckets its interval overlaps. Tag frequencies are
/// independent of the plaintext, at the price of false positives where a
/// bucket straddles two messages.
class BucketizedPoissonAllocator final : public SaltAllocator {
 public:
  /// `context` domain-separates deployments/columns (it keys both the
  /// global bucket weights and the message shuffle).
  BucketizedPoissonAllocator(const PlaintextDistribution& dist, double lambda,
                             ByteView key, ByteView context);

  SaltSet salts_for(const std::string& m) const override;
  bool bucketized() const override { return true; }
  bool covers(const std::string& m) const override {
    return interval_start_.contains(m);
  }
  std::string name() const override;

  double lambda() const { return lambda_; }

  /// Total number of global buckets (== distinct tags in the column).
  size_t bucket_count() const { return boundaries_.size() - 1; }

  /// Width of bucket i — the fraction of all records expected to carry its
  /// tag. Precondition: i < bucket_count().
  double bucket_width(size_t i) const {
    return boundaries_[i + 1] - boundaries_[i];
  }

 private:
  double lambda_;
  // boundaries_[i]..boundaries_[i+1] is bucket i; boundaries_.front() == 0,
  // boundaries_.back() == 1.
  std::vector<double> boundaries_;
  // message -> start of its interval in the shuffled layout.
  std::unordered_map<std::string, double> interval_start_;
  std::unordered_map<std::string, double> interval_width_;
};

/// getSalts strategy selector for one column.
enum class SaltMethod {
  kDeterministic,       // DET baseline (no salt)
  kFixed,               // Section V-A; parameter = N salts
  kProportional,        // Section V-B; parameter = N_T total tags
  kPoisson,             // Section V-C; parameter = lambda
  kBucketizedPoisson,   // Section V-C1; parameter = lambda
};

const char* salt_method_name(SaltMethod m);

/// The one SaltMethod -> allocator mapping. `parameter` is N, N_T or lambda
/// per method. `dist` may be null for the methods that ignore P_M
/// (deterministic, fixed); the others throw WreError without it.
/// `shuffle_key` keys the Poisson PRFs and `bucket_context` domain-separates
/// the bucketized layout (see BucketizedPoissonAllocator).
std::unique_ptr<SaltAllocator> make_salt_allocator(
    SaltMethod method, double parameter, const PlaintextDistribution* dist,
    ByteView shuffle_key, ByteView bucket_context);

}  // namespace wre::core
