#include "src/core/salts.h"

#include <algorithm>
#include <cmath>

#include "src/crypto/hmac_sha256.h"
#include "src/crypto/prs.h"

namespace wre::core {

uint64_t SaltSet::sample(crypto::SecureRandom& rng) const {
  if (salts.empty() || weights.size() != salts.size()) {
    throw WreError("SaltSet::sample: malformed salt set");
  }
  double x = rng.next_double();
  // The weights sum to 1 only up to floating-point error. When the sum falls
  // slightly short and x lands in the slack, the draw is clamped into the
  // final *positive-weight* bucket — never a zero-weight salt, which the
  // Poisson allocators can legitimately emit at the tail and which must
  // appear with probability 0 for the frequency-smoothing argument to hold.
  double cum = 0;
  size_t last_positive = salts.size();
  for (size_t i = 0; i < salts.size(); ++i) {
    if (!(weights[i] > 0)) continue;  // also skips NaN defensively
    last_positive = i;
    cum += weights[i];
    if (x < cum) return salts[i];
  }
  if (last_positive == salts.size()) {
    throw WreError("SaltSet::sample: no positive-weight salt");
  }
  return salts[last_positive];
}

SaltSet DeterministicAllocator::salts_for(const std::string&) const {
  return SaltSet{{0}, {1.0}};
}

FixedSaltAllocator::FixedSaltAllocator(uint32_t num_salts)
    : num_salts_(num_salts) {
  if (num_salts_ == 0) throw WreError("FixedSaltAllocator: need >= 1 salt");
}

SaltSet FixedSaltAllocator::salts_for(const std::string&) const {
  SaltSet out;
  out.salts.reserve(num_salts_);
  out.weights.assign(num_salts_, 1.0 / num_salts_);
  for (uint32_t s = 0; s < num_salts_; ++s) out.salts.push_back(s);
  return out;
}

std::string FixedSaltAllocator::name() const {
  return "fixed-" + std::to_string(num_salts_);
}

ProportionalSaltAllocator::ProportionalSaltAllocator(
    const PlaintextDistribution& dist, uint32_t total_tags)
    : dist_(dist), total_tags_(total_tags) {
  if (total_tags_ == 0) {
    throw WreError("ProportionalSaltAllocator: need >= 1 total tag");
  }
}

SaltSet ProportionalSaltAllocator::salts_for(const std::string& m) const {
  double p = dist_.probability(m);
  // Integer rounding is the aliasing weakness analyzed in Section V-B; it is
  // deliberately preserved.
  auto n = static_cast<uint32_t>(
      std::max<long long>(1, std::llround(p * total_tags_)));
  SaltSet out;
  out.salts.reserve(n);
  out.weights.assign(n, 1.0 / n);
  for (uint32_t s = 0; s < n; ++s) out.salts.push_back(s);
  return out;
}

std::string ProportionalSaltAllocator::name() const {
  return "proportional-" + std::to_string(total_tags_);
}

PoissonSaltAllocator::PoissonSaltAllocator(const PlaintextDistribution& dist,
                                           double lambda, ByteView key)
    : dist_(dist), lambda_(lambda), seed_key_(key) {
  if (lambda_ <= 0) throw WreError("PoissonSaltAllocator: lambda must be > 0");
}

SaltSet PoissonSaltAllocator::salts_for(const std::string& m) const {
  double p = dist_.probability(m);

  // Algorithm 1: sample Exponential(lambda) inter-arrivals until the
  // interval [0, P_M(m)] is covered; the last weight is capped at the
  // interval end. Randomness is pseudorandom in (key, m); the HMAC resumes
  // from the key's cached midstates.
  crypto::HmacSha256 h(seed_key_);
  h.update(to_bytes("wre-poisson-salts-v1:"));
  h.update(to_bytes(m));
  auto seed = h.finish();
  crypto::SecureRandom rng{ByteView(seed.data(), seed.size())};

  SaltSet out;
  double total = 0;
  uint64_t s = 0;
  while (total < p) {
    double w = rng.next_exponential(lambda_);
    if (total + w > p) w = p - total;  // cap the final inter-arrival
    total += w;
    // Guard against pathological zero-width weights from fp underflow.
    if (w <= 0 && !out.salts.empty()) break;
    out.salts.push_back(s++);
    out.weights.push_back(w / p);
  }
  return out;
}

std::string PoissonSaltAllocator::name() const {
  return "poisson-" + std::to_string(static_cast<long long>(lambda_));
}

BucketizedPoissonAllocator::BucketizedPoissonAllocator(
    const PlaintextDistribution& dist, double lambda, ByteView key,
    ByteView context)
    : lambda_(lambda) {
  if (lambda_ <= 0) {
    throw WreError("BucketizedPoissonAllocator: lambda must be > 0");
  }

  // Algorithm 2, lines 2-10: one Poisson process over [0, 1], independent of
  // the plaintexts. Keyed by (key, context) only.
  Bytes seed_input = to_bytes("wre-bucketized-global-v1:");
  append(seed_input, context);
  auto seed = crypto::HmacSha256::mac(key, seed_input);
  crypto::SecureRandom rng{ByteView(seed.data(), seed.size())};

  boundaries_.push_back(0.0);
  double total = 0;
  while (total < 1.0) {
    double w = rng.next_exponential(lambda_);
    total += w;
    boundaries_.push_back(std::min(total, 1.0));
  }
  boundaries_.back() = 1.0;

  // Algorithm 2, line 11: lay the messages end-to-end on [0, 1] in a keyed
  // pseudo-random-shuffle order, so interval adjacency reveals nothing.
  std::vector<std::string> order = dist.messages();
  crypto::PseudoRandomShuffle prs(key, context);
  prs.apply(order);

  double cursor = 0;
  for (const std::string& m : order) {
    double p = dist.probability(m);
    interval_start_.emplace(m, cursor);
    interval_width_.emplace(m, p);
    cursor += p;
  }
}

SaltSet BucketizedPoissonAllocator::salts_for(const std::string& m) const {
  auto it = interval_start_.find(m);
  if (it == interval_start_.end()) {
    throw WreError("BucketizedPoissonAllocator: message outside support: '" +
                   m + "'");
  }
  double start = it->second;
  double width = interval_width_.at(m);
  double end = std::min(start + width, 1.0);

  // Buckets overlapping [start, end] (Algorithm 2, lines 12-27, expressed as
  // interval overlap). boundaries_ is sorted; find the bucket containing
  // `start`: the last boundary <= start.
  auto bit = std::upper_bound(boundaries_.begin(), boundaries_.end(), start);
  size_t bucket = static_cast<size_t>(bit - boundaries_.begin()) - 1;

  SaltSet out;
  for (; bucket + 1 < boundaries_.size(); ++bucket) {
    double lo = std::max(boundaries_[bucket], start);
    double hi = std::min(boundaries_[bucket + 1], end);
    if (hi <= lo) break;
    out.salts.push_back(bucket);
    out.weights.push_back((hi - lo) / width);
  }
  if (out.salts.empty()) {
    // Zero-width interval squeezed between boundaries (fp corner); assign
    // the containing bucket with full weight.
    out.salts.push_back(bucket);
    out.weights.push_back(1.0);
  }
  return out;
}

std::string BucketizedPoissonAllocator::name() const {
  return "bucketized-poisson-" + std::to_string(static_cast<long long>(lambda_));
}

const char* salt_method_name(SaltMethod m) {
  switch (m) {
    case SaltMethod::kDeterministic: return "deterministic";
    case SaltMethod::kFixed: return "fixed";
    case SaltMethod::kProportional: return "proportional";
    case SaltMethod::kPoisson: return "poisson";
    case SaltMethod::kBucketizedPoisson: return "bucketized-poisson";
  }
  return "?";
}

std::unique_ptr<SaltAllocator> make_salt_allocator(
    SaltMethod method, double parameter, const PlaintextDistribution* dist,
    ByteView shuffle_key, ByteView bucket_context) {
  auto need_dist = [&]() -> const PlaintextDistribution& {
    if (dist == nullptr) {
      throw WreError(std::string("salt method ") + salt_method_name(method) +
                     " requires a plaintext distribution");
    }
    return *dist;
  };
  switch (method) {
    case SaltMethod::kDeterministic:
      return std::make_unique<DeterministicAllocator>();
    case SaltMethod::kFixed:
      return std::make_unique<FixedSaltAllocator>(
          static_cast<uint32_t>(parameter));
    case SaltMethod::kProportional:
      return std::make_unique<ProportionalSaltAllocator>(
          need_dist(), static_cast<uint32_t>(parameter));
    case SaltMethod::kPoisson:
      return std::make_unique<PoissonSaltAllocator>(need_dist(), parameter,
                                                    shuffle_key);
    case SaltMethod::kBucketizedPoisson:
      return std::make_unique<BucketizedPoissonAllocator>(
          need_dist(), parameter, shuffle_key, bucket_context);
  }
  throw WreError("unknown salt method");
}

}  // namespace wre::core
