#include "src/core/distribution.h"

#include <cmath>

namespace wre::core {

PlaintextDistribution PlaintextDistribution::from_counts(
    const std::unordered_map<std::string, uint64_t>& counts) {
  uint64_t total = 0;
  for (const auto& [m, c] : counts) total += c;
  if (total == 0) throw WreError("PlaintextDistribution: empty counts");
  std::map<std::string, double> probs;
  for (const auto& [m, c] : counts) {
    if (c == 0) continue;
    probs[m] = static_cast<double>(c) / static_cast<double>(total);
  }
  return from_probabilities(std::move(probs));
}

PlaintextDistribution PlaintextDistribution::from_probabilities(
    std::map<std::string, double> probabilities) {
  if (probabilities.empty()) {
    throw WreError("PlaintextDistribution: empty support");
  }
  double total = 0;
  PlaintextDistribution dist;
  dist.min_p_ = 1.0;
  dist.max_p_ = 0.0;
  for (const auto& [m, p] : probabilities) {
    if (!(p > 0)) {  // NaN too
      throw WreError("PlaintextDistribution: non-positive probability for '" +
                     m + "'");
    }
    total += p;
    dist.min_p_ = std::min(dist.min_p_, p);
    dist.max_p_ = std::max(dist.max_p_, p);
    dist.messages_.push_back(m);
  }
  if (std::abs(total - 1.0) > 1e-6) {
    throw WreError("PlaintextDistribution: probabilities sum to " +
                   std::to_string(total) + ", expected 1");
  }
  dist.probabilities_ = std::move(probabilities);
  return dist;
}

double PlaintextDistribution::probability(const std::string& m) const {
  auto it = probabilities_.find(m);
  if (it == probabilities_.end()) {
    throw WreError("PlaintextDistribution: message outside support: '" + m +
                   "'");
  }
  return it->second;
}

double lambda_for_advantage(double omega,
                            const PlaintextDistribution& dist) {
  if (omega <= 0 || omega >= 1) {
    throw WreError("lambda_for_advantage: omega must be in (0, 1)");
  }
  return -std::log(omega) / dist.min_probability();
}

double advantage_for_lambda(double lambda,
                            const PlaintextDistribution& dist) {
  if (lambda <= 0) throw WreError("advantage_for_lambda: lambda must be > 0");
  return std::exp(-lambda * dist.min_probability());
}

}  // namespace wre::core
