#include "core/rng.hpp"

#include <algorithm>
#include <numeric>

namespace vmn {

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
}

bool Rng::chance(double p) {
  return std::bernoulli_distribution(p)(engine_);
}

std::vector<std::size_t> Rng::sample(std::size_t n, std::size_t k) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::shuffle(idx.begin(), idx.end(), engine_);
  if (k < n) idx.resize(k);
  return idx;
}

}  // namespace vmn
