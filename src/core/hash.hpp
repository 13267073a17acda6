// Pinned, process-independent hashing.
//
// FNV-1a 64: the one digest algorithm behind refinement colours
// (slice/refine.cpp), canonical-key digests (slice/symmetry.cpp) and the
// persistent result cache's key fingerprints (verify/result_cache.cpp).
// These must stay byte-for-byte in sync - the cache compares digests
// written by other processes and other builds - which is why this lives
// here instead of being re-rolled per use site, and why std::hash
// (implementation- and run-dependent) must never be substituted.
#pragma once

#include <cstdint>
#include <string_view>

namespace vmn {

inline constexpr std::uint64_t kFnv1a64Basis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnv1a64Prime = 1099511628211ull;

/// FNV-1a 64 of `data`, starting from `seed` (the standard offset basis by
/// default; pass a different seed to derive independent hash streams).
[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::string_view data, std::uint64_t seed = kFnv1a64Basis) {
  std::uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnv1a64Prime;
  }
  return h;
}

}  // namespace vmn
