#include "slice/refine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/hash.hpp"

namespace vmn::slice {

namespace {

/// FNV-1a 64 over `v`'s little-endian bytes, continuing from `h`: the
/// signature's byte stream is pinned, not the host's integer layout.
std::uint64_t feed(std::uint64_t h, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  return fnv1a64(std::string_view(bytes, sizeof bytes), h);
}

}  // namespace

std::vector<std::uint64_t> refine(const ColourGraph& graph) {
  const std::size_t n = graph.colours.size();
  std::vector<std::uint64_t> colours = graph.colours;
  std::size_t classes =
      std::unordered_set<std::uint64_t>(colours.begin(), colours.end()).size();
  using Signature = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  std::vector<Signature> sigs(n);
  for (;;) {
    std::vector<std::uint64_t> next(n);
    // First vertex seen per new colour: a later vertex with the same colour
    // must carry the same signature, or the hash collided.
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (std::size_t v = 0; v < n; ++v) {
      Signature& sig = sigs[v];
      sig.clear();
      for (const auto& [label, u] : graph.arcs[v]) {
        sig.emplace_back(label, colours[u]);
      }
      std::sort(sig.begin(), sig.end());
      std::uint64_t h = feed(kFnv1a64Basis, colours[v]);
      for (const auto& [label, c] : sig) h = feed(feed(h, label), c);
      next[v] = h;
      const auto [it, fresh] = first.emplace(h, v);
      if (!fresh && (colours[it->second] != colours[v] ||
                     sigs[it->second] != sig)) {
        throw std::logic_error(
            "colour refinement: two distinct signatures share a colour");
      }
    }
    // Signatures include the vertex's own colour, so a round only ever
    // splits classes: an unchanged class count means an unchanged partition.
    if (first.size() == classes) return colours;
    classes = first.size();
    colours = std::move(next);
  }
}

}  // namespace vmn::slice
