// Colour refinement (1-dimensional Weisfeiler-Leman) to the stable colouring:
// the one kernel behind policy classes (section 4.1, slice/policy.cpp) and
// the canonical shape and slice keys (section 4.2, slice/symmetry.cpp).
//
// Each round, a vertex's signature is its own colour plus the sorted
// multiset of (arc label, neighbour colour) over its outgoing arcs. Vertices
// split by exact signature comparison; each new colour is the pinned FNV-1a
// 64 hash of the signature (core/hash.hpp), so equal signatures colour alike
// in every graph and every process, and two distinct signatures of one round
// that hash alike throw instead of merging. Refinement stops at the first
// round that adds no colour. Isomorphic graphs get equal colour multisets;
// the converse fails (two triangles and a 6-cycle colour alike), which is
// why equal palettes only ever nominate candidates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace vmn::slice {

/// Vertices with initial colours and labelled arcs: the input of refine().
struct ColourGraph {
  /// Initial colour per vertex.
  std::vector<std::uint64_t> colours;
  /// Outgoing arcs per vertex as (label, neighbour).
  std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> arcs;

  /// Adds a vertex of initial colour `colour` and returns its index.
  std::size_t add_vertex(std::uint64_t colour) {
    colours.push_back(colour);
    arcs.emplace_back();
    return colours.size() - 1;
  }
  /// Adds the arc u -> v: u's signature gains (label, colour of v).
  void add_arc(std::size_t u, std::uint64_t label, std::size_t v) {
    arcs[u].emplace_back(label, v);
  }
  /// Adds the arcs u -> v and v -> u under one label.
  void add_edge(std::size_t u, std::uint64_t label, std::size_t v) {
    add_arc(u, label, v);
    add_arc(v, label, u);
  }
};

/// The stable colouring of `graph`, one colour per vertex. Refining the
/// result once more returns it unchanged. Throws std::logic_error when two
/// distinct signatures of one round hash to the same colour.
[[nodiscard]] std::vector<std::uint64_t> refine(const ColourGraph& graph);

}  // namespace vmn::slice
