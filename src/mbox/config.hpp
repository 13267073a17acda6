// Declarative middlebox configuration descriptors.
//
// Every dedup layer the planner has (policy classes, canonical problem keys,
// shape bijections) ultimately grounds out in string renderings of
// middlebox configuration. Historically each box type hand-rolled those
// strings twice - policy_fingerprint and encoding_projection - and the two
// had to silently agree with emit_axioms.
// ConfigRelations replaces the hand-rolled pair with ONE structured
// descriptor per instance (Middlebox::config_relations): named relations,
// each a table of typed cells, where addr/prefix cells hold real Address /
// Prefix values - never pre-rendered strings. The derived forms are generic:
//
//   - render_projection: the complete, token-rendered axiom-determining
//     projection (Middlebox::encoding_projection). Addresses only ever pass
//     through the caller's token function, so a raw-bits leak is impossible
//     by construction.
//   - render_fingerprint: the per-address policy fingerprint
//     (Middlebox::policy_fingerprint). Rows mentioning the address render
//     canonically: prefixes by length and intra-relation occurrence id -
//     never by bits - so corresponding-but-renamed configurations
//     fingerprint equal without losing the relation's join structure.
//   - diff_config: a structural diff of two descriptors under an address
//     bijection, naming the exact relation, row and cell that differ (e.g.
//     "firewall.acl row 3: dst prefix /24 vs /16") - the precise
//     merge-blocker diagnostics behind `vmn verify --dedup-report`.
//
// The contract mirrors encoding_projection's: every configuration knob
// emit_axioms compiles - address-independent ones included - must appear in
// the descriptor, or differently-configured instances could merge.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/address.hpp"

namespace vmn::mbox {

enum class CellKind : std::uint8_t {
  addr,        ///< a single concrete address (VIP, NAT external, origin)
  prefix,      ///< an address range; projects to its relevant members
  enum_value,  ///< a symbolic mode ("drop-malicious", "monitor")
  integer,     ///< a literal number (app class ids - never renamed)
  flag,        ///< a boolean knob (an ACL entry's allow/deny action)
};

[[nodiscard]] std::string to_string(CellKind kind);

/// One typed cell of a relation row. `column` names the cell within its
/// relation ("src", "dst", "vip"); it may be empty for single-cell rows
/// whose relation name already says everything.
struct ConfigCell {
  CellKind kind = CellKind::flag;
  std::string column;
  Address addr{};
  Prefix prefix{};
  std::string sym;
  std::int64_t num = 0;
  bool on = false;

  static ConfigCell make_addr(std::string column, Address a);
  static ConfigCell make_prefix(std::string column, Prefix p);
  static ConfigCell make_enum(std::string column, std::string value);
  static ConfigCell make_int(std::string column, std::int64_t value);
  static ConfigCell make_flag(std::string column, bool value);

  /// Whether this cell's address content covers `a` (addr equality or
  /// prefix membership; value cells never match).
  [[nodiscard]] bool matches(Address a) const;
};

struct ConfigRow {
  std::vector<ConfigCell> cells;
};

/// How a relation compiles onto a slice.
enum class RelationSemantics : std::uint8_t {
  /// Ordered first-match pair table. Every row is exactly
  /// [lhs matcher, rhs matcher, flag(admit)]; the axioms consume only the
  /// admitted (lhs, rhs) matrix over relevant x relevant, with
  /// `default_admit` deciding unmatched pairs - the LearningFirewall /
  /// ContentCache shape.
  pair_match,
  /// Plain row list, projected cell by cell; prefix cells expand to the
  /// relevant addresses they contain.
  row_list,
};

struct ConfigRelation {
  std::string name;
  RelationSemantics semantics = RelationSemantics::row_list;
  /// pair_match only: the action when no row matches a pair.
  bool default_admit = false;
  /// Projection framing, pinned to the legacy renderings so ResultCache v6
  /// problem keys survive the migration byte-for-byte: "fw" frames the
  /// relation as "fw[...]"; empty renders the rows bare.
  std::string render_tag;
  /// pair_match only: the separator between the admitted pair's tokens.
  std::string pair_sep = ">";
  std::vector<ConfigRow> rows;

  /// First-match evaluation of a pair_match relation.
  [[nodiscard]] bool admits(Address lhs, Address rhs) const;
};

/// The full declarative configuration surface of one middlebox instance.
struct ConfigRelations {
  std::vector<ConfigRelation> relations;
  [[nodiscard]] bool empty() const { return relations.empty(); }
};

/// The complete axiom-determining projection over `relevant`, every address
/// rendered through `token` (see Middlebox::encoding_projection for the
/// soundness contract this rendering carries).
[[nodiscard]] std::string render_projection(
    const ConfigRelations& rels, const std::vector<Address>& relevant,
    const std::function<std::string(Address)>& token);

/// The canonical per-address fingerprint: rows whose addr/prefix cells
/// cover `a` (plus address-free rows, which are global knobs and render for
/// every address). Address content is named by prefix length and
/// first-occurrence id within the relation - never by bits - so
/// corresponding-but-renamed configurations fingerprint equal while
/// configurations that join their address groups differently keep distinct
/// fingerprints (the ids carry the relation's join structure). pair_match
/// rows render without a row index; row_list rows are positional
/// configuration and keep theirs (a load balancer's backend 0 is not its
/// backend 1).
[[nodiscard]] std::string render_fingerprint(const ConfigRelations& rels,
                                             Address a);

/// Structural diff of two descriptors under the address bijection implied
/// by the two token functions (corresponding addresses render equal
/// tokens). Returns the first difference as "<box_type>.<relation> row R:
/// <cell detail>" - e.g. "firewall.acl row 3: dst prefix /24 vs /16" - or
/// an empty string when the descriptors correspond structurally (the
/// projections may still differ through relevant-set interplay; callers
/// fall back to a generic reason).
[[nodiscard]] std::string diff_config(
    const std::string& box_type, const ConfigRelations& a,
    const ConfigRelations& b, const std::vector<Address>& relevant_a,
    const std::function<std::string(Address)>& token_a,
    const std::vector<Address>& relevant_b,
    const std::function<std::string(Address)>& token_b);

}  // namespace vmn::mbox
