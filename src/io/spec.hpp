// Text format for network specifications.
//
// Lets operators describe a topology, middlebox configurations, forwarding
// state, failure scenarios and invariants in a plain file and verify it with
// the CLI (tools/vmn_cli.cpp) - no C++ required. Grammar (line-oriented,
// '#' starts a comment):
//
//   host <name> <address>
//   switch <name>
//   link <name> <name>
//
//   firewall <name> default <allow|deny>        # ordered entries until 'end'
//     <allow|deny> <prefix> -> <prefix>
//   end
//   nat <name> <external-address> <internal-prefix>
//   load-balancer <name> <vip> <backend>...
//   cache <name>                                # entries until 'end'
//     <allow|deny> <client-prefix> <origin-address>
//   end
//   idps <name> [monitor]
//   scrubber <name>
//   gateway <name> [fail-open]
//   app-firewall <name> <blocked-class>...
//   wan-optimizer <name>
//
//   route <switch> [from <node>] <prefix> <next-hop> [priority <n>]
//   scenario <name> [fail <node>...]            # route overrides until 'end'
//     route <switch> [from <node>] <prefix> <next-hop> [priority <n>]
//   end
//
//   policy <host> <class-id>
//   invariant <kind> <args...> [expect <holds|violated>]
//     kinds: node-isolation <d> <s> | flow-isolation <d> <s>
//          | data-isolation <d> <s> | no-malicious <d>
//          | traversal <d> <type-prefix> | traversal-from <d> <s> <prefix>
//          | reachable <d> <s>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "verify/verifier.hpp"

namespace vmn::io {

/// A parsed specification: the model plus the declared invariants.
struct Spec {
  encode::NetworkModel model;
  std::vector<encode::Invariant> invariants;
  /// Expected outcome per invariant, when the file declares one.
  std::vector<std::optional<verify::Outcome>> expectations;
};

/// Raised with a source position and message on malformed input. The column
/// (1-based, of the offending token's first character) is reported when the
/// parser can attribute the error to a token; 0 means line-only.
class ParseError : public Error {
 public:
  ParseError(int line, const std::string& message)
      : ParseError(line, 0, message) {}
  ParseError(int line, int column, const std::string& message)
      : Error(column > 0 ? "line " + std::to_string(line) + ", col " +
                               std::to_string(column) + ": " + message
                         : "line " + std::to_string(line) + ": " + message),
        line_(line),
        column_(column) {}
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] int column() const { return column_; }

 private:
  int line_;
  int column_;
};

/// Parses a specification from a stream.
[[nodiscard]] Spec parse_spec(std::istream& in);
/// Parses a specification from a string (convenience for tests).
[[nodiscard]] Spec parse_spec_string(const std::string& text);
/// Loads a specification from a file; throws Error if unreadable.
[[nodiscard]] Spec load_spec(const std::string& path);

/// Serializes a model (and optional invariants) back into the text format.
/// parse(write(spec)) reproduces the network structure and configurations.
void write_spec(std::ostream& out, const Spec& spec);
[[nodiscard]] std::string write_spec_string(const Spec& spec);

/// Serializes the projection of `model` onto a slice: the member edge nodes
/// (hosts and middleboxes in `members`), every node named by a failure
/// scenario (so the scenario set - and with it the failure budget filter -
/// is preserved verbatim), the whole switching fabric, the links among kept
/// nodes, and every route whose next hop (and `from` qualifier, if any)
/// survives the projection. Invariants are not written; the wire job frame
/// carries its own (verify/wire.hpp).
///
/// Soundness rests on slices being closed under forwarding: a transfer walk
/// between slice addresses never needs a dropped edge node (closure would
/// have added it), and dropping a route rule that is not the best match for
/// any relevant address never changes a best match. Executing a job on the
/// projection therefore encodes the identical problem - which
/// tests/test_wire.cpp asserts verdict-for-verdict (and assertion count for
/// assertion count) across every scenario generator.
void write_projected_spec(std::ostream& out, const encode::NetworkModel& model,
                          const std::vector<NodeId>& members);
[[nodiscard]] std::string write_projected_spec_string(
    const encode::NetworkModel& model, const std::vector<NodeId>& members);

/// A structural diff between two parsed specs, computed over their
/// canonical serializations (write_spec_string), so formatting-only edits
/// - reordered comments, whitespace - diff empty. `model_changed` is the
/// signal the serve daemon re-plans on: invariant-only edits (adding a
/// check, changing an expectation) never invalidate solved problems.
struct SpecDiff {
  /// Any line of the serialized *model* half differs (topology, configs,
  /// routes, scenarios, policies).
  bool model_changed = false;
  /// The invariant/expectation lines differ.
  bool invariants_changed = false;
  /// Canonical lines only in the new spec / only in the old one.
  std::vector<std::string> added;
  std::vector<std::string> removed;

  [[nodiscard]] bool empty() const {
    return !model_changed && !invariants_changed;
  }
  /// e.g. "model: +2 -1 lines; invariants unchanged"
  [[nodiscard]] std::string summary() const;
};

/// A spec's canonical serialization (write_spec_string), rendered once for
/// both uses the serve daemon has for it: the diff against the next edit,
/// and the cache stamp.
struct CanonicalSpec {
  /// The non-empty lines, sorted. The first rule added wins a rank tie, so
  /// a route line that loses one - an earlier rule of its table has the
  /// same switch, in-port, prefix and priority but another next hop - ends
  /// in " (shadowed)": swapping two tied routes is a model change, while
  /// reordering declarations is not.
  std::vector<std::string> lines;
  /// FNV-1a 64 of the network part (every line before the invariants).
  /// That part is byte for byte write_projected_spec_string(model,
  /// encode::all_edge_nodes(model)), so this equals
  /// verify::model_fingerprint(spec.model).
  std::uint64_t model_fingerprint = 0;
};

/// Renders `spec` canonically; throws like write_spec.
[[nodiscard]] CanonicalSpec canonical_spec(const Spec& spec);

/// Diffs `before` -> `after` (see SpecDiff): their lines' multiset
/// differences, each sorted.
[[nodiscard]] SpecDiff diff_specs(const CanonicalSpec& before,
                                  const CanonicalSpec& after);
/// Renders both specs and diffs them.
[[nodiscard]] SpecDiff diff_specs(const Spec& before, const Spec& after);

/// Parses "a.b.c.d" into an address; throws ParseError on bad syntax.
[[nodiscard]] Address parse_address(const std::string& text, int line = 0,
                                    int col = 0);
/// Parses "a.b.c.d/len" (or a bare address as /32).
[[nodiscard]] Prefix parse_prefix(const std::string& text, int line = 0,
                                  int col = 0);

}  // namespace vmn::io
