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
//     reachable holds when any in-budget failure scenario, the base one
//     included, delivers (encode/invariant.hpp)
//
// A scenario's table for a switch starts as a copy of the switch's base
// table. Each route line of the block replaces the copied base rules with
// its in-port, prefix and priority; the other copied rules still apply, and
// among the block's own lines the first one wins a tie, as in the base
// (net::Network::override_routes). The writer renders every scenario table
// in full, which re-parses to itself: each of its ranks replaces itself.
//
// A packet leaving an edge node goes straight to an alive neighbour host
// that owns its destination address, whatever the order of the `link`
// lines; otherwise it enters the fabric through the edge node's first
// alive neighbour switch in `link` order (dataplane::TransferFunction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
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
/// The network part of write_spec: everything but the invariant lines.
[[nodiscard]] std::string write_network_string(
    const encode::NetworkModel& model);

/// Serializes the projection of `model` onto a slice: the member edge nodes
/// (hosts and middleboxes in `members`), every node named by a failure
/// scenario (so the scenario set - and with it the failure budget filter -
/// is preserved verbatim), the whole switching fabric, both ends of every
/// scenario rule that replaced base rules of its tie rank (so each
/// scenario's table re-parses to its own table restricted to the kept
/// nodes, never to a replaced base rule), the links among kept nodes, and
/// every route whose next hop (and `from` qualifier, if any) survives the
/// projection. Invariants are not written.
///
/// No verification path projects a spec: process workers are forks that
/// solve the dispatcher's own model. This stays only because the benchmark
/// harness (bench/e2e) calls it, and ROADMAP item 8(a) deletes it.
void write_projected_spec(std::ostream& out, const encode::NetworkModel& model,
                          const std::vector<NodeId>& members);
[[nodiscard]] std::string write_projected_spec_string(
    const encode::NetworkModel& model, const std::vector<NodeId>& members);

/// A spec's rendering (write_spec_string), split where its invariant lines
/// begin. parse(write(spec)) renders to the same text, so two specs whose
/// renderings are equal parse to the same network and the same invariants
/// in the same order: the serve daemon keeps the served generation's
/// rendering and compares each edit's with it.
struct SpecRendering {
  std::string text;
  /// Bytes of `text` before the invariant lines: the network part, byte
  /// for byte write_network_string(spec.model).
  std::size_t network_size = 0;

  [[nodiscard]] std::string_view network() const {
    return std::string_view(text).substr(0, network_size);
  }
  [[nodiscard]] std::string_view invariants() const {
    return std::string_view(text).substr(network_size);
  }
  /// FNV-1a 64 of network(): equals verify::model_fingerprint(spec.model),
  /// the result cache's stamp.
  [[nodiscard]] std::uint64_t model_fingerprint() const;
};

/// Renders `spec`; throws like write_spec.
[[nodiscard]] SpecRendering render_spec(const Spec& spec);

/// Which parts of two specs' renderings differ. Comments, blank lines and
/// what the parser normalizes (a bare address for its /32) change no
/// rendering; any other edit, reordering lines included, changes one.
/// `model_changed` is the signal the serve daemon re-plans on: an
/// invariant-only edit (adding a check, changing an expectation) leaves
/// every solved problem's cache record live.
struct SpecDiff {
  /// The network parts differ (topology, configs, routes, scenarios,
  /// policies).
  bool model_changed = false;
  /// The invariant parts (invariant lines, expectations) differ.
  bool invariants_changed = false;

  [[nodiscard]] bool empty() const {
    return !model_changed && !invariants_changed;
  }
  /// e.g. "model changed, invariants unchanged"
  [[nodiscard]] std::string summary() const;
};

/// Compares `before` with `after` (see SpecDiff).
[[nodiscard]] SpecDiff diff_specs(const SpecRendering& before,
                                  const SpecRendering& after);
/// Renders both specs and compares them.
[[nodiscard]] SpecDiff diff_specs(const Spec& before, const Spec& after);

/// Parses "a.b.c.d" into an address; throws ParseError on bad syntax.
[[nodiscard]] Address parse_address(const std::string& text, int line = 0,
                                    int col = 0);
/// Parses "a.b.c.d/len" (or a bare address as /32).
[[nodiscard]] Prefix parse_prefix(const std::string& text, int line = 0,
                                  int col = 0);

}  // namespace vmn::io
