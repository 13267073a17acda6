#include "io/spec.hpp"

#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/hash.hpp"
#include "mbox/app_firewall.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/nat.hpp"
#include "mbox/proxy.hpp"
#include "mbox/scrubber.hpp"
#include "mbox/wan_optimizer.hpp"

namespace vmn::io {

namespace {

/// One input line, split on whitespace, with the 1-based column of each
/// token's first character (so errors can point at the offending token).
struct TokenLine {
  std::vector<std::string> tok;
  std::vector<int> col;
};

TokenLine tokenize(const std::string& line) {
  TokenLine out;
  std::size_t i = 0;
  const auto space = [&](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
           c == '\f';
  };
  while (i < line.size()) {
    while (i < line.size() && space(line[i])) ++i;
    if (i >= line.size() || line[i] == '#') break;
    const std::size_t begin = i;
    while (i < line.size() && !space(line[i])) ++i;
    out.tok.push_back(line.substr(begin, i - begin));
    out.col.push_back(static_cast<int>(begin) + 1);
  }
  return out;
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw ParseError(line, message);
}

[[noreturn]] void fail(int line, int col, const std::string& message) {
  throw ParseError(line, col, message);
}

int to_int(const std::string& s, int line, int col = 0) {
  try {
    std::size_t pos = 0;
    int v = std::stoi(s, &pos);
    if (pos != s.size()) {
      fail(line, col, "trailing characters in number: " + s);
    }
    return v;
  } catch (const ParseError&) {
    throw;
  } catch (const std::exception&) {
    fail(line, col, "expected a number, got: " + s);
  }
}

mbox::AclAction parse_action(const std::string& s, int line, int col = 0) {
  if (s == "allow") return mbox::AclAction::allow;
  if (s == "deny") return mbox::AclAction::deny;
  fail(line, col, "expected allow|deny, got: " + s);
}

/// Parser state machine: top level plus in-block modes.
class Parser {
 public:
  Spec run(std::istream& in) {
    std::string raw;
    while (std::getline(in, raw)) {
      ++line_;
      TokenLine tl = tokenize(raw);
      if (tl.tok.empty()) continue;
      cols_ = std::move(tl.col);
      dispatch(tl.tok);
    }
    if (mode_ != Mode::top) fail(line_, "unterminated block (missing 'end')");
    // Resolve invariants only after every node exists.
    for (const auto& inv : pending_invariants_) resolve_invariant(inv);
    return std::move(spec_);
  }

 private:
  enum class Mode { top, firewall, cache, scenario };

  struct PendingInvariant {
    int line;
    std::vector<std::string> tok;
    std::vector<int> col;
  };

  /// Column of token i on the current line (0 when unknown).
  [[nodiscard]] int col(std::size_t i) const {
    return i < cols_.size() ? cols_[i] : 0;
  }

  void dispatch(const std::vector<std::string>& tok) {
    switch (mode_) {
      case Mode::firewall:
        in_firewall(tok);
        return;
      case Mode::cache:
        in_cache(tok);
        return;
      case Mode::scenario:
        in_scenario(tok);
        return;
      case Mode::top:
        break;
    }
    const std::string& kw = tok[0];
    if (kw == "host") {
      need(tok, 3, "host <name> <address>");
      spec_.model.network().add_host(tok[1],
                                     parse_address(tok[2], line_, col(2)));
    } else if (kw == "switch") {
      need(tok, 2, "switch <name>");
      spec_.model.network().add_switch(tok[1]);
    } else if (kw == "link") {
      need(tok, 3, "link <a> <b>");
      spec_.model.network().add_link(node(tok[1], col(1)),
                                     node(tok[2], col(2)));
    } else if (kw == "firewall") {
      need(tok, 4, "firewall <name> default <allow|deny>");
      if (tok[2] != "default") fail(line_, col(2), "expected 'default'");
      fw_name_ = tok[1];
      fw_default_ = parse_action(tok[3], line_, col(3));
      fw_entries_.clear();
      mode_ = Mode::firewall;
    } else if (kw == "nat") {
      need(tok, 4, "nat <name> <external> <internal-prefix>");
      spec_.model.add_middlebox(std::make_unique<mbox::Nat>(
          tok[1], parse_address(tok[2], line_, col(2)),
          parse_prefix(tok[3], line_, col(3))));
    } else if (kw == "load-balancer") {
      if (tok.size() < 4) fail(line_, "load-balancer <name> <vip> <backend>...");
      std::vector<Address> backends;
      for (std::size_t i = 3; i < tok.size(); ++i) {
        backends.push_back(parse_address(tok[i], line_, col(i)));
      }
      spec_.model.add_middlebox(std::make_unique<mbox::LoadBalancer>(
          tok[1], parse_address(tok[2], line_, col(2)), std::move(backends)));
    } else if (kw == "cache") {
      need(tok, 2, "cache <name>");
      cache_name_ = tok[1];
      cache_entries_.clear();
      mode_ = Mode::cache;
    } else if (kw == "idps") {
      const bool monitor = tok.size() > 2 && tok[2] == "monitor";
      spec_.model.add_middlebox(
          std::make_unique<mbox::Idps>(tok[1], !monitor));
    } else if (kw == "scrubber") {
      need(tok, 2, "scrubber <name>");
      spec_.model.add_middlebox(std::make_unique<mbox::Scrubber>(tok[1]));
    } else if (kw == "gateway") {
      const bool open = tok.size() > 2 && tok[2] == "fail-open";
      spec_.model.add_middlebox(std::make_unique<mbox::Gateway>(
          tok[1], open ? mbox::FailureMode::fail_open
                       : mbox::FailureMode::fail_closed));
    } else if (kw == "app-firewall") {
      if (tok.size() < 3) fail(line_, "app-firewall <name> <class>...");
      std::vector<std::uint16_t> classes;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        classes.push_back(
            static_cast<std::uint16_t>(to_int(tok[i], line_, col(i))));
      }
      spec_.model.add_middlebox(
          std::make_unique<mbox::AppFirewall>(tok[1], std::move(classes)));
    } else if (kw == "wan-optimizer") {
      need(tok, 2, "wan-optimizer <name>");
      spec_.model.add_middlebox(std::make_unique<mbox::WanOptimizer>(tok[1]));
    } else if (kw == "proxy") {
      need(tok, 3, "proxy <name> <address>");
      spec_.model.add_middlebox(std::make_unique<mbox::Proxy>(
          tok[1], parse_address(tok[2], line_, col(2))));
    } else if (kw == "route") {
      add_route(tok, net::Network::base_scenario);
    } else if (kw == "scenario") {
      if (tok.size() < 2) fail(line_, "scenario <name> [fail <node>...]");
      std::vector<NodeId> failed;
      for (std::size_t i = 2; i < tok.size(); ++i) {
        if (tok[i] == "fail") continue;
        failed.push_back(node(tok[i], col(i)));
      }
      scenario_ = spec_.model.network().add_failure_scenario(tok[1],
                                                             std::move(failed));
      mode_ = Mode::scenario;
    } else if (kw == "policy") {
      need(tok, 3, "policy <host> <class-id>");
      spec_.model.set_policy_class(
          node(tok[1], col(1)),
          PolicyClassId{
              static_cast<std::uint32_t>(to_int(tok[2], line_, col(2)))});
    } else if (kw == "invariant") {
      pending_invariants_.push_back(PendingInvariant{line_, tok, cols_});
    } else {
      fail(line_, col(0), "unknown directive: " + kw);
    }
  }

  void in_firewall(const std::vector<std::string>& tok) {
    if (tok[0] == "end") {
      spec_.model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
          fw_name_, fw_entries_, fw_default_));
      mode_ = Mode::top;
      return;
    }
    // <allow|deny> <prefix> -> <prefix>
    need(tok, 4, "<allow|deny> <prefix> -> <prefix>");
    const mbox::AclAction action = parse_action(tok[0], line_, col(0));
    if (tok[2] != "->") fail(line_, col(2), "expected '->'");
    fw_entries_.push_back(
        mbox::AclEntry{parse_prefix(tok[1], line_, col(1)),
                       parse_prefix(tok[3], line_, col(3)), action});
  }

  void in_cache(const std::vector<std::string>& tok) {
    if (tok[0] == "end") {
      spec_.model.add_middlebox(
          std::make_unique<mbox::ContentCache>(cache_name_, cache_entries_));
      mode_ = Mode::top;
      return;
    }
    need(tok, 3, "<allow|deny> <client-prefix> <origin-address>");
    const bool deny =
        parse_action(tok[0], line_, col(0)) == mbox::AclAction::deny;
    cache_entries_.push_back(mbox::CacheAclEntry{
        parse_prefix(tok[1], line_, col(1)),
        parse_address(tok[2], line_, col(2)), deny});
  }

  void in_scenario(const std::vector<std::string>& tok) {
    if (tok[0] == "end") {
      apply_scenario_routes();
      mode_ = Mode::top;
      return;
    }
    if (tok[0] != "route") {
      fail(line_, col(0), "only route overrides inside scenario");
    }
    add_route(tok, scenario_);
  }

  void add_route(const std::vector<std::string>& tok, ScenarioId scenario) {
    // route <switch> [from <node>] <prefix> <next-hop> [priority <n>]
    if (tok.size() < 4) {
      fail(line_, "route <switch> [from <node>] <prefix> <next-hop>");
    }
    std::size_t i = 1;
    NodeId sw = node(tok[i], col(i));
    ++i;
    std::optional<NodeId> from;
    if (tok[i] == "from") {
      if (tok.size() < 6) fail(line_, "route ... from <node> <prefix> <hop>");
      from = node(tok[i + 1], col(i + 1));
      i += 2;
    }
    Prefix prefix = parse_prefix(tok[i], line_, col(i));
    ++i;
    NodeId hop = node(tok[i], col(i));
    ++i;
    int priority = 0;
    if (i < tok.size()) {
      if (tok[i] != "priority" || i + 1 >= tok.size()) {
        fail(line_, col(i), "expected 'priority <n>'");
      }
      priority = to_int(tok[i + 1], line_, col(i + 1));
    }
    const net::Rule rule{prefix, hop, from, priority};
    if (scenario == net::Network::base_scenario) {
      spec_.model.network().table(sw).add(rule);
    } else {
      scenario_routes_[sw].push_back(rule);  // applied at the block's end
    }
  }

  void apply_scenario_routes() {
    for (const auto& [sw, routes] : scenario_routes_) {
      spec_.model.network().override_routes(sw, scenario_, routes);
    }
    scenario_routes_.clear();
  }

  void resolve_invariant(const PendingInvariant& p) {
    const auto& tok = p.tok;
    // Restore the line's position state so node() and col() point into the
    // invariant's own line, not the file's last.
    line_ = p.line;
    cols_ = p.col;
    auto expect_at = [&](std::size_t i) -> std::optional<verify::Outcome> {
      if (tok.size() <= i) return std::nullopt;
      if (tok[i] != "expect" || tok.size() <= i + 1) {
        fail(p.line, "expected 'expect <holds|violated>'");
      }
      if (tok[i + 1] == "holds") return verify::Outcome::holds;
      if (tok[i + 1] == "violated") return verify::Outcome::violated;
      fail(p.line, "expected holds|violated");
    };
    if (tok.size() < 3) fail(p.line, "invariant <kind> <args...>");
    const std::string& kind = tok[1];
    encode::Invariant inv;
    std::size_t tail = 0;
    if (kind == "node-isolation") {
      inv = encode::Invariant::node_isolation(node(tok[2], col(2)),
                                              node(tok[3], col(3)));
      tail = 4;
    } else if (kind == "flow-isolation") {
      inv = encode::Invariant::flow_isolation(node(tok[2], col(2)),
                                              node(tok[3], col(3)));
      tail = 4;
    } else if (kind == "data-isolation") {
      inv = encode::Invariant::data_isolation(node(tok[2], col(2)),
                                              node(tok[3], col(3)));
      tail = 4;
    } else if (kind == "no-malicious") {
      inv = encode::Invariant::no_malicious_delivery(node(tok[2], col(2)));
      tail = 3;
    } else if (kind == "traversal") {
      if (tok.size() < 4) fail(p.line, "traversal <d> <type-prefix>");
      inv = encode::Invariant::traversal(node(tok[2], col(2)), tok[3]);
      tail = 4;
    } else if (kind == "traversal-from") {
      if (tok.size() < 5) fail(p.line, "traversal-from <d> <s> <prefix>");
      inv = encode::Invariant::traversal_from(node(tok[2], col(2)),
                                              node(tok[3], col(3)), tok[4]);
      tail = 5;
    } else if (kind == "reachable") {
      inv = encode::Invariant::reachable(node(tok[2], col(2)),
                                         node(tok[3], col(3)));
      tail = 4;
    } else {
      fail(p.line, col(1), "unknown invariant kind: " + kind);
    }
    spec_.invariants.push_back(inv);
    spec_.expectations.push_back(expect_at(tail));
  }

  NodeId node(const std::string& name, int c = 0) {
    try {
      return spec_.model.network().node_by_name(name);
    } catch (const Error&) {
      fail(line_, c, "unknown node: " + name);
    }
  }

  void need(const std::vector<std::string>& tok, std::size_t n,
            const std::string& usage) {
    if (tok.size() < n) fail(line_, "usage: " + usage);
  }

  Spec spec_;
  Mode mode_ = Mode::top;
  int line_ = 0;
  std::vector<int> cols_;  ///< token columns of the current line
  // firewall block state
  std::string fw_name_;
  mbox::AclAction fw_default_ = mbox::AclAction::deny;
  std::vector<mbox::AclEntry> fw_entries_;
  // cache block state
  std::string cache_name_;
  std::vector<mbox::CacheAclEntry> cache_entries_;
  // scenario block state
  ScenarioId scenario_;
  /// The block's route lines per switch, in order.
  std::unordered_map<NodeId, std::vector<net::Rule>> scenario_routes_;
  std::vector<PendingInvariant> pending_invariants_;
};

void write_middlebox(std::ostream& out, const mbox::Middlebox& box) {
  const std::string& type = box.type();
  if (type == "firewall") {
    const auto& fw = dynamic_cast<const mbox::LearningFirewall&>(box);
    out << "firewall " << fw.name() << " default "
        << (fw.default_action() == mbox::AclAction::allow ? "allow" : "deny")
        << "\n";
    for (const mbox::AclEntry& e : fw.acl()) {
      out << "  "
          << (e.action == mbox::AclAction::allow ? "allow" : "deny") << " "
          << e.src.to_string() << " -> " << e.dst.to_string() << "\n";
    }
    out << "end\n";
  } else if (type == "nat") {
    const auto& nat = dynamic_cast<const mbox::Nat&>(box);
    out << "nat " << nat.name() << " " << nat.external_address().to_string()
        << " " << nat.internal_prefix().to_string() << "\n";
  } else if (type == "load-balancer") {
    const auto& lb = dynamic_cast<const mbox::LoadBalancer&>(box);
    out << "load-balancer " << lb.name() << " " << lb.vip().to_string();
    for (Address b : lb.backends()) out << " " << b.to_string();
    out << "\n";
  } else if (type == "cache") {
    const auto& cache = dynamic_cast<const mbox::ContentCache&>(box);
    out << "cache " << cache.name() << "\n";
    for (const mbox::CacheAclEntry& e : cache.acl()) {
      out << "  " << (e.deny ? "deny" : "allow") << " "
          << e.client.to_string() << " " << e.origin.to_string() << "\n";
    }
    out << "end\n";
  } else if (type == "idps") {
    const auto& idps = dynamic_cast<const mbox::Idps&>(box);
    out << "idps " << idps.name()
        << (idps.drops_malicious() ? "" : " monitor") << "\n";
  } else if (type == "scrubber") {
    out << "scrubber " << box.name() << "\n";
  } else if (type == "gateway") {
    out << "gateway " << box.name()
        << (box.failure_mode() == mbox::FailureMode::fail_open ? " fail-open"
                                                               : "")
        << "\n";
  } else if (type == "app-firewall") {
    const auto& afw = dynamic_cast<const mbox::AppFirewall&>(box);
    out << "app-firewall " << afw.name();
    for (auto c : afw.blocked_classes()) out << " " << c;
    out << "\n";
  } else if (type == "wan-optimizer") {
    out << "wan-optimizer " << box.name() << "\n";
  } else if (type == "proxy") {
    const auto& proxy = dynamic_cast<const mbox::Proxy&>(box);
    out << "proxy " << proxy.name() << " "
        << proxy.proxy_address().to_string() << "\n";
  } else {
    throw ModelError("write_spec: unknown middlebox type " + type);
  }
}

/// Writes `table`'s rules, skipping any rule `keep_rule` rejects (the
/// projection path drops rules referencing dropped nodes; the full writer
/// passes an always-true predicate).
void write_routes(std::ostream& out, const encode::NetworkModel& model,
                  NodeId sw, ScenarioId scenario,
                  const std::function<bool(const net::Rule&)>& keep_rule) {
  const net::Network& net = model.network();
  const char* indent = scenario == net::Network::base_scenario ? "" : "  ";
  for (const net::Rule& r : net.effective_table(sw, scenario).rules()) {
    if (!keep_rule(r)) continue;
    out << indent << "route " << net.name(sw);
    if (r.in_from) out << " from " << net.name(*r.in_from);
    out << " " << r.dst.to_string() << " " << net.name(r.next_hop);
    if (r.priority != 0) out << " priority " << r.priority;
    out << "\n";
  }
}

/// The shared body of write_spec and write_projected_spec: emits every node
/// `kept` admits (plus the middleboxes attached to kept nodes), the links
/// and route rules whose endpoints are all kept, the scenario blocks, and
/// the non-default policy lines of kept hosts.
void write_network(std::ostream& out, const encode::NetworkModel& model,
                   const std::function<bool(NodeId)>& kept) {
  const net::Network& net = model.network();
  auto keep_rule = [&](const net::Rule& r) {
    return kept(r.next_hop) && (!r.in_from || kept(*r.in_from));
  };
  for (const net::Node& n : net.nodes()) {
    if (!kept(n.id)) continue;
    if (n.kind == net::NodeKind::host) {
      out << "host " << n.name << " " << n.address.to_string() << "\n";
    } else if (n.kind == net::NodeKind::switch_node) {
      out << "switch " << n.name << "\n";
    }
  }
  for (const auto& box : model.middleboxes()) {
    if (kept(box->node())) write_middlebox(out, *box);
  }
  for (const net::Link& l : net.links()) {
    if (kept(l.a) && kept(l.b)) {
      out << "link " << net.name(l.a) << " " << net.name(l.b) << "\n";
    }
  }
  for (const net::Node& n : net.nodes()) {
    if (n.kind != net::NodeKind::switch_node || !kept(n.id)) continue;
    write_routes(out, model, n.id, net::Network::base_scenario, keep_rule);
  }
  for (std::size_t si = 1; si < net.scenarios().size(); ++si) {
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
    const net::FailureScenario& sc = net.scenarios()[si];
    out << "scenario " << sc.name;
    if (!sc.failed_nodes.empty()) {
      out << " fail";
      for (NodeId n : sc.failed_nodes) out << " " << net.name(n);
    }
    out << "\n";
    // Scenario tables are written in full: each rank of a full table
    // replaces itself when parsed back (Network::override_routes).
    for (const net::Node& n : net.nodes()) {
      if (n.kind != net::NodeKind::switch_node || !kept(n.id)) continue;
      write_routes(out, model, n.id, sid, keep_rule);
    }
    out << "end\n";
  }
  for (NodeId h : net.hosts()) {
    if (!kept(h)) continue;
    const PolicyClassId cls = model.policy_class(h);
    if (cls != PolicyClassId{0}) {
      out << "policy " << net.name(h) << " " << cls.value() << "\n";
    }
  }
}

/// The invariant lines of write_spec, with their expect clauses.
void write_invariants(std::ostream& out, const Spec& spec) {
  const net::Network& net = spec.model.network();
  auto node_name = [&](NodeId n) { return net.name(n); };
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    const encode::Invariant& inv = spec.invariants[i];
    out << "invariant ";
    switch (inv.kind) {
      case encode::InvariantKind::node_isolation:
        out << "node-isolation " << node_name(inv.target) << " "
            << node_name(inv.other);
        break;
      case encode::InvariantKind::flow_isolation:
        out << "flow-isolation " << node_name(inv.target) << " "
            << node_name(inv.other);
        break;
      case encode::InvariantKind::data_isolation:
        out << "data-isolation " << node_name(inv.target) << " "
            << node_name(inv.other);
        break;
      case encode::InvariantKind::no_malicious_delivery:
        out << "no-malicious " << node_name(inv.target);
        break;
      case encode::InvariantKind::traversal:
        if (inv.other.valid()) {
          out << "traversal-from " << node_name(inv.target) << " "
              << node_name(inv.other) << " " << inv.type_prefix;
        } else {
          out << "traversal " << node_name(inv.target) << " "
              << inv.type_prefix;
        }
        break;
      case encode::InvariantKind::reachable:
        out << "reachable " << node_name(inv.target) << " "
            << node_name(inv.other);
        break;
    }
    if (i < spec.expectations.size() && spec.expectations[i]) {
      out << " expect "
          << (*spec.expectations[i] == verify::Outcome::holds ? "holds"
                                                              : "violated");
    }
    out << "\n";
  }
}

}  // namespace

Address parse_address(const std::string& text, int line, int col) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  char extra = 0;
  if (std::sscanf(text.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    fail(line, col, "bad address: " + text);
  }
  return Address::of(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                     static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d));
}

Prefix parse_prefix(const std::string& text, int line, int col) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) {
    return Prefix::host(parse_address(text, line, col));
  }
  const Address base = parse_address(text.substr(0, slash), line, col);
  const int len = to_int(text.substr(slash + 1), line, col);
  if (len < 0 || len > 32) fail(line, col, "bad prefix length in: " + text);
  return Prefix(base, len);
}

Spec parse_spec(std::istream& in) { return Parser{}.run(in); }

Spec parse_spec_string(const std::string& text) {
  std::istringstream in(text);
  return parse_spec(in);
}

Spec load_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open spec file: " + path);
  return parse_spec(in);
}

void write_spec(std::ostream& out, const Spec& spec) {
  write_network(out, spec.model, [](NodeId) { return true; });
  write_invariants(out, spec);
}

std::string write_spec_string(const Spec& spec) {
  return render_spec(spec).text;
}

std::string write_network_string(const encode::NetworkModel& model) {
  std::ostringstream out;
  write_network(out, model, [](NodeId) { return true; });
  return std::move(out).str();
}

std::uint64_t SpecRendering::model_fingerprint() const {
  return fnv1a64(network());
}

SpecRendering render_spec(const Spec& spec) {
  std::ostringstream out;
  write_network(out, spec.model, [](NodeId) { return true; });
  SpecRendering rendering;
  rendering.network_size = out.view().size();
  write_invariants(out, spec);
  rendering.text = std::move(out).str();
  return rendering;
}

std::string SpecDiff::summary() const {
  if (empty()) return "no change";
  return std::string(model_changed ? "model changed" : "model unchanged") +
         (invariants_changed ? ", invariants changed"
                             : ", invariants unchanged");
}

SpecDiff diff_specs(const SpecRendering& before, const SpecRendering& after) {
  return SpecDiff{.model_changed = before.network() != after.network(),
                  .invariants_changed =
                      before.invariants() != after.invariants()};
}

SpecDiff diff_specs(const Spec& before, const Spec& after) {
  return diff_specs(render_spec(before), render_spec(after));
}

void write_projected_spec(std::ostream& out, const encode::NetworkModel& model,
                          const std::vector<NodeId>& members) {
  const net::Network& net = model.network();
  std::unordered_set<NodeId> keep(members.begin(), members.end());
  // Scenario-failed nodes stay, members or not: the encoder admits a
  // scenario by its failed-node *count* (the failure budget), so dropping a
  // failed node would silently change which scenarios the worker encodes.
  for (const net::FailureScenario& sc : net.scenarios()) {
    for (NodeId n : sc.failed_nodes) keep.insert(n);
  }
  // A scenario's route replaces the base rules it ties with
  // (Network::override_routes). Where a scenario table's rules of some tie
  // rank differ from the base table's, their endpoints stay too: were one
  // cut, the re-parsed block would not name that rank, and the worker
  // would fall back to the base rules the scenario had replaced.
  using HopsByRank = std::map<net::TieRank, std::vector<NodeId>>;
  auto hops_by_rank = [](const net::ForwardingTable& table) {
    HopsByRank hops;
    for (const net::Rule& r : table.rules()) {
      hops[net::tie_rank(r)].push_back(r.next_hop);
    }
    return hops;
  };
  for (const net::Node& n : net.nodes()) {
    if (n.kind != net::NodeKind::switch_node) continue;
    keep.insert(n.id);
    const net::ForwardingTable& base =
        net.effective_table(n.id, net::Network::base_scenario);
    std::optional<HopsByRank> base_hops;
    for (std::size_t si = 1; si < net.scenarios().size(); ++si) {
      const net::ForwardingTable& table = net.effective_table(
          n.id, ScenarioId(static_cast<ScenarioId::underlying_type>(si)));
      if (&table == &base) continue;
      if (!base_hops) base_hops = hops_by_rank(base);
      const HopsByRank hops = hops_by_rank(table);
      for (const net::Rule& r : table.rules()) {
        const auto it = base_hops->find(net::tie_rank(r));
        if (it == base_hops->end() || it->second == hops.at(it->first)) {
          continue;
        }
        keep.insert(r.next_hop);
        if (r.in_from) keep.insert(*r.in_from);
      }
    }
  }
  write_network(out, model,
                [&](NodeId id) { return keep.count(id) != 0; });
}

std::string write_projected_spec_string(const encode::NetworkModel& model,
                                        const std::vector<NodeId>& members) {
  std::ostringstream out;
  write_projected_spec(out, model, members);
  return out.str();
}

}  // namespace vmn::io
