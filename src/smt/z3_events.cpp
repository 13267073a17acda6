#include "smt/z3_events.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

namespace vmn::smt::z3_events {

namespace {

enum class Arg : std::uint8_t { node, packet, time };

/// Argument kinds of a relation, by position.
std::vector<Arg> arg_kinds(EventKind kind) {
  if (kind == EventKind::fail) return {Arg::node, Arg::time};
  return {Arg::node, Arg::node, Arg::packet, Arg::time};
}

/// (from, to, packet) of an event; fail events use (node, node, 0).
using Key = std::array<std::size_t, 3>;

ModelEvent make_event(EventKind kind, const Key& key, std::int64_t time) {
  return ModelEvent{kind, key[0], key[1], key[2], time};
}

/// Reads one relation's interpretation. Each disjunct of the `else` body is
/// narrowed to one mask per argument over that argument's domain; the
/// disjunct then holds at every combination of allowed node and packet
/// values, earliest at its first allowed time.
class Decoder {
 public:
  Decoder(const z3::model& m, const Relation& relation, const Domains& d)
      : m_(m), kind_(relation.kind), decl_(relation.decl), d_(d),
        args_(arg_kinds(relation.kind)) {
    for (std::size_t i = 0; i < d.nodes.size(); ++i) {
      node_of_.emplace(d.nodes[i].id(), i);
    }
    for (std::size_t i = 0; i < d.packets.size(); ++i) {
      packet_of_.emplace(d.packets[i].id(), i);
    }
  }

  std::optional<std::vector<ModelEvent>> run() {
    if (decl_.arity() != args_.size()) return std::nullopt;
    // Without an interpretation model completion reads the relation false.
    if (!m_.has_interp(decl_)) return std::vector<ModelEvent>{};
    const z3::func_interp fi = m_.get_func_interp(decl_);
    const z3::expr els = fi.else_value();
    // A partial interpretation has no `else`; model completion fills one.
    if (static_cast<Z3_ast>(els) == nullptr) return std::nullopt;
    if (!read_entries(fi, els.is_false())) return std::nullopt;
    if (!els.is_false()) {
      std::vector<z3::expr> disjuncts;
      flatten(els, Z3_OP_OR, disjuncts);
      for (const z3::expr& disjunct : disjuncts) {
        if (!read_disjunct(disjunct)) return std::nullopt;
      }
    }
    std::vector<ModelEvent> events;
    events.reserve(earliest_.size());
    for (const auto& [key, time] : earliest_) {
      events.push_back(make_event(kind_, key, time));
    }
    return events;
  }

 private:
  using Masks = std::vector<std::vector<bool>>;

  /// Entries valued true are events. A false entry only repeats a false
  /// `else`; over any other body it would carve an exception out of it,
  /// which the decoder does not track.
  bool read_entries(const z3::func_interp& fi, bool else_false) {
    for (unsigned j = 0; j < fi.num_entries(); ++j) {
      const z3::func_entry entry = fi.entry(j);
      const z3::expr value = entry.value();
      if (value.is_false() && else_false) continue;
      if (!value.is_true() || entry.num_args() != args_.size()) return false;
      Key key{0, 0, 0};
      std::size_t time = 0;
      for (std::size_t pos = 0; pos < args_.size(); ++pos) {
        const std::optional<std::size_t> index = index_of(pos, entry.arg(pos));
        if (!index) return false;
        (args_[pos] == Arg::time ? time : key[pos]) = *index;
      }
      if (kind_ == EventKind::fail) key[1] = key[0];
      // A time outside the candidate list is never probed.
      if (time < d_.times.size()) note(key, d_.times[time]);
    }
    return true;
  }

  bool read_disjunct(const z3::expr& disjunct) {
    Masks masks;
    for (Arg a : args_) masks.emplace_back(domain_size(a), true);
    std::vector<z3::expr> literals;
    flatten(disjunct, Z3_OP_AND, literals);
    for (const z3::expr& literal : literals) {
      if (!apply(literal, masks)) return false;
    }
    const std::size_t tpos = args_.size() - 1;
    const auto first = std::find(masks[tpos].begin(), masks[tpos].end(), true);
    if (first == masks[tpos].end()) return true;  // contradictory disjunct
    const std::int64_t time = d_.times[first - masks[tpos].begin()];
    // Every combination of the allowed node and packet values.
    Key key{0, 0, 0};
    std::function<void(std::size_t)> enumerate = [&](std::size_t pos) {
      if (pos == tpos) {
        Key k = key;
        if (kind_ == EventKind::fail) k[1] = k[0];
        note(k, time);
        return;
      }
      for (std::size_t i = 0; i < masks[pos].size(); ++i) {
        if (!masks[pos][i]) continue;
        key[pos] = i;
        enumerate(pos + 1);
      }
    };
    enumerate(0);
    return true;
  }

  /// Narrows `masks` by one literal; false rejects the shape.
  bool apply(z3::expr literal, Masks& masks) {
    bool negated = false;
    while (literal.is_not()) {
      negated = !negated;
      literal = literal.arg(0);
    }
    if (literal.is_true() || literal.is_false()) {
      if (literal.is_true() == negated) {
        masks.back().assign(masks.back().size(), false);
      }
      return true;
    }
    if (!literal.is_app() || literal.num_args() != 2) return false;
    const Z3_decl_kind op = literal.decl().decl_kind();
    if (op == Z3_OP_EQ) {
      return apply_eq(literal.arg(0), literal.arg(1), negated, masks) ||
             apply_eq(literal.arg(1), literal.arg(0), negated, masks);
    }
    if (op == Z3_OP_LE) {
      return apply_le(literal.arg(0), literal.arg(1), negated, masks);
    }
    return false;
  }

  /// (= lhs value), where lhs is an argument or a unary uninterpreted
  /// function of one (the k!N projections of model-based instantiation).
  bool apply_eq(const z3::expr& lhs, const z3::expr& value, bool negated,
                Masks& masks) {
    if (const std::optional<std::size_t> pos = position(lhs)) {
      const std::optional<std::size_t> index = index_of(*pos, value);
      if (!index) return false;
      std::vector<bool>& mask = masks[*pos];
      for (std::size_t i = 0; i < mask.size(); ++i) {
        if ((i == *index) == negated) mask[i] = false;
      }
      return true;
    }
    if (!lhs.is_app() || lhs.num_args() != 1 ||
        lhs.decl().decl_kind() != Z3_OP_UNINTERPRETED || !is_value(value)) {
      return false;
    }
    const std::optional<std::size_t> pos = position(lhs.arg(0));
    if (!pos) return false;
    const std::vector<z3::expr>& images = projection(lhs.decl(), *pos);
    std::vector<bool>& mask = masks[*pos];
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (z3::eq(images[i], value) == negated) mask[i] = false;
    }
    return true;
  }

  /// (<= lhs rhs) between the time argument and an integer numeral, with
  /// the argument on either side.
  bool apply_le(const z3::expr& lhs, const z3::expr& rhs, bool negated,
                Masks& masks) {
    const std::size_t tpos = args_.size() - 1;
    const bool upper = position(lhs) == tpos;  // t <= k, else k <= t
    const z3::expr& bound = upper ? rhs : lhs;
    std::int64_t k = 0;
    if (position(upper ? lhs : rhs) != tpos || !bound.is_numeral() ||
        !bound.is_numeral_i64(k)) {
      return false;
    }
    std::vector<bool>& mask = masks[tpos];
    for (std::size_t i = 0; i < mask.size(); ++i) {
      const std::int64_t t = d_.times[i];
      if ((upper ? t <= k : k <= t) == negated) mask[i] = false;
    }
    return true;
  }

  /// The argument position `e` names, when it is (:var i) of this relation.
  std::optional<std::size_t> position(const z3::expr& e) const {
    if (!e.is_var()) return std::nullopt;
    const unsigned i = Z3_get_index_value(e.ctx(), e);
    if (i >= args_.size()) return std::nullopt;
    return i;
  }

  /// The domain index of `value` at argument `pos`. A time numeral absent
  /// from the candidate list maps past the end (it matches no time); a term
  /// that is no domain value has no index.
  std::optional<std::size_t> index_of(std::size_t pos,
                                      const z3::expr& value) const {
    switch (args_[pos]) {
      case Arg::node:
        return lookup(node_of_, value);
      case Arg::packet:
        return lookup(packet_of_, value);
      case Arg::time: {
        std::int64_t t = 0;
        if (!value.is_numeral() || !value.is_numeral_i64(t)) {
          return std::nullopt;
        }
        const auto it = std::lower_bound(d_.times.begin(), d_.times.end(), t);
        if (it == d_.times.end() || *it != t) return d_.times.size();
        return static_cast<std::size_t>(it - d_.times.begin());
      }
    }
    return std::nullopt;
  }

  static std::optional<std::size_t> lookup(
      const std::unordered_map<unsigned, std::size_t>& map,
      const z3::expr& e) {
    const auto it = map.find(e.id());
    if (it == map.end()) return std::nullopt;
    return it->second;
  }

  /// A numeral, a Boolean constant or a node/packet domain value: terms
  /// whose evaluated images compare by identity.
  bool is_value(const z3::expr& e) const {
    return e.is_numeral() || e.is_true() || e.is_false() ||
           node_of_.count(e.id()) != 0 || packet_of_.count(e.id()) != 0;
  }

  /// f evaluated at every value of argument `pos`'s domain, once per call.
  const std::vector<z3::expr>& projection(const z3::func_decl& f,
                                          std::size_t pos) {
    auto [it, fresh] =
        projections_.try_emplace({f.id(), pos}, std::vector<z3::expr>{});
    if (!fresh) return it->second;
    z3::context& ctx = m_.ctx();
    for (std::size_t i = 0; i < domain_size(args_[pos]); ++i) {
      const z3::expr arg = args_[pos] == Arg::node     ? d_.nodes[i]
                           : args_[pos] == Arg::packet ? d_.packets[i]
                                                       : ctx.int_val(d_.times[i]);
      it->second.push_back(m_.eval(f(arg), /*model_completion=*/true));
    }
    return it->second;
  }

  std::size_t domain_size(Arg a) const {
    return a == Arg::node     ? d_.nodes.size()
           : a == Arg::packet ? d_.packets.size()
                              : d_.times.size();
  }

  void note(const Key& key, std::int64_t time) {
    auto [it, fresh] = earliest_.try_emplace(key, time);
    if (!fresh) it->second = std::min(it->second, time);
  }

  static void flatten(const z3::expr& e, Z3_decl_kind op,
                      std::vector<z3::expr>& out) {
    if (e.is_app() && e.decl().decl_kind() == op) {
      for (unsigned i = 0; i < e.num_args(); ++i) flatten(e.arg(i), op, out);
    } else {
      out.push_back(e);
    }
  }

  const z3::model& m_;
  EventKind kind_;
  z3::func_decl decl_;
  const Domains& d_;
  std::vector<Arg> args_;
  std::unordered_map<unsigned, std::size_t> node_of_;
  std::unordered_map<unsigned, std::size_t> packet_of_;
  std::map<std::pair<unsigned, std::size_t>, std::vector<z3::expr>>
      projections_;
  std::map<Key, std::int64_t> earliest_;
};

}  // namespace

std::vector<std::int64_t> candidate_times(const z3::model& m) {
  std::set<std::int64_t> times;
  times.insert(0);
  std::set<unsigned> seen;
  std::function<void(const z3::expr&)> walk = [&](const z3::expr& e) {
    if (!seen.insert(e.id()).second) return;
    if (e.is_numeral() && e.is_int()) {
      std::int64_t v = 0;
      if (e.is_numeral_i64(v) && v >= 0 && v < (1 << 20)) times.insert(v);
    }
    if (e.is_app()) {
      for (unsigned i = 0; i < e.num_args(); ++i) walk(e.arg(i));
    }
  };
  for (unsigned i = 0; i < m.num_consts(); ++i) {
    walk(m.get_const_interp(m.get_const_decl(i)));
  }
  for (unsigned i = 0; i < m.num_funcs(); ++i) {
    z3::func_interp fi = m.get_func_interp(m.get_func_decl(i));
    walk(fi.else_value());
    for (unsigned j = 0; j < fi.num_entries(); ++j) {
      z3::func_entry entry = fi.entry(j);
      walk(entry.value());
      for (unsigned k = 0; k < entry.num_args(); ++k) walk(entry.arg(k));
    }
  }
  return {times.begin(), times.end()};
}

std::optional<std::vector<ModelEvent>> decode_events(const z3::model& m,
                                                     const Relation& relation,
                                                     const Domains& domains) {
  try {
    return Decoder(m, relation, domains).run();
  } catch (const z3::exception&) {
    return std::nullopt;  // e.g. a partial interpretation with no else
  }
}

std::vector<ModelEvent> probe_events_dense(const z3::model& m,
                                           const Relation& relation,
                                           const Domains& domains) {
  z3::context& ctx = m.ctx();
  std::vector<ModelEvent> events;
  // The earliest true time of one ground (from, to, packet) prefix.
  auto earliest = [&](const Key& key, std::vector<z3::expr> args) {
    args.push_back(ctx.int_val(0));
    for (std::int64_t t : domains.times) {
      args.back() = ctx.int_val(t);
      z3::expr_vector call(ctx);
      for (const z3::expr& a : args) call.push_back(a);
      if (m.eval(relation.decl(call), /*model_completion=*/true).is_true()) {
        events.push_back(make_event(relation.kind, key, t));
        return;
      }
    }
  };
  const std::size_t nodes = domains.nodes.size();
  if (relation.kind == EventKind::fail) {
    for (std::size_t n = 0; n < nodes; ++n) {
      earliest({n, n, 0}, {domains.nodes[n]});
    }
    return events;
  }
  for (std::size_t from = 0; from < nodes; ++from) {
    for (std::size_t to = 0; to < nodes; ++to) {
      for (std::size_t p = 0; p < domains.packets.size(); ++p) {
        earliest({from, to, p},
                 {domains.nodes[from], domains.nodes[to], domains.packets[p]});
      }
    }
  }
  return events;
}

void read_events(const z3::model& m, const Relation& relation,
                 const Domains& domains, SmtModel& out) {
  std::optional<std::vector<ModelEvent>> events =
      decode_events(m, relation, domains);
  if (!events) {
    events = probe_events_dense(m, relation, domains);
    out.dense_fallbacks.push_back(relation.kind);
  }
  out.events.insert(out.events.end(), events->begin(), events->end());
}

}  // namespace vmn::smt::z3_events
