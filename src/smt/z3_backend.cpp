// Z3 backend: translates the logic IR into z3::expr and extracts event
// traces from satisfying models.
#include <z3++.h>

#include <chrono>
#include <unordered_map>
#include <vector>

#include "core/error.hpp"
#include "smt/model.hpp"
#include "smt/solver.hpp"
#include "smt/z3_events.hpp"

namespace vmn::smt {

namespace {

using logic::FuncDecl;
using logic::FuncDeclPtr;
using logic::Sort;
using logic::SortPtr;
using logic::Term;
using logic::TermKind;
using logic::TermPtr;

class Z3Solver final : public Solver {
 public:
  /// The solver is Z3's incremental SMT core alone (solver::simple()). The
  /// default z3::solver pairs it with a tactic-based non-incremental solver
  /// that our first push() retires unused, yet every context paid to build
  /// and tear down both: five times the assertion time on the zoo corpus.
  Z3Solver(const logic::Vocab& vocab, SolverOptions options)
      : vocab_(&vocab),
        options_(options),
        solver_(ctx_, z3::solver::simple()) {
    z3::params p(ctx_);
    p.set("timeout", options_.timeout_ms);
    if (options_.seed != 0) {
      p.set("random_seed", options_.seed);
    }
    solver_.set(p);
  }

  void add(const TermPtr& axiom) override {
    if (!axiom->is_bool()) {
      throw SolverError("assertions must be boolean terms");
    }
    solver_.add(translate(axiom));
    ++assertions_;
    have_model_ = false;  // the model predates this assertion
  }

  void push() override {
    solver_.push();
    assertion_stack_.push_back(assertions_);
    have_model_ = false;  // the model belonged to the enclosing scope
  }

  void pop() override {
    if (assertion_stack_.empty()) {
      throw SolverError("pop without a matching push");
    }
    solver_.pop();
    assertions_ = assertion_stack_.back();
    assertion_stack_.pop_back();
    have_model_ = false;  // the model belonged to the popped scope
  }

  CheckStatus check() override {
    const auto start = std::chrono::steady_clock::now();
    z3::check_result r = solver_.check();
    last_time_ = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    switch (r) {
      case z3::sat:
        have_model_ = true;
        return CheckStatus::sat;
      case z3::unsat:
        have_model_ = false;
        return CheckStatus::unsat;
      default:
        have_model_ = false;
        return CheckStatus::unknown;
    }
  }

  [[nodiscard]] SmtModel model() const override {
    z3_events::Snapshot snap = snapshot();
    SmtModel out;
    for (const z3::expr& p : snap.domains.packets) {
      ModelPacket mp;
      mp.label = p.to_string();
      out.packets.push_back(std::move(mp));
    }
    fill_packet_fields(snap.model, snap.domains.packets, out);
    for (const z3_events::Relation& relation : snap.relations) {
      z3_events::read_events(snap.model, relation, snap.domains, out);
    }
    return out;
  }

  /// The model after a sat check, with the domains and relations model()
  /// reads it through.
  [[nodiscard]] z3_events::Snapshot snapshot() const {
    if (!have_model_) {
      throw SolverError("model() requires a prior sat result");
    }
    z3_events::Snapshot snap{solver_.get_model(), {}, {}};
    const std::size_t node_count = vocab_->node_sort()->size();
    for (std::size_t i = 0; i < node_count; ++i) {
      snap.domains.nodes.push_back(node_expr(i));
    }
    snap.domains.packets = packet_universe(snap.model);
    snap.domains.times = z3_events::candidate_times(snap.model);
    for (const auto& [decl, kind] :
         {std::pair{vocab_->snd(), EventKind::send},
          std::pair{vocab_->rcv(), EventKind::receive},
          std::pair{vocab_->fail(), EventKind::fail}}) {
      const auto it = funcs_.find(decl.get());
      if (it != funcs_.end()) snap.relations.push_back({kind, it->second});
    }
    return snap;
  }

  [[nodiscard]] std::chrono::microseconds last_check_time() const override {
    return last_time_;
  }

  [[nodiscard]] std::size_t assertion_count() const override {
    return assertions_;
  }

 private:
  // -- sort / declaration translation --------------------------------------
  z3::sort z3_sort(const SortPtr& s) {
    switch (s->kind()) {
      case Sort::Kind::boolean:
        return ctx_.bool_sort();
      case Sort::Kind::integer:
        return ctx_.int_sort();
      case Sort::Kind::uninterpreted: {
        auto it = usorts_.find(s->name());
        if (it != usorts_.end()) return it->second;
        z3::sort zs = ctx_.uninterpreted_sort(s->name().c_str());
        usorts_.emplace(s->name(), zs);
        return zs;
      }
      case Sort::Kind::finite: {
        auto it = esorts_.find(s->name());
        if (it != esorts_.end()) return it->second.sort;
        std::vector<const char*> names;
        names.reserve(s->size());
        for (const auto& e : s->elements()) names.push_back(e.c_str());
        EnumSort es{ctx_, z3::func_decl_vector(ctx_),
                    z3::func_decl_vector(ctx_)};
        es.sort = ctx_.enumeration_sort(s->name().c_str(),
                                        static_cast<unsigned>(names.size()),
                                        names.data(), es.consts, es.testers);
        auto [pos, _] = esorts_.emplace(s->name(), std::move(es));
        return pos->second.sort;
      }
    }
    throw SolverError("unknown sort kind");
  }

  z3::func_decl z3_func(const FuncDeclPtr& f) {
    auto it = funcs_.find(f.get());
    if (it != funcs_.end()) return it->second;
    z3::sort_vector domain(ctx_);
    for (const auto& d : f->domain()) domain.push_back(z3_sort(d));
    z3::func_decl zf = ctx_.function(f->name().c_str(), domain,
                                     z3_sort(f->range()));
    funcs_.emplace(f.get(), zf);
    return zf;
  }

  z3::expr enum_const(const SortPtr& s, std::size_t index) {
    z3_sort(s);  // ensure interned
    return esorts_.at(s->name()).consts[static_cast<unsigned>(index)]();
  }

  // -- term translation -----------------------------------------------------
  z3::expr translate(const TermPtr& t) {
    auto it = cache_.find(t->id());
    if (it != cache_.end()) return it->second;
    z3::expr e = translate_uncached(t);
    cache_.emplace(t->id(), e);
    return e;
  }

  z3::expr translate_uncached(const TermPtr& t) {
    switch (t->kind()) {
      case TermKind::bool_const:
        return ctx_.bool_val(t->bool_value());
      case TermKind::int_const:
        return ctx_.int_val(static_cast<std::int64_t>(t->int_value()));
      case TermKind::enum_const:
        return enum_const(t->sort(), t->enum_index());
      case TermKind::variable:
        return ctx_.constant(t->var_name().c_str(), z3_sort(t->sort()));
      case TermKind::app: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3_func(t->decl())(args);
      }
      case TermKind::not_op:
        return !translate(t->children()[0]);
      case TermKind::and_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::mk_and(args);
      }
      case TermKind::or_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::mk_or(args);
      }
      case TermKind::implies_op:
        return z3::implies(translate(t->children()[0]),
                           translate(t->children()[1]));
      case TermKind::iff_op:
        return translate(t->children()[0]) == translate(t->children()[1]);
      case TermKind::ite_op:
        return z3::ite(translate(t->children()[0]), translate(t->children()[1]),
                       translate(t->children()[2]));
      case TermKind::eq_op:
        return translate(t->children()[0]) == translate(t->children()[1]);
      case TermKind::distinct_op: {
        z3::expr_vector args(ctx_);
        for (const auto& c : t->children()) args.push_back(translate(c));
        return z3::distinct(args);
      }
      case TermKind::lt_op:
        return translate(t->children()[0]) < translate(t->children()[1]);
      case TermKind::le_op:
        return translate(t->children()[0]) <= translate(t->children()[1]);
      case TermKind::add_op:
        return translate(t->children()[0]) + translate(t->children()[1]);
      case TermKind::sub_op:
        return translate(t->children()[0]) - translate(t->children()[1]);
      case TermKind::forall_op:
      case TermKind::exists_op: {
        z3::expr_vector vars(ctx_);
        for (const auto& v : t->binders()) vars.push_back(translate(v));
        z3::expr body = translate(t->children()[0]);
        return t->kind() == TermKind::forall_op ? z3::forall(vars, body)
                                                : z3::exists(vars, body);
      }
    }
    throw SolverError("unknown term kind");
  }

  // -- model extraction ------------------------------------------------------
  z3::expr node_expr(std::size_t index) const {
    return esorts_.at(vocab_->node_sort()->name())
        .consts[static_cast<unsigned>(index)]();
  }

  /// Elements of the (finite-in-the-model) Packet universe. Uses the C API:
  /// the z3::model wrapper in this Z3 version does not expose universes.
  std::vector<z3::expr> packet_universe(const z3::model& m) const {
    std::vector<z3::expr> out;
    auto it = usorts_.find(vocab_->packet_sort()->name());
    if (it == usorts_.end()) return out;
    const unsigned n = Z3_model_get_num_sorts(ctx_, m);
    for (unsigned i = 0; i < n; ++i) {
      z3::sort s(ctx_, Z3_model_get_sort(ctx_, m, i));
      if (z3::eq(s, it->second)) {
        z3::expr_vector univ(ctx_, Z3_model_get_sort_universe(ctx_, m, s));
        for (unsigned j = 0; j < univ.size(); ++j) out.push_back(univ[j]);
        return out;
      }
    }
    return out;
  }

  void fill_packet_fields(const z3::model& m,
                          const std::vector<z3::expr>& packets,
                          SmtModel& out) const {
    auto eval_int = [&](const FuncDeclPtr& f, const z3::expr& p) {
      auto it = funcs_.find(f.get());
      if (it == funcs_.end()) return std::int64_t{0};
      z3::expr v = m.eval(it->second(p), /*model_completion=*/true);
      std::int64_t value = 0;
      if (v.is_numeral()) (void)v.is_numeral_i64(value);
      return value;
    };
    auto eval_bool = [&](const FuncDeclPtr& f, const z3::expr& p) {
      auto it = funcs_.find(f.get());
      if (it == funcs_.end()) return false;
      return m.eval(it->second(p), true).is_true();
    };
    for (std::size_t i = 0; i < packets.size(); ++i) {
      const z3::expr& p = packets[i];
      ModelPacket& mp = out.packets[i];
      mp.src = eval_int(vocab_->src(), p);
      mp.dst = eval_int(vocab_->dst(), p);
      mp.src_port = eval_int(vocab_->src_port(), p);
      mp.dst_port = eval_int(vocab_->dst_port(), p);
      mp.origin = eval_int(vocab_->origin(), p);
      mp.malicious = eval_bool(vocab_->malicious(), p);
      mp.app_class = eval_int(vocab_->app_class(), p);
    }
  }

  struct EnumSort {
    z3::context& ctx;
    z3::func_decl_vector consts;
    z3::func_decl_vector testers;
    z3::sort sort{ctx};
  };

  const logic::Vocab* vocab_;
  SolverOptions options_;
  /// The Z3 context is internally synchronized state shared by every
  /// expression; model extraction (a const operation) still reads the
  /// model's universes through it.
  mutable z3::context ctx_;
  z3::solver solver_;
  std::unordered_map<std::string, z3::sort> usorts_;
  std::unordered_map<std::string, EnumSort> esorts_;
  std::unordered_map<const FuncDecl*, z3::func_decl> funcs_;
  std::unordered_map<std::uint64_t, z3::expr> cache_;
  std::chrono::microseconds last_time_{0};
  std::size_t assertions_ = 0;
  /// assertion_count() snapshots for the open push() scopes.
  std::vector<std::size_t> assertion_stack_;
  bool have_model_ = false;
};

}  // namespace

z3_events::Snapshot z3_events::snapshot(const Solver& solver) {
  const auto* z3 = dynamic_cast<const Z3Solver*>(&solver);
  if (z3 == nullptr) throw SolverError("snapshot() needs a Z3 solver");
  return z3->snapshot();
}

std::unique_ptr<Solver> make_z3_solver(const logic::Vocab& vocab,
                                       SolverOptions options) {
  return std::make_unique<Z3Solver>(vocab, options);
}

}  // namespace vmn::smt
