// Tests for the Z3 backend: translation of every term kind, quantified
// axioms, sat/unsat outcomes, and model extraction - the event decoder on
// each literal shape it reads, and against the dense probe on real models.
#include <gtest/gtest.h>
#include <z3++.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "io/spec.hpp"
#include "logic/builder.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/random.hpp"
#include "slice/policy.hpp"
#include "smt/solver.hpp"
#include "smt/z3_events.hpp"
#include "verify/solver_pool.hpp"
#include "verify/verifier.hpp"
#include "zoo_corpus.hpp"

namespace vmn::smt {
namespace {

namespace l = vmn::logic;

class SmtTest : public ::testing::Test {
 protected:
  SmtTest() : vocab(f, {"A", "B", "OMEGA"}) {}

  std::unique_ptr<Solver> solver() { return make_z3_solver(vocab); }

  /// Asserts a reception at B, so that a sat model has events to read.
  void add_reception(Solver& s) {
    s.add(vocab.rcv_at(vocab.node_const("OMEGA"), vocab.node_const("B"),
                       f.var("wp", vocab.packet_sort()), f.int_val(5)));
  }

  l::TermFactory f;
  l::Vocab vocab;
};

TEST_F(SmtTest, TrivialSatAndUnsat) {
  auto s1 = solver();
  s1->add(f.bool_val(true));
  EXPECT_EQ(s1->check(), CheckStatus::sat);

  auto s2 = solver();
  s2->add(f.bool_val(false));
  EXPECT_EQ(s2->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, ArithmeticAndComparisons) {
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  s->add(f.lt(f.int_val(3), x));
  s->add(f.lt(x, f.int_val(5)));
  EXPECT_EQ(s->check(), CheckStatus::sat);  // x = 4
  s->add(f.neq(x, f.int_val(4)));
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, AddSubIteDistinct) {
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  l::TermPtr y = f.var("y", l::Sort::integer());
  s->add(f.eq(f.add(x, y), f.int_val(10)));
  s->add(f.eq(f.sub(x, y), f.int_val(4)));
  s->add(f.distinct({x, y}));
  s->add(f.eq(f.ite(f.lt(x, y), f.int_val(1), f.int_val(2)), f.int_val(2)));
  EXPECT_EQ(s->check(), CheckStatus::sat);  // x=7, y=3
}

TEST_F(SmtTest, EnumSortsAreFinite) {
  auto s = solver();
  l::TermPtr n = f.var("n", vocab.node_sort());
  s->add(f.neq(n, vocab.node_const("A")));
  s->add(f.neq(n, vocab.node_const("B")));
  s->add(f.neq(n, vocab.node_const("OMEGA")));
  EXPECT_EQ(s->check(), CheckStatus::unsat);  // only three elements
}

TEST_F(SmtTest, IffAndImplies) {
  auto s = solver();
  l::TermPtr p = f.var("p", l::Sort::boolean());
  l::TermPtr q = f.var("q", l::Sort::boolean());
  s->add(f.iff(p, f.not_(q)));
  s->add(f.implies(p, q));
  s->add(p);
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, QuantifiedChannelAxiomUnsat) {
  // rcv requires an earlier snd; if nothing was ever sent to B, B cannot
  // have received - modeled as a quantified axiom plus a negative fact.
  auto s = solver();
  l::TermPtr a = f.fresh_var("a", vocab.node_sort());
  l::TermPtr b = f.fresh_var("b", vocab.node_sort());
  l::TermPtr p = f.fresh_var("p", vocab.packet_sort());
  l::TermPtr t = f.fresh_var("t", l::Sort::integer());
  l::TermPtr t1 = f.fresh_var("t", l::Sort::integer());
  s->add(f.forall({a, b, p, t},
                  f.implies(vocab.rcv_at(a, b, p, t),
                            f.exists({t1}, f.and_(f.lt(t1, t),
                                                  vocab.snd_at(a, b, p, t1))))));
  l::TermPtr n2 = f.fresh_var("n", vocab.node_sort());
  l::TermPtr p2 = f.fresh_var("p", vocab.packet_sort());
  l::TermPtr t2 = f.fresh_var("t", l::Sort::integer());
  s->add(f.forall({n2, p2, t2},
                  f.not_(vocab.snd_at(n2, vocab.node_const("B"), p2, t2))));
  // Claim: B received something. Must be unsatisfiable.
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  l::TermPtr wt = f.var("wt", l::Sort::integer());
  l::TermPtr wn = f.var("wn", vocab.node_sort());
  s->add(vocab.rcv_at(wn, vocab.node_const("B"), wp, wt));
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, ModelExtractionFindsEvents) {
  auto s = solver();
  l::TermPtr wp = f.var("wp", vocab.packet_sort());
  s->add(vocab.rcv_at(vocab.node_const("OMEGA"), vocab.node_const("B"), wp,
                      f.int_val(5)));
  s->add(f.eq(f.app(vocab.src(), {wp}), f.int_val(1234)));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  SmtModel m = s->model();
  ASSERT_EQ(m.packets.size(), 1u);
  EXPECT_EQ(m.packets[0].src, 1234);
  // The model must expose a reception at B (Z3 may make the unconstrained
  // relation true at more instants than the asserted one).
  bool found = false;
  for (const ModelEvent& ev : m.events) {
    if (ev.kind == EventKind::receive && ev.to == 1 /* B */) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(SmtTest, ModelBeforeCheckThrows) {
  auto s = solver();
  EXPECT_THROW((void)s->model(), SolverError);
}

TEST_F(SmtTest, ModelAfterAddWithoutCheckThrows) {
  // A model answers the assertions it was found for: one added since the
  // last check leaves no model to read, not a stale one.
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  add_reception(*s);
  s->add(f.lt(f.int_val(0), x));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  (void)s->model();
  s->add(f.eq(x, f.int_val(2)));
  EXPECT_THROW((void)s->model(), SolverError);
  ASSERT_EQ(s->check(), CheckStatus::sat);
  (void)s->model();
}

TEST_F(SmtTest, ModelAfterPushWithoutCheckThrows) {
  // A new scope, and a popped one, leave no model until the next check.
  auto s = solver();
  l::TermPtr x = f.var("x", l::Sort::integer());
  add_reception(*s);
  s->add(f.lt(f.int_val(0), x));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  s->push();
  EXPECT_THROW((void)s->model(), SolverError);
  s->add(f.eq(x, f.int_val(2)));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  (void)s->model();
  s->pop();
  EXPECT_THROW((void)s->model(), SolverError);
}

TEST_F(SmtTest, NonBoolAssertionRejected) {
  auto s = solver();
  EXPECT_THROW(s->add(f.int_val(1)), SolverError);
}

TEST_F(SmtTest, AssertionCountTracks) {
  auto s = solver();
  s->add(f.bool_val(true));
  s->add(f.var("p", l::Sort::boolean()));
  EXPECT_EQ(s->assertion_count(), 2u);
}

TEST_F(SmtTest, TimeoutReportsUnknownOrSolves) {
  // A tiny timeout on a non-trivial quantified problem should either give
  // a decisive answer quickly or report unknown - never hang.
  SolverOptions opts;
  opts.timeout_ms = 1;
  auto s = make_z3_solver(vocab, opts);
  l::TermPtr x = f.fresh_var("x", l::Sort::integer());
  l::TermPtr y = f.fresh_var("y", l::Sort::integer());
  l::FuncDeclPtr g = f.func("g", {l::Sort::integer()}, l::Sort::integer());
  s->add(f.forall({x, y}, f.implies(f.lt(x, y), f.lt(f.app(g, {x}),
                                                     f.app(g, {y})))));
  l::TermPtr z = f.var("z", l::Sort::integer());
  s->add(f.lt(f.app(g, {f.app(g, {z})}), f.app(g, {z})));
  CheckStatus st = s->check();
  EXPECT_TRUE(st == CheckStatus::unknown || st == CheckStatus::unsat ||
              st == CheckStatus::sat);
}

/// The pigeonhole principle for `holes` + 1 pigeons: unsat, and hard for
/// a CDCL core (resolution proofs of it are exponential in `holes`).
void add_pigeonhole(l::TermFactory& f, Solver& s, int holes) {
  std::vector<std::vector<l::TermPtr>> in(holes + 1);
  for (int p = 0; p <= holes; ++p) {
    for (int h = 0; h < holes; ++h) {
      in[p].push_back(f.var("p" + std::to_string(p) + "h" + std::to_string(h),
                            l::Sort::boolean()));
    }
    s.add(f.or_(in[p]));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p <= holes; ++p) {
      for (int q = p + 1; q <= holes; ++q) {
        s.add(f.or_(f.not_(in[p][h]), f.not_(in[q][h])));
      }
    }
  }
}

TEST_F(SmtTest, TimeoutBoundsAnUndecidableCheck) {
  // The per-check timeout is the backstop for a check the core cannot
  // decide: 13 pigeons in 12 holes under 50 ms must come back unknown,
  // and well inside 5 s of wall clock (100x the budget, for loaded or
  // sanitizer builds).
  SolverOptions opts;
  opts.timeout_ms = 50;
  auto s = make_z3_solver(vocab, opts);
  add_pigeonhole(f, *s, 12);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(s->check(), CheckStatus::unknown);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST_F(SmtTest, EscalationOptionsConstructAndCheck) {
  // The escalated retry's solver: a perturbed seed and a doubled timeout.
  SolverOptions opts;
  opts.timeout_ms = 2 * SolverOptions{}.timeout_ms;
  opts.seed = 0x9e3779b9u;
  auto s = make_z3_solver(vocab, opts);
  l::TermPtr x = f.var("x", l::Sort::integer());
  add_reception(*s);
  s->push();
  s->add(f.lt(f.int_val(3), x));
  s->add(f.lt(x, f.int_val(5)));
  ASSERT_EQ(s->check(), CheckStatus::sat);
  (void)s->model();
  s->pop();
  add_pigeonhole(f, *s, 3);
  EXPECT_EQ(s->check(), CheckStatus::unsat);
}

TEST_F(SmtTest, StatusToString) {
  EXPECT_EQ(to_string(CheckStatus::sat), "sat");
  EXPECT_EQ(to_string(CheckStatus::unsat), "unsat");
  EXPECT_EQ(to_string(CheckStatus::unknown), "unknown");
}

// --- the event decoder, one literal shape at a time --------------------------

/// A hand-built model over Node {A, B, O} and Packet {P0, P1} (an enum
/// here, so m.eval can compare packets) with snd(Node, Node, Packet, Int)
/// and fail(Node, Int), read at candidate times {0, 2, 5, 9}.
class EventDecoder : public ::testing::Test {
 protected:
  EventDecoder()
      : node_consts(ctx), node_testers(ctx), packet_consts(ctx),
        packet_testers(ctx), node(make_enum("Node", {"A", "B", "O"},
                                            node_consts, node_testers)),
        packet(make_enum("Packet", {"P0", "P1"}, packet_consts,
                         packet_testers)),
        snd(ctx.function("snd", node, node, packet, ctx.int_sort(),
                         ctx.bool_sort())),
        fail(ctx.function("fail", node, ctx.int_sort(), ctx.bool_sort())),
        m(ctx) {
    for (unsigned i = 0; i < node_consts.size(); ++i) {
      domains.nodes.push_back(node_consts[i]());
    }
    for (unsigned i = 0; i < packet_consts.size(); ++i) {
      domains.packets.push_back(packet_consts[i]());
    }
    domains.times = {0, 2, 5, 9};
  }

  z3::sort make_enum(const char* name, std::vector<const char*> elements,
                     z3::func_decl_vector& consts,
                     z3::func_decl_vector& testers) {
    return ctx.enumeration_sort(name, static_cast<unsigned>(elements.size()),
                                elements.data(), consts, testers);
  }

  /// (:var i) of an interpretation body: snd's argument i.
  z3::expr var(unsigned i) {
    const z3::sort sorts[] = {node, node, packet, ctx.int_sort()};
    return z3::expr(ctx, Z3_mk_bound(ctx, i, sorts[i]));
  }
  z3::expr n(std::size_t i) { return domains.nodes[i]; }
  z3::expr p(std::size_t i) { return domains.packets[i]; }
  z3::expr t() { return var(3); }

  z3_events::Relation send() { return {EventKind::send, snd}; }

  /// snd interpreted as `body` (no entries), decoded and probed alike.
  std::vector<ModelEvent> decode_send(z3::expr body) {
    m.add_func_interp(snd, body);
    return decode(send());
  }

  std::vector<ModelEvent> decode(const z3_events::Relation& relation) {
    std::optional<std::vector<ModelEvent>> events =
        z3_events::decode_events(m, relation, domains);
    EXPECT_TRUE(events.has_value());
    if (!events) return {};
    EXPECT_EQ(*events, z3_events::probe_events_dense(m, relation, domains));
    return *events;
  }

  z3::context ctx;
  z3::func_decl_vector node_consts, node_testers;
  z3::func_decl_vector packet_consts, packet_testers;
  z3::sort node, packet;
  z3::func_decl snd, fail;
  z3::model m;
  z3_events::Domains domains;
};

ModelEvent send_event(std::size_t from, std::size_t to, std::size_t packet,
                      std::int64_t time) {
  return ModelEvent{EventKind::send, from, to, packet, time};
}

TEST_F(EventDecoder, EntryListOverFalseElse) {
  z3::expr f = ctx.bool_val(false);
  z3::expr tt = ctx.bool_val(true);
  z3::func_interp fi = m.add_func_interp(snd, f);
  for (auto [from, to, pk, time, value] :
       {std::tuple{0, 1, 1, 9, tt}, std::tuple{0, 1, 1, 5, tt},
        std::tuple{1, 0, 0, 2, f}, std::tuple{2, 2, 0, 0, tt}}) {
    z3::expr_vector args(ctx);
    args.push_back(n(from));
    args.push_back(n(to));
    args.push_back(p(pk));
    args.push_back(ctx.int_val(time));
    fi.add_entry(args, value);
  }
  EXPECT_EQ(decode(send()),
            (std::vector<ModelEvent>{send_event(0, 1, 1, 5),
                                     send_event(2, 2, 0, 0)}));
}

TEST_F(EventDecoder, FalseElseHasNoEvents) {
  EXPECT_TRUE(decode_send(ctx.bool_val(false)).empty());
}

TEST_F(EventDecoder, AbsentInterpretationHasNoEvents) {
  EXPECT_TRUE(decode(send()).empty());
}

TEST_F(EventDecoder, NegatedEqualityLeavesTheRestOfTheDomain) {
  // from = A, to != A, packet unpinned, t >= 2.
  EXPECT_EQ(decode_send(var(0) == n(0) && !(var(1) == n(0)) && 2 <= t()),
            (std::vector<ModelEvent>{
                send_event(0, 1, 0, 2), send_event(0, 1, 1, 2),
                send_event(0, 2, 0, 2), send_event(0, 2, 1, 2)}));
}

TEST_F(EventDecoder, OpenAndClosedTimeIntervals) {
  // [3, inf) starts at candidate 5; [1, 3) at candidate 2; both for A->B
  // P0, so the closed interval's 2 is the earliest. (6, 9] is B->A's.
  z3::expr ab = var(0) == n(0) && var(1) == n(1) && var(2) == p(0);
  z3::expr ba = var(0) == n(1) && var(1) == n(0) && var(2) == p(0);
  EXPECT_EQ(decode_send((ab && 3 <= t()) || (ab && 1 <= t() && !(3 <= t())) ||
                        (ba && !(t() <= 6) && t() <= 9)),
            (std::vector<ModelEvent>{send_event(0, 1, 0, 2),
                                     send_event(1, 0, 0, 9)}));
}

TEST_F(EventDecoder, ProjectionIsEvaluatedPerCandidateTime) {
  // Model-based instantiation writes time as (k!7 t) = c, with k!7's own
  // interpretation: here 1 from time 4 on, 0 before.
  z3::func_decl k = ctx.function("k!7", ctx.int_sort(), ctx.int_sort());
  z3::expr k_body = z3::ite(
      z3::expr(ctx, Z3_mk_bound(ctx, 0, ctx.int_sort())) >= 4,
      ctx.int_val(1), ctx.int_val(0));
  m.add_func_interp(k, k_body);
  EXPECT_EQ(decode_send(var(0) == n(2) && var(1) == n(1) && var(2) == p(1) &&
                        k(t()) == 1),
            std::vector<ModelEvent>{send_event(2, 1, 1, 5)});
}

TEST_F(EventDecoder, NoLowerBoundStartsAtTimeZero) {
  EXPECT_EQ(decode_send(var(0) == n(1) && var(1) == n(2) && var(2) == p(0) &&
                        !(7 <= t())),
            std::vector<ModelEvent>{send_event(1, 2, 0, 0)});
}

TEST_F(EventDecoder, ContradictoryDisjunctHasNoEvents) {
  EXPECT_TRUE(decode_send((var(0) == n(0) && 6 <= t() && !(5 <= t())) ||
                          (var(1) == n(1) && !(var(1) == n(1))))
                  .empty());
}

TEST_F(EventDecoder, FailEventsAreKeyedByNode) {
  z3::expr v0 = z3::expr(ctx, Z3_mk_bound(ctx, 0, node));
  z3::expr v1 = z3::expr(ctx, Z3_mk_bound(ctx, 1, ctx.int_sort()));
  z3::expr body = v0 == n(1) && 2 <= v1;
  m.add_func_interp(fail, body);
  EXPECT_EQ(decode({EventKind::fail, fail}),
            (std::vector<ModelEvent>{{EventKind::fail, 1, 1, 0, 2}}));
}

TEST_F(EventDecoder, UnknownOperatorFallsBackToTheDenseProbe) {
  z3::expr body = var(0) == n(0) && var(1) == n(1) && var(2) == p(0) &&
                  t() + 1 == 3;
  m.add_func_interp(snd, body);
  EXPECT_FALSE(z3_events::decode_events(m, send(), domains).has_value());
  SmtModel out;
  z3_events::read_events(m, send(), domains, out);
  EXPECT_EQ(out.dense_fallbacks, std::vector<EventKind>{EventKind::send});
  EXPECT_EQ(out.events, std::vector<ModelEvent>{send_event(0, 1, 0, 2)});
}

// --- the event decoder on real models -----------------------------------------

/// Solves every planned job of (model, invariants) on a warm session, as
/// the inline executor does, and on each sat model checks that the decoder
/// reads every relation, with exactly the dense probe's events. Returns
/// the number of models checked.
std::size_t cross_check_models(const encode::NetworkModel& model,
                               const std::vector<encode::Invariant>& invariants,
                               int max_failures, const std::string& what) {
  verify::VerifyOptions options;
  options.max_failures = max_failures;
  const verify::JobPlan plan =
      verify::plan_jobs(model, invariants, slice::infer_policy_classes(model),
                        /*use_symmetry=*/true, options);
  dataplane::TransferCache transfers(model.network());
  verify::SolverSession session(options.solver, /*warm=*/true, transfers);
  std::size_t models = 0;
  for (const verify::Job& job : plan.jobs) {
    verify::SolverSession::WarmBound bound =
        session.warm_bind(model, job.encode_members(), max_failures);
    bound.solver.push();
    for (const encode::Axiom& axiom :
         bound.encoding.invariant_axioms(job.solve_invariant)) {
      bound.solver.add(axiom.term);
    }
    if (bound.solver.check() == CheckStatus::sat) {
      ++models;
      const z3_events::Snapshot snap = z3_events::snapshot(bound.solver);
      EXPECT_EQ(snap.relations.size(), 3u) << what;
      for (const z3_events::Relation& relation : snap.relations) {
        const std::optional<std::vector<ModelEvent>> decoded =
            z3_events::decode_events(snap.model, relation, snap.domains);
        EXPECT_TRUE(decoded.has_value())
            << what << " job " << job.id << " relation "
            << static_cast<int>(relation.kind) << " fell back";
        if (!decoded) continue;
        EXPECT_EQ(*decoded, z3_events::probe_events_dense(
                                snap.model, relation, snap.domains))
            << what << " job " << job.id << " relation "
            << static_cast<int>(relation.kind);
      }
      EXPECT_TRUE(bound.solver.model().dense_fallbacks.empty()) << what;
    }
    bound.solver.pop();
  }
  return models;
}

TEST(EventDecoderModels, ZooCorpusMatchesTheDenseProbe) {
  std::size_t models = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    // The zoo-random benchmark corpus: its generator parameters, content
    // caches screened out.
    const scenarios::RandomSpec rs =
        scenarios::make_random_spec(test::zoo_params(seed));
    if (rs.text.find("\ncache ") != std::string::npos) continue;
    const io::Spec spec = io::parse_spec_string(rs.text);
    models += cross_check_models(spec.model, spec.invariants,
                                 scenarios::derived_max_failures(spec.model),
                                 "zoo" + std::to_string(seed));
  }
  EXPECT_GT(models, 300u);
}

TEST(EventDecoderModels, DatacenterMisconfigurationsMatchTheDenseProbe) {
  using scenarios::DcMisconfig;
  std::size_t models = 0;
  for (DcMisconfig kind : {DcMisconfig::rules, DcMisconfig::redundancy,
                           DcMisconfig::traversal, DcMisconfig::cache_acl}) {
    const bool storage = kind == DcMisconfig::cache_acl;
    scenarios::Datacenter dc =
        scenarios::make_datacenter({4, 2, storage, true});
    Rng rng(3);
    scenarios::inject_misconfig(dc, kind, rng);
    std::vector<encode::Invariant> invariants = dc.isolation_invariants();
    for (const encode::Invariant& inv : dc.traversal_invariants()) {
      invariants.push_back(inv);
    }
    if (storage) {
      for (const encode::Invariant& inv : dc.data_isolation_invariants()) {
        invariants.push_back(inv);
      }
    }
    models += cross_check_models(dc.model, invariants, storage ? 0 : 1,
                                 "datacenter " +
                                     std::to_string(static_cast<int>(kind)));
  }
  EXPECT_GE(models, 4u);
}

}  // namespace
}  // namespace vmn::smt
