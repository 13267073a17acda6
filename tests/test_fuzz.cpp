// The fuzzer's own contract: seeded determinism (a seed IS a test case),
// green oracles on the default sweep, stable slice shape keys on generated
// specs, and the shrinker reducing an injected failure to a minimal
// reproducer that still fails standalone.
#include <gtest/gtest.h>

#include "io/spec.hpp"
#include "scenarios/random.hpp"
#include "verify/fuzz.hpp"
#include "verify/engine.hpp"

namespace vmn {
namespace {

using scenarios::RandomSpecParams;
using scenarios::make_random_spec;
using verify::FuzzOptions;
using verify::FuzzReport;

TEST(RandomSpec, SameSeedIsByteIdentical) {
  RandomSpecParams params;
  params.seed = 42;
  const auto a = make_random_spec(params);
  const auto b = make_random_spec(params);
  EXPECT_EQ(a.text, b.text);
  EXPECT_FALSE(a.text.empty());
}

TEST(RandomSpec, DifferentSeedsDiffer) {
  RandomSpecParams params;
  params.seed = 1;
  const auto a = make_random_spec(params);
  params.seed = 2;
  const auto b = make_random_spec(params);
  EXPECT_NE(a.text, b.text);
}

TEST(RandomSpec, GeneratedTextParsesWithInvariantsAndBudget) {
  for (std::uint64_t seed : {3u, 4u, 5u, 6u}) {
    RandomSpecParams params;
    params.seed = seed;
    const auto rs = make_random_spec(params);
    io::Spec spec = io::parse_spec_string(rs.text);
    EXPECT_GE(spec.invariants.size(), 2u) << "seed " << seed;
    EXPECT_GE(spec.model.network().hosts().size(), 2u) << "seed " << seed;
    EXPECT_LE(scenarios::derived_max_failures(spec.model), params.max_failures)
        << "seed " << seed;
  }
}

TEST(RandomSpec, ShapeKeysStableAcrossReparses) {
  RandomSpecParams params;
  params.seed = 9;
  const auto rs = make_random_spec(params);
  io::Spec first = io::parse_spec_string(rs.text);
  io::Spec second = io::parse_spec_string(rs.text);
  verify::EngineOptions popts{.batch = true};
  popts.verify.max_failures = scenarios::derived_max_failures(first.model);
  const auto plan_a =
      verify::Engine(first.model, popts).plan(first.invariants);
  const auto plan_b =
      verify::Engine(second.model, popts).plan(second.invariants);
  ASSERT_EQ(plan_a.jobs.size(), plan_b.jobs.size());
  for (std::size_t i = 0; i < plan_a.jobs.size(); ++i) {
    EXPECT_EQ(plan_a.jobs[i].problem_key.key, plan_b.jobs[i].problem_key.key);
  }
}

TEST(Fuzz, DefaultSweepIsGreenAndDeterministic) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 2;
  const FuzzReport a = verify::fuzz(opts);
  const FuzzReport b = verify::fuzz(opts);
  EXPECT_TRUE(a.ok()) << (a.failures.empty() ? "" : a.failures[0].detail);
  EXPECT_EQ(a.specs, 2);
  EXPECT_GE(a.invariants, 4u);
  // Same options, same report: counters and outcomes are functions of the
  // seed alone.
  EXPECT_EQ(a.invariants, b.invariants);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.replays_realized, b.replays_realized);
  EXPECT_EQ(a.replays_advisory, b.replays_advisory);
  EXPECT_EQ(a.sim_schedules, b.sim_schedules);
  EXPECT_EQ(a.static_checks, b.static_checks);
  EXPECT_EQ(a.failures.size(), b.failures.size());
  // The static oracle is in the default battery: it is the only check of
  // decide_statically against Z3.
  EXPECT_GT(a.static_checks, 0u);
}

TEST(Fuzz, InjectedFaultShrinksToMinimalReproducer) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 1;
  // The canned broken oracle: any spec with a middlebox "fails". Every
  // generated spec has middleboxes only with positive probability, so pick
  // a seed whose spec has one (seed 1's first spec does; asserted below).
  opts.injected_fault = [](const io::Spec& s) {
    return !s.model.middleboxes().empty();
  };
  const FuzzReport report = verify::fuzz(opts);
  ASSERT_EQ(report.failures.size(), 1u);
  const verify::FuzzFailure& f = report.failures[0];
  EXPECT_EQ(f.oracle, "injected");
  // Strictly smaller, still parses, still fails the hook.
  EXPECT_LT(f.shrunk_lines, f.original_lines);
  EXPECT_GE(f.shrunk_lines, 1u);
  io::Spec shrunk = io::parse_spec_string(f.reproducer);
  EXPECT_FALSE(shrunk.model.middleboxes().empty());
  FuzzReport recheck;
  EXPECT_EQ(verify::check_spec_text(f.reproducer, f.seed, opts, recheck), 1u);
  EXPECT_EQ(recheck.failures[0].oracle, "injected");
}

TEST(Fuzz, ShrinkerIsGreedyFixpointOnInjectedOracle) {
  FuzzOptions opts;
  opts.injected_fault = [](const io::Spec& s) {
    return !s.model.middleboxes().empty();
  };
  scenarios::RandomSpecParams params;
  params.seed = 8;
  const auto rs = make_random_spec(params);
  ASSERT_FALSE(io::parse_spec_string(rs.text).model.middleboxes().empty());
  const std::string shrunk =
      verify::shrink_reproducer(rs.text, "injected", params.seed, opts);
  // Minimal for this oracle: nothing but middlebox declarations can
  // survive a greedy fixpoint, and a single one suffices.
  EXPECT_EQ(io::parse_spec_string(shrunk).model.middleboxes().size(), 1u);
}

TEST(Fuzz, ReplayEntryPointChecksExistingText) {
  scenarios::RandomSpecParams params;
  params.seed = 12;
  const auto rs = make_random_spec(params);
  FuzzOptions opts;
  FuzzReport report;
  EXPECT_EQ(verify::check_spec_text(rs.text, params.seed, opts, report), 0u);
  EXPECT_GE(report.invariants, 2u);
}

}  // namespace
}  // namespace vmn
