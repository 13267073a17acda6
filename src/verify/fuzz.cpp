#include "verify/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sim/replay.hpp"
#include "sim/simulator.hpp"
#include "verify/engine.hpp"

namespace vmn::verify {

namespace {

/// splitmix64 finalizer: spreads (sweep seed, spec index) over the whole
/// seed space so adjacent sweeps do not share generator streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

VerifyOptions baseline_options(const FuzzOptions& options, int budget) {
  VerifyOptions vo;  // defaults: slices + inference + warm on, no cache
  vo.max_failures = budget;
  vo.solver = options.solver;
  return vo;
}

/// `vo` on the process executor at the fuzz run's width.
EngineOptions pooled(const FuzzOptions& options, const VerifyOptions& vo) {
  EngineOptions eo{.batch = true, .jobs = options.jobs, .verify = vo};
  eo.process.worker_command = options.worker_command;
  return eo;
}

std::string invariant_label(const io::Spec& spec, std::size_t i) {
  const net::Network& net = spec.model.network();
  return spec.invariants[i].describe(
      [&](NodeId n) { return net.name(n); });
}

/// First verdict disagreement between two aligned result vectors, skipping
/// invariants either side answered `unknown` (timeouts are not soundness).
std::optional<std::string> diff_results(const io::Spec& spec,
                                        const std::vector<VerifyResult>& a,
                                        const std::vector<VerifyResult>& b,
                                        const std::string& what) {
  if (a.size() != b.size()) {
    return what + ": result count mismatch (" + std::to_string(a.size()) +
           " vs " + std::to_string(b.size()) + ")";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].outcome == Outcome::unknown || b[i].outcome == Outcome::unknown) {
      continue;
    }
    if (a[i].outcome != b[i].outcome) {
      return what + " disagree on invariant " + std::to_string(i) + " (" +
             invariant_label(spec, i) + "): " + to_string(a[i].outcome) +
             " vs " + to_string(b[i].outcome);
    }
  }
  return std::nullopt;
}

std::optional<std::string> oracle_engines(io::Spec& spec,
                                          const VerifyOptions& vo,
                                          const BatchResult& baseline,
                                          const FuzzOptions& options) {
  const auto procs =
      Engine(spec.model, pooled(options, vo)).run_batch(spec.invariants);
  return diff_results(spec, baseline.results, procs.results,
                      "sequential vs process executor");
}

std::optional<std::string> oracle_warm_cold(io::Spec& spec,
                                            const VerifyOptions& vo,
                                            const BatchResult& baseline,
                                            const FuzzOptions& options) {
  VerifyOptions cold = vo;
  cold.warm_solving = false;
  const auto seq_cold =
      Engine(spec.model, {.verify = cold}).run_batch(spec.invariants);
  if (auto d = diff_results(spec, baseline.results, seq_cold.results,
                            "warm vs cold (sequential)")) {
    return d;
  }
  // The parallel warm path rebinds jobs onto isomorphic representatives'
  // live encodings; cold never does. Comparing parallel-cold against the
  // (engine-checked) warm baseline is the iso-rebound == plain oracle.
  const auto par_cold =
      Engine(spec.model, pooled(options, cold)).run_batch(spec.invariants);
  return diff_results(spec, baseline.results, par_cold.results,
                      "warm vs cold (parallel)");
}

std::optional<std::string> oracle_iso_verdict(io::Spec& spec,
                                              const VerifyOptions& vo,
                                              const BatchResult& baseline,
                                              const FuzzOptions& options) {
  // Verdict-level equivalence-class merging (one solver call fanned out to
  // every problem-key-equal binding) against the merge-free run that solves
  // each planned job itself: replayed verdicts must be indistinguishable
  // from solved ones on both engines.
  VerifyOptions unmerged = vo;
  unmerged.merge_isomorphic = false;
  const auto seq =
      Engine(spec.model, {.verify = unmerged}).run_batch(spec.invariants);
  if (auto d = diff_results(spec, baseline.results, seq.results,
                            "merged vs unmerged (sequential)")) {
    return d;
  }
  const auto par =
      Engine(spec.model, pooled(options, unmerged)).run_batch(spec.invariants);
  return diff_results(spec, baseline.results, par.results,
                      "merged vs unmerged (parallel)");
}

std::optional<std::string> oracle_symmetry(io::Spec& spec,
                                           const VerifyOptions& vo,
                                           const BatchResult& baseline) {
  const auto plain =
      Engine(spec.model, {.use_symmetry = false, .verify = vo})
          .run_batch(spec.invariants);
  return diff_results(spec, baseline.results, plain.results,
                      "symmetry vs no-symmetry");
}

std::optional<std::string> oracle_slices(io::Spec& spec,
                                         const VerifyOptions& vo,
                                         const BatchResult& baseline) {
  VerifyOptions whole = vo;
  whole.use_slices = false;
  const auto full =
      Engine(spec.model, {.verify = whole}).run_batch(spec.invariants);
  return diff_results(spec, baseline.results, full.results,
                      "sliced vs whole-network");
}

std::optional<std::string> oracle_replay(io::Spec& spec, int budget,
                                         const BatchResult& baseline,
                                         FuzzReport* stats) {
  const bool strict = sim::replay_is_strict(spec.model);
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    const VerifyResult& r = baseline.results[i];
    if (!r.counterexample) continue;
    const encode::Invariant& inv = spec.invariants[i];
    const Outcome witnessed =
        inv.sat_means_holds() ? Outcome::holds : Outcome::violated;
    if (r.outcome != witnessed) continue;
    if (stats) ++stats->replays;
    const auto rr =
        sim::replay_witness(spec.model, inv, *r.counterexample, budget);
    if (rr.realized) {
      if (stats) ++stats->replays_realized;
    } else if (!strict) {
      if (stats) ++stats->replays_advisory;
    } else {
      return "witness for invariant " + std::to_string(i) + " (" +
             invariant_label(spec, i) +
             ") not concretely realizable in any in-budget scenario (" +
             std::to_string(rr.injections) + " injections tried)";
    }
  }
  return std::nullopt;
}

std::optional<std::string> oracle_sim_cross(io::Spec& spec, int budget,
                                            const BatchResult& baseline,
                                            std::uint64_t seed,
                                            FuzzReport* stats) {
  const net::Network& net = spec.model.network();
  const auto hosts = net.hosts();
  if (hosts.size() < 2) return std::nullopt;

  // A seeded concrete schedule: small port pool so flows collide (firewall
  // establishment, cache requester lists), occasional provenance, malice
  // and application-class tags so every oracle axiom gets exercised.
  Rng rng(seed ^ 0x51edc0ffee5c4edeULL);
  std::vector<std::pair<NodeId, Packet>> schedule;
  for (int k = 0; k < 24; ++k) {
    const auto n = static_cast<std::int64_t>(hosts.size());
    const std::size_t si = static_cast<std::size_t>(rng.uniform(0, n - 1));
    std::size_t di = static_cast<std::size_t>(rng.uniform(0, n - 2));
    if (di >= si) ++di;
    const NodeId src = hosts[si];
    Packet p{net.node(src).address, net.node(hosts[di]).address,
             static_cast<std::uint16_t>(rng.uniform(1000, 1004)),
             static_cast<std::uint16_t>(rng.chance(0.3) ? 443 : 80)};
    if (rng.chance(0.5)) p.origin = p.src;
    if (rng.chance(0.15)) p.malicious = true;
    if (rng.chance(0.3)) {
      p.app_class = static_cast<std::uint16_t>(rng.uniform(1, 4));
    }
    schedule.emplace_back(src, p);
  }

  const auto& scenarios = net.scenarios();
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    if (static_cast<int>(scenarios[si].failed_nodes.size()) > budget) continue;
    sim::Simulator sim(
        spec.model, ScenarioId{static_cast<ScenarioId::underlying_type>(si)});
    for (const auto& [from, p] : schedule) {
      try {
        sim.inject(from, p);
      } catch (const ForwardingLoopError&) {
        // The symbolic model has no hop budget; a looping schedule proves
        // nothing about verdicts, so skip the injection.
      }
    }
    if (stats) ++stats->sim_schedules;
    for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
      const encode::Invariant& inv = spec.invariants[i];
      if (baseline.results[i].outcome == Outcome::unknown) continue;
      if (!sim::trace_violates(sim.trace(), spec.model, inv)) continue;
      // The simulator under-approximates the symbolic model, so anything
      // it realizes the verifier must report.
      const Outcome expected =
          inv.sat_means_holds() ? Outcome::holds : Outcome::violated;
      if (baseline.results[i].outcome != expected) {
        return "simulator realizes invariant " + std::to_string(i) + " (" +
               invariant_label(spec, i) + ") in scenario " +
               scenarios[si].name + " but the verifier says " +
               to_string(baseline.results[i].outcome);
      }
    }
  }
  return std::nullopt;
}

/// The second decision procedure against the first: every planned job whose
/// encode members hold no middlebox, and every invariant over the spec's
/// hosts alone (a wider box-free member set, with more senders than a
/// slice holds), is decided by decide_statically and solved by
/// verify_members on a fresh Z3 session, and the two must agree. Every
/// other oracle compares runs that both take the static path on box-free
/// jobs, so this is the only check of it against the solver. A static sat
/// must also carry a witness the simulator realizes (replay is strict
/// without boxes) and that violates the invariant concretely - reachable's
/// `holds` included.
std::optional<std::string> oracle_static(io::Spec& spec,
                                         const VerifyOptions& vo,
                                         FuzzReport* stats) {
  const net::Network& net = spec.model.network();
  struct Problem {
    std::string what;
    encode::Invariant invariant;
    std::vector<NodeId> members;
  };
  std::vector<Problem> problems;
  const JobPlan plan = Engine(spec.model, {.verify = vo}).plan(spec.invariants);
  for (const Job& job : plan.jobs) {
    problems.push_back({"job " + std::to_string(job.id) + " (" +
                            invariant_label(spec, job.invariant_index) + ")",
                        job.solve_invariant, job.encode_members()});
  }
  std::vector<NodeId> hosts = net.hosts();
  std::sort(hosts.begin(), hosts.end());
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    problems.push_back({"invariant " + std::to_string(i) + " (" +
                            invariant_label(spec, i) + ") over every host",
                        spec.invariants[i], hosts});
  }
  dataplane::TransferCache transfers(net);
  for (const Problem& pr : problems) {
    const std::optional<VerifyResult> decided = decide_statically(
        spec.model, pr.invariant, pr.members, vo.max_failures, transfers);
    // Not decided: a middlebox member, a looping cell, or an invariant
    // node outside the members - all left to the solver path.
    if (!decided) continue;
    if (stats) ++stats->static_checks;
    SolverSession session(vo.solver, /*warm=*/true);
    session.set_resilience(session_resilience(vo));
    const VerifyResult solved = verify_members(
        spec.model, pr.invariant, pr.members, vo.max_failures, session);
    if (solved.outcome != Outcome::unknown &&
        solved.outcome != decided->outcome) {
      return "static decision disagrees with Z3 on " + pr.what + ": " +
             to_string(decided->outcome) + " vs " + to_string(solved.outcome);
    }
    if (decided->raw_status != smt::CheckStatus::sat) continue;
    const Trace& witness = *decided->counterexample;
    if (!sim::replay_witness(spec.model, pr.invariant, witness,
                             vo.max_failures)
             .realized) {
      return "static witness for " + pr.what + " is not realized by replay";
    }
    if (!sim::trace_violates(witness, spec.model, pr.invariant)) {
      return "static witness for " + pr.what +
             " does not violate the invariant concretely";
    }
  }
  return std::nullopt;
}

/// The never-flip oracle: the same spec verified under a seeded fault
/// plan must agree with the fault-free baseline on every verdict both
/// sides answered - degradation may only widen verdicts to unknown, and
/// diff_results already skips unknowns, so any surviving disagreement is
/// a real flip. The process executor runs twice: under the full chaos plan
/// (crashes, crash-looping jobs, frame corruption/truncation, forced
/// unknowns), then under the solver-side plan alone, which adds persistent
/// timeouts.
std::optional<std::string> oracle_faults(io::Spec& spec,
                                         const VerifyOptions& vo,
                                         const BatchResult& baseline,
                                         std::uint64_t seed,
                                         const FuzzOptions& options) {
  if (!options.fault_oracle) return std::nullopt;
  FaultPlan chaos;
  chaos.seed = mix_seed(seed, 0xfa17ull);
  chaos.worker_crash = 0.1;
  chaos.job_crash = 0.15;
  chaos.frame_corrupt = 0.1;
  chaos.frame_truncate = 0.05;
  chaos.solver_unknown = 0.2;
  EngineOptions po = pooled(options, vo);
  po.verify.faults = chaos;
  const auto procs = Engine(spec.model, po).run_batch(spec.invariants);
  if (auto d = diff_results(spec, baseline.results, procs.results,
                            "fault-free vs faulted process executor")) {
    return d;
  }
  FaultPlan solver_chaos;
  solver_chaos.seed = chaos.seed;
  solver_chaos.solver_unknown = 0.25;
  solver_chaos.solver_timeout = 0.1;
  EngineOptions to = pooled(options, vo);
  to.verify.faults = solver_chaos;
  const auto solver_faulted =
      Engine(spec.model, to).run_batch(spec.invariants);
  return diff_results(spec, baseline.results, solver_faulted.results,
                      "fault-free vs solver-faulted process executor");
}

constexpr std::string_view kVerdictOracles[] = {
    "engines", "warm-cold", "iso-verdict", "symmetry", "slices", "static",
    "replay", "sim-cross", "faults"};

std::optional<std::string> run_oracle(std::string_view name, io::Spec& spec,
                                      int budget, const BatchResult& baseline,
                                      std::uint64_t seed,
                                      const FuzzOptions& options,
                                      FuzzReport* stats) {
  const VerifyOptions vo = baseline_options(options, budget);
  if (name == "engines") return oracle_engines(spec, vo, baseline, options);
  if (name == "warm-cold") {
    return oracle_warm_cold(spec, vo, baseline, options);
  }
  if (name == "iso-verdict") {
    return oracle_iso_verdict(spec, vo, baseline, options);
  }
  if (name == "symmetry") return oracle_symmetry(spec, vo, baseline);
  if (name == "slices") return oracle_slices(spec, vo, baseline);
  if (name == "static") return oracle_static(spec, vo, stats);
  if (name == "replay") return oracle_replay(spec, budget, baseline, stats);
  if (name == "sim-cross") {
    return oracle_sim_cross(spec, budget, baseline, seed, stats);
  }
  if (name == "faults") {
    return oracle_faults(spec, vo, baseline, seed, options);
  }
  if (name == "injected") {
    if (options.injected_fault && options.injected_fault(spec)) {
      return std::optional<std::string>{"injected fault hook reports failure"};
    }
    return std::nullopt;
  }
  throw Error("unknown fuzz oracle: " + std::string(name));
}

/// The failure budgets a spec is fuzzed at: its derived budget, which
/// keeps every scenario in budget, then 0 when that leaves some out.
std::vector<int> fuzzed_budgets(const encode::NetworkModel& model) {
  const int derived = scenarios::derived_max_failures(model);
  if (derived > 0) return {derived, 0};
  return {derived};
}

/// Whether `oracle` still fails on `text` at `budget` (nullopt: the text's
/// derived budget) - the shrinker's reproduction check. Any throw (parse
/// error, degenerate model) means the candidate is invalid, i.e. does not
/// reproduce.
bool oracle_fails(std::string_view oracle, const std::string& text,
                  std::uint64_t seed, const FuzzOptions& options,
                  std::optional<int> fixed_budget) {
  try {
    io::Spec spec = io::parse_spec_string(text);
    const int budget = fixed_budget.value_or(
        scenarios::derived_max_failures(spec.model));
    if (oracle == "injected") {
      return options.injected_fault && options.injected_fault(spec);
    }
    if (spec.invariants.empty()) return false;
    const BatchResult baseline =
        Engine(spec.model, {.verify = baseline_options(options, budget)})
            .run_batch(spec.invariants);
    return run_oracle(oracle, spec, budget, baseline, seed, options, nullptr)
        .has_value();
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

std::string first_word(const std::string& line) {
  const auto b = line.find_first_not_of(" \t");
  if (b == std::string::npos) return {};
  auto e = line.find_first_of(" \t", b);
  if (e == std::string::npos) e = line.size();
  return line.substr(b, e - b);
}

/// A removable unit of spec text: one top-level line, or a whole
/// block-structured section (firewall/cache/scenario ... end). Shrinking
/// works on the serialized text, never on a re-serialized model: write o
/// parse is not idempotent for scenario route tables (the writer emits
/// effective tables), so text is the only stable representation.
struct Chunk {
  std::vector<std::string> lines;
  bool block = false;
};

std::vector<Chunk> chunk_text(const std::string& text) {
  std::vector<Chunk> chunks;
  const auto lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (blank(lines[i])) continue;
    const std::string head = first_word(lines[i]);
    Chunk c;
    c.lines.push_back(lines[i]);
    if (head == "firewall" || head == "cache" || head == "scenario") {
      c.block = true;
      while (++i < lines.size()) {
        c.lines.push_back(lines[i]);
        if (first_word(lines[i]) == "end") break;
      }
    }
    chunks.push_back(std::move(c));
  }
  return chunks;
}

std::string join_chunks(const std::vector<Chunk>& chunks) {
  std::string out;
  for (const Chunk& c : chunks) {
    for (const std::string& line : c.lines) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

std::size_t count_spec_lines(const std::string& text) {
  std::size_t n = 0;
  for (const std::string& line : split_lines(text)) {
    if (!blank(line) && first_word(line)[0] != '#') ++n;
  }
  return n;
}

}  // namespace

std::string shrink_reproducer(const std::string& text,
                              const std::string& oracle, std::uint64_t seed,
                              const FuzzOptions& options,
                              std::optional<int> budget) {
  std::vector<Chunk> chunks = chunk_text(text);
  std::size_t checks = 0;
  const auto fails = [&](const std::vector<Chunk>& candidate) {
    ++checks;
    return oracle_fails(oracle, join_chunks(candidate), seed, options, budget);
  };

  // Phase 1: greedy chunk removal to a fixpoint - dropping a host can make
  // a route droppable that was not before, so one pass is not enough.
  bool changed = true;
  while (changed && checks < options.max_shrink_checks) {
    changed = false;
    for (std::size_t i = 0;
         i < chunks.size() && checks < options.max_shrink_checks; ++i) {
      std::vector<Chunk> candidate = chunks;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (candidate.empty()) continue;
      if (fails(candidate)) {
        chunks = std::move(candidate);
        changed = true;
        --i;
      }
    }
  }

  // Phase 2: inner lines of surviving blocks (firewall entries, cache ACL
  // entries, scenario route overrides) - header and `end` stay.
  for (Chunk& c : chunks) {
    if (!c.block || c.lines.size() < 3) continue;
    for (std::size_t j = 1;
         j + 1 < c.lines.size() && checks < options.max_shrink_checks; ++j) {
      std::vector<Chunk> candidate = chunks;
      Chunk& cc = candidate[static_cast<std::size_t>(&c - chunks.data())];
      cc.lines.erase(cc.lines.begin() + static_cast<std::ptrdiff_t>(j));
      if (fails(candidate)) {
        c.lines.erase(c.lines.begin() + static_cast<std::ptrdiff_t>(j));
        --j;
      }
    }
  }
  return join_chunks(chunks);
}

std::size_t check_spec_text(const std::string& text, std::uint64_t seed,
                            const FuzzOptions& options, FuzzReport& report) {
  io::Spec spec = io::parse_spec_string(text);
  report.invariants += spec.invariants.size();

  const std::size_t before = report.failures.size();
  for (const int budget : fuzzed_budgets(spec.model)) {
    if (spec.invariants.empty()) break;
    const BatchResult baseline =
        Engine(spec.model, {.verify = baseline_options(options, budget)})
            .run_batch(spec.invariants);
    for (std::string_view name : kVerdictOracles) {
      if (auto detail = run_oracle(name, spec, budget, baseline, seed,
                                   options, &report)) {
        FuzzFailure f;
        f.seed = seed;
        f.oracle = std::string(name);
        f.detail = *detail;
        f.reproducer = text;
        f.budget = budget;
        report.failures.push_back(std::move(f));
      }
    }
  }
  if (options.injected_fault && options.injected_fault(spec)) {
    FuzzFailure f;
    f.seed = seed;
    f.oracle = "injected";
    f.detail = "injected fault hook reports failure";
    f.reproducer = text;
    report.failures.push_back(std::move(f));
  }
  return report.failures.size() - before;
}

FuzzReport fuzz(const FuzzOptions& options) {
  FuzzReport report;
  for (int i = 0; i < options.count; ++i) {
    const std::uint64_t spec_seed =
        mix_seed(options.seed, static_cast<std::uint64_t>(i));
    scenarios::RandomSpecParams params = options.size;
    params.seed = spec_seed;
    const scenarios::RandomSpec rs = scenarios::make_random_spec(params);
    ++report.specs;

    const std::size_t first = report.failures.size();
    check_spec_text(rs.text, spec_seed, options, report);
    for (std::size_t f = first; f < report.failures.size(); ++f) {
      FuzzFailure& fail = report.failures[f];
      fail.original_lines = count_spec_lines(fail.reproducer);
      const std::string shrunk = shrink_reproducer(
          fail.reproducer, fail.oracle, fail.seed, options,
          fail.budget < 0 ? std::nullopt : std::optional(fail.budget));
      fail.shrunk_lines = count_spec_lines(shrunk);
      std::string header = "# vmn fuzz reproducer\n# seed " +
                           std::to_string(fail.seed) + "  oracle " +
                           fail.oracle;
      std::string file = "repro-" + std::to_string(fail.seed) + "-" +
                         fail.oracle;
      if (fail.budget >= 0) {
        header += "  budget " + std::to_string(fail.budget);
        file += "-budget" + std::to_string(fail.budget);
      }
      fail.reproducer = header + "\n# " + fail.detail + "\n" + shrunk;
      if (!options.reproducer_dir.empty()) {
        std::filesystem::create_directories(options.reproducer_dir);
        const auto path =
            std::filesystem::path(options.reproducer_dir) / (file + ".vmn");
        std::ofstream out(path);
        out << fail.reproducer;
        fail.reproducer_path = path.string();
      }
    }
  }
  return report;
}

}  // namespace vmn::verify
