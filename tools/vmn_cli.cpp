// vmn - command-line front end.
//
//   vmn verify <spec-file> [options]     (vmn verify --help)
//       Verifies every invariant declared in the file. Exit codes:
//         0  every verdict definitive and as expected
//         1  some invariant with an `expect` clause disagreed
//         2  incomplete: an unknown verdict, or the batch degraded
//            (abandoned/quarantined/deadline-expired jobs)
//         3  usage or internal error
//       (1 wins over 2 when both apply: a proven violation outranks an
//       incomplete sweep.) The invariants are planned into one solver
//       class per distinct problem key; with --batch (or --jobs) the
//       classes fan out over --jobs N forked `vmn worker` processes
//       (default: hardware concurrency). Every executor ends with the batch summary: one
//       indented `name: value` line per metric of the schema
//       (verify::BatchResult::metrics(); timers in microseconds), then one
//       `degradation:` line per reason the batch degraded.
//       --cache-dir enables the persistent result cache: re-running after
//       a spec edit re-solves only the slices whose canonical key changed
//       (cached verdicts carry no counterexample trace). --no-warm
//       disables solver-context reuse across same-shape jobs (debug /
//       benchmarking baseline). Under --batch, crashed or hung workers
//       (--worker-timeout) get their jobs requeued onto the survivors and
//       their slots respawned (bounded); a job that keeps killing workers
//       is quarantined; exhausted jobs are reported unknown - never
//       silently dropped. --backend=process is an alias of --batch.
//       --faults takes a deterministic fault plan (src/verify/faults.hpp;
//       e.g. seed=7,job-crash=0.2) injected into the run - chaos testing
//       with replayable schedules. --deadline
//       bounds the batch wall clock: on expiry unattempted jobs surface
//       as unknown with the degradation reported and exit code 2.
//       --no-escalate disables the unknown-escalation retry (escalated
//       solver timeout + perturbed seed) that otherwise rescues transient
//       unknowns.
//
//   vmn serve <spec-file> [options]      (vmn serve --help)
//       Long-running incremental re-verification daemon
//       (src/verify/serve.hpp): loads the spec, verifies it once, then
//       answers STATUS / VERDICT <invariant> / RELOAD / STATS over a line
//       protocol on a Unix socket (--socket; default <spec>.sock) and/or
//       loopback TCP (--port; 0 = ephemeral). The file is watched (inotify
//       when available, content polling otherwise); a semantic edit
//       re-plans and re-solves only the slices whose canonical keys
//       changed - the warm engine and record-granular result cache carry
//       everything else across the reload.
//
//   vmn worker
//       Internal: one verification worker of the process executor. Reads
//       wire-framed model/job frames on stdin, writes result frames to
//       stdout (src/verify/wire.hpp documents the protocol). Spawned by
//       `vmn verify --batch`; speaks pipes, not spec files, so
//       it also serves as the single-host template for a future multi-host
//       dispatcher.
//
//   vmn fuzz [options]                   (vmn fuzz --help)
//       Differential fuzzing (src/verify/fuzz.hpp): generates N random
//       specifications from the seed and runs each through the oracle
//       battery (engine agreement, warm/cold, symmetry, slices, witness
//       replay, simulator cross-check). Failures are delta-debugged to a
//       minimal .vmn reproducer (written into --reproducer-dir when given)
//       and the exit status is non-zero. --replay re-runs the battery on an
//       existing spec file - the standalone re-check for a committed
//       reproducer (pass the seed from its header for seed-dependent
//       oracles). --inject-fault enables a deliberately broken oracle that
//       fails on any spec with a middlebox (shrinker self-test). --faults
//       adds the fault-injection oracle: each spec is re-verified under a
//       seeded chaos plan (crashes, frame corruption, forced unknowns) and
//       any verdict that *flips* against the fault-free run fails - faults
//       may only widen verdicts to unknown, never change them.
//
//   vmn audit <spec-file>
//       Static datapath audit: forwarding loops and blackholes across all
//       destination equivalence classes and failure scenarios.
//
//   vmn classes <spec-file> [--max-failures k]
//       Prints the inferred policy equivalence classes `vmn verify` plans
//       with at the same failure budget (default 0).
//
//   vmn dump <spec-file>
//       Parses and re-serializes the specification (round-trip check).
//
// All flag parsing goes through cli::OptionSet (src/cli/options.hpp):
// strict numerics, --name value and --name=value, per-subcommand --help.
// All verification goes through verify::Engine (src/verify/engine.hpp);
// this file only fills in its EngineOptions.
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "dataplane/reach.hpp"
#include "io/spec.hpp"
#include "slice/policy.hpp"
#include "verify/engine.hpp"
#include "verify/fuzz.hpp"
#include "verify/serve.hpp"
#include "verify/wire.hpp"
#include "vmn.hpp"

namespace {

using namespace vmn;

// Exit codes (vmn verify / vmn fuzz): 0 = clean, 1 = violated/failed,
// 2 = incomplete (unknown verdicts or degraded batch), 3 = usage or
// internal error.
constexpr int kExitClean = 0;
constexpr int kExitViolated = 1;
constexpr int kExitIncomplete = 2;
constexpr int kExitUsage = 3;

int usage() {
  std::fprintf(stderr,
               "usage: vmn <verify|serve|audit|classes|dump> <spec-file> "
               "[options]\n"
               "       vmn fuzz [options]   (differential fuzzing)\n"
               "       vmn worker   (wire-protocol worker on stdin/stdout)\n"
               "  `vmn <verify|serve|classes|fuzz> --help` lists that "
               "subcommand's options.\n");
  return kExitUsage;
}

/// argv for the process executor's workers: this very binary, re-invoked as
/// `vmn worker`. /proc/self/exe survives PATH tricks and renames; argv[0]
/// is the fallback for exotic mounts.
std::vector<std::string> self_worker_command(const char* argv0) {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  if (n > 0) {
    path[n] = '\0';
    return {path, "worker"};
  }
  return {argv0, "worker"};
}

std::string omega_name(const net::Network& net, NodeId n) {
  return n.valid() ? net.name(n) : std::string("OMEGA");
}

/// Registers `--max-failures k` (shared by `verify`, `serve` and
/// `classes`), writing into `max_failures`.
void add_max_failures_flag(cli::OptionSet& set, int& max_failures) {
  set.add_value(
      "--max-failures", "k", "failure budget per scenario sweep",
      [&max_failures](const std::string& text, std::string& error) {
        long long k = 0;
        if (!cli::parse_int(text, 0, INT32_MAX, k)) {
          error = "wants a non-negative integer, got " + text;
          return false;
        }
        max_failures = static_cast<int>(k);
        return true;
      });
}

/// Registers the verification-engine flags shared by `verify` and `serve`
/// into `set`, writing into `engine` (and `worker_timeout`, folded into
/// engine.process by finish_engine_flags once parsing settles).
void add_engine_flags(cli::OptionSet& set, verify::EngineOptions& engine,
                      std::chrono::milliseconds& worker_timeout) {
  set.add_flag("--no-slices", "verify on the whole network, not slices",
               [&engine] { engine.verify.use_slices = false; });
  set.add_flag("--no-symmetry", "disable problem-key solver classes",
               [&engine] { engine.use_symmetry = false; });
  add_max_failures_flag(set, engine.verify.max_failures);
  set.add_value(
      "--timeout", "ms", "per-solver-call timeout",
      [&engine](const std::string& text, std::string& error) {
        long long ms = 0;
        if (!cli::parse_int(text, 1, static_cast<long long>(UINT32_MAX),
                            ms)) {
          error = "wants a positive millisecond count, got " + text;
          return false;
        }
        engine.verify.solver.timeout_ms = static_cast<std::uint32_t>(ms);
        return true;
      });
  set.add_string("--cache-dir", "dir", "persistent result cache directory",
                 &engine.verify.cache_dir);
  set.add_flag("--no-warm", "disable warm solver-context reuse",
               [&engine] { engine.verify.warm_solving = false; });
  set.add_flag("--batch", "fan out over forked worker processes",
               [&engine] { engine.batch = true; });
  set.add_value(
      "--backend", "process", "alias of --batch",
      [&engine](const std::string& text, std::string& error) {
        if (text != "process") {
          error = "wants process, got " + text;
          return false;
        }
        engine.batch = true;
        return true;
      });
  set.add_value(
      "--worker-timeout", "ms", "hang timeout per --batch worker",
      [&worker_timeout](const std::string& text, std::string& error) {
        long long ms = 0;
        if (!cli::parse_int(text, 1, INT64_MAX, ms)) {
          error = "wants a positive millisecond count, got " + text;
          return false;
        }
        worker_timeout = std::chrono::milliseconds(ms);
        return true;
      });
  set.add_value(
      "--faults", "plan", "deterministic fault-injection plan",
      [&engine](const std::string& text, std::string& error) {
        try {
          engine.verify.faults = verify::FaultPlan::parse(text);
        } catch (const Error& e) {
          error = e.what();
          return false;
        }
        return true;
      });
  set.add_value(
      "--deadline", "ms", "batch wall-clock budget",
      [&engine](const std::string& text, std::string& error) {
        long long ms = 0;
        if (!cli::parse_int(text, 1, INT64_MAX, ms)) {
          error = "wants a positive millisecond count, got " + text;
          return false;
        }
        engine.deadline = std::chrono::milliseconds(ms);
        return true;
      });
  set.add_flag("--no-escalate", "disable the unknown-escalation retry",
               [&engine] { engine.verify.escalate_unknown = false; });
  set.add_value(
      "--jobs", "N", "pool worker count (0 = hardware concurrency)",
      [&engine](const std::string& text, std::string& error) {
        long long n = 0;
        if (!cli::parse_int(text, 0, INT32_MAX, n)) {
          error = "wants a non-negative integer, got " + text;
          return false;
        }
        engine.jobs = static_cast<std::size_t>(n);
        engine.batch = true;
        return true;
      });
  set.add_check([&engine](std::string& error) {
    if (!engine.verify.cache_dir.empty() && !engine.use_symmetry) {
      error =
          "--cache-dir cannot be combined with --no-symmetry: cache "
          "records are keyed by shape-canonical problem keys, which only "
          "symmetry planning computes";
      return false;
    }
    return true;
  });
}

/// Post-parse fixups shared by verify and serve: wire the process executor
/// to re-invoke this binary. (Contradictory combinations like --no-symmetry
/// with --cache-dir are hard usage errors, rejected by the OptionSet's
/// cross-flag checks before this runs.)
void finish_engine_flags(verify::EngineOptions& engine,
                         std::chrono::milliseconds worker_timeout,
                         const char* argv0) {
  if (engine.batch) {
    engine.process.worker_command = self_worker_command(argv0);
    engine.process.hang_timeout = worker_timeout;
  }
}

/// Extracts the single positional spec-file operand; reports via `set`'s
/// usage when it is missing or duplicated.
bool spec_operand(const cli::OptionSet& set,
                  const std::vector<std::string>& positionals,
                  std::string& path) {
  if (positionals.size() != 1) {
    std::fprintf(stderr, "%s\n%s",
                 positionals.empty() ? "missing spec-file operand"
                                     : "more than one spec-file operand",
                 set.usage().c_str());
    return false;
  }
  path = positionals[0];
  return true;
}

int cmd_verify(const char* argv0, int argc, char** argv) {
  verify::EngineOptions eopts;
  std::chrono::milliseconds worker_timeout{0};
  bool want_trace = false;
  bool dedup_report = false;
  cli::OptionSet set("vmn verify <spec-file> [options]",
                     "Verifies every invariant in the spec; --batch fans "
                     "out over forked worker processes.");
  add_engine_flags(set, eopts, worker_timeout);
  set.add_flag("--trace", "print counterexample traces", &want_trace);
  set.add_flag("--dedup-report",
               "print equivalence-class sizes and what blocked merges",
               &dedup_report);
  std::vector<std::string> positionals;
  switch (set.parse(argc, argv, &positionals)) {
    case cli::OptionSet::Result::help: return kExitClean;
    case cli::OptionSet::Result::error: return kExitUsage;
    case cli::OptionSet::Result::ok: break;
  }
  std::string spec_path;
  if (!spec_operand(set, positionals, spec_path)) return kExitUsage;
  finish_engine_flags(eopts, worker_timeout, argv0);

  io::Spec spec = io::load_spec(spec_path);
  if (spec.invariants.empty()) {
    std::fprintf(stderr, "spec declares no invariants\n");
    return kExitUsage;
  }
  const net::Network& net = spec.model.network();
  verify::Engine engine(spec.model, eopts);
  verify::BatchResult batch = engine.run_batch(spec.invariants);
  if (dedup_report) {
    // Equivalence-class fan-out: how many invariants each solver class
    // answered, as a "count x size" histogram, plus why encode reuse was
    // refused. The refusals are computed here, on a re-plan of the batch,
    // and only with warm solving (the only plans that rebind):
    // configuration blockers name the exact relation/row/cell of the
    // descriptor that differed (e.g. "firewall.acl row 3: dst prefix /24
    // vs /16").
    std::map<std::size_t, std::size_t> by_size;
    for (std::size_t s : batch.pool.iso_class_sizes) ++by_size[s];
    std::printf("dedup report: %zu solver classes over %zu invariants\n",
                batch.pool.jobs_executed, batch.results.size());
    std::printf("  class sizes:");
    for (auto it = by_size.rbegin(); it != by_size.rend(); ++it) {
      std::printf(" %zux%zu", it->second, it->first);
    }
    std::printf("\n");
    const std::vector<verify::MergeBlocker> blockers =
        eopts.verify.warm_solving
            ? verify::merge_blockers(spec.model,
                                     engine.plan(spec.invariants),
                                     eopts.verify.max_failures)
            : std::vector<verify::MergeBlocker>{};
    if (blockers.empty()) {
      std::printf("  merge blockers: none\n");
    } else {
      std::printf("  merge blockers:\n");
      for (const verify::MergeBlocker& b : blockers) {
        std::printf("    - %s: %zu\n", b.reason.c_str(), b.count);
      }
    }
  }

  // Exit-code folding: a proven disagreement with an `expect` clause is a
  // *violation* (1); unknown verdicts and batch degradation make the sweep
  // *incomplete* (2); 1 outranks 2 when both apply.
  bool unexpected = false;
  bool incomplete = batch.degradation.degraded();
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    const verify::VerifyResult& r = batch.results[i];
    const char* marker = "";
    if (r.outcome == verify::Outcome::unknown) {
      marker = "  <-- UNKNOWN";
      incomplete = true;
    } else if (spec.expectations[i] && r.outcome != *spec.expectations[i]) {
      marker = "  <-- UNEXPECTED";
      unexpected = true;
    }
    std::printf("%-48s %-9s %s(%lld us, slice %zu)%s\n",
                spec.invariants[i]
                    .describe([&](NodeId n) { return net.name(n); })
                    .c_str(),
                verify::to_string(r.outcome).c_str(),
                r.by_symmetry ? "[sym] " : "",
                static_cast<long long>(r.solve_time.count()), r.slice_size,
                marker);
    if (want_trace && r.counterexample) {
      std::printf("%s", r.counterexample
                            ->to_string([&](NodeId n) {
                              return omega_name(net, n);
                            })
                            .c_str());
    } else if (want_trace && r.outcome == verify::Outcome::violated &&
               r.from_cache) {
      std::printf(
          "  (no trace: verdict answered by the result cache; rerun without "
          "--cache-dir, or clear it, to extract a counterexample)\n");
    }
  }
  // The batch summary: the metrics schema, one line per metric, then why
  // the batch degraded, if it did. Every line is indented, so no summary
  // line reads as a verdict line.
  for (const verify::Metric& m : batch.metrics()) {
    std::printf("  %.*s: %llu\n", static_cast<int>(m.name.size()),
                m.name.data(), static_cast<unsigned long long>(m.value));
  }
  for (const std::string& reason : batch.degradation.reasons) {
    std::printf("  degradation: %s\n", reason.c_str());
  }
  if (unexpected) return kExitViolated;
  if (incomplete) return kExitIncomplete;
  return kExitClean;
}

int cmd_serve(const char* argv0, int argc, char** argv) {
  verify::ServeOptions sopts;
  std::chrono::milliseconds worker_timeout{0};
  cli::OptionSet set(
      "vmn serve <spec-file> [options]",
      "Serves verdicts over STATUS/VERDICT/RELOAD/STATS, watching the spec "
      "and re-verifying only what an edit changed.");
  add_engine_flags(set, sopts.engine, worker_timeout);
  set.add_string("--socket", "path",
                 "Unix socket to listen on (default <spec-file>.sock)",
                 &sopts.socket_path);
  set.add_value(
      "--port", "N", "loopback TCP port (0 = ephemeral)",
      [&sopts](const std::string& text, std::string& error) {
        long long port = 0;
        if (!cli::parse_int(text, 0, 65535, port)) {
          error = "wants a port number, got " + text;
          return false;
        }
        sopts.tcp_port = static_cast<int>(port);
        return true;
      });
  set.add_value(
      "--poll-interval", "ms", "edit-poll tick (default 500)",
      [&sopts](const std::string& text, std::string& error) {
        long long ms = 0;
        if (!cli::parse_int(text, 1, INT32_MAX, ms)) {
          error = "wants a positive millisecond count, got " + text;
          return false;
        }
        sopts.poll_interval = std::chrono::milliseconds(ms);
        return true;
      });
  std::vector<std::string> positionals;
  switch (set.parse(argc, argv, &positionals)) {
    case cli::OptionSet::Result::help: return kExitClean;
    case cli::OptionSet::Result::error: return kExitUsage;
    case cli::OptionSet::Result::ok: break;
  }
  if (!spec_operand(set, positionals, sopts.spec_path)) return kExitUsage;
  finish_engine_flags(sopts.engine, worker_timeout, argv0);
  if (sopts.socket_path.empty() && sopts.tcp_port < 0) {
    sopts.socket_path = sopts.spec_path + ".sock";
  }
  return verify::serve_main(sopts);
}

void print_fuzz_failures(const verify::FuzzReport& report) {
  for (const verify::FuzzFailure& f : report.failures) {
    std::fprintf(stderr, "FAIL seed=%llu oracle=%s: %s\n",
                 static_cast<unsigned long long>(f.seed), f.oracle.c_str(),
                 f.detail.c_str());
    if (f.shrunk_lines != 0) {
      std::fprintf(stderr, "  reproducer: %zu -> %zu lines%s%s\n",
                   f.original_lines, f.shrunk_lines,
                   f.reproducer_path.empty() ? "" : ", written to ",
                   f.reproducer_path.c_str());
    }
    if (f.reproducer_path.empty() && !f.reproducer.empty()) {
      std::fprintf(stderr, "%s", f.reproducer.c_str());
    }
  }
}

int cmd_fuzz(const char* argv0, int argc, char** argv) {
  verify::FuzzOptions fopts;
  fopts.jobs = 2;
  fopts.worker_command = self_worker_command(argv0);
  std::string replay_path;
  bool inject = false;
  cli::OptionSet set("vmn fuzz [options]",
                     "Differential fuzzing: random specs through the oracle "
                     "battery, failures shrunk to reproducers.");
  set.add_value("--seed", "S", "generator seed",
                [&fopts](const std::string& text, std::string& error) {
                  std::uint64_t s = 0;
                  if (!cli::parse_u64(text, s)) {
                    error = "wants a non-negative integer, got " + text;
                    return false;
                  }
                  fopts.seed = s;
                  return true;
                });
  set.add_value("--count", "N", "number of specs to generate",
                [&fopts](const std::string& text, std::string& error) {
                  long long n = 0;
                  if (!cli::parse_int(text, 1, INT32_MAX, n)) {
                    error = "wants a positive integer, got " + text;
                    return false;
                  }
                  fopts.count = static_cast<int>(n);
                  return true;
                });
  set.add_value("--jobs", "N", "parallel fuzzing jobs",
                [&fopts](const std::string& text, std::string& error) {
                  long long n = 0;
                  if (!cli::parse_int(text, 1, INT32_MAX, n)) {
                    error = "wants a positive integer, got " + text;
                    return false;
                  }
                  fopts.jobs = static_cast<std::size_t>(n);
                  return true;
                });
  set.add_value("--timeout", "ms", "per-solver-call timeout",
                [&fopts](const std::string& text, std::string& error) {
                  long long ms = 0;
                  if (!cli::parse_int(text, 1,
                                      static_cast<long long>(UINT32_MAX),
                                      ms)) {
                    error = "wants a positive millisecond count, got " + text;
                    return false;
                  }
                  fopts.solver.timeout_ms = static_cast<std::uint32_t>(ms);
                  return true;
                });
  set.add_string("--reproducer-dir", "dir",
                 "write shrunk reproducers here", &fopts.reproducer_dir);
  set.add_flag("--inject-fault", "broken-oracle shrinker self-test",
               &inject);
  set.add_flag("--faults", "add the fault-injection oracle",
               &fopts.fault_oracle);
  set.add_string("--replay", "file.vmn",
                 "re-run the battery on an existing spec", &replay_path);
  switch (set.parse(argc, argv)) {
    case cli::OptionSet::Result::help: return kExitClean;
    case cli::OptionSet::Result::error: return kExitUsage;
    case cli::OptionSet::Result::ok: break;
  }
  if (inject) {
    // The canned broken oracle: "fails" on any spec that still has a
    // middlebox, so the shrinker has something to chew down to.
    fopts.injected_fault = [](const io::Spec& s) {
      return !s.model.middleboxes().empty();
    };
  }

  if (!replay_path.empty()) {
    std::ifstream in(replay_path);
    if (!in) {
      std::fprintf(stderr, "cannot open spec file: %s\n", replay_path.c_str());
      return kExitUsage;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    verify::FuzzReport report;
    verify::check_spec_text(buf.str(), fopts.seed, fopts, report);
    print_fuzz_failures(report);
    std::printf("replay %s: %zu invariants, %zu witness replays "
                "(%zu realized, %zu advisory), %zu failure(s)\n",
                replay_path.c_str(), report.invariants, report.replays,
                report.replays_realized, report.replays_advisory,
                report.failures.size());
    return report.ok() ? 0 : 1;
  }

  const verify::FuzzReport report = verify::fuzz(fopts);
  print_fuzz_failures(report);
  std::printf(
      "fuzz: %d specs (seed %llu), %zu invariants, %zu witness replays "
      "(%zu realized, %zu advisory), %zu sim schedules, %zu failure(s)\n",
      report.specs, static_cast<unsigned long long>(fopts.seed),
      report.invariants, report.replays, report.replays_realized,
      report.replays_advisory, report.sim_schedules, report.failures.size());
  return report.ok() ? 0 : 1;
}

int cmd_audit(const io::Spec& spec) {
  const net::Network& net = spec.model.network();
  int findings = 0;
  for (std::size_t si = 0; si < net.scenarios().size(); ++si) {
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
    auto classes = dataplane::destination_classes(net, sid);
    dataplane::AuditReport report = dataplane::audit(net, sid, classes);
    for (const auto& loop : report.loops) {
      std::printf("LOOP      scenario=%s from=%s dst=%s\n",
                  net.scenarios()[si].name.c_str(),
                  net.name(loop.from_edge).c_str(),
                  loop.dst.to_string().c_str());
      ++findings;
    }
    for (const auto& bh : report.blackholes) {
      std::printf("BLACKHOLE scenario=%s from=%s dst=%s\n",
                  net.scenarios()[si].name.c_str(),
                  net.name(bh.from_edge).c_str(), bh.dst.to_string().c_str());
      ++findings;
    }
  }
  std::printf("%d finding(s)\n", findings);
  return findings == 0 ? 0 : 1;
}

int cmd_classes(int argc, char** argv) {
  // The classes `vmn verify` plans with: its option defaults, its budget
  // flag, and the same build_policy_classes call the Engine makes.
  verify::VerifyOptions options = verify::EngineOptions{}.verify;
  cli::OptionSet set("vmn classes <spec-file> [options]",
                     "Prints the policy classes `vmn verify` plans with.");
  add_max_failures_flag(set, options.max_failures);
  std::vector<std::string> positionals;
  switch (set.parse(argc, argv, &positionals)) {
    case cli::OptionSet::Result::help: return kExitClean;
    case cli::OptionSet::Result::error: return kExitUsage;
    case cli::OptionSet::Result::ok: break;
  }
  std::string spec_path;
  if (!spec_operand(set, positionals, spec_path)) return kExitUsage;
  const io::Spec spec = io::load_spec(spec_path);
  const net::Network& net = spec.model.network();
  verify::PlanContext ctx(net);
  const slice::PolicyClasses classes =
      verify::build_policy_classes(spec.model, options, ctx);
  for (std::size_t i = 0; i < classes.classes.size(); ++i) {
    std::printf("class %zu:", i);
    for (NodeId h : classes.classes[i]) {
      std::printf(" %s", net.name(h).c_str());
    }
    std::printf("\n");
  }
  return 0;
}

/// Keeps freed heap pages in the process, and faults the heap in 2 MiB
/// pages where the host offers transparent huge pages. Every Z3 context
/// allocates two 8.5 MB hash tables and writes every cell: glibc's default
/// policy serves each table by mmap and unmaps it on free, so every context
/// a run builds faulted in 16.8 MB afresh (about 4,400 minor faults, 17 ms
/// of kernel time in a fresh process). Served from the heap and never
/// trimmed, a later context reuses the pages its predecessor freed (about
/// 330 faults). With SolverSession freeing its old context before it
/// builds the next, `vmn verify examples/specs/enterprise.vmn` went from
/// 13.3k to about 5k minor faults and from a 48 MB to a 32 MB peak.
///
/// The first context's tables still cost 4 KB faults. So one allocation
/// under a raised M_TOP_PAD moves the break out by kHeapReserve of
/// untouched address space, which freed back into the top chunk stays
/// there (the trim threshold), and the 2 MiB-aligned part of the heap is
/// advised MADV_HUGEPAGE before anything touches it. Later brk growth
/// would land in a new, unadvised mapping; the reserve covers a run's
/// whole heap. That run then takes about 0.6k faults (1.6k at --batch
/// --jobs 2, dispatcher and workers summed, from 10.1k), and its peak
/// rises by 1-1.5 MB because the top of the used heap rounds up to a
/// 2 MiB page. A refused step (sanitizer runtimes stub mallopt out, a
/// failed sbrk leaves the break where it was) skips what follows, and a
/// host with THP set to `never` faults 4 KB pages: either way the process
/// runs as it did without the step, short only of those faults.
void keep_freed_pages() {
  constexpr int kMmapThreshold = 32 << 20;
  constexpr int kTrimThreshold = 1 << 30;
  constexpr int kHeapReserve = 96 << 20;
  constexpr int kDefaultTopPad = 128 << 10;
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  (void)mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  (void)mallopt(M_TRIM_THRESHOLD, kTrimThreshold);
  if (mallopt(M_TOP_PAD, kHeapReserve) != 1) return;
  // One byte more than the top chunk holds, so malloc must grow the heap;
  // the volatile store keeps the compiler from eliding the pair.
  const struct mallinfo2 before = mallinfo2();
  auto* const old_break = static_cast<char*>(sbrk(0));
  void* volatile grow = std::malloc(before.keepcost + 1);
  std::free(grow);
  (void)mallopt(M_TOP_PAD, kDefaultTopPad);
  auto* const new_break = static_cast<char*>(sbrk(0));
  const std::size_t arena = mallinfo2().arena;
  // Only a contiguous main arena that grew by the reserve names its start.
  if (new_break - old_break < kHeapReserve ||
      arena != before.arena + static_cast<std::size_t>(new_break - old_break)) {
    return;
  }
  const auto heap_start = reinterpret_cast<std::uintptr_t>(new_break) - arena;
  const std::uintptr_t first = (heap_start + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last =
      reinterpret_cast<std::uintptr_t>(new_break) & ~(kHugePage - 1);
  (void)madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
}

}  // namespace

int main(int argc, char** argv) {
  keep_freed_pages();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "worker") verify::wire::worker_process(stdin, stdout);
  try {
    if (cmd == "fuzz") return cmd_fuzz(argv[0], argc - 2, argv + 2);
    if (cmd == "verify") return cmd_verify(argv[0], argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argv[0], argc - 2, argv + 2);
    if (cmd == "classes") return cmd_classes(argc - 2, argv + 2);
    if (argc < 3) return usage();
    io::Spec spec = io::load_spec(argv[2]);
    if (cmd == "audit") return cmd_audit(spec);
    if (cmd == "dump") {
      std::printf("%s", io::write_spec_string(spec).c_str());
      return 0;
    }
    return usage();
  } catch (const vmn::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitUsage;
  }
}
