// bench_e2e - the end-to-end benchmark of the vmn binary.
//
//   bench_e2e --workload <name> --vmn <path-to-vmn> [--seed N] [--seconds S]
//             [--trace 0|1] [--work DIR] [--golden FILE]
//             [--write-golden FILE] [--smoke]
//
// One process, one client thread, closed loop: the next request goes out
// when the previous one has completed. --trace 0 measures the end-to-end
// metrics through the real binary (fork/exec of `vmn verify`, or a
// `vmn serve` daemon over its Unix socket): a set-up phase, a 2 s untimed
// warm-up, then --seconds of timed requests. --trace 1 runs the traced
// in-process replay instead (traced.hpp) and reports the per-layer
// metrics. Every verdict met is checked; the last stdout line is the JSON
// result, and the exit status is 1 when any verdict was wrong. --golden is
// the workload's golden file (workloads.hpp): zoo-random's corpus, and for
// the others the listing a seed-1 run checks its expectations against.
// --write-golden FILE writes that file from the reference run instead of
// measuring. bench/e2e/README.md describes the workloads and metrics.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "calibration.hpp"
#include "client.hpp"
#include "core/hash.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace vmn;
using namespace vmn::bench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::string vmn;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work = ".bench_build/e2e-work";
  std::string golden;
  std::string write_golden;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload <name> --vmn "
               "<path> [--seed N] [--seconds S] [--trace 0|1] [--work DIR] "
               "[--golden FILE] [--write-golden FILE] [--smoke]\n",
               why.c_str());
  std::exit(3);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(flag + " wants a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--vmn") {
      a.vmn = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (a.seconds <= 0) usage("--seconds wants a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--work") {
      a.work = value;
    } else if (flag == "--golden") {
      a.golden = value;
    } else if (flag == "--write-golden") {
      a.write_golden = value;
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage(flag + " wants a number");
  }
  if (a.workload.empty() || a.vmn.empty()) {
    usage("--workload and --vmn are required");
  }
  return a;
}

/// `path` made absolute against the current directory.
std::string absolute(const std::string& path) {
  if (path.empty() || path[0] == '/') return path;
  char cwd[PATH_MAX];
  if (getcwd(cwd, sizeof cwd) == nullptr) throw Error("getcwd failed");
  return std::string(cwd) + "/" + path;
}

void make_dirs(const std::string& path) {
  for (std::size_t at = path.find('/', 1);; at = path.find('/', at + 1)) {
    const std::string prefix = path.substr(0, at);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw Error("cannot create " + prefix + ": " + std::strerror(errno));
    }
    if (at == std::string::npos) return;
  }
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

/// What a run measured, before calibration scaling.
struct EndToEnd {
  std::vector<double> latency_ms;  ///< per request
  double invariants = 0;           ///< verified by the timed requests
  double cpu_ms = 0;               ///< spent on them
  double rss_mb = 0;
  std::vector<double> setup_s;
  std::vector<double> calibration_ms;  ///< kernel runs between requests

  /// Runs the calibration kernel if 200 ms have passed since it last ran:
  /// often enough to follow drift, rarely enough to cost ~10% of the phase.
  void calibrate_if_due() {
    if (Clock::now() - last_calibration < std::chrono::milliseconds(200)) {
      return;
    }
    calibration_ms.push_back(vmn::bench::calibration_ms());
    last_calibration = Clock::now();
  }
  Clock::time_point last_calibration{};
};

/// The end-to-end metrics: every timing scaled to the reference kernel
/// time (calibration.hpp), peak RSS as measured.
Metrics end_to_end_metrics(const EndToEnd& e) {
  const double kernel_ms = percentile(e.calibration_ms, 50);
  const double scale = ratio(kReferenceMs, kernel_ms);
  std::printf("calibration kernel: median %.3f ms over %zu runs; timings "
              "scaled by %.4f (raw verify_ms p50 %.3f, setup_s %.4f)\n",
              kernel_ms, e.calibration_ms.size(), scale,
              percentile(e.latency_ms, 50), percentile(e.setup_s, 50));
  Metrics m;
  m.add("verify_ms.p50", percentile(e.latency_ms, 50) * scale, "ms");
  m.add("verify_ms.p90", percentile(e.latency_ms, 90) * scale, "ms");
  m.add("invariants_per_s",
        ratio(e.invariants, sum(e.latency_ms) * scale / 1000.0), "1/s");
  m.add("cpu_ms_per_invariant", ratio(e.cpu_ms * scale, e.invariants), "ms");
  m.add("peak_rss_mb", e.rss_mb, "MB");
  m.add("setup_s", percentile(e.setup_s, 50) * scale, "s");
  return m;
}

// ---------------------------------------------------------------------------
// One-shot workloads: fork/exec `vmn verify` per request.

struct OneShotSample {
  std::size_t spec = 0;
  ProcessRun run;
  std::vector<verify::Outcome> verdicts;
};

OneShotSample verify_once(const Args& a, const Workload& w, std::size_t spec,
                          const std::string& path) {
  std::vector<std::string> argv = {a.vmn, "verify", path, "--max-failures",
                                   std::to_string(w.specs[spec].max_failures)};
  for (const std::string& flag : w.engine_args()) argv.push_back(flag);
  OneShotSample s;
  s.spec = spec;
  s.run = run_process(argv);
  s.verdicts = parse_verify_output(s.run.out);
  s.run.out.clear();
  return s;
}

EndToEnd one_shot(const Args& a, const Workload& w, Tally& tally) {
  for (const SpecCase& c : w.specs) {
    stage_file(c.name + ".vmn", c.text);
    commit_file(c.name + ".vmn");
  }
  // Set-up: a cold `vmn verify` of specs[0] from a fresh directory,
  // kSetups times. One-shot runs keep no state between processes today; a
  // change that did (say, a default on-disk cache) would pay for it here.
  EndToEnd e;
  std::vector<OneShotSample> all;
  for (int k = 0; k < (a.smoke ? 2 : kSetups); ++k) {
    const std::string dir = "setup" + std::to_string(k);
    make_dirs(dir);
    const std::string path = dir + "/" + w.specs[0].name + ".vmn";
    stage_file(path, w.specs[0].text);
    commit_file(path);
    all.push_back(verify_once(a, w, 0, path));
    e.setup_s.push_back(all.back().run.wall_ms / 1000.0);
    e.calibrate_if_due();
  }
  auto closed_loop = [&](double seconds, std::vector<OneShotSample>& out,
                         bool timed) {
    const auto start = Clock::now();
    for (std::size_t i = 0; seconds_since(start) < seconds; ++i) {
      const std::size_t spec = i % w.specs.size();
      out.push_back(verify_once(a, w, spec, w.specs[spec].name + ".vmn"));
      if (timed) e.calibrate_if_due();
    }
  };
  closed_loop(a.smoke ? 0.2 : 2.0, all, false);
  std::vector<OneShotSample> timed;
  closed_loop(a.seconds, timed, true);

  for (const auto* samples : {&all, &timed}) {
    for (const OneShotSample& s : *samples) {
      tally.verdicts(w.specs[s.spec].expected, s.verdicts);
      if (s.run.exit_code != 0) ++tally.failed;
    }
  }
  std::vector<double> rss;
  for (const OneShotSample& s : timed) {
    e.latency_ms.push_back(s.run.wall_ms);
    rss.push_back(s.run.maxrss_mb);
    e.invariants += static_cast<double>(w.specs[s.spec].expected.size());
    e.cpu_ms += s.run.cpu_ms;
  }
  e.rss_mb = percentile(rss, 50);
  std::printf("%s: %zu timed runs over %zu distinct specs, %.0f invariants\n",
              w.name.c_str(), timed.size(),
              std::min(timed.size(), w.specs.size()), e.invariants);
  return e;
}

// ---------------------------------------------------------------------------
// serve-edit: one daemon, edits and queries over its socket.

EndToEnd serve_edit(const Args& a, const Workload& w, Tally& tally) {
  const std::string spec_path = "serve.vmn";
  const std::string socket_path = "serve.sock";
  const SpecCase& initial = w.specs[w.initial_spec];
  std::size_t holds = 0;
  for (verify::Outcome o : initial.expected) {
    if (o == verify::Outcome::holds) ++holds;
  }
  const std::string want_status =
      "OK generation=1 invariants=" + std::to_string(initial.expected.size()) +
      " holds=" + std::to_string(holds) +
      " violated=" + std::to_string(initial.expected.size() - holds) +
      " unknown=0 degraded=0 ";

  // Set-up: spawn -> first STATUS OK (parse + full initial verification),
  // kSetups times; the last daemon serves the run.
  EndToEnd e;
  LineClient client;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < (a.smoke ? 2 : kSetups); ++k) {
    if (daemon && daemon->stop().exit_code != 0) ++tally.failed;
    client.close();
    stage_file(spec_path, initial.text);
    commit_file(spec_path);
    const auto start = Clock::now();
    daemon = start_serve(a.vmn, spec_path, socket_path, client);
    const std::string status = client.request("STATUS");
    e.setup_s.push_back(seconds_since(start));
    tally.attempted += initial.expected.size();
    if (status.rfind(want_status, 0) != 0) {
      tally.failed += initial.expected.size();
    }
    e.calibrate_if_due();
  }

  std::uint64_t generation = 1;
  std::size_t cycle = 0;
  std::vector<double> query_us;
  auto run_cycles = [&](double seconds, bool timed) {
    const auto start = Clock::now();
    while (seconds_since(start) < seconds) {
      const ServeCycle& c = w.cycles[cycle++ % w.cycles.size()];
      const SpecCase& spec = w.specs[c.spec];
      stage_file(spec_path, spec.text);
      const auto edit = Clock::now();
      commit_file(spec_path);
      // inotify or our RELOAD, whichever the daemon handles first, applies
      // the edit; the reply names the generation either way.
      const std::string reply = client.request("RELOAD");
      if (timed) e.latency_ms.push_back(seconds_since(edit) * 1000.0);
      ++tally.attempted;
      if (reload_generation(reply) != ++generation) ++tally.failed;
      for (std::size_t q : c.queries) {
        const auto asked = Clock::now();
        const std::string answer =
            client.request("VERDICT " + std::to_string(q));
        if (timed) query_us.push_back(seconds_since(asked) * 1e6);
        ++tally.attempted;
        if (reply_verdict(answer) != verify::to_string(spec.expected[q])) {
          ++tally.failed;
        }
      }
      if (timed) e.calibrate_if_due();
    }
  };
  run_cycles(a.smoke ? 0.2 : 2.0, false);
  const double cpu0 = daemon->cpu_ms();
  run_cycles(a.seconds, true);
  e.cpu_ms = daemon->cpu_ms() - cpu0;
  client.close();
  const ProcessRun exit = daemon->stop();
  if (exit.exit_code != 0) ++tally.failed;
  e.rss_mb = exit.maxrss_mb;
  e.invariants =
      static_cast<double>(e.latency_ms.size() * initial.expected.size());
  std::printf("%s: %zu timed reloads, %zu queries; raw query_us p50 %.1f "
              "p90 %.1f\n",
              w.name.c_str(), e.latency_ms.size(), query_us.size(),
              percentile(query_us, 50), percentile(query_us, 90));
  return e;
}

// ---------------------------------------------------------------------------

/// Specs whose text or expected verdicts differ from their golden entry.
std::size_t golden_mismatches(const Workload& w,
                              const std::vector<GoldenEntry>& golden) {
  std::size_t bad = 0;
  for (const SpecCase& c : w.specs) {
    for (const GoldenEntry& e : golden) {
      if (e.name == c.name &&
          (e.digest != fnv1a64(c.text) || e.verdicts != c.expected)) {
        std::fprintf(stderr, "%s differs from its golden entry\n",
                     c.name.c_str());
        ++bad;
      }
    }
  }
  return bad;
}

int run(const Args& args) {
  Args a = args;
  a.vmn = absolute(a.vmn);
  const std::string dir = absolute(a.work) + "/" + a.workload;
  const std::string spans =
      dir + "/spans-" + std::to_string(a.seed) + ".jsonl";
  if (!a.write_golden.empty()) {
    std::ofstream out(a.write_golden);
    out << golden_listing(golden_workload(a.workload, a.seed));
    return out ? 0 : 2;
  }
  std::vector<GoldenEntry> golden;
  if (!a.golden.empty()) {
    std::ifstream in(a.golden);
    golden = parse_golden(in);
  }
  Workload w = make_workload(a.workload, a.seed, a.smoke, golden);
  // Spec files and the daemon socket live in the workload's directory;
  // relative paths keep the socket path short wherever the checkout is.
  make_dirs(dir);
  if (::chdir(dir.c_str()) != 0) throw Error("cannot enter " + dir);

  Tally tally;
  Metrics m;
  if (a.trace) {
    m = traced_pass(w, {a.vmn, spans}, tally);
  } else {
    m = end_to_end_metrics(w.serve ? serve_edit(a, w, tally)
                                   : one_shot(a, w, tally));
  }
  if (a.seed == 1 && !a.smoke) tally.failed += golden_mismatches(w, golden);

  std::printf("workload %s, seed %llu, %s:\n", w.name.c_str(),
              static_cast<unsigned long long>(a.seed),
              a.trace ? "traced pass" : "end to end");
  m.print_table(stdout);
  std::printf("verdicts: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), m.json().c_str());
  std::fflush(stdout);
  return tally.failed == 0 && tally.attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
