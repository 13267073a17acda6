// cli::OptionSet / strict-numeric tests: the shared parser every vmn
// subcommand declares its flags into. The interesting properties are the
// ones the old per-subcommand strcmp ladders got wrong: atoi-style
// "garbage parses as 0", silently wrapped negative counts, and missing
// values consuming the next flag.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/options.hpp"
#include "io/spec.hpp"
#include "scenarios/random.hpp"
#include "slice/policy.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"
#include "zoo_corpus.hpp"

namespace vmn::cli {
namespace {

/// parse() wants argv; build one from string literals (argv[0] = subcommand
/// name, skipped by callers via argc/argv arithmetic - here we pass the
/// option tokens only, as the subcommands do).
struct Argv {
  std::vector<std::string> store;
  std::vector<char*> ptrs;
  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    ptrs.reserve(store.size());
    for (std::string& s : store) ptrs.push_back(s.data());
  }
  [[nodiscard]] int argc() const { return static_cast<int>(ptrs.size()); }
  [[nodiscard]] char** argv() { return ptrs.data(); }
};

TEST(ParseInt, AcceptsWholeTokensInRange) {
  long long v = -1;
  EXPECT_TRUE(parse_int("0", 0, 100, v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(parse_int("100", 0, 100, v));
  EXPECT_EQ(v, 100);
  EXPECT_TRUE(parse_int("-3", -10, 10, v));
  EXPECT_EQ(v, -3);
}

TEST(ParseInt, RejectsJunkRangeAndPartialTokens) {
  long long v = 42;
  EXPECT_FALSE(parse_int("", 0, 100, v));
  EXPECT_FALSE(parse_int("abc", 0, 100, v));
  EXPECT_FALSE(parse_int("12abc", 0, 100, v));   // atoi would say 12
  EXPECT_FALSE(parse_int("1 2", 0, 100, v));
  EXPECT_FALSE(parse_int("101", 0, 100, v));     // out of range
  EXPECT_FALSE(parse_int("-1", 0, 100, v));
  EXPECT_FALSE(parse_int("99999999999999999999", 0, 100, v));  // overflows
  EXPECT_EQ(v, 42) << "failed parses must not touch the output";
}

TEST(ParseU64, RejectsNegativesStrtoullWouldWrap) {
  std::uint64_t v = 7;
  EXPECT_FALSE(parse_u64("-1", v));   // strtoull yields 2^64-1
  EXPECT_FALSE(parse_u64("-0", v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("0x10", v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, 18446744073709551615ull);
}

TEST(OptionSet, ParsesFlagsAndBothValueSpellings) {
  bool verbose = false;
  std::string out;
  OptionSet set("vmn test [options]", "test set");
  set.add_flag("--verbose", "talk more", &verbose);
  set.add_string("--out", "<path>", "output file", &out);

  Argv a({"--verbose", "--out", "a.txt"});
  EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::ok);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(out, "a.txt");

  Argv b({"--out=b.txt"});
  EXPECT_EQ(set.parse(b.argc(), b.argv()), OptionSet::Result::ok);
  EXPECT_EQ(out, "b.txt");
}

TEST(OptionSet, LaterOptionsOverrideEarlierOnes) {
  std::string out;
  OptionSet set("vmn test", "test set");
  set.add_string("--out", "<path>", "output file", &out);
  Argv a({"--out", "first", "--out=second"});
  EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::ok);
  EXPECT_EQ(out, "second");
}

TEST(OptionSet, ErrorsNameTheProblem) {
  bool flag = false;
  std::string out;
  OptionSet set("vmn test", "test set");
  set.add_flag("--flag", "a flag", &flag);
  set.add_string("--out", "<path>", "output file", &out);

  testing::internal::CaptureStderr();
  Argv unknown({"--bogus"});
  EXPECT_EQ(set.parse(unknown.argc(), unknown.argv()),
            OptionSet::Result::error);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--bogus"),
            std::string::npos);

  // A value option at end of argv must not invent an empty value.
  testing::internal::CaptureStderr();
  Argv missing({"--out"});
  EXPECT_EQ(set.parse(missing.argc(), missing.argv()),
            OptionSet::Result::error);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--out"),
            std::string::npos);

  // A flag given =value is an error, not silently ignored.
  testing::internal::CaptureStderr();
  Argv flagged({"--flag=yes"});
  EXPECT_EQ(set.parse(flagged.argc(), flagged.argv()),
            OptionSet::Result::error);
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(flag);
}

TEST(OptionSet, CrossFlagChecksRejectBadCombinationsInEitherOrder) {
  // The vmn verify regression: --no-symmetry with --cache-dir must be a
  // hard usage error (exit 3 at the CLI), whichever order the two flags
  // appear in - the check sees settled values, not parse order.
  auto make = [](bool& symmetry, std::string& cache_dir) {
    OptionSet set("vmn test", "test set");
    set.add_flag("--no-symmetry", "disable dedup", &symmetry, false);
    set.add_string("--cache-dir", "<dir>", "cache", &cache_dir);
    set.add_check([&symmetry, &cache_dir](std::string& error) {
      if (!cache_dir.empty() && !symmetry) {
        error = "--cache-dir cannot be combined with --no-symmetry";
        return false;
      }
      return true;
    });
    return set;
  };

  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--no-symmetry", "--cache-dir", "d"},
        std::vector<std::string>{"--cache-dir", "d", "--no-symmetry"}}) {
    bool symmetry = true;
    std::string cache_dir;
    OptionSet set = make(symmetry, cache_dir);
    testing::internal::CaptureStderr();
    Argv a(args);
    EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::error);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("--no-symmetry"),
              std::string::npos);
  }

  // Either flag alone parses cleanly.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"--no-symmetry"},
        std::vector<std::string>{"--cache-dir", "d"}}) {
    bool symmetry = true;
    std::string cache_dir;
    OptionSet set = make(symmetry, cache_dir);
    Argv a(args);
    EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::ok);
  }
}

TEST(OptionSet, RejectingApplyCallbackReportsTheOptionName) {
  OptionSet set("vmn test", "test set");
  set.add_value("--jobs", "<n>", "worker count",
                [](const std::string& text, std::string& error) {
                  long long n = 0;
                  if (!parse_int(text, 1, 64, n)) {
                    error = "want an integer in [1, 64]";
                    return false;
                  }
                  return true;
                });
  testing::internal::CaptureStderr();
  Argv a({"--jobs", "-2"});
  EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::error);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--jobs"), std::string::npos) << err;
}

TEST(OptionSet, HelpIsImplicitAndListsDeclaredOptions) {
  bool flag = false;
  OptionSet set("vmn test [options]", "one-line summary");
  set.add_flag("--flag", "a documented flag", &flag);

  const std::string usage = set.usage();
  EXPECT_NE(usage.find("vmn test [options]"), std::string::npos);
  EXPECT_NE(usage.find("--flag"), std::string::npos);
  EXPECT_NE(usage.find("a documented flag"), std::string::npos);

  testing::internal::CaptureStdout();
  Argv a({"--help"});
  EXPECT_EQ(set.parse(a.argc(), a.argv()), OptionSet::Result::help);
  EXPECT_NE(testing::internal::GetCapturedStdout().find("--flag"),
            std::string::npos);
  testing::internal::CaptureStdout();
  Argv b({"-h"});
  EXPECT_EQ(set.parse(b.argc(), b.argv()), OptionSet::Result::help);
  testing::internal::GetCapturedStdout();
}

TEST(OptionSet, PositionalsCollectedOnlyWhenRequested) {
  std::string out;
  OptionSet set("vmn test <file>", "test set");
  set.add_string("--out", "<path>", "output file", &out);

  std::vector<std::string> pos;
  Argv a({"spec.vmn", "--out", "x", "extra"});
  EXPECT_EQ(set.parse(a.argc(), a.argv(), &pos), OptionSet::Result::ok);
  EXPECT_EQ(pos, (std::vector<std::string>{"spec.vmn", "extra"}));

  testing::internal::CaptureStderr();
  Argv b({"spec.vmn"});
  EXPECT_EQ(set.parse(b.argc(), b.argv()), OptionSet::Result::error);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("spec.vmn"),
            std::string::npos);
}

// -- dedup report diagnostics ------------------------------------------------

TEST(DedupReport, Fig8MultitenantNamesTheFirewallAclCell) {
  // The `vmn verify --dedup-report` blocker list must name the exact
  // descriptor cell that refused a merge, not just "projection mismatch".
  // In the Fig 8 multitenant datacenter the vswitch firewalls' ACLs differ
  // in which /32 host entries cover the slice's VMs, so the blocker must
  // point into firewall.acl with a row and cell detail.
  io::Spec spec = io::load_spec(std::string(VMN_SOURCE_DIR) +
                                "/examples/specs/multitenant.vmn");
  verify::Engine engine(spec.model);
  std::string seen;
  bool found = false;
  for (const verify::MergeBlocker& b :
       verify::merge_blockers(spec.model, engine.plan(spec.invariants), 0)) {
    seen += b.box_type + ": " + b.reason + "\n";
    if (b.box_type == "firewall" &&
        b.reason.rfind("firewall.acl row", 0) == 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "blockers seen:\n" << seen;
}

// -- the batch summary -------------------------------------------------------

/// Runs `vmn <args>`, expecting exit 0; returns stdout.
std::string run_vmn(const std::string& args) {
  const std::string cmd = std::string(VMN_CLI) + " " + args;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "cannot run " << cmd;
    return "";
  }
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << cmd << "\n" << out;
  return out;
}

/// Runs `vmn verify` on the segmented spec with `flags`; returns stdout.
std::string run_verify(const std::string& flags) {
  return run_vmn("verify " + std::string(VMN_SOURCE_DIR) +
                 "/examples/specs/segmented.vmn " + flags);
}

TEST(VerifySummary, PrintsEverySchemaMetricOnEveryExecutor) {
  // `vmn verify` renders BatchResult::metrics() as one "  name: value" line
  // per metric, whichever executor ran; the serve STATS reply renders the
  // same list (tests/test_serve.cpp), so the two cannot drift apart.
  const std::vector<verify::Metric> schema = verify::BatchResult{}.metrics();
  ASSERT_FALSE(schema.empty());
  for (const std::string flags :
       {"", "--batch --jobs 2", "--batch --jobs 2 --backend=process"}) {
    const std::string out = run_verify(flags);
    for (const verify::Metric& m : schema) {
      EXPECT_NE(out.find("\n  " + std::string(m.name) + ": "),
                std::string::npos)
          << m.name << " missing with flags '" << flags << "':\n"
          << out;
    }
  }
}

TEST(VerifySummary, OnlyVerdictLinesReadAsVerdicts) {
  // A script reads a verdict from any unindented line holding a ')'
  // (descriptions end at their first one), so every summary line is
  // indented or has none.
  const std::string out = run_verify("--batch --jobs 2 --trace");
  std::size_t verdict_lines = 0;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == ' ' ||
        line.find(')') == std::string::npos) {
      continue;
    }
    ++verdict_lines;
    EXPECT_TRUE(line.find(" holds ") != std::string::npos ||
                line.find(" violated ") != std::string::npos ||
                line.find(" unknown ") != std::string::npos)
        << line;
  }
  io::Spec spec = io::load_spec(std::string(VMN_SOURCE_DIR) +
                                "/examples/specs/segmented.vmn");
  EXPECT_EQ(verdict_lines, spec.invariants.size()) << out;
}

// -- memory: the heap in huge pages -----------------------------------------

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

/// The transparent-huge-page mode the kernel selects ("always", "madvise"
/// or "never"), or "" where it offers none.
std::string thp_mode() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  std::getline(in, modes);
  const std::size_t open = modes.find('[');
  const std::size_t close = modes.find(']', open);
  if (open == std::string::npos || close == std::string::npos) return "";
  return modes.substr(open + 1, close - open - 1);
}

struct Usage {
  int status = -1;
  long max_rss_kb = 0;
  long minor_faults = 0;
};

/// Spawns `vmn <args>` with stdout discarded and reaps it with wait4, whose
/// rusage also counts every child the process reaped (--batch workers).
/// posix_spawn, not fork: a forked child's copy-on-write faults before exec
/// would count as vmn's.
Usage spawn_vmn(std::vector<std::string> args) {
  args.insert(args.begin(), VMN_CLI);
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  Usage u;
  if (rc != 0) return u;
  rusage ru{};
  if (wait4(pid, &u.status, 0, &ru) != pid) return u;
  u.max_rss_kb = ru.ru_maxrss;
  u.minor_faults = ru.ru_minflt;
  return u;
}

TEST(Cli, VerifyFaultsItsHeapInHugePages) {
  // Every Z3 context writes 16.8 MB of tables. vmn's main reserves its heap
  // top and advises it MADV_HUGEPAGE, so where the kernel offers huge pages
  // those tables fault in 2 MiB at a time: the enterprise spec takes ~0.6k
  // minor faults inline and ~1.6k at --batch --jobs 2, dispatcher and
  // workers summed (5.0k and 10.1k in 4 KB pages). tools/ci.sh smokes the
  // same bounds.
  if (kSanitized) GTEST_SKIP() << "sanitizer runtimes replace the allocator";
  const std::string mode = thp_mode();
  if (mode != "always" && mode != "madvise") {
    GTEST_SKIP() << "the kernel offers no transparent huge pages (mode '"
                 << mode << "')";
  }
  const std::string spec =
      std::string(VMN_SOURCE_DIR) + "/examples/specs/enterprise.vmn";
  const struct {
    const char* name;
    std::vector<std::string> args;
    long max_faults;
  } arms[] = {{"inline", {"verify", spec}, 2000},
              {"--batch --jobs 2",
               {"verify", spec, "--batch", "--jobs", "2"},
               4000}};
  for (const auto& arm : arms) {
    const Usage u = spawn_vmn(arm.args);
    ASSERT_TRUE(WIFEXITED(u.status) && WEXITSTATUS(u.status) == 0)
        << arm.name << ": wait status " << u.status;
    EXPECT_LE(u.minor_faults, arm.max_faults) << arm.name;
    EXPECT_LE(u.max_rss_kb, 40 * 1024) << arm.name;
  }
}

// -- vmn classes -------------------------------------------------------------

TEST(Classes, PrintsTheClassesVerifyPlansWith) {
  // zoo465 of the bench/e2e zoo-random corpus: under every failure
  // scenario its hosts form four classes, but `vmn verify` plans at its
  // default budget of 0, where they form three. `vmn classes` prints the
  // classes verify plans with, and takes verify's --max-failures.
  const scenarios::RandomSpec zoo =
      scenarios::make_random_spec(test::zoo_params(465));
  const std::string path = testing::TempDir() + "zoo465.vmn";
  std::ofstream(path) << zoo.text;
  const io::Spec spec = io::load_spec(path);
  const auto expected = [&](int max_failures) {
    verify::VerifyOptions options;
    options.max_failures = max_failures;
    verify::PlanContext ctx(spec.model.network());
    const slice::PolicyClasses classes =
        verify::build_policy_classes(spec.model, options, ctx);
    std::string out;
    for (std::size_t i = 0; i < classes.count(); ++i) {
      out += "class " + std::to_string(i) + ":";
      for (NodeId h : classes.classes[i]) {
        out += " " + spec.model.network().name(h);
      }
      out += "\n";
    }
    return std::pair{classes.count(), out};
  };
  const auto [planned, planned_text] = expected(0);
  EXPECT_EQ(planned, 3u);
  EXPECT_EQ(run_vmn("classes " + path), planned_text);
  // Budget 1 covers every scenario of zoo465.
  ASSERT_EQ(scenarios::derived_max_failures(spec.model), 1);
  const auto [every, every_text] = expected(1);
  EXPECT_EQ(every, 4u);
  EXPECT_EQ(run_vmn("classes " + path + " --max-failures 1"), every_text);
}

}  // namespace
}  // namespace vmn::cli
