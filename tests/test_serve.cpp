// Serve-daemon tests, driven through ServeState - the socket-free protocol
// core the Server event loop wraps - so every assertion runs in-process:
//  - verdict parity: the daemon's VERDICT answers equal a one-shot
//    verify::Engine run on the same spec text, across all five scenario
//    generators and across sequential / thread-pool / process-pool engines;
//  - incremental reload: an edit confined to one segment of segmented.vmn
//    re-solves only the slices whose canonical keys changed (cache hits for
//    the untouched segment, counter-asserted) and retires exactly the
//    orphaned records;
//  - warm-across-requests: an invariant-only edit answers every previously
//    solved job from the live cache and solves just the new one;
//  - protocol robustness: malformed lines answer ERR and the daemon keeps
//    serving; a broken save keeps the old generation live.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "io/spec.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "verify/engine.hpp"
#include "verify/serve.hpp"

namespace vmn::verify {
namespace {

/// mkdtemp-backed directory for the served spec file, removed on exit.
struct TempSpecDir {
  std::string path;
  TempSpecDir() {
    char tmpl[] = "/tmp/vmn-test-serve-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    } else {
      path = tmpl;
    }
  }
  ~TempSpecDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// nth whitespace-separated token of a protocol response (0-based).
std::string token(const std::string& line, std::size_t n) {
  std::istringstream in(line);
  std::string t;
  for (std::size_t i = 0; i <= n; ++i) {
    if (!(in >> t)) return "";
  }
  return t;
}

EngineOptions sequential_opts() {
  EngineOptions e;
  e.verify.solver.seed = 7;
  return e;
}

EngineOptions pooled_opts(Backend backend) {
  EngineOptions e = sequential_opts();
  e.batch = true;
  e.jobs = 2;
  e.backend = backend;
  // Empty worker_command: process workers fork into wire::worker_main, so
  // the test needs no external binary.
  return e;
}

/// Starts a daemon on `text` and checks every VERDICT answer against a
/// one-shot Engine run on the same text under the same options.
void expect_parity(const std::string& generator, const std::string& text,
                   const EngineOptions& eopts) {
  SCOPED_TRACE(generator);
  TempSpecDir dir;
  const std::string path = dir.path + "/spec.vmn";
  write_file(path, text);

  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = eopts;
  ServeState state(sopts);

  io::Spec spec = io::parse_spec_string(text);
  ASSERT_FALSE(spec.invariants.empty());
  Engine oracle(spec.model, eopts);
  const BatchResult ref = oracle.run_batch(spec.invariants);

  ASSERT_EQ(state.last_batch().results.size(), ref.results.size());
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    const std::string resp =
        state.handle_line("VERDICT " + std::to_string(i));
    ASSERT_EQ(token(resp, 0), "OK") << resp;
    EXPECT_EQ(token(resp, 1), to_string(ref.results[i].outcome)) << resp;
  }
  const std::string status = state.handle_line("STATUS");
  EXPECT_EQ(token(status, 0), "OK") << status;
}

std::string datacenter_text() {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = make_datacenter(p);
  io::Spec spec;
  spec.invariants = dc.batch().invariants;
  spec.model = std::move(dc.model);
  return io::write_spec_string(spec);
}

std::string enterprise_text() {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = make_enterprise(p);
  io::Spec spec;
  spec.invariants = e.invariants;
  spec.model = std::move(e.model);
  return io::write_spec_string(spec);
}

std::string isp_text() {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.hosts_per_subnet = 1;
  scenarios::Isp isp = make_isp(p);
  io::Spec spec;
  spec.invariants = isp.batch().invariants;
  spec.model = std::move(isp.model);
  return io::write_spec_string(spec);
}

std::string multitenant_text() {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = make_multitenant(p);
  io::Spec spec;
  spec.invariants = mt.batch().invariants;
  spec.model = std::move(mt.model);
  return io::write_spec_string(spec);
}

std::string random_text() {
  scenarios::RandomSpecParams p;
  p.seed = 5;
  return scenarios::make_random_spec(p).text;
}

TEST(ServeParity, MatchesOneShotAcrossAllFiveGenerators) {
  const EngineOptions eopts = sequential_opts();
  expect_parity("datacenter", datacenter_text(), eopts);
  expect_parity("enterprise", enterprise_text(), eopts);
  expect_parity("isp", isp_text(), eopts);
  expect_parity("multitenant", multitenant_text(), eopts);
  expect_parity("random", random_text(), eopts);
}

TEST(ServeParity, MatchesOneShotOnBothPoolBackends) {
  const std::string text = enterprise_text();
  expect_parity("enterprise/thread", text, pooled_opts(Backend::thread));
  expect_parity("enterprise/process", text, pooled_opts(Backend::process));
}

std::string segmented_path() {
  return std::string(VMN_SOURCE_DIR) + "/examples/specs/segmented.vmn";
}

/// segmented.vmn with segment 1's IDPS flipped to monitor mode: its policy
/// projection (and with it that segment's canonical keys) changes; segment
/// 0 is untouched.
std::string idps1_monitor_edit(std::string text) {
  const std::string from = "idps idps1\n";
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) text.replace(at, from.size(), "idps idps1 monitor\n");
  return text;
}

/// segmented.vmn with every host, middlebox and switch renamed AND both
/// segments moved to new subnets: not one byte of node identity survives.
std::string pure_rename_edit(std::string renamed) {
  auto replace_all = [&renamed](const std::string& from,
                                const std::string& to) {
    for (std::size_t pos = renamed.find(from); pos != std::string::npos;
         pos = renamed.find(from, pos + to.size())) {
      renamed.replace(pos, from.size(), to);
    }
  };
  // Addresses first (name tokens never contain dots, so the two passes
  // cannot interfere), then every node name.
  replace_all("10.0.", "10.4.");
  replace_all("10.1.", "10.5.");
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"srv0", "edge0"},   {"srv1", "edge1"},   {"h0-0", "peer-a"},
           {"h0-1", "peer-b"},  {"h1-0", "peer-c"},  {"h1-1", "peer-d"},
           {"idps0", "watch0"}, {"idps1", "watch1"}, {"s0a", "t4a"},
           {"s0b", "t4b"},      {"s1a", "t5a"},      {"s1b", "t5b"}}) {
    replace_all(from, to);
  }
  // The traversal invariants select middleboxes by name prefix; a pure
  // rename renames the prefix with the boxes ("idps watch0" keeps the
  // middlebox TYPE keyword "idps", which stays).
  replace_all(" idps expect", " watch expect");
  return renamed;
}

/// segmented.vmn with one more check appended: no model content changes.
std::string invariant_only_edit(const std::string& text) {
  return text + "invariant reachable srv1 h1-0\n";
}

/// The acceptance scenario: a config edit confined to segment 1 of
/// segmented.vmn. Segment 0's slices keep their canonical keys (the global
/// policy-class partition is undisturbed - both idps configs stay unique),
/// so the reload answers them from the live cache and re-solves only
/// segment 1, retiring exactly the orphaned records.
void expect_incremental_segment_edit(const EngineOptions& eopts) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  const std::string original = read_file(segmented_path());
  ASSERT_NE(original.find("idps idps1\n"), std::string::npos);
  write_file(path, original);

  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = eopts;
  ServeState state(sopts);
  EXPECT_EQ(state.stats().generation, 1u);
  const BatchResult& cold = state.last_batch();
  const std::size_t cold_jobs = cold.pool.jobs_executed;
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.solver_calls, 0u);

  const std::string edited = idps1_monitor_edit(original);
  write_file(path, edited);
  ASSERT_TRUE(state.check_for_edit());
  EXPECT_EQ(state.stats().generation, 2u);
  EXPECT_EQ(state.stats().reloads, 1u);

  // Counter-asserted partial re-verification: some jobs hit the cache
  // (segment 0), some re-solve (segment 1), none are double-counted, and
  // the flush retired the orphaned segment-1 records.
  const BatchResult& warm = state.last_batch();
  EXPECT_EQ(warm.pool.jobs_executed, cold_jobs);
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_GT(warm.solver_calls, 0u);
  // Only a strict subset of the jobs re-solves (segment 1); the rest answer
  // from the record-granular cache. The cold run dedups symmetric slices
  // itself, so compare against the job count, not cold solver_calls.
  EXPECT_LT(warm.solver_calls, warm.pool.jobs_executed);
  EXPECT_LE(warm.solver_calls, cold.solver_calls);
  EXPECT_EQ(warm.cache_hits + warm.cache_misses, warm.pool.jobs_executed);
  EXPECT_GT(warm.degradation.cache_records_dropped, 0u);

  // Verdict parity with a cold one-shot on the edited text.
  io::Spec spec = io::parse_spec_string(edited);
  Engine oracle(spec.model, eopts);
  const BatchResult ref = oracle.run_batch(spec.invariants);
  ASSERT_EQ(warm.results.size(), ref.results.size());
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    EXPECT_EQ(warm.results[i].outcome, ref.results[i].outcome) << i;
  }
}

TEST(ServeIncremental, SegmentEditReplansOnlyChangedKeysSequential) {
  expect_incremental_segment_edit(sequential_opts());
}

TEST(ServeIncremental, SegmentEditReplansOnlyChangedKeysThreadPool) {
  expect_incremental_segment_edit(pooled_opts(Backend::thread));
}

TEST(ServeIncremental, SegmentEditReplansOnlyChangedKeysProcessPool) {
  expect_incremental_segment_edit(pooled_opts(Backend::process));
}

TEST(ServeIncremental, InvariantOnlyEditAnswersOldJobsFromCache) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  const std::string original = read_file(segmented_path());
  write_file(path, original);

  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);
  const std::size_t cold_jobs = state.last_batch().pool.jobs_executed;
  ASSERT_GT(cold_jobs, 0u);

  // Appending a check changes no model content: every previously solved
  // job hits the warm cache, only the new invariant's job solves.
  write_file(path, invariant_only_edit(original));
  ASSERT_TRUE(state.check_for_edit());
  const BatchResult& warm = state.last_batch();
  EXPECT_EQ(warm.pool.jobs_executed, cold_jobs + 1);
  EXPECT_EQ(warm.cache_hits, cold_jobs);
  EXPECT_EQ(warm.solver_calls, 1u);
  // Nothing was orphaned: the model fingerprint did not change.
  EXPECT_EQ(warm.degradation.cache_records_dropped, 0u);
  EXPECT_EQ(state.stats().batches, 2u);
  EXPECT_EQ(state.stats().reloads, 1u);
}

TEST(ServeIncremental, PureRenameReloadAnswersEntirelyFromCache) {
  // Rename every host, middlebox and switch AND move both segments to new
  // subnets: not one byte of node identity survives, but the v6 problem
  // keys are name-blind and address-token-canonical, so the reload must
  // answer every job from the cache with ZERO solver calls.
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  const std::string original = read_file(segmented_path());
  write_file(path, original);

  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);
  const BatchResult& cold = state.last_batch();
  const std::size_t cold_jobs = cold.pool.jobs_executed;
  ASSERT_GT(cold_jobs, 0u);
  std::vector<Outcome> cold_outcomes;
  for (const auto& r : cold.results) cold_outcomes.push_back(r.outcome);

  const std::string renamed = pure_rename_edit(original);
  ASSERT_EQ(renamed.find("srv0"), std::string::npos);
  ASSERT_EQ(renamed.find("10.0."), std::string::npos);

  write_file(path, renamed);
  ASSERT_TRUE(state.check_for_edit());
  EXPECT_EQ(state.stats().reloads, 1u);
  const BatchResult& warm = state.last_batch();
  EXPECT_EQ(warm.pool.jobs_executed, cold_jobs);
  EXPECT_EQ(warm.solver_calls, 0u);
  EXPECT_EQ(warm.cache_hits, warm.pool.jobs_executed);
  EXPECT_EQ(warm.cache_misses, 0u);
  ASSERT_EQ(warm.results.size(), cold_outcomes.size());
  for (std::size_t i = 0; i < cold_outcomes.size(); ++i) {
    EXPECT_EQ(warm.results[i].outcome, cold_outcomes[i]) << i;
  }
}

TEST(ServeIncremental, SwappingEqualRankRoutesReplans) {
  // Two routes to b's address tie on rank, and the first one added wins:
  // swapping them sends b's traffic to c. The canonical rendering keeps
  // that order, so the reload re-plans, and every verdict - the warm
  // result cache's included - equals a cold Engine's on the swapped spec.
  const std::string head =
      "host a 10.0.0.1\nhost b 10.0.0.2\nhost c 10.0.0.3\nswitch s\n"
      "link a s\nlink b s\nlink c s\n"
      "route s 10.0.0.1 a\nroute s 10.0.0.3 c\n";
  const std::string tail =
      "invariant reachable b a\ninvariant reachable c a\n"
      "invariant node-isolation b a\n";
  const std::string before =
      head + "route s 10.0.0.2 b\nroute s 10.0.0.2 c\n" + tail;
  const std::string after =
      head + "route s 10.0.0.2 c\nroute s 10.0.0.2 b\n" + tail;
  EXPECT_TRUE(io::diff_specs(io::parse_spec_string(before),
                             io::parse_spec_string(after))
                  .model_changed);
  // Declaration order still carries no meaning.
  const std::string reordered =
      "host c 10.0.0.3\nhost b 10.0.0.2\nhost a 10.0.0.1\n" +
      before.substr(before.find("switch s"));
  EXPECT_TRUE(io::diff_specs(io::parse_spec_string(before),
                             io::parse_spec_string(reordered))
                  .empty());

  TempSpecDir dir;
  const std::string path = dir.path + "/ties.vmn";
  write_file(path, before);
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);
  ASSERT_EQ(token(state.handle_line("VERDICT 0"), 1), "holds");

  for (const std::string* text : {&after, &before, &after}) {
    write_file(path, *text);
    const std::string reply = state.handle_line("RELOAD");
    EXPECT_EQ(reply.rfind("OK reloaded", 0), 0u) << reply;
    io::Spec spec = io::parse_spec_string(*text);
    Engine cold(spec.model, sequential_opts());
    const BatchResult ref = cold.run_batch(spec.invariants);
    ASSERT_EQ(state.last_batch().results.size(), ref.results.size());
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
      const std::string resp =
          state.handle_line("VERDICT " + std::to_string(i));
      EXPECT_EQ(token(resp, 1), to_string(ref.results[i].outcome))
          << (text == &after ? "swapped" : "restored") << ": " << resp;
    }
  }
  // The swapped spec's reachable(b, a) does not hold: b's address now
  // leads to c.
  EXPECT_EQ(token(state.handle_line("VERDICT 0"), 1), "violated");
}

TEST(ServeProtocol, VerdictByIndexAndByDescriptionAgree) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  const std::string by_index = state.handle_line("VERDICT 0");
  ASSERT_EQ(token(by_index, 0), "OK") << by_index;
  // The response names the invariant: `invariant="<description>"`. Asking
  // by that exact description must answer identically.
  const std::size_t open = by_index.find("invariant=\"");
  ASSERT_NE(open, std::string::npos) << by_index;
  const std::size_t start = open + std::string("invariant=\"").size();
  const std::size_t close = by_index.find('"', start);
  ASSERT_NE(close, std::string::npos) << by_index;
  const std::string description = by_index.substr(start, close - start);
  EXPECT_EQ(state.handle_line("VERDICT \"" + description + "\""), by_index);
  EXPECT_EQ(state.handle_line("VERDICT " + description), by_index);
}

TEST(ServeProtocol, MalformedLinesAnswerErrWithoutKillingTheDaemon) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  const std::vector<std::string> bad = {
      "",
      "   ",
      "BOGUS",
      "VERDICT",
      "VERDICT 99",
      "VERDICT 99999999999999999999",
      "VERDICT -1",
      "VERDICT no-such-invariant",
      "STATUS extra-operand",
      "RELOAD now please",
      "\x01\x02 binary junk",
  };
  for (const std::string& line : bad) {
    const std::string resp = state.handle_line(line);
    EXPECT_EQ(resp.rfind("ERR", 0), 0u) << "line '" << line << "' -> " << resp;
    EXPECT_EQ(resp.find("internal"), std::string::npos)
        << "line '" << line << "' -> " << resp;
  }
  // Still serving.
  EXPECT_EQ(token(state.handle_line("STATUS"), 0), "OK");
  EXPECT_EQ(token(state.handle_line("VERDICT 0"), 0), "OK");
  EXPECT_EQ(state.stats().requests, bad.size() + 2);
}

TEST(ServeProtocol, BrokenSaveKeepsTheOldGenerationServing) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  const std::string original = read_file(segmented_path());
  write_file(path, original);
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  write_file(path, "host h 10.0.0.1\nroute nonsense\n");
  EXPECT_FALSE(state.check_for_edit());
  EXPECT_EQ(state.stats().generation, 1u);
  EXPECT_EQ(state.stats().parse_errors, 1u);
  EXPECT_FALSE(state.last_error().empty());
  // A broken save is parsed once, not per tick.
  EXPECT_FALSE(state.check_for_edit());
  EXPECT_EQ(state.stats().parse_errors, 1u);
  // The old generation still answers, and STATUS surfaces the error.
  EXPECT_EQ(token(state.handle_line("VERDICT 0"), 0), "OK");
  EXPECT_NE(state.handle_line("STATUS").find("last_error="),
            std::string::npos);

  // Restoring good content (here: the identical original) is a no-op
  // reload - same canonical spec, generation stays.
  write_file(path, original);
  EXPECT_FALSE(state.check_for_edit());
  EXPECT_EQ(state.stats().generation, 1u);
  EXPECT_TRUE(state.last_error().empty());
  // Formatting-only edits (a trailing comment) count as noop_edits.
  write_file(path, original + "# trailing comment\n");
  EXPECT_FALSE(state.check_for_edit());
  EXPECT_EQ(state.stats().noop_edits, 1u);
  EXPECT_EQ(state.stats().generation, 1u);
}

TEST(ServeProtocol, StatsReportsUnifiedCountersAsJson) {
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  const std::string resp = state.handle_line("STATS");
  ASSERT_EQ(resp.rfind("OK {", 0), 0u) << resp;
  EXPECT_EQ(resp.back(), '}');
  for (const char* key :
       {"\"generation\"", "\"invariants\"", "\"batch\"", "\"jobs_executed\"",
        "\"solver_calls\"", "\"cache_hits\"", "\"warm_binds\"",
        "\"lifetime\"", "\"reloads\""}) {
    EXPECT_NE(resp.find(key), std::string::npos) << key << " in " << resp;
  }
}

TEST(ServeProtocol, StatsEscapesControlBytesInTheSpecPath) {
  // A path may hold any byte but '/' and NUL; STATS must stay valid JSON,
  // so control bytes go out as \u00XX escapes, never raw.
  TempSpecDir dir;
  const std::string path = dir.path + "/seg\x01mented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  const std::string resp = state.handle_line("STATS");
  EXPECT_NE(resp.find("seg\\u0001mented.vmn"), std::string::npos) << resp;
  for (const char c : resp) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << resp;
  }
}

TEST(ServeProtocol, StatsBatchObjectCoversTheCliBatchSummary) {
  // The STATS reply's batch object renders BatchResult::metrics(), the
  // schema `vmn verify` prints its summary from (tests/test_cli.cpp checks
  // that side): every schema name is a key, so the daemon reports what the
  // CLI does.
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  ServeState state(sopts);

  const std::string resp = state.handle_line("STATS");
  const std::size_t begin = resp.find("\"batch\":{");
  ASSERT_NE(begin, std::string::npos) << resp;
  const std::string batch = resp.substr(begin, resp.find('}', begin) - begin);
  const std::vector<Metric> schema = BatchResult{}.metrics();
  ASSERT_FALSE(schema.empty());
  for (const Metric& m : schema) {
    EXPECT_NE(batch.find("\"" + std::string(m.name) + "\":"), std::string::npos)
        << m.name << " in " << batch;
  }
  // Timers are reported in microseconds only.
  for (const char* key : {"plan_ms", "total_ms"}) {
    EXPECT_EQ(batch.find(key), std::string::npos) << key << " in " << batch;
  }
  // Neither the CLI summary nor STATS counts slice-key merges any more.
  for (const char* key : {"symmetry_hits", "conservative_splits"}) {
    EXPECT_EQ(batch.find(key), std::string::npos) << key << " in " << batch;
  }
}

/// The unsigned value of `"key":` in a flat JSON object rendering.
std::size_t json_count(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = object.find(needle);
  if (at == std::string::npos) {
    ADD_FAILURE() << key << " missing from " << object;
    return 0;
  }
  return std::stoull(object.substr(at + needle.size()));
}

TEST(ServeProtocol, StatsBatchValuesMatchTheProcessExecutorsBatchResult) {
  // A crash-looping job on the process executor moves the fleet and
  // abandonment counters off zero: STATS must report the very values of
  // the batch it served, with jobs_abandoned the sum of its three causes.
  TempSpecDir dir;
  const std::string path = dir.path + "/segmented.vmn";
  write_file(path, read_file(segmented_path()));
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = pooled_opts(Backend::process);
  sopts.engine.verify.faults = FaultPlan::parse("crash-job=0");
  ServeState state(sopts);
  const BatchResult& b = state.last_batch();
  ASSERT_EQ(b.degradation.quarantined, 1u);

  const std::string resp = state.handle_line("STATS");
  const std::size_t begin = resp.find("\"batch\":{");
  ASSERT_NE(begin, std::string::npos) << resp;
  const std::string batch = resp.substr(begin, resp.find('}', begin) - begin);
  // Every schema value, timers included: STATS renders the very batch the
  // daemon served.
  for (const Metric& m : b.metrics()) {
    EXPECT_EQ(json_count(batch, std::string(m.name)), m.value) << m.name;
  }
  EXPECT_EQ(json_count(batch, "jobs_abandoned"), b.degradation.abandoned());
  EXPECT_EQ(json_count(batch, "quarantined"), b.degradation.quarantined);
  EXPECT_EQ(json_count(batch, "workers_crashed"), b.pool.workers_crashed);
  EXPECT_EQ(json_count(batch, "workers_respawned"),
            b.degradation.workers_respawned);
  EXPECT_EQ(json_count(batch, "jobs_abandoned"),
            json_count(batch, "abandoned_retries") +
                json_count(batch, "quarantined") +
                json_count(batch, "deadline_abandoned"));
  // The deterministic crasher convicts itself in two kills, and the fleet
  // respawns to answer everything else.
  EXPECT_EQ(json_count(batch, "jobs_abandoned"), 1u);
  EXPECT_EQ(json_count(batch, "workers_crashed"), 2u);
  EXPECT_GE(json_count(batch, "workers_respawned"), 1u);
}

// ---------------------------------------------------------------------------
// One rendering per reload: the daemon diffs io::CanonicalSpec renderings
// and stamps the cache with the rendering's fingerprint.

/// The diff the daemon ran before it rendered each spec once, kept verbatim
/// as the reference: both specs re-rendered, split, and their lines counted
/// in an ordered map.
io::SpecDiff reference_diff(const io::Spec& before, const io::Spec& after) {
  auto lines_of = [](const io::Spec& spec) {
    std::vector<std::string> lines;
    std::istringstream in(io::write_spec_string(spec));
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
    return lines;
  };
  std::map<std::string, long> count;
  for (const std::string& l : lines_of(before)) ++count[l];
  for (const std::string& l : lines_of(after)) --count[l];
  io::SpecDiff diff;
  for (const auto& [line, c] : count) {
    if (c == 0) continue;
    const bool is_invariant = line.rfind("invariant ", 0) == 0;
    (is_invariant ? diff.invariants_changed : diff.model_changed) = true;
    for (long i = 0; i < c; ++i) diff.removed.push_back(line);
    for (long i = 0; i < -c; ++i) diff.added.push_back(line);
  }
  return diff;
}

void expect_same_diff(const io::SpecDiff& got, const io::SpecDiff& want) {
  EXPECT_EQ(got.added, want.added);
  EXPECT_EQ(got.removed, want.removed);
  EXPECT_EQ(got.model_changed, want.model_changed);
  EXPECT_EQ(got.invariants_changed, want.invariants_changed);
  EXPECT_EQ(got.summary(), want.summary());
}

/// The rendering's fingerprint equals model_fingerprint on both sides, and
/// its diff equals both io::diff_specs and the reference. Returns the diff.
io::SpecDiff expect_one_rendering(const std::string& what,
                                  const std::string& before_text,
                                  const std::string& after_text) {
  SCOPED_TRACE(what);
  const io::Spec before = io::parse_spec_string(before_text);
  const io::Spec after = io::parse_spec_string(after_text);
  const io::CanonicalSpec b = io::canonical_spec(before);
  const io::CanonicalSpec a = io::canonical_spec(after);
  EXPECT_EQ(b.model_fingerprint, model_fingerprint(before.model));
  EXPECT_EQ(a.model_fingerprint, model_fingerprint(after.model));
  const io::SpecDiff diff = io::diff_specs(b, a);
  expect_same_diff(diff, io::diff_specs(before, after));
  expect_same_diff(diff, reference_diff(before, after));
  return diff;
}

TEST(ServeRendering, EditCasesDiffAndStampLikeTheReference) {
  const std::string original = read_file(segmented_path());
  const std::vector<std::pair<std::string, std::string>> edits{
      {"idps monitor", idps1_monitor_edit(original)},
      {"invariant only", invariant_only_edit(original)},
      {"pure rename", pure_rename_edit(original)},
      {"formatting only", "# a comment\n\n" + original + "\n\n"}};
  for (const auto& [what, edited] : edits) {
    const io::SpecDiff diff = expect_one_rendering(what, original, edited);
    // The daemon's RELOAD reply carries the same summary.
    TempSpecDir dir;
    const std::string path = dir.path + "/segmented.vmn";
    write_file(path, original);
    ServeOptions sopts;
    sopts.spec_path = path;
    sopts.engine = sequential_opts();
    ServeState state(sopts);
    write_file(path, edited);
    const std::string reply = state.handle_line("RELOAD");
    const std::string want =
        diff.empty() ? "OK unchanged generation=1 (formatting-only edit)"
                     : "OK reloaded generation=2 " + diff.summary() + "; ";
    EXPECT_EQ(reply.substr(0, want.size()), want) << what;
  }
}

TEST(ServeRendering, GeneratorsAndExampleSpecsDiffAndStampLikeTheReference) {
  std::vector<std::pair<std::string, std::string>> texts{
      {"datacenter", datacenter_text()},   {"enterprise", enterprise_text()},
      {"isp", isp_text()},                 {"multitenant", multitenant_text()},
      {"random", random_text()}};
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(VMN_SOURCE_DIR) + "/examples/specs")) {
    if (entry.path().extension() != ".vmn") continue;
    texts.emplace_back(entry.path().filename().string(),
                       read_file(entry.path().string()));
  }
  ASSERT_GE(texts.size(), 8u);
  // Every ordered pair: unchanged specs, and edits that replace everything.
  for (const auto& [from, before] : texts) {
    for (const auto& [to, after] : texts) {
      const io::SpecDiff diff =
          expect_one_rendering(from + " -> " + to, before, after);
      EXPECT_EQ(diff.empty(), from == to) << from << " -> " << to;
    }
  }
}

}  // namespace
}  // namespace vmn::verify
