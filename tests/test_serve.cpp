// Serve-daemon tests, driven through ServeState - the socket-free protocol
// core the Server event loop wraps - so every assertion runs in-process:
//  - verdict parity: the daemon's VERDICT answers equal a one-shot
//    verify::Engine run on the same spec text, across all five scenario
//    generators and on both executors (inline and process);
//  - incremental reload: an edit confined to one segment of segmented.vmn
//    re-solves only the slices whose canonical keys changed (cache hits for
//    the untouched segment, counter-asserted) and retires exactly the
//    orphaned records;
//  - warm-across-requests: an invariant-only edit answers every previously
//    solved job from the live cache and solves just the new one;
//  - reload decision: an edit reloads exactly when its spec rendering
//    (io::render_spec) differs from the served one, reordering included;
//  - protocol robustness: malformed lines answer ERR and the daemon keeps
//    serving; a broken save keeps the old generation live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
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

EngineOptions pooled_opts() {
  EngineOptions e = sequential_opts();
  e.batch = true;
  e.jobs = 2;
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

/// The five generators' specs and every example spec, by name.
std::vector<std::pair<std::string, std::string>> generator_and_example_specs() {
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
  EXPECT_GE(texts.size(), 8u);
  return texts;
}

/// `text` with a comment ending every line and a blank line after it.
std::string with_comments(const std::string& text) {
  std::istringstream in(text);
  std::string out = "# leading comment\n\n";
  for (std::string line; std::getline(in, line);) {
    out += line + "   # comment\n\n";
  }
  return out;
}

TEST(ServeParity, MatchesOneShotAcrossAllFiveGenerators) {
  const EngineOptions eopts = sequential_opts();
  expect_parity("datacenter", datacenter_text(), eopts);
  expect_parity("enterprise", enterprise_text(), eopts);
  expect_parity("isp", isp_text(), eopts);
  expect_parity("multitenant", multitenant_text(), eopts);
  expect_parity("random", random_text(), eopts);
}

TEST(ServeParity, MatchesOneShotOnTheProcessExecutor) {
  expect_parity("enterprise/process", enterprise_text(), pooled_opts());
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

TEST(ServeIncremental, SegmentEditReplansOnlyChangedKeysProcessPool) {
  expect_incremental_segment_edit(pooled_opts());
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

/// Cold Engine verdicts of a spec text, and the invariants' descriptions.
struct ColdRun {
  std::vector<std::string> outcomes;
  std::vector<std::string> descriptions;
};

ColdRun cold_run(const std::string& text, const EngineOptions& eopts) {
  const io::Spec spec = io::parse_spec_string(text);
  Engine cold(spec.model, eopts);
  const BatchResult ref = cold.run_batch(spec.invariants);
  const net::Network& net = spec.model.network();
  auto name = [&](NodeId n) { return net.name(n); };
  ColdRun out;
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    out.outcomes.push_back(to_string(ref.results[i].outcome));
    out.descriptions.push_back(spec.invariants[i].describe(name));
  }
  return out;
}

/// Every VERDICT the daemon answers names the invariant and outcome a cold
/// Engine gives for `text` under the same options.
void expect_cold_verdicts(ServeState& state, const std::string& text) {
  const ColdRun ref = cold_run(text, state.options().engine);
  ASSERT_EQ(state.last_batch().results.size(), ref.outcomes.size());
  for (std::size_t i = 0; i < ref.outcomes.size(); ++i) {
    const std::string resp = state.handle_line("VERDICT " + std::to_string(i));
    EXPECT_EQ(token(resp, 1), ref.outcomes[i]) << resp;
    EXPECT_NE(resp.find("invariant=\"" + ref.descriptions[i] + "\""),
              std::string::npos)
        << resp;
  }
}

TEST(ServeIncremental, SwappingEqualRankRoutesReplans) {
  // Two routes to b's address tie on rank, and the first one added wins:
  // swapping them sends b's traffic to c. The rendering keeps that order,
  // so the reload re-plans, and every verdict - the warm result cache's
  // included - equals a cold Engine's on the swapped spec.
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

  // Declaration order is part of the rendering, so reordering the hosts
  // reloads; the problem keys are name- and order-blind, so the warm cache
  // answers every job.
  const std::string reordered =
      "host c 10.0.0.3\nhost b 10.0.0.2\nhost a 10.0.0.1\n" +
      after.substr(after.find("switch s"));
  write_file(path, reordered);
  const std::string reply = state.handle_line("RELOAD");
  EXPECT_EQ(reply.rfind("OK reloaded generation=5 ", 0), 0u) << reply;
  EXPECT_EQ(state.last_batch().solver_calls, 0u);
  EXPECT_EQ(state.last_batch().cache_hits,
            state.last_batch().pool.jobs_executed);
  expect_cold_verdicts(state, reordered);
}

TEST(ServeIncremental, MovingAScenarioOverrideReplans) {
  // The override sends b's address to c, which no other route reaches.
  // Under f1 (one failure) it is within the failure budget of 1; moved to
  // f2 (two failures) it is not. The rendering writes each route line in
  // its scenario's block, so the move re-plans, and node-isolation(c, a)
  // goes from violated to holds (on the whole network: see
  // SpecParse.ScenarioRouteReplacesTheBaseRouteOfItsRank).
  const std::string head =
      "host a 10.0.0.1\nhost b 10.0.0.2\nhost c 10.0.0.3\n"
      "host x 10.0.0.4\nhost y 10.0.0.5\nswitch s\n"
      "link a s\nlink b s\nlink c s\nlink x s\nlink y s\n"
      "route s 10.0.0.1 a\nroute s 10.0.0.2 b\n"
      "route s 10.0.0.4 x\nroute s 10.0.0.5 y\n";
  const std::string override_line = "  route s 10.0.0.2 c priority 5\n";
  const std::string tail = "invariant node-isolation c a\n";
  const std::string before = head + "scenario f1 fail x\n" + override_line +
                             "end\nscenario f2 fail x y\nend\n" + tail;
  const std::string after = head + "scenario f1 fail x\nend\n" +
                            "scenario f2 fail x y\n" + override_line +
                            "end\n" + tail;
  EXPECT_TRUE(io::diff_specs(io::parse_spec_string(before),
                             io::parse_spec_string(after))
                  .model_changed);

  TempSpecDir dir;
  const std::string path = dir.path + "/moved.vmn";
  write_file(path, before);
  ServeOptions sopts;
  sopts.spec_path = path;
  sopts.engine = sequential_opts();
  sopts.engine.verify.use_slices = false;
  sopts.engine.verify.max_failures = 1;
  ServeState state(sopts);
  EXPECT_EQ(token(state.handle_line("VERDICT 0"), 1), "violated");

  for (const std::string* text : {&after, &before, &after}) {
    write_file(path, *text);
    const std::string reply = state.handle_line("RELOAD");
    EXPECT_EQ(reply.rfind("OK reloaded", 0), 0u) << reply;
    io::Spec spec = io::parse_spec_string(*text);
    Engine cold(spec.model, sopts.engine);
    const BatchResult ref = cold.run_batch(spec.invariants);
    ASSERT_EQ(ref.results.size(), 1u);
    EXPECT_EQ(token(state.handle_line("VERDICT 0"), 1),
              to_string(ref.results[0].outcome))
        << (text == &after ? "moved" : "restored");
  }
  EXPECT_EQ(token(state.handle_line("VERDICT 0"), 1), "holds");
}

/// An edit that changes what a cold run answers but not the sorted
/// multiset of rendered lines: the reload re-plans, and the daemon's
/// verdicts equal a cold Engine's on the edited text.
struct OrderEdit {
  std::string what;
  std::string before;
  std::string after;
};

std::vector<OrderEdit> order_edits() {
  const std::string abc =
      "host a 10.0.0.1\nhost b 10.0.0.2\nhost c 10.0.0.3\nswitch s\n";
  // (a) The deny of b -> c moves from fw1, which only a's traffic to c
  // crosses, to fw2, which b's crosses.
  const std::string boxes = "link a s\nlink b s\nlink c s\n"
                            "link fw1 s\nlink fw2 s\n"
                            "route s from a 10.0.0.3/32 fw1\n"
                            "route s from b 10.0.0.3/32 fw2\n"
                            "route s from fw1 10.0.0.3/32 c\n"
                            "route s from fw2 10.0.0.3/32 c\n"
                            "route s 10.0.0.1/32 a\nroute s 10.0.0.2/32 b\n"
                            "invariant node-isolation c b\n";
  const std::string deny = "  deny 10.0.0.2/32 -> 10.0.0.3/32\n";
  // (b) First match wins: the /24 deny shadows the /32 allow once first.
  const std::string allow_a = "  allow 10.0.0.1/32 -> 10.0.0.3/32\n";
  const std::string deny_all = "  deny 10.0.0.0/24 -> 10.0.0.3/32\n";
  const std::string acl_tail = "end\nlink a s\nlink c s\nlink fw1 s\n"
                               "route s from a 10.0.0.3/32 fw1\n"
                               "route s from fw1 10.0.0.3/32 c\n"
                               "route s 10.0.0.1/32 a\n"
                               "invariant node-isolation c a\n";
  // (c) a enters the fabric through its first alive switch in link order
  // (dataplane::TransferFunction::first_switch): s delivers b's address to
  // b, t drops everything.
  const std::string routes = "link b s\nlink c s\nroute s 10.0.0.1/32 a\n"
                             "route s 10.0.0.2/32 b\nroute s 10.0.0.3/32 c\n";
  const std::string wired = abc + "switch t\nlink a s\nlink a t\n" + routes;
  // (d) The invariants swap places: VERDICT 0 names the file's line 0.
  return {
      {"ACL line moved between boxes",
       abc + "firewall fw1 default allow\n" + deny +
           "end\nfirewall fw2 default allow\nend\n" + boxes,
       abc + "firewall fw1 default allow\nend\n"
             "firewall fw2 default allow\n" + deny + "end\n" + boxes},
      {"first-match ACL reorder",
       "host a 10.0.0.1\nhost c 10.0.0.3\nswitch s\n"
       "firewall fw1 default deny\n" + allow_a + deny_all + acl_tail,
       "host a 10.0.0.1\nhost c 10.0.0.3\nswitch s\n"
       "firewall fw1 default deny\n" + deny_all + allow_a + acl_tail},
      {"link reorder", wired + "invariant node-isolation b a\n",
       abc + "switch t\nlink a t\nlink a s\n" + routes +
           "invariant node-isolation b a\n"},
      {"invariant reorder",
       wired + "invariant node-isolation b a\ninvariant reachable b a\n",
       wired + "invariant reachable b a\ninvariant node-isolation b a\n"},
  };
}

void expect_order_edits_reload(const EngineOptions& eopts) {
  for (const OrderEdit& edit : order_edits()) {
    SCOPED_TRACE(edit.what);
    // Each case flips what a cold run answers for the first invariant.
    EXPECT_NE(cold_run(edit.before, eopts).outcomes.at(0),
              cold_run(edit.after, eopts).outcomes.at(0));
    TempSpecDir dir;
    const std::string path = dir.path + "/order.vmn";
    write_file(path, edit.before);
    ServeOptions sopts;
    sopts.spec_path = path;
    sopts.engine = eopts;
    ServeState state(sopts);
    expect_cold_verdicts(state, edit.before);
    write_file(path, edit.after);
    const std::string reply = state.handle_line("RELOAD");
    EXPECT_EQ(reply.rfind("OK reloaded generation=2 ", 0), 0u) << reply;
    expect_cold_verdicts(state, edit.after);
  }
}

TEST(ServeIncremental, OrderOnlyEditsReloadSequential) {
  expect_order_edits_reload(sequential_opts());
}

TEST(ServeIncremental, OrderOnlyEditsReloadProcessPool) {
  expect_order_edits_reload(pooled_opts());
}

/// The lines of `text`, without their newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

/// The first whitespace-separated token of a spec line ("" when blank).
std::string keyword(const std::string& line) { return token(line, 0); }

/// Swaps the first two adjacent, different `link` lines.
std::string swap_adjacent_links(const std::string& text) {
  std::vector<std::string> lines = lines_of(text);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    if (keyword(lines[i]) == "link" && keyword(lines[i + 1]) == "link" &&
        lines[i] != lines[i + 1]) {
      std::swap(lines[i], lines[i + 1]);
      break;
    }
  }
  return join_lines(lines);
}

/// Reverses the entries of the first firewall or cache block holding two
/// or more.
std::string reverse_box_entries(const std::string& text) {
  std::vector<std::string> lines = lines_of(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (keyword(lines[i]) != "firewall" && keyword(lines[i]) != "cache") {
      continue;
    }
    std::size_t end = i + 1;
    while (end < lines.size() && keyword(lines[end]) != "end") ++end;
    if (end - i > 2) {
      std::reverse(lines.begin() + static_cast<std::ptrdiff_t>(i + 1),
                   lines.begin() + static_cast<std::ptrdiff_t>(end));
      break;
    }
  }
  return join_lines(lines);
}

/// Moves the last invariant line to where the first one is.
std::string last_invariant_first(const std::string& text) {
  std::vector<std::string> lines = lines_of(text);
  std::vector<std::size_t> at;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (keyword(lines[i]) == "invariant") at.push_back(i);
  }
  if (at.size() >= 2) {
    const std::string last = lines[at.back()];
    lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at.back()));
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at.front()),
                 last);
  }
  return join_lines(lines);
}

/// Renames the first host everywhere its name is a token.
std::string rename_first_host(const std::string& text) {
  std::vector<std::string> lines = lines_of(text);
  std::string from;
  for (const std::string& line : lines) {
    if (keyword(line) == "host") {
      from = token(line, 1);
      break;
    }
  }
  EXPECT_FALSE(from.empty());
  const std::string to = from + "-renamed";
  EXPECT_EQ(text.find(to), std::string::npos);
  for (std::string& line : lines) {
    std::istringstream in(line);
    std::string rebuilt = line.substr(0, line.find_first_not_of(' '));
    for (std::string t; in >> t;) {
      if (rebuilt.find_first_not_of(' ') != std::string::npos) rebuilt += ' ';
      rebuilt += t == from ? to : t;
    }
    line = rebuilt;
  }
  return join_lines(lines);
}

TEST(ServeParity, EditsReloadExactlyWhenTheRenderingChanges) {
  // A deterministic serve-edit oracle: each edit in turn, on one daemon per
  // spec. RELOAD answers unchanged exactly when the edit renders as the
  // served text does, and every verdict equals a cold Engine's.
  const std::vector<std::pair<std::string, std::string (*)(const std::string&)>>
      edits{{"append a comment",
             [](const std::string& t) { return t + "# edited\n"; }},
            {"swap two adjacent links", swap_adjacent_links},
            {"reverse a box's entries", reverse_box_entries},
            {"move the last invariant first", last_invariant_first},
            {"rename a host", rename_first_host}};
  for (const auto& [name, original] : generator_and_example_specs()) {
    SCOPED_TRACE(name);
    TempSpecDir dir;
    const std::string path = dir.path + "/edited.vmn";
    write_file(path, original);
    ServeOptions sopts;
    sopts.spec_path = path;
    sopts.engine = sequential_opts();
    ServeState state(sopts);
    std::string served = original;
    std::size_t reloads = 0;
    for (const auto& [what, edit] : edits) {
      SCOPED_TRACE(what);
      const std::string edited = edit(served);
      const bool same_rendering =
          io::write_spec_string(io::parse_spec_string(served)) ==
          io::write_spec_string(io::parse_spec_string(edited));
      if (what == std::string("append a comment")) {
        EXPECT_TRUE(same_rendering);
      }
      write_file(path, edited);
      const std::string reply = state.handle_line("RELOAD");
      const std::string generation =
          "generation=" + std::to_string(1 + reloads + (same_rendering ? 0 : 1));
      EXPECT_EQ(reply.rfind(std::string(same_rendering ? "OK unchanged "
                                                       : "OK reloaded ") +
                                generation,
                            0),
                0u)
          << reply;
      if (!same_rendering) ++reloads;
      expect_cold_verdicts(state, edited);
      served = edited;
    }
    // Each spec has links and at least two distinct invariants, so those
    // edits and the rename reload.
    EXPECT_GE(reloads, 3u);
  }
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
  // reload - same rendering, generation stays.
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
  sopts.engine = pooled_opts();
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
// One rendering per reload: the daemon compares io::SpecRendering texts and
// stamps the cache with the rendering's fingerprint.

TEST(ServeRendering, EditCasesReloadWithTheirDiffSummary) {
  const std::string original = read_file(segmented_path());
  struct Case {
    std::string what;
    std::string edited;
    bool model_changed;
    bool invariants_changed;
  };
  const std::vector<Case> cases{
      {"idps monitor", idps1_monitor_edit(original), true, false},
      {"invariant only", invariant_only_edit(original), false, true},
      {"pure rename", pure_rename_edit(original), true, true},
      {"formatting only", with_comments(original), false, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    const io::SpecDiff diff = io::diff_specs(io::parse_spec_string(original),
                                             io::parse_spec_string(c.edited));
    EXPECT_EQ(diff.model_changed, c.model_changed);
    EXPECT_EQ(diff.invariants_changed, c.invariants_changed);
    // The daemon's RELOAD reply carries the same summary.
    TempSpecDir dir;
    const std::string path = dir.path + "/segmented.vmn";
    write_file(path, original);
    ServeOptions sopts;
    sopts.spec_path = path;
    sopts.engine = sequential_opts();
    ServeState state(sopts);
    write_file(path, c.edited);
    const std::string reply = state.handle_line("RELOAD");
    const std::string want =
        diff.empty() ? "OK unchanged generation=1 (formatting-only edit)"
                     : "OK reloaded generation=2 " + diff.summary() + "; ";
    EXPECT_EQ(reply.substr(0, want.size()), want);
  }
}

TEST(ServeRendering, GeneratorsAndExampleSpecsStampAndCompareByRendering) {
  const auto texts = generator_and_example_specs();
  std::vector<io::Spec> specs;
  for (const auto& [name, text] : texts) {
    SCOPED_TRACE(name);
    specs.push_back(io::parse_spec_string(text));
    const io::SpecRendering rendering = io::render_spec(specs.back());
    // The stamp records written before the daemon compared renderings
    // carry: the fingerprint of the whole-network projection.
    EXPECT_EQ(rendering.model_fingerprint(),
              model_fingerprint(specs.back().model));
    EXPECT_EQ(rendering.text, io::write_spec_string(specs.back()));
    EXPECT_TRUE(
        io::diff_specs(specs.back(),
                       io::parse_spec_string(with_comments(text)))
            .empty());
  }
  // Every ordered pair of distinct specs is a model change.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const io::SpecDiff diff = io::diff_specs(specs[i], specs[j]);
      EXPECT_EQ(diff.model_changed, i != j)
          << texts[i].first << " -> " << texts[j].first;
      EXPECT_EQ(diff.empty(), i == j)
          << texts[i].first << " -> " << texts[j].first;
    }
  }
}

}  // namespace
}  // namespace vmn::verify
