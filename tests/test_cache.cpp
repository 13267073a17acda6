// Persistent result-cache tests: unit coverage for ResultCache itself -
// including the record-granular invalidation (per-record model stamps
// that gate garbage collection, never lookups) - and end-to-end coverage
// of the batch fast path through verify::Engine: identical reruns answer
// every job from disk with verdicts equal to the cold run, spec edits that
// change the problem key miss and re-solve, a renamed-and-readdressed but
// isomorphic spec hits the v6 shape-canonical keys cold, and a disabled
// cache changes nothing about the outcomes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "io/spec.hpp"
#include "mbox/firewall.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "verify/engine.hpp"
#include "verify/result_cache.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

using mbox::AclAction;
using mbox::AclEntry;

/// mkdtemp-backed cache directory, removed on scope exit.
struct TempCacheDir {
  std::string path;
  TempCacheDir() {
    char tmpl[] = "/tmp/vmn-test-cache-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    } else {
      path = tmpl;
    }
  }
  ~TempCacheDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

EngineOptions cached_options(const std::string& cache_dir,
                             std::size_t jobs = 2) {
  EngineOptions opts{.batch = true, .jobs = jobs};
  opts.verify.solver.seed = 7;
  opts.verify.cache_dir = cache_dir;
  return opts;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string segmented_spec_path() {
  return std::string(VMN_SOURCE_DIR) + "/examples/specs/segmented.vmn";
}

scenarios::Datacenter make_datacenter_small() {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  return make_datacenter(p);
}

scenarios::Enterprise make_enterprise_small() {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  return make_enterprise(p);
}

TEST(ResultCacheUnit, StoreLookupAndPersistAcrossInstances) {
  TempCacheDir dir;
  const std::string key_a = "node-isolation/#a;b;@x;!s;";
  const std::string key_b = "reachable/#c;@y;!s;";
  {
    ResultCache cache(dir.path);
    EXPECT_TRUE(cache.enabled());
    EXPECT_FALSE(cache.lookup(key_a).has_value());
    cache.store(key_a, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.store(key_b, ResultCache::Entry{smt::CheckStatus::sat, 6, 17});
    // Unknown results and empty keys are dropped.
    cache.store("transient", ResultCache::Entry{smt::CheckStatus::unknown, 1, 1});
    cache.store("", ResultCache::Entry{smt::CheckStatus::sat, 1, 1});
    // Visible before flush.
    ASSERT_TRUE(cache.lookup(key_a).has_value());
    EXPECT_EQ(cache.lookup(key_a)->status, smt::CheckStatus::unsat);
    cache.flush();
  }
  {
    ResultCache cache(dir.path);
    EXPECT_EQ(cache.size(), 2u);
    ASSERT_TRUE(cache.lookup(key_b).has_value());
    EXPECT_EQ(cache.lookup(key_b)->status, smt::CheckStatus::sat);
    EXPECT_EQ(cache.lookup(key_b)->slice_size, 6u);
    EXPECT_EQ(cache.lookup(key_b)->assertion_count, 17u);
    EXPECT_FALSE(cache.lookup("transient").has_value());
  }
}

TEST(ResultCacheUnit, DisabledAndCorruptedInputsDegradeToMisses) {
  ResultCache disabled("");
  EXPECT_FALSE(disabled.enabled());
  disabled.store("k", ResultCache::Entry{smt::CheckStatus::sat, 1, 1});
  EXPECT_FALSE(disabled.lookup("k").has_value());
  disabled.flush();  // must be a no-op, not a crash

  // An unwritable directory degrades to an in-memory cache: flush must
  // swallow the filesystem error (a verification run whose results are
  // already computed must never abort over cache persistence).
  ResultCache unwritable("/proc/nonexistent/vmn-cache");
  unwritable.store("k", ResultCache::Entry{smt::CheckStatus::sat, 1, 1});
  EXPECT_TRUE(unwritable.lookup("k").has_value());
  unwritable.flush();

  TempCacheDir dir;
  {
    ResultCache cache(dir.path);
    cache.store("good", ResultCache::Entry{smt::CheckStatus::unsat, 2, 3});
    cache.flush();
  }
  {
    // Corrupt the tail (torn write) and append garbage; the good line must
    // survive, the rest be skipped.
    std::ofstream out(ResultCache(dir.path).file_path(), std::ios::app);
    out << "deadbeef\n" << "zz zz sat x y\n" << "0 0 unknown 1 1\n";
  }
  ResultCache cache(dir.path);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup("good").has_value());
}

TEST(ResultCacheUnit, CompactsWhenDeadRecordsDominate) {
  TempCacheDir dir;
  const std::string key_a = "node-isolation/#dup;";
  const std::string key_b = "reachable/#live;";
  {
    ResultCache cache(dir.path);
    cache.store(key_a, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.store(key_b, ResultCache::Entry{smt::CheckStatus::sat, 6, 17});
    cache.flush();
  }
  const std::string path = ResultCache(dir.path).file_path();
  auto read_lines = [&] {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  std::vector<std::string> lines = read_lines();
  ASSERT_EQ(lines.size(), 3u);  // header + 2 records
  ASSERT_EQ(lines[0][0], '#');

  // Simulate racing processes appending the same record over and over:
  // every copy is well-formed, later lines win, all but one are dead.
  {
    std::ofstream out(path, std::ios::app);
    for (int i = 0; i < 8; ++i) out << lines[1] << "\n";
  }
  ASSERT_EQ(read_lines().size(), 11u);

  // 10 records, 2 live: the dead majority triggers compaction on load.
  ResultCache compacted(dir.path);
  EXPECT_EQ(compacted.size(), 2u);
  ASSERT_TRUE(compacted.lookup(key_a).has_value());
  EXPECT_EQ(compacted.lookup(key_a)->status, smt::CheckStatus::unsat);
  ASSERT_TRUE(compacted.lookup(key_b).has_value());
  EXPECT_EQ(compacted.lookup(key_b)->slice_size, 6u);
  EXPECT_EQ(read_lines().size(), 3u);  // header + one line per live entry

  // The compacted file is a normal cache: appends still land and persist.
  compacted.store("fresh", ResultCache::Entry{smt::CheckStatus::unsat, 2, 5});
  compacted.flush();
  EXPECT_EQ(read_lines().size(), 4u);
  EXPECT_EQ(ResultCache(dir.path).size(), 3u);

  // A dead *minority* must not trigger a rewrite (1 dead of 5 records).
  {
    std::ofstream out(path, std::ios::app);
    out << lines[2] << "\n";
  }
  ASSERT_EQ(read_lines().size(), 5u);
  ResultCache untouched(dir.path);
  EXPECT_EQ(untouched.size(), 3u);
  EXPECT_EQ(read_lines().size(), 5u);
}

TEST(ResultCacheUnit, StaleKeyVersionIsRejectedWholesaleAndRewritten) {
  TempCacheDir dir;
  const std::string key = "no-malicious-delivery/#a;@x;!s;";
  {
    ResultCache cache(dir.path);
    cache.store(key, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.flush();
  }
  const std::string path = ResultCache(dir.path).file_path();
  auto read_lines = [&] {
    std::vector<std::string> lines;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  };
  std::vector<std::string> lines = read_lines();
  ASSERT_EQ(lines.size(), 2u);  // current-version header + 1 record

  // Rewind the header to a previous key-format version. The record line
  // itself is byte-identical to a live one - only the version says its
  // fingerprint was minted under keys that meant something else (the
  // pre-reachability-refinement class relation), and that must be enough
  // to reject it. Version mismatch is the *only* wholesale rejection left
  // in v6 - spec edits are handled per record by the stamps.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# vmn-result-cache v1\n" << lines[1] << "\n";
  }
  ResultCache stale(dir.path);
  EXPECT_TRUE(stale.stale_version());
  EXPECT_EQ(stale.size(), 0u);
  EXPECT_FALSE(stale.lookup(key).has_value());

  // The next flush upgrades the file in place: current header, only the
  // records this run actually solved.
  stale.store(key, ResultCache::Entry{smt::CheckStatus::sat, 5, 13});
  stale.flush();
  EXPECT_FALSE(stale.stale_version());
  lines = read_lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("v6"), std::string::npos);
  ResultCache upgraded(dir.path);
  EXPECT_EQ(upgraded.size(), 1u);
  ASSERT_TRUE(upgraded.lookup(key).has_value());
  EXPECT_EQ(upgraded.lookup(key)->status, smt::CheckStatus::sat);
}

TEST(ResultCacheUnit, ForeignStampNeverGatesALookup) {
  // v5: the model stamp drives garbage collection only. A record minted by
  // another model whose canonical key still matches *must* answer - the
  // key embeds the whole verification problem, so an equal key is the same
  // problem no matter who solved it first.
  TempCacheDir dir;
  const std::string key = "reachable/#seg;@x;!s;";
  {
    ResultCache cache(dir.path, /*model_fingerprint=*/0x1111u);
    cache.store(key, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.flush();
  }
  ResultCache other(dir.path, /*model_fingerprint=*/0x2222u);
  EXPECT_FALSE(other.stale_version());
  EXPECT_EQ(other.size(), 1u);
  ASSERT_TRUE(other.lookup(key).has_value());
  EXPECT_EQ(other.lookup(key)->status, smt::CheckStatus::unsat);
}

TEST(ResultCacheUnit, OneSegmentEditKeepsOtherSegmentsRecordsLive) {
  // The v5 point: a spec edit confined to one segment orphans only that
  // segment's records. Model A minted records for two segments; model B
  // (the edited spec) still looks up segment 2's unchanged key, stores a
  // fresh record for the edited segment 1, and the flush retires exactly
  // the never-hit orphan - not the whole file.
  TempCacheDir dir;
  const std::string seg1_old = "no-malicious-delivery/#seg1;@x;!s;";
  const std::string seg1_new = "no-malicious-delivery/#seg1';@x;!s;";
  const std::string seg2 = "no-malicious-delivery/#seg2;@y;!s;";
  {
    ResultCache cache(dir.path, /*model_fingerprint=*/0xAAAAu);
    cache.store(seg1_old, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.store(seg2, ResultCache::Entry{smt::CheckStatus::sat, 6, 17});
    cache.flush();
    EXPECT_EQ(cache.records_dropped(), 0u);
  }
  {
    ResultCache cache(dir.path, /*model_fingerprint=*/0xBBBBu);
    EXPECT_EQ(cache.size(), 2u);
    // Segment 2's key is unchanged by the edit: the hit marks it live.
    ASSERT_TRUE(cache.lookup(seg2).has_value());
    // Segment 1 re-solves under its new key.
    EXPECT_FALSE(cache.lookup(seg1_new).has_value());
    cache.store(seg1_new, ResultCache::Entry{smt::CheckStatus::unsat, 5, 13});
    cache.flush();
    // Exactly the orphan (seg1_old: foreign stamp, never hit) retired.
    EXPECT_EQ(cache.records_dropped(), 1u);
  }
  ResultCache reloaded(dir.path, 0xBBBBu);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_TRUE(reloaded.lookup(seg2).has_value());
  EXPECT_TRUE(reloaded.lookup(seg1_new).has_value());
  EXPECT_FALSE(reloaded.lookup(seg1_old).has_value());
}

TEST(ResultCacheUnit, HitRecordsAreRestampedToTheCurrentModel) {
  // A foreign-stamp record a lookup touched is re-stamped by the rewrite:
  // the *next* generation sees it as belonging to the model that last used
  // it, so it keeps surviving edits as long as its key keeps hitting.
  TempCacheDir dir;
  const std::string kept = "reachable/#kept;";
  const std::string orphan = "reachable/#orphan;";
  {
    ResultCache cache(dir.path, 0x1u);
    cache.store(kept, ResultCache::Entry{smt::CheckStatus::unsat, 2, 5});
    cache.store(orphan, ResultCache::Entry{smt::CheckStatus::sat, 3, 7});
    cache.flush();
  }
  {
    ResultCache cache(dir.path, 0x2u);
    ASSERT_TRUE(cache.lookup(kept).has_value());
    cache.flush();  // retires `orphan`, rewrites `kept` under stamp 0x2
    EXPECT_EQ(cache.records_dropped(), 1u);
  }
  {
    // A third generation that never looks anything up: `kept` now carries
    // 0x2, is foreign and unhit, and is retired in turn. Stamps age out
    // records exactly one edit after their last use.
    ResultCache cache(dir.path, 0x3u);
    EXPECT_EQ(cache.size(), 1u);
    cache.store("reachable/#other;",
                ResultCache::Entry{smt::CheckStatus::unsat, 1, 3});
    cache.flush();
    EXPECT_EQ(cache.records_dropped(), 1u);
  }
  ResultCache final_gen(dir.path, 0x3u);
  EXPECT_EQ(final_gen.size(), 1u);
  EXPECT_FALSE(final_gen.lookup(kept).has_value());
}

TEST(ResultCacheUnit, SetModelFingerprintSwitchesGenerationInPlace) {
  // The serve daemon's path: one live cache object, set_model_fingerprint
  // after a reload instead of reopening the file. Memory-only mode so this
  // also covers the no-cache-dir daemon default: flush never touches disk
  // but still retires the orphans.
  ResultCache cache("", /*model_fingerprint=*/0x1u, /*memory_only=*/true);
  EXPECT_TRUE(cache.enabled());
  EXPECT_TRUE(cache.file_path().empty());
  cache.store("k-live", ResultCache::Entry{smt::CheckStatus::unsat, 2, 5});
  cache.store("k-orphan", ResultCache::Entry{smt::CheckStatus::sat, 3, 7});
  cache.flush();
  EXPECT_EQ(cache.size(), 2u);

  cache.set_model_fingerprint(0x2u);
  EXPECT_EQ(cache.model_fingerprint(), 0x2u);
  // Liveness must be re-proven under the new model: only k-live is.
  ASSERT_TRUE(cache.lookup("k-live").has_value());
  cache.flush();
  EXPECT_EQ(cache.records_dropped(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup("k-live").has_value());
  EXPECT_FALSE(cache.lookup("k-orphan").has_value());
}

TEST(ResultCacheUnit, HeaderlessFileIsStaleToo) {
  // Pre-versioning files began directly with records; they are just as
  // stale as a wrong-version header.
  TempCacheDir dir;
  const std::string path = ResultCache(dir.path).file_path();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "00000000000000aa 00000000000000bb unsat 3 9\n";
  }
  ResultCache cache(dir.path);
  EXPECT_TRUE(cache.stale_version());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCacheBatch, DifferentSpecSharingACacheDirNeverCrossAnswers) {
  // Engine-level: a batch on spec B over a dir spec A populated must hit
  // nothing (their canonical keys differ), and because none of A's records
  // are touched by B's lookups, B's flush retires them record by record:
  // re-running A starts cold again instead of reading leaked dead weight.
  scenarios::Enterprise e = make_enterprise_small();
  scenarios::Datacenter dc = make_datacenter_small();
  const scenarios::Batch dc_batch = dc.batch();
  TempCacheDir dir;

  BatchResult a1 =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  EXPECT_EQ(a1.cache_hits, 0u);
  BatchResult a2 =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  EXPECT_EQ(a2.cache_hits, a2.pool.jobs_executed);

  BatchResult b1 =
      Engine(dc.model, cached_options(dir.path)).run_batch(dc_batch.invariants);
  EXPECT_EQ(b1.cache_hits, 0u);
  BatchResult b2 =
      Engine(dc.model, cached_options(dir.path)).run_batch(dc_batch.invariants);
  EXPECT_EQ(b2.cache_hits, b2.pool.jobs_executed);

  // B's flush retired A's never-hit records: A re-solves rather than
  // inheriting leaked entries.
  EXPECT_GT(b1.degradation.cache_records_dropped, 0u);
  BatchResult a3 =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  EXPECT_EQ(a3.cache_hits, 0u);
  EXPECT_GT(a3.solver_calls, 0u);
}

TEST(ResultCacheBatch, StaleCacheDirectoryForcesFreshSolvesThenUpgrades) {
  scenarios::Enterprise e = make_enterprise_small();
  TempCacheDir dir;
  {
    Engine engine(e.model, cached_options(dir.path));
    BatchResult cold = engine.run_batch(e.invariants);
    EXPECT_EQ(cold.cache_hits, 0u);
  }
  const std::string path = ResultCache(dir.path).file_path();
  // Demote the whole file to the previous key version (real fingerprints,
  // stale meaning).
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 1u);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# vmn-result-cache v1\n";
    for (std::size_t i = 1; i < lines.size(); ++i) out << lines[i] << "\n";
  }

  // A pre-fix cache directory must answer nothing...
  Engine again(e.model, cached_options(dir.path));
  BatchResult warm = again.run_batch(e.invariants);
  EXPECT_EQ(warm.cache_hits, 0u);
  EXPECT_EQ(warm.cache_misses, warm.pool.jobs_executed);
  EXPECT_GT(warm.solver_calls, 0u);

  // ...and the flush at the end of that run upgrades the file, so the next
  // one hits everything again.
  BatchResult hot =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  EXPECT_EQ(hot.cache_hits, hot.pool.jobs_executed);
  EXPECT_EQ(hot.solver_calls, 0u);
}

TEST(ResultCacheBatch, IdenticalRerunHitsEverythingWithEqualVerdicts) {
  scenarios::Datacenter dc = make_datacenter_small();
  const scenarios::Batch batch = dc.batch();
  TempCacheDir dir;

  Engine engine(dc.model, cached_options(dir.path));
  BatchResult cold = engine.run_batch(batch.invariants);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.cache_misses, cold.pool.jobs_executed);
  // Verdict-level merging: isomorphic invariants share one solver call, the
  // replayed bindings show up as iso_verdict_reuses. Every class is solved
  // once and every invariant answered exactly once.
  EXPECT_GT(cold.solver_calls, 0u);
  EXPECT_EQ(cold.solver_calls, cold.pool.jobs_executed);
  EXPECT_LT(cold.solver_calls, cold.pool.invariant_count);
  EXPECT_EQ(cold.solver_calls + cold.iso_verdict_reuses,
            cold.pool.invariant_count);

  BatchResult hot = engine.run_batch(batch.invariants);
  EXPECT_EQ(hot.cache_hits, hot.pool.jobs_executed);
  EXPECT_EQ(hot.cache_misses, 0u);
  EXPECT_EQ(hot.solver_calls, 0u);
  ASSERT_EQ(hot.results.size(), cold.results.size());
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    EXPECT_EQ(hot.results[i].outcome, cold.results[i].outcome) << i;
    EXPECT_EQ(hot.results[i].raw_status, cold.results[i].raw_status) << i;
    EXPECT_EQ(hot.results[i].slice_size, cold.results[i].slice_size) << i;
    EXPECT_EQ(hot.results[i].assertion_count, cold.results[i].assertion_count)
        << i;
    EXPECT_EQ(hot.results[i].by_symmetry, cold.results[i].by_symmetry) << i;
    EXPECT_TRUE(hot.results[i].from_cache) << i;
  }
}

TEST(ResultCacheBatch, RenamedIsomorphicSpecHitsColdAcrossRuns) {
  // The v6 headline: two *separate* Engine runs over one cache directory,
  // where the second spec renames every node AND moves both segments to new
  // subnets. Shape-canonical problem keys are name-blind and address-token-
  // canonical, so the renamed spec's first-ever run answers every job from
  // the other spec's records - zero solver calls on a cold process.
  const std::string original = read_file(segmented_spec_path());
  std::string renamed = original;
  auto replace_all = [&renamed](const std::string& from,
                                const std::string& to) {
    for (std::size_t pos = renamed.find(from); pos != std::string::npos;
         pos = renamed.find(from, pos + to.size())) {
      renamed.replace(pos, from.size(), to);
    }
  };
  // Addresses first (name tokens never contain dots, so the passes cannot
  // interfere), then every node name, then the traversal invariants' name
  // prefix (the middlebox TYPE keyword "idps" stays).
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
  replace_all(" idps expect", " watch expect");
  ASSERT_EQ(renamed.find("srv0"), std::string::npos);
  ASSERT_EQ(renamed.find("10.0."), std::string::npos);

  TempCacheDir dir;
  io::Spec first = io::parse_spec_string(original);
  BatchResult cold = Engine(first.model, cached_options(dir.path))
                         .run_batch(first.invariants);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_GT(cold.solver_calls, 0u);

  io::Spec second = io::parse_spec_string(renamed);
  BatchResult warm = Engine(second.model, cached_options(dir.path))
                         .run_batch(second.invariants);
  EXPECT_EQ(warm.pool.jobs_executed, cold.pool.jobs_executed);
  EXPECT_EQ(warm.solver_calls, 0u);
  EXPECT_EQ(warm.cache_hits, warm.pool.jobs_executed);
  EXPECT_EQ(warm.cache_misses, 0u);
  ASSERT_EQ(warm.results.size(), cold.results.size());
  for (std::size_t i = 0; i < cold.results.size(); ++i) {
    EXPECT_EQ(warm.results[i].outcome, cold.results[i].outcome) << i;
    EXPECT_EQ(warm.results[i].raw_status, cold.results[i].raw_status) << i;
  }
}

TEST(ResultCacheBatch, SequentialEngineSharesTheSameCache) {
  // A cache populated by the pooled path answers the sequential path (and
  // vice versa): both consult the same canonical keys.
  scenarios::Enterprise e = make_enterprise_small();
  TempCacheDir dir;

  BatchResult cold =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  EXPECT_EQ(cold.cache_hits, 0u);

  VerifyOptions seq_opts;
  seq_opts.solver.seed = 7;
  seq_opts.cache_dir = dir.path;
  Engine sequential(e.model, {.verify = seq_opts});
  BatchResult hot = sequential.run_batch(e.invariants, /*use_symmetry=*/true);
  EXPECT_GT(hot.cache_hits, 0u);
  EXPECT_EQ(hot.cache_misses, 0u);
  EXPECT_EQ(hot.solver_calls, 0u);
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(hot.results[i].outcome, cold.results[i].outcome) << i;
  }
}

TEST(ResultCacheBatch, ConfigEditChangesKeyAndForcesFreshSolve) {
  scenarios::Enterprise e = make_enterprise_small();
  TempCacheDir dir;
  {
    BatchResult cold =
        Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
    EXPECT_EQ(cold.cache_hits, 0u);
  }

  // Open the enterprise firewall wide: the policy fingerprint of the
  // private/quarantined subnets' ACL changes, so their canonical keys -
  // and with them the cache lines - no longer apply.
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);

  BatchResult after =
      Engine(e.model, cached_options(dir.path)).run_batch(e.invariants);
  // The edited problems miss and re-solve...
  EXPECT_GT(after.cache_misses, 0u);
  EXPECT_GT(after.solver_calls, 0u);
  // ...and the verdicts match an uncached run on the edited model exactly
  // (no stale inheritance from the pre-edit cache).
  EngineOptions uncached{.batch = true, .jobs = 2};
  uncached.verify.solver.seed = 7;
  BatchResult reference = Engine(e.model, uncached).run_batch(e.invariants);
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(after.results[i].outcome, reference.results[i].outcome) << i;
  }
  // The open firewall must actually flip something, or this test proves
  // nothing about invalidation.
  bool any_violated = false;
  for (const VerifyResult& r : after.results) {
    any_violated |= r.outcome == Outcome::violated;
  }
  EXPECT_TRUE(any_violated);
}

TEST(ResultCacheBatch, DisabledCacheLeavesOutcomesIdentical) {
  scenarios::Datacenter dc = make_datacenter_small();
  const scenarios::Batch batch = dc.batch();
  TempCacheDir dir;

  EngineOptions plain{.batch = true, .jobs = 2};
  plain.verify.solver.seed = 7;
  BatchResult uncached = Engine(dc.model, plain).run_batch(batch.invariants);
  EXPECT_EQ(uncached.cache_hits, 0u);
  EXPECT_EQ(uncached.cache_misses, 0u);

  BatchResult cached =
      Engine(dc.model, cached_options(dir.path)).run_batch(batch.invariants);
  ASSERT_EQ(cached.results.size(), uncached.results.size());
  for (std::size_t i = 0; i < uncached.results.size(); ++i) {
    EXPECT_EQ(cached.results[i].outcome, uncached.results[i].outcome) << i;
    EXPECT_EQ(cached.results[i].raw_status, uncached.results[i].raw_status)
        << i;
    EXPECT_EQ(cached.results[i].slice_size, uncached.results[i].slice_size)
        << i;
    EXPECT_EQ(cached.results[i].assertion_count,
              uncached.results[i].assertion_count)
        << i;
    EXPECT_EQ(cached.results[i].by_symmetry, uncached.results[i].by_symmetry)
        << i;
    EXPECT_FALSE(uncached.results[i].from_cache) << i;
  }
}

TEST(ResultCacheBatch, UnknownOutcomesAreNeverPersisted) {
  // A 1 ms budget on whole-network datacenter checks cannot complete; the
  // resulting unknowns must not be stored (a later run with a real budget
  // has to re-solve them).
  scenarios::Datacenter dc = make_datacenter_small();
  const scenarios::Batch batch = dc.batch();
  TempCacheDir dir;

  EngineOptions opts = cached_options(dir.path);
  opts.verify.use_slices = false;  // whole network: decisively too big
  opts.verify.solver.timeout_ms = 1;
  BatchResult r = Engine(dc.model, opts).run_batch(batch.invariants);
  bool all_unknown = true;
  for (const VerifyResult& res : r.results) {
    all_unknown &= res.outcome == Outcome::unknown;
  }
  if (!all_unknown) {
    GTEST_SKIP() << "solver finished within 1 ms; nothing to assert";
  }
  ResultCache reloaded(dir.path);
  EXPECT_EQ(reloaded.size(), 0u);
}

}  // namespace
}  // namespace vmn::verify
