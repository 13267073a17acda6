#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <istream>
#include <optional>

#include "core/hash.hpp"
#include "core/rng.hpp"
#include "io/spec.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"

namespace vmn::bench {

namespace {

using encode::Invariant;
using verify::Outcome;

/// Fisher-Yates over Rng::uniform, so a seed means the same order with
/// every standard library.
template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(items[i - 1], items[j]);
  }
}

std::vector<Outcome> outcomes_of(const std::vector<bool>& holds) {
  std::vector<Outcome> out;
  for (bool h : holds) out.push_back(h ? Outcome::holds : Outcome::violated);
  return out;
}

std::string spec_text(encode::NetworkModel&& model,
                      std::vector<Invariant> invariants) {
  io::Spec spec;
  spec.model = std::move(model);
  spec.expectations.resize(invariants.size());
  spec.invariants = std::move(invariants);
  return io::write_spec_string(spec);
}

bool decided(const std::vector<Outcome>& verdicts) {
  return std::find(verdicts.begin(), verdicts.end(), Outcome::unknown) ==
         verdicts.end();
}

/// The no-reuse reference: sequential, cold solving, no symmetry, so no
/// expected verdict rests on a merge, a warm context or a cache.
std::vector<Outcome> reference_verdicts(const io::Spec& spec, int max_failures,
                                        std::uint32_t timeout_ms) {
  verify::EngineOptions options;
  options.use_symmetry = false;
  options.verify.warm_solving = false;
  options.verify.merge_isomorphic = false;
  options.verify.max_failures = max_failures;
  options.verify.solver.timeout_ms = timeout_ms;
  return verdicts_of(verify::run_batch(spec.model, spec.invariants, options));
}

/// A spec of `model` with `invariants` (expected to hold where `holds`
/// says so) listed in seed order.
SpecCase shuffled_spec(std::string name, encode::NetworkModel&& model,
                       const std::vector<Invariant>& invariants,
                       const std::vector<bool>& holds, Rng& rng) {
  std::vector<std::size_t> order(invariants.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  SpecCase c;
  c.name = std::move(name);
  std::vector<Invariant> ordered;
  for (std::size_t i : order) {
    ordered.push_back(invariants[i]);
    c.expected.push_back(holds[i] ? Outcome::holds : Outcome::violated);
  }
  c.text = spec_text(std::move(model), std::move(ordered));
  return c;
}

Workload enterprise_wide(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "enterprise-wide";
  scenarios::Enterprise ent =
      scenarios::make_enterprise({smoke ? 12 : 90, 2});
  Rng rng(seed);
  w.specs.push_back(shuffled_spec("enterprise", std::move(ent.model),
                                  ent.invariants, ent.expected_holds, rng));
  return w;
}

/// inject_misconfig draws the group it breaks from its Rng: the generator
/// whose first draw is `group`, so a sweep can break each group once.
Rng rng_drawing(int group, int groups) {
  for (std::uint64_t s = 0;; ++s) {
    Rng probe(s);
    if (probe.uniform(0, groups - 1) == group) return Rng(s);
  }
}

/// A §5.1 failover datacenter (redundant FW/IDPS, one failure allowed) or
/// the §5.2 storage datacenter (cache + LB, no failures) with one
/// misconfiguration, invariants in seed order. Expected verdicts follow
/// from the pairs the injection broke: a deleted deny rule (on both
/// firewalls, or on the backup that one failure activates) breaks that
/// pair's isolation, the failover bypass breaks every IDPS traversal, and
/// a deleted cache entry breaks that pair's data isolation.
SpecCase datacenter_spec(scenarios::DcMisconfig kind, int group, Rng& order,
                         bool smoke) {
  using scenarios::DcMisconfig;
  const bool storage = kind == DcMisconfig::cache_acl;
  const int groups = storage ? (smoke ? 2 : 4) : (smoke ? 4 : 8);
  scenarios::Datacenter dc =
      scenarios::make_datacenter({groups, 2, storage, true});
  Rng pick = rng_drawing(group, groups);
  scenarios::inject_misconfig(dc, kind, pick);
  std::vector<Invariant> invariants;
  std::vector<bool> holds;
  auto add = [&](const std::vector<Invariant>& family, auto broken) {
    for (int g = 0; g < groups; ++g) {
      invariants.push_back(family[static_cast<std::size_t>(g)]);
      holds.push_back(!broken(g));
    }
  };
  const bool breaks_isolation =
      kind == DcMisconfig::rules || kind == DcMisconfig::redundancy;
  add(dc.isolation_invariants(), [&](int g) {
    return breaks_isolation && dc.pair_broken(g, (g + 1) % groups);
  });
  add(dc.traversal_invariants(), [&](int g) {
    return kind == DcMisconfig::traversal && dc.pair_broken(g, g);
  });
  if (storage) {
    add(dc.data_isolation_invariants(),
        [&](int g) { return dc.pair_broken(g, (g + 1) % groups); });
  }
  static const char* const kNames[] = {"none", "rules", "redundancy",
                                       "traversal", "storage"};
  SpecCase c = shuffled_spec(
      std::string(kNames[static_cast<int>(kind)]) +
          (kind == DcMisconfig::traversal ? "" : "-g" + std::to_string(group)),
      std::move(dc.model), invariants, holds, order);
  c.max_failures = storage ? 0 : 1;
  return c;
}

Workload datacenter_failover(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "datacenter-failover";
  w.batch = true;
  w.process_backend = true;
  w.jobs = 2;
  // Every misconfiguration the §5.1 injector can make - one deny rule
  // deleted per group, from both firewalls or from the backup only, and
  // the failover IDPS bypass - plus one storage spec. Solve times swing
  // severalfold with which group is broken, so the seed orders specs and
  // invariants but does not pick the problems. The storage spec always
  // breaks the same group for the same reason; it is the set-up probe.
  using scenarios::DcMisconfig;
  Rng order(seed);
  w.specs.push_back(datacenter_spec(DcMisconfig::cache_acl, smoke ? 1 : 3,
                                    order, smoke));
  for (DcMisconfig kind : {DcMisconfig::rules, DcMisconfig::redundancy}) {
    for (int g = 0; g < (smoke ? 4 : 8); ++g) {
      w.specs.push_back(datacenter_spec(kind, g, order, smoke));
    }
  }
  w.specs.push_back(datacenter_spec(DcMisconfig::traversal, 0, order, smoke));
  std::vector<SpecCase> rotation(w.specs.begin() + 1, w.specs.end());
  shuffle(rotation, order);
  std::copy(rotation.begin(), rotation.end(), w.specs.begin() + 1);
  return w;
}

Workload zoo_shell() {
  Workload w;
  w.name = "zoo-random";
  w.batch = true;
  w.jobs = 2;
  return w;
}

/// Corpus spec "zoo<seed>": the random generator's spec for that seed.
SpecCase zoo_spec(std::uint64_t generator_seed) {
  scenarios::RandomSpecParams p;
  p.seed = generator_seed;
  p.min_hosts = 3;
  p.max_hosts = 6;
  p.max_switches = 4;
  p.max_middleboxes = 3;
  p.max_scenarios = 2;
  p.min_invariants = 4;
  p.max_invariants = 8;
  scenarios::RandomSpec r = scenarios::make_random_spec(p);
  SpecCase c;
  c.name = "zoo" + std::to_string(generator_seed);
  c.max_failures = scenarios::derived_max_failures(r.spec.model);
  c.text = std::move(r.text);
  return c;
}

/// The corpus screen. Content caches are left out: their solve times for
/// same-sized specs range from 50 ms to 5 s, more than any bound on the
/// seed-to-seed spread survives (datacenter-failover covers caches). The
/// rest joins when the workload's own engine decides every invariant
/// within 1 s in all and the cold reference decides them alike: a few
/// random specs in a thousand take Z3 tens of seconds or end unknown, and
/// a workload must not fail operations.
std::optional<SpecCase> screen_zoo(std::uint64_t generator_seed,
                                   const Workload& w) {
  SpecCase c = zoo_spec(generator_seed);
  if (c.text.find("\ncache ") != std::string::npos) return std::nullopt;
  const io::Spec spec = io::parse_spec_string(c.text);
  verify::EngineOptions options = w.engine_options("", c.max_failures);
  options.verify.solver.timeout_ms = 1000;
  options.verify.escalate_unknown = false;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<Outcome> engine =
      verdicts_of(verify::run_batch(spec.model, spec.invariants, options));
  if (std::chrono::steady_clock::now() - start > std::chrono::seconds(1) ||
      !decided(engine)) {
    return std::nullopt;
  }
  c.expected = reference_verdicts(spec, c.max_failures, 5000);
  if (c.expected != engine) return std::nullopt;
  return c;
}

/// specs[0] is the corpus's first spec for every seed (the set-up probe,
/// so set-up times compare across seeds); the rest follow in seed order.
/// A run gets through ~200 of them, so each seed samples its own subset.
Workload zoo_random(std::uint64_t seed, bool smoke,
                    const std::vector<GoldenEntry>& corpus) {
  if (corpus.empty()) {
    throw Error("zoo-random needs its corpus, bench/e2e/golden/zoo-random.txt");
  }
  Workload w = zoo_shell();
  std::vector<std::size_t> order;
  for (std::size_t i = 1; i < corpus.size(); ++i) order.push_back(i);
  Rng rng(seed);
  shuffle(order, rng);
  order.insert(order.begin(), 0);
  order.resize(std::min<std::size_t>(order.size(), smoke ? 6 : order.size()));
  for (std::size_t i : order) {
    const GoldenEntry& e = corpus[i];
    SpecCase c = zoo_spec(std::stoull(e.name.substr(3)));
    if (c.name != e.name || fnv1a64(c.text) != e.digest) {
      throw Error("the zoo-random corpus no longer matches the generator (" +
                  e.name + "); rewrite it with --write-golden");
    }
    c.expected = e.verdicts;
    w.specs.push_back(std::move(c));
  }
  return w;
}

Workload serve_edit(std::uint64_t seed, bool smoke) {
  Workload w;
  w.name = "serve-edit";
  w.serve = true;
  const int segments = smoke ? 8 : 40;
  for (int s = 0; s < segments; ++s) {
    scenarios::Segmented seg =
        scenarios::make_segmented({segments, 4, s, -1});
    SpecCase c;
    c.name = "bypass" + std::to_string(s);
    c.expected = outcomes_of(seg.expected_holds);
    c.text = spec_text(std::move(seg.model), std::move(seg.invariants));
    w.specs.push_back(std::move(c));
  }
  // Each edit restores the bypassed segment and bypasses another, so every
  // reload does the same work. The schedule replays cyclically and the
  // daemon starts on its last spec.
  Rng rng(seed);
  constexpr std::size_t kCycles = 64;
  std::vector<std::size_t> bypass;
  while (bypass.size() < kCycles) {
    const auto s = static_cast<std::size_t>(rng.uniform(0, segments - 1));
    const bool repeats = !bypass.empty() && bypass.back() == s;
    const bool closes = bypass.size() + 1 == kCycles && bypass.front() == s;
    if (!repeats && !closes) bypass.push_back(s);
  }
  const std::size_t invariants = w.specs[0].expected.size();
  constexpr std::size_t kQueries = 12;
  for (std::size_t k = 0; k < kCycles; ++k) {
    const std::size_t prev = bypass[(k + kCycles - 1) % kCycles];
    // Per segment the generator emits no-malicious-delivery, then
    // traversal: always ask about both edited segments.
    ServeCycle cycle;
    cycle.spec = bypass[k];
    cycle.queries = {2 * prev, 2 * prev + 1, 2 * bypass[k], 2 * bypass[k] + 1};
    while (cycle.queries.size() < kQueries) {
      const auto q = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(invariants) - 1));
      if (std::find(cycle.queries.begin(), cycle.queries.end(), q) ==
          cycle.queries.end()) {
        cycle.queries.push_back(q);
      }
    }
    w.cycles.push_back(std::move(cycle));
  }
  w.initial_spec = bypass.back();
  return w;
}

}  // namespace

std::vector<std::string> Workload::engine_args() const {
  std::vector<std::string> args;
  if (process_backend) {
    args.push_back("--backend=process");
  } else if (batch) {
    args.push_back("--batch");
  }
  if (batch) {
    args.push_back("--jobs");
    args.push_back(std::to_string(jobs));
  }
  return args;
}

verify::EngineOptions Workload::engine_options(const std::string& vmn,
                                               int max_failures) const {
  verify::EngineOptions options;
  options.batch = batch;
  options.jobs = jobs;
  if (process_backend) {
    options.backend = verify::Backend::process;
    options.process.worker_command = {vmn, "worker"};
  }
  options.memory_cache = serve;
  options.verify.max_failures = max_failures;
  return options;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke, const std::vector<GoldenEntry>& corpus) {
  if (name == "enterprise-wide") return enterprise_wide(seed, smoke);
  if (name == "datacenter-failover") return datacenter_failover(seed, smoke);
  if (name == "zoo-random") return zoo_random(seed, smoke, corpus);
  if (name == "serve-edit") return serve_edit(seed, smoke);
  throw Error("unknown workload: " + name);
}

Workload golden_workload(const std::string& name, std::uint64_t seed) {
  if (name == "zoo-random") {
    constexpr std::size_t kCorpus = 600;
    Workload w = zoo_shell();
    for (std::uint64_t s = 0; w.specs.size() < kCorpus; ++s) {
      if (std::optional<SpecCase> c = screen_zoo(s, w)) {
        w.specs.push_back(std::move(*c));
      }
    }
    return w;
  }
  Workload w = make_workload(name, seed, false, {});
  w.specs.resize(std::min<std::size_t>(w.specs.size(), 24));
  for (SpecCase& c : w.specs) {
    c.expected = reference_verdicts(io::parse_spec_string(c.text),
                                    c.max_failures,
                                    verify::VerifyOptions{}.solver.timeout_ms);
    if (!decided(c.expected)) {
      throw Error("the reference run left an invariant of " + c.name +
                  " unknown");
    }
  }
  return w;
}

std::string golden_listing(const Workload& workload) {
  std::string out;
  char digest[20];
  for (const SpecCase& s : workload.specs) {
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(fnv1a64(s.text)));
    out += s.name + " " + digest + " ";
    for (Outcome o : s.expected) out += o == Outcome::holds ? 'H' : 'V';
    out += '\n';
  }
  return out;
}

std::vector<GoldenEntry> parse_golden(std::istream& in) {
  std::vector<GoldenEntry> out;
  std::string name, digest, verdicts;
  while (in >> name >> digest >> verdicts) {
    GoldenEntry e;
    e.name = name;
    e.digest = std::stoull(digest, nullptr, 16);
    for (char v : verdicts) {
      e.verdicts.push_back(v == 'H' ? Outcome::holds : Outcome::violated);
    }
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<Outcome> parse_verify_output(const std::string& out) {
  // One line per invariant: "<kind>(<nodes>)  <verdict> ...". Descriptions
  // end at their first ')' (node names hold none); summary lines have none.
  std::vector<Outcome> verdicts;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::string line = out.substr(pos, eol - pos);
    pos = eol + 1;
    const std::size_t paren = line.find(')');
    if (line.empty() || line[0] == ' ' || paren == std::string::npos) continue;
    const std::size_t word = line.find_first_not_of(' ', paren + 1);
    if (word == std::string::npos) continue;
    const std::string verdict = line.substr(word, line.find(' ', word) - word);
    if (verdict == "holds") {
      verdicts.push_back(Outcome::holds);
    } else if (verdict == "violated") {
      verdicts.push_back(Outcome::violated);
    } else if (verdict == "unknown") {
      verdicts.push_back(Outcome::unknown);
    }
  }
  return verdicts;
}

std::vector<Outcome> verdicts_of(const verify::BatchResult& batch) {
  std::vector<Outcome> out;
  for (const verify::VerifyResult& r : batch.results) out.push_back(r.outcome);
  return out;
}

void Tally::verdicts(const std::vector<Outcome>& expected,
                     const std::vector<Outcome>& got) {
  attempted += expected.size();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (i >= got.size() || got[i] != expected[i]) ++failed;
  }
  if (got.size() > expected.size()) failed += got.size() - expected.size();
}

}  // namespace vmn::bench
