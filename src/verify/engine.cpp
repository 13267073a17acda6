#include "verify/engine.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <set>
#include <utility>

#include "io/spec.hpp"

namespace vmn::verify {

using Clock = std::chrono::steady_clock;

namespace {

// Fingerprinting serializes the model's spec projection, which throws for
// middlebox types the io layer cannot name (e.g. test-local subclasses).
// Only a configured cache needs the stamp, so cacheless engines - the only
// place such models are legal - never pay or throw.
std::uint64_t cache_stamp(const encode::NetworkModel& model,
                          const EngineOptions& options) {
  const bool cached =
      !options.verify.cache_dir.empty() || options.memory_cache;
  return cached ? model_fingerprint(model) : 0;
}

/// This process's user and kernel CPU time so far, all threads summed.
struct CpuTimes {
  std::chrono::microseconds user{0};
  std::chrono::microseconds sys{0};
};

CpuTimes process_cpu_times() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return {};
  auto us = [](const timeval& tv) {
    return std::chrono::seconds(tv.tv_sec) +
           std::chrono::microseconds(tv.tv_usec);
  };
  return {us(usage.ru_utime), us(usage.ru_stime)};
}

/// [begin, end) ranges over the solve list, one per process-executor group.
using Groups = std::vector<std::pair<std::size_t, std::size_t>>;

/// Runs of same-shape jobs (the planner made them adjacent, and dropping
/// cache-answered jobs preserves adjacency) become single groups, so one
/// warm session solves each run back to back. "Same shape" means the same
/// *base encoding* - identical member sets, or member sets rebound onto one
/// isomorphic representative (Job::encode_members). When there are fewer
/// runs than `width` workers, the largest runs are split until the fan-out
/// is restored - otherwise a batch whose jobs all share one shape (e.g.
/// --no-slices audits) would serialize onto a single worker. Deterministic
/// for a fixed (plan, width) pair: the first largest run splits at its
/// midpoint each round.
Groups shape_groups(const JobPlan& plan,
                    const std::vector<std::size_t>& to_solve,
                    std::size_t width) {
  Groups groups;
  for (std::size_t k = 0; k < to_solve.size();) {
    std::size_t end = k + 1;
    while (end < to_solve.size() &&
           plan.jobs[to_solve[end]].encode_members() ==
               plan.jobs[to_solve[k]].encode_members()) {
      ++end;
    }
    groups.emplace_back(k, end);
    k = end;
  }
  const std::size_t target = std::min(width, to_solve.size());
  while (groups.size() < target) {
    std::size_t best = groups.size();
    std::size_t best_len = 1;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::size_t len = groups[g].second - groups[g].first;
      if (len > best_len) {
        best = g;
        best_len = len;
      }
    }
    if (best == groups.size()) break;  // nothing left to split
    const auto [begin, end] = groups[best];
    const std::size_t mid = begin + (end - begin) / 2;
    groups[best] = {begin, mid};
    groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(best) + 1,
                  {mid, end});
  }
  return groups;
}

}  // namespace

Engine::Planning::Planning(const encode::NetworkModel& model,
                           const VerifyOptions& options)
    : ctx(model.network()),
      classes(build_policy_classes(model, options, ctx)) {}

Engine::Engine(const encode::NetworkModel& model, EngineOptions options)
    : model_(&model), options_(std::move(options)),
      cache_(options_.verify.cache_dir, cache_stamp(model, options_),
             options_.memory_cache) {}

Engine::Planning& Engine::planning() {
  if (!planning_) {
    planning_ = std::make_unique<Planning>(*model_, options_.verify);
  }
  return *planning_;
}

JobPlan Engine::plan(const std::vector<encode::Invariant>& invariants) {
  Planning& p = planning();
  return plan_jobs(*model_, invariants, p.classes, options_.use_symmetry,
                   options_.verify, &p.ctx);
}

VerifyResult Engine::run_one(const encode::Invariant& invariant) {
  Planning& p = planning();
  std::vector<NodeId> members =
      slice_members(*model_, invariant, p.classes, options_.verify.use_slices,
                    options_.verify.max_failures, &p.ctx.transfers);
  // The session runs on this thread, so it may borrow the planning
  // context's transfer memo: encoding re-walks nothing the slice
  // computation (or class inference) walked.
  SolverSession session(options_.verify.solver, /*warm=*/true,
                        &p.ctx.transfers);
  session.set_resilience(session_resilience(options_.verify));
  return verify_members(*model_, invariant, std::move(members),
                        options_.verify.max_failures, session);
}

void Engine::rebind(const encode::NetworkModel& model) {
  rebind(model, cache_.enabled() ? model_fingerprint(model) : 0);
}

void Engine::rebind(const encode::NetworkModel& model,
                    std::uint64_t fingerprint) {
  model_ = &model;
  // The cache survives the edit: same file (or memory), new stamping
  // generation. Unchanged problems keep their canonical keys and hit;
  // records the edit orphaned are retired at the flush after the next
  // batch proves them dead (see ResultCache).
  if (cache_.enabled()) cache_.set_model_fingerprint(fingerprint);
  session_.reset();
  planning_.reset();
}

BatchResult Engine::run_batch(
    const std::vector<encode::Invariant>& invariants) {
  return run_batch(invariants, options_.use_symmetry);
}

BatchResult Engine::run_batch(
    const std::vector<encode::Invariant>& invariants, bool use_symmetry) {
  const auto start = Clock::now();
  const CpuTimes cpu_start = process_cpu_times();
  Deadline deadline;
  if (options_.deadline.count() > 0) deadline = start + options_.deadline;
  BatchResult out;
  out.results.resize(invariants.size());

  Planning& p = planning();
  const JobPlan plan = plan_jobs(*model_, invariants, p.classes, use_symmetry,
                                 options_.verify, &p.ctx);
  out.plan_time = plan.plan_time;
  out.iso_mapped = plan.iso_mapped;
  out.pool.jobs_executed = plan.planned_jobs();
  for (const Job& job : plan.jobs) {
    out.pool.iso_class_sizes.push_back(job.fan_out());
  }

  // Cache faults (torn tails, bit flips) bite whichever executor runs. The
  // injector lives for this call only, so it is unset on every way out.
  const FaultInjector cache_faults(options_.verify.faults);
  struct InjectorScope {
    ResultCache& cache;
    ~InjectorScope() { cache.set_fault_injector(nullptr); }
  } injector_scope{cache_};
  if (cache_faults.enabled()) cache_.set_fault_injector(&cache_faults);

  // Cache pass: every class looks itself up once by its cross-run problem
  // key (its bindings share the key); a class is solved only on a miss.
  std::vector<std::optional<ResultCache::Entry>> hits(plan.jobs.size());
  std::vector<std::size_t> to_solve;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const std::string& key = plan.jobs[j].problem_key.key;
    if (!key.empty()) hits[j] = cache_.lookup(key);
    if (hits[j]) {
      ++out.cache_hits;
    } else {
      to_solve.push_back(j);
    }
  }

  const std::vector<std::optional<VerifyResult>> solved =
      execute(plan, to_solve, deadline, out);

  // Bind: each class's verdict fans out to its bindings - a cache hit
  // through each binding's own polarity (result_from_cache), a solve
  // through each binding's inverse bijection (bind_result); every binding
  // past the representative is a replay (by_symmetry, and
  // iso_verdict_reuses when solved). Each solve's session traffic
  // (SolveFacts) is counted here, once, whichever executor solved it; a
  // solve whose result never arrived counts nothing. Abandoned classes bind
  // the default unknown verdict; they count cache misses but store nothing
  // (unknown outcomes are never persisted).
  const VerifyResult abandoned{};
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    const Job& job = plan.jobs[j];
    const VerifyResult& result = solved[j] ? *solved[j] : abandoned;
    if (solved[j]) {
      const SolveFacts& s = result.solve;
      out.pool.solve_histogram.record(result.solve_time);
      ++out.solver_calls;
      ++(s.warm_reused ? out.warm_reuses : out.warm_binds);
      if (s.warm_reused && !job.iso_image.empty()) ++out.iso_reuses;
      out.encode_transfer_builds += s.transfer_builds;
      out.encode_transfer_reuses += s.transfer_reuses;
      out.degradation.escalations += s.escalated;
      out.degradation.escalations_rescued += s.escalation_rescued;
      out.iso_verdict_reuses += job.bindings.size();
    }
    // Keyless classes (no-symmetry planning, or a problem that resists
    // canonicalization) are outside the cache's reach; they are not misses.
    if (!hits[j] && cache_.enabled() && !job.problem_key.key.empty()) {
      ++out.cache_misses;
      ResultCache::Entry entry;
      entry.status = result.raw_status;
      entry.slice_size = result.slice_size;
      entry.assertion_count = result.assertion_count;
      entry.binding = binding_signature(*model_, job.problem_key.order);
      cache_.store(job.problem_key.key, entry);
    }
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      VerifyResult bound =
          hits[j] ? result_from_cache(*hits[j], invariants[b.invariant_index])
                  : bind_result(*model_, result, *b.members, *b.iso_image);
      bound.by_symmetry = k > 0;
      out.results[b.invariant_index] = std::move(bound);
    }
  }

  cache_.flush();
  out.degradation.cache_records_dropped = cache_.records_dropped();
  // Every executor abandons whole classes, the unit jobs_executed counts.
  const std::size_t abandoned_jobs = out.degradation.abandoned();
  out.degradation.completed = out.pool.jobs_executed > abandoned_jobs
                                  ? out.pool.jobs_executed - abandoned_jobs
                                  : 0;
  out.total_time = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - start);
  const CpuTimes cpu_end = process_cpu_times();
  out.cpu_user_time = cpu_end.user - cpu_start.user;
  out.cpu_sys_time = cpu_end.sys - cpu_start.sys;
  return out;
}

std::vector<std::optional<VerifyResult>> Engine::execute(
    const JobPlan& plan, const std::vector<std::size_t>& to_solve,
    Deadline deadline, BatchResult& out) {
  std::vector<std::optional<VerifyResult>> results(plan.jobs.size());
  const VerifyOptions& vo = options_.verify;

  if (!options_.batch) {
    // Inline: one session for the Engine's lifetime (until rebind), warm
    // across groups and batches, borrowing the planning context's transfer
    // memo - the planner already walked every in-budget scenario, so
    // encoding builds no transfer function at all. The solve list is
    // already in shape-group order. Each job is checked against the
    // deadline first: past it, the slot stays empty (abandoned) and the
    // loop keeps draining so every job is accounted.
    if (!session_) {
      session_ = std::make_unique<SolverSession>(
          vo.solver, vo.warm_solving, &planning().ctx.transfers);
      session_->set_resilience(session_resilience(vo));
    }
    std::size_t skipped = 0;
    for (std::size_t j : to_solve) {
      if (deadline && Clock::now() >= *deadline) {
        ++skipped;
        continue;
      }
      const Job& job = plan.jobs[j];
      results[j] = verify_members(*model_, job.solve_invariant,
                                  job.encode_members(), vo.max_failures,
                                  *session_);
    }
    if (skipped != 0) {
      out.degradation.deadline_abandoned += skipped;
      out.degradation.deadline_expired = true;
      out.degradation.reasons.push_back("deadline expired with " +
                                        std::to_string(skipped) +
                                        " jobs not yet attempted");
    }
    return results;
  }

  // Process: project each group's slice to a spec, frame the jobs by
  // name, and stream them to forked workers; crashed or hung workers get
  // their unfinished jobs requeued onto the survivors. The verify options
  // carry the fault plan and escalation policy, so the CLI's --faults /
  // --no-escalate reach the workers unchanged.
  const ProcessPool pool(options_.jobs, vo, options_.process);
  const Groups groups = shape_groups(plan, to_solve, pool.workers());
  std::vector<wire::WireJob> wire_jobs;
  wire_jobs.reserve(to_solve.size());
  for (std::size_t j : to_solve) {
    wire_jobs.push_back(
        wire::make_wire_job(*model_, plan.jobs[j], vo.max_failures));
  }
  std::vector<ProcessGroup> process_groups;
  process_groups.reserve(groups.size());
  for (const auto& [begin, end] : groups) {
    ProcessGroup group;
    // The projection must contain every node the group's jobs reference.
    // Jobs cross the pipe in encode space, so that is exactly the union
    // of encode member sets - a merged class's own member sets never
    // travel; bindings are relabeled dispatcher-side.
    std::set<NodeId> span;
    for (std::size_t k = begin; k < end; ++k) {
      const Job& job = plan.jobs[to_solve[k]];
      span.insert(job.encode_members().begin(), job.encode_members().end());
    }
    group.spec_text = io::write_projected_spec_string(
        *model_, std::vector<NodeId>(span.begin(), span.end()));
    for (std::size_t k = begin; k < end; ++k) group.jobs.push_back(k);
    process_groups.push_back(std::move(group));
  }
  // The pool honours the batch deadline measured from run_batch entry and
  // counts its fleet and abandonments straight into `out`.
  ProcessDispatch dispatch = pool.run(wire_jobs, std::move(process_groups),
                                      deadline, out.pool, out.degradation);
  out.pool.workers = std::move(dispatch.workers);
  for (std::size_t k = 0; k < to_solve.size(); ++k) {
    if (!dispatch.results[k]) continue;  // abandoned, counted by the pool
    const wire::WireResult& r = *dispatch.results[k];
    try {
      results[to_solve[k]] = wire::to_verify_result(model_->network(), r);
    } catch (const wire::WireError&) {
      // A digest-valid result naming nodes this model lacks (byzantine or
      // version-skewed worker binary): abandon the one job to an unknown
      // verdict instead of aborting a batch full of good ones.
      ++out.degradation.abandoned_retries;
      out.degradation.reasons.push_back(
          "job " + std::to_string(to_solve[k]) +
          " abandoned: result names nodes unknown to this model");
    }
  }
  return results;
}

BatchResult run_batch(const encode::NetworkModel& model,
                      const std::vector<encode::Invariant>& invariants,
                      const EngineOptions& options) {
  Engine engine(model, options);
  return engine.run_batch(invariants);
}

}  // namespace vmn::verify
