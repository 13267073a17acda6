#include "verify/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "core/hash.hpp"
#include "io/spec.hpp"

namespace vmn::verify {

std::string to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::holds:
      return "holds";
    case Outcome::violated:
      return "violated";
    case Outcome::unknown:
      return "unknown";
  }
  return "?";
}

std::chrono::microseconds TimingHistogram::percentile(double p) const {
  if (raw.empty()) return std::chrono::microseconds{0};
  std::vector<std::chrono::microseconds> sorted = raw;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with at least p% of the samples at
  // or below it (p clamped into [0, 100]).
  const double clamped = p < 0.0 ? 0.0 : (p > 100.0 ? 100.0 : p);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

std::vector<Metric> BatchResult::metrics() const {
  auto us = [](std::chrono::microseconds d) {
    return static_cast<std::uint64_t>(d.count());
  };
  std::chrono::microseconds busy{0};
  for (const WorkerStats& w : pool.workers) busy += w.busy;
  const TimingHistogram& solves = pool.solve_histogram;
  return {
      {"invariants", results.size()},
      {"jobs_executed", pool.jobs_executed},
      {"solver_calls", solver_calls},
      {"plan_us", us(plan_time)},
      {"total_us", us(total_time)},
      {"cpu_user_us", us(cpu_user_time)},
      {"cpu_sys_us", us(cpu_sys_time)},
      {"solve_p50_us", us(solves.percentile(50))},
      {"solve_p95_us", us(solves.percentile(95))},
      {"solve_max_us", us(solves.percentile(100))},
      {"cache_hits", cache_hits},
      {"cache_misses", cache_misses},
      {"cache_records_dropped", degradation.cache_records_dropped},
      {"warm_binds", warm_binds},
      {"warm_reuses", warm_reuses},
      {"iso_mapped", iso_mapped},
      {"iso_reuses", iso_reuses},
      {"iso_verdict_reuses", iso_verdict_reuses},
      {"encode_transfer_builds", encode_transfer_builds},
      {"encode_transfer_reuses", encode_transfer_reuses},
      {"escalations", degradation.escalations},
      {"escalations_rescued", degradation.escalations_rescued},
      {"completed", degradation.completed},
      {"abandoned_retries", degradation.abandoned_retries},
      {"quarantined", degradation.quarantined},
      {"deadline_abandoned", degradation.deadline_abandoned},
      {"jobs_abandoned", degradation.abandoned()},
      {"deadline_expired", degradation.deadline_expired ? 1u : 0u},
      {"workers", pool.workers.size()},
      {"workers_spawned", pool.workers_spawned},
      {"workers_crashed", pool.workers_crashed},
      {"workers_respawned", degradation.workers_respawned},
      {"jobs_requeued", pool.jobs_requeued},
      {"worker_busy_us", us(busy)},
  };
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += m.name;
    out += "\":";
    out += std::to_string(m.value);
  }
  return out + '}';
}

slice::PolicyClasses build_policy_classes(const encode::NetworkModel& model,
                                          const VerifyOptions& options,
                                          PlanContext& ctx) {
  // The reachability refinement walks every (host, scenario) pair through
  // the verifier's own TransferCache - warming the exact memo the plan
  // passes draw from later - and the refinement budget mirrors the
  // verification budget so the class relation splits on exactly the
  // scenarios the solver will see.
  slice::PolicyClassOptions popts;
  popts.max_failures = options.max_failures;
  popts.transfers = &ctx.transfers;
  return slice::infer_policy_classes(model, popts);
}

VerifyResult result_from_cache(const ResultCache::Entry& entry,
                               const encode::Invariant& invariant) {
  VerifyResult result;
  result.raw_status = entry.status;
  switch (entry.status) {
    case smt::CheckStatus::sat:
      result.outcome =
          invariant.sat_means_holds() ? Outcome::holds : Outcome::violated;
      break;
    case smt::CheckStatus::unsat:
      result.outcome =
          invariant.sat_means_holds() ? Outcome::violated : Outcome::holds;
      break;
    case smt::CheckStatus::unknown:
      result.outcome = Outcome::unknown;  // never stored; defensive
      break;
  }
  result.slice_size = entry.slice_size;
  result.assertion_count = entry.assertion_count;
  result.from_cache = true;
  return result;
}

namespace {

/// The representative node playing `node`'s part under `iso`; throws when
/// the node is not a slice member (the planner never maps such a job).
NodeId iso_forward(const IsoBinding& iso, NodeId node) {
  auto it = std::lower_bound(iso.members.begin(), iso.members.end(), node);
  if (it == iso.members.end() || *it != node) {
    throw ModelError("iso binding does not cover an invariant node");
  }
  return iso.image[static_cast<std::size_t>(it - iso.members.begin())];
}

/// The invariant as the representative encoding sees it: same kind and
/// type prefix, target/other pushed through the bijection. The planner
/// only attaches a binding when every referenced node is a member and, for
/// traversal invariants, the name-prefix selection is preserved.
encode::Invariant iso_invariant(const IsoBinding& iso,
                                const encode::Invariant& invariant) {
  encode::Invariant mapped = invariant;
  mapped.target = iso_forward(iso, invariant.target);
  if (invariant.other.valid()) {
    mapped.other = iso_forward(iso, invariant.other);
  }
  return mapped;
}

/// Relabels a representative-namespace witness back into the job's own:
/// nodes through the inverse bijection, packet addresses (src, dst,
/// origin) through the inverse of the induced address map (representative
/// host/implicit addresses back to the slice's own). Values outside the
/// maps - Omega, and model values the solver chose outside the relevant
/// set - pass through unchanged; the soundness-critical fields (the
/// receive at the target, the witness sender's address) are always pinned
/// to relevant addresses by the invariant axioms, hence always mapped.
Trace relabel_witness(const encode::NetworkModel& model, const IsoBinding& iso,
                      const Trace& trace) {
  std::map<NodeId, NodeId> node_back;
  std::map<Address, Address> addr_back;
  const net::Network& net = model.network();
  for (std::size_t i = 0; i < iso.members.size(); ++i) {
    const NodeId own = iso.members[i];
    const NodeId rep = iso.image[i];
    node_back[rep] = own;
    const net::Node& rep_node = net.node(rep);
    if (rep_node.kind == net::NodeKind::host) {
      addr_back[rep_node.address] = net.node(own).address;
    } else if (const mbox::Middlebox* rep_box = model.middlebox_at(rep)) {
      const mbox::Middlebox* own_box = model.middlebox_at(own);
      const std::vector<Address> rep_addrs = rep_box->implicit_addresses();
      const std::vector<Address> own_addrs = own_box->implicit_addresses();
      for (std::size_t k = 0; k < rep_addrs.size() && k < own_addrs.size();
           ++k) {
        addr_back[rep_addrs[k]] = own_addrs[k];
      }
    }
  }
  auto map_node = [&](NodeId n) {
    auto it = node_back.find(n);
    return it != node_back.end() ? it->second : n;
  };
  auto map_addr = [&](Address a) {
    auto it = addr_back.find(a);
    return it != addr_back.end() ? it->second : a;
  };
  Trace out;
  for (const Event& ev : trace.events()) {
    Event mapped = ev;
    mapped.from = map_node(ev.from);
    mapped.to = map_node(ev.to);
    if (ev.kind == EventKind::send || ev.kind == EventKind::receive) {
      mapped.packet.src = map_addr(ev.packet.src);
      mapped.packet.dst = map_addr(ev.packet.dst);
      if (ev.packet.origin) mapped.packet.origin = map_addr(*ev.packet.origin);
    }
    out.add(mapped);
  }
  return out;
}

}  // namespace

namespace {

/// Stable identity of one solver problem, for deterministic fault-injection
/// decisions (FaultInjector::solver_fault). Built from node *names* so it
/// agrees between the dispatcher and a worker's re-parsed model - the fault
/// schedule of a plan depends on which problems run, never on which thread
/// or process runs them or in what order.
std::uint64_t solve_identity(const net::Network& net,
                             const encode::Invariant& invariant,
                             const std::vector<NodeId>& members,
                             int max_failures) {
  std::string key;
  key += std::to_string(static_cast<int>(invariant.kind));
  key += '|';
  if (invariant.target.valid()) key += net.name(invariant.target);
  key += '|';
  if (invariant.other.valid()) key += net.name(invariant.other);
  key += '|';
  key += invariant.type_prefix;
  key += '|';
  key += std::to_string(max_failures);
  for (NodeId m : members) {
    key += '|';
    key += net.name(m);
  }
  return fnv1a64(key);
}

}  // namespace

VerifyResult verify_members(const encode::NetworkModel& model,
                            const encode::Invariant& invariant,
                            std::vector<NodeId> members, int max_failures,
                            SolverSession& session) {
  VerifyResult result;

  // The problem arrives already in encode space: for iso-rebound jobs the
  // planner mapped the invariant into the representative's namespace
  // (Job::solve_invariant) and encode_members() IS the representative set.
  // The result - witness included - stays in encode space; callers fan it
  // out through bind_result per verdict binding.
  std::vector<NodeId> encode_members = std::move(members);
  const encode::Invariant& solved = invariant;
  const std::uint64_t solve_key =
      session.resilience().faults.enabled()
          ? solve_identity(model.network(), solved, encode_members,
                           max_failures)
          : 0;

  // One scoped check on a bound context: base axioms live at solver scope
  // level 0, the negated invariant is pushed, checked and retracted,
  // leaving the base - and the solver's learned state - warm for the next
  // invariant on this slice. `attempt` keys the fault decision: forced
  // unknowns are transient (attempt 0 only), forced timeouts persistent.
  auto solve_once = [&](SolverSession::WarmBound& bound,
                        std::uint32_t attempt) -> smt::CheckStatus {
    smt::Solver& solver = bound.solver;
    solver.push();
    for (const encode::Axiom& axiom :
         bound.encoding.invariant_axioms(solved)) {
      solver.add(axiom.term);
    }
    smt::CheckStatus status = solver.check();
    result.solve_time += solver.last_check_time();
    const FaultInjector::SolverFault fault =
        session.resilience().faults.solver_fault(solve_key, attempt);
    if (fault == FaultInjector::SolverFault::forced_timeout) {
      status = smt::CheckStatus::unknown;
      result.solve_time += std::chrono::milliseconds(
          session.options().timeout_ms);
    } else if (fault == FaultInjector::SolverFault::forced_unknown) {
      status = smt::CheckStatus::unknown;
    }
    result.raw_status = status;
    result.slice_size = bound.encoding.members().size();
    result.assertion_count = solver.assertion_count();

    // sat = counterexample exists = violated, except for positive
    // reachability invariants where sat is the desired witness.
    switch (status) {
      case smt::CheckStatus::sat:
        result.outcome =
            invariant.sat_means_holds() ? Outcome::holds : Outcome::violated;
        result.counterexample = extract_trace(bound.encoding, solver.model());
        break;
      case smt::CheckStatus::unsat:
        result.outcome =
            invariant.sat_means_holds() ? Outcome::violated : Outcome::holds;
        break;
      case smt::CheckStatus::unknown:
        result.outcome = Outcome::unknown;
        break;
    }
    solver.pop();
    return status;
  };

  // Transfer traffic is a fact of the encoding a bind built: a reused
  // context built nothing this solve.
  auto count_transfers = [&](const encode::Encoding& encoding) {
    result.solve.transfer_builds += encoding.transfer_builds();
    result.solve.transfer_reuses += encoding.transfer_reuses();
  };

  SolverSession::WarmBound warm =
      session.warm_bind(model, std::move(encode_members), max_failures);
  result.solve.warm_reused = warm.reused;
  if (!warm.reused) count_transfers(warm.encoding);
  smt::CheckStatus status = solve_once(warm, 0);

  // Unknown escalation: before accepting unknown, retry once on a fresh
  // context with the timeout multiplied and the solver seed perturbed. An
  // unknown that survives escalation is accepted (and still never cached);
  // a definitive escalated answer replaces it - widening only ever goes
  // the other way, so this cannot flip a verdict.
  if (status == smt::CheckStatus::unknown &&
      session.resilience().escalate_unknown) {
    SolverSession::WarmBound escalated = session.escalate_bind();
    result.solve.escalated = true;
    count_transfers(escalated.encoding);
    status = solve_once(escalated, 1);
    result.solve.escalation_rescued = status != smt::CheckStatus::unknown;
  }

  return result;
}

VerifyResult bind_result(const encode::NetworkModel& model,
                         const VerifyResult& solved,
                         const std::vector<NodeId>& members,
                         const std::vector<NodeId>& iso_image) {
  VerifyResult out = solved;
  // The verdict transfers verbatim (equisatisfiability is the planner's
  // problem-key and base-key contract, and the mapped invariants
  // share a kind, hence a sat polarity); only the witness needs to cross
  // back into the binding's own namespace.
  if (!iso_image.empty() && out.counterexample) {
    const IsoBinding iso{members, iso_image};
    out.counterexample = relabel_witness(model, iso, *out.counterexample);
  }
  return out;
}

namespace {

/// Whether `invariant` can cross the bijection (members[i] -> image[i])
/// into the representative's namespace: every referenced node must be a
/// member, and for traversal invariants the encoder's name-prefix
/// middlebox selection must pick corresponding boxes on both sides (names
/// are exactly what the bijection erases, so this is checked per job).
bool iso_covers_invariant(const encode::NetworkModel& model,
                          const std::vector<NodeId>& members,
                          const std::vector<NodeId>& image,
                          const encode::Invariant& invariant) {
  const net::Network& net = model.network();
  auto is_member = [&](NodeId n) {
    return std::binary_search(members.begin(), members.end(), n);
  };
  if (!invariant.target.valid() || !is_member(invariant.target)) return false;
  if (invariant.other.valid() && !is_member(invariant.other)) return false;
  if (invariant.kind == encode::InvariantKind::traversal) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (model.middlebox_at(members[i]) == nullptr) continue;
      if (net.name(members[i]).starts_with(invariant.type_prefix) !=
          net.name(image[i]).starts_with(invariant.type_prefix)) {
        return false;
      }
    }
  }
  return true;
}

/// The image rebinding `shape`'s member set onto the representative of its
/// base key (slice::canonical_base_key): the node of equal rank plays each
/// member's part. Empty when the set represents itself - the first with
/// its key becomes the representative.
std::vector<NodeId> rebind_image(const encode::NetworkModel& model,
                                 const slice::ShapeKey& shape,
                                 PlanContext& ctx, int max_failures) {
  const slice::ProblemKey base =
      slice::canonical_base_key(model, shape, max_failures, &ctx.transfers);
  if (base.key.empty()) return {};
  const std::vector<NodeId>& rep =
      ctx.shape_reps.try_emplace(base.key, base.order).first->second;
  if (rep == base.order) return {};
  std::vector<NodeId> image(shape.members.size());
  for (std::size_t r = 0; r < rep.size(); ++r) {
    const auto m = std::lower_bound(shape.members.begin(),
                                    shape.members.end(), base.order[r]);
    image[static_cast<std::size_t>(m - shape.members.begin())] = rep[r];
  }
  return image;
}

}  // namespace

std::vector<NodeId> slice_members(const encode::NetworkModel& model,
                                  const encode::Invariant& invariant,
                                  const slice::PolicyClasses& classes,
                                  bool use_slices, int max_failures,
                                  dataplane::TransferCache* transfers) {
  if (use_slices) {
    slice::SliceOptions options;
    options.max_failures = max_failures;
    options.transfers = transfers;
    slice::Slice s = slice::compute_slice(model, invariant, classes, options);
    return std::move(s.members);
  }
  return encode::all_edge_nodes(model);
}

std::string binding_signature(const encode::NetworkModel& model,
                              const std::vector<NodeId>& order) {
  std::string out;
  for (NodeId id : order) {
    if (!out.empty()) out += ",";
    out += model.network().name(id);
  }
  return out;
}

std::uint64_t model_fingerprint(const encode::NetworkModel& model) {
  // The serialized full-network projection covers exactly the spec-level
  // content verification depends on (topology, configurations, routes,
  // scenarios) and none of what it does not (invariants, expectations).
  return fnv1a64(
      io::write_projected_spec_string(model, encode::all_edge_nodes(model)));
}

JobPlan plan_jobs(const encode::NetworkModel& model,
                  const std::vector<encode::Invariant>& invariants,
                  const slice::PolicyClasses& classes, bool use_symmetry,
                  const VerifyOptions& options, PlanContext* shared_ctx) {
  const auto plan_start = std::chrono::steady_clock::now();
  JobPlan plan;
  plan.invariant_count = invariants.size();
  // One PlanContext across the pass: every compute_slice and canonical key
  // below shares the same per-scenario transfer functions (and their
  // accumulated walk memos) instead of rebuilding them per invariant. The
  // Engine passes its own context, already warm from class inference;
  // standalone callers plan on a local one.
  PlanContext local_ctx(model.network());
  PlanContext& ctx = shared_ctx != nullptr ? *shared_ctx : local_ctx;
  // Shape keys are memoized per distinct member set: every problem key and
  // the iso-rebinding decision below consume them.
  std::map<std::vector<NodeId>, slice::ShapeKey> shapes;
  auto shape_of = [&](const std::vector<NodeId>& members)
      -> const slice::ShapeKey& {
    auto it = shapes.find(members);
    if (it == shapes.end()) {
      it = shapes
               .emplace(members,
                        slice::canonical_shape_key(model, members,
                                                   options.max_failures,
                                                   &ctx.transfers))
               .first;
    }
    return it->second;
  };
  // Equivalence classes by exact problem identity (section 4.2's symmetry,
  // made exact): invariants whose problem keys are equal describe the same
  // verification problem up to a rank-preserving isomorphism (the key's
  // exactness contract, slice/symmetry.hpp), so the class needs ONE solver
  // call; later members of a class become verdict bindings of the first
  // and replay its verdict through a rank-aligned bijection. Without
  // symmetry planning no key is computed and every invariant solves alone
  // (the exhaustive baseline); merge_isomorphic off keeps the keys - the
  // cache still needs them - but solves every invariant itself.
  const bool merge = use_symmetry && options.merge_isomorphic;
  std::map<std::string, std::size_t> class_of;
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    const encode::Invariant& inv = invariants[i];
    std::vector<NodeId> members =
        slice_members(model, inv, classes, options.use_slices,
                      options.max_failures, &ctx.transfers);
    slice::ProblemKey key;
    if (use_symmetry) {
      key = slice::canonical_problem_key(model, shape_of(members), inv,
                                         options.max_failures, &ctx.transfers);
    }
    if (merge && !key.key.empty()) {
      auto [it, fresh] = class_of.emplace(key.key, plan.jobs.size());
      if (!fresh) {
        VerdictBinding binding;
        binding.invariant_index = i;
        binding.members = std::move(members);
        binding.problem_key = std::move(key);
        plan.jobs[it->second].bindings.push_back(std::move(binding));
        continue;
      }
    }
    Job job;
    job.invariant_index = i;
    job.members = std::move(members);
    job.problem_key = std::move(key);
    plan.jobs.push_back(std::move(job));
  }
  // Cross-isomorphic encoding reuse: a class representative whose base
  // key an earlier class (or batch) rendered is rebound onto that member
  // set, so one warm base encoding serves symmetric-but-renamed slices
  // whose problem keys (rightly) refused to merge verdicts. Off with warm
  // solving off: --no-warm is the cold encode-every-class baseline.
  if (options.warm_solving) {
    for (Job& job : plan.jobs) {
      // Images align with the normalized member list; a member list that
      // is not normalized (never produced by slice_members) encodes itself.
      const slice::ShapeKey& shape = shape_of(job.members);
      if (shape.members != job.members) continue;
      std::vector<NodeId> image =
          rebind_image(model, shape, ctx, options.max_failures);
      if (image.empty() ||
          !iso_covers_invariant(model, job.members, image,
                                invariants[job.invariant_index])) {
        continue;
      }
      job.iso_members = image;
      std::sort(job.iso_members.begin(), job.iso_members.end());
      job.iso_image = std::move(image);
      ++plan.iso_mapped;
    }
  }
  // Every job's encode-space invariant (every executor, wire workers
  // included, solves it verbatim) and every binding's rank-aligned image:
  // the binding's rank-r node plays the part of the representative's
  // rank-r node, invariant roles included, carried on into encode space
  // when the representative itself was rebound - which is what makes the
  // relabeled witness name the binding's own hosts.
  for (Job& job : plan.jobs) {
    const encode::Invariant& inv = invariants[job.invariant_index];
    const IsoBinding rebound{job.members, job.iso_image};
    job.solve_invariant =
        job.iso_image.empty() ? inv : iso_invariant(rebound, inv);
    for (VerdictBinding& binding : job.bindings) {
      const std::vector<NodeId>& rep_order = job.problem_key.order;
      std::map<NodeId, NodeId> g;
      for (std::size_t r = 0; r < rep_order.size(); ++r) {
        g.emplace(binding.problem_key.order[r],
                  job.iso_image.empty() ? rep_order[r]
                                        : iso_forward(rebound, rep_order[r]));
      }
      binding.iso_image.reserve(binding.members.size());
      for (NodeId m : binding.members) binding.iso_image.push_back(g.at(m));
    }
  }
  // Shape-adjacency ordering: jobs binding identical base encodings become
  // neighbors - identical member sets as before, plus member sets rebound
  // onto the same isomorphic representative (stable, so equal-shape jobs
  // keep their first-appearance order) - which is what lets a warm solver
  // session serve a whole run of jobs without rebinding. Ids are assigned
  // after the reorder so they stay positional.
  std::stable_sort(plan.jobs.begin(), plan.jobs.end(),
                   [](const Job& a, const Job& b) {
                     const std::vector<NodeId>& ea = a.encode_members();
                     const std::vector<NodeId>& eb = b.encode_members();
                     return ea != eb ? ea < eb : a.members < b.members;
                   });
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) plan.jobs[j].id = j;
  plan.transfer_builds = ctx.transfers.builds();
  plan.transfer_reuses = ctx.transfers.reuses();
  plan.plan_time = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - plan_start);
  return plan;
}

std::vector<MergeBlocker> merge_blockers(const encode::NetworkModel& model,
                                         const JobPlan& plan,
                                         int max_failures) {
  dataplane::TransferCache transfers(model.network());
  // The planner meets member sets in invariant order (class
  // representatives, before the shape-adjacency reorder).
  std::vector<const Job*> jobs;
  for (const Job& job : plan.jobs) jobs.push_back(&job);
  std::sort(jobs.begin(), jobs.end(), [](const Job* a, const Job* b) {
    return a->invariant_index < b->invariant_index;
  });
  // Per configuration-blind shape key: each base key's first member set,
  // in the order the base keys appeared.
  std::map<std::string, std::vector<std::pair<std::string, slice::ShapeKey>>>
      strata;
  std::set<std::vector<NodeId>> seen;
  std::map<std::pair<std::string, std::string>, std::size_t> counts;
  for (const Job* job : jobs) {
    if (!seen.insert(job->members).second) continue;
    slice::ShapeKey shape = slice::canonical_shape_key(
        model, job->members, max_failures, &transfers);
    std::string base =
        slice::canonical_base_key(model, shape, max_failures, &transfers).key;
    auto& earlier = strata[shape.key];
    std::size_t own = 0;
    while (own < earlier.size() && earlier[own].first != base) ++own;
    // One refusal against each base key that appeared before this set's
    // own; shape_bijection only names it.
    for (std::size_t k = 0; k < own; ++k) {
      slice::MergeRefusal why;
      if (slice::shape_bijection(model, shape, earlier[k].second,
                                 max_failures, &transfers, &why)) {
        why.reason = "base keys differ";
      }
      ++counts[{why.box_type, why.reason}];
    }
    if (own == earlier.size()) earlier.emplace_back(base, std::move(shape));
  }
  std::vector<MergeBlocker> out;
  for (const auto& [key, count] : counts) {
    out.push_back(MergeBlocker{key.second, key.first, count});
  }
  return out;
}

SessionResilience session_resilience(const VerifyOptions& options) {
  SessionResilience resilience;
  resilience.faults = FaultInjector(options.faults);
  resilience.escalate_unknown = options.escalate_unknown;
  return resilience;
}

Trace extract_trace(const encode::Encoding& encoding,
                    const smt::SmtModel& model) {
  Trace trace;
  auto to_packet = [&](const smt::ModelPacket& mp) {
    Packet p;
    p.src = Address(static_cast<std::uint32_t>(mp.src));
    p.dst = Address(static_cast<std::uint32_t>(mp.dst));
    p.src_port = static_cast<std::uint16_t>(mp.src_port & 0xffff);
    p.dst_port = static_cast<std::uint16_t>(mp.dst_port & 0xffff);
    if (mp.origin) p.origin = Address(static_cast<std::uint32_t>(*mp.origin));
    p.malicious = mp.malicious;
    p.app_class = static_cast<std::uint16_t>(mp.app_class & 0xffff);
    return p;
  };
  auto to_node = [&](std::size_t index) {
    auto node = encoding.topology_node(index);
    return node ? *node : NodeId{};  // invalid id stands for Omega
  };
  // The model may hold an atom true at several timesteps; keep the earliest
  // occurrence of each distinct event for a readable schedule. The sort is
  // total, so the witness depends on the event set alone, never on the
  // order the backend listed it in.
  std::set<std::tuple<int, std::size_t, std::size_t, std::size_t>> seen;
  std::vector<smt::ModelEvent> events = model.events;
  auto order = [](const smt::ModelEvent& e) {
    return std::tuple(e.time, static_cast<int>(e.kind), e.from, e.to, e.packet);
  };
  std::sort(events.begin(), events.end(),
            [&](const smt::ModelEvent& a, const smt::ModelEvent& b) {
              return order(a) < order(b);
            });
  for (const smt::ModelEvent& ev : events) {
    if (!seen.insert({static_cast<int>(ev.kind), ev.from, ev.to, ev.packet})
             .second) {
      continue;
    }
    Event e;
    e.kind = ev.kind;
    e.time = ev.time;
    e.from = to_node(ev.from);
    e.to = to_node(ev.to);
    if (ev.kind != EventKind::fail) e.packet = to_packet(model.packets[ev.packet]);
    trace.add(e);
  }
  trace.sort_by_time();
  return trace;
}

}  // namespace vmn::verify
