#include "traced.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "client.hpp"
#include "encode/encoder.hpp"
#include "io/spec.hpp"
#include "sim/replay.hpp"
#include "slice/slice.hpp"
#include "smt/solver.hpp"
#include "verify/result_cache.hpp"
#include "verify/serve.hpp"
#include "verify/wire.hpp"

namespace vmn::bench {

// ---------------------------------------------------------------------------
// Tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.req = tracer_->request_;
  s.parent = tracer_->open_.empty() ? 0 : tracer_->open_.back() + 1;
  s.name = name;
  s.start_us = tracer_->now_us();
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_us = tracer_->now_us();
  tracer_->open_.pop_back();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

double Tracer::self_ms(const std::string& name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_us[s.parent - 1] += s.end_us - s.start_us;
  }
  double total_us = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      total_us += spans_[i].end_us - spans_[i].start_us - child_us[i];
    }
  }
  return total_us / 1000.0;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end_us - s.start_us);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"req\": %llu, \"span\": %zu, \"parent\": %zu, \"name\": "
                 "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
                 static_cast<unsigned long long>(s.req), i + 1, s.parent,
                 s.name.c_str(), s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// The layer-by-layer replay

namespace {

using Clock = std::chrono::steady_clock;
using verify::Outcome;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Counts taken at the same call sites the spans wrap.
struct Counts {
  double parse_bytes = 0, parse_calls = 0;
  double policy_hosts = 0, policy_classes = 0;
  double slice_calls = 0, slice_members = 0;
  double key_calls = 0, bijection_calls = 0, bijection_accepts = 0;
  double plan_invariants = 0, plan_jobs = 0, transfer_builds = 0;
  double encode_calls = 0, axioms = 0;
  double contexts = 0, checks = 0, unknowns = 0;
  double witnesses = 0;
  double replays = 0, realized = 0;
  double wire_bytes = 0, frames = 0;
  double lookups = 0, hits = 0;
};

/// Replays one verification of `model` the way the sequential engine runs
/// it - policy classes, plan, per-job cache pass, warm encode/solve,
/// witness, bind - with a span around every library call. The slices and
/// keys plan_jobs computes internally are recomputed on a fresh context as
/// siblings of the plan span. `cache` (serve-edit) is the warm result
/// cache; `wire` (process backend) frames every job and result as the
/// dispatcher and a worker would. Returns the verdicts.
class LayerReplay {
 public:
  LayerReplay(Tracer& tracer, Counts& counts)
      : tracer_(tracer), counts_(counts) {}

  std::vector<Outcome> run(const encode::NetworkModel& model,
                           const std::vector<encode::Invariant>& invariants,
                           encode::NetworkModel& sim_model, int max_failures,
                           verify::ResultCache* cache, bool wire) {
    verify::VerifyOptions options;
    options.max_failures = max_failures;
    verify::PlanContext ctx(model.network());
    slice::PolicyClasses classes;
    {
      auto s = tracer_.span("slice.policy");
      classes = verify::build_policy_classes(model, options, ctx);
    }
    for (const auto& c : classes.classes) counts_.policy_hosts += c.size();
    counts_.policy_classes += classes.count();
    verify::JobPlan plan;
    {
      auto s = tracer_.span("verify.plan");
      plan = verify::plan_jobs(model, invariants, classes, true, options, &ctx);
    }
    counts_.plan_invariants += invariants.size();
    counts_.plan_jobs += plan.planned_jobs();
    counts_.transfer_builds += plan.transfer_builds;
    slices_and_keys(model, invariants, classes, max_failures);

    std::vector<Outcome> verdicts(invariants.size(), Outcome::unknown);
    std::unique_ptr<encode::Encoding> encoding;
    std::unique_ptr<smt::Solver> solver;
    std::vector<NodeId> wire_members;
    for (const verify::Job& job : plan.jobs) {
      std::vector<char> answered(job.fan_out(), 0);
      bool need_solve = false;
      for (std::size_t k = 0; k < job.fan_out(); ++k) {
        const verify::BindingRef b = job.binding(k);
        if (cache != nullptr && !b.problem_key->key.empty()) {
          std::optional<verify::ResultCache::Entry> hit;
          {
            auto s = tracer_.span("verify.cache");
            hit = cache->lookup(b.problem_key->key);
          }
          ++counts_.lookups;
          if (hit) {
            ++counts_.hits;
            const Outcome o =
                verify::result_from_cache(*hit, invariants[b.invariant_index])
                    .outcome;
            set_verdict(verdicts, b, o);
            answered[k] = 1;
            continue;
          }
        }
        need_solve = true;
      }
      if (!need_solve) continue;

      if (wire) frame_job(model, job, max_failures, wire_members);
      if (!solver || encoding->members() != job.encode_members()) {
        {
          auto s = tracer_.span("encode");
          encoding = std::make_unique<encode::Encoding>(
              model, job.encode_members(),
              encode::EncodeOptions{max_failures, &ctx.transfers});
        }
        ++counts_.encode_calls;
        counts_.axioms += encoding->axioms().size();
        {
          auto s = tracer_.span("smt.context");
          solver = smt::make_z3_solver(encoding->vocab(), options.solver);
        }
        ++counts_.contexts;
        auto s = tracer_.span("smt.assert");
        for (const encode::Axiom& a : encoding->axioms()) solver->add(a.term);
      }
      const verify::VerifyResult solved = solve(*encoding, *solver, job);
      for (std::size_t k = 0; k < job.fan_out(); ++k) {
        if (answered[k]) continue;
        const verify::BindingRef b = job.binding(k);
        verify::VerifyResult bound;
        {
          auto s = tracer_.span("verify.witness");
          bound = verify::bind_result(model, solved, *b.members, *b.iso_image);
        }
        set_verdict(verdicts, b, bound.outcome);
        if (cache != nullptr && !b.problem_key->key.empty() &&
            solved.outcome != Outcome::unknown) {
          verify::ResultCache::Entry entry;
          entry.status = solved.raw_status;
          entry.slice_size = solved.slice_size;
          entry.assertion_count = solved.assertion_count;
          auto s = tracer_.span("verify.cache");
          cache->store(b.problem_key->key, entry);
        }
      }
      if (wire) frame_result(model, job, solved);
      if (solved.outcome == Outcome::violated && solved.counterexample) {
        sim::ReplayResult r;
        {
          auto s = tracer_.span("sim.replay");
          r = sim::replay_witness(sim_model, job.solve_invariant,
                                  *solved.counterexample, max_failures);
        }
        ++counts_.replays;
        if (r.realized) ++counts_.realized;
      }
    }
    if (cache != nullptr) {
      auto s = tracer_.span("verify.cache");
      cache->flush();
    }
    return verdicts;
  }

 private:
  static void set_verdict(std::vector<Outcome>& verdicts,
                          const verify::BindingRef& b, Outcome o) {
    verdicts[b.invariant_index] = o;
    for (std::size_t i : *b.inheritors) verdicts[i] = o;
  }

  /// The push / assert / check / witness / pop core of verify_members.
  verify::VerifyResult solve(encode::Encoding& encoding, smt::Solver& solver,
                             const verify::Job& job) {
    verify::VerifyResult r;
    solver.push();
    std::vector<encode::Axiom> axioms;
    {
      auto s = tracer_.span("encode");
      axioms = encoding.invariant_axioms(job.solve_invariant);
    }
    ++counts_.encode_calls;
    counts_.axioms += axioms.size();
    {
      auto s = tracer_.span("smt.assert");
      for (const encode::Axiom& a : axioms) solver.add(a.term);
    }
    {
      auto s = tracer_.span("smt.check");
      r.raw_status = solver.check();
    }
    ++counts_.checks;
    r.slice_size = encoding.members().size();
    r.assertion_count = solver.assertion_count();
    const bool sat_holds = job.solve_invariant.sat_means_holds();
    switch (r.raw_status) {
      case smt::CheckStatus::sat: {
        r.outcome = sat_holds ? Outcome::holds : Outcome::violated;
        auto s = tracer_.span("verify.witness");
        r.counterexample = verify::extract_trace(encoding, solver.model());
        ++counts_.witnesses;
        break;
      }
      case smt::CheckStatus::unsat:
        r.outcome = sat_holds ? Outcome::violated : Outcome::holds;
        break;
      case smt::CheckStatus::unknown:
        r.outcome = Outcome::unknown;
        ++counts_.unknowns;
        break;
    }
    solver.pop();
    return r;
  }

  void slices_and_keys(const encode::NetworkModel& model,
                       const std::vector<encode::Invariant>& invariants,
                       const slice::PolicyClasses& classes, int max_failures) {
    verify::PlanContext fresh(model.network());
    std::map<std::vector<NodeId>, slice::ShapeKey> shapes;
    std::map<std::string, std::vector<slice::ShapeKey>> reps;
    for (const encode::Invariant& inv : invariants) {
      slice::Slice sl;
      {
        auto s = tracer_.span("slice.slice");
        sl = slice::compute_slice(model, inv, classes,
                                  {max_failures, &fresh.transfers});
      }
      ++counts_.slice_calls;
      counts_.slice_members += sl.size();
      auto s = tracer_.span("slice.keys");
      (void)slice::canonical_slice_key(model, sl.members, inv, classes,
                                       max_failures, &fresh.transfers);
      ++counts_.key_calls;
      auto it = shapes.find(sl.members);
      if (it == shapes.end()) {
        it = shapes
                 .emplace(sl.members,
                          slice::canonical_shape_key(model, sl.members,
                                                     max_failures,
                                                     &fresh.transfers))
                 .first;
        ++counts_.key_calls;
        pair_with_reps(model, it->second, reps[it->second.key], max_failures,
                       fresh);
      }
      (void)slice::canonical_problem_key(model, it->second, inv, max_failures,
                                         &fresh.transfers);
      ++counts_.key_calls;
    }
  }

  /// plan_jobs' representative pairing: try each registered shape of the
  /// same key, register the shape when none maps onto it.
  void pair_with_reps(const encode::NetworkModel& model,
                      const slice::ShapeKey& shape,
                      std::vector<slice::ShapeKey>& reps, int max_failures,
                      verify::PlanContext& ctx) {
    auto s = tracer_.span("slice.bijection");
    for (const slice::ShapeKey& rep : reps) {
      ++counts_.bijection_calls;
      if (slice::shape_bijection(model, shape, rep, max_failures,
                                 &ctx.transfers)) {
        ++counts_.bijection_accepts;
        return;
      }
    }
    if (reps.size() < 8) reps.push_back(shape);
  }

  /// A MODEL frame per new encode shape and a JOB frame, encoded by the
  /// dispatcher and decoded by a worker.
  void frame_job(const encode::NetworkModel& model, const verify::Job& job,
                 int max_failures, std::vector<NodeId>& model_members) {
    auto s = tracer_.span("verify.wire");
    namespace wire = verify::wire;
    if (model_members != job.encode_members()) {
      model_members = job.encode_members();
      wire::WireModel wm;
      wm.spec_text = io::write_projected_spec_string(model, model_members);
      roundtrip(wire::FrameType::model, wire::encode_model(wm),
                [](std::string_view p) { (void)wire::decode_model(p); });
    }
    const wire::WireJob wj = wire::make_wire_job(model, job, max_failures);
    roundtrip(wire::FrameType::job, wire::encode_job(wj),
              [&](std::string_view p) {
                (void)wire::resolve_job(model, wire::decode_job(p));
              });
  }

  void frame_result(const encode::NetworkModel& model, const verify::Job& job,
                    const verify::VerifyResult& solved) {
    auto s = tracer_.span("verify.wire");
    namespace wire = verify::wire;
    const net::Network& net = model.network();
    roundtrip(wire::FrameType::result,
              wire::encode_result(wire::make_wire_result(net, job.id, solved)),
              [&](std::string_view p) {
                (void)wire::to_verify_result(net, wire::decode_result(p));
              });
  }

  template <typename Decode>
  void roundtrip(verify::wire::FrameType type, const std::string& payload,
                 Decode decode) {
    namespace wire = verify::wire;
    const std::string frame = wire::encode_frame(type, payload);
    const wire::FrameHeader header = wire::decode_frame_header(frame.data());
    const std::string_view body =
        std::string_view(frame).substr(wire::kFrameHeaderSize);
    wire::check_payload(header, body);
    decode(body);
    counts_.wire_bytes += frame.size();
    ++counts_.frames;
  }

  Tracer& tracer_;
  Counts& counts_;
};

void replace_file(const std::string& path, const std::string& text) {
  stage_file(path, text);
  commit_file(path);
}

/// Everything the three phases of a traced pass measure besides the spans.
struct PassTimes {
  std::vector<double> process_ms;    ///< per request, through the binary
  std::vector<double> inprocess_ms;  ///< per request, untraced
  double inprocess_total_ms = 0.0;
  double traced_total_ms = 0.0;
  double engine_ms = 0.0;
  double solver_calls = 0, warm_binds = 0, warm_reuses = 0;
  double iso_verdict_reuses = 0, workers_spawned = 0;
  std::vector<double> reload_ms, query_us;
  double reload_solver_calls = 0, reload_cache_hits = 0;

  void add_batch(const verify::BatchResult& b, double ms) {
    engine_ms += ms;
    solver_calls += b.solver_calls;
    warm_binds += b.warm_binds;
    warm_reuses += b.warm_reuses;
    iso_verdict_reuses += b.iso_verdict_reuses;
    workers_spawned += b.pool.workers_spawned;
  }
};

/// One-shot workloads: each spec of the pass is one request.
void one_shot_pass(const Workload& w, const std::vector<std::size_t>& requests,
                   const TraceOptions& opt, Tracer& tracer, Counts& counts,
                   PassTimes& t, Tally& tally) {
  std::vector<std::string> paths;
  for (std::size_t i : requests) {
    paths.push_back(w.specs[i].name + ".vmn");
    replace_file(paths.back(), w.specs[i].text);
  }
  // 1. Through the binary, as the untraced run measures it.
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const SpecCase& c = w.specs[requests[r]];
    std::vector<std::string> argv = {opt.vmn, "verify", paths[r],
                                     "--max-failures",
                                     std::to_string(c.max_failures)};
    for (const std::string& a : w.engine_args()) argv.push_back(a);
    const ProcessRun run = run_process(argv);
    t.process_ms.push_back(run.wall_ms);
    tally.verdicts(c.expected, parse_verify_output(run.out));
    if (run.exit_code != 0) ++tally.failed;
  }
  // 2. In-process and untraced: parse + Engine::run_batch.
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const SpecCase& c = w.specs[requests[r]];
    const auto start = Clock::now();
    const io::Spec spec = io::load_spec(paths[r]);
    const auto engine_start = Clock::now();
    verify::Engine engine(spec.model,
                          w.engine_options(opt.vmn, c.max_failures));
    const verify::BatchResult batch = engine.run_batch(spec.invariants);
    t.add_batch(batch, ms_since(engine_start));
    t.inprocess_ms.push_back(ms_since(start));
    tally.verdicts(c.expected, verdicts_of(batch));
  }
  t.inprocess_total_ms = sum(t.inprocess_ms);
  // 3. Traced, layer by layer.
  const auto traced_start = Clock::now();
  LayerReplay replay(tracer, counts);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const SpecCase& c = w.specs[requests[r]];
    tracer.next_request();
    io::Spec spec;
    {
      auto s = tracer.span("io.parse");
      spec = io::load_spec(paths[r]);
    }
    ++counts.parse_calls;
    counts.parse_bytes += c.text.size();
    // Witness replay resets middlebox state, so it runs on its own copy.
    io::Spec sim_spec = io::parse_spec_string(c.text);
    tally.verdicts(c.expected,
                   replay.run(spec.model, spec.invariants, sim_spec.model,
                              c.max_failures, nullptr, w.process_backend));
  }
  t.traced_total_ms = ms_since(traced_start);
}

/// serve-edit: each reload cycle is one request.
void serve_pass(const Workload& w, std::size_t cycles, const TraceOptions& opt,
                Tracer& tracer, Counts& counts, PassTimes& t, Tally& tally) {
  const std::string spec_path = "serve-trace.vmn";
  const std::string socket_path = "serve-trace.sock";
  const SpecCase& first = w.specs[w.initial_spec];
  // 1. Through the daemon: rename, then RELOAD until the reply shows the
  // next generation.
  replace_file(spec_path, first.text);
  {
    LineClient client;
    const std::unique_ptr<Daemon> daemon =
        start_serve(opt.vmn, spec_path, socket_path, client);
    for (std::size_t k = 0; k < cycles; ++k) {
      stage_file(spec_path, w.specs[w.cycles[k].spec].text);
      const auto start = Clock::now();
      commit_file(spec_path);
      const std::string reply = client.request("RELOAD");
      t.process_ms.push_back(ms_since(start));
      ++tally.attempted;
      if (reload_generation(reply) != k + 2) ++tally.failed;
    }
    if (daemon->stop().exit_code != 0) ++tally.failed;
  }
  // 2. In-process ServeState (the handle_line cost) and a bare Engine
  // rebinding per edit (the engine cost), both untraced.
  replace_file(spec_path, first.text);
  verify::ServeOptions sopts;
  sopts.spec_path = spec_path;
  verify::ServeState state(sopts);
  std::unique_ptr<io::Spec> engine_spec =
      std::make_unique<io::Spec>(io::parse_spec_string(first.text));
  verify::Engine engine(engine_spec->model, w.engine_options(opt.vmn, 0));
  (void)engine.run_batch(engine_spec->invariants);
  for (std::size_t k = 0; k < cycles; ++k) {
    const ServeCycle& cycle = w.cycles[k];
    const SpecCase& c = w.specs[cycle.spec];
    replace_file(spec_path, c.text);
    auto start = Clock::now();
    const std::string reply = state.handle_line("RELOAD");
    t.reload_ms.push_back(ms_since(start));
    ++tally.attempted;
    if (reply.rfind("OK reloaded", 0) != 0) ++tally.failed;
    t.reload_solver_calls += state.last_batch().solver_calls;
    t.reload_cache_hits += state.last_batch().cache_hits;
    for (std::size_t q : cycle.queries) {
      start = Clock::now();
      const std::string answer =
          state.handle_line("VERDICT " + std::to_string(q));
      t.query_us.push_back(ms_since(start) * 1000.0);
      ++tally.attempted;
      if (reply_verdict(answer) != verify::to_string(c.expected[q])) {
        ++tally.failed;
      }
    }

    start = Clock::now();
    auto next = std::make_unique<io::Spec>(io::parse_spec_string(c.text));
    const auto engine_start = Clock::now();
    engine.rebind(next->model);
    engine_spec = std::move(next);
    const verify::BatchResult batch = engine.run_batch(engine_spec->invariants);
    t.add_batch(batch, ms_since(engine_start));
    t.inprocess_ms.push_back(ms_since(start));
    tally.verdicts(c.expected, verdicts_of(batch));
  }
  t.inprocess_total_ms = sum(t.inprocess_ms);
  // 3. Traced, on a warm memory-only cache like the daemon's.
  verify::ResultCache cache("", 0, /*memory_only=*/true);
  LayerReplay replay(tracer, counts);
  std::unique_ptr<io::Spec> current =
      std::make_unique<io::Spec>(io::parse_spec_string(first.text));
  {
    io::Spec sim_spec = io::parse_spec_string(first.text);
    tracer.enabled = false;
    Counts ignored;
    LayerReplay warm(tracer, ignored);
    (void)warm.run(current->model, current->invariants, sim_spec.model, 0,
                   &cache, false);
    tracer.enabled = true;
  }
  const auto traced_start = Clock::now();
  for (std::size_t k = 0; k < cycles; ++k) {
    const SpecCase& c = w.specs[w.cycles[k].spec];
    tracer.next_request();
    auto next = std::make_unique<io::Spec>();
    {
      auto s = tracer.span("io.parse");
      *next = io::parse_spec_string(c.text);
    }
    ++counts.parse_calls;
    counts.parse_bytes += c.text.size();
    {
      auto s = tracer.span("io.diff");
      (void)io::diff_specs(*current, *next);
    }
    current = std::move(next);
    {
      auto s = tracer.span("verify.cache");
      cache.set_model_fingerprint(verify::model_fingerprint(current->model));
    }
    io::Spec sim_spec = io::parse_spec_string(c.text);
    tally.verdicts(c.expected, replay.run(current->model, current->invariants,
                                          sim_spec.model, 0, &cache, false));
  }
  t.traced_total_ms = ms_since(traced_start);
}

}  // namespace

Metrics traced_pass(const Workload& workload, const TraceOptions& options,
                    Tally& tally) {
  Tracer tracer;
  Counts c;
  PassTimes t;
  if (workload.serve) {
    serve_pass(workload, std::min<std::size_t>(20, workload.cycles.size()),
               options, tracer, c, t, tally);
  } else {
    // Every spec once, and at least five requests; zoo-random stops at 40.
    std::vector<std::size_t> requests;
    const std::size_t specs = std::min<std::size_t>(40, workload.specs.size());
    for (std::size_t i = 0; i < std::max<std::size_t>(5, specs); ++i) {
      requests.push_back(i % specs);
    }
    one_shot_pass(workload, requests, options, tracer, c, t, tally);
  }
  if (!tracer.write_jsonl(options.spans_path)) {
    throw Error("cannot write " + options.spans_path);
  }

  Metrics m;
  auto ms = [&](const char* metric, const char* span) {
    m.add(metric, tracer.self_ms(span), "ms");
  };
  ms("io.parse.ms", "io.parse");
  m.add("io.parse.calls", c.parse_calls, "count");
  m.add("io.parse.kb", c.parse_bytes / 1024.0, "KB");
  ms("io.diff.ms", "io.diff");
  ms("slice.policy.ms", "slice.policy");
  m.add("slice.policy.hosts", c.policy_hosts, "count");
  m.add("slice.policy.classes", c.policy_classes, "count");
  ms("slice.slice.ms", "slice.slice");
  m.add("slice.slice.calls", c.slice_calls, "count");
  m.add("slice.slice.members_mean", ratio(c.slice_members, c.slice_calls),
        "count");
  ms("slice.keys.ms", "slice.keys");
  m.add("slice.keys.calls", c.key_calls, "count");
  ms("slice.bijection.ms", "slice.bijection");
  m.add("slice.bijection.calls", c.bijection_calls, "count");
  m.add("slice.bijection.accept_ratio",
        ratio(c.bijection_accepts, c.bijection_calls), "ratio");
  ms("verify.plan.ms", "verify.plan");
  m.add("verify.plan.jobs", c.plan_jobs, "count");
  m.add("verify.plan.dedup_ratio",
        ratio(c.plan_invariants - c.plan_jobs, c.plan_invariants), "ratio");
  m.add("verify.plan.transfer_builds", c.transfer_builds, "count");
  ms("encode.ms", "encode");
  m.add("encode.calls", c.encode_calls, "count");
  m.add("encode.axioms", c.axioms, "count");
  ms("smt.context.ms", "smt.context");
  m.add("smt.context.calls", c.contexts, "count");
  ms("smt.assert.ms", "smt.assert");
  ms("smt.check.ms", "smt.check");
  m.add("smt.check.calls", c.checks, "count");
  const std::vector<double> checks = tracer.durations_us("smt.check");
  m.add("smt.check.p50_us", percentile(checks, 50), "us");
  m.add("smt.check.max_us", percentile(checks, 100), "us");
  m.add("smt.check.unknown", c.unknowns, "count");
  ms("verify.witness.ms", "verify.witness");
  m.add("verify.witness.calls", c.witnesses, "count");
  ms("sim.replay.ms", "sim.replay");
  m.add("sim.replay.calls", c.replays, "count");
  m.add("sim.replay.realized_ratio", ratio(c.realized, c.replays), "ratio");
  ms("verify.wire.ms", "verify.wire");
  m.add("verify.wire.kb", c.wire_bytes / 1024.0, "KB");
  m.add("verify.wire.frames", c.frames, "count");
  ms("verify.cache.ms", "verify.cache");
  m.add("verify.cache.lookups", c.lookups, "count");
  m.add("verify.cache.hit_ratio", ratio(c.hits, c.lookups), "ratio");
  m.add("verify.engine.ms", t.engine_ms, "ms");
  m.add("verify.engine.solver_calls", t.solver_calls, "count");
  m.add("verify.engine.warm_reuse_ratio",
        ratio(t.warm_reuses, t.warm_binds + t.warm_reuses), "ratio");
  m.add("verify.engine.iso_verdict_reuses", t.iso_verdict_reuses, "count");
  m.add("verify.engine.workers_spawned", t.workers_spawned, "count");
  m.add("verify.serve.reload_ms", percentile(t.reload_ms, 50), "ms");
  m.add("verify.serve.reload_solver_calls",
        ratio(t.reload_solver_calls, static_cast<double>(t.reload_ms.size())),
        "count");
  m.add("verify.serve.reload_cache_hits",
        ratio(t.reload_cache_hits, static_cast<double>(t.reload_ms.size())),
        "count");
  m.add("verify.serve.query_us", percentile(t.query_us, 50), "us");
  m.add("process.startup_ms",
        percentile(t.process_ms, 50) - percentile(t.inprocess_ms, 50), "ms");
  // Only layers the engine itself runs: the sibling slice/key recomputes
  // are already inside verify.plan, and parse and witness replay are not
  // engine work.
  double attributed = 0.0;
  for (const char* layer :
       {"slice.policy", "verify.plan", "encode", "smt.context", "smt.assert",
        "smt.check", "verify.witness", "verify.wire", "verify.cache"}) {
    attributed += tracer.self_ms(layer);
  }
  m.add("process.attributed_share", ratio(attributed, t.engine_ms), "ratio");
  m.add("trace.replay_ratio", ratio(t.traced_total_ms, t.inprocess_total_ms),
        "ratio");
  return m;
}

}  // namespace vmn::bench
