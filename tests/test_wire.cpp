// Wire-protocol tests: framing robustness (corrupt, truncated and
// version-skewed streams fail cleanly, never crash or misread), payload
// codec field fidelity, and the property the process backend stands on -
// every Job planned from every scenario generator, serialized through the
// projected spec + wire job (v4: the encode-space problem) and executed on
// the reconstructed model, fans back out through bind_result to the
// identical verdict (and statistics) a direct cold solve of the binding's
// own problem produces, and the cross-run problem key survives a full spec
// round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "dataplane/transfer.hpp"

#include "core/rng.hpp"
#include "encode/encoder.hpp"
#include "io/spec.hpp"
#include "mbox/firewall.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "slice/policy.hpp"
#include "slice/symmetry.hpp"
#include "verify/engine.hpp"
#include "verify/solver_pool.hpp"
#include "verify/verifier.hpp"
#include "verify/wire.hpp"

namespace vmn::verify::wire {
namespace {

using mbox::AclAction;
using mbox::AclEntry;
using scenarios::Batch;

/// tmpfile-backed FILE*, closed on scope exit.
struct TempStream {
  std::FILE* f = nullptr;
  TempStream() : f(std::tmpfile()) {}
  ~TempStream() {
    if (f != nullptr) std::fclose(f);
  }
};

// --- framing ----------------------------------------------------------------

TEST(WireFraming, FramesRoundTripThroughAStream) {
  TempStream stream;
  ASSERT_NE(stream.f, nullptr);
  write_frame(stream.f, FrameType::job, "payload-bytes");
  write_frame(stream.f, FrameType::result, "");
  std::rewind(stream.f);

  FrameType type;
  std::string payload;
  ASSERT_TRUE(read_frame(stream.f, type, payload));
  EXPECT_EQ(type, FrameType::job);
  EXPECT_EQ(payload, "payload-bytes");
  ASSERT_TRUE(read_frame(stream.f, type, payload));
  EXPECT_EQ(type, FrameType::result);
  EXPECT_EQ(payload, "");
  // Clean EOF at a frame boundary is a false return, not an error.
  EXPECT_FALSE(read_frame(stream.f, type, payload));
}

TEST(WireFraming, CorruptBytesAreRejected) {
  const std::string good = encode_frame(FrameType::job, "payload-bytes");

  // A flipped payload byte fails the digest check.
  std::string bad = good;
  bad[kFrameHeaderSize + 3] ^= 0x20;
  {
    TempStream stream;
    std::fwrite(bad.data(), 1, bad.size(), stream.f);
    std::rewind(stream.f);
    FrameType type;
    std::string payload;
    EXPECT_THROW((void)read_frame(stream.f, type, payload), WireError);
  }
  // A flipped magic byte fails header validation.
  bad = good;
  bad[0] ^= 0x01;
  EXPECT_THROW((void)decode_frame_header(bad.data()), WireError);
  // A version from the future is refused rather than misparsed.
  bad = good;
  bad[4] = static_cast<char>(kWireVersion + 1);
  EXPECT_THROW((void)decode_frame_header(bad.data()), WireError);
  // An unknown frame type is refused.
  bad = good;
  bad[6] = 'X';
  EXPECT_THROW((void)decode_frame_header(bad.data()), WireError);
}

TEST(WireFraming, TruncatedStreamsFailCleanlyNotSilently) {
  const std::string frame = encode_frame(FrameType::job, "payload-bytes");
  // Every strict prefix is either a torn header or a torn payload; none may
  // read as a clean EOF (that would silently drop a job) or crash.
  for (std::size_t cut = 1; cut < frame.size(); ++cut) {
    TempStream stream;
    std::fwrite(frame.data(), 1, cut, stream.f);
    std::rewind(stream.f);
    FrameType type;
    std::string payload;
    EXPECT_THROW((void)read_frame(stream.f, type, payload), WireError)
        << "prefix of " << cut << " bytes";
  }
}

// --- payload codecs ---------------------------------------------------------

TEST(WirePayloads, ModelRoundTripsFieldForField) {
  WireModel model;
  model.worker_index = 5;
  model.warm_solving = false;
  model.solver.timeout_ms = 1234;
  model.solver.seed = 42;
  model.spec_text = "host a 10.0.0.1\nhost b 10.0.1.1\n";
  const WireModel back = decode_model(encode_model(model));
  EXPECT_EQ(back.worker_index, model.worker_index);
  EXPECT_EQ(back.warm_solving, model.warm_solving);
  EXPECT_EQ(back.solver.timeout_ms, model.solver.timeout_ms);
  EXPECT_EQ(back.solver.seed, model.solver.seed);
  EXPECT_EQ(back.spec_text, model.spec_text);
}

TEST(WirePayloads, JobRoundTripsFieldForField) {
  WireJob job;
  job.id = 77;
  job.kind = encode::InvariantKind::traversal;
  job.target = "h-3";
  job.other = "";
  job.type_prefix = "firewall";
  job.members = {"h-3", "fw-0", "idps-1"};
  job.max_failures = 2;
  const WireJob back = decode_job(encode_job(job));
  EXPECT_EQ(back.id, job.id);
  EXPECT_EQ(back.kind, job.kind);
  EXPECT_EQ(back.target, job.target);
  EXPECT_EQ(back.other, job.other);
  EXPECT_EQ(back.type_prefix, job.type_prefix);
  EXPECT_EQ(back.members, job.members);
  EXPECT_EQ(back.max_failures, job.max_failures);
}

TEST(WirePayloads, ResultWithTraceRoundTripsFieldForField) {
  WireResult result;
  result.id = 9;
  result.raw_status = smt::CheckStatus::sat;
  result.outcome = Outcome::violated;
  result.solve_us = 12345;
  result.slice_size = 5;
  result.assertion_count = 210;
  result.solve.escalated = true;
  result.solve.escalation_rescued = true;
  result.solve.transfer_builds = 3;
  result.solve.transfer_reuses = 4;
  result.has_trace = true;
  WireEvent send;
  send.kind = static_cast<std::uint8_t>(EventKind::send);
  send.time = 1;
  send.from = "attacker";
  send.to = "";  // Omega
  send.has_packet = true;
  send.src = 0x0a000001;
  send.dst = 0x0a000101;
  send.src_port = 1024;
  send.dst_port = 80;
  send.origin = 0x0a000002;
  send.malicious = true;
  send.app_class = 7;
  WireEvent fail;
  fail.kind = static_cast<std::uint8_t>(EventKind::fail);
  fail.time = 0;
  fail.from = "fw-0";
  result.trace = {fail, send};

  const WireResult back = decode_result(encode_result(result));
  EXPECT_EQ(back.id, result.id);
  EXPECT_EQ(back.raw_status, result.raw_status);
  EXPECT_EQ(back.outcome, result.outcome);
  EXPECT_EQ(back.solve_us, result.solve_us);
  EXPECT_EQ(back.slice_size, result.slice_size);
  EXPECT_EQ(back.assertion_count, result.assertion_count);
  EXPECT_FALSE(back.solve.warm_reused);
  EXPECT_TRUE(back.solve.escalated);
  EXPECT_TRUE(back.solve.escalation_rescued);
  EXPECT_EQ(back.solve.transfer_builds, 3u);
  EXPECT_EQ(back.solve.transfer_reuses, 4u);
  EXPECT_EQ(back.error, "");
  ASSERT_TRUE(back.has_trace);
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[0].kind, fail.kind);
  EXPECT_EQ(back.trace[0].from, "fw-0");
  EXPECT_FALSE(back.trace[0].has_packet);
  EXPECT_EQ(back.trace[1].to, "");
  ASSERT_TRUE(back.trace[1].has_packet);
  EXPECT_EQ(back.trace[1].src, send.src);
  EXPECT_EQ(back.trace[1].dst_port, send.dst_port);
  ASSERT_TRUE(back.trace[1].origin.has_value());
  EXPECT_EQ(*back.trace[1].origin, *send.origin);
  EXPECT_TRUE(back.trace[1].malicious);
  EXPECT_EQ(back.trace[1].app_class, send.app_class);
}

TEST(WirePayloads, EveryTruncationOfAPayloadThrows) {
  WireJob job;
  job.id = 3;
  job.kind = encode::InvariantKind::flow_isolation;
  job.target = "victim";
  job.other = "attacker";
  job.members = {"victim", "attacker", "fw"};
  const std::string payload = encode_job(job);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_job(payload.substr(0, cut)), WireError)
        << "prefix of " << cut << " bytes";
  }
  // Trailing garbage is rejected too, not silently ignored.
  EXPECT_THROW((void)decode_job(payload + "x"), WireError);
}

// --- the property the process backend stands on ------------------------------

/// For every job the planner emits: executing the wire round trip of the
/// job's encode-space problem on the re-parsed projected spec, mapping the
/// result frame back onto the dispatcher's node ids and fanning it out
/// through bind_result must reproduce the verdict, raw status, slice size
/// and assertion count a direct cold solve of the representative binding's
/// own problem produces.
void expect_jobs_roundtrip(const encode::NetworkModel& model,
                           const Batch& batch, int max_failures = 0) {
  EngineOptions popts{.batch = true, .jobs = 1};
  popts.verify.solver.seed = 7;
  popts.verify.max_failures = max_failures;
  Engine verifier(model, popts);
  JobPlan plan = verifier.plan(batch.invariants);
  ASSERT_FALSE(plan.jobs.empty());

  for (const Job& job : plan.jobs) {
    const encode::Invariant& invariant = batch.invariants[job.invariant_index];
    SolverSession local_session(popts.verify.solver);
    // The local reference run encodes the job's own slice directly -
    // never through an isomorphic representative - so the round trip below
    // also asserts that executing the encode-space problem remotely and
    // relabeling the verdict agrees with a direct solve of the original.
    const VerifyResult local = verify_members(model, invariant, job.members,
                                              max_failures, local_session);

    WireModel wire_model;
    wire_model.solver = popts.verify.solver;
    // Project what the dispatcher projects: v4 jobs cross the pipe in
    // encode space, so the encode member set is the whole span.
    wire_model.spec_text =
        io::write_projected_spec_string(model, job.encode_members());
    const WireModel model_back = decode_model(encode_model(wire_model));
    const WireJob wire_job =
        decode_job(encode_job(make_wire_job(model, job, max_failures)));
    EXPECT_EQ(wire_job.members.size(), job.encode_members().size());

    io::Spec remote_spec = io::parse_spec_string(model_back.spec_text);
    ResolvedJob resolved = resolve_job(remote_spec.model, wire_job);
    SolverSession remote_session(popts.verify.solver);
    const VerifyResult remote =
        verify_members(remote_spec.model, resolved.invariant,
                       std::move(resolved.members), wire_job.max_failures,
                       remote_session);

    const WireResult reply = decode_result(encode_result(
        make_wire_result(remote_spec.model.network(), job.id, remote)));
    EXPECT_EQ(reply.id, job.id);
    const VerifyResult mapped = to_verify_result(model.network(), reply);
    EXPECT_EQ(mapped.outcome, remote.outcome);
    EXPECT_EQ(mapped.assertion_count, remote.assertion_count);
    EXPECT_EQ(mapped.solve.transfer_builds, remote.solve.transfer_builds);

    // Dispatcher-side fan-out: relabeling the encode-space verdict through
    // the representative binding's inverse bijection must agree with the
    // direct cold solve of the binding's own problem - the projection must
    // reconstruct the *identical* encoding problem, not merely an
    // equivalent-looking one.
    const VerifyResult bound =
        bind_result(model, mapped, job.members, job.iso_image);
    EXPECT_EQ(bound.outcome, local.outcome) << "job " << job.id;
    EXPECT_EQ(bound.raw_status, local.raw_status) << "job " << job.id;
    EXPECT_EQ(bound.slice_size, local.slice_size) << "job " << job.id;
    EXPECT_EQ(bound.assertion_count, local.assertion_count)
        << "job " << job.id;

    if (remote.counterexample.has_value()) {
      ASSERT_TRUE(mapped.counterexample.has_value()) << "job " << job.id;
      ASSERT_EQ(mapped.counterexample->size(), remote.counterexample->size());
      // Every node the worker's trace names must land on the dispatcher
      // node carrying the same name (or Omega on both sides).
      const auto& remote_events = remote.counterexample->events();
      const auto& mapped_events = mapped.counterexample->events();
      for (std::size_t e = 0; e < remote_events.size(); ++e) {
        EXPECT_EQ(mapped_events[e].kind, remote_events[e].kind);
        EXPECT_EQ(mapped_events[e].time, remote_events[e].time);
        EXPECT_EQ(mapped_events[e].from.valid(), remote_events[e].from.valid());
        if (remote_events[e].from.valid()) {
          EXPECT_EQ(model.network().name(mapped_events[e].from),
                    remote_spec.model.network().name(remote_events[e].from));
        }
        EXPECT_EQ(mapped_events[e].packet, remote_events[e].packet);
      }
    }
  }
}

/// The cross-run problem key (v6 cache identity) re-derived on a full spec
/// round trip must equal the planner's for every verdict binding: the text
/// format preserves everything the key fingerprints (topology relation,
/// failure scenarios, configuration projections, invariant), and the key
/// itself erases the node renumbering the round trip causes - which is
/// exactly the property that lets a renamed-but-isomorphic spec hit the
/// persistent cache cold.
void expect_problem_keys_survive(const encode::NetworkModel& model,
                                 const Batch& batch, int max_failures = 0) {
  EngineOptions popts{.batch = true, .jobs = 1};
  popts.verify.solver.seed = 7;
  popts.verify.max_failures = max_failures;
  JobPlan plan = Engine(model, popts).plan(batch.invariants);
  ASSERT_FALSE(plan.jobs.empty());

  const std::string full_text = io::write_projected_spec_string(
      model, encode::all_edge_nodes(model));
  io::Spec reparsed = io::parse_spec_string(full_text);
  dataplane::TransferCache transfers(reparsed.model.network());
  auto renamed = [&](NodeId id) {
    return reparsed.model.network().node_by_name(model.network().name(id));
  };
  std::size_t keyed = 0;
  for (const Job& job : plan.jobs) {
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      if (b.problem_key->key.empty()) continue;
      ++keyed;
      std::vector<NodeId> members;
      members.reserve(b.members->size());
      for (NodeId m : *b.members) members.push_back(renamed(m));
      std::sort(members.begin(), members.end());
      encode::Invariant inv = batch.invariants[b.invariant_index];
      inv.target = renamed(inv.target);
      if (inv.other.valid()) inv.other = renamed(inv.other);
      const slice::ShapeKey shape = slice::canonical_shape_key(
          reparsed.model, members, max_failures, &transfers);
      const slice::ProblemKey pk = slice::canonical_problem_key(
          reparsed.model, shape, inv, max_failures, &transfers);
      EXPECT_EQ(pk.key, b.problem_key->key)
          << "job " << job.id << " binding " << k;
    }
  }
  EXPECT_GT(keyed, 0u);
}

TEST(WireJobs, RoundTripOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_jobs_roundtrip(e.model, e.batch());
  expect_problem_keys_survive(e.model, e.batch());
}

TEST(WireJobs, RoundTripOnViolatedEnterprise) {
  // Open the firewall so part of the batch is violated: the round trip
  // must reproduce sat verdicts and ship their traces back.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);
  Batch batch;
  batch.name = "enterprise-open-fw";
  batch.invariants = e.invariants;
  expect_jobs_roundtrip(e.model, batch);
  expect_problem_keys_survive(e.model, batch);
}

TEST(WireJobs, RoundTripOnDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  expect_jobs_roundtrip(dc.model, dc.batch());
  expect_problem_keys_survive(dc.model, dc.batch());
}

TEST(WireJobs, RoundTripOnMisconfiguredDatacenterUnderFailures) {
  // Misconfigured rules AND a non-zero failure budget: the projected spec
  // must carry the failure scenarios (and their rerouted tables) intact.
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  expect_jobs_roundtrip(dc.model, dc.batch(), /*max_failures=*/1);
  expect_problem_keys_survive(dc.model, dc.batch(), /*max_failures=*/1);
}

TEST(WireJobs, RoundTripOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_jobs_roundtrip(isp.model, isp.batch());
  expect_problem_keys_survive(isp.model, isp.batch());
}

TEST(WireJobs, RoundTripOnMisconfiguredIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_jobs_roundtrip(isp.model, isp.batch());
  expect_problem_keys_survive(isp.model, isp.batch());
}

TEST(WireJobs, RoundTripOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_jobs_roundtrip(mt.model, mt.batch());
  expect_problem_keys_survive(mt.model, mt.batch());
}

TEST(WireWorker, RejectedModelYieldsStructuredJobErrorsNotDeath) {
  // A spec the parser refuses must not kill the worker: its group's jobs
  // come back as structured errors (so the dispatcher's bounded retries
  // engage), and the worker survives to serve the next group.
  TempStream in;
  TempStream out;
  ASSERT_NE(in.f, nullptr);
  ASSERT_NE(out.f, nullptr);
  WireModel bad_model;
  bad_model.spec_text = "not-a-directive at all\n";
  write_frame(in.f, FrameType::model, encode_model(bad_model));
  WireJob job;
  job.id = 5;
  job.kind = encode::InvariantKind::node_isolation;
  job.target = "a";
  job.other = "b";
  job.members = {"a", "b"};
  write_frame(in.f, FrameType::job, encode_job(job));
  // A good model after the bad one: the worker must have survived.
  WireModel good_model;
  good_model.solver.timeout_ms = 5000;
  good_model.spec_text =
      "host a 10.0.0.1\nhost b 10.0.1.1\nswitch s\n"
      "link a s\nlink b s\n"
      "route s 10.0.0.1 a\nroute s 10.0.1.1 b\n";
  write_frame(in.f, FrameType::model, encode_model(good_model));
  job.id = 6;
  write_frame(in.f, FrameType::job, encode_job(job));
  std::rewind(in.f);

  EXPECT_EQ(worker_main(in.f, out.f), 0);  // clean EOF exit, no crash
  std::rewind(out.f);
  FrameType type;
  std::string payload;
  ASSERT_TRUE(read_frame(out.f, type, payload));
  ASSERT_EQ(type, FrameType::result);
  const WireResult failed = decode_result(payload);
  EXPECT_EQ(failed.id, 5u);
  EXPECT_NE(failed.error.find("projected spec rejected"), std::string::npos)
      << failed.error;
  ASSERT_TRUE(read_frame(out.f, type, payload));
  const WireResult solved = decode_result(payload);
  EXPECT_EQ(solved.id, 6u);
  EXPECT_EQ(solved.error, "");
  EXPECT_NE(solved.outcome, Outcome::unknown);
  EXPECT_FALSE(read_frame(out.f, type, payload));
}

TEST(WireJobs, UnknownNodeNamesAreRejectedNotMisbound) {
  scenarios::EnterpriseParams p;
  p.subnets = 2;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  WireJob job;
  job.kind = encode::InvariantKind::node_isolation;
  job.target = "no-such-host";
  job.other = "internet";
  job.members = {"internet"};
  EXPECT_THROW((void)resolve_job(e.model, job), WireError);
}

}  // namespace
}  // namespace vmn::verify::wire
