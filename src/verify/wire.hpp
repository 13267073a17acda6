// Wire serialization for the process executor's workers.
//
// The dispatcher (verify/process_pool.hpp) and the workers it forks speak a
// framed, versioned binary protocol over pipes:
//
//   dispatcher -> worker:  MODEL frame   (the group boundary: worker
//                                         ordinal, solver options, fault
//                                         plan, escalation policy; one per
//                                         shape group)
//                          JOB frames    (encode-space invariant + encode
//                                         member names + failure budget)
//   worker -> dispatcher:  RESULT frames (verdict, raw status, solve time,
//                                         slice/assertion statistics, the
//                                         solve's SolveFacts, optional
//                                         counterexample trace with node
//                                         names)
//
// Every frame is `magic | version | type | payload size | FNV-1a digest |
// payload` (core/hash.hpp's pinned FNV-1a 64, the same digest the canonical
// keys and the result cache are built on). A corrupt or truncated frame
// raises WireError - the dispatcher treats it as a dead worker and requeues,
// it never misreads a half-written job as a different one.
//
// Node identity crosses the process boundary by *name*. A forked worker
// solves the dispatcher's own model, so names resolve to identical ids on
// both sides; resolve_job / the trace translation in to_verify_result map
// names back to ids, and a name the model lacks is a WireError.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/trace.hpp"
#include "dataplane/transfer.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "smt/solver.hpp"
#include "verify/job.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify::wire {

/// Raised on malformed frames or payloads (bad magic, version mismatch,
/// digest mismatch, truncation, unknown node names).
class WireError : public Error {
 public:
  using Error::Error;
};

/// v1 -> v2: JOB frames grew the cross-isomorphic binding (representative
/// member names, aligned with the job's own), RESULT frames the iso/encode
/// reuse counters. v2 -> v3: MODEL frames carry the serialized FaultPlan
/// and the unknown-escalation policy; RESULT frames the escalation
/// counters. v3 -> v4: JOB frames ship the *encode-space* problem verbatim
/// (the planner's solve_invariant over the representative member set) with
/// a single iso_encoded marker instead of the aligned iso_image name list
/// and the canonical key - workers return encode-space results and the
/// dispatcher fans each verdict out to its bindings (verify::bind_result),
/// so frames shrink and a merged equivalence class crosses the pipe once.
/// v4 -> v5: MODEL frames drop the escalation timeout multiplier (a fixed
/// constant of the worker's session now, no longer a setting).
/// v5 -> v6: RESULT frames carry the solve's SolveFacts (three flags, two
/// transfer counts) in place of seven per-job session-counter deltas, and
/// JOB frames drop the iso_encoded marker - the dispatcher already knows
/// which jobs it rebound.
/// v6 -> v7: RESULT frames carry the solve time in microseconds (solve_us,
/// in place of solve_ms) and drop total_ms, which nothing read.
/// v7 -> v8: MODEL frames drop the projected spec text - workers are forks
/// that solve the dispatcher's own model.
/// Version skew on either side is a WireError, never a misread.
inline constexpr std::uint16_t kWireVersion = 8;
inline constexpr std::size_t kFrameHeaderSize = 20;
/// Upper bound on a single payload (a counterexample trace of a
/// pathological slice stays far below this; anything larger is a corrupt
/// length field).
inline constexpr std::uint32_t kMaxPayloadSize = 1u << 30;

enum class FrameType : std::uint8_t {
  model = 'M',
  job = 'J',
  result = 'R',
};

struct FrameHeader {
  FrameType type = FrameType::model;
  std::uint32_t payload_size = 0;
  std::uint64_t digest = 0;
};

/// A complete frame (header + payload) as bytes, ready to write.
[[nodiscard]] std::string encode_frame(FrameType type,
                                       std::string_view payload);
/// Parses and validates the fixed-size header; throws WireError on bad
/// magic, unsupported version, unknown type or an absurd payload size.
[[nodiscard]] FrameHeader decode_frame_header(const char* bytes);
/// Digest-checks a received payload against its header; throws WireError.
void check_payload(const FrameHeader& header, std::string_view payload);

/// stdio conveniences (the worker side of the protocol). read_frame returns
/// false on a clean EOF at a frame boundary and throws WireError on a torn
/// header, torn payload, or any validation failure.
[[nodiscard]] bool read_frame(std::FILE* in, FrameType& type,
                              std::string& payload);
void write_frame(std::FILE* out, FrameType type, std::string_view payload);

// --- payloads ---------------------------------------------------------------

/// MODEL: starts a shape group; the session settings its jobs run under.
struct WireModel {
  /// Monotonic worker ordinal: the original fleet gets 0..n-1, respawned
  /// replacements fresh ordinals after that, so targeted fault knobs
  /// (FaultPlan::kill_worker) hit one incarnation, not a slot forever.
  std::uint32_t worker_index = 0;
  bool warm_solving = true;
  smt::SolverOptions solver;
  /// Serialized verify::FaultPlan (FaultPlan::to_string; empty = none).
  std::string fault_plan;
  /// Unknown-verdict escalation policy (VerifyOptions::escalate_unknown),
  /// applied worker-side in verify_members.
  bool escalate_unknown = false;
  /// Never encoded: kept only because the benchmark harness (bench/e2e)
  /// writes it, and ROADMAP item 8(a) deletes it.
  std::string spec_text;
};

/// JOB: one verify::Job's encode-space problem, node ids projected to
/// names. The invariant fields are the planner's solve_invariant (already
/// mapped into encode space for iso-rebound jobs) and `members` the
/// encode member set; the worker solves exactly this and returns the
/// encode-space result - binding fan-out stays dispatcher-side.
struct WireJob {
  std::uint64_t id = 0;
  encode::InvariantKind kind = encode::InvariantKind::node_isolation;
  std::string target;
  std::string other;  ///< empty when the invariant has no peer node
  std::string type_prefix;
  std::vector<std::string> members;
  std::int32_t max_failures = 0;
};

/// One trace event with node identity projected to names ("" = the network
/// pseudo-node Omega, which has no topology node).
struct WireEvent {
  std::uint8_t kind = 0;
  std::int64_t time = 0;
  std::string from;
  std::string to;
  bool has_packet = false;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::optional<std::uint32_t> origin;
  bool malicious = false;
  std::uint16_t app_class = 0;
};

/// RESULT: the worker's answer for one job (or a structured failure).
struct WireResult {
  std::uint64_t id = 0;
  smt::CheckStatus raw_status = smt::CheckStatus::unknown;
  Outcome outcome = Outcome::unknown;
  /// VerifyResult::solve_time, in microseconds.
  std::int64_t solve_us = 0;
  std::uint64_t slice_size = 0;
  std::uint64_t assertion_count = 0;
  /// This job's solve (VerifyResult::solve), counted dispatcher-side by
  /// the Engine like any other executor's result.
  SolveFacts solve;
  /// Non-empty when the worker failed to execute the job (unknown node,
  /// a job before any MODEL frame, solver exception); the dispatcher
  /// requeues such jobs.
  std::string error;
  bool has_trace = false;
  std::vector<WireEvent> trace;
};

[[nodiscard]] std::string encode_model(const WireModel& model);
[[nodiscard]] WireModel decode_model(std::string_view payload);
[[nodiscard]] std::string encode_job(const WireJob& job);
[[nodiscard]] WireJob decode_job(std::string_view payload);
[[nodiscard]] std::string encode_result(const WireResult& result);
[[nodiscard]] WireResult decode_result(std::string_view payload);

/// Projects a planned Job's encode-space problem (solve_invariant +
/// encode members) to names for the wire.
[[nodiscard]] WireJob make_wire_job(const encode::NetworkModel& model,
                                    const Job& job, int max_failures);

/// A wire job resolved against the worker's model: names back to ids.
/// Throws WireError when a name does not exist in `model`.
struct ResolvedJob {
  encode::Invariant invariant;
  std::vector<NodeId> members;
};
[[nodiscard]] ResolvedJob resolve_job(const encode::NetworkModel& model,
                                      const WireJob& job);

/// Projects a VerifyResult (trace node ids to names) for the wire...
[[nodiscard]] WireResult make_wire_result(const net::Network& network,
                                          std::uint64_t id,
                                          const VerifyResult& result);
/// ...and resolves one back against the dispatcher's network. Trace events
/// naming nodes the dispatcher does not know (impossible for honest
/// workers) throw WireError.
[[nodiscard]] VerifyResult to_verify_result(const net::Network& network,
                                            const WireResult& result);

/// The worker loop a forked ProcessPool child runs: reads MODEL/JOB frames
/// from `in`, executes each job on `model` with a persistent SolverSession
/// that borrows `transfers` (warm reuse within each MODEL frame's job run),
/// writes RESULT frames to `out`. A job the worker cannot execute (a name
/// `model` lacks, a solver exception) gets a RESULT frame carrying the
/// error, and the loop goes on. Returns 0 on clean EOF, non-zero after a
/// protocol error (the dispatcher sees the closed pipe and requeues).
///
/// Fault injection: the MODEL frame carries a serialized verify::FaultPlan
/// (worker crash/hang at dispatch k, targeted kill=<i> / kill=all, per-job
/// crash loops, frame corruption/truncation on write, forced solver
/// unknowns/timeouts), the one route by which faults reach a worker.
int worker_main(const encode::NetworkModel& model,
                dataplane::TransferCache& transfers, std::FILE* in,
                std::FILE* out);

/// worker_main as a whole process, for the forked child: flushes `out` and
/// exits with worker_main's status without freeing the session's last Z3
/// context. The dispatcher waits in waitpid for this exit, and the kernel
/// reclaims the memory anyway.
[[noreturn]] void worker_process(const encode::NetworkModel& model,
                                 dataplane::TransferCache& transfers,
                                 std::FILE* in, std::FILE* out);

}  // namespace vmn::verify::wire
