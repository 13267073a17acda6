#include "verify/wire.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "core/hash.hpp"
#include "io/spec.hpp"
#include "verify/faults.hpp"
#include "verify/solver_pool.hpp"

namespace vmn::verify::wire {

namespace {

constexpr char kMagic[4] = {'V', 'M', 'N', 'W'};

[[noreturn]] void corrupt(const std::string& what) {
  throw WireError("wire: " + what);
}

/// Little-endian payload builder. Fixed-width fields only: the format is
/// read by other builds of this code, never by this process alone, so
/// nothing implementation-defined (endianness, size_t width) may leak in.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    if (s.size() > kMaxPayloadSize) corrupt("string too large to serialize");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  [[nodiscard]] std::string take() && { return std::move(buf_); }

 private:
  void le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

/// The matching reader; every underrun (or trailing garbage at finish())
/// is a WireError, so a truncated payload can never decode to a plausible
/// but wrong value.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    return std::string(take(n));
  }
  void finish() const {
    if (pos_ != data_.size()) corrupt("trailing bytes in payload");
  }

 private:
  std::string_view take(std::size_t n) {
    if (data_.size() - pos_ < n) corrupt("truncated payload");
    std::string_view v = data_.substr(pos_, n);
    pos_ += n;
    return v;
  }
  std::uint64_t le(int bytes) {
    std::string_view v = take(static_cast<std::size_t>(bytes));
    std::uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= std::uint64_t{static_cast<unsigned char>(v[static_cast<std::size_t>(i)])}
             << (8 * i);
    }
    return out;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

bool known_frame_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(FrameType::model) ||
         t == static_cast<std::uint8_t>(FrameType::job) ||
         t == static_cast<std::uint8_t>(FrameType::result);
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxPayloadSize) corrupt("payload exceeds size cap");
  PayloadWriter w;
  w.u8(static_cast<std::uint8_t>(kMagic[0]));
  w.u8(static_cast<std::uint8_t>(kMagic[1]));
  w.u8(static_cast<std::uint8_t>(kMagic[2]));
  w.u8(static_cast<std::uint8_t>(kMagic[3]));
  w.u16(kWireVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // reserved
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u64(fnv1a64(payload));
  std::string out = std::move(w).take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameHeader decode_frame_header(const char* bytes) {
  if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
    corrupt("bad frame magic");
  }
  PayloadReader r(std::string_view(bytes + 4, kFrameHeaderSize - 4));
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    corrupt("unsupported wire version " + std::to_string(version));
  }
  const std::uint8_t type = r.u8();
  if (!known_frame_type(type)) corrupt("unknown frame type");
  (void)r.u8();  // reserved
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.payload_size = r.u32();
  header.digest = r.u64();
  if (header.payload_size > kMaxPayloadSize) corrupt("absurd payload size");
  return header;
}

void check_payload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_size) corrupt("payload size mismatch");
  if (fnv1a64(payload) != header.digest) corrupt("payload digest mismatch");
}

bool read_frame(std::FILE* in, FrameType& type, std::string& payload) {
  char header_bytes[kFrameHeaderSize];
  const std::size_t got = std::fread(header_bytes, 1, kFrameHeaderSize, in);
  if (got == 0 && std::feof(in)) return false;  // clean EOF between frames
  if (got != kFrameHeaderSize) corrupt("truncated frame header");
  const FrameHeader header = decode_frame_header(header_bytes);
  payload.resize(header.payload_size);
  if (header.payload_size != 0 &&
      std::fread(payload.data(), 1, payload.size(), in) != payload.size()) {
    corrupt("truncated frame payload");
  }
  check_payload(header, payload);
  type = header.type;
  return true;
}

void write_frame(std::FILE* out, FrameType type, std::string_view payload) {
  const std::string frame = encode_frame(type, payload);
  if (std::fwrite(frame.data(), 1, frame.size(), out) != frame.size() ||
      std::fflush(out) != 0) {
    corrupt("short frame write");
  }
}

// --- payload codecs ---------------------------------------------------------

std::string encode_model(const WireModel& model) {
  PayloadWriter w;
  w.u32(model.worker_index);
  w.u8(model.warm_solving ? 1 : 0);
  w.u32(model.solver.timeout_ms);
  w.u32(model.solver.seed);
  w.str(model.fault_plan);
  w.u8(model.escalate_unknown ? 1 : 0);
  w.str(model.spec_text);
  return std::move(w).take();
}

WireModel decode_model(std::string_view payload) {
  PayloadReader r(payload);
  WireModel model;
  model.worker_index = r.u32();
  model.warm_solving = r.u8() != 0;
  model.solver.timeout_ms = r.u32();
  model.solver.seed = r.u32();
  model.fault_plan = r.str();
  model.escalate_unknown = r.u8() != 0;
  model.spec_text = r.str();
  r.finish();
  return model;
}

std::string encode_job(const WireJob& job) {
  PayloadWriter w;
  w.u64(job.id);
  w.u8(static_cast<std::uint8_t>(job.kind));
  w.str(job.target);
  w.str(job.other);
  w.str(job.type_prefix);
  w.u32(static_cast<std::uint32_t>(job.members.size()));
  for (const std::string& m : job.members) w.str(m);
  w.i32(job.max_failures);
  return std::move(w).take();
}

WireJob decode_job(std::string_view payload) {
  PayloadReader r(payload);
  WireJob job;
  job.id = r.u64();
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(encode::InvariantKind::reachable)) {
    corrupt("unknown invariant kind");
  }
  job.kind = static_cast<encode::InvariantKind>(kind);
  job.target = r.str();
  job.other = r.str();
  job.type_prefix = r.str();
  // No reserve(): the count is attacker-controlled wire input (a corrupt
  // or hostile worker binary), and reserving before the per-element
  // underrun checks would turn a bogus count into a giant allocation
  // (std::length_error escaping the WireError-only catches) instead of a
  // clean WireError at the first missing element.
  const std::uint32_t members = r.u32();
  for (std::uint32_t i = 0; i < members; ++i) job.members.push_back(r.str());
  job.max_failures = r.i32();
  r.finish();
  return job;
}

std::string encode_result(const WireResult& result) {
  PayloadWriter w;
  w.u64(result.id);
  w.u8(static_cast<std::uint8_t>(result.raw_status));
  w.u8(static_cast<std::uint8_t>(result.outcome));
  w.i64(result.solve_us);
  w.u64(result.slice_size);
  w.u64(result.assertion_count);
  w.u8(result.solve.warm_reused ? 1 : 0);
  w.u8(result.solve.escalated ? 1 : 0);
  w.u8(result.solve.escalation_rescued ? 1 : 0);
  w.u64(result.solve.transfer_builds);
  w.u64(result.solve.transfer_reuses);
  w.str(result.error);
  w.u8(result.has_trace ? 1 : 0);
  if (result.has_trace) {
    w.u32(static_cast<std::uint32_t>(result.trace.size()));
    for (const WireEvent& e : result.trace) {
      w.u8(e.kind);
      w.i64(e.time);
      w.str(e.from);
      w.str(e.to);
      w.u8(e.has_packet ? 1 : 0);
      if (e.has_packet) {
        w.u32(e.src);
        w.u32(e.dst);
        w.u16(e.src_port);
        w.u16(e.dst_port);
        w.u8(e.origin ? 1 : 0);
        if (e.origin) w.u32(*e.origin);
        w.u8(e.malicious ? 1 : 0);
        w.u16(e.app_class);
      }
    }
  }
  return std::move(w).take();
}

WireResult decode_result(std::string_view payload) {
  PayloadReader r(payload);
  WireResult result;
  result.id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(smt::CheckStatus::unknown)) {
    corrupt("unknown check status");
  }
  result.raw_status = static_cast<smt::CheckStatus>(status);
  const std::uint8_t outcome = r.u8();
  if (outcome > static_cast<std::uint8_t>(Outcome::unknown)) {
    corrupt("unknown outcome");
  }
  result.outcome = static_cast<Outcome>(outcome);
  result.solve_us = r.i64();
  result.slice_size = r.u64();
  result.assertion_count = r.u64();
  result.solve.warm_reused = r.u8() != 0;
  result.solve.escalated = r.u8() != 0;
  result.solve.escalation_rescued = r.u8() != 0;
  result.solve.transfer_builds = r.u64();
  result.solve.transfer_reuses = r.u64();
  result.error = r.str();
  result.has_trace = r.u8() != 0;
  if (result.has_trace) {
    // No reserve(): see decode_job - the count is untrusted wire input.
    const std::uint32_t events = r.u32();
    for (std::uint32_t i = 0; i < events; ++i) {
      WireEvent e;
      e.kind = r.u8();
      if (e.kind > static_cast<std::uint8_t>(EventKind::recover)) {
        corrupt("unknown event kind");
      }
      e.time = r.i64();
      e.from = r.str();
      e.to = r.str();
      e.has_packet = r.u8() != 0;
      if (e.has_packet) {
        e.src = r.u32();
        e.dst = r.u32();
        e.src_port = r.u16();
        e.dst_port = r.u16();
        if (r.u8() != 0) e.origin = r.u32();
        e.malicious = r.u8() != 0;
        e.app_class = r.u16();
      }
      result.trace.push_back(std::move(e));
    }
  }
  r.finish();
  return result;
}

// --- id <-> name projection -------------------------------------------------

WireJob make_wire_job(const encode::NetworkModel& model, const Job& job,
                      int max_failures) {
  const net::Network& net = model.network();
  const encode::Invariant& invariant = job.solve_invariant;
  WireJob out;
  out.id = job.id;
  out.kind = invariant.kind;
  out.target = net.name(invariant.target);
  out.other = invariant.other.valid() ? net.name(invariant.other) : "";
  out.type_prefix = invariant.type_prefix;
  const std::vector<NodeId>& members = job.encode_members();
  out.members.reserve(members.size());
  for (NodeId m : members) out.members.push_back(net.name(m));
  out.max_failures = max_failures;
  return out;
}

namespace {

NodeId resolve_name(const net::Network& network, const std::string& name) {
  try {
    return network.node_by_name(name);
  } catch (const Error&) {
    corrupt("unknown node name '" + name + "'");
  }
}

}  // namespace

ResolvedJob resolve_job(const encode::NetworkModel& model, const WireJob& job) {
  const net::Network& net = model.network();
  ResolvedJob out;
  out.invariant.kind = job.kind;
  out.invariant.target = resolve_name(net, job.target);
  if (!job.other.empty()) out.invariant.other = resolve_name(net, job.other);
  out.invariant.type_prefix = job.type_prefix;
  out.members.reserve(job.members.size());
  for (const std::string& m : job.members) {
    out.members.push_back(resolve_name(net, m));
  }
  // Members travel as names; the worker's re-parsed model assigns different
  // ids, so restore the sorted order every slice carries.
  std::sort(out.members.begin(), out.members.end());
  return out;
}

WireResult make_wire_result(const net::Network& network, std::uint64_t id,
                            const VerifyResult& result) {
  WireResult out;
  out.id = id;
  out.raw_status = result.raw_status;
  out.outcome = result.outcome;
  out.solve_us = result.solve_time.count();
  out.slice_size = result.slice_size;
  out.assertion_count = result.assertion_count;
  out.solve = result.solve;
  if (result.counterexample) {
    out.has_trace = true;
    out.trace.reserve(result.counterexample->size());
    for (const Event& ev : result.counterexample->events()) {
      WireEvent we;
      we.kind = static_cast<std::uint8_t>(ev.kind);
      we.time = ev.time;
      we.from = ev.from.valid() ? network.name(ev.from) : "";
      we.to = ev.to.valid() ? network.name(ev.to) : "";
      we.has_packet =
          ev.kind == EventKind::send || ev.kind == EventKind::receive;
      if (we.has_packet) {
        we.src = ev.packet.src.bits();
        we.dst = ev.packet.dst.bits();
        we.src_port = ev.packet.src_port;
        we.dst_port = ev.packet.dst_port;
        if (ev.packet.origin) we.origin = ev.packet.origin->bits();
        we.malicious = ev.packet.malicious;
        we.app_class = ev.packet.app_class;
      }
      out.trace.push_back(std::move(we));
    }
  }
  return out;
}

VerifyResult to_verify_result(const net::Network& network,
                              const WireResult& result) {
  VerifyResult out;
  out.raw_status = result.raw_status;
  out.outcome = result.outcome;
  out.solve_time = std::chrono::microseconds(result.solve_us);
  out.slice_size = result.slice_size;
  out.assertion_count = result.assertion_count;
  out.solve = result.solve;
  if (result.has_trace) {
    std::vector<Event> events;
    events.reserve(result.trace.size());
    for (const WireEvent& we : result.trace) {
      Event ev;
      ev.kind = static_cast<EventKind>(we.kind);
      ev.time = we.time;
      ev.from = we.from.empty() ? NodeId{} : resolve_name(network, we.from);
      ev.to = we.to.empty() ? NodeId{} : resolve_name(network, we.to);
      if (we.has_packet) {
        ev.packet.src = Address(we.src);
        ev.packet.dst = Address(we.dst);
        ev.packet.src_port = we.src_port;
        ev.packet.dst_port = we.dst_port;
        if (we.origin) ev.packet.origin = Address(*we.origin);
        ev.packet.malicious = we.malicious;
        ev.packet.app_class = we.app_class;
      }
      events.push_back(std::move(ev));
    }
    out.counterexample = Trace(std::move(events));
  }
  return out;
}

// --- the worker loop --------------------------------------------------------

namespace {

/// Result-frame write with fault injection: `corrupt` flips one payload
/// bit (the header digest then refuses it dispatcher-side), `truncate`
/// writes a partial frame and exits - a worker dying mid-write. Both make
/// the dispatcher declare this worker dead and requeue.
void write_result_frame(std::FILE* out, const WireResult& result,
                        FaultInjector::FrameFault fault) {
  const std::string payload = encode_result(result);
  if (fault == FaultInjector::FrameFault::none) {
    write_frame(out, FrameType::result, payload);
    return;
  }
  std::string frame = encode_frame(FrameType::result, payload);
  if (fault == FaultInjector::FrameFault::corrupt) {
    frame[kFrameHeaderSize + (frame.size() - kFrameHeaderSize) / 2] ^=
        static_cast<char>(0x01);
    (void)std::fwrite(frame.data(), 1, frame.size(), out);
    (void)std::fflush(out);
    return;
  }
  // truncate: half the payload, then die the way a crashing worker does.
  const std::size_t cut = kFrameHeaderSize + (frame.size() - kFrameHeaderSize) / 2;
  (void)std::fwrite(frame.data(), 1, cut, out);
  (void)std::fflush(out);
  std::_Exit(4);
}

}  // namespace

int worker_main(std::FILE* in, std::FILE* out) {
  std::optional<io::Spec> spec;
  std::optional<SolverSession> session;
  FaultInjector injector;
  std::uint32_t worker_ordinal = 0;
  std::uint64_t dispatch_k = 0;
  std::uint64_t frames_written = 0;
  std::string model_error;

  FrameType type;
  std::string payload;
  try {
    while (read_frame(in, type, payload)) {
      if (type == FrameType::model) {
        const WireModel model = decode_model(payload);
        // A spec the parser rejects must not kill the worker: the jobs of
        // this group get structured errors (and a requeue elsewhere burns
        // bounded attempts), while the worker stays alive for the next
        // group. Only stream-level corruption is fatal.
        spec.reset();
        model_error.clear();
        try {
          spec.emplace(io::parse_spec_string(model.spec_text));
        } catch (const std::exception& e) {
          model_error = std::string("projected spec rejected: ") + e.what();
        }
        if (!session) {
          session.emplace(model.solver, model.warm_solving);
        } else {
          // A new model starts a new shape group; the next warm_bind would
          // miss anyway (different model object), this just frees the old
          // context eagerly.
          session->reset_warm();
        }
        // A plan the worker cannot parse injects nothing.
        worker_ordinal = model.worker_index;
        FaultPlan plan;
        try {
          plan = FaultPlan::parse(model.fault_plan);
        } catch (const Error&) {
        }
        injector = FaultInjector(std::move(plan));
        SessionResilience resilience;
        resilience.faults = injector;
        resilience.escalate_unknown = model.escalate_unknown;
        session->set_resilience(std::move(resilience));
        continue;
      }
      if (type != FrameType::job) return 3;  // results flow the other way
      const WireJob job = decode_job(payload);
      const std::uint64_t k = dispatch_k++;
      if (injector.crash_worker(worker_ordinal, k) ||
          injector.crash_on_job(job.id)) {
        (void)raise(SIGKILL);
      }
      if (injector.hang_worker(worker_ordinal, k)) {
        // Stop responding without dying: the dispatcher's hang timeout
        // must notice, kill us, and requeue the in-flight job.
        for (;;) pause();
      }
      WireResult result;
      result.id = job.id;
      if (!spec) {
        result.error = model_error.empty()
                           ? "job frame before any model frame"
                           : model_error;
      } else {
        try {
          ResolvedJob resolved = resolve_job(spec->model, job);
          const VerifyResult verdict = verify_members(
              spec->model, resolved.invariant, std::move(resolved.members),
              job.max_failures, *session);
          result =
              make_wire_result(spec->model.network(), job.id, verdict);
        } catch (const std::exception& e) {
          result = WireResult{};
          result.id = job.id;
          result.error = e.what();
        }
      }
      write_result_frame(out, result,
                         injector.frame_fault(worker_ordinal, frames_written++));
    }
  } catch (const WireError&) {
    // A torn or corrupt stream cannot be resynchronized; exit and let the
    // dispatcher's dead-worker path requeue whatever was in flight.
    return 2;
  }
  return 0;
}

}  // namespace vmn::verify::wire
