#include "verify/faults.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/error.hpp"

namespace vmn::verify {

namespace {

// splitmix64: the finalizer scrambles (seed, site, ids) into a uniform
// 64-bit word. Decisions compare that word against p * 2^64, so a fault
// with probability p fires at ~p of its opportunities, independently per
// site — and identically so on every run with the same plan.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t mix_site(std::uint64_t seed, std::uint64_t site, std::uint64_t a,
                       std::uint64_t b) {
  return mix64(mix64(mix64(seed ^ site) ^ a) ^ b);
}

// Site tags: fixed constants so a plan's schedule survives refactors that
// reorder call sites.
constexpr std::uint64_t kSiteWorkerCrash = 0x776b2d6372617368ull;  // "wk-crash"
constexpr std::uint64_t kSiteWorkerHang = 0x776b2d68616e6721ull;
constexpr std::uint64_t kSiteJobCrash = 0x6a6f622d63726173ull;
constexpr std::uint64_t kSiteFrameCorrupt = 0x66722d636f727275ull;
constexpr std::uint64_t kSiteFrameTruncate = 0x66722d7472756e63ull;
constexpr std::uint64_t kSiteSolverUnknown = 0x736c2d756e6b6e6full;
constexpr std::uint64_t kSiteSolverTimeout = 0x736c2d74696d656full;
constexpr std::uint64_t kSiteCacheTear = 0x63682d7465617221ull;
constexpr std::uint64_t kSiteCacheFlip = 0x63682d666c697021ull;
constexpr std::uint64_t kSiteBackoff = 0x626b2d6a69747465ull;

double parse_probability(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double p = std::strtod(value.c_str(), &end);
  if (end == nullptr || *end != '\0' || p < 0.0 || p > 1.0) {
    throw Error("fault plan: " + key + " wants a probability in [0,1], got '" +
                value + "'");
  }
  return p;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || value.empty()) {
    throw Error("fault plan: " + key + " wants an unsigned integer, got '" +
                value + "'");
  }
  return static_cast<std::uint64_t>(v);
}

void append_knob(std::string& out, const char* key, double p) {
  if (p == 0.0) return;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s%s=%g", out.empty() ? "" : ",", key, p);
  out += buf;
}

}  // namespace

bool FaultPlan::enabled() const {
  return worker_crash > 0 || worker_hang > 0 || job_crash > 0 ||
         frame_corrupt > 0 || frame_truncate > 0 || solver_unknown > 0 ||
         solver_timeout > 0 || cache_torn_tail > 0 || cache_bit_flip > 0 ||
         kill_worker >= 0 || kill_all || crash_job >= 0;
}

bool FaultPlan::has_worker_faults() const {
  return worker_crash > 0 || worker_hang > 0 || job_crash > 0 ||
         frame_corrupt > 0 || frame_truncate > 0 || kill_worker >= 0 ||
         kill_all || crash_job >= 0;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::stringstream in(spec);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw Error("fault plan: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "seed") {
      plan.seed = parse_u64(key, value);
    } else if (key == "worker-crash") {
      plan.worker_crash = parse_probability(key, value);
    } else if (key == "worker-hang") {
      plan.worker_hang = parse_probability(key, value);
    } else if (key == "job-crash") {
      plan.job_crash = parse_probability(key, value);
    } else if (key == "frame-corrupt") {
      plan.frame_corrupt = parse_probability(key, value);
    } else if (key == "frame-truncate") {
      plan.frame_truncate = parse_probability(key, value);
    } else if (key == "solver-unknown") {
      plan.solver_unknown = parse_probability(key, value);
    } else if (key == "solver-timeout") {
      plan.solver_timeout = parse_probability(key, value);
    } else if (key == "cache-torn-tail") {
      plan.cache_torn_tail = parse_probability(key, value);
    } else if (key == "cache-bit-flip") {
      plan.cache_bit_flip = parse_probability(key, value);
    } else if (key == "kill") {
      if (value == "all") {
        plan.kill_all = true;
      } else {
        plan.kill_worker = static_cast<std::int64_t>(parse_u64(key, value));
      }
    } else if (key == "crash-job") {
      plan.crash_job = static_cast<std::int64_t>(parse_u64(key, value));
    } else {
      throw Error("fault plan: unknown knob '" + key + "'");
    }
  }
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  if (seed != 0) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "seed=%" PRIu64, seed);
    out += buf;
  }
  append_knob(out, "worker-crash", worker_crash);
  append_knob(out, "worker-hang", worker_hang);
  append_knob(out, "job-crash", job_crash);
  append_knob(out, "frame-corrupt", frame_corrupt);
  append_knob(out, "frame-truncate", frame_truncate);
  append_knob(out, "solver-unknown", solver_unknown);
  append_knob(out, "solver-timeout", solver_timeout);
  append_knob(out, "cache-torn-tail", cache_torn_tail);
  append_knob(out, "cache-bit-flip", cache_bit_flip);
  if (kill_all) {
    out += out.empty() ? "kill=all" : ",kill=all";
  } else if (kill_worker >= 0) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%skill=%" PRId64, out.empty() ? "" : ",",
                  kill_worker);
    out += buf;
  }
  if (crash_job >= 0) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%scrash-job=%" PRId64,
                  out.empty() ? "" : ",", crash_job);
    out += buf;
  }
  return out;
}

bool FaultInjector::decide(double p, std::uint64_t site, std::uint64_t a,
                           std::uint64_t b) const {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const std::uint64_t h = mix_site(plan_.seed, site, a, b);
  const double unit =
      static_cast<double>(h) /
      (static_cast<double>(std::numeric_limits<std::uint64_t>::max()) + 1.0);
  return unit < p;
}

bool FaultInjector::crash_worker(std::uint32_t worker_ordinal,
                                 std::uint64_t dispatch_k) const {
  if (dispatch_k == 0) {
    if (plan_.kill_all) return true;
    if (plan_.kill_worker >= 0 &&
        static_cast<std::uint64_t>(plan_.kill_worker) == worker_ordinal) {
      return true;
    }
  }
  return decide(plan_.worker_crash, kSiteWorkerCrash, worker_ordinal,
                dispatch_k);
}

bool FaultInjector::hang_worker(std::uint32_t worker_ordinal,
                                std::uint64_t dispatch_k) const {
  return decide(plan_.worker_hang, kSiteWorkerHang, worker_ordinal, dispatch_k);
}

bool FaultInjector::crash_on_job(std::uint64_t job_id) const {
  if (plan_.crash_job >= 0 &&
      static_cast<std::uint64_t>(plan_.crash_job) == job_id) {
    return true;
  }
  return decide(plan_.job_crash, kSiteJobCrash, job_id, 0);
}

FaultInjector::FrameFault FaultInjector::frame_fault(
    std::uint32_t worker_ordinal, std::uint64_t frame_ordinal) const {
  if (decide(plan_.frame_corrupt, kSiteFrameCorrupt, worker_ordinal,
             frame_ordinal)) {
    return FrameFault::corrupt;
  }
  if (decide(plan_.frame_truncate, kSiteFrameTruncate, worker_ordinal,
             frame_ordinal)) {
    return FrameFault::truncate;
  }
  return FrameFault::none;
}

FaultInjector::SolverFault FaultInjector::solver_fault(
    std::uint64_t solve_ordinal, std::uint32_t attempt) const {
  // Persistent first: a timeout-faulted check stays faulted under
  // escalation, which is exactly the case escalation must survive
  // (counted but not rescued).
  if (decide(plan_.solver_timeout, kSiteSolverTimeout, solve_ordinal, 0)) {
    return SolverFault::forced_timeout;
  }
  if (attempt == 0 &&
      decide(plan_.solver_unknown, kSiteSolverUnknown, solve_ordinal, 0)) {
    return SolverFault::forced_unknown;
  }
  return SolverFault::none;
}

bool FaultInjector::tear_cache_flush(std::uint64_t flush_ordinal) const {
  return decide(plan_.cache_torn_tail, kSiteCacheTear, flush_ordinal, 0);
}

bool FaultInjector::flip_cache_record(std::uint64_t record_ordinal) const {
  return decide(plan_.cache_bit_flip, kSiteCacheFlip, record_ordinal, 0);
}

std::chrono::milliseconds respawn_backoff(std::uint64_t seed, std::size_t slot,
                                          std::size_t attempt,
                                          std::chrono::milliseconds base,
                                          std::chrono::milliseconds cap) {
  if (base.count() <= 0) return std::chrono::milliseconds{0};
  // min(cap, base << attempt), shift clamped so it cannot overflow.
  const std::uint64_t shift = attempt < 20 ? attempt : 20;
  std::uint64_t ms = static_cast<std::uint64_t>(base.count()) << shift;
  const std::uint64_t cap_ms =
      cap.count() > 0 ? static_cast<std::uint64_t>(cap.count()) : ms;
  if (ms > cap_ms) ms = cap_ms;
  const std::uint64_t jitter = mix_site(seed, kSiteBackoff, slot, attempt) %
                               static_cast<std::uint64_t>(base.count());
  return std::chrono::milliseconds{static_cast<long long>(ms + jitter)};
}

}  // namespace vmn::verify
