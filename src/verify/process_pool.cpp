#include "verify/process_pool.hpp"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>

#include "core/fd_io.hpp"

namespace vmn::verify {

namespace {

using Clock = std::chrono::steady_clock;

/// Dispatch budget per job (initial dispatch + requeues); an exhausted job
/// is abandoned to an unknown verdict.
constexpr int kMaxAttempts = 3;
/// Replacement workers one slot may spawn after crashes or hangs before it
/// retires.
constexpr std::size_t kMaxRespawns = 2;
/// Capped exponential backoff before the k-th respawn of a slot:
/// min(cap, base << k) plus seeded jitter in [0, base).
constexpr std::chrono::milliseconds kRespawnBackoffBase{25};
constexpr std::chrono::milliseconds kRespawnBackoffCap{400};
/// A job whose worker died this many times while it was in flight is
/// quarantined (abandoned to unknown, never dispatched again).
constexpr int kQuarantineKills = 2;

/// A spawned worker process and the two pipe ends the parent keeps.
struct WorkerProc {
  pid_t pid = -1;
  int to_child = -1;
  int from_child = -1;
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Exact read with an absolute deadline. Any outcome but `ok` means the
/// worker is unusable: a clean EOF, a torn frame and a read error all take
/// the same dead-worker path, and `timeout` additionally gets the child
/// killed first.
enum class ReadStatus { ok, closed, timeout };

ReadStatus read_exact(int fd, char* buf, std::size_t n,
                      Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < n) {
    const auto now = Clock::now();
    if (now >= deadline) return ReadStatus::timeout;
    struct pollfd pfd {
      fd, POLLIN, 0
    };
    // Clamp before narrowing: a large hang timeout must not wrap poll's
    // int argument negative (infinite wait - a hung worker would never be
    // declared hung) or truncate tiny (spurious kills of healthy workers).
    const long long remaining_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1;
    const int wait_ms = static_cast<int>(std::min<long long>(
        remaining_ms, std::numeric_limits<int>::max()));
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready == 0) return ReadStatus::timeout;
    if (ready < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::closed;
    }
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r == 0) return ReadStatus::closed;
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::closed;
    }
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::ok;
}

/// Reads one frame of the expected type from a worker. Returns nullopt on
/// any failure (dead or corrupt worker); `timed_out` distinguishes a hang.
std::optional<std::string> read_worker_frame(int fd,
                                             wire::FrameType expected,
                                             Clock::time_point deadline,
                                             bool& timed_out) {
  timed_out = false;
  char header_bytes[wire::kFrameHeaderSize];
  ReadStatus st =
      read_exact(fd, header_bytes, wire::kFrameHeaderSize, deadline);
  if (st != ReadStatus::ok) {
    timed_out = st == ReadStatus::timeout;
    return std::nullopt;
  }
  try {
    const wire::FrameHeader header = wire::decode_frame_header(header_bytes);
    if (header.type != expected) return std::nullopt;
    std::string payload(header.payload_size, '\0');
    if (header.payload_size != 0) {
      st = read_exact(fd, payload.data(), payload.size(), deadline);
      if (st != ReadStatus::ok) {
        timed_out = st == ReadStatus::timeout;
        return std::nullopt;
      }
    }
    wire::check_payload(header, payload);
    return payload;
  } catch (const wire::WireError&) {
    return std::nullopt;
  }
}

/// The forked child: keeps `in`, `out` and stderr, restores the default
/// SIGINT, SIGTERM and SIGPIPE dispositions (the dispatcher's handlers are
/// not the worker's), and runs the worker loop over the inherited model
/// and memo. Never returns.
[[noreturn]] void run_child(int in, int out, const encode::NetworkModel& model,
                            dataplane::TransferCache& transfers) {
  for (int sig : {SIGINT, SIGTERM, SIGPIPE}) ::signal(sig, SIG_DFL);
  std::array<int, 3> keep{STDERR_FILENO, in, out};
  std::sort(keep.begin(), keep.end());
  unsigned first = 0;
  for (int fd : keep) {
    if (static_cast<unsigned>(fd) > first) {
      ::close_range(first, static_cast<unsigned>(fd) - 1, 0);
    }
    first = static_cast<unsigned>(fd) + 1;
  }
  ::close_range(first, ~0u, 0);
  std::FILE* jobs = ::fdopen(in, "rb");
  std::FILE* results = ::fdopen(out, "wb");
  if (jobs == nullptr || results == nullptr) ::_exit(4);
  wire::worker_process(model, transfers, jobs, results);
}

/// Pipes and a fork; the child runs the worker loop and never returns.
std::optional<WorkerProc> spawn(const encode::NetworkModel& model,
                                dataplane::TransferCache& transfers) {
  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0) return std::nullopt;
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return std::nullopt;
  }
  const pid_t pid = ::fork();
  if (pid == 0) run_child(to_child[0], from_child[1], model, transfers);
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (pid < 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    return std::nullopt;
  }
  return WorkerProc{pid, to_child[1], from_child[0]};
}

void reap(WorkerProc& proc, bool kill_first) {
  if (proc.pid < 0) return;
  if (kill_first) ::kill(proc.pid, SIGKILL);
  close_fd(proc.to_child);
  close_fd(proc.from_child);
  int status = 0;
  while (::waitpid(proc.pid, &status, 0) < 0 && errno == EINTR) {
  }
  proc.pid = -1;
}

/// Why a job was abandoned: the cause picks the DegradationReport counter
/// (a job outliving every worker counts as a retry abandonment).
enum class AbandonCause { retries, quarantine, deadline };

/// Everything the per-worker dispatcher threads share, under one mutex -
/// including the batch's own counters, which the threads update in place.
struct DispatchState {
  DispatchState(PoolStats& pool_stats, DegradationReport& report)
      : pool(pool_stats), degradation(report) {}

  std::mutex mu;
  std::condition_variable cv;
  std::deque<ProcessGroup> queue;
  std::vector<std::optional<wire::WireResult>> results;
  std::vector<int> attempts;
  /// Per job: workers that died while this job was the one in flight.
  std::vector<int> crash_kills;
  std::size_t outstanding = 0;  ///< jobs neither answered nor abandoned
  std::size_t alive_workers = 0;
  PoolStats& pool;
  DegradationReport& degradation;
};

/// Locked helper: abandon one undone job. Never overwrites an existing
/// result; silently ignores already-settled jobs.
void abandon_locked(DispatchState& state, std::size_t job_index,
                    AbandonCause cause) {
  if (state.results[job_index].has_value()) return;
  switch (cause) {
    case AbandonCause::retries:
      ++state.degradation.abandoned_retries;
      break;
    case AbandonCause::quarantine:
      ++state.degradation.quarantined;
      break;
    case AbandonCause::deadline:
      ++state.degradation.deadline_abandoned;
      break;
  }
  --state.outstanding;
}

/// Locked helper for a dead or erroring worker's leftovers: requeue what
/// still has attempt budget, abandon the rest.
void requeue_or_abandon_locked(DispatchState& state,
                               const std::vector<wire::WireJob>& jobs,
                               const std::vector<std::size_t>& undone) {
  ProcessGroup retry;
  for (std::size_t job_index : undone) {
    if (state.results[job_index].has_value()) continue;
    if (state.attempts[job_index] >= kMaxAttempts) {
      abandon_locked(state, job_index, AbandonCause::retries);
      state.degradation.reasons.push_back(
          "job " + std::to_string(jobs[job_index].id) + " abandoned after " +
          std::to_string(state.attempts[job_index]) + " attempts");
    } else {
      retry.push_back(job_index);
    }
  }
  if (!retry.empty()) {
    state.pool.jobs_requeued += retry.size();
    state.queue.push_back(std::move(retry));
  }
}

/// Locked helper: the deadline expired - abandon everything not yet
/// dispatched (this group's leftovers plus the whole queue). In-flight
/// jobs on other workers are allowed to finish.
void drain_deadline_locked(DispatchState& state,
                           const std::vector<std::size_t>& undone) {
  std::size_t drained = 0;
  for (std::size_t job_index : undone) {
    if (state.results[job_index].has_value()) continue;
    abandon_locked(state, job_index, AbandonCause::deadline);
    ++drained;
  }
  while (!state.queue.empty()) {
    for (std::size_t job_index : state.queue.front()) {
      if (state.results[job_index].has_value()) continue;
      abandon_locked(state, job_index, AbandonCause::deadline);
      ++drained;
    }
    state.queue.pop_front();
  }
  DegradationReport& report = state.degradation;
  if (!report.deadline_expired) {
    report.deadline_expired = true;
    report.reasons.push_back("deadline expired with " +
                             std::to_string(drained) +
                             " jobs not yet attempted");
  } else if (drained > 0) {
    report.reasons.push_back("deadline drain: " + std::to_string(drained) +
                             " more jobs not attempted");
  }
}

}  // namespace

ProcessPool::ProcessPool(std::size_t workers, const VerifyOptions& verify,
                         ProcessPoolOptions options)
    : workers_(workers != 0 ? workers : std::thread::hardware_concurrency()),
      verify_(verify),
      options_(std::move(options)) {
  if (workers_ == 0) workers_ = 1;  // hardware_concurrency() may not know
}

ProcessDispatch ProcessPool::run(const encode::NetworkModel& model,
                                 dataplane::TransferCache& transfers,
                                 const std::vector<wire::WireJob>& jobs,
                                 std::vector<ProcessGroup> groups,
                                 std::optional<Clock::time_point> deadline,
                                 PoolStats& pool,
                                 DegradationReport& degradation) const {
  ProcessDispatch out;
  out.results.resize(jobs.size());
  if (jobs.empty() || groups.empty()) return out;

  const std::size_t worker_count = std::min(workers_, groups.size());

  const std::chrono::milliseconds hang_timeout =
      options_.hang_timeout.count() > 0
          ? options_.hang_timeout
          : std::chrono::milliseconds(2ull * verify_.solver.timeout_ms +
                                      30000);
  const std::string fault_plan_text = verify_.faults.to_string();

  // A worker dying mid-write must surface as EPIPE on the dispatcher
  // thread, not as a process-wide SIGPIPE.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction old_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  // Spawn the initial fleet before starting any dispatcher thread (fork()
  // from a single-threaded parent); respawns fork later from dispatcher
  // threads (see the header's spawning note).
  std::vector<WorkerProc> procs;
  for (std::size_t w = 0; w < worker_count; ++w) {
    std::optional<WorkerProc> proc = spawn(model, transfers);
    if (proc) procs.push_back(*proc);
  }
  pool.workers_spawned += procs.size();
  // Monotonic worker identity for fault targeting: the initial fleet gets
  // 0..n-1, every respawn a fresh ordinal - FaultPlan::kill_worker kills
  // one incarnation, not its slot forever.
  std::atomic<std::uint32_t> next_ordinal{
      static_cast<std::uint32_t>(procs.size())};
  out.workers.resize(procs.size());

  DispatchState state(pool, degradation);
  state.results.resize(jobs.size());
  state.attempts.resize(jobs.size(), 0);
  state.crash_kills.resize(jobs.size(), 0);
  for (ProcessGroup& group : groups) {
    state.outstanding += group.size();
    state.queue.push_back(std::move(group));
  }
  state.alive_workers = procs.size();

  if (procs.empty()) {
    // Nothing to dispatch on: every job is abandoned, loudly.
    degradation.abandoned_retries += state.outstanding;
    degradation.reasons.push_back("no workers could be spawned");
    ::sigaction(SIGPIPE, &old_pipe, nullptr);
    return out;
  }

  auto drive = [&](std::size_t slot) {
    WorkerProc& proc = procs[slot];
    WorkerStats& stats = out.workers[slot];
    std::uint32_t ordinal = static_cast<std::uint32_t>(slot);
    std::size_t respawns_used = 0;

    while (true) {
      // The group's jobs not yet answered.
      ProcessGroup undone;
      {
        std::unique_lock<std::mutex> lk(state.mu);
        state.cv.wait(lk, [&] {
          return !state.queue.empty() || state.outstanding == 0;
        });
        if (state.outstanding == 0) break;
        undone = std::move(state.queue.front());
        state.queue.pop_front();
      }

      bool worker_dead = false;
      bool hung = false;
      std::optional<std::size_t> in_flight;

      if (deadline && Clock::now() >= *deadline) {
        std::lock_guard<std::mutex> lk(state.mu);
        drain_deadline_locked(state, undone);
        state.cv.notify_all();
        continue;
      }

      wire::WireModel group_start;
      group_start.worker_index = ordinal;
      group_start.warm_solving = verify_.warm_solving;
      group_start.solver = verify_.solver;
      group_start.fault_plan = fault_plan_text;
      group_start.escalate_unknown = verify_.escalate_unknown;
      if (!write_all_fd(proc.to_child,
                        wire::encode_frame(wire::FrameType::model,
                                           wire::encode_model(group_start)))) {
        worker_dead = true;
      }

      while (!worker_dead && !undone.empty()) {
        if (deadline && Clock::now() >= *deadline) {
          std::lock_guard<std::mutex> lk(state.mu);
          drain_deadline_locked(state, undone);
          state.cv.notify_all();
          undone.clear();
          break;
        }
        const std::size_t job_index = undone.front();
        {
          std::lock_guard<std::mutex> lk(state.mu);
          if (state.results[job_index].has_value()) {
            undone.erase(undone.begin());
            continue;
          }
          ++state.attempts[job_index];
        }
        const auto job_start = Clock::now();
        in_flight = job_index;
        if (!write_all_fd(proc.to_child,
                       wire::encode_frame(wire::FrameType::job,
                                          wire::encode_job(jobs[job_index])))) {
          worker_dead = true;
          break;
        }
        std::optional<std::string> payload = read_worker_frame(
            proc.from_child, wire::FrameType::result,
            job_start + hang_timeout, hung);
        if (!payload) {
          worker_dead = true;
          break;
        }
        wire::WireResult result;
        try {
          result = wire::decode_result(*payload);
        } catch (const wire::WireError&) {
          worker_dead = true;
          break;
        }
        if (result.id != jobs[job_index].id) {
          worker_dead = true;  // stream out of sync; do not guess
          break;
        }
        in_flight.reset();
        stats.busy += std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - job_start);
        undone.erase(undone.begin());
        if (!result.error.empty()) {
          // The worker is healthy but could not execute this job; retry it
          // elsewhere within the attempt budget (some other job of the
          // group may still succeed here).
          std::lock_guard<std::mutex> lk(state.mu);
          requeue_or_abandon_locked(state, jobs, {job_index});
          state.cv.notify_all();
          continue;
        }
        ++stats.jobs;
        std::lock_guard<std::mutex> lk(state.mu);
        state.results[job_index] = std::move(result);
        --state.outstanding;
        if (state.outstanding == 0) state.cv.notify_all();
      }

      if (!worker_dead) continue;

      reap(proc, /*kill_first=*/hung);
      bool work_remains = false;
      {
        std::lock_guard<std::mutex> lk(state.mu);
        ++pool.workers_crashed;
        // Crash-loop attribution: charge the death to the job that was in
        // flight; a job that keeps killing workers is quarantined instead
        // of requeued, so it can never eat the whole fleet's respawn
        // budget.
        if (in_flight && !state.results[*in_flight].has_value()) {
          const std::size_t victim = *in_flight;
          if (++state.crash_kills[victim] >= kQuarantineKills) {
            abandon_locked(state, victim, AbandonCause::quarantine);
            degradation.reasons.push_back(
                "job " + std::to_string(jobs[victim].id) +
                " quarantined after killing " +
                std::to_string(state.crash_kills[victim]) + " workers");
            undone.erase(std::remove(undone.begin(), undone.end(), victim),
                         undone.end());
          }
        }
        requeue_or_abandon_locked(state, jobs, undone);
        work_remains = state.outstanding > 0;
        state.cv.notify_all();
      }

      // Self-healing: replace the dead worker (capped exponential backoff,
      // bounded per slot) while there is still work it could do.
      bool respawned = false;
      while (work_remains && respawns_used < kMaxRespawns) {
        const std::chrono::milliseconds pause =
            respawn_backoff(verify_.faults.seed, slot, respawns_used,
                            kRespawnBackoffBase, kRespawnBackoffCap);
        ++respawns_used;
        if (pause.count() > 0) std::this_thread::sleep_for(pause);
        std::optional<WorkerProc> replacement = spawn(model, transfers);
        if (!replacement) continue;  // burn a respawn, back off longer
        proc = *replacement;
        ordinal = next_ordinal.fetch_add(1, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lk(state.mu);
          ++pool.workers_spawned;
          ++degradation.workers_respawned;
        }
        respawned = true;
        break;
      }
      if (respawned) continue;

      // Slot retires: out of respawn budget (or nothing left to do).
      std::lock_guard<std::mutex> lk(state.mu);
      --state.alive_workers;
      if (state.alive_workers == 0 && state.outstanding > 0) {
        // Last worker down: whatever is still queued can never run.
        std::size_t drained = 0;
        while (!state.queue.empty()) {
          for (std::size_t job_index : state.queue.front()) {
            if (!state.results[job_index].has_value()) ++drained;
            abandon_locked(state, job_index, AbandonCause::retries);
          }
          state.queue.pop_front();
        }
        if (drained > 0) {
          degradation.reasons.push_back("no surviving workers: " +
                                        std::to_string(drained) +
                                        " queued jobs abandoned");
        }
      }
      state.cv.notify_all();
      return;
    }
    reap(proc, /*kill_first=*/false);
  };

  std::vector<std::thread> threads;
  threads.reserve(procs.size());
  for (std::size_t w = 0; w < procs.size(); ++w) {
    threads.emplace_back(drive, w);
  }
  for (std::thread& t : threads) t.join();
  ::sigaction(SIGPIPE, &old_pipe, nullptr);

  out.results = std::move(state.results);
  return out;
}

}  // namespace vmn::verify
