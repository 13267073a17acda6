// `vmn serve` - the long-running incremental re-verification daemon.
//
// Loads a spec once, answers verdict queries over a tiny line protocol,
// watches the file for edits, and when an edit's rendering changes
// re-plans and re-solves *only* the slices whose canonical keys changed:
// the warm verify::Engine (solver sessions, PlanContext transfer memos,
// shape representatives) and its record-granular ResultCache persist
// across requests and across reloads, so an edit confined to one segment
// of a chain re-verifies that segment and answers the rest from cache.
//
// Protocol (newline-delimited, one response line per request line):
//
//   STATUS              -> OK generation=G invariants=N holds=H
//                          violated=V unknown=U degraded=0|1 spec=PATH
//   VERDICT <which>     -> OK <holds|violated|unknown> index=I [sym] [cache]
//                          invariant="<description>"
//                          <which> is a 0-based index or the exact
//                          description string STATUS-order printing uses.
//   RELOAD              -> OK reloaded generation=G model <un>changed,
//                          invariants <un>changed; C solver classes, S
//                          solver calls, H cache hits |
//                          OK unchanged generation=G (<why>): the file is
//                          as served, or it renders as the served spec
//                          does (io::render_spec; comments, blank lines) |
//                          ERR parse: <message>   (old generation serves on)
//   STATS               -> OK <single-line JSON object>: generation, spec,
//                          holds/violated/unknown, degraded, a `batch`
//                          object holding the last batch's
//                          BatchResult::metrics() (timers in microseconds:
//                          plan_us, total_us, ...; solver_calls counts Z3
//                          solves, static_decisions the box-free classes
//                          decided without one) and a `lifetime` object
//                          (batches, reloads, noop_edits, parse_errors,
//                          requests)
//
// Anything else answers `ERR <reason>` and the connection stays up -
// malformed input never kills the daemon.
//
// Layering: ServeState is the socket-free core (load/diff/reload/handle a
// protocol line) driven directly by unit tests; Server wraps it in a
// poll(2) event loop over a Unix socket and/or loopback TCP listener plus
// an inotify watch (Linux) with a content-compare stat-poll fallback, so
// editors that rename-replace and plain `cat >` both wake it.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/spec.hpp"
#include "verify/engine.hpp"

namespace vmn::verify {

struct ServeOptions {
  /// The spec file to load, serve and watch.
  std::string spec_path;
  /// Unix-domain socket to listen on; empty = no Unix listener.
  std::string socket_path;
  /// Loopback TCP port to listen on; -1 = no TCP listener, 0 = ephemeral
  /// (the bound port is reported by Server::tcp_port()).
  int tcp_port = -1;
  /// Edit-poll tick: poll(2) timeout, and how often the file content is
  /// re-read and compared when idle - with or without the inotify watch
  /// (Linux; when inotify is unavailable polling is all there is). The
  /// content compare gates reloads, so spurious wakeups are no-ops.
  std::chrono::milliseconds poll_interval{500};
  /// Verification configuration (engine.verify.cache_dir enables the
  /// on-disk cache; without one ServeState forces memory_cache so verdicts
  /// still carry across reloads).
  EngineOptions engine;
};

/// Counters the daemon accumulates across its lifetime (per-batch numbers
/// live in the last BatchResult; these survive reloads).
struct ServeStats {
  std::uint64_t generation = 0;   ///< bumped per applied reload
  std::uint64_t batches = 0;      ///< run_batch calls (initial load included)
  std::uint64_t reloads = 0;      ///< semantic reloads applied
  std::uint64_t noop_edits = 0;   ///< file changed, its rendering did not
  std::uint64_t parse_errors = 0; ///< edits rejected (old generation kept)
  std::uint64_t requests = 0;     ///< protocol lines handled
};

/// The daemon core, minus sockets: owns the parsed spec, the warm Engine,
/// and the last batch of verdicts. Exact same object the unit tests drive.
class ServeState {
 public:
  /// Loads options.spec_path and runs the initial batch; throws vmn::Error
  /// (or io::ParseError) if the spec is unreadable or malformed - a daemon
  /// only starts from a good generation.
  explicit ServeState(ServeOptions options);

  /// Handles one protocol line, returns one response line (no trailing
  /// newline). Never throws on bad input: malformed lines answer ERR.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Re-reads the spec file and applies it if its rendering changed.
  /// Returns true when a reload ran (generation bumped). Unreadable or
  /// unparsable content keeps the current generation serving (the editor
  /// may be mid-save); formatting-only edits count as noop_edits.
  bool check_for_edit();

  [[nodiscard]] const io::Spec& spec() const { return *spec_; }
  [[nodiscard]] const BatchResult& last_batch() const { return last_batch_; }
  [[nodiscard]] const ServeStats& stats() const { return stats_; }
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  [[nodiscard]] Engine& engine() { return *engine_; }
  /// The parse error that rejected the most recent edit ("" when the
  /// current file content is the served generation).
  [[nodiscard]] const std::string& last_error() const { return last_error_; }

 private:
  [[nodiscard]] std::string cmd_status() const;
  [[nodiscard]] std::string cmd_verdict(const std::string& which) const;
  [[nodiscard]] std::string cmd_reload();
  [[nodiscard]] std::string cmd_stats() const;
  /// Parses `text` and swaps it in when its rendering differs.
  /// Returns a human-readable outcome (also the RELOAD response tail).
  enum class Applied { reloaded, unchanged, rejected };
  Applied apply_text(const std::string& text, std::string& detail);
  void run_current();

  ServeOptions options_;
  /// unique_ptr: Engine and BatchResult hold pointers into the model, so
  /// the spec must be stable in memory and swapped atomically on reload.
  std::unique_ptr<io::Spec> spec_;
  /// spec_'s rendering (io::render_spec): an edit that renders the same
  /// is formatting only.
  io::SpecRendering rendering_;
  std::string spec_text_;  ///< raw file content of the served generation
  /// Most recent content examined (served or rejected): the edit poll
  /// compares against this so a broken save is parsed once, not per tick.
  std::string last_seen_text_;
  std::unique_ptr<Engine> engine_;
  BatchResult last_batch_;
  ServeStats stats_;
  std::string last_error_;
};

/// The socket front end: accepts clients on a Unix socket and/or loopback
/// TCP, buffers lines per client, and wakes ServeState on edits via
/// inotify or the poll tick. Single-threaded - one poll(2) loop multiplexes
/// everything, so ServeState needs no locking.
class Server {
 public:
  /// Binds the listeners (throws vmn::Error when none can be bound) and
  /// loads the spec via ServeState.
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop until stop(). Safe to call from a thread.
  void run();
  /// Signals run() to wind down (async-signal-safe: just a flag; the poll
  /// timeout bounds the latency).
  void stop() { stop_ = true; }

  /// The actually-bound TCP port (resolves tcp_port=0), -1 if none.
  [[nodiscard]] int tcp_port() const { return bound_tcp_port_; }
  [[nodiscard]] ServeState& state() { return state_; }

 private:
  struct Client {
    int fd = -1;
    std::string inbuf;
  };
  void setup_listeners();
  void setup_watch();
  void accept_clients(int listen_fd);
  /// Reads, splits lines, answers; returns false when the client is done.
  bool service_client(Client& client);
  void drain_inotify();
  void close_all();

  ServeState state_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int inotify_fd_ = -1;
  int watch_wd_ = -1;
  int bound_tcp_port_ = -1;
  std::string watched_name_;  ///< basename of spec_path (inotify filter)
  std::vector<Client> clients_;
  volatile bool stop_ = false;
};

/// CLI entry: runs a Server until SIGINT/SIGTERM. Returns 0 on a clean
/// shutdown, 3 on setup failure (bad spec, unbindable socket).
int serve_main(const ServeOptions& options);

}  // namespace vmn::verify
