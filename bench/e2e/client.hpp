// How bench_e2e drives the real `vmn` binary: fork/exec of one-shot
// commands, and a spawned `vmn serve` daemon spoken to over its Unix
// socket. One caller thread; every child is waited for before the call (or
// the Daemon destructor) returns.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace vmn::bench {

/// One finished child process.
struct ProcessRun {
  double wall_ms = 0.0;  ///< spawn to reaped exit
  double cpu_ms = 0.0;   ///< user + system, reaped descendants included
  double maxrss_mb = 0.0;
  int exit_code = -1;  ///< -1 when killed by a signal
  std::string out;     ///< captured standard output
};

/// Runs `argv` to completion with stdout captured and stderr discarded.
/// Throws vmn::Error when the process cannot be started.
[[nodiscard]] ProcessRun run_process(const std::vector<std::string>& argv);

/// Writes `text` to `<path>.tmp`; commit_file then renames it over `path`,
/// the atomic replace an editor's save performs.
void stage_file(const std::string& path, const std::string& text);
void commit_file(const std::string& path);

/// A long-running child (the serve daemon). Stopped with SIGTERM and
/// reaped by stop() or, failing that, by the destructor.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& argv);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Whether the child is still running (reaps it if it exited).
  [[nodiscard]] bool alive();
  /// user + system CPU so far, from /proc/<pid>/stat.
  [[nodiscard]] double cpu_ms() const;
  /// SIGTERM, then waits (SIGKILL after 10 s) and returns the usage.
  ProcessRun stop();

 private:
  pid_t pid_ = -1;
  ProcessRun exit_;
};

/// A line-protocol connection to the serve daemon.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// One connection attempt; false while nothing listens on `path`.
  bool connect(const std::string& path);
  /// Sends `line` and returns the one-line reply (without the newline);
  /// throws vmn::Error when the connection breaks.
  std::string request(const std::string& line);
  void close();

 private:
  int fd_ = -1;
  std::string inbuf_;
};

/// The generation a RELOAD reply reports ("OK reloaded generation=7 ..."
/// or "OK unchanged generation=7 (...)"); 0 for anything else.
[[nodiscard]] unsigned long long reload_generation(const std::string& reply);
/// The verdict word of a VERDICT reply ("OK holds index=3 ..."); empty
/// for an ERR reply.
[[nodiscard]] std::string reply_verdict(const std::string& reply);

/// Spawns `vmn serve <spec> --socket <socket>` and returns once `client`
/// is connected, i.e. once the daemon has verified the spec and listens.
/// Throws vmn::Error when the daemon exits first.
[[nodiscard]] std::unique_ptr<Daemon> start_serve(const std::string& vmn,
                                                  const std::string& spec,
                                                  const std::string& socket,
                                                  LineClient& client);

}  // namespace vmn::bench
