#include "client.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.hpp"

namespace vmn::bench {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Spawns `argv` with stdout on `out_fd` (or /dev/null when -1) and stderr
/// on /dev/null.
pid_t spawn(const std::vector<std::string>& argv, int out_fd) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&actions, out_fd, STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, out_fd);
  } else {
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    throw Error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  return pid;
}

/// Blocks until `pid` exits and fills the usage fields of `run`.
void reap(pid_t pid, ProcessRun& run) {
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw Error("wait4 failed");
  }
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1000.0 +
           static_cast<double>(tv.tv_usec) / 1000.0;
  };
  run.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  run.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

}  // namespace

ProcessRun run_process(const std::vector<std::string>& argv) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) throw Error("pipe2 failed");
  ProcessRun run;
  const auto start = Clock::now();
  pid_t pid = -1;
  try {
    pid = spawn(argv, pipe_fds[1]);
  } catch (...) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    throw;
  }
  ::close(pipe_fds[1]);
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof buf);
    if (n > 0) {
      run.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(pipe_fds[0]);
  reap(pid, run);
  run.wall_ms = ms_since(start);
  return run;
}

void stage_file(const std::string& path, const std::string& text) {
  std::ofstream out(path + ".tmp", std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw Error("cannot write " + path + ".tmp");
}

void commit_file(const std::string& path) {
  if (std::rename((path + ".tmp").c_str(), path.c_str()) != 0) {
    throw Error("cannot rename " + path + ".tmp: " + std::strerror(errno));
  }
}

Daemon::Daemon(const std::vector<std::string>& argv) : pid_(spawn(argv, -1)) {}

Daemon::~Daemon() {
  try {
    stop();
  } catch (...) {
    // The child is gone either way; nothing left to report from here.
  }
}

bool Daemon::alive() {
  if (pid_ < 0) return false;
  int status = 0;
  rusage ru{};
  if (wait4(pid_, &status, WNOHANG, &ru) == pid_) {
    exit_.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    pid_ = -1;
    return false;
  }
  return true;
}

double Daemon::cpu_ms() const {
  if (pid_ < 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime, stime, cutime and
  // cstime are fields 14-17 of the whole line.
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 17 && fields >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

ProcessRun Daemon::stop() {
  if (pid_ < 0) return exit_;
  ::kill(pid_, SIGTERM);
  // serve notices SIGTERM at its next poll tick; give it ample time to
  // shut down cleanly before forcing it.
  const auto start = Clock::now();
  for (;;) {
    siginfo_t info{};
    const int r = waitid(P_PID, static_cast<id_t>(pid_), &info,
                         WEXITED | WNOHANG | WNOWAIT);
    if ((r == 0 && info.si_pid == pid_) || (r < 0 && errno != EINTR)) break;
    if (ms_since(start) > 10000.0) {
      ::kill(pid_, SIGKILL);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  reap(pid_, exit_);
  pid_ = -1;
  return exit_;
}

LineClient::~LineClient() { close(); }

void LineClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

bool LineClient::connect(const std::string& path) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw Error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw Error("socket(AF_UNIX) failed");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return false;
  }
  return true;
}

std::string LineClient::request(const std::string& line) {
  if (fd_ < 0) throw Error("not connected");
  const std::string out = line + "\n";
  for (std::size_t off = 0; off < out.size();) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("send to the serve daemon failed");
    }
    off += static_cast<std::size_t>(n);
  }
  for (;;) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = inbuf_.substr(0, nl);
      inbuf_.erase(0, nl + 1);
      return reply;
    }
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n > 0) {
      inbuf_.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      throw Error("the serve daemon closed the connection");
    }
  }
}

unsigned long long reload_generation(const std::string& reply) {
  if (reply.rfind("OK reloaded ", 0) != 0 &&
      reply.rfind("OK unchanged ", 0) != 0) {
    return 0;
  }
  const std::size_t at = reply.find("generation=");
  if (at == std::string::npos) return 0;
  return std::strtoull(reply.c_str() + at + 11, nullptr, 10);
}

std::string reply_verdict(const std::string& reply) {
  if (reply.rfind("OK ", 0) != 0) return "";
  return reply.substr(3, reply.find(' ', 3) - 3);
}

std::unique_ptr<Daemon> start_serve(const std::string& vmn,
                                    const std::string& spec,
                                    const std::string& socket,
                                    LineClient& client) {
  auto daemon = std::make_unique<Daemon>(
      std::vector<std::string>{vmn, "serve", spec, "--socket", socket});
  while (!client.connect(socket)) {
    if (!daemon->alive()) throw Error("vmn serve exited during start-up");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return daemon;
}

}  // namespace vmn::bench
