#include "verify/serve.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/inotify.h>
#endif

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "vmn.hpp"

namespace vmn::verify {

namespace {

/// Reads the whole file; false when it cannot be opened (an editor may be
/// mid-rename - the caller keeps serving the old generation and retries).
bool slurp(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool all_digits(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isdigit(c) != 0;
  });
}

/// JSON string escaping: quotes, backslashes and every control byte (a
/// path may hold any of them) must not break the STATS line.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct VerdictCounts {
  std::size_t holds = 0;
  std::size_t violated = 0;
  std::size_t unknown = 0;
};

VerdictCounts count_verdicts(const BatchResult& batch) {
  VerdictCounts c;
  for (const VerifyResult& r : batch.results) {
    switch (r.outcome) {
      case Outcome::holds: ++c.holds; break;
      case Outcome::violated: ++c.violated; break;
      case Outcome::unknown: ++c.unknown; break;
    }
  }
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// ServeState

ServeState::ServeState(ServeOptions options) : options_(std::move(options)) {
  std::string text;
  if (!slurp(options_.spec_path, text)) {
    throw Error("cannot open spec file: " + options_.spec_path);
  }
  io::Spec parsed = io::parse_spec_string(text);  // throws ParseError
  spec_ = std::make_unique<io::Spec>(std::move(parsed));
  canonical_ = io::canonical_spec(*spec_);
  spec_text_ = text;
  last_seen_text_ = text;
  if (options_.engine.verify.cache_dir.empty()) {
    // No disk cache requested: keep one in memory so verdicts survive
    // reloads - incremental re-verification is the daemon's whole point.
    options_.engine.memory_cache = true;
  }
  engine_ = std::make_unique<Engine>(spec_->model, options_.engine);
  stats_.generation = 1;
  run_current();
}

void ServeState::run_current() {
  last_batch_ = engine_->run_batch(spec_->invariants);
  ++stats_.batches;
}

ServeState::Applied ServeState::apply_text(const std::string& text,
                                           std::string& detail) {
  if (text == spec_text_) {
    // Content matches the served generation again (e.g. a broken save was
    // reverted): any pending parse error is moot.
    last_error_.clear();
    detail = "no file change";
    return Applied::unchanged;
  }
  io::Spec parsed;
  try {
    parsed = io::parse_spec_string(text);
  } catch (const Error& e) {
    last_error_ = e.what();
    ++stats_.parse_errors;
    detail = e.what();
    return Applied::rejected;
  }
  // One rendering of the edit serves both the diff and the cache stamp.
  io::CanonicalSpec canonical = io::canonical_spec(parsed);
  const io::SpecDiff diff = io::diff_specs(canonical_, canonical);
  if (diff.empty()) {
    // Comment/whitespace-only edit: adopt the bytes, keep the generation.
    spec_text_ = text;
    last_error_.clear();
    ++stats_.noop_edits;
    detail = "formatting-only edit";
    return Applied::unchanged;
  }
  auto next = std::make_unique<io::Spec>(std::move(parsed));
  // Rebind before dropping the old spec: the engine swaps its model
  // pointer and resets the lazily-built verifiers, so nothing dangles.
  engine_->rebind(next->model, canonical.model_fingerprint);
  spec_ = std::move(next);
  canonical_ = std::move(canonical);
  spec_text_ = text;
  last_error_.clear();
  ++stats_.generation;
  ++stats_.reloads;
  run_current();
  std::ostringstream os;
  os << diff.summary() << "; " << last_batch_.pool.jobs_executed
     << " solver classes, " << last_batch_.solver_calls << " solver calls, "
     << last_batch_.cache_hits << " cache hits";
  detail = os.str();
  return Applied::reloaded;
}

bool ServeState::check_for_edit() {
  std::string text;
  if (!slurp(options_.spec_path, text)) return false;
  if (text == last_seen_text_) return false;
  last_seen_text_ = text;
  std::string detail;
  return apply_text(text, detail) == Applied::reloaded;
}

std::string ServeState::cmd_status() const {
  const VerdictCounts c = count_verdicts(last_batch_);
  std::ostringstream os;
  os << "OK generation=" << stats_.generation
     << " invariants=" << last_batch_.results.size() << " holds=" << c.holds
     << " violated=" << c.violated << " unknown=" << c.unknown
     << " degraded=" << (last_batch_.degradation.degraded() ? 1 : 0)
     << " spec=" << options_.spec_path;
  if (!last_error_.empty()) os << " last_error=\"" << last_error_ << '"';
  return os.str();
}

std::string ServeState::cmd_verdict(const std::string& which) const {
  std::string sel = trim(which);
  if (sel.size() >= 2 && sel.front() == '"' && sel.back() == '"') {
    sel = sel.substr(1, sel.size() - 2);
  }
  if (sel.empty()) {
    return "ERR VERDICT wants an invariant index or description";
  }
  const net::Network& net = spec_->model.network();
  auto name = [&](NodeId n) { return net.name(n); };
  std::size_t index = last_batch_.results.size();
  if (all_digits(sel)) {
    // An index too large for size_t is out of range like any other.
    const std::from_chars_result parsed =
        std::from_chars(sel.data(), sel.data() + sel.size(), index);
    if (parsed.ec != std::errc{} || index >= last_batch_.results.size()) {
      return "ERR invariant index " + sel + " out of range (have " +
             std::to_string(last_batch_.results.size()) + ")";
    }
  } else {
    for (std::size_t i = 0; i < spec_->invariants.size(); ++i) {
      if (spec_->invariants[i].describe(name) == sel) {
        index = i;
        break;
      }
    }
    if (index >= last_batch_.results.size()) {
      return "ERR unknown invariant: " + sel;
    }
  }
  const VerifyResult& r = last_batch_.results[index];
  std::ostringstream os;
  os << "OK " << to_string(r.outcome) << " index=" << index;
  if (r.by_symmetry) os << " [sym]";
  if (r.from_cache) os << " [cache]";
  os << " invariant=\"" << spec_->invariants[index].describe(name) << '"';
  return os.str();
}

std::string ServeState::cmd_reload() {
  std::string text;
  if (!slurp(options_.spec_path, text)) {
    return "ERR read: cannot open " + options_.spec_path;
  }
  last_seen_text_ = text;
  std::string detail;
  switch (apply_text(text, detail)) {
    case Applied::reloaded:
      return "OK reloaded generation=" + std::to_string(stats_.generation) +
             " " + detail;
    case Applied::unchanged:
      return "OK unchanged generation=" + std::to_string(stats_.generation) +
             " (" + detail + ")";
    case Applied::rejected:
      return "ERR parse: " + detail;
  }
  return "ERR internal";  // unreachable
}

std::string ServeState::cmd_stats() const {
  const VerdictCounts c = count_verdicts(last_batch_);
  // Counters go through the one JSON writer; only the spec path string,
  // the degraded flag and the two nested objects are spliced in.
  std::string head = metrics_json({{"generation", stats_.generation},
                                   {"holds", c.holds},
                                   {"violated", c.violated},
                                   {"unknown", c.unknown}});
  head.pop_back();  // reopen the object
  const std::string lifetime =
      metrics_json({{"batches", stats_.batches},
                    {"reloads", stats_.reloads},
                    {"noop_edits", stats_.noop_edits},
                    {"parse_errors", stats_.parse_errors},
                    {"requests", stats_.requests}});
  return "OK " + head + ",\"spec\":\"" + json_escape(options_.spec_path) +
         "\",\"degraded\":" +
         (last_batch_.degradation.degraded() ? "true" : "false") +
         ",\"batch\":" + metrics_json(last_batch_.metrics()) +
         ",\"lifetime\":" + lifetime + "}";
}

std::string ServeState::handle_line(const std::string& raw) {
  ++stats_.requests;
  std::string line = trim(raw);
  if (line.empty()) return "ERR empty command";
  std::string cmd;
  std::string rest;
  const std::size_t sp = line.find(' ');
  if (sp == std::string::npos) {
    cmd = line;
  } else {
    cmd = line.substr(0, sp);
    rest = line.substr(sp + 1);
  }
  std::transform(cmd.begin(), cmd.end(), cmd.begin(), [](unsigned char ch) {
    return static_cast<char>(std::toupper(ch));
  });
  const bool bare = trim(rest).empty();
  try {
    if (cmd == "STATUS") {
      return bare ? cmd_status() : "ERR STATUS takes no operand";
    }
    if (cmd == "VERDICT") return cmd_verdict(rest);
    if (cmd == "RELOAD") {
      return bare ? cmd_reload() : "ERR RELOAD takes no operand";
    }
    if (cmd == "STATS") {
      return bare ? cmd_stats() : "ERR STATS takes no operand";
    }
  } catch (const std::exception& e) {
    // A request must never take the daemon down; the served generation is
    // still intact, so report and keep listening.
    return std::string("ERR internal: ") + e.what();
  }
  return "ERR unknown command " + cmd +
         " (want STATUS | VERDICT <invariant> | RELOAD | STATS)";
}

// ---------------------------------------------------------------------------
// Server

namespace {

void set_cloexec(int fd) {
  const int flags = fcntl(fd, F_GETFD);
  if (flags >= 0) fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// Listeners must be non-blocking: accept_clients drains until EAGAIN, and
/// a blocking accept after the last pending connection would wedge the
/// whole event loop.
void set_nonblock(int fd) {
  const int flags = fcntl(fd, F_GETFL);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// send() with MSG_NOSIGNAL so a client that hangs up mid-response costs
/// an EPIPE, not a process-wide SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

Server::Server(ServeOptions options) : state_(std::move(options)) {
  setup_listeners();
  setup_watch();
}

Server::~Server() { close_all(); }

void Server::setup_listeners() {
  const ServeOptions& opts = state_.options();
  if (opts.socket_path.empty() && opts.tcp_port < 0) {
    throw Error("serve needs a Unix socket path or a TCP port to listen on");
  }
  if (!opts.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts.socket_path.size() >= sizeof(addr.sun_path)) {
      throw Error("socket path too long: " + opts.socket_path);
    }
    std::memcpy(addr.sun_path, opts.socket_path.c_str(),
                opts.socket_path.size() + 1);
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) throw Error("socket(AF_UNIX) failed");
    set_cloexec(unix_fd_);
    set_nonblock(unix_fd_);
    ::unlink(opts.socket_path.c_str());  // stale socket from a prior run
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(unix_fd_, 8) < 0) {
      throw Error("cannot listen on " + opts.socket_path + ": " +
                  std::strerror(errno));
    }
  }
  if (opts.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) throw Error("socket(AF_INET) failed");
    set_cloexec(tcp_fd_);
    set_nonblock(tcp_fd_);
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(opts.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
        ::listen(tcp_fd_, 8) < 0) {
      throw Error("cannot listen on 127.0.0.1:" +
                  std::to_string(opts.tcp_port) + ": " + std::strerror(errno));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }
}

void Server::setup_watch() {
#ifdef __linux__
  const std::string& path = state_.options().spec_path;
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  watched_name_ = slash == std::string::npos ? path : path.substr(slash + 1);
  inotify_fd_ = inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (inotify_fd_ < 0) return;  // fall back to pure polling
  // Watch the directory, not the file: editors that save via
  // write-to-temp + rename replace the inode, which a file watch loses.
  watch_wd_ = inotify_add_watch(inotify_fd_, dir.c_str(),
                                IN_CLOSE_WRITE | IN_MOVED_TO | IN_CREATE);
  if (watch_wd_ < 0) {
    ::close(inotify_fd_);
    inotify_fd_ = -1;
  }
#endif
}

void Server::drain_inotify() {
#ifdef __linux__
  if (inotify_fd_ < 0) return;
  alignas(inotify_event) char buf[4096];
  bool relevant = false;
  for (;;) {
    const ssize_t n = ::read(inotify_fd_, buf, sizeof buf);
    if (n <= 0) break;  // EAGAIN: queue drained
    std::size_t off = 0;
    while (off + sizeof(inotify_event) <= static_cast<std::size_t>(n)) {
      const auto* ev = reinterpret_cast<const inotify_event*>(buf + off);
      if (ev->len > 0 && watched_name_ == ev->name) relevant = true;
      off += sizeof(inotify_event) + ev->len;
    }
  }
  // The content compare inside check_for_edit gates actual work, so a
  // spurious neighbour-file event at most costs one file read.
  if (relevant) state_.check_for_edit();
#endif
}

void Server::accept_clients(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) break;
    set_cloexec(fd);
    clients_.push_back(Client{fd, {}});
    if (clients_.size() >= 64) break;  // bounded; poll round-robins anyway
  }
}

bool Server::service_client(Client& client) {
  char buf[4096];
  const ssize_t n = ::read(client.fd, buf, sizeof buf);
  if (n == 0) return false;  // orderly hangup
  if (n < 0) return errno == EINTR || errno == EAGAIN;
  client.inbuf.append(buf, static_cast<std::size_t>(n));
  std::size_t nl;
  while ((nl = client.inbuf.find('\n')) != std::string::npos) {
    std::string line = client.inbuf.substr(0, nl);
    client.inbuf.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!send_all(client.fd, state_.handle_line(line) + "\n")) return false;
  }
  if (client.inbuf.size() > (1u << 16)) {
    // A line this long is not the protocol; cut the connection rather
    // than buffer without bound.
    send_all(client.fd, "ERR line too long\n");
    return false;
  }
  return true;
}

void Server::run() {
  const int tick =
      static_cast<int>(state_.options().poll_interval.count());
  while (!stop_) {
    std::vector<pollfd> fds;
    const std::size_t unix_at = fds.size();
    if (unix_fd_ >= 0) fds.push_back({unix_fd_, POLLIN, 0});
    const std::size_t tcp_at = fds.size();
    if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
    const std::size_t ino_at = fds.size();
    if (inotify_fd_ >= 0) fds.push_back({inotify_fd_, POLLIN, 0});
    const std::size_t clients_at = fds.size();
    for (const Client& c : clients_) fds.push_back({c.fd, POLLIN, 0});

    const int ready = ::poll(fds.data(), fds.size(), tick > 0 ? tick : 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Tick: the stat-poll fallback (and a safety net under inotify -
      // the compare makes a clean file free).
      state_.check_for_edit();
      continue;
    }
    if (unix_fd_ >= 0 && (fds[unix_at].revents & POLLIN) != 0) {
      accept_clients(unix_fd_);
    }
    if (tcp_fd_ >= 0 && (fds[tcp_at].revents & POLLIN) != 0) {
      accept_clients(tcp_fd_);
    }
    if (inotify_fd_ >= 0 && (fds[ino_at].revents & POLLIN) != 0) {
      drain_inotify();
    }
    for (std::size_t i = clients_.size(); i-- > 0;) {
      const pollfd& pfd = fds[clients_at + i];
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!service_client(clients_[i])) {
        ::close(clients_[i].fd);
        clients_.erase(clients_.begin() +
                       static_cast<std::ptrdiff_t>(i));
      }
    }
  }
}

void Server::close_all() {
  for (const Client& c : clients_) ::close(c.fd);
  clients_.clear();
  if (unix_fd_ >= 0) ::close(unix_fd_);
  if (tcp_fd_ >= 0) ::close(tcp_fd_);
  if (inotify_fd_ >= 0) ::close(inotify_fd_);
  unix_fd_ = tcp_fd_ = inotify_fd_ = -1;
  if (!state_.options().socket_path.empty()) {
    ::unlink(state_.options().socket_path.c_str());
  }
}

namespace {
Server* g_server = nullptr;
void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->stop();
}
}  // namespace

int serve_main(const ServeOptions& options) {
  try {
    Server server(options);
    g_server = &server;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    const ServeState& st = server.state();
    std::printf("serving %s: generation %llu, %zu invariants\n",
                options.spec_path.c_str(),
                static_cast<unsigned long long>(st.stats().generation),
                st.last_batch().results.size());
    if (!options.socket_path.empty()) {
      std::printf("  listening on unix:%s\n", options.socket_path.c_str());
    }
    if (server.tcp_port() >= 0) {
      std::printf("  listening on tcp:127.0.0.1:%d\n", server.tcp_port());
    }
    std::fflush(stdout);
    server.run();
    g_server = nullptr;
    std::printf("serve: shut down cleanly\n");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
}

}  // namespace vmn::verify
