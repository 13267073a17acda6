#include "verify/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/fd_io.hpp"
#include "core/hash.hpp"

namespace vmn::verify {

namespace {

constexpr const char* kFileName = "vmn-results.cache";
// Key-format version. Bump whenever the *meaning* of canonical keys
// changes, even if their syntax does not: v1 -> v2 when policy classes
// became reachability-refined (host colors in the key now encode the
// refined relation, so a v1 record could resurrect a verdict computed from
// an unsoundly merged class); v2 -> v3 when the header grew the owning
// model's spec fingerprint; v3 -> v4 when record lines became
// length-prefixed and per-record FNV-digested (a v3 line has no digest, so
// a bit flip would be *misread* rather than dropped); v4 -> v5 when the
// model fingerprint moved from the header into each record. A v4 file was
// rejected wholesale after any spec edit - v5 stamps records individually,
// so an edit retires exactly the records it orphaned and the header is
// version-only again. v5 -> v6 when keys switched from the retired
// 1-WL slice key (name-embedding policy fingerprints) to
// slice::canonical_problem_key (shape-canonical, name- and address-blind):
// the two generations fingerprint different renderings of the same
// problems, so a v5 record can neither answer nor collide with a v6
// lookup, and v6 records additionally carry the minting binding's member
// signature for diagnostics. v6 -> v7 when the problem key's rank order
// switched from three rounds of string-colour 1-WL to the stable integer
// colouring of slice/refine.hpp (key prefix prob6/ -> prob7/): a v6 record
// cannot mis-hit, because a key body is exact whatever order produced it,
// but its rank order is no longer the one lookups render, so v6 records
// would only linger unread. A cache file with any other version is stale:
// its records are rejected wholesale on load and the file is rewritten
// under the current header at the next flush.
constexpr const char* kHeaderPrefix = "# vmn-result-cache v7";

const char* status_name(smt::CheckStatus status) {
  switch (status) {
    case smt::CheckStatus::sat:
      return "sat";
    case smt::CheckStatus::unsat:
      return "unsat";
    case smt::CheckStatus::unknown:
      return "unknown";
  }
  return "unknown";
}

std::optional<smt::CheckStatus> parse_status(const std::string& name) {
  if (name == "sat") return smt::CheckStatus::sat;
  if (name == "unsat") return smt::CheckStatus::unsat;
  return std::nullopt;  // unknown is never persisted; reject it on read too
}

/// Opens `path` and takes the advisory exclusive flock, re-opening if a
/// concurrent compaction renamed a new file into place between our open
/// and the lock grant (the fd would point at the dead inode and appended
/// records would vanish with it). Returns -1 when the file cannot be
/// opened or locked; callers degrade to in-memory behavior.
int open_locked(const char* path, int flags) {
  for (int tries = 0; tries < 5; ++tries) {
    const int fd = ::open(path, flags, 0644);
    if (fd < 0) return -1;
    if (::flock(fd, LOCK_EX) != 0) {
      ::close(fd);
      return -1;
    }
    struct stat opened {};
    struct stat current {};
    if (::fstat(fd, &opened) == 0 && ::stat(path, &current) == 0 &&
        opened.st_ino == current.st_ino &&
        opened.st_dev == current.st_dev) {
      return fd;
    }
    ::flock(fd, LOCK_UN);
    ::close(fd);
  }
  return -1;
}

void unlock_close(int fd) {
  ::flock(fd, LOCK_UN);
  ::close(fd);
}

}  // namespace

ResultCache::Fingerprint ResultCache::fingerprint(const std::string& key) {
  // Two FNV-1a streams with distinct seeds (the standard basis and the
  // same basis folded with an arbitrary odd constant) act as one 128-bit
  // fingerprint.
  Fingerprint fp;
  fp.hi = fnv1a64(key);
  fp.lo = fnv1a64(key, kFnv1a64Basis ^ 0x5bf03635aca1eae5ull);
  return fp;
}

std::string ResultCache::format_line(const Fingerprint& fp,
                                     const Slot& slot) {
  // v7 record: `<payload-len> <payload-digest> <payload>` where the
  // payload leads with the minting model's fingerprint stamp (garbage
  // collection only - lookups are keyed on the canonical-key fingerprint
  // alone) and ends with the optional binding signature (diagnostics
  // only; everything after the assertion count, spaces included). The
  // length prefix catches torn tails (a crash mid-append cuts the payload
  // short), the FNV-1a digest catches bit flips; either failure drops
  // this record alone on load.
  char head[160];
  std::snprintf(head, sizeof head,
                "%016" PRIx64 " %016" PRIx64 " %016" PRIx64 " %s %zu %zu",
                slot.stamp, fp.hi, fp.lo, status_name(slot.entry.status),
                slot.entry.slice_size, slot.entry.assertion_count);
  std::string payload = head;
  if (!slot.entry.binding.empty()) {
    payload += ' ';
    payload += slot.entry.binding;
  }
  char prefix[48];
  std::snprintf(prefix, sizeof prefix, "%zu %016" PRIx64 " ", payload.size(),
                fnv1a64(payload));
  return prefix + payload + "\n";
}

ResultCache::ResultCache(std::string dir, std::uint64_t model_fingerprint,
                         bool memory_only)
    : dir_(std::move(dir)), model_fp_(model_fingerprint),
      memory_(memory_only) {
  if (!dir_.empty()) load();
}

std::string ResultCache::header_line() { return kHeaderPrefix; }

std::string ResultCache::file_path() const {
  return dir_.empty() ? std::string()
                      : (std::filesystem::path(dir_) / kFileName).string();
}

void ResultCache::set_model_fingerprint(std::uint64_t model_fingerprint) {
  model_fp_ = model_fingerprint;
  // Liveness must be re-proven under the new model: the next batch's
  // lookups re-mark the records whose problems survived the edit, and the
  // flush after retires the ones the edit orphaned.
  for (auto& [fp, slot] : entries_) slot.hit = false;
}

std::size_t ResultCache::parse_file(const std::string& path,
                                    std::size_t* dropped_out) {
  std::size_t records = 0;
  std::ifstream in(path);
  if (!in) return records;  // no cache yet: every lookup misses
  std::string line;
  bool versioned = false;
  while (std::getline(in, line)) {
    if (!versioned) {
      // The first line must be the current version header. An older
      // version whose canonical keys meant something different, a newer
      // one, or a headerless file makes every record stale: fingerprints
      // from another key generation must never answer a lookup. The file
      // itself is rewritten at the next flush.
      if (line != header_line()) {
        stale_version_ = true;
        return 0;
      }
      versioned = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    // `<len> <digest> <payload>`: refuse the record - alone - unless the
    // payload is exactly `len` bytes and hashes to `digest`. A torn tail
    // fails the length check (or never parses), a bit flip fails the
    // digest; either way earlier records already loaded and later ones
    // still will.
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp2 == std::string::npos) {
      ++*dropped_out;
      continue;
    }
    char* end = nullptr;
    const std::string len_text = line.substr(0, sp1);
    const std::uint64_t len = std::strtoull(len_text.c_str(), &end, 10);
    if (end == len_text.c_str() || *end != '\0') {
      ++*dropped_out;
      continue;
    }
    const std::string digest_text = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::uint64_t digest = std::strtoull(digest_text.c_str(), &end, 16);
    if (digest_text.size() != 16 || end == digest_text.c_str() ||
        *end != '\0') {
      ++*dropped_out;
      continue;
    }
    const std::string payload = line.substr(sp2 + 1);
    if (payload.size() != len || fnv1a64(payload) != digest) {
      ++*dropped_out;
      continue;
    }
    std::istringstream fields(payload);
    std::string stamp_hex, hi_hex, lo_hex, status;
    Slot slot;
    if (!(fields >> stamp_hex >> hi_hex >> lo_hex >> status >>
          slot.entry.slice_size >> slot.entry.assertion_count)) {
      ++*dropped_out;  // digest-valid but unparseable: treat as corrupt
      continue;
    }
    // Optional trailing binding signature (diagnostics): the rest of the
    // payload after the single separating space.
    std::string binding_tail;
    if (std::getline(fields, binding_tail) && binding_tail.size() > 1 &&
        binding_tail[0] == ' ') {
      slot.entry.binding = binding_tail.substr(1);
    }
    std::optional<smt::CheckStatus> parsed = parse_status(status);
    if (!parsed) {
      ++*dropped_out;
      continue;
    }
    slot.entry.status = *parsed;
    slot.stamp = std::strtoull(stamp_hex.c_str(), &end, 16);
    if (end == stamp_hex.c_str() || *end != '\0') {
      ++*dropped_out;
      continue;
    }
    Fingerprint fp;
    fp.hi = std::strtoull(hi_hex.c_str(), &end, 16);
    if (end == hi_hex.c_str() || *end != '\0') {
      ++*dropped_out;
      continue;
    }
    fp.lo = std::strtoull(lo_hex.c_str(), &end, 16);
    if (end == lo_hex.c_str() || *end != '\0') {
      ++*dropped_out;
      continue;
    }
    ++records;
    entries_[fp] = slot;  // later lines win (append-only file)
  }
  return records;
}

void ResultCache::load() {
  records_dropped_ = 0;
  const std::size_t records = parse_file(file_path(), &records_dropped_);
  // Compaction: append-only files accumulate dead records - lines
  // superseded by a later line for the same fingerprint (concurrent
  // batches racing the same keys, torn dedup across processes). When the
  // dead weight outgrows the live entries - or any record was dropped as
  // torn/corrupt - rewrite the file in place. (Records orphaned by spec
  // edits are handled separately: flush retires them once they carry a
  // foreign stamp and no lookup touched them.)
  const std::size_t dead = records - entries_.size();
  if (records_dropped_ > 0 || (dead > 0 && 2 * dead > records)) {
    rewrite_locked(/*retire_stale=*/false);
  }
}

bool ResultCache::have_stale_records() const {
  for (const auto& [fp, slot] : entries_) {
    if (!slot.hit && slot.stamp != model_fp_) return true;
  }
  return false;
}

void ResultCache::rewrite_locked(bool retire_stale) {
  const std::string path = file_path();
  const int fd = open_locked(path.c_str(), O_RDWR | O_CREAT);
  if (fd < 0) return;
  // Snapshot this run's bookkeeping, then re-read under the lock: flushes
  // from other processes may have appended since the unlocked load pass,
  // and their records must survive - a record we never saw is kept under
  // its own stamp, whatever it is. Records we *did* load carry our hit
  // marks: a hit record is live under the current model and is re-stamped
  // to it; with `retire_stale`, a never-hit record under a foreign stamp
  // is dropped and counted. Stored-but-unflushed records (dirty) are not
  // on disk yet; merging the snapshot back in writes them too.
  auto known = std::move(entries_);
  entries_.clear();
  const bool was_stale_version = stale_version_;
  stale_version_ = false;
  std::size_t dropped = 0;
  parse_file(path, &dropped);
  std::size_t retired = 0;
  for (auto& [fp, slot] : entries_) {
    auto it = known.find(fp);
    if (it == known.end()) continue;  // concurrent append: keep verbatim
    slot.hit = it->second.hit;
    if (slot.hit) slot.stamp = model_fp_;
    known.erase(it);
  }
  // Whatever remains in the snapshot is not on disk (dirty stores, or
  // records a concurrent rewrite pruned that we still hold live).
  for (auto& [fp, slot] : known) entries_.emplace(fp, slot);
  if (retire_stale) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (!it->second.hit && it->second.stamp != model_fp_) {
        ++retired;
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }
  const std::string tmp = path + ".compact." + std::to_string(::getpid());
  std::string content = header_line() + "\n";
  for (const auto& [fp, slot] : entries_) content += format_line(fp, slot);
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out || !(out << content)) {
      std::filesystem::remove(tmp, ec);
      stale_version_ = was_stale_version;
      unlock_close(fd);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    stale_version_ = was_stale_version;
    unlock_close(fd);
    return;
  }
  unlock_close(fd);
  dirty_.clear();
  stale_version_ = false;  // the file now carries the current header
  records_dropped_ += retired;
}

std::optional<ResultCache::Entry> ResultCache::lookup(
    const std::string& canonical_key) const {
  if (!enabled() || canonical_key.empty()) return std::nullopt;
  auto it = entries_.find(fingerprint(canonical_key));
  if (it == entries_.end()) return std::nullopt;
  it->second.hit = true;  // live under the current model: exempt from GC
  return it->second.entry;
}

void ResultCache::store(const std::string& canonical_key, const Entry& entry) {
  if (!enabled() || canonical_key.empty()) return;
  if (entry.status == smt::CheckStatus::unknown) return;
  const Fingerprint fp = fingerprint(canonical_key);
  auto [it, inserted] = entries_.emplace(fp, Slot{entry, model_fp_, true});
  if (!inserted) {
    // Already known (and durable or pending): a re-store still proves the
    // record live under the current model.
    it->second.hit = true;
    return;
  }
  dirty_.emplace_back(fp, entry);
}

void ResultCache::flush() {
  if (!enabled()) return;
  const bool retire = have_stale_records();
  if (dirty_.empty() && !stale_version_ && !retire) return;
  if (dir_.empty()) {
    // Memory-only: nothing durable, but retire stale records all the same
    // so generation switches reclaim memory and report identically.
    dirty_.clear();
    if (retire) {
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (!it->second.hit && it->second.stamp != model_fp_) {
          ++records_dropped_;
          it = entries_.erase(it);
        } else {
          ++it;
        }
      }
    }
    return;
  }
  // Non-throwing filesystem calls throughout: an unwritable or bogus cache
  // dir must degrade to an in-memory cache, never abort a verification run
  // whose results are already computed.
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return;
  if (stale_version_ || retire) {
    // A wrong-version file or stale records to retire: rewrite instead of
    // appending. rewrite_locked re-reads under the lock, so a concurrent
    // batch that already upgraded (or appended to) the file keeps its
    // records; if the file is still the wrong version its records simply
    // do not parse and only this run's survive.
    rewrite_locked(retire);
    return;
  }
  // Advisory exclusive lock for the whole append: concurrent batches (and
  // worker-sharing dispatchers) interleave whole record blocks, and a
  // compaction can never rename the file out from under a half-written
  // append.
  const std::string path = file_path();
  const int fd = open_locked(path.c_str(), O_RDWR | O_APPEND | O_CREAT);
  if (fd < 0) return;  // unwritable cache dir: stay an in-memory cache
  struct stat st {};
  std::string block;
  if (::fstat(fd, &st) == 0 && st.st_size == 0) {
    block = header_line() + std::string("\n");
  }
  for (const auto& [fp, entry] : dirty_) {
    std::string record = format_line(fp, Slot{entry, model_fp_, true});
    if (injector_ && injector_->flip_cache_record(record_ordinal_++)) {
      // Flip a payload bit *after* the digest was computed: the record
      // fails its check on the next load and is dropped, never misread.
      record[record.size() - 2] ^= 0x01;
    }
    block += record;
  }
  if (injector_ && !dirty_.empty() &&
      injector_->tear_cache_flush(flush_ordinal_++)) {
    // Simulate a crash mid-append: keep everything up to the final record
    // and only half of that record's bytes (newline included in the cut).
    const std::size_t last_nl = block.rfind('\n', block.size() - 2);
    const std::size_t tail = last_nl == std::string::npos ? 0 : last_nl + 1;
    block.resize(tail + (block.size() - tail) / 2);
  }
  const bool ok = write_all_fd(fd, block);
  unlock_close(fd);
  if (ok) dirty_.clear();
}

}  // namespace vmn::verify
