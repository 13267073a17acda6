// Persistent cross-batch verification-result cache.
//
// Keys are slice::canonical_problem_key renderings (v7): shape-canonical,
// name- and address-blind fingerprints of the whole verification problem -
// member kinds and structural fingerprints in canonical rank order,
// token-numbered relevant addresses, each box's encoding_projection, the
// invariant's kind and target ranks, and the per-scenario transfer relation
// with the failure budget. That makes the cache self-invalidating (any spec
// edit that changes the encoded problem changes the key, so stale entries
// are simply never looked up again) *and* rename-stable: a spec whose nodes
// and addresses were consistently renamed re-derives the same keys cold, so
// re-verification answers every isomorphic slice from disk and re-solves
// exactly the problems the edit actually changed.
//
// Invalidation is record-granular (v5): every record carries the
// fingerprint of the model that minted it, but that stamp gates *garbage
// collection*, never lookups - soundness is entirely the canonical key's.
// A record whose stamp differs from the current model and that no lookup
// touched this run is retired (rewritten away, counted in
// records_dropped()) at the next flush; a record another model minted but
// this run's keys still hit is re-stamped and survives. A one-segment spec
// edit therefore costs one segment's solves and one segment's dead
// records, not the whole file - the v4 header-fingerprint wholesale
// rejection is retired.
//
// Concurrency and growth: flushes append under an advisory exclusive
// flock(2), so concurrent batches - including the process backend's
// dispatcher flushing results its workers computed - interleave whole
// record blocks, never torn lines. Duplicate records (the same fingerprint
// written by racing processes) are harmless on read (later lines win) but
// accumulate; load() compacts the file in place once such dead records
// outnumber the live entries, under the same lock. Retirement rewrites
// re-read the file under the lock first, so records a concurrent batch
// appended (under any stamp) survive.
//
// Soundness inherits the planner's: a cache hit reuses an outcome across
// problems with equal canonical_problem_key, exactly like an in-batch
// class merge, and equal keys certify a rank-for-rank isomorphism (the
// key's exactness contract), so cross-run reuse adds no risk beyond a
// record-fingerprint collision. This depends on the key being stable across
// processes (pinned FNV-1a digests, never std::hash).
//
// Versioning: the file leads with a key-format version header. Canonical
// keys are only self-invalidating against edits that change the *encoded
// problem*; when the key algorithm itself changes meaning (e.g. host colors
// switching to reachability-refined policy classes, or the rank order
// switching to the stable integer colouring), equal-looking
// fingerprints from the previous generation would resurrect verdicts the
// new relation exists to retire. A file under any other version is
// therefore rejected wholesale on load (every lookup misses) and rewritten
// under the current version at the next flush. Version mismatch is the
// *only* wholesale rejection left.
//
// Unknown outcomes are never stored: a timeout is a fact about the solver
// budget, not about the problem.
//
// Torn-write hardening (v4): every record line is length-prefixed and
// carries its own FNV-1a digest. A crash mid-flush leaves a torn tail that
// fails its length or digest check and is dropped *alone* - all earlier
// records still load - and a bit-flipped record (bad disk, bad copy) is
// skipped the same way instead of being misread; both are counted
// (records_dropped) and pruned from the file by compaction on the next
// load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/solver.hpp"
#include "verify/faults.hpp"

namespace vmn::verify {

class ResultCache {
 public:
  /// What a hit restores. No counterexample: traces name concrete nodes of
  /// the run that produced them, which a canonical key deliberately erases -
  /// callers needing a fresh trace re-solve (e.g. by disabling the cache).
  struct Entry {
    smt::CheckStatus status = smt::CheckStatus::unknown;
    std::size_t slice_size = 0;
    std::size_t assertion_count = 0;
    /// Diagnostic only (since v6): comma-joined member names, in the canonical
    /// rank order of the binding that minted this record
    /// (verify::binding_signature). Never part of the record's identity -
    /// a rename-isomorphic spec hits the record under different names.
    std::string binding;
  };

  /// Opens the cache rooted at `dir` and loads `dir`/vmn-results.cache if
  /// present (malformed lines are skipped, so a truncated or corrupted file
  /// degrades to misses, never to errors). An empty `dir` constructs a
  /// disabled cache - unless `memory_only` is set, which keeps the cache
  /// fully live in memory with flush a no-op (the serve daemon's default
  /// when no --cache-dir is given: hits across reloads within one process,
  /// nothing persisted).
  ///
  /// `model_fingerprint` (verify::model_fingerprint) stamps every record
  /// this run stores; see the header comment for how stamps drive
  /// record-granular garbage collection without ever gating a lookup.
  explicit ResultCache(std::string dir, std::uint64_t model_fingerprint = 0,
                       bool memory_only = false);

  [[nodiscard]] bool enabled() const { return !dir_.empty() || memory_; }

  /// A hit also marks the record live under the current model fingerprint,
  /// exempting it from stale-record retirement at the next flush.
  [[nodiscard]] std::optional<Entry> lookup(
      const std::string& canonical_key) const;

  /// Records a solved job (immediately visible to lookup; durable after
  /// flush). Unknown statuses are dropped.
  void store(const std::string& canonical_key, const Entry& entry);

  /// Appends the entries stored since load to disk, creating the directory
  /// on first use. Append-only under an advisory exclusive flock:
  /// concurrent batches interleave whole record blocks and never corrupt
  /// (or compact away) each other's records mid-write. When stale records
  /// are due for retirement (another model's stamp, never hit this run) the
  /// flush becomes a rewrite instead - still under the lock, re-reading
  /// first so concurrent appends survive.
  void flush();

  /// Switches the stamping generation without reloading the file: the
  /// daemon calls this after a spec edit rebinds the engine to the edited
  /// model. Hit marks reset, so liveness is re-proven by the next batch's
  /// lookups; records the edit orphaned are retired at the flush after.
  void set_model_fingerprint(std::uint64_t model_fingerprint);

  [[nodiscard]] std::uint64_t model_fingerprint() const { return model_fp_; }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::string file_path() const;
  /// True when load found a cache file of another key-format version and
  /// rejected its records wholesale (they were fingerprinted under keys
  /// whose *meaning* differs - e.g. pre-reachability-refinement policy
  /// classes - so serving them would resurrect retired unsoundness). The
  /// next successful flush rewrites the file under the current version.
  [[nodiscard]] bool stale_version() const { return stale_version_; }

  /// Records refused or retired: torn tails (length prefix ran past the
  /// line), digest mismatches (bit flips), otherwise malformed lines -
  /// counted at load - plus stale records (another model's stamp, never
  /// hit) retired at flush. Dropping is per-record; load-time damage
  /// triggers compaction so it is pruned from the file, not just skipped
  /// forever.
  [[nodiscard]] std::size_t records_dropped() const { return records_dropped_; }

  /// Chaos hook: when set, flush() consults the injector to tear the tail
  /// of an appended block (simulating a crash mid-write) or flip a bit in
  /// a formatted record (simulating silent corruption). Deterministic per
  /// plan seed; nullptr (the default) injects nothing. The pointer is
  /// borrowed and must outlive the cache.
  void set_fault_injector(const FaultInjector* injector) {
    injector_ = injector;
  }

 private:
  /// 128-bit fingerprint of a canonical key (two independent FNV-1a 64
  /// streams), stored instead of the multi-hundred-byte key itself. A
  /// colliding pair of distinct keys needs ~2^64 entries - negligible next
  /// to the 64-bit digests already inside the key.
  struct Fingerprint {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    bool operator==(const Fingerprint&) const = default;
  };
  struct FingerprintHash {
    std::size_t operator()(const Fingerprint& fp) const {
      return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull));
    }
  };
  /// A loaded or stored record plus the bookkeeping retirement needs: the
  /// model stamp it was minted (or last re-stamped) under, and whether any
  /// lookup hit it this run.
  struct Slot {
    Entry entry;
    std::uint64_t stamp = 0;
    bool hit = false;
  };
  static Fingerprint fingerprint(const std::string& key);
  static std::string format_line(const Fingerprint& fp, const Slot& slot);

  void load();
  /// Parses `path` into entries_ (later lines win), returning the number
  /// of well-formed records seen - duplicates included, which is what the
  /// compaction trigger compares against. `dropped_out` receives the count
  /// of lines refused for failing their length prefix or digest.
  std::size_t parse_file(const std::string& path, std::size_t* dropped_out);
  /// Rewrites the file to one line per live entry (flock-serialized
  /// against flushes and other compactions; re-reads under the lock so
  /// concurrently appended records survive). With `retire_stale`, entries
  /// this run knows to be stale (foreign stamp, never hit) are dropped and
  /// counted; entries a concurrent batch appended are always kept.
  void rewrite_locked(bool retire_stale);
  /// True when entries_ holds a loaded record due for retirement.
  [[nodiscard]] bool have_stale_records() const;

  /// The exact header line this cache accepts and writes: the key-format
  /// version. Per-record model stamps replaced the v4 header fingerprint.
  [[nodiscard]] static std::string header_line();

  std::string dir_;
  std::uint64_t model_fp_ = 0;
  bool memory_ = false;
  /// Mutable: lookup() is logically const but marks the hit slot live.
  mutable std::unordered_map<Fingerprint, Slot, FingerprintHash> entries_;
  /// Stored-but-not-yet-flushed records, in store order.
  std::vector<std::pair<Fingerprint, Entry>> dirty_;
  /// Set when the on-disk file carries another key-format version (see
  /// stale_version()); flush truncate-rewrites instead of appending.
  bool stale_version_ = false;
  /// Torn/corrupt records refused by load plus stale records retired by
  /// flush (see records_dropped()).
  std::size_t records_dropped_ = 0;
  /// Borrowed chaos injector (see set_fault_injector); counters give each
  /// flush and each written record a stable ordinal for its decisions.
  const FaultInjector* injector_ = nullptr;
  std::uint64_t flush_ordinal_ = 0;
  std::uint64_t record_ordinal_ = 0;
};

}  // namespace vmn::verify
