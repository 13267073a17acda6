// The traced pass: each workload replayed in-process, calling every
// layer's public functions directly and timing them from here. The
// program itself carries no instrumentation; spans are recorded around
// the calls bench_e2e makes.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace vmn::bench {

/// Spans kept in memory and written as JSON lines when the pass ends.
/// Single-threaded; spans nest by scope.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// A span named `name`, child of the innermost open span. A disabled
  /// tracer records nothing (used to warm state outside any request).
  [[nodiscard]] Scope span(const char* name) {
    return Scope(enabled ? this : nullptr, name);
  }
  /// Starts the next request; its spans share one `req` id.
  void next_request() { ++request_; }

  /// Summed self time (span minus the spans of its children), in ms.
  [[nodiscard]] double self_ms(const std::string& name) const;
  /// Microsecond durations of every span named `name`.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;
  /// Writes one JSON object per span: req, span, parent, name, start_us,
  /// end_us. Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

  bool enabled = true;

 private:
  struct Span {
    std::uint64_t req = 0;
    std::size_t parent = 0;  ///< index + 1 of the parent; 0 = none
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
  };
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// The pass writes its spec files and socket into the working directory.
struct TraceOptions {
  std::string vmn;         ///< the vmn binary (process workers, daemon)
  std::string spans_path;  ///< where the spans go
};

/// Runs the traced pass over `workload` and returns every per-layer
/// metric. Every verdict met along the way is checked into `tally`.
[[nodiscard]] Metrics traced_pass(const Workload& workload,
                                  const TraceOptions& options, Tally& tally);

}  // namespace vmn::bench
