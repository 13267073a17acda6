// Sample statistics and the metric list bench_e2e prints.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace vmn::bench {

/// Percentile `p` (0..100) by linear interpolation between order
/// statistics (Python's statistics.quantiles "inclusive" method); 0 when
/// `samples` is empty.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (rank - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

inline double sum(const std::vector<double>& samples) {
  double s = 0.0;
  for (double v : samples) s += v;
  return s;
}

/// `num / den`, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Named metrics in print order.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back(Entry{name, value, unit});
  }

  /// One human-readable line per metric.
  void print_table(std::FILE* out) const {
    for (const Entry& e : entries_) {
      std::fprintf(out, "  %-36s %14.6f %s\n", e.name.c_str(), e.value,
                   e.unit.c_str());
    }
  }

  /// The JSON object body of the result line, every digit kept.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (const Entry& e : entries_) {
      if (out.size() > 1) out += ", ";
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
      out += "\"" + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace vmn::bench
