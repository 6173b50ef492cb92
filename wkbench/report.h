// Measurement helpers, and the benchmark's report: every metric is printed
// as a text line with its unit and, for percentiles and ratios, its sample
// count or base; the same values are kept for the JSON line a phase ends
// with.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace wkbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// Nearest-rank percentile of `sorted` (ascending). A percentile is shown
// only when at least kMinBeyond samples lie above it; with fewer, the
// "p99" is one of the last few samples and says nothing repeatable.
struct Percentile {
  static constexpr std::size_t kMinBeyond = 10;

  double value = 0.0;
  std::size_t n = 0;       // samples
  std::size_t beyond = 0;  // samples strictly above the chosen rank

  bool reportable() const { return n > 0 && beyond >= kMinBeyond; }
};

template <class T>
Percentile percentile(const std::vector<T>& sorted, double q) {
  Percentile p;
  p.n = sorted.size();
  if (p.n == 0) return p;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n)));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, p.n) - 1;
  p.value = static_cast<double>(sorted[idx]);
  p.beyond = p.n - 1 - idx;
  return p;
}

class Report {
 public:
  // A plain measured value.
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = {}) {
    std::printf("  %-40s %14.4f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
    keep(name, value, unit);
  }

  // A percentile, scaled (e.g. ns -> us). Unreportable percentiles print
  // why and go to the JSON line as 0.
  void pct(const std::string& name, const Percentile& p, double scale,
           const std::string& unit) {
    char note[96];
    std::snprintf(note, sizeof note, "(n=%zu, %zu beyond)", p.n, p.beyond);
    if (!p.reportable()) {
      std::printf("  %-40s %14s %-6s %s: fewer than %zu samples beyond\n",
                  name.c_str(), "n/a", unit.c_str(), note,
                  Percentile::kMinBeyond);
      keep(name, 0.0, unit);
      return;
    }
    metric(name, p.value * scale, unit, note);
  }

  // num / base, printed with both so the reader sees what it is a share of.
  void ratio(const std::string& name, double num, const std::string& num_what,
             double base, const std::string& base_what,
             const std::string& unit = "ratio") {
    char note[160];
    std::snprintf(note, sizeof note, "(%.0f %s / %.0f %s)", num,
                  num_what.c_str(), base, base_what.c_str());
    metric(name, base > 0 ? num / base : 0.0, unit, note);
  }

  static void section(const std::string& title) {
    std::printf("\n[%s]\n", title.c_str());
  }

  // The phase's result line: {"correct", "attempted", "failed", "metrics"}
  // with every metric this phase measured, each with all its digits.
  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, v] : values_) {
      if (!first) out += ", ";
      first = false;
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof buf, v.value);
      out += "\"" + name + "\": {\"value\": " + std::string(buf, res.ptr) +
             ", \"unit\": \"" + v.unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };

  void keep(const std::string& name, double value, const std::string& unit) {
    values_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
  }

  std::map<std::string, Value> values_;
};

}  // namespace wkbench
