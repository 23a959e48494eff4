#pragma once
// Measurement plumbing shared by the perfbench workloads: per-operation
// sample series with median and quartiles, and the per-layer ledger that
// traced operations fill from the benchmark's own calls into each module.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// First quartile, median and third quartile of a sample series, computed
/// like Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method), so the benchmark's own figures match the ones the spread check
/// computes over whole runs.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta =
        static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

/// Named sample series, one value per operation (or per set-up), each with
/// its unit.  Not thread-safe: filled by the driving thread.
class Samples {
 public:
  struct Series {
    std::string unit;
    std::vector<double> values;
  };

  void add(const std::string& name, const std::string& unit, double value) {
    Series& s = series_[name];
    s.unit = unit;
    s.values.push_back(value);
  }

  const std::map<std::string, Series>& all() const { return series_; }

  double median(const std::string& name) const {
    const auto it = series_.find(name);
    return it == series_.end() ? 0.0 : quartiles(it->second.values).median;
  }

 private:
  std::map<std::string, Series> series_;
};

/// Per-layer accumulator for traced operations: host seconds spent inside
/// a module's calls (summed over the threads that made them) and the work
/// counts observed at the same call sites.  Thread-safe; the calls it
/// times are milliseconds long, so one mutex costs nothing measurable.
class Ledger {
 public:
  void add(const std::string& key, double value) {
    std::lock_guard<std::mutex> lock{mutex_};
    values_[key] += value;
  }

  std::map<std::string, double> snapshot() const {
    std::lock_guard<std::mutex> lock{mutex_};
    return values_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, double> values_;
};

/// Outcome of one operation set: an operation is one sweep point, serving
/// cell or MapReduce job, and it fails when it throws or a check on its
/// output does not hold.
struct OpResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  OpResult& operator+=(const OpResult& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

/// 64-bit FNV-1a over raw bytes: the input digest that shows a seed change
/// altered the generated inputs.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes,
                           std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
