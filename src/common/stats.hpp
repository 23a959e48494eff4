#pragma once
// Streaming and batch statistics used throughout the simulators: packet
// latency accumulation, utilization summaries, benchmark result tables.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace vfimr {

/// Streaming accumulator (Welford) — numerically stable mean/variance plus
/// min/max/sum without storing samples.
class Accumulator {
 public:
  void add(double x);
  void add_n(double x, std::uint64_t n);

  std::uint64_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const Accumulator& other);

  /// Exact internal state, for canonical serialization (store/codec.hpp).
  /// raw()/from_raw() round-trip bit-identically: derived figures like
  /// variance() would not (m2 = variance * n re-rounds), so the store
  /// persists the raw fields instead.
  struct Raw {
    std::uint64_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  Raw raw() const { return Raw{n_, mean_, m2_, sum_, min_, max_}; }
  static Accumulator from_raw(const Raw& r) {
    Accumulator a;
    a.n_ = r.n;
    a.mean_ = r.mean;
    a.m2_ = r.m2;
    a.sum_ = r.sum;
    a.min_ = r.min;
    a.max_ = r.max;
    return a;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Batch helpers over sample vectors.
double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);
double median(std::vector<double> xs);           // by-value: sorts a copy
double percentile(std::vector<double> xs, double p);  // p in [0,100]
double sum(std::span<const double> xs);
double min_of(std::span<const double> xs);
double max_of(std::span<const double> xs);

/// Geometric mean; all inputs must be > 0.
double geomean(std::span<const double> xs);

/// Coefficient of variation (stddev / mean); 0 when mean is 0.
double coeff_variation(std::span<const double> xs);

/// Fixed-width histogram over [lo, hi) with `bins` buckets.  Out-of-range
/// samples are clamped into the first/last bucket.  Construction requires
/// bins >= 1 and hi > lo (RequirementError otherwise).
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  /// Rebuild from per-bucket counts (telemetry snapshots, shard merges).
  /// `sum` is the exact sample sum when the caller tracked it.
  Histogram(double lo, double hi, std::vector<std::uint64_t> counts,
            double sum = 0.0);

  void add(double x);
  std::uint64_t count() const { return total_; }
  std::size_t bins() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double sum() const { return sum_; }
  /// Exact sample mean (sum / count); 0 when empty.
  double mean() const;

  /// Fold another histogram into this one; requires identical [lo, hi) and
  /// bin count (throws std::invalid_argument otherwise).  Used to reduce
  /// per-shard histograms collected under parallel_for.
  void merge(const Histogram& other);

  /// Quantile estimate for p in [0, 1], linearly interpolated inside the
  /// containing bucket.  Exact to within one bucket width for in-range
  /// samples; 0 when empty.
  double quantile(double p) const;

  /// Render a compact textual summary ("[0.0,0.1): ####  12" style).
  std::string to_string() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0.0;
};

/// A quantile read off a streaming estimator: its probability, the sample
/// count it covers and the estimate — NaN when no sample was recorded.
struct QuantileEstimate {
  double p = 0.0;
  std::uint64_t n = 0;
  double estimate = std::numeric_limits<double>::quiet_NaN();

  double value() const { return estimate; }
  std::uint64_t count() const { return n; }
};

/// Multi-quantile P² estimator (Raatikainen, "Simultaneous estimation of
/// several percentiles", Simulation 1987): tracks m quantiles p_1 < ... <
/// p_m in O(m) memory with 2m + 3 shared markers — the extremes, the m
/// targets and the midpoints between neighbours — each adjusted by the P²
/// parabolic rule (Jain & Chlamtac, CACM 1985).  Marker heights never
/// cross, so value(0) <= value(1) <= ... holds by construction; three
/// independent single-quantile estimators give no such guarantee (a p99
/// marker can overtake a p999 one on a growing backlog).  Exact below
/// 2m + 3 samples.
class P2Quantiles {
 public:
  /// ps strictly increasing, each in (0, 1); throws std::invalid_argument.
  explicit P2Quantiles(std::vector<double> ps);

  void add(double x);
  /// Estimate of quantile ps[k]; NaN before the first sample (an empty
  /// sampler has no quantile — check count() or std::isnan before printing).
  double value(std::size_t k) const;
  std::uint64_t count() const { return n_; }
  std::size_t size() const { return ps_.size(); }
  double p(std::size_t k) const { return ps_.at(k); }
  QuantileEstimate estimate(std::size_t k) const {
    return {p(k), n_, value(k)};
  }

 private:
  std::vector<double> ps_;
  std::uint64_t n_ = 0;
  std::vector<double> q_;        // marker heights (first samples until full)
  std::vector<double> pos_;      // actual marker positions (1-based)
  std::vector<double> desired_;  // desired marker positions
  std::vector<double> dpos_;     // desired-position increments per sample
};

/// Single-quantile P² estimator: P2Quantiles with one target (five
/// markers).  Complements Histogram::quantile when the sample range is not
/// known up front.
class P2Quantile {
 public:
  explicit P2Quantile(double p) : q_{{p}} {}  // p in (0, 1)

  void add(double x) { q_.add(x); }
  /// Current quantile estimate; NaN before the first sample.
  double value() const { return q_.value(0); }
  std::uint64_t count() const { return q_.count(); }
  double p() const { return q_.p(0); }

 private:
  P2Quantiles q_;
};

}  // namespace vfimr
