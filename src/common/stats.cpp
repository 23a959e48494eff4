#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/require.hpp"

namespace vfimr {

void Accumulator::add(double x) {
  ++n_;
  sum_ += x;
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Accumulator::add_n(double x, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) add(x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of range");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double sum(std::span<const double> xs) {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

double min_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) {
    if (x <= 0.0) throw std::invalid_argument("geomean requires positive samples");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

double coeff_variation(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return 0.0;
  return stddev(xs) / m;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, counts_(bins, 0) {
  // Every bucket helper (bucket_lo, add, to_string) divides by the bucket
  // count, so a zero-bucket histogram must never be constructible.
  VFIMR_REQUIRE_MSG(bins >= 1, "Histogram needs >= 1 bucket, got " << bins);
  VFIMR_REQUIRE_MSG(hi > lo, "Histogram needs hi > lo, got [" << lo << ", "
                                                              << hi << ")");
}

Histogram::Histogram(double lo, double hi, std::vector<std::uint64_t> counts,
                     double sum)
    : lo_{lo}, hi_{hi}, counts_{std::move(counts)}, sum_{sum} {
  VFIMR_REQUIRE_MSG(!counts_.empty(), "Histogram needs >= 1 bucket");
  VFIMR_REQUIRE_MSG(hi > lo, "Histogram needs hi > lo, got [" << lo << ", "
                                                              << hi << ")");
  for (auto c : counts_) total_ += c;
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::int64_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
  sum_ += x;
}

double Histogram::mean() const {
  return total_ ? sum_ / static_cast<double>(total_) : 0.0;
}

void Histogram::merge(const Histogram& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("Histogram::merge requires identical binning");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
}

double Histogram::quantile(double p) const {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("quantile p out of range");
  if (total_ == 0) return 0.0;
  // Target rank in [0, total]; walk the cumulative counts and interpolate
  // linearly inside the bucket that crosses it.
  const double target = p * static_cast<double>(total_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cum);
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double frac =
          std::clamp((target - before) / static_cast<double>(counts_[i]), 0.0, 1.0);
      return bucket_lo(i) + frac * (bucket_hi(i) - bucket_lo(i));
    }
  }
  return bucket_hi(counts_.size() - 1);
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) /
                   static_cast<double>(counts_.size());
}

double Histogram::bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

P2Quantiles::P2Quantiles(std::vector<double> ps) : ps_{std::move(ps)} {
  if (ps_.empty()) {
    throw std::invalid_argument("P2Quantiles needs at least one quantile");
  }
  for (std::size_t k = 0; k < ps_.size(); ++k) {
    if (!(ps_[k] > 0.0 && ps_[k] < 1.0)) {
      throw std::invalid_argument("P2Quantile needs p in (0, 1)");
    }
    if (k > 0 && !(ps_[k] > ps_[k - 1])) {
      throw std::invalid_argument("P2Quantiles needs increasing quantiles");
    }
  }
  // Marker quantiles: 0, p1/2, p1, (p1+p2)/2, p2, ..., pm, (pm+1)/2, 1.
  dpos_.push_back(0.0);
  double prev = 0.0;
  for (const double p : ps_) {
    dpos_.push_back((prev + p) / 2.0);
    dpos_.push_back(p);
    prev = p;
  }
  dpos_.push_back((prev + 1.0) / 2.0);
  dpos_.push_back(1.0);
  q_.reserve(dpos_.size());
}

void P2Quantiles::add(double x) {
  const std::size_t markers = dpos_.size();
  if (n_ < markers) {
    q_.push_back(x);
    ++n_;
    if (n_ == markers) {
      std::sort(q_.begin(), q_.end());
      pos_.resize(markers);
      desired_.resize(markers);
      for (std::size_t i = 0; i < markers; ++i) {
        pos_[i] = static_cast<double>(i + 1);
        desired_[i] = 1.0 + static_cast<double>(markers - 1) * dpos_[i];
      }
    }
    return;
  }
  ++n_;

  // Locate the cell containing x, extending the extreme markers if needed.
  const std::size_t last = markers - 1;
  std::size_t k;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[last]) {
    q_[last] = x;
    k = last - 1;
  } else {
    k = 0;
    while (k < last - 1 && x >= q_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < markers; ++i) pos_[i] += 1.0;
  for (std::size_t i = 0; i < markers; ++i) desired_[i] += dpos_[i];

  // Adjust interior markers toward their desired positions.
  for (std::size_t i = 1; i < last; ++i) {
    const double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      const double s = d >= 0.0 ? 1.0 : -1.0;
      // Piecewise-parabolic prediction; fall back to linear when it would
      // break marker monotonicity.
      const double np = pos_[i] + s;
      const double parabolic =
          q_[i] + s / (pos_[i + 1] - pos_[i - 1]) *
                      ((pos_[i] - pos_[i - 1] + s) * (q_[i + 1] - q_[i]) /
                           (pos_[i + 1] - pos_[i]) +
                       (pos_[i + 1] - pos_[i] - s) * (q_[i] - q_[i - 1]) /
                           (pos_[i] - pos_[i - 1]));
      if (q_[i - 1] < parabolic && parabolic < q_[i + 1]) {
        q_[i] = parabolic;
      } else {
        const std::size_t j = s > 0.0 ? i + 1 : i - 1;
        // Clamped: a rounding overshoot must not carry the marker past
        // the neighbour it moves toward.
        const double linear =
            q_[i] + s * (q_[j] - q_[i]) / (pos_[j] - pos_[i]);
        q_[i] = s > 0.0 ? std::min(linear, q_[j]) : std::max(linear, q_[j]);
      }
      pos_[i] = np;
    }
  }
}

double P2Quantiles::value(std::size_t k) const {
  if (k >= ps_.size()) {
    throw std::out_of_range("P2Quantiles::value index out of range");
  }
  // NaN, not 0.0: an empty sampler has no quantile, and callers that print
  // SLA percentiles must be able to tell "no samples" from a true zero.
  if (n_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (n_ >= dpos_.size()) return q_[2 * k + 2];
  // Exact small-sample quantiles over the stored observations.  The
  // running max keeps them ordered where interpolation rounds unevenly.
  double v = -std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j <= k; ++j) {
    v = std::max(v, percentile(q_, ps_[j] * 100.0));
  }
  return v;
}

std::string Histogram::to_string() const {
  std::ostringstream os;
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    os << "[" << bucket_lo(i) << "," << bucket_hi(i) << "): ";
    const auto bar = static_cast<std::size_t>(
        40.0 * static_cast<double>(counts_[i]) / static_cast<double>(peak));
    os << std::string(bar, '#') << "  " << counts_[i] << "\n";
  }
  return os.str();
}

}  // namespace vfimr
