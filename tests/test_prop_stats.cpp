// Property tests for the streaming statistics added for the telemetry
// layer: histogram merge across parallel_for-style shards, histogram
// quantiles against the exact sorted-percentile answer, and the P²
// streaming quantile estimators (single and shared-marker multi-quantile).

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/require.hpp"
#include "harness/generators.hpp"
#include "harness/property.hpp"

namespace vfimr {
namespace {

std::vector<double> random_samples(Rng& rng, std::size_t n) {
  std::vector<double> xs(n);
  // Mix of smooth and clustered data so bucket boundaries get exercised.
  const double lo = rng.uniform(-10.0, 10.0);
  const double spread = rng.uniform(0.5, 25.0);
  for (auto& x : xs) {
    x = rng.bernoulli(0.8) ? rng.uniform(lo, lo + spread)
                           : rng.normal(lo + spread / 2, spread / 10);
  }
  return xs;
}

TEST(PropStats, ShardedHistogramMergeMatchesSingleHistogram) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 1 + rng.uniform_u64(2000);
    const auto xs = random_samples(rng, n);
    const double lo = -15.0, hi = 40.0;
    const std::size_t bins = 1 + rng.uniform_u64(64);

    Histogram whole{lo, hi, bins};
    for (double x : xs) whole.add(x);

    // Split into shards the way parallel_for splits an index range, fill a
    // per-shard histogram each, and merge — the aggregate must be exact.
    const std::size_t shards = 1 + rng.uniform_u64(8);
    Histogram merged{lo, hi, bins};
    for (std::size_t s = 0; s < shards; ++s) {
      Histogram shard{lo, hi, bins};
      const std::size_t begin = s * n / shards;
      const std::size_t end = (s + 1) * n / shards;
      for (std::size_t i = begin; i < end; ++i) shard.add(xs[i]);
      merged.merge(shard);
    }

    ASSERT_EQ(merged.count(), whole.count());
    for (std::size_t b = 0; b < bins; ++b) {
      EXPECT_EQ(merged.bucket(b), whole.bucket(b)) << "bin " << b;
    }
    // Shard partial sums round differently than one sequential sum.
    EXPECT_NEAR(merged.sum(), whole.sum(),
                1e-9 * std::max(1.0, std::abs(whole.sum())));
    for (double p : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_EQ(merged.quantile(p), whole.quantile(p)) << "p=" << p;
    }
  });
}

TEST(PropStats, HistogramMergeRejectsMismatchedBinning) {
  Histogram a{0.0, 1.0, 10};
  Histogram bins{0.0, 1.0, 20};
  Histogram range{0.0, 2.0, 10};
  EXPECT_THROW(a.merge(bins), std::invalid_argument);
  EXPECT_THROW(a.merge(range), std::invalid_argument);
}

TEST(PropStats, HistogramQuantileWithinOneBucketOfExact) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 50 + rng.uniform_u64(3000);
    auto xs = random_samples(rng, n);
    // Keep every sample strictly inside the histogram range so clamping
    // can't shift mass between edge buckets.
    for (auto& x : xs) x = std::clamp(x, -14.9, 39.9);

    const std::size_t bins = 32 + rng.uniform_u64(96);
    Histogram h{-15.0, 40.0, bins};
    for (double x : xs) h.add(x);
    const double bucket = (40.0 - (-15.0)) / static_cast<double>(bins);

    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
      const double exact = percentile(xs, p);
      const double approx = h.quantile(p / 100.0);
      EXPECT_NEAR(approx, exact, bucket + 1e-9)
          << "p=" << p << " bins=" << bins;
    }
  });
}

TEST(PropStats, P2MatchesExactBelowFiveSamples) {
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto xs = random_samples(rng, 1 + rng.uniform_u64(4));
    P2Quantile q{0.5};
    for (double x : xs) q.add(x);
    auto sorted = xs;
    EXPECT_DOUBLE_EQ(q.value(), percentile(sorted, 50.0));
  });
}

TEST(PropStats, P2TracksExactQuantileOnRandomStreams) {
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const std::size_t n = 200 + rng.uniform_u64(5000);
    const auto xs = random_samples(rng, n);
    const double range =
        *std::max_element(xs.begin(), xs.end()) -
        *std::min_element(xs.begin(), xs.end());

    for (double p : {0.5, 0.9, 0.95}) {
      P2Quantile q{p};
      for (double x : xs) q.add(x);
      EXPECT_EQ(q.count(), xs.size());
      const double exact = percentile(xs, p * 100.0);
      // P² is an approximation; 10% of the data range is the documented
      // engineering tolerance for these stream sizes.
      EXPECT_NEAR(q.value(), exact, 0.10 * range + 1e-9) << "p=" << p;
    }
  });
}

TEST(PropStats, P2IsExactOnSortedUniformGrid) {
  // A deterministic sanity anchor: on 0..999 the true median is ~499.5 and
  // P² lands within a couple of grid steps even though the input is sorted
  // (the estimator's worst case).
  P2Quantile q{0.5};
  for (int i = 0; i < 1000; ++i) q.add(static_cast<double>(i));
  EXPECT_NEAR(q.value(), 499.5, 25.0);
}

TEST(PropStats, P2RejectsInvalidProbability) {
  EXPECT_THROW(P2Quantile{0.0}, std::invalid_argument);
  EXPECT_THROW(P2Quantile{1.0}, std::invalid_argument);
  EXPECT_THROW(P2Quantile{-0.2}, std::invalid_argument);
}

TEST(PropStats, P2EmptySamplerHasNoValue) {
  // Regression: value() used to return 0.0 before the first sample, which
  // reads as "zero latency" in SLA reports.  An empty sampler has no
  // quantile — NaN, with count() as the cheap emptiness check.
  P2Quantile q{0.999};
  EXPECT_EQ(q.count(), 0u);
  EXPECT_TRUE(std::isnan(q.value()));
  q.add(1.25);
  EXPECT_EQ(q.count(), 1u);
  EXPECT_DOUBLE_EQ(q.value(), 1.25);
}

TEST(PropStats, P2TailQuantileTracksHeavyTailedStreams) {
  // The cluster tier reports p999 latency, which lives in the tail of a
  // heavy-tailed (lognormal) distribution — exactly where the five-marker
  // P² estimator is weakest.  Hold it to a relative error band against the
  // exact sorted quantile on seeded streams.
  test::for_each_seed(10, [](Rng& rng, std::uint64_t seed) {
    const std::size_t n = 20'000 + rng.uniform_u64(20'000);
    const double sigma = rng.uniform(0.5, 1.5);
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::exp(rng.normal(0.0, sigma));

    P2Quantile q{0.999};
    for (double x : xs) q.add(x);
    const double exact = percentile(xs, 99.9);
    ASSERT_GT(exact, 0.0);
    const double rel = std::abs(q.value() - exact) / exact;
    // Empirical ceiling over these seeds is ~0.12 at sigma 1.5; 0.25 keeps
    // headroom without letting the estimator drift to a different decade.
    EXPECT_LT(rel, 0.25) << "seed=" << seed << " n=" << n
                         << " sigma=" << sigma << " exact=" << exact
                         << " estimate=" << q.value();
  });
}

TEST(PropStats, P2QuantilesStayOrderedOnEveryPrefix) {
  // Shared markers never cross, so the SLA triple is ordered after every
  // sample — on random streams and on a growing backlog (sorted-ish input,
  // where independent single-quantile markers drift past each other).
  test::for_each_seed(20, [](Rng& rng, std::uint64_t seed) {
    const std::size_t n = 1 + rng.uniform_u64(3000);
    std::vector<double> xs = random_samples(rng, n);
    if (seed % 2 == 1) {
      double backlog = 0.0;
      for (auto& x : xs) {
        backlog += rng.uniform(0.0, 1.0);
        x = backlog + std::exp(rng.normal(0.0, 1.0));
      }
    }
    P2Quantiles q{{0.50, 0.99, 0.999}};
    for (std::size_t i = 0; i < xs.size(); ++i) {
      q.add(xs[i]);
      ASSERT_LE(q.value(0), q.value(1)) << "after sample " << i;
      ASSERT_LE(q.value(1), q.value(2)) << "after sample " << i;
    }
    EXPECT_EQ(q.count(), xs.size());
  });
}

TEST(PropStats, P2QuantilesMatchExactBelowMarkerCount) {
  // 2m + 3 = 9 markers for three quantiles: fewer samples are answered
  // exactly from the stored observations.
  test::for_each_seed(10, [](Rng& rng, std::uint64_t) {
    const auto xs = random_samples(rng, 1 + rng.uniform_u64(8));
    P2Quantiles q{{0.25, 0.5, 0.75}};
    for (double x : xs) q.add(x);
    EXPECT_DOUBLE_EQ(q.value(0), percentile(xs, 25.0));
    EXPECT_DOUBLE_EQ(q.value(2), percentile(xs, 75.0));
  });
}

TEST(PropStats, P2QuantilesTrackExactQuantilesOnRandomStreams) {
  // The single-quantile accuracy bounds hold for the shared-marker
  // estimator too: 10% of the data range on random streams, 25% relative
  // error on a lognormal p999 tail.
  test::for_each_seed(20, [](Rng& rng, std::uint64_t) {
    const auto xs = random_samples(rng, 200 + rng.uniform_u64(5000));
    const double range = *std::max_element(xs.begin(), xs.end()) -
                         *std::min_element(xs.begin(), xs.end());
    P2Quantiles q{{0.5, 0.9, 0.95}};
    for (double x : xs) q.add(x);
    for (std::size_t k = 0; k < q.size(); ++k) {
      EXPECT_NEAR(q.value(k), percentile(xs, q.p(k) * 100.0),
                  0.10 * range + 1e-9)
          << "p=" << q.p(k);
    }
  });
  test::for_each_seed(10, [](Rng& rng, std::uint64_t seed) {
    const std::size_t n = 20'000 + rng.uniform_u64(20'000);
    const double sigma = rng.uniform(0.5, 1.5);
    std::vector<double> xs(n);
    for (auto& x : xs) x = std::exp(rng.normal(0.0, sigma));
    P2Quantiles q{{0.50, 0.99, 0.999}};
    for (double x : xs) q.add(x);
    const double exact = percentile(xs, 99.9);
    EXPECT_LT(std::abs(q.value(2) - exact) / exact, 0.25)
        << "seed=" << seed << " sigma=" << sigma;
  });
}

TEST(PropStats, P2QuantilesRejectInvalidTargets) {
  EXPECT_THROW(P2Quantiles{{}}, std::invalid_argument);
  EXPECT_THROW((P2Quantiles{{0.5, 0.5}}), std::invalid_argument);
  EXPECT_THROW((P2Quantiles{{0.9, 0.5}}), std::invalid_argument);
  EXPECT_THROW((P2Quantiles{{0.5, 1.0}}), std::invalid_argument);
  P2Quantiles q{{0.5, 0.99}};
  EXPECT_TRUE(std::isnan(q.value(1)));
  EXPECT_THROW(q.value(2), std::out_of_range);
}

TEST(PropStats, HistogramRejectsZeroBuckets) {
  // Regression: a zero-bucket Histogram used to construct fine and then
  // divide by zero in bucket_lo()/to_string(); construction now fails fast.
  EXPECT_THROW(Histogram(0.0, 1.0, 0), RequirementError);
  EXPECT_THROW((Histogram{0.0, 1.0, std::vector<std::uint64_t>{}}),
               RequirementError);
}

}  // namespace
}  // namespace vfimr
