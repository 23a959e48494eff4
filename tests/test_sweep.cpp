// Tests for the parallel experiment runner: common/parallel_for.hpp
// (coverage, inline fallback, exception propagation) and sysmodel/sweep.hpp
// (exact agreement with the serial loop and thread-count independence —
// the property golden_figures relies on when it fans the figure sweep out —
// and sweep_design_space's flat promotion set against a hand-composed
// serial FullSystemSim::run schedule, reports and evaluator counters alike).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel_for.hpp"
#include "store/codec.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{3},
                              std::size_t{8}}) {
    constexpr std::size_t kCount = 500;
    std::vector<std::atomic<std::uint32_t>> hits(kCount);
    parallel_for(kCount, threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " with " << threads
                                    << " threads";
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoOp) {
  bool called = false;
  parallel_for(0, 8, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInlineOnCaller) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(4);
  parallel_for(seen.size(), 1,
               [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, PropagatesFirstExceptionAfterJoin) {
  std::atomic<std::uint32_t> completed{0};
  auto run = [&](std::size_t threads) {
    parallel_for(64, threads, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error{"sweep item failed"};
      completed.fetch_add(1);
    });
  };
  EXPECT_THROW(run(1), std::runtime_error);
  EXPECT_THROW(run(4), std::runtime_error);
}

/// Reduced-cycle platform so the full-system runs stay test-sized; the
/// comparison below is exact, so fidelity to the paper numbers is
/// irrelevant here.
PlatformParams quick_params() {
  PlatformParams p;
  p.sim_cycles = 3'000;
  p.drain_cycles = 30'000;
  return p;
}

void expect_reports_equal(const SystemReport& a, const SystemReport& b) {
  // Exact equality: the simulation is deterministic and the runner must not
  // perturb it (no shared RNG, per-run seed isolation, slot-per-index
  // results).
  EXPECT_EQ(a.exec_s, b.exec_s);
  EXPECT_EQ(a.core_energy_j, b.core_energy_j);
  EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
  EXPECT_EQ(a.net_static_j, b.net_static_j);
  EXPECT_EQ(a.edp_js(), b.edp_js());
  EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
  EXPECT_EQ(a.phases.map_s, b.phases.map_s);
  EXPECT_EQ(a.phases.reduce_s, b.phases.reduce_s);
}

void expect_comparisons_equal(const std::vector<SystemComparison>& a,
                              const std::vector<SystemComparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_reports_equal(a[i].nvfi_mesh, b[i].nvfi_mesh);
    expect_reports_equal(a[i].vfi_mesh, b[i].vfi_mesh);
    expect_reports_equal(a[i].vfi_winoc, b[i].vfi_winoc);
  }
}

TEST(Sweep, MatchesSerialCompareSystemsLoop) {
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kWC)};
  const FullSystemSim sim;
  const PlatformParams params = quick_params();

  std::vector<SystemComparison> serial;
  for (const auto& p : profiles) {
    serial.push_back(compare_systems(p, sim, params));
  }
  expect_comparisons_equal(sweep_comparisons(profiles, sim, params, 4),
                           serial);
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  const std::vector<workload::AppProfile> profiles = {
      workload::make_profile(workload::App::kHist),
      workload::make_profile(workload::App::kKmeans),
      workload::make_profile(workload::App::kLR)};
  const FullSystemSim sim;
  const PlatformParams params = quick_params();

  const auto one = sweep_comparisons(profiles, sim, params, 1);
  expect_comparisons_equal(sweep_comparisons(profiles, sim, params, 8), one);
}

// ------------------------------------------------ design-space sweeps

/// sweep_design_space as a serial schedule of FullSystemSim::run calls:
/// both NVFI references up front, every point explored in turn, then each
/// promoted point confirmed in turn.  The parallel sweep must match it bit
/// for bit, counters included.
DesignSpaceResult serial_design_space(const workload::AppProfile& profile,
                                      const FullSystemSim& sim,
                                      const std::vector<SweepPoint>& points,
                                      std::size_t promote_top) {
  DesignSpaceResult out;
  out.points.resize(points.size());
  bool need_analytical = false;
  bool need_cycle = false;
  bool any_auto = false;
  for (const SweepPoint& p : points) {
    need_analytical = need_analytical || analytical_band(p.params.fidelity);
    need_cycle = need_cycle || !analytical_band(p.params.fidelity);
    any_auto = any_auto || p.params.fidelity == Fidelity::kAuto;
  }
  need_cycle = need_cycle || (any_auto && promote_top > 0);

  PhaseBaselines analytical_baseline;
  PhaseBaselines cycle_baseline;
  PlatformParams reference = points.front().params;
  reference.kind = SystemKind::kNvfiMesh;
  if (need_analytical) {
    reference.fidelity = Fidelity::kAnalytical;
    analytical_baseline = phase_baselines(sim.run(profile, reference));
  }
  if (need_cycle) {
    reference.fidelity = Fidelity::kCycleAccurate;
    cycle_baseline = phase_baselines(sim.run(profile, reference));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PlatformParams& params = points[i].params;
    out.points[i].label = points[i].label;
    out.points[i].explored =
        sim.run(profile, params,
                analytical_band(params.fidelity) ? analytical_baseline
                                                 : cycle_baseline);
    if (out.points[i].explored.edp_js() <
        out.points[out.argmin_explored].explored.edp_js()) {
      out.argmin_explored = i;
    }
  }

  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].params.fidelity == Fidelity::kAuto) eligible.push_back(i);
  }
  std::stable_sort(eligible.begin(), eligible.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.points[a].explored.edp_js() <
                            out.points[b].explored.edp_js();
                   });
  if (eligible.size() > promote_top) eligible.resize(promote_top);
  out.argmin_confirmed = eligible.empty() ? out.argmin_explored
                                          : eligible.front();
  for (const std::size_t i : eligible) {
    PlatformParams confirm = points[i].params;
    confirm.fidelity = Fidelity::kCycleAccurate;
    out.points[i].confirmed = sim.run(profile, confirm, cycle_baseline);
    out.points[i].promoted = true;
    if (confirm.net_eval != nullptr) confirm.net_eval->note_promotion();
    if (out.points[i].confirmed.edp_js() <
        out.points[out.argmin_confirmed].confirmed.edp_js()) {
      out.argmin_confirmed = i;
    }
  }
  out.promotions = eligible.size();
  return out;
}

void expect_design_spaces_identical(const DesignSpaceResult& got,
                                    const DesignSpaceResult& want) {
  EXPECT_EQ(got.argmin_explored, want.argmin_explored);
  EXPECT_EQ(got.argmin_confirmed, want.argmin_confirmed);
  EXPECT_EQ(got.promotions, want.promotions);
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < got.points.size(); ++i) {
    SCOPED_TRACE(want.points[i].label);
    EXPECT_EQ(got.points[i].label, want.points[i].label);
    EXPECT_EQ(store::encode_system_report(got.points[i].explored),
              store::encode_system_report(want.points[i].explored));
    ASSERT_EQ(got.points[i].promoted, want.points[i].promoted);
    if (want.points[i].promoted) {
      EXPECT_EQ(store::encode_system_report(got.points[i].confirmed),
                store::encode_system_report(want.points[i].confirmed));
    }
  }
}

void expect_stats_equal(const NetworkEvaluator::Stats& got,
                        const NetworkEvaluator::Stats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.analytical_hits, want.analytical_hits);
  EXPECT_EQ(got.analytical_misses, want.analytical_misses);
  EXPECT_EQ(got.cycle_hits, want.cycle_hits);
  EXPECT_EQ(got.cycle_misses, want.cycle_misses);
  EXPECT_EQ(got.promotions, want.promotions);
  EXPECT_EQ(got.disk_hits, want.disk_hits);
  EXPECT_EQ(got.disk_misses, want.disk_misses);
}

/// Three systems x synchronizer depth 1..2; `cycle_depth` points of that
/// depth explore cycle-accurately, the rest in `band`.
std::vector<SweepPoint> design_space(Fidelity band, std::uint32_t cycle_depth) {
  std::vector<SweepPoint> points;
  for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiMesh,
                          SystemKind::kVfiWinoc}) {
    for (std::uint32_t sync = 1; sync <= 2; ++sync) {
      SweepPoint pt;
      pt.label = system_name(kind) + "/sync" + std::to_string(sync);
      pt.params = quick_params();
      pt.params.vfi.anneal.iterations = 5'000;
      pt.params.vfi.anneal.restarts = 1;
      pt.params.kind = kind;
      pt.params.noc_sim.sync_penalty_cycles = sync;
      pt.params.fidelity =
          sync == cycle_depth ? Fidelity::kCycleAccurate : band;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

/// For promote_top 0..2 and services detached / attached: the sweep at 1
/// and 4 threads equals the serial reference — reports, argmins,
/// promotions and every NetworkEvaluator counter.
void expect_sweep_matches_serial_reference(
    const std::vector<SweepPoint>& space) {
  const workload::AppProfile profile =
      workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  for (std::size_t promote_top = 0; promote_top <= 2; ++promote_top) {
    for (const bool attached : {false, true}) {
      SCOPED_TRACE("promote_top=" + std::to_string(promote_top) +
                   (attached ? " services attached" : " no services"));
      auto with_services = [&](NetworkEvaluator& evaluator,
                               PlatformCache& platforms) {
        std::vector<SweepPoint> points = space;
        if (attached) {
          for (SweepPoint& pt : points) {
            pt.params.net_eval = &evaluator;
            pt.params.platform_cache = &platforms;
          }
        }
        return points;
      };
      NetworkEvaluator ref_eval;
      PlatformCache ref_platforms;
      const DesignSpaceResult want = serial_design_space(
          profile, sim, with_services(ref_eval, ref_platforms), promote_top);
      for (const std::size_t threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        NetworkEvaluator evaluator;
        PlatformCache platforms;
        const DesignSpaceResult got = sweep_design_space(
            profile, sim, with_services(evaluator, platforms), promote_top,
            threads);
        expect_design_spaces_identical(got, want);
        expect_stats_equal(evaluator.stats(), ref_eval.stats());
        EXPECT_EQ(platforms.hits(), ref_platforms.hits());
        EXPECT_EQ(platforms.misses(), ref_platforms.misses());
      }
    }
  }
}

TEST(SweepDesignSpace, AllAutoMatchesSerialReference) {
  expect_sweep_matches_serial_reference(design_space(Fidelity::kAuto, 0));
}

TEST(SweepDesignSpace, MixedCycleAndAutoMatchesSerialReference) {
  // Cycle-band explorations need the cycle reference before exploration;
  // the Auto points' confirmations fold against that same reference.
  expect_sweep_matches_serial_reference(design_space(Fidelity::kAuto, 2));
}

TEST(SweepDesignSpace, AllCycleMatchesSerialReference) {
  expect_sweep_matches_serial_reference(
      design_space(Fidelity::kCycleAccurate, 0));
}

}  // namespace
}  // namespace vfimr::sysmodel
