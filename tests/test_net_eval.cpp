// Property tests for the memoizing NetworkEvaluator and the phase-resolved
// coupling pipeline (DESIGN.md §11).  The two contracts under test:
//
//  * A cached evaluation is bit-identical to a fresh one — for clean and
//    for fault-injected specs — because the key serializes every input that
//    can change the simulation outcome, so equal keys mean the same
//    simulation.
//  * The degenerate phase-resolved profile (all four phase matrices equal
//    to the whole-run aggregate, phase_window_scale = 1) reproduces the
//    legacy single-matrix coupling: identical per-phase latencies and
//    mem_scales, and the same execution time.

#include <gtest/gtest.h>

#include <array>

#include "noc/analytical.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

PlatformParams small_params(SystemKind kind) {
  PlatformParams p;
  p.kind = kind;
  p.sim_cycles = 3'000;
  p.drain_cycles = 20'000;
  return p;
}

void expect_identical(const NetworkEval& a, const NetworkEval& b) {
  EXPECT_EQ(a.avg_latency_cycles, b.avg_latency_cycles);
  EXPECT_EQ(a.energy_per_flit_j, b.energy_per_flit_j);
  EXPECT_EQ(a.wireless_utilization, b.wireless_utilization);
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.metrics.packets_injected, b.metrics.packets_injected);
  EXPECT_EQ(a.metrics.packets_ejected, b.metrics.packets_ejected);
  EXPECT_EQ(a.metrics.packets_local, b.metrics.packets_local);
  EXPECT_EQ(a.metrics.flits_ejected, b.metrics.flits_ejected);
  EXPECT_EQ(a.metrics.cycles, b.metrics.cycles);
  EXPECT_EQ(a.metrics.fault_events, b.metrics.fault_events);
  EXPECT_EQ(a.metrics.route_rebuilds, b.metrics.route_rebuilds);
  EXPECT_EQ(a.metrics.retry_backoffs, b.metrics.retry_backoffs);
  EXPECT_EQ(a.metrics.packets_lost, b.metrics.packets_lost);
  EXPECT_EQ(a.metrics.flits_lost, b.metrics.flits_lost);
  EXPECT_EQ(a.metrics.energy.switch_traversals,
            b.metrics.energy.switch_traversals);
  EXPECT_EQ(a.metrics.energy.wire_hops, b.metrics.energy.wire_hops);
  EXPECT_EQ(a.metrics.energy.wire_mm_flits, b.metrics.energy.wire_mm_flits);
  EXPECT_EQ(a.metrics.energy.wireless_flits, b.metrics.energy.wireless_flits);
  EXPECT_EQ(a.metrics.energy.buffer_writes, b.metrics.energy.buffer_writes);
  EXPECT_EQ(a.metrics.energy.buffer_reads, b.metrics.energy.buffer_reads);
}

TEST(NetEval, MemoizedMatchesFreshBitIdentical) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
    const PlatformParams params = small_params(kind);
    const BuiltPlatform built = build_platform(profile, params,
                                               sim.vf_table());

    const NetworkEval fresh1 = evaluate_network_traffic(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    const NetworkEval fresh2 = evaluate_network_traffic(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    expect_identical(fresh1, fresh2);  // the evaluation itself is seeded

    NetworkEvaluator evaluator;
    const NetworkEval miss = evaluator.evaluate(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    const NetworkEval hit = evaluator.evaluate(
        built, built.node_traffic, profile.packet_flits, params,
        sim.models().noc);
    expect_identical(miss, fresh1);
    expect_identical(hit, fresh1);
    EXPECT_EQ(evaluator.stats().misses, 1u);
    EXPECT_EQ(evaluator.stats().hits, 1u);
    EXPECT_EQ(evaluator.size(), 1u);
  }
}

TEST(NetEval, MemoizedMatchesFreshUnderFaults) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.faults.link_rate = 40.0;
  params.faults.router_rate = 20.0;
  params.faults.wi_rate = 40.0;
  params.faults.transient_fraction = 0.7;
  params.faults.seed = 77;
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  const NetworkEval fresh = evaluate_network_traffic(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  NetworkEvaluator evaluator;
  const NetworkEval miss = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  const NetworkEval hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(miss, fresh);
  expect_identical(hit, fresh);
  EXPECT_EQ(evaluator.stats().misses, 1u);
  EXPECT_EQ(evaluator.stats().hits, 1u);

  // A different fault seed is a different simulation: distinct key, miss.
  PlatformParams reseeded = params;
  reseeded.faults.seed = 78;
  (void)evaluator.evaluate(built, built.node_traffic, profile.packet_flits,
                           reseeded, sim.models().noc);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

TEST(NetEval, KeyIsContentAddressedNotIdentityAddressed) {
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  const PlatformParams params = small_params(SystemKind::kNvfiMesh);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  NetworkEvaluator evaluator;
  (void)evaluator.evaluate(built, built.node_traffic, profile.packet_flits,
                           params, sim.models().noc);
  // Equal content through a different Matrix object must hit...
  const Matrix copy = built.node_traffic;
  (void)evaluator.evaluate(built, copy, profile.packet_flits, params,
                           sim.models().noc);
  EXPECT_EQ(evaluator.stats().hits, 1u);
  // ...and a one-cell perturbation must miss.
  Matrix changed = built.node_traffic;
  changed(0, 1) += 1e-6;
  (void)evaluator.evaluate(built, changed, profile.packet_flits, params,
                           sim.models().noc);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

TEST(NetEval, CatalogProfilesHitOnLibInitMergeIdentity) {
  // LibInit and Merge share a traffic matrix by construction (same affinity
  // row), so every phase-resolved run of an app with a merge stage replays
  // the LibInit evaluation — across the three systems of compare_systems
  // that is at least three guaranteed hits.
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  NetworkEvaluator evaluator;
  PlatformParams params = small_params(SystemKind::kNvfiMesh);
  params.net_eval = &evaluator;
  const SystemComparison cmp = compare_systems(profile, sim, params);
  EXPECT_GE(evaluator.stats().hits, 3u);
  expect_identical(
      cmp.nvfi_mesh.phase_result(workload::Phase::kLibInit).net,
      cmp.nvfi_mesh.phase_result(workload::Phase::kMerge).net);
}

TEST(NetEval, DegenerateUniformPhasesReproduceLegacyCoupling) {
  const auto base = workload::make_profile(workload::App::kHist);
  ASSERT_TRUE(base.phase_resolved());

  // Legacy twin: no phase traffic -> the single whole-run evaluation path.
  workload::AppProfile legacy = base;
  legacy.phase_traffic = {};
  legacy.phase_weight = {};
  ASSERT_FALSE(legacy.phase_resolved());

  // Degenerate twin: four identical phase matrices, all equal to the
  // aggregate.  With phase_window_scale = 1 every phase evaluation is the
  // same simulation as the legacy whole-run evaluation.
  workload::AppProfile degenerate = base;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    degenerate.phase_traffic[p] = base.traffic;
    degenerate.phase_weight[p] = 0.25;
  }

  const FullSystemSim sim;
  for (SystemKind kind : {SystemKind::kNvfiMesh, SystemKind::kVfiWinoc}) {
    PlatformParams params = small_params(kind);
    params.phase_window_scale = 1.0;
    // A fixed scalar baseline exercises the mem_scale != 1 coupling path in
    // both pipelines identically.
    const double baseline = 20.0;
    const SystemReport legacy_report = sim.run(legacy, params, baseline);
    const SystemReport deg_report = sim.run(degenerate, params, baseline);
    ASSERT_FALSE(legacy_report.phase_resolved);
    ASSERT_TRUE(deg_report.phase_resolved);

    for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
      const PhaseResult& pr = deg_report.phase_results[p];
      ASSERT_TRUE(pr.evaluated);
      EXPECT_EQ(pr.net.avg_latency_cycles,
                legacy_report.net.avg_latency_cycles);
      EXPECT_EQ(pr.net.energy_per_flit_j, legacy_report.net.energy_per_flit_j);
      EXPECT_EQ(pr.mem_scale, legacy_report.mem_scale);
      EXPECT_EQ(pr.baseline_latency_cycles,
                legacy_report.baseline_latency_cycles);
    }
    // Whole-run aggregates are packet-/time-weighted means of four equal
    // values; equal up to rounding of the weighted fold.
    EXPECT_DOUBLE_EQ(deg_report.net.avg_latency_cycles,
                     legacy_report.net.avg_latency_cycles);
    EXPECT_DOUBLE_EQ(deg_report.mem_scale, legacy_report.mem_scale);
    // Equal per-phase mem_scales drive the task simulator through identical
    // draws, so the measured times agree exactly.
    EXPECT_EQ(deg_report.exec_s, legacy_report.exec_s);
    EXPECT_EQ(deg_report.core_energy_j, legacy_report.core_energy_j);
  }
}

TEST(NetEval, DegenerateProfileIsOneSimulationPlusThreeHits) {
  const auto base = workload::make_profile(workload::App::kHist);
  workload::AppProfile degenerate = base;
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    degenerate.phase_traffic[p] = base.traffic;
    degenerate.phase_weight[p] = 0.25;
  }
  const FullSystemSim sim;
  NetworkEvaluator evaluator;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  params.net_eval = &evaluator;
  (void)sim.run(degenerate, params, 20.0);
  EXPECT_EQ(evaluator.stats().misses, 1u);
  EXPECT_EQ(evaluator.stats().hits, 3u);
}

TEST(NetEval, FidelityBandIsPartOfTheCacheKey) {
  // Regression: the memo key must include the fidelity band.  Before the
  // fix, an analytical evaluation and a cycle-accurate evaluation of the
  // same (platform, traffic, params) serialized to the same key, so
  // whichever band ran first poisoned the cache for the other.
  const auto profile = workload::make_profile(workload::App::kHist);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kVfiWinoc);
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  NetworkEvaluator evaluator;
  params.fidelity = Fidelity::kCycleAccurate;
  const NetworkEval cycle = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  params.fidelity = Fidelity::kAnalytical;
  const NetworkEval analytical = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);

  // Both bands missed (distinct entries), nothing aliased.
  EXPECT_EQ(evaluator.size(), 2u);
  EXPECT_EQ(evaluator.stats().misses, 2u);
  EXPECT_EQ(evaluator.stats().hits, 0u);
  EXPECT_EQ(evaluator.stats().cycle_misses, 1u);
  EXPECT_EQ(evaluator.stats().analytical_misses, 1u);
  // The two results really are different simulations, not a relabeled copy.
  EXPECT_NE(cycle.avg_latency_cycles, analytical.avg_latency_cycles);

  // Replays hit their own band's entry and return it bit-identically.
  params.fidelity = Fidelity::kCycleAccurate;
  const NetworkEval cycle_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  params.fidelity = Fidelity::kAnalytical;
  const NetworkEval ana_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(cycle_hit, cycle);
  expect_identical(ana_hit, analytical);
  EXPECT_EQ(evaluator.stats().cycle_hits, 1u);
  EXPECT_EQ(evaluator.stats().analytical_hits, 1u);
  EXPECT_EQ(evaluator.size(), 2u);

  // kAuto explores analytically: it must land on the analytical entry.
  params.fidelity = Fidelity::kAuto;
  const NetworkEval auto_hit = evaluator.evaluate(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  expect_identical(auto_hit, analytical);
  EXPECT_EQ(evaluator.stats().analytical_hits, 2u);
  EXPECT_EQ(evaluator.size(), 2u);
}

TEST(NetEval, AnalyticalBandHonoursTheRetryLadder) {
  // Regression: evaluate_network_analytical built its model with the
  // AnalyticalConfig defaults (8 retries, base 8 cycles) whatever noc_sim
  // asked for, so the analytical band ignored the caller's retry ladder
  // while the cycle band honoured it.
  const auto profile = workload::make_profile(workload::App::kWC);
  const FullSystemSim sim;
  PlatformParams params = small_params(SystemKind::kNvfiMesh);
  params.fidelity = Fidelity::kAnalytical;
  // A transient outage of a central router: the default ladder's budget
  // (8 x 255 cycles) outlasts it, a 2-retry / 4-cycle ladder does not.
  params.noc_sim.faults.add({faults::NocFaultKind::kRouter, 27, 500, 1400});
  params.noc_sim.fault_max_retries = 2;
  params.noc_sim.fault_backoff_base_cycles = 4;
  const BuiltPlatform built = build_platform(profile, params, sim.vf_table());

  const auto direct = [&](std::uint32_t retries, std::uint32_t base) {
    noc::AnalyticalConfig cfg;
    cfg.sim_cycles = params.sim_cycles;
    cfg.faults = params.noc_sim.faults;
    cfg.fault_max_retries = retries;
    cfg.fault_backoff_base_cycles = base;
    return noc::AnalyticalNocModel{built.topology, *built.routing,
                                   built.wireless, cfg}
        .evaluate(built.node_traffic, profile.packet_flits);
  };
  const noc::Metrics custom = direct(2, 4);
  const noc::Metrics defaults = direct(8, 8);
  ASSERT_NE(custom.packets_lost, defaults.packets_lost);

  const NetworkEval eval = evaluate_network_analytical(
      built, built.node_traffic, profile.packet_flits, params,
      sim.models().noc);
  EXPECT_EQ(eval.metrics.packets_lost, custom.packets_lost);
  EXPECT_EQ(eval.metrics.flits_lost, custom.flits_lost);
  EXPECT_EQ(eval.metrics.packets_ejected, custom.packets_ejected);
  EXPECT_EQ(eval.metrics.flits_ejected, custom.flits_ejected);
  EXPECT_EQ(eval.metrics.avg_latency(), custom.avg_latency());
}

}  // namespace
}  // namespace vfimr::sysmodel
