// Tests for the key schema (sysmodel/keys.hpp, DESIGN.md §12).
//
//  * Field perturbation: mutate every value field of the inputs one at a
//    time and assert that exactly the keys which must see it change.  The
//    deliberate exclusions are encoded here (e.g. core_fail_prob reaches the
//    sweep-point key only; kAuto and kAnalytical share a net-eval band), so
//    a field that silently stops reaching a key fails loudly.
//  * Pinned layout: the persisted keys of default inputs hash to fixed
//    values.  Changing a persisted layout cold-starts every existing store,
//    so it has to be a deliberate edit of this table.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/bytes.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/keys.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/system_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

enum : unsigned { kNone = 0, kNet = 1, kPlatform = 2, kSweep = 4 };

/// Everything the three persisted keys are built from.
struct Inputs {
  workload::AppProfile profile = workload::make_profile(workload::App::kWC);
  PlatformParams params;
  power::CorePowerParams core;
  power::NocPowerParams noc;
  std::vector<power::VfPoint> table = {
      {0.6, 1.50e9}, {0.8, 2.00e9}, {1.0, 2.50e9}};
};

struct Perturbation {
  std::string field;
  std::function<void(Inputs&)> mutate;
  unsigned expect;
};

class KeySchemaTest : public ::testing::Test {
 protected:
  /// The net-eval key sees the platform only as built (topology, wireless
  /// layout), so one fixed NVFI platform serves every perturbation.
  const BuiltPlatform platform_ = build_platform(
      Inputs{}.profile, Inputs{}.params, power::VfTable::standard());

  /// Bitmask of the keys that differ between `a` and `b`.
  unsigned changed(const Inputs& a, const Inputs& b) const {
    const auto keys = [this](const Inputs& in) {
      const power::VfTable table{in.table};
      const FullSystemSim sim{
          FullSystemSim::Models{power::CorePowerModel{in.core},
                                power::NocPowerModel{in.noc}},
          table};
      return std::vector<std::string>{
          net_eval_key(platform_, platform_.node_traffic,
                       in.profile.packet_flits, in.params, sim.models().noc),
          platform_key(in.profile, in.params, table),
          comparison_point_key(in.profile, sim, in.params)};
    };
    const std::vector<std::string> ka = keys(a);
    const std::vector<std::string> kb = keys(b);
    unsigned mask = kNone;
    if (ka[0] != kb[0]) mask |= kNet;
    if (ka[1] != kb[1]) mask |= kPlatform;
    if (ka[2] != kb[2]) mask |= kSweep;
    return mask;
  }

  void expect_perturbations(const Inputs& base,
                            const std::vector<Perturbation>& cases) const {
    for (const Perturbation& c : cases) {
      Inputs mutated = base;
      c.mutate(mutated);
      EXPECT_EQ(changed(base, mutated), c.expect) << c.field;
    }
  }
};

TEST_F(KeySchemaTest, PlatformParamsReachExactlyTheirKeys) {
  constexpr unsigned kAll = kNet | kPlatform | kSweep;
  constexpr unsigned kDesign = kPlatform | kSweep;
  constexpr unsigned kNoc = kNet | kSweep;
  telemetry::TelemetrySink sink;
  NetworkEvaluator evaluator;
  PlatformCache platforms;
  faults::FaultSchedule schedule;
  schedule.add({faults::NocFaultKind::kLink, 3, 100, 900});

  // clang-format off
  expect_perturbations(Inputs{}, {
      {"kind", [](Inputs& in) { in.params.kind = SystemKind::kVfiMesh; }, kAll},
      {"use_vfi2", [](Inputs& in) { in.params.use_vfi2 = false; }, kSweep},
      {"placement", [](Inputs& in) { in.params.placement = winoc::PlacementStrategy::kMinHopCount; }, kDesign},
      {"smallworld.k_intra", [](Inputs& in) { in.params.smallworld.k_intra += 1; }, kDesign},
      {"smallworld.k_inter", [](Inputs& in) { in.params.smallworld.k_inter += 1; }, kDesign},
      {"smallworld.k_max", [](Inputs& in) { in.params.smallworld.k_max += 1; }, kDesign},
      {"smallworld.alpha", [](Inputs& in) { in.params.smallworld.alpha += 0.1; }, kDesign},
      {"smallworld.channels", [](Inputs& in) { in.params.smallworld.channels += 1; }, kDesign},
      {"smallworld.wis_per_cluster", [](Inputs& in) { in.params.smallworld.wis_per_cluster += 1; }, kDesign},
      {"smallworld.seed", [](Inputs& in) { in.params.smallworld.seed += 1; }, kDesign},
      {"vfi.clusters", [](Inputs& in) { in.params.vfi.clusters += 1; }, kDesign},
      {"vfi.select.util_target", [](Inputs& in) { in.params.vfi.select.util_target -= 0.1; }, kDesign},
      {"vfi.anneal.iterations", [](Inputs& in) { in.params.vfi.anneal.iterations += 1; }, kDesign},
      {"vfi.anneal.t_initial", [](Inputs& in) { in.params.vfi.anneal.t_initial *= 2; }, kDesign},
      {"vfi.anneal.t_final", [](Inputs& in) { in.params.vfi.anneal.t_final *= 2; }, kDesign},
      {"vfi.anneal.seed", [](Inputs& in) { in.params.vfi.anneal.seed += 1; }, kDesign},
      {"vfi.anneal.restarts", [](Inputs& in) { in.params.vfi.anneal.restarts += 1; }, kDesign},
      {"network_clock_hz", [](Inputs& in) { in.params.network_clock_hz *= 2; }, kSweep},
      {"router_pipeline_cycles", [](Inputs& in) { in.params.router_pipeline_cycles += 1; }, kNoc},
      {"vfi_stealing", [](Inputs& in) { in.params.vfi_stealing = StealingPolicy::kPhoenixDefault; }, kSweep},
      {"noc_sim.wire_buffer_depth", [](Inputs& in) { in.params.noc_sim.wire_buffer_depth += 1; }, kNoc},
      {"noc_sim.wi_buffer_depth", [](Inputs& in) { in.params.noc_sim.wi_buffer_depth += 1; }, kNoc},
      {"noc_sim.node_cluster", [](Inputs& in) { in.params.noc_sim.node_cluster.assign(64, 0); }, kNoc},
      {"noc_sim.sync_penalty_cycles", [](Inputs& in) { in.params.noc_sim.sync_penalty_cycles += 1; }, kNoc},
      {"noc_sim.reference_stepping", [](Inputs& in) { in.params.noc_sim.reference_stepping = true; }, kNoc},
      {"noc_sim.faults", [&](Inputs& in) { in.params.noc_sim.faults = schedule; }, kNoc},
      {"noc_sim.fault_max_retries", [](Inputs& in) { in.params.noc_sim.fault_max_retries += 1; }, kNoc},
      {"noc_sim.fault_backoff_base_cycles", [](Inputs& in) { in.params.noc_sim.fault_backoff_base_cycles += 1; }, kNoc},
      {"noc_sim.fault_reroute_wireless_cost", [](Inputs& in) { in.params.noc_sim.fault_reroute_wireless_cost += 1; }, kNoc},
      {"noc_sim.telemetry", [&](Inputs& in) { in.params.noc_sim.telemetry = &sink; }, kNone},
      {"noc_sim.telemetry_label", [](Inputs& in) { in.params.noc_sim.telemetry_label = "x"; }, kNone},
      {"fidelity cycle->analytical", [](Inputs& in) { in.params.fidelity = Fidelity::kAnalytical; }, kNoc},
      {"sim_cycles", [](Inputs& in) { in.params.sim_cycles += 1; }, kNoc},
      {"drain_cycles", [](Inputs& in) { in.params.drain_cycles += 1; }, kNoc},
      {"traffic_seed", [](Inputs& in) { in.params.traffic_seed += 1; }, kNoc},
      {"faults.link_rate", [](Inputs& in) { in.params.faults.link_rate = 1e-3; }, kNoc},
      {"faults.router_rate", [](Inputs& in) { in.params.faults.router_rate = 1e-3; }, kNoc},
      {"faults.wi_rate", [](Inputs& in) { in.params.faults.wi_rate = 1e-3; }, kNoc},
      {"faults.core_fail_prob", [](Inputs& in) { in.params.faults.core_fail_prob = 0.1; }, kSweep},
      {"faults.transient_fraction", [](Inputs& in) { in.params.faults.transient_fraction /= 2; }, kNoc},
      {"faults.mean_repair_cycles", [](Inputs& in) { in.params.faults.mean_repair_cycles += 1; }, kNoc},
      {"faults.loss_timeout_cycles", [](Inputs& in) { in.params.faults.loss_timeout_cycles += 1; }, kSweep},
      {"faults.seed", [](Inputs& in) { in.params.faults.seed += 1; }, kNoc},
      {"telemetry", [&](Inputs& in) { in.params.telemetry = &sink; }, kNone},
      {"telemetry_label", [](Inputs& in) { in.params.telemetry_label = "x"; }, kNone},
      {"net_eval", [&](Inputs& in) { in.params.net_eval = &evaluator; }, kNone},
      {"platform_cache", [&](Inputs& in) { in.params.platform_cache = &platforms; }, kNone},
      {"phase_window_scale", [](Inputs& in) { in.params.phase_window_scale = 1.0; }, kSweep},
  });
  // clang-format on

  // kAuto evaluates in the analytical band and deliberately shares its
  // net-eval entries; only the sweep driver tells the two apart.
  Inputs analytical;
  analytical.params.fidelity = Fidelity::kAnalytical;
  expect_perturbations(analytical, {{"fidelity analytical->auto",
                                     [](Inputs& in) {
                                       in.params.fidelity = Fidelity::kAuto;
                                     },
                                     kSweep}});
}

TEST_F(KeySchemaTest, ProfileFieldsReachExactlyTheirKeys) {
  constexpr unsigned kDesign = kPlatform | kSweep;
  const Inputs base;
  ASSERT_TRUE(base.profile.phase_resolved());

  // clang-format off
  std::vector<Perturbation> cases = {
      {"app", [](Inputs& in) { in.profile.app = workload::App::kHist; }, kDesign},
      {"threads", [](Inputs& in) { in.profile.threads += 1; }, kDesign},
      {"utilization", [](Inputs& in) { in.profile.utilization[5] += 0.01; }, kDesign},
      {"traffic", [](Inputs& in) { in.profile.traffic(1, 2) += 1e-4; }, kDesign},
      {"packet_flits", [](Inputs& in) { in.profile.packet_flits += 1; }, kNet | kSweep},
      {"master_threads", [](Inputs& in) { in.profile.master_threads.push_back(9); }, kDesign},
      {"net_sensitivity", [](Inputs& in) { in.profile.net_sensitivity += 0.1; }, kSweep},
      {"iterations", [](Inputs& in) { in.profile.iterations += 1; }, kSweep},
      {"phases.lib_init.cycles", [](Inputs& in) { in.profile.phases.lib_init.cycles += 1; }, kSweep},
      {"phases.lib_init.mem_seconds", [](Inputs& in) { in.profile.phases.lib_init.mem_seconds += 1e-6; }, kSweep},
      {"phases.merge.cycles", [](Inputs& in) { in.profile.phases.merge.cycles += 1; }, kSweep},
      {"phases.merge.mem_seconds", [](Inputs& in) { in.profile.phases.merge.mem_seconds += 1e-6; }, kSweep},
  };
  for (auto member : {&workload::PhaseModel::map, &workload::PhaseModel::reduce}) {
    const std::string set = member == &workload::PhaseModel::map ? "map" : "reduce";
    cases.push_back({"phases." + set + ".count", [member](Inputs& in) { (in.profile.phases.*member).count += 1; }, kSweep});
    cases.push_back({"phases." + set + ".cycles_mean", [member](Inputs& in) { (in.profile.phases.*member).cycles_mean += 1; }, kSweep});
    cases.push_back({"phases." + set + ".cycles_cv", [member](Inputs& in) { (in.profile.phases.*member).cycles_cv += 0.01; }, kSweep});
    cases.push_back({"phases." + set + ".mem_seconds_mean", [member](Inputs& in) { (in.profile.phases.*member).mem_seconds_mean += 1e-6; }, kSweep});
    cases.push_back({"phases." + set + ".mem_cv", [member](Inputs& in) { (in.profile.phases.*member).mem_cv += 0.01; }, kSweep});
  }
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    cases.push_back({"phase_traffic[" + std::to_string(p) + "]", [p](Inputs& in) { in.profile.phase_traffic[p](2, 1) += 1e-4; }, kSweep});
    cases.push_back({"phase_weight[" + std::to_string(p) + "]", [p](Inputs& in) { in.profile.phase_weight[p] += 0.01; }, kSweep});
  }
  // clang-format on
  expect_perturbations(base, cases);
}

TEST_F(KeySchemaTest, PowerModelsAndVfTableReachExactlyTheirKeys) {
  constexpr unsigned kDesign = kPlatform | kSweep;
  constexpr unsigned kNoc = kNet | kSweep;
  // clang-format off
  expect_perturbations(Inputs{}, {
      {"core.ceff_f", [](Inputs& in) { in.core.ceff_f *= 2; }, kSweep},
      {"core.leak_nominal_w", [](Inputs& in) { in.core.leak_nominal_w *= 2; }, kSweep},
      {"core.v_nominal", [](Inputs& in) { in.core.v_nominal *= 2; }, kSweep},
      {"core.leak_exponent", [](Inputs& in) { in.core.leak_exponent *= 2; }, kSweep},
      {"core.idle_activity", [](Inputs& in) { in.core.idle_activity *= 2; }, kSweep},
      {"noc.flit_bits", [](Inputs& in) { in.noc.flit_bits *= 2; }, kNoc},
      {"noc.wire_pj_per_bit_mm", [](Inputs& in) { in.noc.wire_pj_per_bit_mm *= 2; }, kNoc},
      {"noc.switch_pj_per_bit", [](Inputs& in) { in.noc.switch_pj_per_bit *= 2; }, kNoc},
      {"noc.wireless_pj_per_bit", [](Inputs& in) { in.noc.wireless_pj_per_bit *= 2; }, kNoc},
      {"noc.buffer_pj_per_bit", [](Inputs& in) { in.noc.buffer_pj_per_bit *= 2; }, kNoc},
      {"noc.switch_leakage_w", [](Inputs& in) { in.noc.switch_leakage_w *= 2; }, kNoc},
      {"noc.wi_leakage_w", [](Inputs& in) { in.noc.wi_leakage_w *= 2; }, kNoc},
      {"vf_table.voltage_v", [](Inputs& in) { in.table[1].voltage_v += 0.05; }, kDesign},
      {"vf_table.freq_hz", [](Inputs& in) { in.table[1].freq_hz += 1e8; }, kDesign},
      {"vf_table.size", [](Inputs& in) { in.table.push_back({1.1, 2.75e9}); }, kDesign},
  });
  // clang-format on
}

TEST_F(KeySchemaTest, NodeTrafficReachesTheNetEvalKey) {
  const Inputs in;
  Matrix traffic = platform_.node_traffic;
  const std::string before = net_eval_key(platform_, traffic, 4, in.params,
                                          power::NocPowerModel{in.noc});
  traffic(3, 4) += 1e-4;
  EXPECT_NE(net_eval_key(platform_, traffic, 4, in.params,
                         power::NocPowerModel{in.noc}),
            before);
}

TEST(AnalyticalModelKey, EveryConfigFieldReachesTheKey) {
  faults::FaultSchedule schedule;
  schedule.add({faults::NocFaultKind::kRouter, 7, 50, 500});
  // clang-format off
  const std::vector<std::pair<std::string, std::function<void(noc::AnalyticalConfig&)>>> cases = {
      {"sim_cycles", [](auto& c) { c.sim_cycles += 1; }},
      {"node_cluster", [](auto& c) { c.node_cluster.assign(64, 1); }},
      {"sync_penalty_cycles", [](auto& c) { c.sync_penalty_cycles += 1; }},
      {"faults", [&](auto& c) { c.faults = schedule; }},
      {"fault_reroute_wireless_cost", [](auto& c) { c.fault_reroute_wireless_cost += 1; }},
      {"max_utilization", [](auto& c) { c.max_utilization -= 0.01; }},
      {"base_overhead_cycles", [](auto& c) { c.base_overhead_cycles += 1; }},
      {"transition_disruption_cycles", [](auto& c) { c.transition_disruption_cycles += 1; }},
      {"fault_backoff_base_cycles", [](auto& c) { c.fault_backoff_base_cycles += 1; }},
      {"fault_max_retries", [](auto& c) { c.fault_max_retries += 1; }},
      {"backoff_overshoot", [](auto& c) { c.backoff_overshoot += 0.1; }},
      {"hol_blocking_factor", [](auto& c) { c.hol_blocking_factor += 0.1; }},
      {"transition_freeze_factor", [](auto& c) { c.transition_freeze_factor += 0.1; }},
  };
  // clang-format on
  const noc::AnalyticalConfig base;
  const std::string base_key = analytical_model_key(base);
  EXPECT_EQ(analytical_model_key(base), base_key);
  for (const auto& [field, mutate] : cases) {
    noc::AnalyticalConfig cfg = base;
    mutate(cfg);
    EXPECT_NE(analytical_model_key(cfg), base_key) << field;
  }
}

TEST(KeySchema, PersistedKeyLayoutIsPinned) {
#if !(defined(__GLIBCXX__) && defined(__LP64__))
  GTEST_SKIP() << "key bytes are pinned for LP64 libstdc++ layouts";
#endif
  struct Pin {
    workload::App app;
    SystemKind kind;
    std::uint64_t net_eval;
    std::uint64_t platform;
    std::uint64_t sweep_point;
  };
  // fnv1a64 of the domain-prefixed keys of default inputs (default
  // PlatformParams of each kind, catalog profile, standard models and V/F
  // ladder).  Recorded with the hand-written builders these appenders
  // replaced; a change here invalidates every existing store.
  // clang-format off
  const Pin pins[] = {
      {workload::App::kWC, SystemKind::kNvfiMesh, 0x9ba7453e20793da8ull, 0x2c38c0a35bb4f194ull, 0x24904b24dad8512full},
      {workload::App::kWC, SystemKind::kVfiMesh, 0x2f40186a4c55be84ull, 0x213dacbbd89e7859ull, 0x0b600f5e6effd864ull},
      {workload::App::kWC, SystemKind::kVfiWinoc, 0x4b86a04d77866939ull, 0xf4d6933aee8cccb2ull, 0xde8c4c7c67c98b55ull},
      {workload::App::kKmeans, SystemKind::kNvfiMesh, 0x19aa926cfd7d792eull, 0x87b23b259001cda8ull, 0x876213ada919387bull},
      {workload::App::kKmeans, SystemKind::kVfiMesh, 0xd842906ca9b31e7eull, 0x090da18774d0d38dull, 0x8a5f7e2474448730ull},
      {workload::App::kKmeans, SystemKind::kVfiWinoc, 0xd835cc6abc02c090ull, 0x2386a42b0ede4626ull, 0xb3c5380de298a781ull},
  };
  // clang-format on
  const FullSystemSim sim;
  const auto hash = [](store::KeyDomain domain, const std::string& key) {
    return store::fnv1a64(store::domain_key(domain, key));
  };
  for (const Pin& pin : pins) {
    const workload::AppProfile profile = workload::make_profile(pin.app);
    PlatformParams params;
    params.kind = pin.kind;
    const BuiltPlatform built =
        build_platform(profile, params, sim.vf_table());
    const std::string where =
        profile.name() + " / " + system_name(pin.kind);
    EXPECT_EQ(hash(store::KeyDomain::kNetworkEval,
                   net_eval_key(built, built.node_traffic,
                                profile.packet_flits, params,
                                sim.models().noc)),
              pin.net_eval)
        << where;
    EXPECT_EQ(hash(store::KeyDomain::kPlatformDesign,
                   platform_key(profile, params, sim.vf_table())),
              pin.platform)
        << where;
    EXPECT_EQ(hash(store::KeyDomain::kSweepPoint,
                   comparison_point_key(profile, sim, params)),
              pin.sweep_point)
        << where;
  }
}

}  // namespace
}  // namespace vfimr::sysmodel
