#include "sysmodel/keys.hpp"

#include <vector>

#include "store/bytes.hpp"
#include "sysmodel/system_sim.hpp"

// Every appender is paired with the size of the struct it keys.  A size
// change means a field was added or removed: key it (or name it as excluded
// in the appender) and update the size.  The sizes are those of LP64
// libstdc++; other ABIs skip the check.
#if defined(__GLIBCXX__) && defined(__LP64__)
#define VFIMR_KEYED_SIZE(T, bytes)                                   \
  static_assert(sizeof(T) == (bytes), "a field of " #T               \
                                      " changed: key it or list it " \
                                      "as excluded, then update this size")
#else
#define VFIMR_KEYED_SIZE(T, bytes) static_assert(true)
#endif

namespace vfimr::sysmodel {

namespace {

using store::ByteWriter;

/// A vector as its size_t length, then its elements.
template <typename T>
void put_sized(ByteWriter& w, const std::vector<T>& v) {
  w.put(v.size());
  for (const T& x : v) w.put(x);
}

VFIMR_KEYED_SIZE(Matrix, 40);
void key_append(ByteWriter& w, const Matrix& m) {
  w.put(m.rows(), m.cols());
  if (!m.data().empty()) {
    w.put_bytes(m.data().data(), m.data().size() * sizeof(double));
  }
}

VFIMR_KEYED_SIZE(faults::NocFault, 24);
void key_append(ByteWriter& w, const faults::FaultSchedule& s) {
  w.put(s.size());
  for (const auto& f : s.events()) {
    w.put(static_cast<std::uint32_t>(f.kind), f.id, f.at_cycle,
          f.until_cycle);
  }
}

VFIMR_KEYED_SIZE(faults::FaultSpec, 64);
void key_append(ByteWriter& w, const faults::FaultSpec& s) {
  w.put(s.link_rate, s.router_rate, s.wi_rate, s.core_fail_prob,
        s.transient_fraction, s.mean_repair_cycles, s.loss_timeout_cycles,
        s.seed);
}

// The NoC slice of a FaultSpec: what the schedule expansion reads.
// core_fail_prob and loss_timeout_cycles only steer the task simulator.
void key_append_noc_faults(ByteWriter& w, const faults::FaultSpec& s) {
  w.put(s.link_rate, s.router_rate, s.wi_rate, s.transient_fraction,
        s.mean_repair_cycles, s.seed);
}

// telemetry / telemetry_label excluded: a traced run is bit-identical.
VFIMR_KEYED_SIZE(noc::SimConfig, 120);
void key_append(ByteWriter& w, const noc::SimConfig& c) {
  w.put(c.wire_buffer_depth, c.wi_buffer_depth);
  put_sized(w, c.node_cluster);
  w.put(c.sync_penalty_cycles,
        static_cast<std::uint8_t>(c.reference_stepping), c.fault_max_retries,
        c.fault_backoff_base_cycles, c.fault_reroute_wireless_cost);
  key_append(w, c.faults);
}

VFIMR_KEYED_SIZE(noc::AnalyticalConfig, 128);
void key_append(ByteWriter& w, const noc::AnalyticalConfig& c) {
  w.put(c.sim_cycles);
  put_sized(w, c.node_cluster);
  w.put(c.sync_penalty_cycles);
  key_append(w, c.faults);
  w.put(c.fault_reroute_wireless_cost, c.max_utilization,
        c.base_overhead_cycles, c.transition_disruption_cycles,
        c.fault_backoff_base_cycles, c.fault_max_retries,
        c.backoff_overshoot, c.hol_blocking_factor,
        c.transition_freeze_factor);
}

VFIMR_KEYED_SIZE(winoc::SmallWorldParams, 56);
void key_append(ByteWriter& w, const winoc::SmallWorldParams& p) {
  w.put(p.k_intra, p.k_inter, p.k_max, p.alpha, p.channels,
        p.wis_per_cluster, p.seed);
}

VFIMR_KEYED_SIZE(vfi::VfiDesignParams, 56);
VFIMR_KEYED_SIZE(vfi::VfSelectParams, 8);
VFIMR_KEYED_SIZE(vfi::AnnealParams, 40);
void key_append(ByteWriter& w, const vfi::VfiDesignParams& p) {
  w.put(p.clusters, p.select.util_target, p.anneal.iterations,
        p.anneal.t_initial, p.anneal.t_final, p.anneal.seed,
        p.anneal.restarts);
}

VFIMR_KEYED_SIZE(power::VfPoint, 16);
void key_append(ByteWriter& w, const power::VfTable& t) {
  w.put(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    w.put(t[i].voltage_v, t[i].freq_hz);
  }
}

VFIMR_KEYED_SIZE(power::CorePowerParams, 40);
void key_append(ByteWriter& w, const power::CorePowerParams& p) {
  w.put(p.ceff_f, p.leak_nominal_w, p.v_nominal, p.leak_exponent,
        p.idle_activity);
}

VFIMR_KEYED_SIZE(power::NocPowerParams, 56);
void key_append(ByteWriter& w, const power::NocPowerParams& p) {
  w.put(p.flit_bits, p.wire_pj_per_bit_mm, p.switch_pj_per_bit,
        p.wireless_pj_per_bit, p.buffer_pj_per_bit, p.switch_leakage_w,
        p.wi_leakage_w);
}

// telemetry, telemetry_label, net_eval and platform_cache excluded: tracing
// and the memo services are bit-identical to running without.
VFIMR_KEYED_SIZE(PlatformParams, 424);
void key_append(ByteWriter& w, const PlatformParams& p) {
  w.put(static_cast<std::uint32_t>(p.kind),
        static_cast<std::uint8_t>(p.use_vfi2),
        static_cast<std::uint32_t>(p.placement));
  key_append(w, p.smallworld);
  key_append(w, p.vfi);
  w.put(p.network_clock_hz, p.router_pipeline_cycles,
        static_cast<std::uint32_t>(p.vfi_stealing),
        static_cast<std::uint8_t>(p.fidelity), p.sim_cycles, p.drain_cycles,
        p.traffic_seed, p.phase_window_scale);
  key_append(w, p.noc_sim);
  key_append(w, p.faults);
}

VFIMR_KEYED_SIZE(workload::AppProfile, 432);
VFIMR_KEYED_SIZE(workload::PhaseModel, 112);
VFIMR_KEYED_SIZE(workload::TaskSet, 40);
VFIMR_KEYED_SIZE(workload::SerialStage, 16);
// The full workload content FullSystemSim::run reads off a profile.
void key_append(ByteWriter& w, const workload::AppProfile& p) {
  const auto stage = [&w](const workload::SerialStage& s) {
    w.put(s.cycles, s.mem_seconds);
  };
  const auto tasks = [&w](const workload::TaskSet& t) {
    w.put(t.count, t.cycles_mean, t.cycles_cv, t.mem_seconds_mean, t.mem_cv);
  };
  w.put(static_cast<std::uint32_t>(p.app), p.threads);
  put_sized(w, p.utilization);
  key_append(w, p.traffic);
  w.put(p.packet_flits);
  put_sized(w, p.master_threads);
  w.put(p.net_sensitivity, p.iterations);
  stage(p.phases.lib_init);
  tasks(p.phases.map);
  tasks(p.phases.reduce);
  stage(p.phases.merge);
  for (std::size_t ph = 0; ph < workload::kPhaseCount; ++ph) {
    key_append(w, p.phase_traffic[ph]);
    w.put(p.phase_weight[ph]);
  }
}

// The design-flow slice of a profile: traffic drives thread mapping and
// WiNoC layout, utilization and masters drive the VFI design.
void key_append_design_inputs(ByteWriter& w, const workload::AppProfile& p) {
  w.put(static_cast<std::uint32_t>(p.app), p.threads);
  key_append(w, p.traffic);
  put_sized(w, p.utilization);
  put_sized(w, p.master_threads);
}

}  // namespace

VFIMR_KEYED_SIZE(noc::Topology, 72);
VFIMR_KEYED_SIZE(noc::Point, 16);
VFIMR_KEYED_SIZE(graph::Edge, 24);
VFIMR_KEYED_SIZE(noc::WirelessConfig, 32);
VFIMR_KEYED_SIZE(noc::WirelessInterface, 8);
std::string net_eval_key(const BuiltPlatform& platform,
                         const Matrix& node_traffic,
                         std::uint32_t packet_flits,
                         const PlatformParams& params,
                         const power::NocPowerModel& noc_power) {
  ByteWriter w;
  // Fidelity band first.  kAuto and kAnalytical share the byte
  // deliberately: they are the same band (kAuto's cycle-accurate
  // confirmations arrive as separate kCycleAccurate requests).
  w.put(static_cast<std::uint8_t>(analytical_band(params.fidelity)));
  // System kind selects the routing algorithm (XY vs. up*/down*).
  w.put(static_cast<std::uint32_t>(params.kind),
        static_cast<std::uint8_t>(platform.has_vfi));

  // The built interconnect stands in for the design knobs: switch
  // positions (wire lengths feed the energy model), edges, wireless layout.
  const auto& topo = platform.topology;
  w.put(topo.node_count());
  for (const auto& pos : topo.positions) w.put(pos.x_mm, pos.y_mm);
  w.put(topo.graph.edge_count());
  for (const auto& e : topo.graph.edges()) {
    w.put(e.a, e.b, static_cast<std::uint32_t>(e.kind), e.length_mm);
  }
  w.put(platform.wireless.channel_count, platform.wireless.interfaces.size());
  for (const auto& wi : platform.wireless.interfaces) {
    w.put(wi.node, wi.channel);
  }

  key_append(w, node_traffic);
  w.put(packet_flits, params.traffic_seed, params.sim_cycles,
        params.drain_cycles, params.router_pipeline_cycles);
  key_append(w, params.noc_sim);
  key_append_noc_faults(w, params.faults);
  key_append(w, noc_power.params());
  return w.take();
}

std::string analytical_model_key(const noc::AnalyticalConfig& config) {
  ByteWriter w;
  key_append(w, config);
  return w.take();
}

std::string platform_key(const workload::AppProfile& profile,
                         const PlatformParams& params,
                         const power::VfTable& table) {
  ByteWriter w;
  key_append_design_inputs(w, profile);
  w.put(static_cast<std::uint32_t>(params.kind),
        static_cast<std::uint32_t>(params.placement));
  key_append(w, params.smallworld);
  key_append(w, params.vfi);
  key_append(w, table);
  return w.take();
}

std::string comparison_point_key(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params) {
  ByteWriter w;
  key_append(w, profile);
  key_append(w, base_params);
  key_append(w, sim.models().core.params());
  key_append(w, sim.models().noc.params());
  key_append(w, sim.vf_table());
  return w.take();
}

}  // namespace vfimr::sysmodel
