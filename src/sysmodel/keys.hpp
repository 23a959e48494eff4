#pragma once
// The one key schema behind every memo and store record (DESIGN.md §12).
//
// A key is the raw bytes of every input that can steer a computation, so
// equal keys denote the same result.  Exactness over compactness: no
// hashing, so no collision can alias two computations.  keys.cpp holds one
// key_append per params struct, writing its value fields one by one
// (struct padding never leaks into a key) through store::ByteWriter
// (pointers are rejected at compile time); a deliberate projection of a
// struct is a named appender of its own.  Telemetry sinks, labels and
// service pointers are never keyed: attaching them is proven bit-identical
// to running without.
//
// The four keys below are composed from those appenders.  The net-eval,
// platform and sweep-point keys are persisted (store/eval_store.hpp): their
// byte layout is pinned by test, because changing it cold-starts every
// existing store.

#include <cstdint>
#include <string>

#include "common/matrix.hpp"
#include "noc/analytical.hpp"
#include "power/noc_power.hpp"
#include "power/vf_table.hpp"
#include "sysmodel/platform.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {

class FullSystemSim;

/// NetworkEvaluator's key (persisted): the fidelity band, the built
/// interconnect, the offered traffic, the evaluation window, the NoC
/// simulator config, the NoC fault slice and the NoC energy constants.
std::string net_eval_key(const BuiltPlatform& platform,
                         const Matrix& node_traffic,
                         std::uint32_t packet_flits,
                         const PlatformParams& params,
                         const power::NocPowerModel& noc_power);

/// The per-platform analytical-model memo key (in memory only).
std::string analytical_model_key(const noc::AnalyticalConfig& config);

/// PlatformCache's key (persisted): the profile's design inputs plus the
/// design knobs.  Fidelity, windows, seeds other than the design's and
/// fault specs do not steer platform design, so one cached platform is
/// shared across every point of a sweep axis.
std::string platform_key(const workload::AppProfile& profile,
                         const PlatformParams& params,
                         const power::VfTable& table);

/// Content-addressed identity of one comparison sweep point (persisted):
/// every input that steers compare_systems(profile, sim, base_params) —
/// the profile's full workload content, every PlatformParams value field,
/// and the simulator's power-model parameters and V/F ladder.  A stored
/// result under this key is bit-identical to re-running the point.
std::string comparison_point_key(const workload::AppProfile& profile,
                                 const FullSystemSim& sim,
                                 const PlatformParams& base_params);

}  // namespace vfimr::sysmodel
