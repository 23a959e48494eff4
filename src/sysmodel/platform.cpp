#include "sysmodel/platform.hpp"

#include <optional>

#include "common/require.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/keys.hpp"
#include "sysmodel/net_eval.hpp"
#include "winoc/thread_mapping.hpp"

namespace vfimr::sysmodel {

std::string telemetry_label(const workload::AppProfile& profile,
                            const PlatformParams& params) {
  if (!params.telemetry_label.empty()) return params.telemetry_label;
  return profile.name() + " / " + system_name(params.kind);
}

std::string system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNvfiMesh:
      return "NVFI Mesh";
    case SystemKind::kVfiMesh:
      return "VFI Mesh";
    case SystemKind::kVfiWinoc:
      return "VFI WiNoC";
  }
  VFIMR_REQUIRE(false);
  return {};
}

std::string fidelity_name(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kCycleAccurate:
      return "cycle";
    case Fidelity::kAnalytical:
      return "analytical";
    case Fidelity::kAuto:
      return "auto";
  }
  VFIMR_REQUIRE(false);
  return {};
}

bool parse_fidelity(const std::string& name, Fidelity& out) {
  if (name == "cycle") {
    out = Fidelity::kCycleAccurate;
  } else if (name == "analytical") {
    out = Fidelity::kAnalytical;
  } else if (name == "auto") {
    out = Fidelity::kAuto;
  } else {
    return false;
  }
  return true;
}

BuiltPlatform build_platform(const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::VfTable& table,
                             const vfi::VfiDesign* precomputed) {
  VFIMR_REQUIRE_MSG(profile.threads == 64,
                    "platform construction targets the 8x8 die");
  BuiltPlatform built;

  if (params.kind == SystemKind::kNvfiMesh) {
    // Baseline: all cores at f_max on the mesh.  The baseline also gets a
    // locality-optimized thread mapping (SA over quadrant blocks) so the
    // NVFI-vs-VFI comparison isolates the VFI/interconnect effects rather
    // than penalizing the baseline with a naive placement.
    built.topology = noc::make_mesh(8, 8);
    built.routing = std::make_unique<noc::XyRouting>(built.topology.graph, 8, 8);
    std::vector<std::size_t> blocks(64);
    for (std::size_t t = 0; t < 64; ++t) blocks[t] = t / 16;
    Rng rng{params.smallworld.seed};
    built.thread_to_node =
        winoc::map_threads_min_hop(profile.traffic, blocks, rng);
    built.node_traffic =
        winoc::map_traffic(profile.traffic, built.thread_to_node, 64);
    return built;
  }

  // VFI systems share the Fig. 3 design flow (skipped when the caller
  // supplies a stored design — see the header contract).
  built.has_vfi = true;
  built.vfi = precomputed != nullptr
                  ? *precomputed
                  : vfi::design_vfi(profile.utilization, profile.traffic,
                                    profile.master_threads, table, params.vfi);

  if (params.kind == SystemKind::kVfiMesh) {
    Rng rng{params.smallworld.seed};
    built.topology = noc::make_mesh(8, 8);
    built.routing = std::make_unique<noc::XyRouting>(built.topology.graph, 8, 8);
    built.thread_to_node =
        winoc::map_threads_min_hop(profile.traffic, built.vfi.assignment, rng);
    built.node_traffic =
        winoc::map_traffic(profile.traffic, built.thread_to_node, 64);
    return built;
  }

  // VFI WiNoC.
  winoc::WinocDesign design = winoc::build_winoc(
      profile.traffic, built.vfi.assignment, params.placement,
      params.smallworld);
  built.topology = std::move(design.topology);
  built.wireless = std::move(design.wireless);
  built.thread_to_node = std::move(design.thread_to_node);
  built.node_traffic = std::move(design.node_traffic);
  built.wi_count = built.wireless.interfaces.size();
  built.routing = std::make_unique<noc::UpDownRouting>(built.topology.graph, 2.0);
  return built;
}

std::shared_ptr<const BuiltPlatform> PlatformCache::get(
    const workload::AppProfile& profile, const PlatformParams& params,
    const power::VfTable& table) {
  const std::string key = platform_key(profile, params, table);
  // NVFI platforms skip the disk tier: their construction has no expensive
  // design to save, and kind is in the key so they can never collide with
  // a stored VFI design.
  store::EvalStore* const st =
      params.kind != SystemKind::kNvfiMesh ? store_ : nullptr;
  std::string store_key;  // set by load, reused by save
  const auto load = [&]() -> std::optional<Platform> {
    if (st == nullptr) return std::nullopt;
    store_key = store::domain_key(store::KeyDomain::kPlatformDesign, key);
    std::string bytes;
    vfi::VfiDesign design;
    if (!st->get(store_key, bytes) ||
        !store::decode_vfi_design(bytes, design)) {
      return std::nullopt;
    }
    return std::make_shared<const BuiltPlatform>(
        build_platform(profile, params, table, &design));
  };
  const auto compute = [&] {
    return std::make_shared<const BuiltPlatform>(
        build_platform(profile, params, table));
  };
  const auto save = [&](const Platform& built) {
    if (st != nullptr) st->put(store_key, store::encode_vfi_design(built->vfi));
  };
  auto [platform, tier] = cache_.get(key, load, compute, save);

  // `misses()` keeps meaning "design flows actually run".
  if (tier == CacheTier::kMemory) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (tier == CacheTier::kDisk) {
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (st != nullptr) disk_misses_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::move(platform);
}

NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power) {
  // The uncached core lives in net_eval.cpp so the memoizing
  // NetworkEvaluator and this whole-run convenience wrapper share one
  // implementation.
  return evaluate_network_banded(platform, platform.node_traffic,
                                 profile.packet_flits, params, noc_power,
                                 telemetry_label(profile, params));
}

}  // namespace vfimr::sysmodel
