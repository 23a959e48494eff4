#pragma once
// NetworkEvaluator: NoC evaluation as a memoizable, multi-fidelity service
// (DESIGN.md §11 and §12).
//
// The phase-resolved pipeline evaluates up to four traffic matrices per
// (application, system) pair, and sweeps evaluate many such pairs in
// parallel.  Identical evaluations recur — LibInit and Merge share a
// traffic matrix by construction, and fault sweeps revisit the same clean
// baseline — so the evaluator memoizes results in a OnceCache
// (common/once_cache.hpp) under net_eval_key (sysmodel/keys.hpp): memory,
// then the optional disk tier (attach_store), then compute.  The key holds
// every input that can change the outcome, the fidelity band included, so
// a cached or stored result is bit-identical to a fresh run.  Tiers, key
// projections and counters: DESIGN.md §12 and §16.
//
// Telemetry: when the request carries a sink, the stats() counters are
// mirrored into `net_eval.cache_hits` / `net_eval.cache_misses`, the
// per-band `net_eval.{analytical,cycle}.cache_{hits,misses}`,
// `net_eval.disk_hits` / `net_eval.disk_misses`, `net_eval.promotions`
// and `store.bytes` (bytes moved to or from disk).  Cache hits do not
// re-emit the NoC trace events of the original run.

#include <atomic>
#include <cstdint>
#include <string>

#include "common/matrix.hpp"
#include "common/once_cache.hpp"
#include "power/noc_power.hpp"
#include "sysmodel/platform.hpp"

namespace vfimr::store {
class EvalStore;
}

namespace vfimr::sysmodel {

/// Drive `platform`'s NoC cycle-accurately with an explicit node x node
/// traffic matrix and measure latency and per-flit energy.  This is the
/// uncached cycle-accurate core; the phase-resolved pipeline calls it once
/// per phase matrix.  Ignores `params.fidelity`.
NetworkEval evaluate_network_traffic(const BuiltPlatform& platform,
                                     const Matrix& node_traffic,
                                     std::uint32_t packet_flits,
                                     const PlatformParams& params,
                                     const power::NocPowerModel& noc_power,
                                     const std::string& label = "noc");

/// Analytical-band twin of evaluate_network_traffic: same inputs, same
/// fault expansion and VFI clustering, same post-processing (pipeline
/// correction, energy per flit) — but the Metrics come from the hop-by-hop
/// M/D/1 model instead of the wormhole simulator.  Ignores
/// `params.fidelity`.
NetworkEval evaluate_network_analytical(const BuiltPlatform& platform,
                                        const Matrix& node_traffic,
                                        std::uint32_t packet_flits,
                                        const PlatformParams& params,
                                        const power::NocPowerModel& noc_power,
                                        const std::string& label = "noc");

/// Dispatch on `params.fidelity`: kCycleAccurate runs the simulator,
/// kAnalytical / kAuto run the analytical model.
NetworkEval evaluate_network_banded(const BuiltPlatform& platform,
                                    const Matrix& node_traffic,
                                    std::uint32_t packet_flits,
                                    const PlatformParams& params,
                                    const power::NocPowerModel& noc_power,
                                    const std::string& label = "noc");

class NetworkEvaluator {
 public:
  struct Stats {
    /// Totals across both bands (back-compat with pre-ladder callers).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Per-band split: analytical covers kAnalytical and kAuto requests.
    std::uint64_t analytical_hits = 0;
    std::uint64_t analytical_misses = 0;
    std::uint64_t cycle_hits = 0;
    std::uint64_t cycle_misses = 0;
    /// Frontier promotions recorded by sweep drivers (note_promotion).
    std::uint64_t promotions = 0;
    /// Disk tier (attach_store): memory misses resolved from / written to
    /// the persistent store.  Every disk miss is also a simulation, so
    /// `misses` keeps meaning "evaluations actually computed".
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_misses = 0;

    std::uint64_t total() const { return hits + disk_hits + misses; }
    double hit_rate() const {
      return total() > 0 ? static_cast<double>(hits + disk_hits) /
                               static_cast<double>(total())
                         : 0.0;
    }
  };

  /// Memoized evaluate_network_banded.  The first call for a key runs the
  /// evaluation in the band `params.fidelity` selects; later calls (from
  /// any thread) return the stored result.  The band is part of the key,
  /// so analytical and cycle-accurate evaluations of otherwise identical
  /// inputs occupy distinct entries.
  NetworkEval evaluate(const BuiltPlatform& platform,
                       const Matrix& node_traffic, std::uint32_t packet_flits,
                       const PlatformParams& params,
                       const power::NocPowerModel& noc_power,
                       const std::string& label = "noc");

  /// Record that a sweep driver promoted an analytically-explored point to
  /// a cycle-accurate confirmation run (mirrored into the
  /// `net_eval.promotions` telemetry counter when `sink` is non-null).
  void note_promotion(telemetry::TelemetrySink* sink = nullptr);

  /// Attach (or detach, with nullptr) the persistent disk tier.  The store
  /// is probed on memory misses and written on computes; it must outlive
  /// every evaluate() call.  Not thread-safe against concurrent evaluate()
  /// — attach before handing the evaluator to workers.
  void attach_store(store::EvalStore* store) { store_ = store; }
  store::EvalStore* store() const { return store_; }

  Stats stats() const {
    Stats s;
    s.analytical_hits = analytical_hits_.load(std::memory_order_relaxed);
    s.analytical_misses = analytical_misses_.load(std::memory_order_relaxed);
    s.cycle_hits = cycle_hits_.load(std::memory_order_relaxed);
    s.cycle_misses = cycle_misses_.load(std::memory_order_relaxed);
    s.hits = s.analytical_hits + s.cycle_hits;
    s.misses = s.analytical_misses + s.cycle_misses;
    s.promotions = promotions_.load(std::memory_order_relaxed);
    s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
    s.disk_misses = disk_misses_.load(std::memory_order_relaxed);
    return s;
  }

  /// Number of distinct evaluations stored.
  std::size_t size() const { return cache_.size(); }

  /// Drop all cached results (counters keep accumulating).
  void clear() { cache_.clear(); }

 private:
  OnceCache<NetworkEval> cache_;
  std::atomic<std::uint64_t> analytical_hits_{0};
  std::atomic<std::uint64_t> analytical_misses_{0};
  std::atomic<std::uint64_t> cycle_hits_{0};
  std::atomic<std::uint64_t> cycle_misses_{0};
  std::atomic<std::uint64_t> promotions_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_misses_{0};
  store::EvalStore* store_ = nullptr;
};

}  // namespace vfimr::sysmodel
