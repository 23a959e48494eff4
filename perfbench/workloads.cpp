#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>

#include "cluster/arrivals.hpp"
#include "cluster/fleet_faults.hpp"
#include "cluster/service.hpp"
#include "cluster/serving.hpp"
#include "common/json_lite.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "faults/faults.hpp"
#include "mapreduce/apps/histogram.hpp"
#include "mapreduce/apps/wordcount.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "sysmodel/figures.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "winoc/thread_mapping.hpp"
#include "workload/profile.hpp"

namespace perfbench {
namespace {

using namespace vfimr;
namespace fs = std::filesystem;
using sysmodel::SystemKind;

constexpr std::array<SystemKind, 3> kKinds = {
    SystemKind::kNvfiMesh, SystemKind::kVfiMesh, SystemKind::kVfiWinoc};

// ---------------------------------------------------------------- inputs

std::vector<workload::AppProfile> make_profiles(const Config& cfg) {
  workload::ProfileParams pp;
  pp.seed = cfg.seed;
  std::vector<workload::AppProfile> profiles;
  if (cfg.tiny) {
    for (workload::App a : {workload::App::kHist, workload::App::kKmeans}) {
      profiles.push_back(workload::make_profile(a, pp));
    }
  } else {
    for (workload::App a : workload::kAllApps) {
      profiles.push_back(workload::make_profile(a, pp));
    }
  }
  return profiles;
}

sysmodel::PlatformParams base_params(const Config& cfg) {
  sysmodel::PlatformParams p;
  // The default seed keeps PlatformParams' own traffic seed (99), so the
  // default-seed Fig. 8 is the committed golden one.
  p.traffic_seed ^= cfg.seed ^ kDefaultSeed;
  if (cfg.tiny) {
    p.sim_cycles = 6'000;
    p.drain_cycles = 30'000;
  }
  return p;
}

std::uint64_t digest_profiles(const std::vector<workload::AppProfile>& ps) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& p : ps) {
    h = fnv1a(p.utilization.data(), p.utilization.size() * sizeof(double), h);
    h = fnv1a(p.traffic.data().data(), p.traffic.data().size() * sizeof(double),
              h);
  }
  return h;
}

fs::path fresh_dir(const Config& cfg, const std::string& name) {
  const fs::path dir = fs::path{cfg.work_dir} / name;
  fs::remove_all(dir);
  return dir;
}

bool finite_positive(double v) { return std::isfinite(v) && v > 0.0; }

bool sane(const sysmodel::SystemComparison& c) {
  for (const auto* r : {&c.nvfi_mesh, &c.vfi_mesh, &c.vfi_winoc}) {
    if (!finite_positive(r->edp_js()) || !finite_positive(r->exec_s)) {
      return false;
    }
  }
  return true;
}

// ------------------------------------------------------ traced layer calls

/// A platform request of a traced set that ran the VFI design flow: its
/// time covers the design flow and the interconnect build together.
struct DesignFlow {
  const workload::AppProfile* profile;
  sysmodel::PlatformParams params;
  std::shared_ptr<const sysmodel::BuiltPlatform> platform;
  double seconds;
};

/// Resolves `params`' platform through its PlatformCache as a direct layer
/// call.  The cache must be private to the calling thread, so its counter
/// deltas say which tier served the request.  A request that ran the design
/// flow goes to `flows`, for split_design_flows().  A design read from the
/// store is charged, with its rebuild, to the platform layer.
void platform_by_layer(const workload::AppProfile& profile,
                       const sysmodel::FullSystemSim& sim,
                       const sysmodel::PlatformParams& params, Ledger& ledger,
                       std::vector<DesignFlow>& flows) {
  sysmodel::PlatformCache& cache = *params.platform_cache;
  const std::uint64_t misses = cache.misses();
  const std::uint64_t disk_hits = cache.disk_hits();
  const auto t0 = Clock::now();
  const auto platform = cache.get(profile, params, sim.vf_table());
  const double total = seconds_since(t0);
  const bool built = cache.misses() > misses || cache.disk_hits() > disk_hits;
  if (built) ledger.add("platform.builds", 1);
  if (cache.misses() == misses || !platform->has_vfi) {
    ledger.add("platform.build_s", total);
    return;
  }
  sysmodel::PlatformParams p = params;  // the caches may not outlive the set
  p.net_eval = nullptr;
  p.platform_cache = nullptr;
  flows.push_back({&profile, p, platform, total});
}

/// Splits each design flow from its interconnect build by rebuilding the
/// platform around the finished design.  Called after a traced set's wall
/// clock has stopped: the rebuild is a measurement, not work of the set.
void split_design_flows(const std::vector<DesignFlow>& flows,
                        const sysmodel::FullSystemSim& sim, Ledger& ledger) {
  for (const DesignFlow& f : flows) {
    const auto t0 = Clock::now();
    const sysmodel::BuiltPlatform rebuilt = sysmodel::build_platform(
        *f.profile, f.params, sim.vf_table(), &f.platform->vfi);
    const double build = seconds_since(t0);
    ledger.add("platform.build_s", build);
    ledger.add("vfi.design_s", std::max(0.0, f.seconds - build));
    ledger.add("vfi.designs", 1);
  }
}

/// A network evaluation produced by a traced run, kept for the store layer.
struct NetRecord {
  std::string key;
  sysmodel::NetworkEval eval;
};

/// FullSystemSim::run(profile, params, baselines) as direct layer calls:
/// each phase's network evaluation through params.net_eval (the same
/// requests, in the same order, that run() makes), then run() itself
/// against the now-warm caches, which leaves the task simulator and power
/// accounting.  The platform must already be resolved (platform_by_layer).
/// The evaluation time is charged to the store when the evaluator reads a
/// store, else to the band's layer.  Cycle-accurate simulations are
/// counted by the evaluator's cycle-miss delta, so no other thread may run
/// cycle-accurate evaluations on the same evaluator concurrently.
sysmodel::SystemReport run_by_layer(const workload::AppProfile& profile,
                                    const sysmodel::FullSystemSim& sim,
                                    const sysmodel::PlatformParams& params,
                                    const sysmodel::PhaseBaselines& baselines,
                                    Ledger& ledger,
                                    std::vector<NetRecord>* records = nullptr) {
  const auto platform =
      params.platform_cache->get(profile, params, sim.vf_table());
  sysmodel::NetworkEvaluator& evaluator = *params.net_eval;
  const char* layer = evaluator.store() != nullptr ? "store.get_s"
                      : sysmodel::analytical_band(params.fidelity)
                          ? "analytical.eval_s"
                          : "noc.eval_s";
  auto evaluate = [&](const Matrix& traffic,
                      const sysmodel::PlatformParams& p,
                      const std::string& label) {
    const std::uint64_t before = evaluator.stats().cycle_misses;
    const auto t0 = Clock::now();
    sysmodel::NetworkEval eval = evaluator.evaluate(
        *platform, traffic, profile.packet_flits, p, sim.models().noc, label);
    ledger.add(layer, seconds_since(t0));
    if (evaluator.stats().cycle_misses > before) {
      ledger.add("noc.router_cycles",
                 static_cast<double>(eval.metrics.cycles) *
                     static_cast<double>(platform->topology.node_count()));
      ledger.add("noc.flits", static_cast<double>(eval.metrics.flits_ejected));
    }
    if (records != nullptr) {
      std::string key = profile.name() + "/" + sysmodel::system_name(p.kind) +
                        "/" + std::to_string(p.sim_cycles) + "/";
      key.append(reinterpret_cast<const char*>(traffic.data().data()),
                 traffic.data().size() * sizeof(double));
      records->push_back({std::move(key), std::move(eval)});
    }
  };
  if (!profile.phase_resolved()) {
    evaluate(platform->node_traffic, params,
             sysmodel::telemetry_label(profile, params));
  } else {
    sysmodel::PlatformParams phase_params = params;
    phase_params.sim_cycles = std::max<noc::Cycle>(
        1, static_cast<noc::Cycle>(static_cast<double>(params.sim_cycles) *
                                   params.phase_window_scale));
    for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
      if (profile.phase_weight[p] <= 0.0) continue;
      evaluate(winoc::map_traffic(profile.phase_traffic[p],
                                  platform->thread_to_node,
                                  platform->node_traffic.rows()),
               phase_params, std::string{});
    }
  }
  const auto t0 = Clock::now();
  sysmodel::SystemReport report = sim.run(profile, params, baselines);
  ledger.add("system.run_s", seconds_since(t0));
  ledger.add("system.runs", 1);
  return report;
}

/// compare_systems(profile, sim, params) as direct layer calls, on the
/// caller's private PlatformCache / NetworkEvaluator.
sysmodel::SystemComparison compare_by_layer(
    const workload::AppProfile& profile, const sysmodel::FullSystemSim& sim,
    sysmodel::PlatformParams params, Ledger& ledger,
    std::vector<DesignFlow>& flows, std::vector<NetRecord>* records = nullptr) {
  for (SystemKind kind : kKinds) {
    params.kind = kind;
    platform_by_layer(profile, sim, params, ledger, flows);
  }
  sysmodel::SystemComparison cmp;
  params.kind = SystemKind::kNvfiMesh;
  cmp.nvfi_mesh = run_by_layer(profile, sim, params, {}, ledger, records);
  const sysmodel::PhaseBaselines baselines =
      sysmodel::phase_baselines(cmp.nvfi_mesh);
  params.kind = SystemKind::kVfiMesh;
  cmp.vfi_mesh = run_by_layer(profile, sim, params, baselines, ledger, records);
  params.kind = SystemKind::kVfiWinoc;
  cmp.vfi_winoc =
      run_by_layer(profile, sim, params, baselines, ledger, records);
  return cmp;
}

void add_evaluator_counts(const sysmodel::NetworkEvaluator& evaluator,
                          Ledger& ledger) {
  const auto s = evaluator.stats();
  ledger.add("net_eval.hits", static_cast<double>(s.hits));
  ledger.add("net_eval.misses", static_cast<double>(s.misses));
  ledger.add("net_eval.disk_hits", static_cast<double>(s.disk_hits));
  ledger.add("net_eval.lookups", static_cast<double>(s.total()));
  ledger.add("net_eval.served", static_cast<double>(s.hits + s.disk_hits));
  ledger.add("net_eval.promotions", static_cast<double>(s.promotions));
  ledger.add("noc.evals", static_cast<double>(s.cycle_misses));
  ledger.add("analytical.evals", static_cast<double>(s.analytical_misses));
}

void add_platform_counts(const sysmodel::PlatformCache& cache,
                         Ledger& ledger) {
  ledger.add("platform_cache.hits", static_cast<double>(cache.hits()));
  ledger.add("platform_cache.misses", static_cast<double>(cache.misses()));
}

void add_store_counts(const store::EvalStore& st, Ledger& ledger) {
  const store::StoreStats s = st.stats();
  ledger.add("store.gets", static_cast<double>(s.hits + s.misses));
  ledger.add("store.get_hits", static_cast<double>(s.hits));
  ledger.add("store.bytes_read", static_cast<double>(s.bytes_read));
  ledger.add("store.bytes_written", static_cast<double>(s.bytes_written));
}

/// Times the codec decode of the workload's own records.
void time_decode(const std::vector<std::string>& evals,
                 const std::vector<std::string>& designs, Ledger& ledger) {
  const auto t0 = Clock::now();
  sysmodel::NetworkEval eval;
  vfi::VfiDesign design;
  bool ok = true;
  for (const std::string& bytes : evals) {
    ok = store::decode_network_eval(bytes, eval) && ok;
  }
  for (const std::string& bytes : designs) {
    ok = store::decode_vfi_design(bytes, design) && ok;
  }
  ledger.add("store.decode_s", seconds_since(t0));
  if (!ok) throw std::runtime_error("store codec failed to decode a record");
}

// -------------------------------------------------------------- workloads

/// Shared state and checks of the two Fig. 8 workloads.
class Fig8Base : public Workload {
 public:
  explicit Fig8Base(Config cfg) : cfg_{std::move(cfg)} {}

  std::size_t ops_per_set() const override { return profiles_.size(); }
  std::uint64_t input_digest() const override {
    return digest_profiles(profiles_);
  }

 protected:
  void make_inputs() {
    profiles_ = make_profiles(cfg_);
    params_ = base_params(cfg_);
  }

  /// One Fig. 8 sweep over the store in `dir` with fresh in-memory caches.
  std::vector<sysmodel::SystemComparison> sweep(
      const fs::path& dir, sysmodel::NetworkEvaluator& evaluator,
      sysmodel::PlatformCache& platforms, Ledger* counts = nullptr) const {
    store::EvalStore st{dir.string()};
    evaluator.attach_store(&st);
    platforms.attach_store(&st);
    sysmodel::PlatformParams p = params_;
    p.net_eval = &evaluator;
    p.platform_cache = &platforms;
    auto cmp = sysmodel::sweep_comparisons(profiles_, sim_, p, cfg_.threads);
    st.flush();
    evaluator.attach_store(nullptr);
    platforms.attach_store(nullptr);
    if (counts != nullptr) {
      add_evaluator_counts(evaluator, *counts);
      add_platform_counts(platforms, *counts);
      add_store_counts(st, *counts);
      // Every disk miss of either tier writes its result back.
      counts->add("store.puts",
                  static_cast<double>(evaluator.stats().disk_misses +
                                      platforms.disk_misses()));
    }
    return cmp;
  }

  /// Per-point check against `reference` (bit-identical encodings) plus
  /// sanity; `all_bad` fails every point.
  OpResult check_points(const std::vector<sysmodel::SystemComparison>& cmp,
                        const std::vector<std::string>& reference,
                        bool all_bad) const {
    OpResult r;
    r.attempted = profiles_.size();
    for (std::size_t i = 0; i < profiles_.size(); ++i) {
      const bool ok = !all_bad && i < cmp.size() && sane(cmp[i]) &&
                      i < reference.size() &&
                      store::encode_system_comparison(cmp[i]) == reference[i];
      if (!ok) ++r.failed;
    }
    return r;
  }

  /// Simulated Fig. 8 summary, printed beside the paper's figures (33.7 %
  /// average and 66.2 % maximum VFI-WiNoC EDP saving, 3.22 % maximum
  /// execution-time penalty) for orientation only; nothing is gated on it.
  static void add_summary(const std::vector<sysmodel::SystemComparison>& cmp,
                          Samples& samples) {
    double sum = 0.0;
    double best = 0.0;
    double penalty = 0.0;
    for (const auto& c : cmp) {
      const double saving = 1.0 - c.vfi_winoc.edp_js() / c.nvfi_mesh.edp_js();
      sum += saving;
      best = std::max(best, saving);
      penalty =
          std::max(penalty, c.vfi_winoc.exec_s / c.nvfi_mesh.exec_s - 1.0);
    }
    samples.add("winoc_edp_saving_avg", "frac",
                sum / static_cast<double>(cmp.size()));
    samples.add("winoc_edp_saving_max", "frac", best);
    samples.add("winoc_exec_penalty_max", "frac", penalty);
  }

  static std::vector<std::string> encode_all(
      const std::vector<sysmodel::SystemComparison>& cmp) {
    std::vector<std::string> out;
    for (const auto& c : cmp) out.push_back(store::encode_system_comparison(c));
    return out;
  }

  Config cfg_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  sysmodel::PlatformParams params_;
};

/// Cold Fig. 8: six apps x three systems, cycle-accurate at the paper's
/// windows, with fresh caches writing into an empty evaluation store.
class Fig8Cold final : public Fig8Base {
 public:
  using Fig8Base::Fig8Base;
  const char* op_name() const override { return "sweep_s"; }

  void setup(Samples&) override { make_inputs(); }

  Op run(Samples& samples, Ledger* counts) override {
    const fs::path dir = fresh_dir(cfg_, "fig8-store");
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    const auto t0 = Clock::now();
    const auto cmp = sweep(dir, evaluator, platforms, counts);
    Op op;
    op.seconds = seconds_since(t0);
    fs::remove_all(dir);
    const auto stats = evaluator.stats();
    const std::array<std::uint64_t, 3> work = {stats.hits, stats.misses,
                                               platforms.misses()};
    if (reference_.empty()) {
      reference_ = encode_all(cmp);
      work_ = work;
      golden_bad_ = !golden_ok(cmp);
      add_summary(cmp, samples);
    }
    static_cast<OpResult&>(op) =
        check_points(cmp, reference_, golden_bad_ || work != work_);
    return op;
  }

  Op run_traced(Ledger& ledger) override {
    if (reference_.empty()) throw std::logic_error("traced before untraced");
    const std::size_t n = profiles_.size();
    std::vector<sysmodel::SystemComparison> cmp(n);
    std::vector<std::vector<NetRecord>> records(n);
    std::vector<std::vector<vfi::VfiDesign>> designs(n);
    std::vector<std::vector<DesignFlow>> flows(n);
    const auto t0 = Clock::now();
    std::vector<std::uint64_t> simulated(n, 0);
    parallel_for(n, cfg_.threads, [&](std::size_t a) {
      sysmodel::NetworkEvaluator evaluator;
      sysmodel::PlatformCache platforms;
      sysmodel::PlatformParams p = params_;
      p.net_eval = &evaluator;
      p.platform_cache = &platforms;
      cmp[a] = compare_by_layer(profiles_[a], sim_, p, ledger, flows[a],
                                &records[a]);
      designs[a] = {cmp[a].vfi_mesh.vfi, cmp[a].vfi_winoc.vfi};
      simulated[a] = evaluator.stats().misses;
    });
    store_layer(records, designs, ledger);
    Op op;
    op.seconds = seconds_since(t0);
    parallel_for(n, cfg_.threads, [&](std::size_t a) {
      split_design_flows(flows[a], sim_, ledger);
    });
    // The traced run must simulate exactly what the untraced sweep did.
    std::uint64_t total = 0;
    for (std::uint64_t m : simulated) total += m;
    static_cast<OpResult&>(op) =
        check_points(cmp, reference_, total != work_[1]);
    return op;
  }

 private:
  /// The store writes of the cold pass, made explicitly with the
  /// workload's own records: open an empty store, encode and put every
  /// distinct network evaluation and VFI design, flush, and decode them
  /// back.
  void store_layer(const std::vector<std::vector<NetRecord>>& records,
                   const std::vector<std::vector<vfi::VfiDesign>>& designs,
                   Ledger& ledger) const {
    const fs::path dir = fresh_dir(cfg_, "fig8-traced-store");
    {
      auto t0 = Clock::now();
      store::EvalStore st{dir.string()};
      ledger.add("store.open_s", seconds_since(t0));
      std::map<std::string, const sysmodel::NetworkEval*> unique;
      for (const auto& per_app : records) {
        for (const NetRecord& r : per_app) unique.emplace(r.key, &r.eval);
      }
      std::vector<std::string> evals;
      std::vector<std::string> encoded_designs;
      t0 = Clock::now();
      for (const auto& [key, eval] : unique) {
        evals.push_back(store::encode_network_eval(*eval));
        st.put(store::domain_key(store::KeyDomain::kNetworkEval, key),
               evals.back());
      }
      for (std::size_t a = 0; a < designs.size(); ++a) {
        for (std::size_t k = 0; k < designs[a].size(); ++k) {
          encoded_designs.push_back(store::encode_vfi_design(designs[a][k]));
          st.put(store::domain_key(store::KeyDomain::kPlatformDesign,
                                   profiles_[a].name() + std::to_string(k)),
                 encoded_designs.back());
        }
      }
      ledger.add("store.put_s", seconds_since(t0));
      t0 = Clock::now();
      st.flush();
      ledger.add("store.flush_s", seconds_since(t0));
      time_decode(evals, encoded_designs, ledger);
    }
    fs::remove_all(dir);
  }

  /// The committed golden bands, checked on the default seed at full size
  /// with the tolerance of tests/test_golden_figures.cpp.
  bool golden_ok(const std::vector<sysmodel::SystemComparison>& cmp) const {
    if (cfg_.tiny || cfg_.seed != kDefaultSeed) return true;
    const json::MetricMap golden = json::load_file(cfg_.golden_path);
    if (golden.empty()) return false;
    sysmodel::FigureData data{profiles_, cmp};
    const json::MetricMap actual = sysmodel::extract_metrics(data).fig8;
    for (const auto& [key, value] : golden) {
      const auto it = actual.find(key);
      if (it == actual.end()) return false;
      if (std::abs(it->second - value) > 1e-9 + 5e-3 * std::abs(value)) {
        return false;
      }
    }
    return true;
  }

  std::vector<std::string> reference_;
  /// Evaluator hits and simulations, and design flows, of the first set.
  std::array<std::uint64_t, 3> work_{};
  bool golden_bad_ = false;
};

/// Warm Fig. 8: replays the sweep with fresh in-memory caches over the
/// store a cold pass wrote in set-up; every network evaluation and VFI
/// design is a disk hit and nothing is simulated.
class Fig8Warm final : public Fig8Base {
 public:
  using Fig8Base::Fig8Base;
  const char* op_name() const override { return "replay_s"; }

  void setup(Samples& setup_samples) override {
    make_inputs();
    dir_ = fresh_dir(cfg_, "fig8-warm-store");
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    const auto cmp = sweep(dir_, evaluator, platforms);
    reference_ = encode_all(cmp);
    add_summary(cmp, setup_samples);
  }

  Op run(Samples&, Ledger* counts) override {
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    const auto t0 = Clock::now();
    const auto cmp = sweep(dir_, evaluator, platforms, counts);
    Op op;
    op.seconds = seconds_since(t0);
    static_cast<OpResult&>(op) = check_points(
        cmp, reference_, !disk_served(evaluator, platforms, profiles_.size()));
    return op;
  }

  Op run_traced(Ledger& ledger) override {
    const std::size_t n = profiles_.size();
    std::vector<sysmodel::SystemComparison> cmp(n);
    bool served = true;
    const auto t0 = Clock::now();
    {
      const auto t_open = Clock::now();
      store::EvalStore st{dir_.string()};
      ledger.add("store.open_s", seconds_since(t_open));
      std::vector<std::uint8_t> app_served(n, 0);
      parallel_for(n, cfg_.threads, [&](std::size_t a) {
        sysmodel::NetworkEvaluator evaluator;
        sysmodel::PlatformCache platforms;
        evaluator.attach_store(&st);
        platforms.attach_store(&st);
        sysmodel::PlatformParams p = params_;
        p.net_eval = &evaluator;
        p.platform_cache = &platforms;
        std::vector<DesignFlow> flows;  // stays empty: designs come off disk
        cmp[a] = compare_by_layer(profiles_[a], sim_, p, ledger, flows);
        app_served[a] = disk_served(evaluator, platforms, 1) ? 1 : 0;
      });
      served = std::all_of(app_served.begin(), app_served.end(),
                           [](std::uint8_t v) { return v != 0; });
    }
    Op op;
    op.seconds = seconds_since(t0);
    // Codec share of the reads: decode the records this replay read.
    std::vector<std::string> evals;
    std::vector<std::string> designs;
    for (const auto& c : cmp) {
      for (const auto* r : {&c.nvfi_mesh, &c.vfi_mesh, &c.vfi_winoc}) {
        for (const auto& pr : r->phase_results) {
          if (pr.evaluated) evals.push_back(store::encode_network_eval(pr.net));
        }
        if (r->has_vfi) designs.push_back(store::encode_vfi_design(r->vfi));
      }
    }
    time_decode(evals, designs, ledger);
    static_cast<OpResult&>(op) = check_points(cmp, reference_, !served);
    return op;
  }

 private:
  /// Zero simulations and zero design flows over `apps` apps: every
  /// evaluation and every VFI design came off disk.
  static bool disk_served(const sysmodel::NetworkEvaluator& evaluator,
                          const sysmodel::PlatformCache& platforms,
                          std::size_t apps) {
    const auto s = evaluator.stats();
    return s.misses == 0 && s.disk_misses == 0 && s.disk_hits > 0 &&
           platforms.disk_misses() == 0 && platforms.disk_hits() == 2 * apps;
  }

  fs::path dir_;
  std::vector<std::string> reference_;
};

/// Auto-fidelity design-space sweep: per app, 3 systems x synchronizer
/// depth 1..8, explored in the analytical band with the best point
/// confirmed cycle-accurately.  The VFI designs come from set-up (an
/// in-process store tier), so each operation rebuilds its platforms and
/// analytical models but runs no simulated annealing.
class DseAuto final : public Workload {
 public:
  explicit DseAuto(Config cfg) : cfg_{std::move(cfg)} {}
  const char* op_name() const override { return "auto_s"; }
  std::size_t ops_per_set() const override {
    return profiles_.size() * depths() * kKinds.size();
  }
  std::uint64_t input_digest() const override {
    return digest_profiles(profiles_);
  }

  void setup(Samples&) override {
    profiles_ = make_profiles(cfg_);
    params_ = base_params(cfg_);
    params_.fidelity = sysmodel::Fidelity::kAuto;
    designs_ = std::make_unique<store::EvalStore>(
        fresh_dir(cfg_, "dse-designs").string());
    sysmodel::PlatformCache warm;
    warm.attach_store(designs_.get());
    parallel_for(profiles_.size() * kKinds.size(), cfg_.threads,
                 [&](std::size_t i) {
                   sysmodel::PlatformParams p = params_;
                   p.kind = kKinds[i % kKinds.size()];
                   warm.get(profiles_[i / kKinds.size()], p, sim_.vf_table());
                 });
  }

  Op run(Samples& samples, Ledger* counts) override {
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    platforms.attach_store(designs_.get());
    std::vector<sysmodel::DesignSpaceResult> results;
    const auto t0 = Clock::now();
    for (const auto& profile : profiles_) {
      results.push_back(sysmodel::sweep_design_space(
          profile, sim_, space(evaluator, platforms), 1, cfg_.threads));
    }
    Op op;
    op.seconds = seconds_since(t0);
    static_cast<OpResult&>(op) = check(results, evaluator);
    samples.add("auto_edp_err", "frac", edp_err(results));
    if (counts != nullptr) {
      add_evaluator_counts(evaluator, *counts);
      add_platform_counts(platforms, *counts);
      counts->add("sweep.promotions",
                  static_cast<double>(evaluator.stats().promotions));
      counts->add("sweep.auto_edp_err", edp_err(results));
      // Platforms are fresh per operation, so every analytical model they
      // hold was built by this one.
      for (const auto& profile : profiles_) {
        for (SystemKind kind : kKinds) {
          sysmodel::PlatformParams p = params_;
          p.kind = kind;
          counts->add("analytical.model_builds",
                      static_cast<double>(
                          platforms.get(profile, p, sim_.vf_table())
                              ->analytical_models->size()));
        }
      }
    }
    return op;
  }

  Op run_traced(Ledger& ledger) override {
    sysmodel::NetworkEvaluator evaluator;
    sysmodel::PlatformCache platforms;
    platforms.attach_store(designs_.get());
    std::vector<sysmodel::DesignSpaceResult> results;
    std::vector<DesignFlow> flows;
    const auto t0 = Clock::now();
    for (const auto& profile : profiles_) {
      results.push_back(
          sweep_by_layer(profile, space(evaluator, platforms), ledger, flows));
    }
    Op op;
    op.seconds = seconds_since(t0);
    split_design_flows(flows, sim_, ledger);
    static_cast<OpResult&>(op) = check(results, evaluator);
    return op;
  }

 private:
  std::size_t depths() const { return cfg_.tiny ? 2 : 8; }

  std::vector<sysmodel::SweepPoint> space(
      sysmodel::NetworkEvaluator& evaluator,
      sysmodel::PlatformCache& platforms) const {
    std::vector<sysmodel::SweepPoint> points;
    for (SystemKind kind : kKinds) {
      for (std::uint32_t sync = 1; sync <= depths(); ++sync) {
        sysmodel::SweepPoint pt;
        pt.label = sysmodel::system_name(kind) + "/sync" + std::to_string(sync);
        pt.params = params_;
        pt.params.kind = kind;
        pt.params.noc_sim.sync_penalty_cycles = sync;
        pt.params.net_eval = &evaluator;
        pt.params.platform_cache = &platforms;
        points.push_back(std::move(pt));
      }
    }
    return points;
  }

  /// sweep_design_space(profile, sim, points, 1, threads) as direct layer
  /// calls: the analytical NVFI baseline and the parallel exploration,
  /// then the cycle-accurate NVFI baseline and the promotion of the best
  /// explored point.  Exploration and promotion are timed as wall-clock
  /// stages of the sweep.
  sysmodel::DesignSpaceResult sweep_by_layer(
      const workload::AppProfile& profile,
      const std::vector<sysmodel::SweepPoint>& points, Ledger& ledger,
      std::vector<DesignFlow>& flows) const {
    for (std::size_t k = 0; k < kKinds.size(); ++k) {
      platform_by_layer(profile, sim_, points[k * depths()].params, ledger,
                        flows);
    }
    sysmodel::DesignSpaceResult out;
    out.points.resize(points.size());
    auto t0 = Clock::now();
    sysmodel::PlatformParams base = points.front().params;
    base.kind = SystemKind::kNvfiMesh;
    base.fidelity = sysmodel::Fidelity::kAnalytical;
    const sysmodel::PhaseBaselines analytical_baseline =
        sysmodel::phase_baselines(
            run_by_layer(profile, sim_, base, {}, ledger));
    parallel_for(points.size(), cfg_.threads, [&](std::size_t i) {
      out.points[i].label = points[i].label;
      out.points[i].explored = run_by_layer(profile, sim_, points[i].params,
                                            analytical_baseline, ledger);
    });
    ledger.add("sweep.explore_wall_s", seconds_since(t0));

    t0 = Clock::now();
    base.fidelity = sysmodel::Fidelity::kCycleAccurate;
    const sysmodel::PhaseBaselines cycle_baseline =
        sysmodel::phase_baselines(
            run_by_layer(profile, sim_, base, {}, ledger));
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return out.points[a].explored.edp_js() <
                              out.points[b].explored.edp_js();
                     });
    out.argmin_explored = order.front();
    const std::size_t best = order.front();
    sysmodel::PlatformParams confirm = points[best].params;
    confirm.fidelity = sysmodel::Fidelity::kCycleAccurate;
    out.points[best].confirmed =
        run_by_layer(profile, sim_, confirm, cycle_baseline, ledger);
    out.points[best].promoted = true;
    points.front().params.net_eval->note_promotion();
    out.promotions = 1;
    out.argmin_confirmed = best;
    ledger.add("sweep.promote_wall_s", seconds_since(t0));
    return out;
  }

  /// Mean |explored - confirmed| / confirmed EDP over promoted points.
  static double edp_err(const std::vector<sysmodel::DesignSpaceResult>& rs) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto& r : rs) {
      for (const auto& pt : r.points) {
        if (!pt.promoted) continue;
        sum += std::abs(pt.explored.edp_js() - pt.confirmed.edp_js()) /
               pt.confirmed.edp_js();
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  }

  /// Every explored point (and each app's confirmation) bit-identical to
  /// the first operation's, and the promotion counters consistent.
  OpResult check(const std::vector<sysmodel::DesignSpaceResult>& results,
                 const sysmodel::NetworkEvaluator& evaluator) {
    const auto s = evaluator.stats();
    // Simulations and promotions; hits differ in the traced sets, which
    // look every evaluation up twice.
    const std::array<std::uint64_t, 3> counts = {
        s.analytical_misses, s.cycle_misses, s.promotions};
    const bool counters_ok =
        s.analytical_hits + s.cycle_hits == s.hits &&
        s.analytical_misses + s.cycle_misses == s.misses &&
        s.promotions == profiles_.size() && s.cycle_misses > 0 &&
        s.analytical_misses > 0;
    std::vector<std::string> encoded;
    for (const auto& r : results) {
      for (const auto& pt : r.points) {
        encoded.push_back(store::encode_system_report(pt.explored));
        encoded.push_back(pt.promoted
                              ? store::encode_system_report(pt.confirmed)
                              : std::string{});
      }
    }
    if (reference_.empty()) {
      reference_ = encoded;
      counts_ = counts;
    }
    OpResult out;
    const std::size_t per_app = depths() * kKinds.size();
    for (std::size_t a = 0; a < profiles_.size(); ++a) {
      const auto& r = results.at(a);
      std::size_t promoted = 0;
      for (const auto& pt : r.points) promoted += pt.promoted ? 1 : 0;
      const bool app_ok = counters_ok && counts == counts_ &&
                          r.points.size() == per_app && r.promotions == 1 &&
                          promoted == 1 &&
                          r.points[r.argmin_confirmed].promoted &&
                          finite_positive(
                              r.points[r.argmin_confirmed].confirmed.edp_js());
      for (std::size_t i = 0; i < per_app; ++i) {
        const std::size_t k = 2 * (a * per_app + i);
        const bool ok = app_ok && i < r.points.size() &&
                        finite_positive(r.points[i].explored.edp_js()) &&
                        encoded[k] == reference_[k] &&
                        encoded[k + 1] == reference_[k + 1];
        ++out.attempted;
        if (!ok) ++out.failed;
      }
    }
    return out;
  }

  Config cfg_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  sysmodel::PlatformParams params_;
  std::unique_ptr<store::EvalStore> designs_;
  std::vector<std::string> reference_;
  std::array<std::uint64_t, 3> counts_{};
};

/// Cluster serving: the Auto-band ServiceMatrix (set-up), then the
/// open-loop serving event loop on three cells: a clean headline cell and
/// two faulty ones with crash/degrade windows, retry and hedging.
class Serve final : public Workload {
 public:
  explicit Serve(Config cfg) : cfg_{std::move(cfg)} {}
  const char* op_name() const override { return "loop_s"; }
  std::size_t ops_per_set() const override { return cells_.size(); }
  std::uint64_t input_digest() const override {
    std::uint64_t h = digest_profiles(profiles_);
    for (const auto& cell : cells_) {
      for (const cluster::JobArrival& job : cell.jobs) {  // fields: no padding
        h = fnv1a(&job.time_s, sizeof(job.time_s), h);
        h = fnv1a(&job.app, sizeof(job.app), h);
      }
    }
    return h;
  }

  void setup(Samples& setup_samples) override {
    profiles_ = make_profiles(cfg_);
    evaluator_ = std::make_unique<sysmodel::NetworkEvaluator>();
    platforms_ = std::make_unique<sysmodel::PlatformCache>();
    sysmodel::PlatformParams base = base_params(cfg_);
    base.fidelity = sysmodel::Fidelity::kAuto;
    base.net_eval = evaluator_.get();
    base.platform_cache = platforms_.get();
    std::vector<cluster::PlatformTypeSpec> types;
    for (const auto& [kind, label, count] :
         {std::tuple{SystemKind::kVfiWinoc, "vfi-winoc", 8},
          std::tuple{SystemKind::kVfiMesh, "vfi-mesh", 4},
          std::tuple{SystemKind::kNvfiMesh, "nvfi-mesh", 4}}) {
      cluster::PlatformTypeSpec t;
      t.label = label;
      t.params = base;
      t.params.kind = kind;
      t.count = count;
      types.push_back(t);
    }
    const auto t0 = Clock::now();
    matrix_ = std::make_unique<cluster::ServiceMatrix>(
        cluster::ServiceMatrix::evaluate(profiles_, types, sim_, cfg_.threads));
    setup_samples.add("warmup_s", "s", seconds_since(t0));

    const double capacity = cluster::fleet_capacity_jobs_per_s(*matrix_, types);
    double mean_service = 0.0;
    for (std::size_t a = 0; a < matrix_->apps(); ++a) {
      mean_service += matrix_->mean_service_s(a);
    }
    mean_service /= static_cast<double>(matrix_->apps());

    cluster::ArrivalConfig arrivals;
    for (workload::App app : workload::kAllApps) {
      const bool served = std::any_of(
          profiles_.begin(), profiles_.end(),
          [&](const workload::AppProfile& p) { return p.app == app; });
      arrivals.app_mix.push_back(served ? 1.0 : 0.0);
    }
    Cell clean;
    clean.fleet.types = types;
    arrivals.rate_jobs_per_s = 0.9 * capacity;
    arrivals.job_count = cfg_.tiny ? 20'000 : 2'000'000;
    arrivals.seed = cfg_.seed;
    clean.jobs = cluster::make_arrivals(arrivals);
    cells_.push_back(std::move(clean));

    // Faulty cells at two of the repository availability bench's load and
    // fault levels: rho 0.8 with two expected crashes per instance, and
    // rho 0.7 with one.
    for (const auto& [rho, crashes] : {std::pair{0.8, 2.0}, {0.7, 1.0}}) {
      Cell faulty;
      faulty.fleet.types = types;
      faulty.fleet.retry.max_attempts = 3;
      faulty.fleet.retry.backoff_base_s = 0.5 * mean_service;
      faulty.fleet.retry.backoff_mult = 2.0;
      faulty.fleet.retry.backoff_cap_s = 4.0 * mean_service;
      faulty.fleet.hedge.latency_multiplier = 3.0;
      arrivals.rate_jobs_per_s = rho * capacity;
      arrivals.job_count = cfg_.tiny ? 5'000 : 400'000;
      arrivals.seed = cfg_.seed + cells_.size();
      faulty.jobs = cluster::make_arrivals(arrivals);
      const double horizon = 1.2 * static_cast<double>(arrivals.job_count) /
                             arrivals.rate_jobs_per_s;
      faults::FleetFaultSpec spec;
      spec.crash_rate_per_ks = crashes / (horizon / 1000.0);
      spec.degrade_rate_per_ks = 0.5 * spec.crash_rate_per_ks;
      spec.mean_repair_s = 0.05 * horizon;
      spec.mean_degrade_s = 0.05 * horizon;
      spec.degrade_slowdown = 2.0;
      spec.seed = cfg_.seed + cells_.size() - 1;
      faulty.fleet.faults = cluster::FleetFaultPlan::from_spec(
          spec, faulty.fleet.instance_count(), horizon);
      cells_.push_back(std::move(faulty));
    }
  }

  Op run(Samples& samples, Ledger* counts) override {
    std::vector<cluster::ClusterReport> reports;
    const auto t0 = Clock::now();
    for (const Cell& cell : cells_) {
      reports.push_back(
          cluster::ClusterSim::run(cell.jobs, cell.fleet, *matrix_));
    }
    Op op;
    op.seconds = seconds_since(t0);
    std::uint64_t completed = 0;
    for (const auto& r : reports) completed += r.fleet.completed;
    samples.add("serve_jobs_per_s", "1/s",
                static_cast<double>(completed) / op.seconds);
    if (counts != nullptr) {
      for (std::size_t i = 0; i < cells_.size(); ++i) {
        add_cell_counts(reports[i], cells_[i], *counts);
      }
    }
    static_cast<OpResult&>(op) = check(reports);
    return op;
  }

  Op run_traced(Ledger& ledger) override {
    std::vector<cluster::ClusterReport> reports;
    const auto t0 = Clock::now();
    for (const Cell& cell : cells_) {
      const auto t_cell = Clock::now();
      reports.push_back(
          cluster::ClusterSim::run(cell.jobs, cell.fleet, *matrix_));
      ledger.add("cluster.loop_s", seconds_since(t_cell));
      add_cell_counts(reports.back(), cell, ledger);
    }
    Op op;
    op.seconds = seconds_since(t0);
    static_cast<OpResult&>(op) = check(reports);
    return op;
  }

 private:
  struct Cell {
    cluster::FleetConfig fleet;
    std::vector<cluster::JobArrival> jobs;
  };

  static void add_cell_counts(const cluster::ClusterReport& report,
                              const Cell& cell, Ledger& ledger) {
    const cluster::SlaStats& s = report.fleet;
    ledger.add("cluster.jobs", static_cast<double>(s.completed));
    ledger.add("cluster.retries", static_cast<double>(s.retries));
    ledger.add("cluster.hedges", static_cast<double>(s.hedges));
    ledger.add("cluster.lost", static_cast<double>(s.lost));
    // Event sources of the loop: arrivals, completions, fault-plan state
    // changes, retry and hedge timers.
    ledger.add("cluster.events",
               static_cast<double>(s.arrived + s.completed + s.retries +
                                   s.hedges +
                                   cell.fleet.faults.changes().size()));
  }

  /// Conservation, quantile order, zero loss without faults, and the
  /// completion digest of the first operation.
  OpResult check(const std::vector<cluster::ClusterReport>& reports) {
    if (digests_.empty()) {
      for (const auto& r : reports) digests_.push_back(r.completion_digest);
    }
    OpResult out;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const cluster::ClusterReport& r = reports.at(i);
      const cluster::SlaStats& s = r.fleet;
      const bool ok =
          s.admitted == s.completed + s.lost + s.shed_retry &&
          s.completed > 0 && s.p50.value() <= s.p99.value() &&
          s.p99.value() <= s.p999.value() &&
          (!cells_[i].fleet.faults.empty() || s.lost + s.shed_retry == 0) &&
          r.completion_digest == digests_.at(i);
      ++out.attempted;
      if (!ok) {
        ++out.failed;
        std::cerr << "perfbench: serving cell " << i << " failed its check:"
                  << " admitted " << s.admitted << ", completed "
                  << s.completed << ", lost " << s.lost << ", shed_retry "
                  << s.shed_retry << ", p50 " << s.p50.value() << " s, p99 "
                  << s.p99.value() << " s, p999 " << s.p999.value() << " s\n";
      }
    }
    return out;
  }

  Config cfg_;
  sysmodel::FullSystemSim sim_;
  std::vector<workload::AppProfile> profiles_;
  std::unique_ptr<sysmodel::NetworkEvaluator> evaluator_;
  std::unique_ptr<sysmodel::PlatformCache> platforms_;
  std::unique_ptr<cluster::ServiceMatrix> matrix_;
  std::vector<Cell> cells_;
  std::vector<std::uint64_t> digests_;
};

/// The real MapReduce runtime: WordCount over Zipf text (sparse keys) and
/// Histogram over RGB pixels (768 dense keys), each at 1 and N workers, on
/// the fast path and on the commit-once path (an empty worker fault plan).
class MapReduce final : public Workload {
 public:
  explicit MapReduce(Config cfg) : cfg_{std::move(cfg)} {}
  const char* op_name() const override { return "mr_s"; }
  std::size_t ops_per_set() const override { return 8; }
  std::uint64_t input_digest() const override {
    std::uint64_t h = fnv1a(text_.data(), text_.size());
    return fnv1a(image_.data(), image_.size(), h);
  }

  void setup(Samples&) override {
    // WordCount's input: the distribution and spelling of generate_text
    // (Zipf(s = 1) over WordCountConfig's vocabulary, words "w<index>"),
    // sampled by inverting the CDF.  generate_text's weighted_index walks
    // the whole vocabulary twice per word, 10^4 steps for each of 2M words.
    const std::size_t vocabulary = mr::apps::WordCountConfig{}.vocabulary;
    const std::size_t words = cfg_.tiny ? 20'000 : 2'000'000;
    std::vector<std::string> vocab(vocabulary);
    std::vector<double> cdf(vocabulary);
    double total = 0.0;
    for (std::size_t i = 0; i < vocabulary; ++i) {
      vocab[i] = "w" + std::to_string(i);
      total += 1.0 / static_cast<double>(i + 1);
      cdf[i] = total;
    }
    Rng rng{cfg_.seed};
    text_.reserve(words * 6);
    std::vector<std::uint64_t> counts(vocabulary, 0);
    for (std::size_t i = 0; i < words; ++i) {
      const double u = rng.uniform() * total;
      const std::size_t w = std::min<std::size_t>(
          vocabulary - 1,
          static_cast<std::size_t>(
              std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
      if (i > 0) text_ += ' ';
      text_ += vocab[w];
      ++counts[w];
    }
    word_ref_.clear();
    for (std::size_t w = 0; w < vocabulary; ++w) {
      if (counts[w] > 0) word_ref_.emplace_back(vocab[w], counts[w]);
    }
    std::sort(word_ref_.begin(), word_ref_.end());

    // Histogram's input: the repository's own synthetic image.
    mr::apps::HistogramConfig image;
    image.pixel_count = cfg_.tiny ? 200'000 : 20'000'000;
    image.seed = cfg_.seed;
    image_ = mr::apps::generate_image(image);
    for (std::size_t i = 0; i < image_.size(); ++i) {
      ++hist_ref_[i % 3][image_[i]];
    }
  }

  Op run(Samples& samples, Ledger*) override {
    return run_jobs(&samples, nullptr);
  }
  Op run_traced(Ledger& ledger) override { return run_jobs(nullptr, &ledger); }

 private:
  Op run_jobs(Samples* samples, Ledger* ledger) {
    Op op;
    const faults::WorkerFaultPlan commit_plan;
    std::map<std::string, double> seconds;
    for (const bool wc : {true, false}) {
      for (const bool commit : {false, true}) {
        for (const std::size_t workers : {std::size_t{1}, cfg_.threads}) {
          mr::SchedulerConfig sched;
          sched.workers = workers;
          sched.faults = commit ? &commit_plan : nullptr;
          const std::string cell = std::string{"mr."} + (wc ? "wc" : "hist") +
                                   (commit ? ".commit." : ".fast.") +
                                   (workers == 1 ? "1w" : "Nw");
          ++op.attempted;
          mr::JobProfile profile;
          bool ok = false;
          double dt = 0.0;
          if (wc) {
            mr::apps::WordCountConfig c;
            c.scheduler = sched;
            const auto t0 = Clock::now();
            const auto r = mr::apps::word_count(text_, c);
            dt = seconds_since(t0);
            ok = r.counts == word_ref_;
            profile = r.profile;
          } else {
            mr::apps::HistogramConfig c;
            c.scheduler = sched;
            const auto t0 = Clock::now();
            const auto r = mr::apps::histogram(image_, c);
            dt = seconds_since(t0);
            ok = r.bins == hist_ref_;
            profile = r.profile;
          }
          if (!ok) ++op.failed;
          op.seconds += dt;
          seconds[cell] = dt;
          if (samples != nullptr) samples->add(cell + "_s", "s", dt);
          if (ledger != nullptr) {
            const double items = wc ? static_cast<double>(word_ref_total())
                                    : static_cast<double>(image_.size() / 3);
            ledger->add(cell + "_items", items);
            ledger->add(cell + "_s", dt);
            ledger->add("mr.job_s", dt);
            ledger->add("mr.map_s", profile.phases.map_s);
            ledger->add("mr.reduce_s", profile.phases.reduce_s);
            ledger->add("mr.merge_s", profile.phases.merge_s);
            if (workers > 1) {
              for (std::size_t w = 0; w < workers; ++w) {
                ledger->add("mr.tasks_stolen", static_cast<double>(
                                profile.map_stats.tasks_stolen.at(w)));
                ledger->add("mr.tasks_run", static_cast<double>(
                                profile.map_stats.tasks_executed.at(w)));
              }
            }
          }
        }
      }
    }
    if (ledger != nullptr) {
      for (const char* app : {"wc", "hist"}) {
        const std::string a = std::string{"mr."} + app;
        ledger->add(a + ".commit_s", seconds[a + ".commit.1w"] +
                                         seconds[a + ".commit.Nw"]);
        ledger->add(a + ".fast_s",
                    seconds[a + ".fast.1w"] + seconds[a + ".fast.Nw"]);
      }
    }
    return op;
  }

  std::uint64_t word_ref_total() const {
    std::uint64_t n = 0;
    for (const auto& [word, count] : word_ref_) n += count;
    return n;
  }

  Config cfg_;
  std::string text_;
  std::vector<std::uint8_t> image_;
  std::vector<std::pair<std::string, std::uint64_t>> word_ref_;
  std::array<std::array<std::uint64_t, 256>, 3> hist_ref_{};
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig8", "fig8-warm", "dse-auto", "serve", "mapreduce"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Config& config) {
  if (config.workload == "fig8") return std::make_unique<Fig8Cold>(config);
  if (config.workload == "fig8-warm") return std::make_unique<Fig8Warm>(config);
  if (config.workload == "dse-auto") return std::make_unique<DseAuto>(config);
  if (config.workload == "serve") return std::make_unique<Serve>(config);
  if (config.workload == "mapreduce") {
    return std::make_unique<MapReduce>(config);
  }
  throw std::invalid_argument("unknown workload '" + config.workload + "'");
}

}  // namespace perfbench
