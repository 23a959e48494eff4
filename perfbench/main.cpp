// perfbench: the repository benchmark (README.md in this directory).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|tiny] [--commit ID]
//
// Runs in rounds: each sets up a fresh workload (median over all rounds =
// setup_s), then runs operation sets until the run's measured time reaches
// the round's share of S seconds.  Untraced (--trace 0), the last line of
// stdout is the end-to-end result; traced (--trace 1), untraced and traced
// sets alternate and the last line carries the per-layer ledger.  Any
// unknown flag, bad value or --help prints usage and exits 2.

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

// The host's speed drifts over seconds, so set-ups are spread over the run
// in rounds rather than made back to back at its start: setup_s then spans
// the same stretch of host time as op_s.  A cheap set-up repeats within its
// round until the round's set-up budget is spent.
constexpr int kRounds = 3;
constexpr int kMaxSetupsPerRound = 100;
constexpr double kRoundSetupBudgetS = 0.1;

struct Args {
  Config config;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

void usage(std::ostream& os) {
  os << "usage: perfbench --workload {";
  for (std::size_t i = 0; i < workload_names().size(); ++i) {
    os << (i ? "," : "") << workload_names()[i];
  }
  os << "} [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]"
        " [--commit ID]\n";
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  out = std::stoull(s);
  return true;
}

/// Strict parser: every flag must be known and carry a valid value.
bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (flag == "--workload") {
      bool known = false;
      for (const auto& n : workload_names()) known = known || n == value;
      if (!known) return false;
      args.config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, args.config.seed)) return false;
    } else if (flag == "--seconds") {
      std::uint64_t s = 0;
      if (!parse_u64(value, s) || s < 1 || s > 3600) return false;
      args.seconds = static_cast<double>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") return false;
      args.config.tiny = value == "tiny";
    } else if (flag == "--commit") {
      if (value.empty() || value.size() > 100 ||
          value.find_first_of("\"\\") != std::string::npos) {
        return false;
      }
      args.commit = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

std::size_t host_threads() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------- per-layer ledger

/// How a per-layer metric is derived.  Sources: the traced ledger (times
/// and traced work), the counters of the last untraced operation set, and
/// host figures of the run.
enum class From {
  kCount,        ///< untraced counter, per operation set
  kCountRatio,   ///< untraced counter num / den
  kTracedCount,  ///< traced ledger num / traced sets
  kThreadShare,  ///< traced seconds num / (traced wall x threads)
  kWallShare,    ///< traced wall-clock stage num / traced wall
  kRate,         ///< traced ledger num / den
  kHost,         ///< host figure
};

struct LayerMetric {
  const char* name;
  const char* unit;
  From from;
  const char* num;
  const char* den;
};

// Must list exactly BENCHMARK.json's per_layer metrics.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"vfi.designs", "count", From::kTracedCount, "vfi.designs", ""},
      {"vfi.design_frac", "frac", From::kThreadShare, "vfi.design_s", ""},
      {"platform.builds", "count", From::kTracedCount, "platform.builds", ""},
      {"platform.build_frac", "frac", From::kThreadShare, "platform.build_s",
       ""},
      {"platform_cache.hits", "count", From::kCount, "platform_cache.hits", ""},
      {"platform_cache.misses", "count", From::kCount, "platform_cache.misses",
       ""},
      {"noc.evals", "count", From::kCount, "noc.evals", ""},
      {"noc.eval_frac", "frac", From::kThreadShare, "noc.eval_s", ""},
      {"noc.router_cycles_per_s", "1/s", From::kRate, "noc.router_cycles",
       "noc.eval_s"},
      {"noc.flits_per_s", "1/s", From::kRate, "noc.flits", "noc.eval_s"},
      {"analytical.model_builds", "count", From::kCount,
       "analytical.model_builds", ""},
      {"analytical.evals", "count", From::kCount, "analytical.evals", ""},
      {"analytical.eval_frac", "frac", From::kThreadShare, "analytical.eval_s",
       ""},
      {"net_eval.hits", "count", From::kCount, "net_eval.hits", ""},
      {"net_eval.misses", "count", From::kCount, "net_eval.misses", ""},
      {"net_eval.disk_hits", "count", From::kCount, "net_eval.disk_hits", ""},
      {"net_eval.hit_rate", "frac", From::kCountRatio, "net_eval.served",
       "net_eval.lookups"},
      {"net_eval.promotions", "count", From::kCount, "net_eval.promotions", ""},
      {"system.runs", "count", From::kTracedCount, "system.runs", ""},
      {"system.run_frac", "frac", From::kThreadShare, "system.run_s", ""},
      {"sweep.explore_frac", "frac", From::kWallShare, "sweep.explore_wall_s",
       ""},
      {"sweep.promote_frac", "frac", From::kWallShare, "sweep.promote_wall_s",
       ""},
      {"sweep.promotions", "count", From::kCount, "sweep.promotions", ""},
      {"sweep.auto_edp_err", "frac", From::kCount, "sweep.auto_edp_err", ""},
      {"store.open_frac", "frac", From::kThreadShare, "store.open_s", ""},
      {"store.get_frac", "frac", From::kThreadShare, "store.get_s", ""},
      {"store.put_frac", "frac", From::kThreadShare, "store.put_s", ""},
      {"store.flush_frac", "frac", From::kThreadShare, "store.flush_s", ""},
      {"store.decode_frac", "frac", From::kThreadShare, "store.decode_s", ""},
      {"store.gets", "count", From::kCount, "store.gets", ""},
      {"store.puts", "count", From::kCount, "store.puts", ""},
      {"store.bytes_read", "bytes", From::kCount, "store.bytes_read", ""},
      {"store.bytes_written", "bytes", From::kCount, "store.bytes_written", ""},
      {"store.hit_rate", "frac", From::kCountRatio, "store.get_hits",
       "store.gets"},
      {"cluster.jobs_per_s", "1/s", From::kRate, "cluster.jobs",
       "cluster.loop_s"},
      {"cluster.events_per_s", "1/s", From::kRate, "cluster.events",
       "cluster.loop_s"},
      {"cluster.jobs", "count", From::kCount, "cluster.jobs", ""},
      {"cluster.retries", "count", From::kCount, "cluster.retries", ""},
      {"cluster.hedges", "count", From::kCount, "cluster.hedges", ""},
      {"cluster.lost", "count", From::kCount, "cluster.lost", ""},
      {"mr.wc.fast.1w_per_s", "1/s", From::kRate, "mr.wc.fast.1w_items",
       "mr.wc.fast.1w_s"},
      {"mr.wc.fast.Nw_per_s", "1/s", From::kRate, "mr.wc.fast.Nw_items",
       "mr.wc.fast.Nw_s"},
      {"mr.wc.commit.1w_per_s", "1/s", From::kRate, "mr.wc.commit.1w_items",
       "mr.wc.commit.1w_s"},
      {"mr.wc.commit.Nw_per_s", "1/s", From::kRate, "mr.wc.commit.Nw_items",
       "mr.wc.commit.Nw_s"},
      {"mr.hist.fast.1w_per_s", "1/s", From::kRate, "mr.hist.fast.1w_items",
       "mr.hist.fast.1w_s"},
      {"mr.hist.fast.Nw_per_s", "1/s", From::kRate, "mr.hist.fast.Nw_items",
       "mr.hist.fast.Nw_s"},
      {"mr.hist.commit.1w_per_s", "1/s", From::kRate,
       "mr.hist.commit.1w_items", "mr.hist.commit.1w_s"},
      {"mr.hist.commit.Nw_per_s", "1/s", From::kRate,
       "mr.hist.commit.Nw_items", "mr.hist.commit.Nw_s"},
      {"mr.map_frac", "frac", From::kRate, "mr.map_s", "mr.job_s"},
      {"mr.reduce_frac", "frac", From::kRate, "mr.reduce_s", "mr.job_s"},
      {"mr.merge_frac", "frac", From::kRate, "mr.merge_s", "mr.job_s"},
      {"mr.steal_frac", "frac", From::kRate, "mr.tasks_stolen",
       "mr.tasks_run"},
      {"mr.commit_over_fast.wc", "ratio", From::kRate, "mr.wc.commit_s",
       "mr.wc.fast_s"},
      {"mr.commit_over_fast.hist", "ratio", From::kRate, "mr.hist.commit_s",
       "mr.hist.fast_s"},
      {"host.threads", "count", From::kHost, "host.threads", ""},
      {"host.cpu_busy_frac", "frac", From::kHost, "host.cpu_busy_frac", ""},
      {"trace.overhead_frac", "frac", From::kHost, "trace.overhead_frac", ""},
  };
  return metrics;
}

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------------- output

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  double value;
  std::string unit;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage(std::cerr);
    return 2;
  }
  Config& cfg = args.config;
  cfg.threads = host_threads();
  cfg.work_dir =
      ".bench_build/perfbench/work-" + std::to_string(::getpid());
  cfg.golden_path = "results/golden/fig8.json";

  Samples setup_samples;
  Samples samples;
  OpResult total;
  std::size_t ops = 0;
  std::size_t traced_ops = 0;
  double traced_wall = 0.0;
  double untraced_cpu = 0.0;
  double untraced_wall = 0.0;
  std::vector<double> traced_secs;
  Ledger traced;
  std::map<std::string, double> counts;
  std::uint64_t digest = 0;
  std::size_t ops_per_set = 0;
  std::string op_name;
  try {
    std::filesystem::create_directories(cfg.work_dir);
    std::unique_ptr<Workload> workload;
    bool stopped = false;
    double measured = 0.0;  // seconds spent in operation sets so far
    for (int round = 0; round < kRounds && !stopped; ++round) {
      const auto round_start = Clock::now();
      for (int rep = 0; rep < kMaxSetupsPerRound; ++rep) {
        // Every set-up starts from a fresh workload, with the previous one's
        // memory already released, so each repetition does the same
        // allocation work as the first.
        workload.reset();
        workload = make_workload(cfg);
        const auto t0 = Clock::now();
        workload->setup(setup_samples);
        setup_samples.add("setup_s", "s", seconds_since(t0));
        if (seconds_since(round_start) >= kRoundSetupBudgetS) break;
      }
      if (round == 0) {
        op_name = workload->op_name();
        digest = workload->input_digest();
        ops_per_set = workload->ops_per_set();
      } else if (workload->input_digest() != digest) {
        throw std::runtime_error("a set-up made different inputs");
      }

      // The first set of a round is untraced: traced sets are checked
      // against the round's untraced results.
      std::size_t round_ops = 0;
      std::size_t round_traced = 0;
      const double round_end = args.seconds * (round + 1) / kRounds;
      const auto start = Clock::now();
      while (round_ops == 0 || (args.trace && round_traced == 0) ||
             measured + seconds_since(start) < round_end) {
        const bool traced_turn = args.trace && round_ops > round_traced;
        Workload::Op op;
        try {
          if (traced_turn) {
            op = workload->run_traced(traced);
          } else {
            Ledger op_counts;
            const double cpu0 = cpu_seconds();
            op = workload->run(samples, &op_counts);
            untraced_cpu += cpu_seconds() - cpu0;
            untraced_wall += op.seconds;
            counts = op_counts.snapshot();
          }
        } catch (const std::exception& e) {
          // Counted as failed operations; a set that threw would throw
          // again, so measuring stops here.
          std::cerr << "perfbench: operation set failed: " << e.what() << "\n";
          total.attempted += ops_per_set;
          total.failed += ops_per_set;
          stopped = true;
          break;
        }
        total += op;
        if (traced_turn) {
          ++round_traced;
          ++traced_ops;
          traced_wall += op.seconds;
          traced_secs.push_back(op.seconds);
        } else {
          ++round_ops;
          ++ops;
          samples.add("op_s", "s", op.seconds);
          samples.add(op_name, "s", op.seconds);
        }
      }
      measured += seconds_since(start);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    std::error_code ec;
    std::filesystem::remove_all(cfg.work_dir, ec);
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);

  const double threads = static_cast<double>(cfg.threads);
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics["setup_s"] = {setup_samples.median("setup_s"), "s"};
    metrics["op_s"] = {samples.median("op_s"), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  } else {
    const auto t = traced.snapshot();
    std::map<std::string, double> host;
    host["host.threads"] = threads;
    host["host.cpu_busy_frac"] = ratio(untraced_cpu, untraced_wall * threads);
    host["trace.overhead_frac"] =
        ratio(quartiles(traced_secs).median, samples.median("op_s")) - 1.0;
    for (const LayerMetric& m : layer_metrics()) {
      double v = 0.0;
      switch (m.from) {
        case From::kCount: v = lookup(counts, m.num); break;
        case From::kCountRatio:
          v = ratio(lookup(counts, m.num), lookup(counts, m.den));
          break;
        case From::kTracedCount:
          v = ratio(lookup(t, m.num), static_cast<double>(traced_ops));
          break;
        case From::kThreadShare:
          v = ratio(lookup(t, m.num), traced_wall * threads);
          break;
        case From::kWallShare: v = ratio(lookup(t, m.num), traced_wall); break;
        case From::kRate: v = ratio(lookup(t, m.num), lookup(t, m.den)); break;
        case From::kHost: v = lookup(host, m.num); break;
      }
      metrics[m.name] = {v, m.unit};
    }
  }
  bool finite = true;
  for (auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      finite = false;
      m.value = 0.0;
    }
  }

  // Human-readable figures, then provenance, then the result line.
  std::cout << "perfbench " << cfg.workload << ": seed " << cfg.seed
            << ", " << cfg.threads << " threads, "
            << (cfg.tiny ? "tiny" : "full") << " size, "
            << setup_samples.all().at("setup_s").values.size()
            << " set-ups in " << kRounds << " rounds, " << ops
            << " untraced + " << traced_ops
            << " traced operation sets of " << ops_per_set << " operations\n";
  std::ostringstream sample_json;
  bool first = true;
  for (const Samples* s : {&setup_samples, &samples}) {
    for (const auto& [name, series] : s->all()) {
      const Quartiles q = quartiles(series.values);
      std::cout << "  " << name << " = " << num(q.median) << " " << series.unit
                << "  (q1 " << num(q.q1) << ", q3 " << num(q.q3) << ", n "
                << q.n << ")\n";
      sample_json << (first ? "" : ", ") << "\"" << name << "\": {\"unit\": \""
                  << series.unit << "\", \"n\": " << q.n
                  << ", \"median\": " << num(q.median)
                  << ", \"q1\": " << num(q.q1) << ", \"q3\": " << num(q.q3)
                  << "}";
      first = false;
    }
  }
  if (args.trace) {
    std::cout << "  per-layer host seconds over " << traced_ops
              << " traced sets (" << num(traced_wall) << " s wall):\n";
    for (const auto& [key, value] : traced.snapshot()) {
      std::cout << "    " << key << " = " << num(value) << "\n";
    }
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "{\"provenance\": {\"workload\": \"" << cfg.workload
            << "\", \"seed\": " << cfg.seed
            << ", \"default_seed\": " << kDefaultSeed
            << ", \"held_out_seed\": " << kHeldOutSeed
            << ", \"threads\": " << cfg.threads
            << ", \"nproc\": " << cfg.threads
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"commit\": \"" << args.commit << "\", \"size\": \""
            << (cfg.tiny ? "tiny" : "full") << "\", \"trace\": "
            << (args.trace ? 1 : 0)
            << ", \"run_seconds\": " << num(args.seconds)
            << ", \"rounds\": " << kRounds
            << ", \"setups\": " << setup_samples.all().at("setup_s").values.size()
            << ", \"operation_sets\": " << ops
            << ", \"traced_sets\": " << traced_ops
            << ", \"input_digest\": \"" << digest_hex << "\", \"samples\": {"
            << sample_json.str() << "}}}\n";

  const bool correct = total.failed == 0 && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
              << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
