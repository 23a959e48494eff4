#pragma once
// The perfbench workloads.  Each one builds its inputs from the seed in
// set-up, then runs one operation set per call: untraced through the
// simulator's own entry points, or traced as the same work split into
// direct calls into each module, timed from here (nothing inside src/ is
// instrumented).  README.md in this directory gives the rationale for each
// workload and the layer -> end-to-end metric map.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The seed that reproduces the paper's inputs (workload::ProfileParams'
/// default); the committed golden bands are checked on it.
inline constexpr std::uint64_t kDefaultSeed = 2015;
/// Seed kept out of every tuning run, for confirming a later claim.
inline constexpr std::uint64_t kHeldOutSeed = 4242;

struct Config {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool tiny = false;           ///< smoke-test sizes (README.md)
  std::size_t threads = 1;     ///< host threads for every parallel call
  std::string work_dir;        ///< scratch directory for evaluation stores
  std::string golden_path;     ///< committed Fig. 8 golden bands
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs and any warm state the operations start from.
  /// Called once per object.
  virtual void setup(Samples& setup_samples) = 0;

  /// One untraced operation set.  `seconds` in the result is its host
  /// time; named per-workload figures go into `samples`, and the work
  /// counters of the modules it ran (cache hits, simulations, store
  /// records, serving events) into `counts` when it is non-null.
  struct Op : OpResult {
    double seconds = 0.0;
  };
  virtual Op run(Samples& samples, Ledger* counts) = 0;

  /// The same operation set as direct layer calls, timed into `ledger`.
  /// Its outputs are checked against the untraced ones.
  virtual Op run_traced(Ledger& ledger) = 0;

  /// Operations in one set (counted as failed when the set throws).
  virtual std::size_t ops_per_set() const = 0;

  /// Name of the workload's own end-to-end figure for `op_s`
  /// (e.g. "sweep_s").
  virtual const char* op_name() const = 0;

  /// Digest of the generated inputs; changes with the seed.
  virtual std::uint64_t input_digest() const = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown workload name.
std::unique_ptr<Workload> make_workload(const Config& config);

}  // namespace perfbench
