#!/usr/bin/env python3
"""CI gate for the multi-fidelity network ladder (DESIGN.md §12).

Usage: check_fidelity.py BENCH_sweep.json [MIN_SPEEDUP] [MAX_LATENCY_MAPE]

Consumes the `bench_sweep.fidelity.*` metrics written by
bench_sweep_scaling's fidelity-ladder section (a fault-free design-space
sweep run twice: cycle-accurate everywhere vs Auto — analytical
exploration with cycle-accurate frontier confirmation) and enforces the
ladder's contract:

  * speedup_auto >= MIN_SPEEDUP (default 5.0) — the throughput the
    analytical band was built to buy.  Wall-seconds are machine-specific
    but both sweeps ran on the same box in the same process at the same
    thread count, so the ratio is the portable signal (same reasoning as
    check_sweep_overhead.py).  speedup_auto is the median of `trials`
    (>= MIN_TRIALS) paired trials; one timing of a sub-second sweep is too
    noisy to gate on.  The per-trial range and the thread count are
    printed with it.
  * latency_mape <= MAX_LATENCY_MAPE (default 0.15) — mean abs latency
    error of the analytical band across the explored points, the
    fault-free half of the accuracy contract.  (Faulty-config accuracy is
    enforced at its committed — wider — tolerance by
    tests/test_fidelity_xval.cpp, which runs in tier-1.)
  * frontier_match == 1 — Auto's confirmed EDP argmin is the
    cycle-accurate sweep's argmin, i.e. exploring analytically did not
    change the answer, only the cost of finding it.
  * counters_consistent == 1 — the NetworkEvaluator's per-band hit/miss
    counters sum to the totals and both bands saw traffic; a failure here
    means evaluations are escaping their band's accounting.
"""

import json
import sys

PREFIX = "bench_sweep.fidelity."
MIN_TRIALS = 5


def main(argv):
    if len(argv) < 2:
        print(
            "usage: check_fidelity.py BENCH_sweep.json"
            " [MIN_SPEEDUP] [MAX_LATENCY_MAPE]",
            file=sys.stderr,
        )
        sys.exit(1)
    min_speedup = float(argv[2]) if len(argv) > 2 else 5.0
    max_latency_mape = float(argv[3]) if len(argv) > 3 else 0.15

    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    def metric(name):
        key = PREFIX + name
        if key not in doc:
            print(f"check_fidelity: FAIL: {argv[1]} has no {key}",
                  file=sys.stderr)
            sys.exit(1)
        return float(doc[key])

    speedup = metric("speedup_auto")
    speedup_min = metric("speedup_min")
    speedup_max = metric("speedup_max")
    trials = metric("trials")
    threads = metric("threads")
    latency_mape = metric("latency_mape")
    frontier_match = metric("frontier_match")
    counters_consistent = metric("counters_consistent")
    points = metric("points")

    print(
        f"check_fidelity: {points:.0f} design points, "
        f"Auto speedup {speedup:.2f}x median of {trials:.0f} trials at "
        f"{threads:.0f} thread(s), range {speedup_min:.2f}x.."
        f"{speedup_max:.2f}x (floor {min_speedup:.2f}x), "
        f"latency MAPE {latency_mape:.2%} (cap {max_latency_mape:.2%}), "
        f"frontier_match={frontier_match:.0f}, "
        f"counters_consistent={counters_consistent:.0f}"
    )

    failures = []
    if trials < MIN_TRIALS:
        failures.append(
            f"speedup measured over {trials:.0f} trials, need {MIN_TRIALS}"
        )
    if speedup < min_speedup:
        failures.append(
            f"Auto speedup {speedup:.2f}x below floor {min_speedup:.2f}x"
        )
    if latency_mape > max_latency_mape:
        failures.append(
            f"latency MAPE {latency_mape:.2%} above cap "
            f"{max_latency_mape:.2%}"
        )
    if frontier_match != 1.0:
        failures.append("Auto frontier does not match the cycle-accurate one")
    if counters_consistent != 1.0:
        failures.append("per-band evaluator counters are inconsistent")

    if failures:
        for f_msg in failures:
            print(f"check_fidelity: FAIL: {f_msg}", file=sys.stderr)
        sys.exit(1)
    print("check_fidelity: OK")


if __name__ == "__main__":
    main(sys.argv)
