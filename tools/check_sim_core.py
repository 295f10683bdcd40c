#!/usr/bin/env python3
"""Floor check for the bench_sim_core event-core microbenchmark.

Reads google-benchmark JSON output (``--benchmark_format=json``) and
fails when any pinned benchmark's ``ev_per_s`` counter drops below its
floor. The floors are deliberately loose — around 4-8x below the rates
a developer laptop reaches — so they catch an event-core regression
(an accidental O(n) scan, a heap allocation on the hot path) without
flaking on slow shared CI runners.

Usage:
    ./bench_sim_core --benchmark_format=json > sim_core.json
    python3 tools/check_sim_core.py sim_core.json
"""

import json
import sys

# benchmark-name prefix -> minimum events/sec. Reference rates on one
# 2.1 GHz Xeon core of a shared VM (2026-10, 4096-slot wheel with
# 2^16-tick level-0 slots; medians of runs that spread by ~20%):
# HotWindow/1 31-39M, HotWindow/16 20-29M, ShortDelays 19-23M,
# MixedHorizon 15-19M, Periodic 19-25M, CoroutineResume 33-55M. The
# seed priority-queue + std::function core sat in the 5-10M range, so
# these floors also assert "never slower than the pre-refactor core".
FLOORS = {
    "BM_HotWindow/1": 7.0e6,
    "BM_HotWindow/16": 6.0e6,
    "BM_ShortDelays": 5.0e6,
    "BM_MixedHorizon": 3.5e6,
    "BM_Periodic/64": 4.0e6,
    "BM_CoroutineResume": 6.0e6,
}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as f:
        doc = json.load(f)

    seen = set()
    failures = []
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        for prefix, floor in FLOORS.items():
            # Exact name, or prefix followed by a non-digit (so
            # "BM_HotWindow/16" never matches the "/1" floor but
            # repetition suffixes like "/repeats:3" still do).
            if name != prefix and not (
                    name.startswith(prefix) and
                    not name[len(prefix):][:1].isdigit()):
                continue
            rate = bench.get("ev_per_s")
            if rate is None:
                failures.append(f"{name}: no ev_per_s counter")
                continue
            seen.add(prefix)
            status = "ok" if rate >= floor else "FAIL"
            print(f"{status:4s} {name}: {rate:.3e} ev/s "
                  f"(floor {floor:.1e})")
            if rate < floor:
                failures.append(
                    f"{name}: {rate:.3e} ev/s below floor {floor:.1e}")

    for prefix in FLOORS:
        if prefix not in seen:
            failures.append(f"missing benchmark: {prefix}")

    if failures:
        print("\nevent-core floor check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("event-core floor check passed "
          f"({len(seen)}/{len(FLOORS)} benchmarks)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
