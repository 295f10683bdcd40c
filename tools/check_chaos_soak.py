#!/usr/bin/env python3
"""Acceptance checks on bench_chaos_soak's report.

The sweep CSV beside the report must be non-empty, every storm row
must be oracle-green with more than 100 checks, both presets (kernel
and -poll) must be present, the differential prober must beat the
unmonitored and stock-monitored runs by 2x on the gray episode while
stock telemetry stays blind to it, and the all-sick last-resort
window must keep serving with all weights zero seen, the prober
demoting the gray PF and no oracle violation.

Usage:
    python3 tools/check_chaos_soak.py [chaos_soak_report.json]

Run it in the directory where `bench_chaos_soak` (or `--quick`) wrote
its report. Exits non-zero on the first failed assertion.
"""

import json
import os
import sys


def main(path):
    csv_path = os.path.join(os.path.dirname(path), "chaos_soak.csv")
    assert os.path.getsize(csv_path) > 0, f"{csv_path}: empty"
    report = json.load(open(path))
    rows = report["rows"]
    assert rows, "no sweep rows"
    for r in rows:
        assert r["oracle_checks"] > 100, r
        assert r["oracle_violations"] == 0, r
    presets = {r["preset"] for r in rows}
    assert {"ioctopus", "ioctopus-poll"} <= presets, presets
    print(f"sweep ok: {len(rows)} rows, oracle green, "
          f"presets {sorted(presets)}")

    gray = report["gray_contrast"]
    assert gray["stock_state_healthy"], gray
    assert gray["stock_external_demotions"] == 0, gray
    assert gray["prober_demotions"] > 0, gray
    for blind in ("plain_gbps", "stock_gbps"):
        ratio = gray["probed_gbps"] / gray[blind]
        assert ratio >= 2.0, f"{blind}: ratio {ratio:.2f} < 2"
    print(f"gray contrast ok: probed {gray['probed_gbps']} vs "
          f"plain {gray['plain_gbps']} / stock {gray['stock_gbps']}")

    lr = report["last_resort"]
    assert lr["sick_window_gbps"] > 0, lr
    assert lr["all_weights_zero_seen"], lr
    assert lr["oracle_violations"] == 0, lr
    assert lr["prober_demotions"] > 0, lr
    print(f"last resort ok: {lr['sick_window_gbps']} Gb/s with "
          f"all weights zero")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "chaos_soak_report.json")
