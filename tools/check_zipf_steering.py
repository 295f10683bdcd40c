#!/usr/bin/env python3
"""Acceptance checks on bench_zipf_steering's output.

Every output file (CSV, report, metric snapshot, trace) must be
non-empty; monitored (access monitor + schemes) must beat
reactive-only steering on local-byte share and goodput on every
preset, with promotions made and more than one region; the sampled
run must write the v2 report with region snapshots on monitored runs
only; and the monitor's self-cost counters must be in the metric
snapshot.

Usage:
    python3 tools/check_zipf_steering.py [zipf_steering.csv
        [zipf_steering_report.json [zipf_steering_metrics.prom
        [zipf_steering_trace.json]]]]

Run it in the directory where `bench_zipf_steering --quick --trace
--sample-us 1000` (or any run with `--trace` and `--sample-us`) wrote
its files. Exits non-zero on the first failed assertion.
"""

import csv
import json
import os
import sys


def main(csv_path="zipf_steering.csv",
         report_path="zipf_steering_report.json",
         prom_path="zipf_steering_metrics.prom",
         trace_path="zipf_steering_trace.json"):
    for path in (csv_path, report_path, trace_path, prom_path):
        assert os.path.getsize(path) > 0, f"{path}: empty"

    # Scheme payoff: monitored beats reactive on local-byte
    # share and goodput on every preset in the quick matrix.
    rows = list(csv.DictReader(open(csv_path)))
    assert rows, "no csv rows"
    by_preset = {}
    for r in rows:
        by_preset.setdefault(r["preset"], {})[r["scheme"]] = r
    for preset, schemes in by_preset.items():
        mon, rea = schemes["monitored"], schemes["reactive"]
        assert float(mon["local_share"]) > \
            float(rea["local_share"]), (preset, mon, rea)
        assert float(mon["gbps"]) > float(rea["gbps"]), \
            (preset, mon, rea)
        assert int(mon["promotions"]) > 0, mon
        assert int(mon["regions"]) > 1, mon
        print(f"{preset}: local {rea['local_share']} -> "
              f"{mon['local_share']}, gbps {rea['gbps']} -> "
              f"{mon['gbps']} ok")

    # The traced run carries region snapshots (schema v2) for
    # monitored runs only, with sane rows, and the access-monitor
    # watch tracks stream alongside them.
    report = json.load(open(report_path))
    assert report["schema"] == "octo.report.v2", report["schema"]
    monitored = 0
    for r in report["runs"]:
        samples = (r.get("regions") or {}).get("samples", [])
        names = {s["name"] for s in r["series"]}
        if r["run"].endswith("/reactive"):
            assert not samples, r["run"]
            assert "accmon_regions" not in names, r["run"]
            continue
        assert samples, f"{r['run']}: no region snapshots"
        assert "accmon_regions" in names, (r["run"], names)
        assert "accmon_scheme_applied_per_s" in names, names
        regions = next(s for s in r["series"]
                       if s["name"] == "accmon_regions")
        assert max(regions["values"]) > 1, regions["values"]
        monitored += 1
        for snap in samples:
            assert snap["rows"], snap
            for row in snap["rows"]:
                assert row["lo"] <= row["hi"], row
                assert row["rate_gbps"] >= 0.0, row
    assert monitored >= 2, "expected both monitored presets"
    print(f"report v2 ok: {monitored} runs with snapshots")

    # Monitor self-cost counters exported by the registry.
    prom = open(prom_path).read()
    for metric in ("accmon_records_total",
                   "accmon_overhead_ns_total",
                   "accmon_intervals_total"):
        assert metric in prom, metric
    print("accmon counter tracks ok")


if __name__ == "__main__":
    main(*sys.argv[1:5])
