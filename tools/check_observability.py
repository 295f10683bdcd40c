#!/usr/bin/env python3
"""Acceptance checks on the traced fig06 and tx_retention runs.

Every output file must be non-empty; both traces must hold well-formed
Chrome trace events; fig06's sampled run must carry the throughput,
QPI and per-PF health counter tracks and a report with all three
presets; its ioctopus run must keep >= 99% of the octoNIC's DMA bytes
local; and the remote run's mean end-to-end latency must exceed the
ioctopus run's (the NUDMA penalty).

Usage:
    python3 tools/check_observability.py [fig06-dir [tx_retention-dir]]

The directories hold what `bench_fig06_tcp_rx --trace --sample-us 1000`
and `bench_tx_retention --quick --trace` (or its full run) wrote; both
default to the current directory. Exits non-zero on the first failed assertion.
"""

import json
import os
import sys


def main(fig06_dir=".", tx_dir="."):
    fig06 = {name: os.path.join(fig06_dir, name)
             for name in ("fig06_trace.json", "fig06_metrics.prom",
                          "fig06_report.json", "fig06_report.csv")}
    tx = {name: os.path.join(tx_dir, name)
          for name in ("tx_retention_trace.json",
                       "tx_retention_metrics.prom", "tx_retention.csv")}
    for path in (*fig06.values(), *tx.values()):
        assert os.path.getsize(path) > 0, f"{path}: empty"

    for path in (fig06["fig06_trace.json"],
                 tx["tx_retention_trace.json"]):
        doc = json.load(open(path))
        events = doc["traceEvents"]
        assert events, f"{path}: no events"
        for e in events:
            assert "ph" in e and "pid" in e and "name" in e, e
            if e["ph"] in ("X", "i"):
                assert "ts" in e and "tid" in e, e
            if e["ph"] == "C":
                assert "value" in e["args"], e
        print(f"{path}: {len(events)} events ok")

    # The sampled run must carry counter tracks for throughput,
    # QPI crossings, and per-PF health.
    doc = json.load(open(fig06["fig06_trace.json"]))
    tracks = {e["name"] for e in doc["traceEvents"]
              if e["ph"] == "C"}
    for want in ("rx_gbps", "qpi_gbps", "qpi_crossings_per_s",
                 "pf0_health_weight"):
        assert want in tracks, f"missing counter track {want}"
    print(f"counter tracks ok: {sorted(tracks)}")

    report = json.load(open(fig06["fig06_report.json"]))
    assert report["schema"] == "octo.report.v1", report["schema"]
    runs = {r["run"] for r in report["runs"]}
    assert {"local", "remote", "ioctopus"} <= runs, runs
    for r in report["runs"]:
        assert r["series"], f"{r['run']}: no series"
        for s in r["series"]:
            assert len(s["values"]) == len(r["time_ms"]), s["name"]
        names = {s["name"] for s in r["series"]}
        assert "rx_gbps" in names, names
    print(f"report ok: {len(report['runs'])} runs")

    local = remote = 0
    e2e = {}
    for line in open(fig06["fig06_metrics.prom"]):
        if 'dev="octoNIC"' not in line:
            continue
        name, value = line.rsplit(" ", 1)
        for run in ("remote", "ioctopus"):
            if f'run="{run}"' in line:
                if name.startswith("latency_e2e_ns_sum"):
                    e2e.setdefault(run, {})["sum"] = float(value)
                elif name.startswith("latency_e2e_ns_count"):
                    e2e.setdefault(run, {})["count"] = int(value)
        if 'run="ioctopus"' not in line:
            continue
        if name.startswith("dma_local_bytes"):
            local += int(value)
        elif name.startswith("dma_remote_bytes"):
            remote += int(value)
    total = local + remote
    assert total > 0, "no octoNIC DMA bytes in the ioctopus run"
    frac = local / total
    assert frac >= 0.99, f"ioctopus local fraction {frac:.4f} < 0.99"
    assert remote / total <= 0.05, f"remote bytes {remote} too high"
    print(f"ioctopus locality ok: {frac:.4%} local")

    # End-to-end latency must show the NUDMA penalty.
    means = {run: v["sum"] / v["count"] for run, v in e2e.items()}
    assert means["remote"] > means["ioctopus"], means
    print(f"e2e latency ok: remote {means['remote']:.0f} ns > "
          f"ioctopus {means['ioctopus']:.0f} ns")


if __name__ == "__main__":
    main(*sys.argv[1:3])
