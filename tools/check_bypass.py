#!/usr/bin/env python3
"""Acceptance checks on the traced kernel-bypass runs.

Both polled benches must carry their own throughput counter tracks and
a report with the three `-poll` presets, and at every message size
bench_bypass_rr's remote-poll p99 must exceed ioctopus-poll's:
busy-polling exposes the NUDMA term, and steering the descriptors home
closes it.

Usage:
    python3 tools/check_bypass.py [bypass_pktgen-dir [bypass_rr-dir]]

The directories hold what `bench_bypass_pktgen --trace --sample-us
1000` and `bench_bypass_rr --trace --sample-us 1000` wrote; both
default to the current directory. Exits non-zero on the first failed
assertion.
"""

import csv
import json
import os
import sys


def main(pktgen_dir=".", rr_dir="."):
    pktgen = {name: os.path.join(pktgen_dir, name)
              for name in ("bypass_pktgen_trace.json",
                           "bypass_pktgen_report.json")}
    rr = {name: os.path.join(rr_dir, name)
          for name in ("bypass_rr_trace.json", "bypass_rr_report.json",
                       "bypass_rr.csv")}
    for path in (*pktgen.values(), *rr.values()):
        assert os.path.getsize(path) > 0, f"{path}: empty"

    # The polled presets must carry their own throughput tracks.
    for path in (pktgen["bypass_pktgen_trace.json"],
                 rr["bypass_rr_trace.json"]):
        doc = json.load(open(path))
        tracks = {e["name"] for e in doc["traceEvents"]
                  if e["ph"] == "C"}
        for want in ("poll_rx_gbps", "poll_tx_gbps"):
            assert want in tracks, \
                f"{path}: missing counter track {want}"
        print(f"{path}: counter tracks ok {sorted(tracks)}")

    for path in (pktgen["bypass_pktgen_report.json"],
                 rr["bypass_rr_report.json"]):
        report = json.load(open(path))
        assert report["schema"] == "octo.report.v1"
        runs = {r["run"] for r in report["runs"]}
        assert {"local-poll", "remote-poll",
                "ioctopus-poll"} <= runs, runs
        print(f"{path}: {sorted(runs)} ok")

    # The latency claim: busy-polling exposes the NUDMA term, and
    # steering the descriptors home closes it.
    p99 = {}
    for row in csv.DictReader(open(rr["bypass_rr.csv"])):
        p99.setdefault(row["preset"], {})[int(row["bytes"])] = \
            float(row["p99_us"])
    for size, remote in sorted(p99["remote-poll"].items()):
        ioct = p99["ioctopus-poll"][size]
        assert remote > ioct, \
            f"{size}B: remote-poll p99 {remote} <= " \
            f"ioctopus-poll p99 {ioct}"
        print(f"{size}B rr p99 ok: remote-poll {remote:.3f} us"
              f" > ioctopus-poll {ioct:.3f} us")


if __name__ == "__main__":
    main(*sys.argv[1:3])
