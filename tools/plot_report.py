#!/usr/bin/env python3
"""Plot octo.report.v1/v2 run reports as time-series figures.

Every traced bench run writes ``<prefix>_report.json`` (schema
``octo.report.v1``, or ``v2`` when access-monitor region snapshots are
present): one entry per run label, each with a sample clock
(``time_ms``) and a set of named series (``poll_rx_gbps``, ``qpi_gbps``,
``weight_pf0`` ...). This tool renders them with one subplot per unit —
rates share an axis, gauge tracks get their own — and one line per
(run, series) pair, so a remote-vs-ioctopus comparison lands on the
same axes.

With ``--heatmap`` the tool instead renders each run's ``regions``
section (octo.report.v2) as a DAMON-style access heatmap: simulated
time on x, the 64-bit flow-hash space on y, color = the region's byte
rate for that aggregation interval. v1 reports — or v2 runs without
region snapshots — are skipped gracefully (the tool says so and exits
cleanly), so the flag is safe to pass unconditionally in scripts.

Usage:
    python3 tools/plot_report.py bypass_rr_report.json
    python3 tools/plot_report.py fig08_report.json -o fig08.png
    python3 tools/plot_report.py a_report.json b_report.json -o cmp.png
    python3 tools/plot_report.py zipf_report.json --heatmap -o heat.png

Only the Python standard library plus matplotlib are required; the tool
exits with a clear message when matplotlib is unavailable.
"""

import argparse
import json
import sys

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit(
        "plot_report.py: matplotlib is not installed; install it or "
        "inspect the report JSON/CSV directly"
    )

UNIT_LABEL = {
    "gbps": "throughput [Gb/s]",
    "per_s": "rate [1/s]",
    "value": "value",
}


def load_report(path):
    """Parse and schema-check one report file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    schema = doc.get("schema")
    if schema not in ("octo.report.v1", "octo.report.v2"):
        sys.exit(f"{path}: unsupported schema {schema!r}")
    runs = doc.get("runs", [])
    if not runs:
        sys.exit(f"{path}: report contains no runs")
    return runs


def collect(paths):
    """Flatten (unit -> [(label, times, values)]) across all inputs."""
    by_unit = {}
    for path in paths:
        for run in load_report(path):
            times = run.get("time_ms", [])
            for series in run.get("series", []):
                name = series.get("name")
                values = series.get("values", [])
                if not name or not values:
                    continue  # tolerate sparse/older reports
                label = f"{run.get('run', '?')}:{name}"
                if len(paths) > 1:
                    label = f"{path}:{label}"
                unit = series.get("unit", "value")
                n = min(len(times), len(values))
                by_unit.setdefault(unit, []).append(
                    (label, times[:n], values[:n])
                )
    if not by_unit:
        sys.exit("no series found in any input report")
    return by_unit


def collect_region_maps(paths):
    """Gather every run carrying an octo.report.v2 ``regions`` section
    as (label, dev, samples) triples; v1 runs simply contribute none."""
    maps = []
    for path in paths:
        for run in load_report(path):
            samples = (run.get("regions") or {}).get("samples", [])
            if not samples:
                continue
            label = run.get("run", "?")
            if len(paths) > 1:
                label = f"{path}:{label}"
            maps.append(
                (label, (run.get("regions") or {}).get("dev", "?"),
                 samples)
            )
    return maps


def render_heatmaps(maps, out, title, bins=256):
    """One DAMON-style heatmap per run: x = simulated time, y = the
    flow-hash space collapsed to [0, 1), color = region byte rate.
    Region boundaries move between snapshots (split/merge), so each
    snapshot is rasterized independently onto a fixed bin grid."""
    space = float(2**64)
    fig, axes = plt.subplots(
        len(maps),
        1,
        figsize=(9, 3.4 * len(maps)),
        squeeze=False,
        sharex=True,
    )
    for ax, (label, dev, samples) in zip(
        (row[0] for row in axes), maps
    ):
        times = [s.get("time_ms", 0.0) for s in samples]
        grid = [[0.0] * len(samples) for _ in range(bins)]
        for t, snap in enumerate(samples):
            for row in snap.get("rows", []):
                lo = int(row.get("lo", 0)) / space
                hi = int(row.get("hi", 0)) / space
                rate = float(row.get("rate_gbps", 0.0))
                b0 = min(int(lo * bins), bins - 1)
                b1 = min(int(hi * bins), bins - 1)
                for b in range(b0, b1 + 1):
                    grid[b][t] = max(grid[b][t], rate)
        im = ax.imshow(
            grid,
            aspect="auto",
            origin="lower",
            extent=[times[0], times[-1] or 1.0, 0.0, 1.0],
            cmap="inferno",
            interpolation="nearest",
        )
        fig.colorbar(im, ax=ax, label="region rate [Gb/s]")
        ax.set_ylabel("flow-hash space")
        ax.set_title(f"{label} ({dev})", fontsize=9)
    axes[-1][0].set_xlabel("simulated time [ms]")
    if title:
        fig.suptitle(title)
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}: {len(maps)} region heatmap(s)")


def main():
    ap = argparse.ArgumentParser(
        description="Plot octo.report.v1/v2 telemetry time series."
    )
    ap.add_argument("reports", nargs="+", help="*_report.json inputs")
    ap.add_argument(
        "-o",
        "--out",
        default=None,
        help="output image (default: <first input stem>.png)",
    )
    ap.add_argument(
        "--title", default=None, help="overall figure title"
    )
    ap.add_argument(
        "--heatmap",
        action="store_true",
        help="render access-monitor region heatmaps (octo.report.v2) "
        "instead of time series; a no-op on reports without regions",
    )
    args = ap.parse_args()

    if args.heatmap:
        maps = collect_region_maps(args.reports)
        if not maps:
            print(
                "no region snapshots in any input (octo.report.v1 or "
                "accmon detached) — nothing to plot"
            )
            return
        out = args.out
        if out is None:
            stem = args.reports[0]
            if stem.endswith(".json"):
                stem = stem[: -len(".json")]
            out = stem + "_heatmap.png"
        render_heatmaps(maps, out, args.title)
        return

    by_unit = collect(args.reports)
    units = sorted(by_unit)
    fig, axes = plt.subplots(
        len(units),
        1,
        figsize=(9, 3.2 * len(units)),
        squeeze=False,
        sharex=True,
    )
    for ax, unit in zip((row[0] for row in axes), units):
        for label, times, values in by_unit[unit]:
            ax.plot(times, values, label=label, linewidth=1.2)
        ax.set_ylabel(UNIT_LABEL.get(unit, unit))
        ax.grid(True, alpha=0.3)
        ax.legend(fontsize=8, loc="best")
    axes[-1][0].set_xlabel("simulated time [ms]")
    if args.title:
        fig.suptitle(args.title)
    fig.tight_layout()

    out = args.out
    if out is None:
        stem = args.reports[0]
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        out = stem + ".png"
    fig.savefig(out, dpi=150)
    n_series = sum(len(v) for v in by_unit.values())
    print(f"wrote {out}: {n_series} series across {len(units)} axes")


if __name__ == "__main__":
    main()
