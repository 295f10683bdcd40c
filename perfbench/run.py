#!/usr/bin/env python3
"""Simulator-cost benchmark for octo-sim.

Builds the simulator library and the benchmark runner from source
(Release, into .bench_build/ at the repository root), runs one workload
for the requested host time, checks every simulated point, and prints
the metrics. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload kernel_stream --seed 1 \\
        --seconds 30 --trace 0

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
measured on untraced passes. With --trace 1 they are its per_layer
metrics, from traced passes interleaved with untraced ones; the span
log is written to .bench_build/perfbench-traces/.

--write-reference records the digests of a run as the reference
(perfbench/reference.json); use it only when a change is meant to move
simulated results, and say so in the change.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD / "perfbench_runner"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("kernel_stream", "poll_pktgen", "zipf_observed")
SEEDED = {"zipf_observed"}
DEFAULT_SEED = 1
# Largest relative gap allowed between ioctopus and local throughput.
PARITY_TOLERANCE = 0.001
# Every run exits within this many seconds; the first run in a fresh
# checkout, which builds, within the second.
RUN_BUDGET_S = 170.0
FIRST_RUN_BUDGET_S = 880.0

# Ratio metrics and their bases: (numerator, denominator, scale).
RATIOS = {
    "sim.ns_per_event": ("sim.run_s", "sim.events", 1e9),
    "os.events_per_packet": ("sim.events", "os.rx_packets", 1.0),
    "obs.us_per_record": ("obs.cost_s", "obs.attr_records", 1e6),
}
DOMAIN_TAGS = ("untagged", "node0", "node1", "dev0", "dev1",
               "node0.dev0", "node0.dev1", "node1.dev0", "node1.dev1")
# The paper's Fig. 6 ioctopus/remote receive throughput ratios
# (EXPERIMENTS.md): 1.08 for small messages, 1.24-1.26 past the MTU.
PAPER_IOCT_OVER_REMOTE = {"64B": (1.08, 1.08), "16384B": (1.24, 1.26),
                          "65536B": (1.24, 1.26)}


class BenchError(Exception):
    """A condition that stops the benchmark without a result."""


# ----------------------------------------------------------- arithmetic

def digest(fields):
    """Stable short hash of a JSON-able value."""
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def model_digest(point):
    """Digest of the hub-independent simulated results of a point."""
    return digest(point["sim"])


def point_digest(point):
    """Digest of every simulated result of a point: model counters plus
    the registry's DMA totals and latency histograms. Event counts,
    pool statistics and host times are never part of it."""
    return digest({"sim": point["sim"], "obs": point["obs"]})


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond, sample count), or None
    when there are too few samples for any such percentile."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return None
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - k - 1, n


def ratio(num, den, scale=1.0):
    """num / den * scale with its base; the value is 0 when den is 0."""
    value = num / den * scale if den else 0.0
    return {"value": value, "num": num, "den": den}


# ------------------------------------------------------------- checking

def point_failures(point, ref, replay=None):
    """Reasons one point fails its correctness check (empty: passes)."""
    out = []
    if point["check"].get("negative_delays", 0) != 0:
        out.append("negative delays")
    if not point["check"].get("progress", False):
        out.append("no progress")
    c = point["check"]
    if "flow_local_bytes" in c:
        if (c["flow_local_bytes"] != c["dma_local_bytes"]
                or c["flow_remote_bytes"] != c["dma_remote_bytes"]):
            out.append("flow rows + ~other != PF dma bytes")
    if ref is not None and point_digest(point) != ref:
        out.append("digest %s != reference %s" % (point_digest(point), ref))
    if replay is not None and model_digest(replay) != model_digest(point):
        out.append("hub-detached replay digest differs")
    return out


def parity_failures(points, unit):
    """ioctopus within PARITY_TOLERANCE of local and above remote, at
    every size, measured by the window count @p unit."""
    by = {(p["preset"].replace("-poll", ""), p["param"]): p["sim"][unit]
          for p in points}
    out = {}
    for (preset, param), ioct in by.items():
        if preset != "ioctopus":
            continue
        local = by.get(("local", param))
        remote = by.get(("remote", param))
        if local is None or remote is None:
            continue
        why = []
        if abs(ioct - local) > PARITY_TOLERANCE * local:
            why.append("ioctopus %d vs local %d" % (ioct, local))
        if not ioct > remote:
            why.append("ioctopus %d not above remote %d" % (ioct, remote))
        if why:
            out[param] = why
    return out


def check_passes(workload, seed, passes, reference):
    """Check every point of every pass; returns (attempted, failures)."""
    refs = reference.get(workload, {})
    if workload in SEEDED and seed != DEFAULT_SEED:
        refs = {}
    first = {}
    attempted = 0
    failures = []
    parity_unit = {"kernel_stream": "window_bytes",
                   "poll_pktgen": "window_frames"}.get(workload)
    for i, p in enumerate(passes):
        replays = {r["id"].replace("/detached", ""): r for r in p["replays"]}
        parity = (parity_failures(p["points"], parity_unit)
                  if parity_unit else {})
        for pt in p["points"] + p["replays"]:
            attempted += 1
            pid = pt["id"]
            why = point_failures(pt, refs.get(pid), replays.get(pid))
            if pt["preset"].startswith("ioctopus") and pt["param"] in parity:
                why += parity[pt["param"]]
            d = point_digest(pt) if not pid.endswith("/detached") else None
            if d is not None and first.setdefault(pid, d) != d:
                why.append("digest differs between passes")
            if why:
                failures.append("pass %d %s: %s" % (i, pid, "; ".join(why)))
    return attempted, failures


# ---------------------------------------------------------- aggregation

def pass_sum(p, key):
    return sum(x["host"][key] for x in p["points"])


def per_point(passes, fn):
    """{point id: [fn(point) for each pass]}."""
    out = {}
    for p in passes:
        for x in p["points"]:
            out.setdefault(x["id"], []).append(fn(x))
    return out


def least_disturbed(passes):
    """(run_s, wall_s) of one pass at its least disturbed.

    Host slowdowns on a shared machine only ever add time, and every
    pass repeats the same simulated work slice by slice. So run_s sums,
    over every point and every simulated slice, that slice's fastest
    host time across the passes; wall_s adds each point's fastest time
    outside the simulator (build, start, read, export, teardown)."""
    slices = per_point(passes, lambda x: x["slices_ms"])
    outside = per_point(passes,
                        lambda x: x["host"]["wall_s"] - x["host"]["run_s"])
    run_s = sum(sum(map(min, zip(*v))) for v in slices.values()) / 1e3
    return run_s, run_s + sum(min(v) for v in outside.values())


def end_to_end(doc):
    """The user-visible metrics over the untraced passes: wall_s and
    sim_ms_per_s at the least disturbed (see least_disturbed), setup_s
    as the sum of every point's median set-up time (testbed
    construction plus generator start)."""
    passes = [p for p in doc["passes"] if not p["traced"]]
    setups = per_point(passes,
                       lambda x: x["host"]["build_s"] + x["host"]["start_s"])
    sim_ms = pass_sum(passes[0], "sim_ms")
    run_s, wall_s = least_disturbed(passes)
    rate = ratio(sim_ms, run_s)
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
        "sim_ms_per_s": (rate["value"], "ms/s"),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MiB"),
    }, ["sim_ms_per_s = %.6g (simulated ms %.0f / host s in the simulator "
        "%.6g, each slice's fastest of %d passes)"
        % (rate["value"], rate["num"], rate["den"], len(passes))]


def layer_counts(points):
    """Per-layer counts summed (or maxed) over one pass's points."""
    def total(group, key):
        return sum(x[group].get(key, 0) for x in points)

    m = {
        "sim.events": total("layers", "events"),
        "sim.cold_callbacks": total("layers", "cold_callbacks"),
        "sim.pool_slots": max(x["layers"]["pool_slots"] for x in points),
        "os.rx_packets": total("layers", "os_rx_packets"),
        "os.rx_bytes": total("layers", "os_rx_bytes"),
        "bypass.polls": total("layers", "bypass_polls"),
        "bypass.empty_polls": total("layers", "bypass_empty_polls"),
        "obs.attr_records": total("layers", "obs_attr_records"),
        "obs.flow_evictions": total("layers", "obs_flow_evictions"),
        "obs.series": total("layers", "obs_series"),
        "accmon.records": total("layers", "accmon_records"),
        "accmon.regions": max(x["layers"]["accmon_regions"] for x in points),
        "accmon.promotions": total("sim", "accmon_promotions"),
        "accmon.demotions": total("sim", "accmon_demotions"),
        "nic.rx_frames": total("sim", "nic_rx_frames"),
        "nic.tx_frames": total("sim", "nic_tx_frames"),
        "nic.rx_drops": total("sim", "nic_rx_drops"),
        "pcie.dma_write_bytes": total("sim", "pcie_dma_write_bytes"),
        "pcie.dma_read_bytes": total("sim", "pcie_dma_read_bytes"),
        "topo.qpi_bytes": total("sim", "topo_qpi_bytes"),
        "topo.dram_bytes": total("sim", "topo_dram_bytes"),
    }
    tags = dict.fromkeys(DOMAIN_TAGS, 0)
    other = 0
    for x in points:
        for tag, n in x["layers"]["domain_events"].items():
            if tag in tags:
                tags[tag] += n
            else:
                other += n
    for tag, n in tags.items():
        m["sim.events." + tag] = n
    m["sim.events.other"] = other
    return m


def per_layer(doc):
    """The per-layer metrics of a traced run, with ratio bases."""
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    if not traced or not plain:
        raise BenchError("a traced run needs traced and untraced passes")

    def med(fn, passes=traced):
        return statistics.median(fn(p) for p in passes)

    m = layer_counts(traced[-1]["points"])
    m["core.build_s"] = med(lambda p: pass_sum(p, "build_s"))
    m["core.teardown_s"] = med(lambda p: pass_sum(p, "teardown_s"))
    m["workloads.start_s"] = med(lambda p: pass_sum(p, "start_s"))
    m["sim.run_s"] = med(lambda p: pass_sum(p, "run_s"))
    m["obs.export_s"] = med(lambda p: pass_sum(p, "export_s"))
    m["accmon.overhead_s"] = sum(
        x["layers"]["accmon_overhead_ns"] for x in traced[-1]["points"]) / 1e9

    slices = [s for p in traced for x in p["points"] for s in x["slices_ms"]]
    t = tail(slices)
    m["sim.slices"] = len(slices)
    m["sim.slice_ms_p50"] = statistics.median(slices)
    m["sim.slice_ms_tail"] = t[0] if t else 0.0
    m["sim.slice_tail_pct"] = t[1] if t else 0.0

    # obs.cost_s: the hub-attached points' simulator time minus their
    # hub-detached replays', per traced round.
    def obs_cost(p):
        if not p["replays"]:
            return 0.0
        return pass_sum(p, "run_s") - sum(r["host"]["run_s"]
                                          for r in p["replays"])
    m["obs.cost_s"] = med(obs_cost)

    # Tracing overhead: wall_s of the traced passes minus that of the
    # untraced ones, both at the least disturbed.
    m["trace.untraced_wall_s"] = least_disturbed(plain)[1]
    m["trace.overhead_s"] = (least_disturbed(traced)[1]
                             - m["trace.untraced_wall_s"])

    notes = []
    for name, (num, den, scale) in RATIOS.items():
        r = ratio(m[num], m[den], scale)
        m[name] = r["value"]
        notes.append("%s = %.6g (%s %.6g / %s %.6g)"
                     % (name, r["value"], num, r["num"], den, r["den"]))
    r = ratio(m["bypass.empty_polls"], m["bypass.polls"])
    m["bypass.useful_poll_ratio"] = 1.0 - r["value"] if r["den"] else 0.0
    notes.append("bypass.useful_poll_ratio = %.6g (1 - bypass.empty_polls "
                 "%d / bypass.polls %d)" % (m["bypass.useful_poll_ratio"],
                                            r["num"], r["den"]))
    if t:
        notes.append("sim.slice_ms_tail = p%.2f = %.4f ms (%d of %d slices "
                     "beyond it)" % (t[1], t[0], t[2], t[3]))
    notes.append("trace.overhead_s = traced %.4f s - untraced %.4f s over "
                 "the same points" % (m["trace.untraced_wall_s"]
                                      + m["trace.overhead_s"],
                                      m["trace.untraced_wall_s"]))
    return m, notes


# ------------------------------------------------------ build and run

def provenance(doc):
    rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = res.stdout.strip() or None
    h = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return {"build_type": doc["build_type"], "compiler": doc["compiler"],
            "git_rev": rev, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "slice_ns": doc["slice_ns"]}


def build():
    """Configure (once) and build the runner. Returns (seconds spent,
    whether this was a fresh configure)."""
    if not (ROOT / "src" / "core" / "testbed.hpp").is_file():
        raise BenchError("no simulator sources under %s" % (ROOT / "src"))
    t0 = time.monotonic()
    BUILD.mkdir(parents=True, exist_ok=True)
    fresh = not (BUILD / "CMakeCache.txt").exists()
    log = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if fresh:
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            res = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if res.returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError("build failed: %s" % " ".join(cmd))
    return time.monotonic() - t0, fresh


def run_runner(args, budget):
    cmd = [str(RUNNER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = BUILD.parent / "perfbench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / ("%s-seed%d.json" % (args.workload, args.seed))),
                "--min-passes", "1"]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=budget)
    except subprocess.TimeoutExpired:
        raise BenchError("runner exceeded %.0f s" % budget)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise BenchError("runner exited with %d" % res.returncode)
    return json.loads(res.stdout)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchError("missing %s" % path)


def model_error(workload, points):
    """The simulated results' error against the paper, where the paper
    has a reference; every other workload is reported unvalidated."""
    if workload != "kernel_stream":
        return ["model error: %s has no paper reference (unvalidated)"
                % workload]
    tput = {(x["preset"], x["param"]): x["sim"]["window_bytes"]
            for x in points}
    out = []
    for param, (lo, hi) in PAPER_IOCT_OVER_REMOTE.items():
        if ("ioctopus", param) not in tput or ("remote", param) not in tput:
            continue
        r = ratio(tput[("ioctopus", param)], tput[("remote", param)])
        err = 0.0 if lo <= r["value"] <= hi else (
            r["value"] / (lo if r["value"] < lo else hi) - 1.0)
        out.append("model error: ioctopus/remote at %s = %.4f (window "
                   "bytes %d / %d); paper %s; error %+.1f%%"
                   % (param, r["value"], r["num"], r["den"],
                      "%.2f" % lo if lo == hi else "%.2f-%.2f" % (lo, hi),
                      100.0 * err))
    return out


def print_points(doc):
    last = [p for p in doc["passes"] if p["traced"] == bool(doc.get("trace"))]
    p = (last or doc["passes"])[-1]
    print("# point                        digest            window   "
          "run_s    events")
    for x in p["points"] + p["replays"]:
        window = x["sim"].get("window_bytes", x["sim"].get("window_frames"))
        print("# %-28s %s %9d %7.4f %9d" % (
            x["id"], point_digest(x), window, x["host"]["run_s"],
            x["layers"]["events"]))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    t0 = time.monotonic()
    try:
        spec = load_json(ROOT / "BENCHMARK.json")
        build_s, fresh = build()
        limit = FIRST_RUN_BUDGET_S if fresh else RUN_BUDGET_S
        doc = run_runner(args, limit - (time.monotonic() - t0))
        doc["trace"] = args.trace
        reference = load_json(REFERENCE)
        if args.write_reference:
            if args.workload in SEEDED and args.seed != DEFAULT_SEED:
                raise BenchError("references use seed %d" % DEFAULT_SEED)
            reference.pop(args.workload, None)
        passes = doc["passes"]
        attempted, failures = check_passes(args.workload, args.seed, passes,
                                           reference)
        if args.trace:
            values, notes = per_layer(doc)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            e2e, notes = end_to_end(doc)
            values = {k: v[0] for k, v in e2e.items()}
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError("metrics not produced: %s" % ", ".join(missing))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    if args.write_reference and not failures:
        # Every other check must hold before new digests are recorded.
        reference[args.workload] = {
            x["id"]: point_digest(x) for x in passes[-1]["points"]}
        REFERENCE.write_text(json.dumps(reference, indent=2,
                                        sort_keys=True) + "\n")

    print("# provenance: %s" % json.dumps(provenance(doc), sort_keys=True))
    if args.workload in SEEDED:
        print("# seed %d draws the flow sequence" % args.seed)
    else:
        print("# seed %d: %s has no random input; the seed does not change "
              "it" % (args.seed, args.workload))
    print("# passes: %d (%d traced), %.1f s measured, build check %.1f s"
          % (len(passes), sum(p["traced"] for p in passes),
             doc["elapsed_s"], build_s))
    print_points(doc)
    for n in notes + model_error(args.workload, passes[-1]["points"]):
        print("# " + n)
    for f in failures:
        print("# FAILED " + f)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len({f.split(":")[0] for f in failures}),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
