#!/usr/bin/env python3
"""Tests for the benchmark's own arithmetic and checks.

    python3 perfbench/test_run.py

The last test builds the runner (as run.py does) and simulates one
kernel_stream point sliced and unsliced.
"""

import copy
import json
import subprocess
import unittest

import run


def point(pid="ioctopus/64B", window=1000, **sim):
    """A synthetic runner point with every field the checks read."""
    preset, param = pid.split("/", 1)
    base = {"window_bytes": window, "nic_rx_frames": 10, "nic_tx_frames": 0,
            "nic_rx_drops": 0, "pcie_dma_write_bytes": 100,
            "pcie_dma_read_bytes": 0, "topo_qpi_bytes": 0,
            "topo_dram_bytes": 0, "accmon_promotions": 0,
            "accmon_demotions": 0}
    base.update(sim)
    return {
        "id": pid, "preset": preset, "param": param, "sim": base, "obs": {},
        "layers": {"events": 500, "cold_callbacks": 0, "pool_slots": 1024,
                   "domain_events": {"untagged": 100, "node0": 400},
                   "os_rx_packets": 50, "os_rx_bytes": 5000,
                   "bypass_polls": 0, "bypass_empty_polls": 0,
                   "obs_attr_records": 0, "obs_flow_evictions": 0,
                   "accmon_records": 0, "accmon_overhead_ns": 0,
                   "accmon_regions": 0},
        "check": {"negative_delays": 0, "progress": True},
        "host": {"build_s": 0.001, "start_s": 0.0001, "run_s": 0.05,
                 "read_s": 0.0001, "export_s": 0.0, "teardown_s": 0.0002,
                 "wall_s": 0.052, "sim_ms": 30.0},
        "slices_ms": [10.0, 15.0, 25.0],
    }


def stream_pass(ioct=1000, local=1000, remote=900, traced=False):
    pts = []
    for preset, w in (("local", local), ("remote", remote),
                      ("ioctopus", ioct)):
        pts.append(point("%s/64B" % preset, window=w))
        if traced:
            pts[-1]["slices_ms"] = [0.1 * i for i in range(1, 41)]
    return {"traced": traced, "wall_s": 0.2, "points": pts, "replays": []}


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        value, pct, beyond, n = run.tail(list(range(1, 101)))
        self.assertEqual(value, 90)
        self.assertEqual(beyond, 10)
        self.assertEqual(n, 100)
        self.assertAlmostEqual(pct, 90.0)

    def test_order_does_not_matter(self):
        self.assertEqual(run.tail(list(range(200, 0, -1)))[0], 190)

    def test_too_few_samples(self):
        self.assertIsNone(run.tail(list(range(10))))
        value, pct, beyond, n = run.tail(list(range(11)))
        self.assertEqual((value, beyond, n), (0, 10, 11))

    def test_printed_with_its_sample_count(self):
        doc = {"passes": [stream_pass(), stream_pass(traced=True)]}
        _, notes = run.per_layer(doc)
        line = [n for n in notes if n.startswith("sim.slice_ms_tail")][0]
        self.assertIn("10 of 120 slices beyond it", line)


class Ratios(unittest.TestCase):
    def test_ratio_carries_its_base(self):
        self.assertEqual(run.ratio(6, 3), {"value": 2.0, "num": 6, "den": 3})
        self.assertEqual(run.ratio(5, 0)["value"], 0.0)
        self.assertEqual(run.ratio(5, 0)["den"], 0)

    def test_every_ratio_base_is_a_reported_metric(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        for name, (num, den, _) in run.RATIOS.items():
            self.assertIn(name, names)
            self.assertIn(num, names)
            self.assertIn(den, names)

    def test_every_ratio_is_printed_with_its_base(self):
        doc = {"passes": [stream_pass(), stream_pass(traced=True)]}
        values, notes = run.per_layer(doc)
        for name, (num, den, _) in run.RATIOS.items():
            line = [n for n in notes if n.startswith(name + " =")][0]
            self.assertIn("(%s " % num, line)
            self.assertIn(" / %s " % den, line)
        self.assertAlmostEqual(values["os.events_per_packet"],
                               values["sim.events"] / values["os.rx_packets"])

    def test_end_to_end_rate_states_its_base(self):
        doc = {"passes": [stream_pass(), stream_pass()], "peak_rss_kb": 2048}
        values, notes = run.end_to_end(doc)
        self.assertEqual(values["peak_rss_mb"][0], 2.0)
        self.assertAlmostEqual(values["sim_ms_per_s"][0], 90.0 / 0.15)
        self.assertIn("simulated ms 90", notes[0])


class LeastDisturbed(unittest.TestCase):
    def test_each_slice_at_its_fastest_pass(self):
        a, b = stream_pass(), stream_pass()
        for x in a["points"]:
            x["slices_ms"] = [10.0, 40.0, 25.0]
        for x in b["points"]:
            x["slices_ms"] = [30.0, 15.0, 25.0]
            x["host"]["wall_s"] = 0.1
        run_s, wall_s = run.least_disturbed([a, b])
        self.assertAlmostEqual(run_s, 3 * 0.050)
        # Outside the simulator: min(0.052, 0.1) - 0.05 per point.
        self.assertAlmostEqual(wall_s, 3 * 0.050 + 3 * 0.002)


class Digest(unittest.TestCase):
    def test_ignores_event_counts_and_host_times(self):
        a = point()
        b = copy.deepcopy(a)
        b["layers"]["events"] += 12345
        b["layers"]["domain_events"]["node0"] += 7
        b["layers"]["pool_slots"] *= 2
        b["host"]["run_s"] *= 3
        b["host"]["wall_s"] += 1.0
        b["slices_ms"] = [1.0]
        self.assertEqual(run.point_digest(a), run.point_digest(b))
        self.assertEqual(run.model_digest(a), run.model_digest(b))

    def test_follows_simulated_results(self):
        a = point()
        b = copy.deepcopy(a)
        b["sim"]["window_bytes"] += 1
        self.assertNotEqual(run.point_digest(a), run.point_digest(b))
        c = copy.deepcopy(a)
        c["obs"]["dma_local_bytes"] = 1
        self.assertNotEqual(run.point_digest(a), run.point_digest(c))
        self.assertEqual(run.model_digest(a), run.model_digest(c))


class Checks(unittest.TestCase):
    def test_clean_passes(self):
        attempted, failures = run.check_passes(
            "kernel_stream", 1, [stream_pass(), stream_pass()], {})
        self.assertEqual((attempted, failures), (6, []))

    def test_ioctopus_parity(self):
        _, failures = run.check_passes("kernel_stream", 1,
                                       [stream_pass(ioct=1002)], {})
        self.assertEqual(len(failures), 1)
        self.assertIn("ioctopus 1002 vs local 1000", failures[0])
        _, failures = run.check_passes("kernel_stream", 1,
                                       [stream_pass(remote=1000)], {})
        self.assertIn("not above remote", failures[0])

    def test_reference_and_pass_to_pass_digests(self):
        p = stream_pass()
        ref = {"kernel_stream": {"local/64B": "0" * 16}}
        _, failures = run.check_passes("kernel_stream", 7, [p], ref)
        self.assertIn("reference", failures[0])
        q = stream_pass()
        q["points"][0]["sim"]["nic_rx_frames"] += 1
        _, failures = run.check_passes("kernel_stream", 1, [p, q], {})
        self.assertIn("differs between passes", failures[0])

    def test_seeded_reference_only_on_default_seed(self):
        p = {"traced": False, "wall_s": 1.0, "replays": [],
             "points": [point("remote/s1.2/1000f")]}
        ref = {"zipf_observed": {"remote/s1.2/1000f": "0" * 16}}
        self.assertEqual(run.check_passes("zipf_observed", 2, [p], ref)[1],
                         [])
        self.assertEqual(
            len(run.check_passes("zipf_observed", run.DEFAULT_SEED, [p],
                                 ref)[1]), 1)

    def test_conservation_and_progress(self):
        x = point("remote/s0.9/100000f")
        x["check"].update(flow_local_bytes=5, dma_local_bytes=6,
                          flow_remote_bytes=1, dma_remote_bytes=1,
                          negative_delays=1, progress=False)
        why = run.point_failures(x, None)
        self.assertEqual(len(why), 3)

    def test_detached_replay_must_match(self):
        x = point("remote/s1.2/1000f")
        r = copy.deepcopy(x)
        r["id"] += "/detached"
        self.assertEqual(run.point_failures(x, None, r), [])
        r["sim"]["nic_rx_drops"] = 3
        self.assertEqual(run.point_failures(x, None, r),
                         ["hub-detached replay digest differs"])


class SlicedStepping(unittest.TestCase):
    """A sliced and an unsliced run of one kernel_stream point agree."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def digests(self, slice_ns):
        res = subprocess.run(
            [str(run.RUNNER), "--workload", "kernel_stream", "--seconds", "0",
             "--min-passes", "1", "--only", "ioctopus/16384B",
             "--slice-ns", str(slice_ns)],
            capture_output=True, text=True, check=True)
        (pt,) = json.loads(res.stdout)["passes"][0]["points"]
        self.assertEqual(pt["sim"]["sim_ps"], 30_000_000_000)
        return run.point_digest(pt)

    def test_slices_do_not_change_results(self):
        whole = self.digests(0)
        self.assertEqual(self.digests(250_000), whole)
        self.assertEqual(self.digests(37_500), whole)
        self.assertEqual(self.digests(1_000_000), whole)
        ref = json.loads(run.REFERENCE.read_text())["kernel_stream"]
        self.assertEqual(whole, ref["ioctopus/16384B"])


if __name__ == "__main__":
    unittest.main()
