#!/usr/bin/env python3
"""Golden-report equivalence check for the event-core refactor.

Runs a bench binary in a scratch directory with sampling enabled and
compares the ``report.json`` it writes byte-for-byte against the golden
copy captured from the seed (priority-queue) event core. The simulator
is a deterministic DES — same seed, same event order, same formatted
output — so any byte difference means the timer wheel changed model
behaviour, not just performance.

With ``--compare`` it runs nothing and compares a report some earlier
run already wrote (ctest's bench run that a golden shares with its
acceptance check).

Usage:
    python3 tools/check_golden.py <bench-binary> <report-name> \
        <golden-file> [bench-arg ...]
    python3 tools/check_golden.py --compare <report-file> <golden-file>

Arguments after the golden file are passed to the bench as they are.

Example:
    python3 tools/check_golden.py build/bench/bench_fig06_tcp_rx \
        fig06_report.json tests/golden/fig06_report.json
    python3 tools/check_golden.py --compare \
        build/bench/chaos_soak_check/chaos_soak_report.json \
        tests/golden/chaos_soak_report.json
"""

import os
import subprocess
import sys
import tempfile


def read_report(path, writer):
    """The bytes of report @p path, or None (with a FAIL line) when
    @p writer wrote none."""
    if not os.path.exists(path):
        print(f"FAIL: {writer} wrote no {os.path.basename(path)}",
              file=sys.stderr)
        return None
    with open(path, "rb") as f:
        return f.read()


def compare(got, report_name, golden_path):
    """Byte-compare @p got with the golden file; 0 when equal."""
    with open(golden_path, "rb") as f:
        want = f.read()

    if got != want:
        print(f"FAIL: {report_name} differs from golden "
              f"{golden_path} ({len(got)} vs {len(want)} bytes)",
              file=sys.stderr)
        # Locate the first differing byte for a usable error message.
        n = min(len(got), len(want))
        for i in range(n):
            if got[i] != want[i]:
                lo = max(0, i - 60)
                print(f"first difference at byte {i}:", file=sys.stderr)
                print(f"  got:    ...{got[lo:i + 60]!r}",
                      file=sys.stderr)
                print(f"  golden: ...{want[lo:i + 60]!r}",
                      file=sys.stderr)
                break
        return 1
    print(f"ok: {report_name} is byte-identical to {golden_path} "
          f"({len(got)} bytes)")
    return 0


def main(argv):
    if len(argv) == 4 and argv[1] == "--compare":
        produced = os.path.abspath(argv[2])
        got = read_report(produced, "the bench run")
        if got is None:
            return 1
        return compare(got, os.path.basename(produced),
                       os.path.abspath(argv[3]))
    if len(argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    bench = os.path.abspath(argv[1])
    report_name = argv[2]
    golden_path = os.path.abspath(argv[3])

    with tempfile.TemporaryDirectory(prefix="octo_golden_") as tmp:
        proc = subprocess.run(
            [bench, "--sample-us", "1000", *argv[4:]],
            cwd=tmp,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.STDOUT,
            check=False,
        )
        if proc.returncode != 0:
            print(f"FAIL: {bench} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        got = read_report(os.path.join(tmp, report_name), bench)
    if got is None:
        return 1
    return compare(got, report_name, golden_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
