#!/usr/bin/env python3
"""Golden-report equivalence check for the event-core refactor.

Compares a ``report.json`` a sampled bench run wrote byte-for-byte
against the golden copy captured from the seed (priority-queue) event
core. The simulator is a deterministic DES — same seed, same event
order, same formatted output — so any byte difference means a change
moved model behaviour, not just performance. ctest's fixture setups
(``bench.<name>_run``) write the reports it reads.

Usage:
    python3 tools/check_golden.py <report-file> <golden-file>

Example:
    python3 tools/check_golden.py \
        build/bench/fig06_tcp_rx_check/fig06_report.json \
        tests/golden/fig06_report.json
"""

import os
import sys


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    report_path = os.path.abspath(argv[1])
    golden_path = os.path.abspath(argv[2])
    report_name = os.path.basename(report_path)
    if not os.path.exists(report_path):
        print(f"FAIL: the bench run wrote no {report_name}",
              file=sys.stderr)
        return 1
    with open(report_path, "rb") as f:
        got = f.read()
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


if __name__ == "__main__":
    sys.exit(main(sys.argv))
