#!/usr/bin/env python3
"""CI gate on the guaranteed-rate spread: benign vs worst-case throughput.

    python3 benchmarks/e2e/run.py --workload benign_bulk_dense ... | tail -n 1 > benign.json
    python3 benchmarks/e2e/run.py --workload deep_state_dense  ... | tail -n 1 > deep.json
    python3 benchmarks/gate_rate_spread.py benign.json deep.json

The paper guarantees one byte per cycle whatever the traffic; the software
form is that ``deep_state_dense`` (every byte continues a rule prefix) scans
about as fast as ``benign_bulk_dense``.  Both files hold one ``run.py``
result line.  The gate is a ratio of two runs made on the same runner, so a
slow runner cannot trip it and a fast one cannot excuse it: exit 1 when
benign / deep ``throughput_mb_s`` exceeds the bound (1.48 before the lane
kernel, ~1.0 with it) or either run produced wrong output.
"""

from __future__ import annotations

import json
import sys

MAX_SPREAD = 1.3


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    results = []
    for path in argv[1:]:
        with open(path, encoding="utf-8") as handle:
            results.append(json.loads(handle.read().strip().splitlines()[-1]))
    benign, deep = (r["metrics"]["throughput_mb_s"]["value"] for r in results)
    spread = benign / deep
    print(f"benign {benign:.2f} MB/s / deep-state {deep:.2f} MB/s = {spread:.2f} "
          f"(bound {MAX_SPREAD})")
    if not all(r["correct"] and r["failed"] == 0 for r in results):
        print("gate_rate_spread: a run produced wrong output", file=sys.stderr)
        return 1
    if spread > MAX_SPREAD:
        print("gate_rate_spread: throughput depends on the traffic", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
