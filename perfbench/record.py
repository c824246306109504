"""Regenerate perfbench/expected.json from the current code at the default seed.

    python3 perfbench/record.py

Run it only when an output is meant to change; the recorded values are what
every benchmark run is checked against.  Each workload runs its items
through the same checks as a benchmark run, with the recorded-value checks
off, and the values those checks compare are what gets written.  The sweep
is not recorded here: its reference stays tests/data/golden_sweep.csv.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "expected.json"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import run_pass  # noqa: E402


def record() -> dict:
    expected = {"default_seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.DEFAULT_SEED, None, ROOT)
        for p in range(workload.cycle):
            _, _, failures = run_pass(workload, p, 0)
            if failures:
                raise SystemExit(f"{name}: not recorded, checks fail:\n" + "\n".join(failures[:50]))
        expected[name] = workload.observed
    return expected


def main() -> int:
    OUT.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
