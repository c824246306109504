#!/usr/bin/env python3
"""Run the default bound sweep and summarize row statuses.

Streams the CSV to stdout (or --out) and prints a status tally to stderr;
exits 2 when any bound fails, mirroring `ffgeom sweep`.
"""

import argparse
import sys
from collections import Counter

from ffgeom.experiments import ExperimentConfig, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    args = ap.parse_args()

    config = ExperimentConfig()
    if args.out is None:
        result = run_sweep(config, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            result = run_sweep(config, fh)

    tally = Counter(row.status for row in result.rows)
    summary = "  ".join(f"{status}={n}" for status, n in sorted(tally.items()))
    print(f"{len(result.rows)} rows: {summary}", file=sys.stderr)
    for row in result.failures:
        print("FAIL " + ",".join(row.record()), file=sys.stderr)
    return 2 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())
