"""Run the whole benchmark, or check that one workload's figures are steady.

    python3 perfbench/suite.py all
    python3 perfbench/suite.py steady --workload NAME [--runs 10]

Every run lasts BENCHMARK.json's run_seconds.  `all` runs every workload in
BENCHMARK.json at the default seed in its own fresh process, one at a time:
first untraced (the end-to-end metrics), then traced (the per-layer metrics).  It prints each metric by name with its unit, the item
counts and fail ratio, and the traced and untraced wall time side by side.

`steady` runs one workload N times with seeds 1 .. N
and prints, for each end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound.

Both exit non-zero if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int):
    """One fresh run.py process; returns (result, detail) or raises on failure."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    detail = next(json.loads(l[7:]) for l in lines if l.startswith("detail "))
    return json.loads(lines[-1]), detail


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_all(spec) -> int:
    seed = json.loads((HERE / "expected.json").read_text())["default_seed"]
    for wl in spec["workloads"]:
        name = wl["name"]
        result, detail = run_once(spec, name, seed, 0)
        traced, tdetail = run_once(spec, name, seed, 1)
        print(f"== {name}: {wl['why']}")
        print(f"   items/pass {detail['items_per_pass']}, passes {detail['passes']}, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"fail_ratio {_fmt(result['failed'] / result['attempted'])}")
        print(f"   {'first_pass_s':<16} {_fmt(detail['first_pass_s']):>12} s  (cold pass, no bound)")
        for metric in spec["end_to_end"]:
            m = result["metrics"][metric["name"]]
            extra = ""
            if metric["name"] == "item_tail_ms":
                extra = (f"  (p{detail['item_tail_percentile']:g} of {detail['item_samples']} "
                         f"samples, {detail['item_tail_beyond']} beyond)")
            elif metric["name"] == "item_p50_ms":
                extra = f"  ({detail['item_samples']} samples)"
            print(f"   {metric['name']:<16} {_fmt(m['value']):>12} {m['unit']}{extra}")
        t = traced["metrics"]
        print(f"   wall_s untraced {_fmt(result['metrics']['wall_s']['value'])} s | "
              f"traced {_fmt(t['trace.wall_s']['value'])} s (same-process untraced "
              f"{_fmt(t['trace.untraced_wall_s']['value'])} s, overhead "
              f"{_fmt(t['trace.overhead_s']['value'])} s; less the calibrated span cost "
              f"{_fmt(t['trace.corrected_wall_s']['value'])} s), {tdetail['spans']} spans")
        for metric in spec["per_layer"]:
            m = t[metric["name"]]
            print(f"   {metric['name']:<28} {_fmt(m['value']):>12} {m['unit']}")
        print(f"   env: nproc {detail['nproc']}, {detail['cpu']}, python {detail['python']}, "
              f"numpy {detail['numpy']}, sha {detail['git_sha']}, caps {detail['thread_caps']}, "
              f"seed {detail['seed']}")
    return 0


def run_steady(args, spec) -> int:
    runs, firsts = [], []
    for k in range(args.runs):
        result, detail = run_once(spec, args.workload, k + 1, 0)
        runs.append(result["metrics"])
        firsts.append(detail["first_pass_s"])
        print(f"run {k + 1}/{args.runs}: " + ", ".join(
            f"{n}={_fmt(m['value'])}" for n, m in result["metrics"].items()), flush=True)
    report = {}
    print(f"== {args.workload}: {args.runs} runs, seeds 1..{args.runs}")
    for metric in spec["end_to_end"]:
        values = [r[metric["name"]]["value"] for r in runs]
        q1, med, q3, spread = quartile_spread(values)
        verdict = ("ok" if spread <= metric["bound"] / 3 else
                   "within bound" if spread <= metric["bound"] else "UNSTEADY")
        report[metric["name"]] = {"values": values, "q1": q1, "median": med, "q3": q3,
                                  "spread": spread, "bound": metric["bound"]}
        print(f"   {metric['name']:<14} median {_fmt(med):>10}  q1 {_fmt(q1):>10}  "
              f"q3 {_fmt(q3):>10}  spread {spread:.3f}  bound {metric['bound']}  {verdict}")
    q1, med, q3, spread = quartile_spread(firsts)
    report["first_pass_s"] = {"values": firsts, "q1": q1, "median": med, "q3": q3,
                              "spread": spread, "bound": None}
    print(f"   first_pass_s   median {_fmt(med):>10}  q1 {_fmt(q1):>10}  q3 {_fmt(q3):>10}  "
          f"spread {spread:.3f}  (reported only, no bound)")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("all", help="every workload, untraced then traced")
    p_steady = sub.add_parser("steady", help="spread of one workload over N runs")
    p_steady.add_argument("--workload", required=True)
    p_steady.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    spec = load_spec()
    try:
        return run_all(spec) if args.mode == "all" else run_steady(args, spec)
    except RuntimeError as err:
        print(f"suite.py: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
