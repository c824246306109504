"""Run one ffgeom benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep-spectral and circles, the two in BENCHMARK.json, and sweep,
spectral and triangles-q31, which run the same way but are not part of it
(see perfbench/README.md).
Run from the repository root; the package is imported from ./src.

--seconds fixes the amount of work: a run makes max(2, round(seconds /
nominal)) passes, the first of them cold, where `nominal` is the workload's
median pass time on the reference host (2 vCPUs of an Intel Xeon).  The work
is fixed rather than time-boxed so that two versions of the code are timed
on the same items.

With --trace 0 the last line carries the end-to-end metrics.  With --trace 1
the run ignores --seconds: it makes a cold pass and five warm passes on the
same items, times the layer boundaries (perfbench/spans.py) in the middle
one, and the last line carries the per-layer metrics.  Every output is
checked; on any failed check the run prints the failures to stderr, posts no
metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# set-up children spawned after each untraced pass, so the samples spread over the run
SETUP_RUNS_PER_PASS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class CheckFailure(Exception):
    pass


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var)
        cap = min(int(current), nproc) if current and current.isdigit() else nproc
        os.environ[var] = str(cap)
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=54)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded values to check against")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (times set-up)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def build(args):
    """Import the package and build the workload's inputs: the timed set-up."""
    import workloads

    expected = json.loads(Path(args.expected).read_text())
    return workloads.WORKLOADS[args.workload](args.seed, expected, ROOT)


def run_pass(workload, pass_index, item_base):
    """One pass over the workload's items; returns (wall, latencies, failures)."""
    failures = []
    latencies = []
    start = time.perf_counter()
    items = workload.items(pass_index)
    for k, (label, call, check) in enumerate(items):
        workload.rec.set_item(item_base + k)
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as err:  # an item that raises counts as failed
            latencies.append(time.perf_counter() - t0)
            failures.append(f"{label}: raised {err!r}")
            continue
        latencies.append(time.perf_counter() - t0)
        try:
            failures += check(result)
        except Exception as err:
            failures.append(f"{label}: check raised {err!r}")
    failures += workload.check_pass()
    return time.perf_counter() - start, latencies, failures


def setup_times(args, runs: int) -> list:
    """Fresh interpreter until the inputs are ready, timed `runs` times."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--expected", args.expected, "--setup-only"]
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise CheckFailure(f"set-up child exited {code} without becoming ready")
        samples.append(elapsed)
    return samples


def environment(args, caps, items_per_pass) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "thread_caps": caps,
        "workload": args.workload,
        "seed": args.seed,
        "items_per_pass": items_per_pass,
    }


def git_sha():
    """HEAD of the checkout when it is a git work tree; read, not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, caps):
    import spans
    import stats

    t0 = time.perf_counter()
    workload = build(args)
    in_process_setup = time.perf_counter() - t0
    if args.trace:
        # cold pass, then the traced pass between untraced passes on the same
        # items: their median is the baseline for the tracing overhead
        rec = spans.Recorder()
        schedule = [(0, False)] + [(1, False)] * 2 + [(1, True)] + [(1, False)] * 2
    else:
        passes = max(2, round(args.seconds / workload.nominal_pass_s))
        schedule = [(p, False) for p in range(passes)]

    attempted = 0
    walls, latencies, setup = [], [], []
    # pass 0 is cold: the first pass in this fresh process
    for p, traced in schedule:
        if traced:
            workload.rec = rec
            with spans.Tracer(rec):
                wall, lat, fails = run_pass(workload, p, attempted)
            workload.rec = spans.NullRecorder()
        else:
            wall, lat, fails = run_pass(workload, p, attempted)
        attempted += len(lat)
        if fails:
            raise CheckFailure("\n".join(fails[:50]) + f"\n({len(fails)} failures in pass {p}, "
                               f"{attempted} items attempted)")
        walls.append(wall)
        if not args.trace:
            setup += setup_times(args, SETUP_RUNS_PER_PASS)
        if len(walls) > 1:
            latencies += lat

    detail = environment(args, caps, len(workload.items(0)))
    detail.update(passes=len(walls), attempted=attempted, failed=0, fail_ratio=0.0,
                  in_process_setup_s=in_process_setup, pass_walls_s=walls)
    if args.trace:
        traced_at = [t for _, t in schedule].index(True)
        traced = walls[traced_at]
        untraced = statistics.median(walls[1:traced_at] + walls[traced_at + 1:])
        cost = spans.span_cost()
        values = rec.layer_metrics(traced, cost)
        values["trace.wall_s"] = traced
        values["trace.untraced_wall_s"] = untraced
        values["trace.overhead_s"] = traced - untraced
        values["trace.overhead_ratio"] = traced / untraced - 1
        units = dict(u for layer in spans.LAYER_METRICS.values() for u in layer)
        units.update(spans.RUN_METRICS)
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))
        detail.update(spans=len(rec.start), span_caller_cost_s=cost[0], span_inside_cost_s=cost[1])
    else:
        tail_p, tail_value, beyond = stats.tail_percentile(latencies)
        metrics = {
            "wall_s": {"value": statistics.median(walls[1:]), "unit": "s"},
            "item_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
            "item_tail_ms": {"value": 1000 * tail_value, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        # the cold pass repeats too poorly to carry a bound, so it is reported here only
        detail.update(first_pass_s=walls[0], item_samples=len(latencies), item_tail_percentile=tail_p,
                      item_tail_beyond=beyond, setup_samples_s=setup)
    return attempted, metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ffgeom" / "__init__.py").is_file():
        print(f"run.py: no ffgeom package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    caps = cap_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        build(args)
        print("ready", flush=True)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        attempted, metrics, detail = measure(args, caps)
    except CheckFailure as err:
        print(f"run.py: {args.workload} seed {args.seed}: CHECK FAILED\n{err}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    record = dict(detail, metrics=metrics)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
