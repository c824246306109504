"""Span recorder and layer wrappers for the traced benchmark run.

The traced run replaces, for its duration, the names each ffgeom module
imports from the layer below (``cli.HingeSweep``, ``experiments.random_set``,
``circles.intersect_circles``, ...) and the public ``PrimeField`` methods
with thin wrappers that open a span on entry and close it on exit.  Nothing
under ``src/`` is edited: the wrappers live here and are removed again when
the ``Tracer`` context exits.

A span is (name, start, end, parent span, item id).  Spans are kept in flat
arrays in memory and written out once, when the run ends.  A layer's busy
time is the self time of its spans: span duration minus the union of the
intervals its child spans cover, less the recorder's own cost.  A wrapped
call costs its caller the bookkeeping around the child span (entry, exit,
counters) and costs the child span the timer read inside it; both are
measured on an empty function (`span_cost`) and subtracted, so that a
million field-call spans do not show up as solver time.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

# layer -> ordered (metric name, unit); the per-layer metric catalogue
LAYER_METRICS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "cli": (("cli.self_s", "s"), ("cli.invocations", "count"), ("cli.rows_out", "count")),
    "experiments": (
        ("experiments.self_s", "s"),
        ("experiments.random_set_s", "s"),
        ("experiments.cells", "count"),
        ("experiments.budget_rows", "1"),
    ),
    "congruence": (
        ("congruence.signature_s", "s"),
        ("congruence.signature_calls", "count"),
        ("congruence.anchor_rows", "count"),
        ("congruence.orbit_s", "s"),
        ("congruence.orbit_calls", "count"),
        ("congruence.orbit_units", "count"),
    ),
    "counting": (
        ("counting.hinge_sweep_s", "s"),
        ("counting.hinge_sweeps", "count"),
        ("counting.profile_shifts", "count"),
        ("counting.check_s", "s"),
    ),
    "fourier": (
        ("fourier.spectral_s", "s"),
        ("fourier.forward_s", "s"),
        ("fourier.ffts", "count"),
        ("fourier.max_abs_err", "1"),
    ),
    "charsums": (
        ("charsums.self_s", "s"),
        ("charsums.gauss_calls", "count"),
        ("charsums.kloosterman_calls", "count"),
        ("charsums.sphere_transform_s", "s"),
        ("charsums.closed_form_terms", "count"),
    ),
    "circles": (
        ("circles.representable_s", "s"),
        ("circles.solver_calls", "count"),
        ("circles.solver_s", "s"),
        ("circles.hit_ratio", "1"),
        ("circles.midpoint_s", "s"),
        ("circles.midpoint_pairs", "count"),
    ),
    "field": (
        ("field.busy_s", "s"),
        ("field.sqrt_calls", "count"),
        ("field.inv_calls", "count"),
        ("field.legendre_calls", "count"),
    ),
}

# whole-run metrics of the traced run itself
RUN_METRICS = (
    ("unattributed_s", "s"),
    ("unattributed_share", "1"),
    ("trace.wall_s", "s"),
    ("trace.corrected_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "1"),
)

# span name -> self-time metric it contributes to
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "experiments.run_sweep": "experiments.self_s",
    "experiments.random_set": "experiments.random_set_s",
    "congruence.signature": "congruence.signature_s",
    "congruence.orbit": "congruence.orbit_s",
    "counting.hinge_sweep": "counting.hinge_sweep_s",
    "counting.check": "counting.check_s",
    "fourier.spectral": "fourier.spectral_s",
    "fourier.forward": "fourier.forward_s",
    "charsums.gauss": "charsums.self_s",
    "charsums.kloosterman": "charsums.self_s",
    "charsums.sphere_transform": "charsums.sphere_transform_s",
    "circles.representable": "circles.representable_s",
    "circles.solver": "circles.solver_s",
    "circles.build": "circles.midpoint_s",
    "circles.midpoint": "circles.midpoint_s",
    "field.sqrt": "field.busy_s",
    "field.inv": "field.busy_s",
    "field.legendre": "field.busy_s",
}


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Per span: its duration minus the union of its children, clipped to it."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = union_length((max(starts[k], lo), min(ends[k], hi)) for k in kids)
        out[parent] -= covered
    return out


class NullRecorder:
    """Stands in for the recorder when tracing is off: every hook is free."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def maximum(self, name: str, value: float) -> None:
        pass

    def set_item(self, item: int) -> None:
        pass


class Recorder:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self._stack: List[int] = []
        self._item = -1
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = {}

    def set_item(self, item: int) -> None:
        self._item = item

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, fn: Callable, name: str, observe: Optional[Callable] = None) -> Callable:
        """fn inside a span; observe(recorder, args, kwargs, result) runs after it."""
        rec = self

        def traced(*args, **kwargs):
            idx = rec.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if observe is not None:
                observe(rec, args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
        )

    def layer_metrics(self, wall: float, cost: Tuple[float, float] = (0.0, 0.0)) -> Dict[str, float]:
        """Every per-layer metric of one traced pass of `wall` seconds.

        `cost` is (caller, inside) from `span_cost`: each span's self time
        loses `inside` and `caller` per child span.
        """
        caller, inside = cost
        own = self_times(self.start, self.end, self.parent)
        kids = Counter(p for p in self.parent if p >= 0)
        busy: Dict[str, float] = defaultdict(float)
        top: List[Tuple[float, float]] = []
        for i, nid in enumerate(self.name_id):
            metric = SELF_TIME_METRIC.get(self.names[nid])
            if metric is not None:
                busy[metric] += own[i] - inside - kids[i] * caller
            if self.parent[i] < 0:
                top.append((self.start[i], self.end[i]))
        values = {name: 0.0 for layer in LAYER_METRICS.values() for name, _ in layer}
        # a layer whose calls cost less than the calibration call rounds to 0, not below
        values.update((name, max(0.0, t)) for name, t in busy.items())
        c = self.counters
        for name in values:
            if name in c:
                values[name] = c[name]
        values["circles.hit_ratio"] = (
            c["circles.solver_hits"] / c["circles.solver_calls"] if c["circles.solver_calls"] else 0.0
        )
        values["experiments.budget_rows"] = (
            c["experiments.budget_rows"] / c["experiments.rows"] if c["experiments.rows"] else 0.0
        )
        values["fourier.max_abs_err"] = self.maxima.get("fourier.max_abs_err", 0.0)
        corrected = wall - len(self.start) * (caller + inside)
        unattributed = wall - union_length(top)
        values["trace.corrected_wall_s"] = corrected
        values["unattributed_s"] = unattributed
        values["unattributed_share"] = unattributed / corrected
        return values


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.close(self.idx)


# -- counters observed at the wrapped boundaries --------------------------------


def _group_order(q: int, group: str) -> int:
    # |SO_2(F_q)| = q - eta(-1); O_2 adds as many reflections
    so = q - (1 if q % 4 == 1 else -1)
    return so if group.upper() == "SO" else 2 * so


def _on_signature(rec, args, kwargs, result) -> None:
    rec.count("congruence.signature_calls")
    rec.count("congruence.anchor_rows", args[0].cardinality)


def _on_orbit(rec, args, kwargs, result) -> None:
    E = args[0]
    group = kwargs.get("group", args[1] if len(args) > 1 else "SO")
    rec.count("congruence.orbit_calls")
    rec.count("congruence.orbit_units", E.cardinality**3 * _group_order(E.q, group))


def _on_hinge_sweep(rec, args, kwargs, result) -> None:
    rec.count("counting.hinge_sweeps")
    rec.count("counting.profile_shifts", int(result.sphere_sizes.sum()))


def _on_spectral(rec, args, kwargs, result) -> None:
    q = args[0].E.q
    rec.count("fourier.ffts", 2 * (q - 1) + 1)


def _on_sphere_transform(rec, args, kwargs, result) -> None:
    field, t = args[0], args[1]
    if field.residue(t) != 0:
        rec.count("charsums.closed_form_terms", result.size * (field.q - 1))


def _on_run_sweep(rec, args, kwargs, result) -> None:
    cells = {(r.q, r.rho, r.seed) for r in result.rows}
    rec.count("experiments.cells", len(cells))
    rec.count("experiments.rows", len(result.rows))
    rec.count("experiments.budget_rows", sum(r.status == "budget" for r in result.rows))


def _on_solver(rec, args, kwargs, result) -> None:
    rec.count("circles.solver_calls")
    if result:
        rec.count("circles.solver_hits")


def _on_midpoint(rec, args, kwargs, result) -> None:
    rec.count("circles.midpoint_pairs", result.pairs_checked)


def _counter(name: str) -> Callable:
    def observe(rec, args, kwargs, result) -> None:
        rec.count(name)

    return observe


def _noop() -> None:
    return None


def span_cost(calls: int = 20000, blocks: int = 5) -> Tuple[float, float]:
    """(caller, inside): seconds one wrapped call of an empty function costs.

    `caller` is what the call adds to the calling span's self time beyond a
    plain call: the wrapper's entry, exit and counter.  `inside` is the time
    the empty child span itself records.  Medians over `blocks` blocks of
    `calls` plain calls followed by `calls` wrapped ones.
    """
    callers, insides = [], []
    for _ in range(blocks):
        rec = Recorder()
        traced = rec.wrap(_noop, "calibration", _counter("calibration"))
        t0 = time.perf_counter()
        for _ in range(calls):
            _noop()
        plain = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter() - t0
        inside = sum(e - s for s, e in zip(rec.start, rec.end)) / calls
        insides.append(inside)
        callers.append((wrapped - plain) / calls - inside)
    return statistics.median(callers), statistics.median(insides)


def wrapper_plan():
    """(owner object, attribute, span name, observer) for every wrapped name."""
    from ffgeom import charsums, circles, cli, counting, experiments, fourier
    from ffgeom.field import PrimeField

    plan = []
    for mod in (cli, experiments):
        plan += [
            (mod, "distinct_signature_count", "congruence.signature", _on_signature),
            (mod, "t3_orbit_count", "congruence.orbit", _on_orbit),
            (mod, "HingeSweep", "counting.hinge_sweep", _on_hinge_sweep),
            (mod, "random_set", "experiments.random_set", None),
        ]
    plan += [
        (cli, "gauss_sum", "charsums.gauss", _counter("charsums.gauss_calls")),
        (cli, "kloosterman", "charsums.kloosterman", _counter("charsums.kloosterman_calls")),
        (experiments, "run_sweep", "experiments.run_sweep", _on_run_sweep),
        (circles, "intersect_circles", "circles.solver", _on_solver),
        (PrimeField, "sqrt", "field.sqrt", _counter("field.sqrt_calls")),
        (PrimeField, "inv", "field.inv", _counter("field.inv_calls")),
        (PrimeField, "legendre", "field.legendre", _counter("field.legendre_calls")),
        # library entry points the benchmark itself calls, and their inner names
        (counting.HingeSweep, "fourier_counts", "fourier.spectral", _on_spectral),
        (counting.HingeSweep, "remainder_violations", "counting.check", None),
        (counting.HingeSweep, "max_remainder_ratio", "counting.check", None),
        (counting, "HingeSweep", "counting.hinge_sweep", _on_hinge_sweep),
        (fourier, "forward", "fourier.forward", _counter("fourier.ffts")),
        (charsums, "forward", "fourier.forward", _counter("fourier.ffts")),
        (charsums, "sphere_fourier_grid", "charsums.sphere_transform", _on_sphere_transform),
        (circles, "representable_c_values", "circles.representable", None),
        (circles, "build_counterexample", "circles.build", None),
        (circles, "midpoint_exclusion_check", "circles.midpoint", _on_midpoint),
    ]
    return plan


class Tracer:
    """Installs the wrappers of `wrapper_plan` on a recorder while in use."""

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, observe in wrapper_plan():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.rec.wrap(original, name, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
