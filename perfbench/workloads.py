"""The benchmark workloads: inputs from a seed, timed items, checks.

`sweep-spectral` (the `sweep` and `spectral` items in one pass) and
`circles` make up BENCHMARK.json; `sweep`, `spectral` and `triangles-q31`
run the same way on their own but are not part of it (see
perfbench/README.md).

Each workload is built once per process (its set-up), then hands the runner
one list of items per pass.  An item is (label, call, check): the runner
times `call()` alone and passes its result to `check`, which returns a list
of error strings.  `check_pass` runs the checks that need a whole pass.

Recorded values (CSV hashes, counts) go through `Workload.compare`, which
also collects them for perfbench/record.py.  They are compared only on the
default seed, which reproduces them, except those whose inputs do not depend
on the seed; every other seed runs the seed-independent checks: exit codes,
identities and inequalities.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ffgeom import charsums, circles, cli, constants, counting, experiments, fourier
from ffgeom.field import PrimeField
from ffgeom.fourier import PointD
from spans import NullRecorder

Item = Tuple[str, Callable[[], Any], Callable[[Any], List[str]]]

DEFAULT_SEED = 0
HINGE_QS = (61, 79, 101)
SPHERE_Q = 101
CHARSUM_Q = 1009
CIRCLE_Q = 19
MIDPOINT_Q = 1009
MIDPOINT_SAMPLES = 10**4
TRIANGLE_SEEDS = 5
GOLDEN_SWEEP = "tests/data/golden_sweep.csv"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def matrix_sha256(matrix: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype="<i8").tobytes()).hexdigest()


def invoke(rec, argv: List[str]) -> Tuple[int, str]:
    """One `ffgeom <argv>` run through the CLI entry point, stdout captured."""
    buf = io.StringIO()
    with rec.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out = buf.getvalue()
    rec.count("cli.invocations")
    rec.count("cli.rows_out", max(out.count("\n") - 1, 0))
    return code, out


def hinge_spectral(E) -> Dict[str, Any]:
    """HingeSweep's exact and spectral counts plus its bound checks for one set."""
    hs = counting.HingeSweep(E)
    return {
        "exact": hs.exact,
        "fourier": hs.fourier_counts(),
        "violations": hs.remainder_violations(),
        "max_ratio": hs.max_remainder_ratio(),
    }


def sphere_transform_error(field: PrimeField) -> float:
    """max over t and frequencies of |closed-form transform - direct DFT|."""
    worst = 0.0
    for t in range(field.q):
        closed = charsums.sphere_fourier_grid(field, t).values
        direct = fourier.forward(charsums.Sphere(field, t, 2).indicator()).values
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    return worst


def circle_witnesses(field: PrimeField, a: int) -> List[PointD]:
    """The points w with |w| = a in lexicographic order, without norm tables."""
    q = field.q
    return [PointD(field, (x, y)) for x in range(q) for y in range(q) if (x * x + y * y) % q == a]


def midpoint_reports(field: PrimeField, seed: int) -> Dict[str, Any]:
    cs = circles.build_counterexample(field)
    return {
        "sumset_is_full": cs.sumset_is_full,
        "sampled": circles.midpoint_exclusion_check(cs, samples=MIDPOINT_SAMPLES, seed=seed),
        "exhaustive": circles.midpoint_exclusion_check(cs, exhaustive=True),
    }


def _rows(text: str) -> List[str]:
    return text.splitlines(keepends=True)


def _exit_ok(label: str, code: int) -> List[str]:
    return [] if code == 0 else [f"{label}: exit code {code}"]


class Workload:
    name = ""
    # median pass time on the reference host; --seconds is divided by it to fix the pass count
    nominal_pass_s = 1.0
    # passes before the items repeat
    cycle = 1

    def __init__(self, seed: int, expected: Optional[Dict[str, Any]], root: Path) -> None:
        """`expected` None turns every recorded-value check off (recording)."""
        self.seed = seed
        self.expected = None if expected is None else expected[self.name]
        self.exact = self.expected is not None and seed == expected["default_seed"]
        self.observed: Dict[str, Any] = {}
        # the runner swaps in a span Recorder for the traced pass
        self.rec = NullRecorder()

    def compare(self, label: str, key: str, value: Any, any_seed: bool = False) -> List[str]:
        """Keep `value` as the observed `key`; check it against the recorded one
        on the default seed, or on every seed when its inputs do not depend on it."""
        self.observed[key] = value
        if self.expected is None or not (self.exact or any_seed):
            return []
        recorded = self.expected[key]
        return [] if value == recorded else [f"{label}: {key} {value!r} != recorded {recorded!r}"]

    def items(self, pass_index: int) -> List[Item]:
        raise NotImplementedError

    def check_pass(self) -> List[str]:
        return []


class Sweep(Workload):
    """`ffgeom sweep` once per (q, rho, seed) cell of the default grid.

    An item is the two cells of one (q, seed), one per density: 15 items
    in three groups by q, so the median falls inside the middle group.  One
    cell per item would make six (q, rho) groups and put the median on the
    boundary between two of them, where it moves with either.
    """

    name = "sweep"
    nominal_pass_s = 6.0

    def __init__(self, seed, expected, root) -> None:
        super().__init__(seed, expected, root)
        seeds = [s + len(experiments.DEFAULT_SEEDS) * seed for s in experiments.DEFAULT_SEEDS]
        # golden-CSV row order
        self.cells = [
            (q, rho, s)
            for q in experiments.DEFAULT_QS
            for rho in experiments.DEFAULT_DENSITIES
            for s in seeds
        ]
        self.header = ",".join(experiments.SWEEP_COLUMNS) + "\n"
        # the reference stays the golden CSV under tests/; only its path is recorded
        self.observed["golden_csv"] = GOLDEN_SWEEP
        self.golden = None
        if self.exact:
            self.golden = (root / self.expected["golden_csv"]).read_text()
        self._items: List[Item] = []
        for q in experiments.DEFAULT_QS:
            for s in seeds:
                cells = [(q, rho, s) for rho in experiments.DEFAULT_DENSITIES]
                self._items.append((
                    f"sweep q={q} seed={s}",
                    lambda cells=cells: [self._invoke(cell) for cell in cells],
                    lambda results, cells=cells: self._check_cells(cells, results)))

    def _invoke(self, cell) -> Tuple[int, str]:
        q, rho, s = cell
        return invoke(self.rec, ["sweep", "--q", str(q), "--density", str(float(rho)),
                                 "--seed", str(s)])

    def items(self, pass_index: int) -> List[Item]:
        self._out: Dict[Tuple, str] = {}
        return self._items

    def _check_cells(self, cells, results) -> List[str]:
        errors = []
        for cell, (code, out) in zip(cells, results):
            self._out[cell] = out
            errors += check_sweep_cell(cell, code, out, self.header)
        return errors

    def check_pass(self) -> List[str]:
        if self.golden is None:
            return []
        joined = self.header + "".join(self._out[cell][len(self.header):] for cell in self.cells)
        if joined != self.golden:
            return ["sweep: concatenated rows differ from the golden CSV"]
        return []


def check_sweep_cell(cell, code: int, out: str, header: str) -> List[str]:
    """Seed-independent checks on one sweep cell's CSV."""
    q, rho, seed = cell
    label = f"sweep q={q} rho={rho} seed={seed}"
    errors = _exit_ok(label, code)
    lines = _rows(out)
    if not lines or lines[0] != header:
        return errors + [f"{label}: missing or wrong header"]
    rows = list(csv.reader(lines[1:]))
    if [r[4] for r in rows] != list(experiments.SWEEP_STATISTICS):
        return errors + [f"{label}: statistics out of order"]
    card = -(-rho.numerator * q * q // rho.denominator)
    values = {}
    for r in rows:
        if r[:4] != [str(q), "%.12g" % float(rho), str(seed), str(card)]:
            errors.append(f"{label}: row key {r[:4]}")
        if r[8] not in ("pass", "info", "budget"):
            errors.append(f"{label}: {r[4]} status {r[8]}")
        values[r[4]] = r[5]
    sig = values["signatures_all"]
    for stat in ("orbits_so", "orbits_o"):
        if sig and values[stat] and int(values[stat]) < int(sig):
            errors.append(f"{label}: {stat} {values[stat]} < signatures {sig}")
    return errors


class Triangles(Workload):
    """`ffgeom triangles --q 31 --density 0.5` at the criterion-13 seeds.

    A pass is one invocation; pass p uses the (p mod 5)-th seed, so a run
    walks through the seeds while every pass does the same amount of work.
    """

    name = "triangles-q31"
    nominal_pass_s = 7.6
    cycle = TRIANGLE_SEEDS
    q = 31

    def __init__(self, seed, expected, root) -> None:
        super().__init__(seed, expected, root)
        self.seeds = [s + TRIANGLE_SEEDS * seed for s in range(TRIANGLE_SEEDS)]
        self.card = -(-self.q * self.q // 2)

    def items(self, pass_index: int) -> List[Item]:
        s = self.seeds[pass_index % TRIANGLE_SEEDS]
        argv = ["triangles", "--q", str(self.q), "--density", "0.5", "--seed", str(s)]
        return [(f"triangles q=31 seed={s}",
                 lambda: invoke(self.rec, argv),
                 lambda result: self._check(s, result))]

    def _check(self, s: int, result) -> List[str]:
        code, out = result
        label = f"triangles seed={s}"
        errors = _exit_ok(label, code)
        v = parse_triangles(out)
        if v["card"] != self.card:
            errors.append(f"{label}: |E| {v['card']} != {self.card}")
        if not v["signatures_nondeg"] <= v["signatures_all"] <= min(v["orbits_so"], v["orbits_o"]):
            errors.append(f"{label}: ordering nondeg <= all <= orbits fails: {v}")
        if self.exact and v["signatures_all"] != constants.CALIBRATION_SIGNATURES:
            errors.append(f"{label}: signatures_all {v['signatures_all']} != "
                          f"{constants.CALIBRATION_SIGNATURES}")
        for key in ("signatures_nondeg", "orbits_so", "orbits_o"):
            errors += self.compare(label, f"seed {s} {key}", v[key])
        return errors + self.compare(label, f"seed {s} csv_sha256", sha256(out))


def parse_triangles(out: str) -> Dict[str, int]:
    header, row = list(csv.reader(_rows(out)))
    fields = dict(zip(header, row))
    return {k: int(fields[c]) for k, c in (
        ("card", "|E|"), ("signatures_all", "signatures_all"),
        ("signatures_nondeg", "signatures_nondeg"), ("orbits_so", "orbits_SO"),
        ("orbits_o", "orbits_O"))}


class Spectral(Workload):
    """Hinge counts and their spectral identity at q in {61, 79, 101}, the
    q = 1009 character-sum table, and the q = 101 sphere transforms.

    An item per hinge set runs `ffgeom hinges` and the library spectral
    check on the same (q, seed) set.  With these five items the median
    falls among the samples of the three largest, of about equal size,
    instead of on the boundary between two item groups of unequal size.
    """

    name = "spectral"
    nominal_pass_s = 4.6

    def __init__(self, seed, expected, root) -> None:
        super().__init__(seed, expected, root)
        rho = Fraction(1, 2)
        self.sets = {q: experiments.random_set(q, 2, rho, seed) for q in HINGE_QS}
        self.sphere_field = PrimeField(SPHERE_Q)
        items: List[Item] = []
        for q in HINGE_QS:
            argv = ["hinges", "--q", str(q), "--density", "0.5", "--seed", str(seed)]
            items.append((f"hinges q={q}",
                          lambda q=q, argv=argv: (invoke(self.rec, argv),
                                                  hinge_spectral(self.sets[q])),
                          lambda result, q=q: (self._check_hinges(q, result[0])
                                               + self._check_spectral(q, result[1]))))
        items.append((f"charsum q={CHARSUM_Q}",
                      lambda: invoke(self.rec, ["charsum", "--q", str(CHARSUM_Q)]),
                      self._check_charsum))
        items.append((f"sphere transforms q={SPHERE_Q}",
                      lambda: sphere_transform_error(self.sphere_field),
                      lambda worst: [] if worst <= 1e-9 else [f"sphere transform error {worst}"]))
        self._items = items

    def items(self, pass_index: int) -> List[Item]:
        return self._items

    def _check_hinges(self, q: int, result) -> List[str]:
        code, out = result
        errors = _exit_ok(f"hinges q={q}", code)
        if out.count("\n") != 1 + (q - 1) ** 2:
            errors.append(f"hinges q={q}: {out.count(chr(10))} lines")
        return errors + self.compare(f"hinges q={q}", f"hinges q={q} csv_sha256", sha256(out))

    def _check_spectral(self, q: int, r: Dict[str, Any]) -> List[str]:
        exact, fc = r["exact"], r["fourier"]
        errors = []
        # HingeReport.fourier_matches: rounds to the exact count, imaginary part within 1e-6
        ok = (np.abs(fc.imag) <= 1e-6) & (np.round(fc.real) == exact)
        if not ok.all():
            errors.append(f"hinge spectral q={q}: {int((~ok).sum())} pairs mismatch")
        self.rec.maximum("fourier.max_abs_err", float(np.max(np.abs(fc - exact))))
        if experiments.density_in_hinge_regime(q, Fraction(1, 2)):
            if r["violations"] or r["max_ratio"] > 8:
                errors.append(f"hinge spectral q={q}: remainder bound fails {r['violations'][:5]}")
        return errors + self.compare(f"hinge spectral q={q}", f"hinge matrix q={q} sha256",
                                     matrix_sha256(exact))

    def _check_charsum(self, result) -> List[str]:
        code, out = result
        return _exit_ok("charsum", code) + self.compare(
            "charsum", "charsum csv_sha256", sha256(out), any_seed=True)


class Circles(Workload):
    """representable_c_values over the criterion-10 population at q = 19,
    plus the q = 1009 counterexample with sampled and exhaustive checks.

    An item is one radius a: the calls for every witness w on S_a and every
    b != 0.  A single call takes about a millisecond, the length of a
    preemption spike on a shared host; per-call and per-witness items gave a
    tail latency that did not repeat from run to run.
    """

    name = "circles"
    nominal_pass_s = 9.0

    def __init__(self, seed, expected, root) -> None:
        super().__init__(seed, expected, root)
        field = PrimeField(CIRCLE_Q)
        self.floor = (CIRCLE_Q - 3) // 2
        radii = list(range(1, CIRCLE_Q))
        random.Random(seed).shuffle(radii)
        self.midpoint_field = PrimeField(MIDPOINT_Q)
        items: List[Item] = [
            (f"representable a={a}",
             lambda a=a, ws=circle_witnesses(field, a): [
                 circles.representable_c_values(field, a, b, w)
                 for w in ws for b in range(1, CIRCLE_Q)],
             self._check_representable)
            for a in radii
        ]
        items.append(("counterexample q=1009",
                      lambda: midpoint_reports(self.midpoint_field, seed),
                      self._check_midpoint))
        self._items = items

    def items(self, pass_index: int) -> List[Item]:
        self._total = 0
        return self._items

    def _check_representable(self, per_call: List[List[int]]) -> List[str]:
        errors = []
        for k, values in enumerate(per_call):
            self._total += len(values)
            nonzero = sum(1 for c in values if c != 0)
            if nonzero < self.floor:
                errors.append(f"call {k}: only {nonzero} nonzero c < {self.floor}")
        return errors

    def _check_midpoint(self, r: Dict[str, Any]) -> List[str]:
        label = "counterexample"
        errors = []
        if r["sumset_is_full"]:
            errors.append(f"{label}: sumset covers the field")
        for kind in ("sampled", "exhaustive"):
            if r[kind].violations:
                errors.append(f"{label}: {r[kind].violations} {kind} violations")
        if r["sampled"].pairs_checked != MIDPOINT_SAMPLES:
            errors.append(f"{label}: wrong sample count")
        errors += self.compare(label, "midpoint exhaustive applicable", r["exhaustive"].applicable,
                               any_seed=True)
        return errors + self.compare(label, "midpoint sampled applicable", r["sampled"].applicable)

    def check_pass(self) -> List[str]:
        return self.compare("circles", "representable total", self._total, any_seed=True)


class SweepSpectral(Workload):
    """The `sweep` items, then the `spectral` items, as one pass.

    The two share one workload so that a run can be long enough for its
    medians to average over the reference host's speed drift; each keeps
    its own items, checks and recorded values.  With 20 items per pass the
    median falls inside the q = 17 sweep items and the tail among the three
    largest spectral items.
    """

    name = "sweep-spectral"
    nominal_pass_s = Sweep.nominal_pass_s + Spectral.nominal_pass_s

    def __init__(self, seed, expected, root) -> None:
        self.parts = [Sweep(seed, expected, root), Spectral(seed, expected, root)]
        super().__init__(seed, expected, root)

    @property
    def rec(self):
        return self._rec

    @rec.setter
    def rec(self, recorder) -> None:
        self._rec = recorder
        for part in self.parts:
            part.rec = recorder

    def items(self, pass_index: int) -> List[Item]:
        return [item for part in self.parts for item in part.items(pass_index)]

    def check_pass(self) -> List[str]:
        return [error for part in self.parts for error in part.check_pass()]


WORKLOADS = {w.name: w for w in (SweepSpectral, Circles, Sweep, Spectral, Triangles)}
