"""Seeded random sets, pointset files, and the parameter-sweep harness.

Everything here is deterministic by construction: random sets are the prefix
of a seeded Mersenne-Twister shuffle of the grid, sweep cells are visited in
config order, and every emitted number is computed from exact integers (or a
correctly rounded float of an exact rational), so identical configs produce
byte-identical CSV.

Sweep rows carry a status column:

    pass / fail   the named inequality was checked in exact integer
                  arithmetic and held / did not hold;
    info          the statistic is reported but the inequality is outside
                  its stated regime (low density for the hinge remainder,
                  oversized set for the hinge energy) or is a measured
                  ratio with no asserted bound (signature counts);
    budget        the computation would exceed the work budget or a
                  structural capacity, so value fields are left empty.

Each bound, its regime and its printed value and ratio come from
ffgeom.bounds: the hinge remainder is asserted only for dense sets and the
hinge energy only for sets inside its size regime; outside them the measured
ratios still appear with status info.  Orbit counts are checked against the
signature count, which every congruence class refines.
"""

from __future__ import annotations

import csv
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import bounds
from .bounds import density_in_hinge_regime, hinge_energy_regime
from .congruence import distinct_signature_count, t3_orbit_count
from .counting import HingeSweep, PointSet
from .field import PrimeField
from .fourier import BudgetError, CapacityError, _check_grid_size, decode, encode

POINTSET_MAGIC = "ffgeom-pointset v1"

MODES = ("hinges", "triangles", "spheres", "charsum", "counterexample", "sweep")
GROUPS = ("so", "o", "both")

DEFAULT_QS = (13, 17, 19)
DEFAULT_DENSITIES = (Fraction(3, 10), Fraction(1, 2))
DEFAULT_SEEDS = (0, 1, 2, 3, 4)
DEFAULT_BUDGET = 10**10

SWEEP_COLUMNS = (
    "q",
    "rho",
    "seed",
    "card",
    "statistic",
    "value",
    "reference",
    "ratio",
    "status",
)

# frozen emission order within a cell; golden files pin this
SWEEP_STATISTICS = (
    "signatures_all",
    "signatures_nondeg",
    "orbits_so",
    "orbits_o",
    "hinge_max_remainder",
    "pair_max_deviation",
    "fluctuation_max",
    "hinge_energy_max",
)


class PointsetFormatError(ValueError):
    """A pointset file failed to parse; .line is the offending line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConfigFormatError(ValueError):
    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


Density = Union[Fraction, float, int, str]


def _as_density(rho: Density) -> Fraction:
    # float densities go through their decimal literal, so 0.3 means 3/10
    frac = Fraction(str(rho)) if isinstance(rho, float) else Fraction(rho)
    if not 0 < frac <= 1:
        raise ValueError(f"density must lie in (0, 1], got {frac}")
    return frac


def random_set(q: int, d: int, rho: Density, seed: int) -> PointSet:
    """The first ceil(rho q^d) cells of a seeded uniform shuffle of the grid.

    Deterministic per (q, d, rho, seed); rho = 1 gives the full grid.
    """
    field = PrimeField(q)
    _check_grid_size(q, d)
    frac = _as_density(rho)
    size = q**d
    k = math.ceil(frac * size)
    rng = random.Random(seed)
    cells = list(range(size))
    rng.shuffle(cells)
    indicator = np.zeros(size, dtype=np.uint8)
    indicator[cells[:k]] = 1
    return PointSet(field, d, indicator)


def save_pointset(E: PointSet, path: str) -> None:
    """Write E in the versioned text format, points sorted by grid index."""
    q = E.q
    lines = [f"{POINTSET_MAGIC} q={q} d={E.d}"]
    for idx in E.indices():
        lines.append(" ".join(str(c) for c in decode(int(idx), q, E.d)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_RE = re.compile(r"^ffgeom-pointset v1 q=([0-9]+) d=([0-9]+)$")


def load_pointset(path: str) -> PointSet:
    """Parse a pointset file; strict, every failure names its line number."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PointsetFormatError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    raw = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not raw or _HEADER_RE.match(raw[0].strip()) is None:
        raise PointsetFormatError(
            f"expected header '{POINTSET_MAGIC} q=<q> d=<d>'", 1
        )
    m = _HEADER_RE.match(raw[0].strip())
    assert m is not None
    q, d = int(m.group(1)), int(m.group(2))
    try:
        field = PrimeField(q)
    except ValueError as exc:
        raise PointsetFormatError(str(exc), 1) from None
    if d < 1:
        raise PointsetFormatError("dimension must be positive", 1)
    _check_grid_size(q, d)
    indicator = np.zeros(q**d, dtype=np.uint8)
    count = 0
    for lineno, line in enumerate(raw[1:], start=2):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) != d:
            raise PointsetFormatError(
                f"expected {d} coordinates, got {len(tokens)}", lineno
            )
        coords = []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise PointsetFormatError(f"bad coordinate {tok!r}", lineno)
            c = int(tok)
            if c >= q:
                raise PointsetFormatError(
                    f"coordinate {c} is not a residue mod {q}", lineno
                )
            coords.append(c)
        idx = encode(coords, q)
        if indicator[idx]:
            raise PointsetFormatError(f"duplicate point {tuple(coords)}", lineno)
        indicator[idx] = 1
        count += 1
    if count == 0:
        raise PointsetFormatError("no points (empty sets are not allowed)", 1)
    return PointSet(field, d, indicator)


@dataclass(frozen=True)
class ExperimentConfig:
    """One harness invocation: mode plus the (q, rho, seed) grid it visits."""

    mode: str
    qs: Tuple[int, ...] = DEFAULT_QS
    densities: Tuple[Fraction, ...] = DEFAULT_DENSITIES
    seeds: Tuple[int, ...] = DEFAULT_SEEDS
    out: Optional[str] = None
    budget: int = DEFAULT_BUDGET
    group: str = "both"
    samples: int = 10**4
    exhaustive: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if not self.qs:
            raise ValueError("at least one modulus is required")
        for q in self.qs:
            PrimeField(q)
        for rho in self.densities:
            _as_density(rho)
        for seed in self.seeds:
            if not 0 <= seed < 2**64:
                raise ValueError(f"seed {seed} is not a 64-bit integer")
        if self.budget <= 0:
            raise ValueError("work budget must be positive")
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}, got {self.group!r}")
        if self.samples <= 0:
            raise ValueError("sample count must be positive")

    def cells(self) -> Iterator[Tuple[int, Fraction, int]]:
        """The (q, rho, seed) grid in frozen config order."""
        for q in self.qs:
            for rho in self.densities:
                for seed in self.seeds:
                    yield q, rho, seed


def parse_config_file(path: str) -> Dict[str, str]:
    """Flat key=value pairs, '#' comments; returns raw string values."""
    pairs: Dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigFormatError(f"expected key=value, got {body!r}", lineno)
            key, _, value = body.partition("=")
            key, value = key.strip(), value.strip()
            if not key or not value:
                raise ConfigFormatError(f"empty key or value in {body!r}", lineno)
            if key in pairs:
                raise ConfigFormatError(f"duplicate key {key!r}", lineno)
            pairs[key] = value
    return pairs


def _parse_int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(tok.strip()) for tok in text.split(",") if tok.strip())


def _parse_density_list(text: str) -> Tuple[Fraction, ...]:
    return tuple(_as_density(tok.strip()) for tok in text.split(",") if tok.strip())


_CONFIG_KEYS = (
    "mode",
    "q",
    "density",
    "seed",
    "out",
    "budget",
    "group",
    "samples",
    "exhaustive",
)


def config_from_pairs(mode: str, pairs: Dict[str, str]) -> ExperimentConfig:
    """Build a config from raw string overrides (file entries or CLI flags)."""
    for key in pairs:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    kwargs: Dict[str, object] = {"mode": pairs.get("mode", mode)}
    if "q" in pairs:
        kwargs["qs"] = _parse_int_list(pairs["q"])
    if "density" in pairs:
        kwargs["densities"] = _parse_density_list(pairs["density"])
    if "seed" in pairs:
        kwargs["seeds"] = _parse_int_list(pairs["seed"])
    if "out" in pairs:
        kwargs["out"] = pairs["out"]
    if "budget" in pairs:
        kwargs["budget"] = int(pairs["budget"])
    if "group" in pairs:
        kwargs["group"] = pairs["group"].lower()
    if "samples" in pairs:
        kwargs["samples"] = int(pairs["samples"])
    if "exhaustive" in pairs:
        kwargs["exhaustive"] = pairs["exhaustive"].lower() in ("1", "true", "yes")
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class SweepRow:
    q: int
    rho: Fraction
    seed: int
    card: int
    statistic: str
    value: Optional[Union[int, float]]
    reference: Optional[Union[int, float]]
    ratio: Optional[float]
    status: str

    def record(self) -> List[str]:
        return [_fmt(v) for v in (self.q, float(self.rho), self.seed, self.card, self.statistic,
                                  self.value, self.reference, self.ratio, self.status)]


def _fmt(x: Optional[Union[str, int, float]]) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return "%.12g" % x


class CsvSink:
    """CSV with a header and LF endings; keeps the rows that violated a bound."""

    def __init__(self, stream: IO[str], columns: Sequence[str]) -> None:
        self._writer = csv.writer(stream, lineterminator="\n")
        self._writer.writerow(columns)
        self.violations: List[List[str]] = []

    def row(self, values: Sequence[Optional[Union[str, int, float]]], violated=False) -> None:
        record = [_fmt(v) for v in values]
        self._writer.writerow(record)
        if violated:
            self.violations.append(record)


def _cell_rows(config: ExperimentConfig, q: int, rho: Fraction, seed: int) -> List[SweepRow]:
    E = random_set(q, 2, rho, seed)
    card = E.cardinality

    def row(stat: str, value, reference, ratio, status: str) -> SweepRow:
        return SweepRow(q, rho, seed, card, stat, value, reference, ratio, status)

    def budget_row(stat: str) -> SweepRow:
        return row(stat, None, None, None, "budget")

    rows: List[SweepRow] = []

    sig_all: Optional[int] = None
    try:
        bounds.charge_signature_table(card, config.budget)
        sig_all = distinct_signature_count(E, mode="all")
        sig_nd = distinct_signature_count(E, mode="nondegenerate")
        sig_ref = float(rho * q**3)
        for stat, sig in (("signatures_all", sig_all), ("signatures_nondeg", sig_nd)):
            rows.append(row(stat, sig, sig_ref, bounds.signature_ratio(sig, q, rho), "info"))
    except (BudgetError, CapacityError):
        rows.append(budget_row("signatures_all"))
        rows.append(budget_row("signatures_nondeg"))

    for stat, tag in (("orbits_so", "SO"), ("orbits_o", "O")):
        if config.group == "so" and stat == "orbits_o":
            continue
        if config.group == "o" and stat == "orbits_so":
            continue
        if sig_all is None:
            rows.append(budget_row(stat))
            continue
        try:
            orbits = t3_orbit_count(E, group=tag, budget=config.budget)
            holds = bounds.triangle_chain_holds(sig_all, **{stat: orbits})
            rows.append(
                row(stat, orbits, sig_all, orbits / sig_all, "pass" if holds else "fail")
            )
        except (BudgetError, CapacityError):
            rows.append(budget_row(stat))

    try:
        bounds.charge_hinge_sweep(q, config.budget)
        hs = HingeSweep(E)
    except (BudgetError, CapacityError):
        rows.extend(budget_row(s) for s in SWEEP_STATISTICS[4:])
        return rows

    profiles_sq = (hs.profiles * hs.profiles).sum(axis=1)
    for bound, numer, asserted in (
        (bounds.HINGE_REMAINDER, hs.remainder_numers(), density_in_hinge_regime(q, rho)),
        (bounds.PAIR_DEVIATION,
         bounds.pair_deviation_numer(q, card, hs.pair_counts, hs.sphere_sizes), True),
        (bounds.FLUCTUATION,
         bounds.fluctuation_numer(q, card, profiles_sq, hs.sphere_sizes), True),
        (bounds.HINGE_ENERGY, np.diagonal(hs.exact), hinge_energy_regime(q, card)),
    ):
        value = bound.value(np.abs(numer).max(), q, card)
        if not asserted:
            status = "info"
        else:
            status = "pass" if bound.holds(numer, q, card).all() else "fail"
        rows.append(row(bound.statistic, value, bound.constant, bound.ratio(value), status))
    return rows


def sweep_rows(config: ExperimentConfig) -> Iterator[SweepRow]:
    """All rows of the sweep, in deterministic config order."""
    for q, rho, seed in config.cells():
        yield from _cell_rows(config, q, rho, seed)


@dataclass
class SweepResult:
    rows: List[SweepRow]
    failures: List[SweepRow]


def run_sweep(config: ExperimentConfig, stream: IO[str]) -> SweepResult:
    """Write the sweep as CSV (header always, LF endings); collect failures."""
    out = CsvSink(stream, SWEEP_COLUMNS)
    rows: List[SweepRow] = []
    for r in sweep_rows(config):
        out.row(r.record())
        rows.append(r)
    return SweepResult(rows=rows, failures=[r for r in rows if r.status == "fail"])
