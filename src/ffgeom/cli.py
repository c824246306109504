"""Command-line harness: tables and sweeps over the exact-counting library.

Subcommands: spheres, charsum, hinges, triangles, counterexample, sweep.
All output is CSV with a header row and LF endings, written to --out or
stdout once the run completes (a run that exits 1 writes no table and leaves
an existing --out file as it was, and an unwritable --out fails before the
run starts); every run is a pure function of its flags and config file.

Exit codes: 0 all asserted inequalities held, 2 an asserted bound failed
(the violating rows are printed to stderr), 1 usage or IO error.  Bounds
whose statements carry a density or size hypothesis are only asserted
inside that regime; out-of-regime rows are still emitted.

Kernels guard only memory (CapacityError); each runner charges every stage
against --budget, by the formulas in ffgeom.bounds, before the stage runs.

Flags and config files share one table of run settings
(experiments.CONFIG_KEYS): each flag is the config key of the same name, and
any other key in a file is refused.  Flag values override config-file
entries, which override defaults.  Subcommands that do not use a setting
accept and ignore it, so one config file can drive several subcommands.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from . import bounds
from . import experiments as exp
from .charsums import gauss_sum, kloosterman, sphere_size_table
from .circles import build_counterexample, midpoint_exclusion_check
from .congruence import distinct_signature_count, t3_orbit_count
from .counting import HingeSweep
from .experiments import ExperimentConfig, random_set
from .field import PrimeField
from .fourier import BudgetError, CapacityError


class _CliError(Exception):
    """Usage-level failure; rendered to stderr and mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for bound violations
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(prog="ffgeom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("spheres", "sphere sizes per radius, checked against the d=2 closed form"),
        ("charsum", "Gauss sums, Kloosterman sums, and sphere counts as a table"),
        ("hinges", "exact hinge counts with main term, remainder, and bound ratio"),
        ("triangles", "signature and orbit counts per random set"),
        ("counterexample", "dense set whose midpoints avoid it; verifies exclusion"),
        ("sweep", "full statistic sweep over a (q, density, seed) grid"),
    )
    for name, help_text in specs:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--q", help="comma-separated odd primes")
        sp.add_argument("--density", help="comma-separated densities in (0, 1]")
        sp.add_argument("--seed", help="comma-separated 64-bit seeds")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        sp.add_argument("--budget", help="work budget in elementary steps")
        sp.add_argument("--config", help="flat key=value config file")
        if name == "counterexample":
            sp.add_argument("--samples", help="random midpoint pairs to check")
            sp.add_argument("--exhaustive", action="store_true",
                            help="check every pair instead of sampling")
    return parser


def _gather_config(args: argparse.Namespace) -> ExperimentConfig:
    pairs = exp.parse_config_file(args.config) if args.config else {}
    for key in exp.CONFIG_KEYS:
        # a flag this subcommand lacks reads None; a store_true left unset, False
        value = getattr(args, key, None)
        if value is not None and value is not False:
            pairs[key] = str(value)
    return exp.config_from_pairs(pairs)


def _sphere_checks(field: PrimeField) -> Iterator[Tuple[int, int, Optional[int], str]]:
    """(t, |S_t|, reference, status) per radius; |S_0| has no reference."""
    sizes = sphere_size_table(field, 2)
    ref = bounds.sphere_size(field)
    yield 0, int(sizes[0]), None, "info"
    for t in range(1, field.q):
        yield t, int(sizes[t]), ref, "pass" if int(sizes[t]) == ref else "fail"


def _run_spheres(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "d", "t", "count", "reference", "status"))
    for q in config.qs:
        for t, count, ref, status in _sphere_checks(PrimeField(q)):
            out.row((q, 2, t, count, ref, status), violated=status == "fail")
    return out.violations


def _sum_lines(q: int, kind: str, sums: np.ndarray, refs: Sequence[str],
               status: Sequence[str]) -> List[str]:
    """The charsum rows of one family of sums over the parameters 0 .. q - 1,
    each number printed as CsvSink.row prints it."""
    fmt = f"{q},{kind},%d,%.12g,%.12g,%.12g,%s,%s"
    columns = (range(q), sums.real.tolist(), sums.imag.tolist(), np.abs(sums).tolist(), refs, status)
    return [fmt % row for row in zip(*columns)]


def _run_charsum(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "kind", "param", "re", "im", "modulus", "reference", "status"))
    tol = 1e-9
    for q in config.qs:
        field = PrimeField(q)
        # first, as it is the step that meets the grid cap; its rows come last
        spheres = list(_sphere_checks(field))
        bounds.charge_character_sums(q, config.budget)
        root_q = q**0.5
        sums = gauss_sum(field, range(q))
        ok = np.abs(np.abs(sums) - root_q) <= tol
        ok[0] = abs(sums[0] - q) <= tol
        status = ["pass" if good else "fail" for good in ok.tolist()]
        refs = [str(q)] + ["%.12g" % root_q] * (q - 1)
        out.lines(_sum_lines(q, "gauss", sums, refs, status), ~ok)
        # the Weil bound 2 sqrt(q) is stated for a != 0
        weil = 2 * root_q
        refs = [""] + ["%.12g" % weil] * (q - 1)
        for psi in ("trivial", "quadratic"):
            sums = kloosterman(field, range(q), psi)
            ok = np.abs(sums) <= weil + tol
            ok[0] = True
            status = ["info"] + ["pass" if good else "fail" for good in ok[1:].tolist()]
            out.lines(_sum_lines(q, f"kloosterman_{psi}", sums, refs, status), ~ok)
        out.lines([f"{q},sphere,{t},{count},0,{count},{'' if ref is None else ref},{status}"
                   for t, count, ref, status in spheres],
                  [status == "fail" for *_, status in spheres])
    return out.violations


def _run_hinges(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "|E|", "a", "b", "exact", "I", "R", "bound_ratio"))
    for q, rho, seed in config.cells():
        bounds.charge_hinge_sweep(q, config.budget)
        E = random_set(q, 2, rho, seed)
        hs = HingeSweep(E)
        card = E.cardinality
        numer = hs.remainder_numers()
        main = hs.exact * q**2 - numer  # q^2 I(a, b)
        violated = ~bounds.HINGE_REMAINDER.holds(numer, q, card)
        violated &= bounds.density_in_hinge_regime(q, rho)
        # int64 values below 2^53 divided in float64: correctly rounded, so each
        # equals float(Fraction(...)) and prints as _fmt would print it
        columns = (hs.exact, main / q**2, numer / q**2,
                   np.abs(numer) / bounds.HINGE_REMAINDER.unit(q, card))
        # the q - 1 rows of one radius a at a time, so that only one radius's
        # formatted lines exist before the sink writes them
        for a in range(1, q):
            fmt = f"{q},{card},{a},%d,%d,%.12g,%.12g,%.12g"
            rows = zip(range(1, q), *(c[a - 1].tolist() for c in columns))
            out.lines([fmt % row for row in rows], violated[a - 1])
    return out.violations


def _run_triangles(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "|E|", "rho", "signatures_all", "signatures_nondeg",
                               "orbits_SO", "orbits_O", "ratio_to_rho_q3"))
    for q, rho, seed in config.cells():
        bounds.charge_triangle_table(q, config.budget)
        E = random_set(q, 2, rho, seed)
        sig_all = distinct_signature_count(E, mode="all")
        sig_nd = distinct_signature_count(E, mode="nondegenerate")
        orbits_so = t3_orbit_count(E, group="SO")
        orbits_o = t3_orbit_count(E, group="O")
        out.row((q, E.cardinality, float(rho), sig_all, sig_nd, orbits_so, orbits_o,
                 bounds.signature_ratio(sig_all, q, rho)),
                violated=not bounds.triangle_chain_holds(sig_all, orbits_o, orbits_so))
    return out.violations


def _run_counterexample(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "|A|", "|E|", "rho", "sumset_size", "sumset_full",
                               "violations"))
    for q in config.qs:
        field = PrimeField(q)
        cs = build_counterexample(field)
        if config.exhaustive:
            bounds.charge_midpoint_pairs(cs.E.cardinality, config.budget)
        else:
            bounds.charge_midpoint_samples(config.samples, config.budget)
        report = midpoint_exclusion_check(
            cs,
            samples=config.samples,
            seed=config.seeds[0],
            exhaustive=config.exhaustive,
        )
        bad = cs.sumset_is_full or report.violations > 0
        out.row((q, len(cs.A), cs.E.cardinality, float(cs.density), cs.sumset_size,
                 "true" if cs.sumset_is_full else "false", report.violations),
                violated=bad)
    return out.violations


def _run_sweep(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    return [r.record() for r in exp.run_sweep(config, stream).failures]


def _check_out_writable(path: str) -> None:
    """Fail before the run, not after it, when the table could not be written."""
    directory = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else directory
    if not os.path.isdir(directory) or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise _CliError(f"cannot write --out {path}")


_RUNNERS = {
    "spheres": _run_spheres,
    "charsum": _run_charsum,
    "hinges": _run_hinges,
    "triangles": _run_triangles,
    "counterexample": _run_counterexample,
    "sweep": _run_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _gather_config(args)
        if config.out:
            _check_out_writable(config.out)
        # held back until the runner returns, so a failed run writes no table
        table = io.StringIO()
        violations = _RUNNERS[args.command](config, table)
        if config.out:
            with open(config.out, "w", newline="") as stream:
                stream.write(table.getvalue())
        else:
            sys.stdout.write(table.getvalue())
    except (_CliError, OSError, ValueError, BudgetError, CapacityError) as err:
        print(f"ffgeom: error: {err}", file=sys.stderr)
        return 1
    if violations:
        for record in violations:
            print(",".join(record), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
