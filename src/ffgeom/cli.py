"""Command-line harness: tables and sweeps over the exact-counting library.

Subcommands: spheres, charsum, hinges, triangles, counterexample, sweep.
All output is CSV with a header row and LF endings, written to --out or
stdout once the run completes (a run that exits 1 writes no table and leaves
an existing --out file as it was); every run is a pure function of its flags
and config file.

Exit codes: 0 all asserted inequalities held, 2 an asserted bound failed
(the violating rows are printed to stderr), 1 usage or IO error.  Bounds
whose statements carry a density or size hypothesis are only asserted
inside that regime; out-of-regime rows are still emitted.

Flag values override config-file entries, which override defaults.  The
--group flag restricts which orbit statistics are computed; modes that do
not use a flag accept and ignore it, so one config file can drive several
subcommands.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

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


def _build_parser() -> _Parser:
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
        sp.add_argument("--group", choices=("so", "o"), help="orbit group filter")
        sp.add_argument("--config", help="flat key=value config file")
        if name == "counterexample":
            sp.add_argument("--samples", help="random midpoint pairs to check")
            sp.add_argument("--exhaustive", action="store_true",
                            help="check every pair instead of sampling")
    return parser


def _gather_config(args: argparse.Namespace) -> ExperimentConfig:
    pairs: Dict[str, str] = {}
    if args.config:
        pairs.update(exp.parse_config_file(args.config))
    flag_values = (
        ("q", args.q),
        ("density", args.density),
        ("seed", args.seed),
        ("out", args.out),
        ("budget", args.budget),
        ("group", args.group),
        ("samples", getattr(args, "samples", None)),
    )
    for key, value in flag_values:
        if value is not None:
            pairs[key] = str(value)
    if getattr(args, "exhaustive", False):
        pairs["exhaustive"] = "true"
    pairs["mode"] = args.command
    return exp.config_from_pairs(args.command, pairs)


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


def _run_charsum(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "kind", "param", "re", "im", "modulus", "reference", "status"))
    tol = 1e-9
    for q in config.qs:
        field = PrimeField(q)
        root_q = q**0.5
        for j in range(q):
            val = gauss_sum(field, j)
            if j == 0:
                ref, ok = q, abs(val - q) <= tol
            else:
                ref, ok = root_q, abs(abs(val) - root_q) <= tol
            out.row((q, "gauss", j, val.real, val.imag, abs(val), ref,
                     "pass" if ok else "fail"), violated=not ok)
        for psi in ("trivial", "quadratic"):
            kind = f"kloosterman_{psi}"
            for a in range(q):
                val = kloosterman(field, a, psi)
                # the Weil bound 2 sqrt(q) is stated for a != 0
                ref = None if a == 0 else 2 * root_q
                status = "info" if a == 0 else "pass" if abs(val) <= ref + tol else "fail"
                out.row((q, kind, a, val.real, val.imag, abs(val), ref, status),
                        violated=status == "fail")
        for t, count, ref, status in _sphere_checks(field):
            out.row((q, "sphere", t, count, 0, count, ref, status), violated=status == "fail")
    return out.violations


def _run_hinges(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "|E|", "a", "b", "exact", "I", "R", "bound_ratio"))
    for q, rho, seed in config.cells():
        bounds.charge_hinge_sweep(q, config.budget)
        E = random_set(q, 2, rho, seed)
        hs = HingeSweep(E)
        card = E.cardinality
        asserted = bounds.density_in_hinge_regime(q, rho)
        numer = hs.remainder_numers()
        main = hs.exact * q**2 - numer  # q^2 I(a, b)
        holds = bounds.HINGE_REMAINDER.holds(numer, q, card)
        for a in range(1, q):
            for b in range(1, q):
                n_ab = int(numer[a - 1, b - 1])
                out.row((q, card, a, b, int(hs.exact[a - 1, b - 1]),
                         float(Fraction(int(main[a - 1, b - 1]), q**2)),
                         float(Fraction(n_ab, q**2)),
                         bounds.HINGE_REMAINDER.value(n_ab, q, card)),
                        violated=asserted and not holds[a - 1, b - 1])
    return out.violations


def _run_triangles(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    out = exp.CsvSink(stream, ("q", "|E|", "rho", "signatures_all", "signatures_nondeg",
                               "orbits_SO", "orbits_O", "ratio_to_rho_q3"))
    for q, rho, seed in config.cells():
        E = random_set(q, 2, rho, seed)
        bounds.charge_signature_table(E.cardinality, config.budget)
        sig_all = distinct_signature_count(E, mode="all")
        sig_nd = distinct_signature_count(E, mode="nondegenerate")
        orbits_so: Optional[int] = None
        orbits_o: Optional[int] = None
        if config.group in ("so", "both"):
            orbits_so = t3_orbit_count(E, group="SO", budget=config.budget)
        if config.group in ("o", "both"):
            orbits_o = t3_orbit_count(E, group="O", budget=config.budget)
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
        report = midpoint_exclusion_check(
            cs,
            samples=config.samples,
            seed=config.seeds[0],
            exhaustive=config.exhaustive,
            budget=config.budget,
        )
        bad = cs.sumset_is_full or report.violations > 0
        out.row((q, len(cs.A), cs.E.cardinality, float(cs.density), cs.sumset_size,
                 "true" if cs.sumset_is_full else "false", report.violations),
                violated=bad)
    return out.violations


def _run_sweep(config: ExperimentConfig, stream: TextIO) -> List[List[str]]:
    return [r.record() for r in exp.run_sweep(config, stream).failures]


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
