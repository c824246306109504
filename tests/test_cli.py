"""End-to-end runs of the command-line harness through main()."""

import argparse
import csv
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ffgeom
from ffgeom import bounds, cli, experiments
from ffgeom.circles import midpoint_exclusion_check
from ffgeom.cli import main
from ffgeom.counting import HingeSweep
from ffgeom.experiments import random_set
from ffgeom.field import PrimeField

RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run_to_file(tmp_path, argv):
    out = tmp_path / "out.csv"
    code = main(argv + ["--out", str(out)])
    rows = list(csv.reader(out.read_text().splitlines()))
    return code, rows


class TestSpheres:
    def test_table(self, tmp_path):
        code, rows = run_to_file(tmp_path, ["spheres", "--q", "13"])
        assert code == 0
        assert rows[0] == ["q", "d", "t", "count", "reference", "status"]
        assert len(rows) == 1 + 13
        zero = rows[1]
        assert zero == ["13", "2", "0", zero[3], "", "info"]
        for row in rows[2:]:
            assert row[5] == "pass"
            assert row[3] == row[4] == "12"  # q - eta(-1) = 12 at q = 13

    def test_multiple_moduli(self, tmp_path):
        code, rows = run_to_file(tmp_path, ["spheres", "--q", "5,7"])
        assert code == 0
        assert len(rows) == 1 + 5 + 7
        assert {r[0] for r in rows[1:]} == {"5", "7"}


class TestCharsum:
    def test_table(self, tmp_path):
        code, rows = run_to_file(tmp_path, ["charsum", "--q", "5"])
        assert code == 0
        assert rows[0] == ["q", "kind", "param", "re", "im", "modulus",
                           "reference", "status"]
        by_kind = {}
        for row in rows[1:]:
            by_kind.setdefault(row[1], []).append(row)
        assert set(by_kind) == {"gauss", "kloosterman_trivial",
                                "kloosterman_quadratic", "sphere"}
        gauss0 = by_kind["gauss"][0]
        assert gauss0[2] == "0" and gauss0[6] == "5" and gauss0[7] == "pass"
        k0 = by_kind["kloosterman_trivial"][0]
        assert k0[2] == "0" and k0[7] == "info"
        assert float(k0[3]) == pytest.approx(-1)
        for row in by_kind["gauss"][1:]:
            assert row[7] == "pass"
            assert float(row[5]) == pytest.approx(5**0.5)
        for kind in ("kloosterman_trivial", "kloosterman_quadratic"):
            for row in by_kind[kind][1:]:
                assert row[7] == "pass"
                assert float(row[5]) <= 2 * 5**0.5 + 1e-9

    def test_grid_cap_refuses_before_any_character_sum(self, monkeypatch, capsys):
        # 3163^2 > GRID_CAPACITY: the sphere table meets the cap before O(q^2) sums run
        calls = []
        real = cli.gauss_sum
        monkeypatch.setattr(cli, "gauss_sum", lambda *args: calls.append(args) or real(*args))
        assert main(["charsum", "--q", "3163"]) == 1
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid of size 3163^2 = 10004569 exceeds capacity 10000000" in captured.err

    @pytest.mark.parametrize("budget,code", [(506, 1), (507, 0)])
    def test_character_sums_charged_against_budget(self, monkeypatch, capsys, budget, code):
        # q Gauss sums and 2q Kloosterman sums of q terms: 3 * 13^2 = 507 steps
        computed = []
        real = cli.gauss_sum

        def counted(*args):
            sums = real(*args)
            computed.extend(np.atleast_1d(sums))
            return sums

        monkeypatch.setattr(cli, "gauss_sum", counted)
        assert main(["charsum", "--q", "13", "--budget", str(budget)]) == code
        assert len(computed) == (0 if code else 13)
        if code:
            assert capsys.readouterr().err == (
                "ffgeom: error: character sums at q=13 need 3 * 13^2 steps, budget 506\n")


    def test_table_bytes_match_the_recorded_hash(self, capsys):
        recorded = json.loads(RECORDED.read_text())["spectral"]["charsum csv_sha256"]
        assert main(["charsum", "--q", "1009"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == recorded

    def test_one_wrong_gauss_value_prints_its_row(self, monkeypatch, capsys):
        real = cli.gauss_sum

        def one_wrong(field, j):
            sums = real(field, j).copy()
            sums[5] *= 2
            return sums

        monkeypatch.setattr(cli, "gauss_sum", one_wrong)
        assert main(["charsum", "--q", "13"]) == 2
        captured = capsys.readouterr()
        rows = [line for line in captured.out.splitlines() if line.startswith("13,gauss,5,")]
        assert len(rows) == 1 and rows[0].endswith(",fail")
        value = 2 * real(PrimeField(13), 5)
        assert rows[0].split(",")[3:6] == ["%.12g" % v for v in (value.real, value.imag, abs(value))]
        assert captured.err == rows[0] + "\n"


class TestHinges:
    def test_rows_match_library(self, tmp_path):
        code, rows = run_to_file(
            tmp_path, ["hinges", "--q", "5", "--density", "0.5", "--seed", "0"]
        )
        assert code == 0
        assert rows[0] == ["q", "|E|", "a", "b", "exact", "I", "R", "bound_ratio"]
        assert len(rows) == 1 + 16
        E = random_set(5, 2, Fraction(1, 2), 0)
        hs = HingeSweep(E)
        card = E.cardinality
        for row in rows[1:]:
            a, b = int(row[2]), int(row[3])
            # I = |D_a| |E| |S_b| / q^2, R = hinge(a, b) - I, ratio |R| / (q |E|)
            exact = int(hs.exact[a - 1, b - 1])
            main = Fraction(int(hs.pair_counts[a - 1]) * card * int(hs.sphere_sizes[b - 1]), 25)
            assert int(row[4]) == exact
            assert float(row[5]) == pytest.approx(float(main))
            assert float(row[6]) == pytest.approx(float(exact - main))
            assert float(row[7]) == pytest.approx(float(abs(exact - main) / (5 * card)))

    def test_violation_exits_two_with_stderr_rows(self, capsys, monkeypatch):
        # rho^2 q = 67/4 puts the set in the regime; with constant 0 every row
        # violates (no remainder is 0 here), and the printed table is unchanged
        argv = ["hinges", "--q", "67", "--density", "0.5", "--seed", "0"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        remainder = bounds.HINGE_REMAINDER
        monkeypatch.setattr(bounds, "HINGE_REMAINDER",
                            bounds.Bound(remainder.statistic, 0, remainder.unit))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == clean
        assert captured.err.splitlines() == clean.splitlines()[1:]

    def test_peak_memory_at_q101(self, tmp_path):
        # the sweep's gathers of 1024 points of E peak near 3.1 MB and the rows of one
        # radius a at a time add about 0.15 MB; formatting all (q - 1)^2 rows before
        # writing any lifted the run to 5.0 MB
        argv = ["hinges", "--q", "101", "--density", "0.5", "--seed", "0",
                "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 0  # the per-q tables are cached once, outside the measurement
        tracemalloc.start()
        try:
            main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.2e6, peak

    def test_budget_guard_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["hinges", "--q", "13", "--budget", "1000",
                     "--out", str(out)])
        assert code == 1
        assert "budget" in capsys.readouterr().err


class TestTriangles:
    def test_full_grid_row_pinned(self, tmp_path):
        code, rows = run_to_file(
            tmp_path,
            ["triangles", "--q", "5", "--density", "1", "--seed", "0",
             "--budget", str(10**10)],
        )
        assert code == 0
        assert rows[0] == ["q", "|E|", "rho", "signatures_all",
                           "signatures_nondeg", "orbits_SO", "orbits_O",
                           "ratio_to_rho_q3"]
        assert rows[1] == ["5", "25", "1", "85", "60", "157", "91", "0.68"]

    @pytest.mark.parametrize("broken", ["o", "so"])
    def test_chain_violation_exits_two(self, tmp_path, monkeypatch, broken):
        # an orbit count of 1 breaks the chain: O below the signatures, or SO below O
        real = cli.t3_orbit_count

        def orbit_count(E, group="SO"):
            return 1 if group.lower() == broken else real(E, group=group)

        monkeypatch.setattr(cli, "t3_orbit_count", orbit_count)
        out = tmp_path / "out.csv"
        code = main(["triangles", "--q", "5", "--density", "0.5", "--seed", "0",
                     "--out", str(out)])
        assert code == 2

    def test_table_charged_before_it_is_built(self, monkeypatch, capsys):
        # 7^4 - 1 steps: the one charge refuses the set before any count is read
        calls = []
        for name in ("distinct_signature_count", "t3_orbit_count"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
        assert main(["triangles", "--q", "7", "--density", "0.5", "--budget", "2400"]) == 1
        assert calls == []
        assert ("ffgeom: error: triangle table at q=7 needs 7^4 steps, budget 2400\n"
                == capsys.readouterr().err)

    def test_q97_ends_within_4_gib(self):
        # a 471-point set at q = 97: the sweep gets all four triangle counts
        # from one table in bounded memory
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "ffgeom.cli", "sweep", "--q", "97",
             "--density", "0.05", "--seed", "0"],
            capture_output=True, text=True, env=env, timeout=300,
            preexec_fn=cap_address_space,
        )
        assert proc.returncode == 0, proc.stderr
        rows = {r[4]: r for r in csv.reader(proc.stdout.splitlines()[1:])}
        assert rows["signatures_all"][3] == "471"
        assert rows["signatures_all"][5] == "465697"
        assert rows["signatures_nondeg"][5] == "456288"
        assert rows["orbits_so"][5] == "922181"
        assert rows["orbits_o"][5] == "465795"
        assert rows["orbits_so"][8] == rows["orbits_o"][8] == "pass"


class TestCounterexample:
    def test_row_pinned(self, tmp_path):
        code, rows = run_to_file(
            tmp_path, ["counterexample", "--q", "257", "--seed", "0"]
        )
        assert code == 0
        assert rows[0] == ["q", "|A|", "|E|", "rho", "sumset_size",
                           "sumset_full", "violations"]
        assert rows[1] == ["257", "1", "256", "0.00387591030901", "1",
                           "false", "0"]

    def test_exhaustive_flag(self, tmp_path):
        code, rows = run_to_file(
            tmp_path, ["counterexample", "--q", "257", "--exhaustive"]
        )
        assert code == 0
        assert rows[1][6] == "0"

    @pytest.mark.parametrize("budget,code", [("49", 1), ("50", 0)])
    def test_sampled_pairs_charged_against_budget(self, capsys, budget, code):
        argv = ["counterexample", "--q", "257", "--samples", "50", "--budget", budget]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert ("sampled midpoint check needs 50 pairs, budget 49" in err) == (code == 1)

    def test_exhaustive_budget_guard(self, monkeypatch, capsys):
        # the 256 points' 256^2 ordered pairs are charged before the check runs
        reports = []

        def recording_check(cs, **kwargs):
            reports.append(midpoint_exclusion_check(cs, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "midpoint_exclusion_check", recording_check)
        argv = ["counterexample", "--q", "257", "--exhaustive", "--budget"]
        for budget in (10, 256**2 - 1):
            assert main(argv + [str(budget)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert (f"ffgeom: error: exhaustive midpoint check needs 256^2 pairs, "
                    f"budget {budget}") in captured.err
        assert reports == []
        assert main(argv + [str(256**2)]) == 0
        capsys.readouterr()
        assert [r.applicable for r in reports] == [65280]

    def test_misspelt_exhaustive_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 257\nexhaustive = ture\n")
        assert main(["counterexample", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "exhaustive" in captured.err
        assert captured.out == ""

    def test_small_modulus_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(["counterexample", "--q", "251", "--out", str(out)])
        assert code == 1
        assert "257" in capsys.readouterr().err


class TestSweep:
    def test_clean_cell(self, tmp_path):
        code, rows = run_to_file(
            tmp_path, ["sweep", "--q", "5", "--density", "0.5", "--seed", "0"]
        )
        assert code == 0
        assert rows[0] == ["q", "rho", "seed", "card", "statistic", "value",
                           "reference", "ratio", "status"]
        assert len(rows) == 1 + 8
        assert all(r[8] in ("pass", "info") for r in rows[1:])

    def test_violation_exits_two_with_stderr_rows(self, tmp_path, capsys):
        # the full grid at q = 7 sits inside the energy regime and breaks
        # the 8q|E| bound: max_x n_a(x)^2 summed over E is 49 * 64 > 8 * 7 * 49
        out = tmp_path / "out.csv"
        code = main(["sweep", "--q", "7", "--density", "1", "--seed", "0",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert (
            "7,1,0,49,hinge_energy_max,9.14285714286,8,1.14285714286,fail"
            in err
        )
        rows = list(csv.reader(out.read_text().splitlines()))
        assert any(r[4] == "hinge_energy_max" and r[8] == "fail" for r in rows[1:])

    def test_orbit_rows_check_o_against_so(self, tmp_path, monkeypatch):
        # each count is at least the signatures, but orbits_O > orbits_SO
        # breaks the middle link of the chain, so both orbit rows fail
        real = experiments.t3_orbit_count

        def swapped(E, group="SO"):
            return real(E, "O" if group == "SO" else "SO")

        monkeypatch.setattr(experiments, "t3_orbit_count", swapped)
        code, rows = run_to_file(tmp_path, ["sweep", "--q", "5", "--density", "0.5",
                                            "--seed", "0"])
        assert code == 2
        values = {r[4]: r for r in rows[1:]}
        assert int(values["orbits_o"][5]) > int(values["orbits_so"][5]) >= int(
            values["signatures_all"][5])
        assert values["orbits_so"][8] == values["orbits_o"][8] == "fail"


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["waffles"]) == 1
        capsys.readouterr()

    def test_composite_modulus(self, capsys):
        assert main(["spheres", "--q", "4"]) == 1
        assert "prime" in capsys.readouterr().err.lower()

    def test_unparseable_modulus(self, capsys):
        assert main(["spheres", "--q", "abc"]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["spheres", "--config", str(tmp_path / "none.cfg")]) == 1
        capsys.readouterr()

    def test_dimension_key_is_unknown(self, tmp_path, capsys):
        # every statistic is planar; a config asking for d = 3 is refused, not ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 5\nd = 3\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "unknown config key 'd'" in captured.err
        assert captured.out == ""
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("argv,setting", [
        ("counterexample --q 257 --seed ,", "seed"),
        ("sweep --q 5 --seed ,", "seed"),
        ("triangles --q 5 --density ,", "density"),
    ])
    def test_empty_grid_list(self, capsys, argv, setting):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"at least one {setting} is required" in captured.err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_denominator_density(self, tmp_path, capsys, source):
        argv = ["sweep", "--q", "5"]
        if source == "flag":
            argv += ["--density", "1/0"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("density = 1/0\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ffgeom: error: density: ")
        assert "'1/0'" in captured.err
        assert captured.err.count("\n") == 1

    def test_bad_group_value(self, tmp_path, capsys):
        # both groups are always counted, so --group and the group key are unknown
        assert main(["triangles", "--group", "so"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --group so" in captured.err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("group = so\n")
        assert main(["triangles", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config key 'group'" in captured.err

    def test_unwritable_out(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "out.csv"
        assert main(["spheres", "--q", "5", "--out", str(target)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("name", ["missing-dir/out.csv", "."])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, name):
        calls = []
        monkeypatch.setitem(cli._RUNNERS, "sweep", lambda config, stream: calls.append(config))
        assert main(["sweep", "--q", "5", "--out", str(tmp_path / name)]) == 1
        assert calls == []
        assert "--out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "triangles --q 7 --density 0.5 --budget 100",
    # the q = 5 row completes (5^4 steps) before the q = 7 table (7^4) is refused
    "triangles --q 5,7 --density 0.5 --seed 0 --budget 2400",
])
def test_failed_run_writes_no_table(tmp_path, capsys, argv):
    assert main(argv.split()) == 1
    assert capsys.readouterr().out == ""
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    assert main(argv.split() + ["--out", str(out)]) == 1
    assert out.read_text() == "previous\n"


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 13\ndensity = 0.5\nseed = 0\n")
        code, rows = run_to_file(
            tmp_path, ["spheres", "--config", str(cfg), "--q", "5"]
        )
        assert code == 0
        assert {r[0] for r in rows[1:]} == {"5"}

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q = 7\n")
        code, rows = run_to_file(tmp_path, ["spheres", "--config", str(cfg)])
        assert code == 0
        assert {r[0] for r in rows[1:]} == {"7"}

    def test_mode_key_is_refused(self, tmp_path, capsys):
        # the subcommand picks what runs, so a file's mode is refused, not ignored
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = hinges\nq = 5\n")
        assert main(["spheres", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown config key 'mode'" in captured.err

    def test_out_flag_overrides_config_out(self, tmp_path):
        decoy = tmp_path / "decoy.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q = 5\nout = {decoy}\n")
        real = tmp_path / "real.csv"
        code = main(["spheres", "--config", str(cfg), "--out", str(real)])
        assert code == 0
        assert real.exists()
        assert not decoy.exists()


# one value per run setting, as a flag and as config-file text, and a second
# value that the flag brings when both are given; --exhaustive can only say true
SETTINGS = {
    "q": ("5,7", "11"),
    "density": ("0.3,0.5", "1"),
    "seed": ("3", "4,5"),
    "out": ("first.csv", "second.csv"),
    "budget": ("1000", "2000"),
    "samples": ("50", "60"),
    "exhaustive": ("false", "true"),
}


def subcommand_flags():
    """(subcommand, config key) for every flag but --config of every subcommand."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(name, action.dest) for name, sp in sub.choices.items()
            for action in sp._actions if action.option_strings
            and action.dest not in ("help", "config")]


def flag_argv(key, text):
    if key == "exhaustive":
        return ["--exhaustive"] if text == "true" else []
    return [f"--{key}", text]


def gathered(argv):
    return cli._gather_config(cli._build_parser().parse_args(argv))


class TestSettingsTable:
    """Flags and config files read one table of keys."""

    def test_every_key_has_a_case(self):
        assert set(SETTINGS) == set(experiments.CONFIG_KEYS)

    def test_every_flag_is_a_table_key(self):
        assert {key for _, key in subcommand_flags()} <= set(experiments.CONFIG_KEYS)

    @pytest.mark.parametrize("command,key", subcommand_flags())
    def test_flag_and_file_agree(self, tmp_path, command, key):
        text = SETTINGS[key][1]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_file = gathered([command, "--config", str(cfg)])
        assert from_file == gathered([command] + flag_argv(key, text))
        assert from_file != experiments.ExperimentConfig()

    @pytest.mark.parametrize("command,key", subcommand_flags())
    def test_flag_overrides_file(self, tmp_path, command, key):
        in_file, in_flag = SETTINGS[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {in_file}\n")
        both = gathered([command, "--config", str(cfg)] + flag_argv(key, in_flag))
        assert both == gathered([command] + flag_argv(key, in_flag))
        assert both != gathered([command, "--config", str(cfg)])


def test_stdout_path(capsys):
    code = main(["spheres", "--q", "5"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,d,t,count,reference,status"
    assert len(lines) == 6


def test_determinism(tmp_path):
    argv = ["sweep", "--q", "5,7", "--density", "0.3,0.5", "--seed", "0,1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of stdout, recorded before the bound checks moved to ffgeom.bounds
@pytest.mark.parametrize("argv,digest", [
    ("spheres --q 13,17",
     "ecb88406706eee18ff3d3043cc83a2bac80a927730bf6677ea10abf82035299e"),
    ("charsum --q 13",
     "225af810c868483aeb421a67022a6a430c45b7ffb2299700c100bfa26e016d15"),
    # rho^2 q = 13/4: outside the remainder regime
    ("hinges --q 13 --density 0.5 --seed 0",
     "0a16575b499b7044a77589b7f2576687dc139f377c1b2bca9f052b6552c3f14c"),
    # rho^2 q = 67/4 >= 16: inside it
    ("hinges --q 67 --density 0.5 --seed 0",
     "eb84a5e2f7ebc1b024e142e702117eb5c3b772082bcbb0f38982b9120776d746"),
    ("triangles --q 7 --density 0.5 --seed 0",
     "d12dba0e170b8d34a73ca21f9753aafdedd307a8376062d4d0087a848985f3cf"),
    # recorded while the counterexample was still gathered off a norm table
    ("counterexample --q 257 --seed 3 --samples 500",
     "b9006e70ed436df9d7e7fbda688d52a73b6ce09671e013e82d6aadc04e8529b7"),
    ("counterexample --q 263 --exhaustive",
     "348bb303ed1a83bdfcd178424ac8a9323f7baf8fd6e29c25a3bdc2c4c929523a"),
    ("counterexample --q 1009 --exhaustive",
     "0a46c0d0c560762214cdea059762cff305c83f2a64885d190ebee6df053288dc"),
    ("counterexample --q 2053,3001 --seed 7 --samples 2000",
     "fc7e9e92ec0930f6dd7e69e820e0a9c527f753a71116233c4b7960f0630610ea"),
])
def test_stdout_bytes_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParserReuse:
    """One parser serves every main() call in a process."""

    def test_exhaustive_does_not_carry_over(self, monkeypatch, capsys):
        modes = []

        def recording_check(cs, **kwargs):
            modes.append(kwargs["exhaustive"])
            return midpoint_exclusion_check(cs, **kwargs)

        monkeypatch.setattr(cli, "midpoint_exclusion_check", recording_check)
        assert main(["counterexample", "--q", "257", "--exhaustive"]) == 0
        assert main(["counterexample", "--q", "257"]) == 0
        assert modes == [True, False]
        capsys.readouterr()

    def test_usage_error_leaves_the_parser_as_fresh(self, capsys):
        argv = ["triangles", "--q", "7", "--density", "0.5", "--seed", "0"]
        cli._build_parser.cache_clear()
        assert main(argv) == 0
        fresh = capsys.readouterr().out
        assert main(["triangles", "--group", "all"]) == 1
        assert main(["triangles", "--q"]) == 1
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh

    def test_built_once(self, capsys):
        cli._build_parser.cache_clear()
        for argv in (["spheres", "--q", "5"], ["waffles"], ["charsum", "--q", "5"]):
            main(argv)
        assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()


def test_public_names_resolve():
    # every exported name is importable; the removed scalar layers stay out
    for name in ffgeom.__all__:
        assert hasattr(ffgeom, name), name
    assert "HingeReport" not in ffgeom.__all__
    assert "Rotation" not in ffgeom.__all__
