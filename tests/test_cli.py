"""End-to-end runs of the command-line harness through main()."""

import csv
import hashlib
from fractions import Fraction

import pytest

from ffgeom import cli
from ffgeom.cli import main
from ffgeom.counting import HingeSweep
from ffgeom.experiments import random_set


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
        for row in rows[1:]:
            a, b = int(row[2]), int(row[3])
            rep = hs.report(a, b, with_fourier=False)
            assert int(row[4]) == rep.exact_count
            assert float(row[5]) == pytest.approx(float(rep.main_term))
            assert float(row[6]) == pytest.approx(float(rep.remainder))
            assert float(row[7]) == pytest.approx(rep.bound_ratio)

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

    def test_group_filter_leaves_column_empty(self, tmp_path):
        code, rows = run_to_file(
            tmp_path,
            ["triangles", "--q", "5", "--density", "0.5", "--seed", "0",
             "--group", "so"],
        )
        assert code == 0
        assert rows[1][5] != ""
        assert rows[1][6] == ""
        code, rows = run_to_file(
            tmp_path,
            ["triangles", "--q", "5", "--density", "0.5", "--seed", "0",
             "--group", "o"],
        )
        assert code == 0
        assert rows[1][5] == ""
        assert rows[1][6] != ""


    @pytest.mark.parametrize("group", ["o", "so"])
    def test_chain_violation_exits_two(self, tmp_path, monkeypatch, group):
        # one orbit is fewer than the signatures, whichever group was counted
        monkeypatch.setattr(cli, "t3_orbit_count", lambda *args, **kwargs: 1)
        out = tmp_path / "out.csv"
        code = main(["triangles", "--q", "5", "--density", "0.5", "--seed", "0",
                     "--group", group, "--out", str(out)])
        assert code == 2

    def test_signature_stage_charged_against_budget(self, capsys):
        code = main(["triangles", "--q", "7", "--density", "0.5", "--budget", "100"])
        assert code == 1
        err = capsys.readouterr().err
        assert "signature table for |E|=25 needs 625 steps, budget 100" in err
        assert "orbit" not in err


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

    def test_bad_group_value(self, capsys):
        assert main(["triangles", "--group", "both"]) == 1
        capsys.readouterr()

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
    # the q = 5 row completes before the q = 7 orbit count exceeds the budget
    "triangles --q 5,7 --density 0.5 --seed 0 --budget 20000",
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

    def test_subcommand_overrides_config_mode(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = hinges\nq = 5\n")
        code, rows = run_to_file(tmp_path, ["spheres", "--config", str(cfg)])
        assert code == 0
        assert rows[0][:3] == ["q", "d", "t"]

    def test_out_flag_overrides_config_out(self, tmp_path):
        decoy = tmp_path / "decoy.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"q = 5\nout = {decoy}\n")
        real = tmp_path / "real.csv"
        code = main(["spheres", "--config", str(cfg), "--out", str(real)])
        assert code == 0
        assert real.exists()
        assert not decoy.exists()


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
])
def test_stdout_bytes_pinned(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
