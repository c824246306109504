"""Seeded set generation, the pointset file format, configs, and the sweep."""

import io
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from ffgeom.counting import PointSet
from ffgeom.experiments import (
    DEFAULT_DENSITIES,
    DEFAULT_QS,
    DEFAULT_SEEDS,
    SWEEP_COLUMNS,
    SWEEP_STATISTICS,
    ConfigFormatError,
    ExperimentConfig,
    PointsetFormatError,
    config_from_pairs,
    density_in_hinge_regime,
    load_pointset,
    parse_config_file,
    random_set,
    run_sweep,
    save_pointset,
    sweep_rows,
)
from ffgeom.field import PrimeField


class TestRandomSet:
    def test_cardinality_is_ceiling(self):
        E = random_set(13, 2, 0.5, seed=0)
        assert E.cardinality == 85  # ceil(169 / 2)
        assert random_set(7, 2, Fraction(1, 3), seed=0).cardinality == 17

    @pytest.mark.parametrize("q", (3, 5, 13, 17, 19, 31, 61))
    @pytest.mark.parametrize("rho", (Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), 1))
    @pytest.mark.parametrize("seed", (0, 1, 7, 2**40))
    def test_partial_shuffle_equals_the_full_shuffle(self, q, rho, seed):
        # the oracle: the first ceil(rho q^2) cells of CPython's whole shuffle
        cells = list(range(q * q))
        random.Random(seed).shuffle(cells)
        indicator = np.zeros(q * q, dtype=np.uint8)
        indicator[cells[: math.ceil(rho * q * q)]] = 1
        assert np.array_equal(random_set(q, 2, rho, seed).indicator, indicator)

    def test_density_one_is_full_grid(self):
        E = random_set(7, 2, 1, seed=3)
        assert E == PointSet.full_grid(PrimeField(7), 2)

    def test_deterministic_per_seed(self):
        a = random_set(13, 2, 0.3, seed=7)
        b = random_set(13, 2, 0.3, seed=7)
        c = random_set(13, 2, 0.3, seed=8)
        assert a == b
        assert a != c

    def test_float_density_reads_as_decimal_literal(self):
        assert random_set(13, 2, 0.3, 0) == random_set(13, 2, Fraction(3, 10), 0)
        assert random_set(13, 2, "0.3", 0) == random_set(13, 2, Fraction(3, 10), 0)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            random_set(13, 2, 0, seed=0)
        with pytest.raises(ValueError):
            random_set(13, 2, 1.5, seed=0)

    def test_one_dimensional_sets(self):
        E = random_set(13, 1, 0.5, seed=2)
        assert E.cardinality == 7
        assert E.d == 1


class TestPointsetFormat:
    def test_roundtrip(self, tmp_path):
        E = random_set(13, 2, 0.4, seed=5)
        path = str(tmp_path / "set.txt")
        save_pointset(E, path)
        assert load_pointset(path) == E

    def test_file_shape(self, tmp_path):
        E = PointSet.from_points(PrimeField(5), 2, [(1, 0), (0, 1), (2, 3)])
        path = str(tmp_path / "set.txt")
        save_pointset(E, path)
        text = open(path).read()
        # points sorted by grid index, first coordinate least significant
        assert text == "ffgeom-pointset v1 q=5 d=2\n1 0\n0 1\n2 3\n"

    def test_comments_and_blank_lines(self, tmp_path):
        path_obj = tmp_path / "set.txt"
        path_obj.write_text(
            "ffgeom-pointset v1 q=7 d=2\n"
            "\n"
            "# full-line comment\n"
            "3 4  # trailing comment\n"
            "0 0\n"
        )
        E = load_pointset(str(path_obj))
        assert E.cardinality == 2
        assert (3, 4) in E and (0, 0) in E

    def test_three_dimensional_roundtrip(self, tmp_path):
        E = random_set(5, 3, 0.2, seed=1)
        path = str(tmp_path / "set3.txt")
        save_pointset(E, path)
        assert load_pointset(path) == E

    @pytest.mark.parametrize(
        "content,line",
        [
            ("not a header\n1 2\n", 1),
            ("ffgeom-pointset v2 q=5 d=2\n1 2\n", 1),
            # the header is a physical line; no comments allowed there
            ("ffgeom-pointset v1 q=5 d=2 # note\n1 2\n", 1),
            ("ffgeom-pointset v1 q=6 d=2\n1 2\n", 1),  # composite modulus
            ("ffgeom-pointset v1 q=2 d=2\n1 0\n", 1),  # even prime
            ("ffgeom-pointset v1 q=4294967311 d=2\n1 2\n", 1),  # prime above 2**31
            ("ffgeom-pointset v1 q=5 d=2\n1\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 2 3\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 x\n", 2),
            # a digit to str.isdigit() that int() rejects; only ASCII digits count
            ("ffgeom-pointset v1 q=5 d=2\n1 \u00b2\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 \u0662\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 -2\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 5\n", 2),
            ("ffgeom-pointset v1 q=5 d=2\n1 2\n# gap\n1 2\n", 4),
            ("ffgeom-pointset v1 q=5 d=2\n# nothing\n", 1),
        ],
    )
    def test_rejections_name_their_line(self, tmp_path, content, line):
        p = tmp_path / "bad.txt"
        p.write_text(content, encoding="utf-8")
        with pytest.raises(PointsetFormatError) as exc:
            load_pointset(str(p))
        assert exc.value.line == line
        assert f"line {line}:" in str(exc.value)

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"ffgeom-pointset v1 q=5 d=2\n1 2\n3 \xff\n")
        with pytest.raises(PointsetFormatError) as exc:
            load_pointset(str(p))
        assert exc.value.line == 3


class TestConfigFile:
    def test_parse_pairs(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# sweep over two moduli\n"
            "q = 13, 17\n"
            "density=0.3,0.5\n"
            "seed = 0\n"
            "budget = 100000  # tight on purpose\n"
        )
        pairs = parse_config_file(str(p))
        assert pairs == {
            "q": "13, 17",
            "density": "0.3,0.5",
            "seed": "0",
            "budget": "100000",
        }

    def test_parse_rejects_malformed_lines(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("q = 13\njust words\n")
        with pytest.raises(ConfigFormatError) as exc:
            parse_config_file(str(p))
        assert exc.value.line == 2

    def test_parse_rejects_duplicates(self, tmp_path):
        p = tmp_path / "dup.cfg"
        p.write_text("q = 13\nq = 17\n")
        with pytest.raises(ConfigFormatError) as exc:
            parse_config_file(str(p))
        assert exc.value.line == 2

    def test_config_from_pairs(self):
        cfg = config_from_pairs(
            {"q": "13,17", "density": "0.3, 0.5", "seed": "0,1",
             "budget": "500", "exhaustive": "true"},
        )
        assert cfg.qs == (13, 17)
        assert cfg.densities == (Fraction(3, 10), Fraction(1, 2))
        assert cfg.seeds == (0, 1)
        assert cfg.budget == 500
        assert cfg.exhaustive is True

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("true", True), ("YES", True), ("0", False), ("False", False), ("no", False),
    ])
    def test_exhaustive_values(self, text, value):
        assert config_from_pairs({"exhaustive": text}).exhaustive is value

    @pytest.mark.parametrize("text", ["ture", "", "2", "on"])
    def test_exhaustive_rejects_other_values(self, text):
        with pytest.raises(ValueError, match="exhaustive"):
            config_from_pairs({"exhaustive": text})

    def test_config_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            config_from_pairs({"qq": "13"})

    def test_mode_key_is_unknown(self):
        # the subcommand picks what runs; a mode setting would be dead
        with pytest.raises(ValueError, match="unknown config key 'mode'"):
            config_from_pairs({"mode": "hinges"})

    @pytest.mark.parametrize("key,text", [("budget", "lots"), ("density", "1.5")])
    def test_parse_error_names_its_key(self, key, text):
        with pytest.raises(ValueError, match=f"^{key}: "):
            config_from_pairs({key: text})

    @pytest.mark.parametrize("key", ["density", "seed"])
    def test_empty_grid_list_is_refused(self, key):
        with pytest.raises(ValueError, match=f"at least one {key} is required"):
            config_from_pairs({key: ","})


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.qs == DEFAULT_QS
        assert cfg.densities == DEFAULT_DENSITIES
        assert cfg.seeds == DEFAULT_SEEDS

    def test_cell_order(self):
        cfg = ExperimentConfig(
            qs=(5, 7), densities=(Fraction(1, 2),), seeds=(0, 1)
        )
        assert list(cfg.cells()) == [
            (5, Fraction(1, 2), 0),
            (5, Fraction(1, 2), 1),
            (7, Fraction(1, 2), 0),
            (7, Fraction(1, 2), 1),
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"densities": ()},
            {"qs": ()},
            {"qs": (4,)},
            {"densities": (Fraction(3, 2),)},
            {"seeds": (-1,)},
            {"seeds": (2**64,)},
            {"budget": 0},
            {"densities": (Fraction(0),)},
            {"samples": 0},
            {"seeds": ()},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


def test_density_regime_threshold():
    # the regime is rho^2 q >= 16; at q = 64 the cutoff would be rho = 1/2
    assert density_in_hinge_regime(64, Fraction(1, 2))
    assert not density_in_hinge_regime(63, Fraction(1, 2))
    assert density_in_hinge_regime(31, Fraction(3, 4))
    assert not density_in_hinge_regime(13, Fraction(1, 2))


def one_cell_config(**kwargs):
    defaults = dict(
        qs=(5,), densities=(Fraction(1, 2),), seeds=(0,), budget=10**10
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


class TestSweep:
    def test_single_cell_shape(self):
        rows = list(sweep_rows(one_cell_config()))
        assert [r.statistic for r in rows] == list(SWEEP_STATISTICS)
        for r in rows:
            assert r.q == 5
            assert r.rho == Fraction(1, 2)
            assert r.seed == 0
            assert r.card == 13  # ceil(25 / 2)

    def test_statuses_and_references(self):
        rows = {r.statistic: r for r in sweep_rows(one_cell_config())}
        assert rows["signatures_all"].status == "info"
        assert rows["signatures_nondeg"].status == "info"
        assert rows["signatures_all"].reference == float(Fraction(1, 2) * 125)
        assert rows["orbits_so"].reference == rows["signatures_all"].value
        assert rows["orbits_so"].status == "pass"
        assert rows["orbits_o"].status == "pass"
        assert rows["pair_max_deviation"].reference == 2
        assert rows["fluctuation_max"].reference == 4
        # rho^2 q = 25/4 < 16 and 13^2 < 8 * 125: remainder out of regime
        assert rows["hinge_max_remainder"].status == "info"
        assert rows["hinge_energy_max"].status == "pass"

    def test_budget_rows(self):
        rows = list(sweep_rows(one_cell_config(budget=1)))
        assert [r.statistic for r in rows] == list(SWEEP_STATISTICS)
        for r in rows:
            assert r.status == "budget"
            assert r.value is None and r.reference is None and r.ratio is None
            assert r.record()[5:8] == ["", "", ""]

    def test_pair_table_capacity_alone(self):
        # 101^4 steps fit the default budget but not the pair table's capacity
        rows = list(sweep_rows(one_cell_config(qs=(101,), densities=(Fraction(1, 20),))))
        assert [r.statistic for r in rows] == list(SWEEP_STATISTICS)
        assert [r.status for r in rows[:4]] == ["budget"] * 4
        for r in rows[4:]:
            assert r.status != "budget" and r.value is not None

    def test_csv_replay_is_byte_identical(self):
        cfg = one_cell_config(qs=(5, 7), seeds=(0, 1))
        buf1, buf2 = io.StringIO(), io.StringIO()
        res1 = run_sweep(cfg, buf1)
        res2 = run_sweep(cfg, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert res1.rows == res2.rows

    def test_csv_header_and_row_grammar(self):
        buf = io.StringIO()
        result = run_sweep(one_cell_config(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + len(result.rows)
        for line, row in zip(lines[1:], result.rows):
            assert line == ",".join(row.record())

    def test_failures_collects_fail_rows_only(self):
        # the full grid at q = 7 is inside the energy regime and violates it
        cfg = one_cell_config(qs=(7,), densities=(Fraction(1, 1),))
        buf = io.StringIO()
        result = run_sweep(cfg, buf)
        assert [r.statistic for r in result.failures] == ["hinge_energy_max"]
        row = result.failures[0]
        assert row.value == pytest.approx(3136 / (7 * 49))
        assert row.status == "fail"
        assert "fail" in buf.getvalue()

    def test_default_sweep_matches_golden_file(self):
        # full default grid, byte for byte; regenerate the golden file with
        # `ffgeom sweep --out tests/data/golden_sweep.csv` only on deliberate
        # schema or grid changes
        golden = pathlib.Path(__file__).parent / "data" / "golden_sweep.csv"
        buf = io.StringIO()
        run_sweep(ExperimentConfig(), buf)
        assert buf.getvalue() == golden.read_text()

    def test_values_replay_against_direct_computation(self):
        from ffgeom.counting import HingeSweep, circle_profile

        cfg = one_cell_config(qs=(13,), densities=(Fraction(3, 10),), seeds=(4,))
        rows = {r.statistic: r for r in sweep_rows(cfg)}
        E = random_set(13, 2, Fraction(3, 10), 4)
        hs = HingeSweep(E)
        assert rows["hinge_max_remainder"].value == pytest.approx(
            hs.max_remainder_ratio() * 8 / 8
        )
        member = E.indicator.astype(np.int64)
        worst_energy = max(int(member @ circle_profile(E, a) ** 2) for a in range(1, 13))
        assert rows["hinge_energy_max"].value == pytest.approx(
            worst_energy / (13 * E.cardinality)
        )
