import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
EXPECTED = json.loads((BENCH / "expected.json").read_text())

TRIANGLES_CSV = (
    "q,|E|,rho,signatures_all,signatures_nondeg,orbits_SO,orbits_O,ratio_to_rho_q3\n"
    "31,481,0.5,14911,13950,28861,14911,1.00104058273\n"
)


def test_corrupted_golden_fails_the_run_and_posts_nothing(tmp_path):
    golden = bytearray((ROOT / EXPECTED["sweep"]["golden_csv"]).read_bytes())
    golden[len(golden) // 2] ^= 0x01
    (tmp_path / "golden.csv").write_bytes(bytes(golden))
    expected = dict(EXPECTED, sweep={"golden_csv": str(tmp_path / "golden.csv")})
    (tmp_path / "expected.json").write_text(json.dumps(expected))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--expected", str(tmp_path / "expected.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "golden" in proc.stderr


def test_non_default_seed_skips_recorded_values():
    bogus = json.loads(json.dumps(EXPECTED))
    for s in range(workloads.TRIANGLE_SEEDS):
        bogus["triangles-q31"].update({f"seed {s} orbits_so": 1, f"seed {s} csv_sha256": "0" * 64})

    default = workloads.Triangles(0, bogus, ROOT)
    other = workloads.Triangles(3, bogus, ROOT)
    assert default._check(0, (0, TRIANGLES_CSV))
    assert other._check(15, (0, TRIANGLES_CSV)) == []

    sweep = workloads.Sweep(3, EXPECTED, ROOT)
    assert sweep.golden is None
    sweep.items(0)
    assert sweep.check_pass() == []


def test_recording_collects_the_compared_values_without_checking():
    recording = workloads.Triangles(0, None, ROOT)
    assert recording._check(2, (0, TRIANGLES_CSV)) == []
    assert recording.observed["seed 2 orbits_so"] == 28861
    assert recording.observed["seed 2 csv_sha256"] == workloads.sha256(TRIANGLES_CSV)


def test_seed_independent_checks_still_apply_on_other_seeds():
    other = workloads.Triangles(3, EXPECTED, ROOT)
    broken = TRIANGLES_CSV.replace("28861,14911,", "28861,14000,")  # orbits_O < signatures
    assert other._check(15, (0, broken))
    assert other._check(15, (2, TRIANGLES_CSV))


def test_midpoint_check_compares_sampled_count_only_on_default_seed():
    from ffgeom.circles import MidpointReport

    bogus = json.loads(json.dumps(EXPECTED))
    bogus["circles"]["midpoint sampled applicable"] = -1
    exhaustive = EXPECTED["circles"]["midpoint exhaustive applicable"]
    report = {
        "sumset_is_full": False,
        "sampled": MidpointReport(workloads.MIDPOINT_SAMPLES, 9000, 0, False),
        "exhaustive": MidpointReport(0, exhaustive, 0, True),
    }
    assert workloads.Circles._check_midpoint(_stub(workloads.Circles, 0, bogus), report)
    assert workloads.Circles._check_midpoint(_stub(workloads.Circles, 5, bogus), report) == []


def test_sweep_spectral_runs_both_parts_under_one_recorder():
    import spans

    combined = workloads.SweepSpectral(3, EXPECTED, ROOT)
    recorder = spans.Recorder()
    combined.rec = recorder
    assert [part.rec for part in combined.parts] == [recorder, recorder]
    assert len(combined.items(0)) == sum(len(part.items(0)) for part in combined.parts) == 20


def test_sweep_cell_checks_reject_a_failing_row():
    from fractions import Fraction

    cell = (13, Fraction(1, 2), 9)
    code, out = workloads.invoke(workloads.NullRecorder(),
                                 ["sweep", "--q", "13", "--density", "0.5", "--seed", "9"])
    header = out.splitlines(keepends=True)[0]
    assert workloads.check_sweep_cell(cell, code, out, header) == []
    assert workloads.check_sweep_cell(cell, code, out.replace(",pass\n", ",fail\n", 1), header)


def _stub(cls, seed, expected):
    """A workload with only the fields its checks read, without its set-up."""
    obj = cls.__new__(cls)
    workloads.Workload.__init__(obj, seed, expected, ROOT)
    return obj
