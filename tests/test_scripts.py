"""The scripts under scripts/ as subprocesses: smoke runs at small sizes, and the
default sweep against its golden CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    """The script as a subprocess with src/ importable; stdout and stderr as bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("script,args,header", [
    ("calibrate_signature_floor.py", ["--q", "7", "--seeds", "1"],
     "seed  card  signatures  orbits_so  orbits_o      ratio"),
    ("hinge_energy_scan.py", ["--max-q", "7", "--seeds", "1"],
     "q     rho    card  in-regime  worst a  worst ratio"),
])
def test_script_runs(script, args, header):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert header in proc.stdout.decode().splitlines()


def test_default_sweep_script_reproduces_the_golden_csv():
    proc = _run("run_default_sweep.py")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / "golden_sweep.csv").read_bytes()
    assert proc.stderr.decode().splitlines() == ["240 rows: info=90  pass=150"]
