"""Smoke runs of the scripts under scripts/, as subprocesses at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script,args,header", [
    ("calibrate_signature_floor.py", ["--q", "7", "--seeds", "1"],
     "seed  card  signatures  orbits_so  orbits_o      ratio"),
    ("hinge_energy_scan.py", ["--max-q", "7", "--seeds", "1"],
     "q     rho    card  in-regime  worst a  worst ratio"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert header in proc.stdout.splitlines()
