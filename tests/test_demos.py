"""Each demo script runs to completion against the package in ``src/`` and
prints the bytes pinned for it."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout, the same under CPython 3.10 to 3.13.  The
#: contraction label of ROADMAP item 1 changes demo 03's output, so that
#: change re-pins it.
DEMO_SHA256 = {
    "01_enumerate_families.py":
        "9b20df5687d003047538db5e67a246d5393cb7dd422f3710c25164ac9522d82f",
    "02_invariants_three_ways.py":
        "7528013e4c3f747f560cf18ce94a9778c5ece0e97d91485e8ae838c715c9da2f",
    "03_cone_geometry.py":
        "74bf847ba48e6e2f70476e09d05f2b62da1bdb620a44fbea3d2701c56765464c",
    "04_verify_and_export.py":
        "a48da7631a5bd665c01afd3dba50d9d31bbf72fef517802b24cb5377edb15ea6",
}


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    digest = hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()
    assert digest == DEMO_SHA256[demo.name]
