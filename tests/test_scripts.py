"""Smoke tests: each gallery script runs to completion and writes its figures."""
import subprocess
import sys
from pathlib import Path

import pytest

from vfpolytope.mdp import FIXTURE_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args, n_figures",
    [
        ("polytope_gallery.py", ["--n", "200"], len(FIXTURE_NAMES)),
        ("dynamics_gallery.py", [], 7 * 3),
    ],
)
def test_gallery_writes_every_figure(script, args, n_figures, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--outdir", str(tmp_path), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for suffix in ("csv", "svg"):
        figures = sorted(tmp_path.glob(f"*.{suffix}"))
        assert len(figures) == n_figures
        assert all(path.stat().st_size > 0 for path in figures)
