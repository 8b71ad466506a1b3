import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pde_convergence_runs_from_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pde_convergence.py"), "--steps", "25", "50"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert [row[0] for row in rows if row and row[0].isdigit()] == ["25", "50"]


def test_crosscheck_grid_runs_from_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["--x1", "0.5", "--offsets", "1.0", "--paths", "2e4"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crosscheck_grid.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    results = [row for row in rows if len(row) == 8 and row[0] == "0.50"]
    assert len(results) == 1
    x1, x2, exact, inverted, gap = map(float, results[0][:5])
    assert (x1, x2) == (0.5, 1.5)
    assert gap <= 1e-3
    assert abs(exact - inverted) <= 1e-3
