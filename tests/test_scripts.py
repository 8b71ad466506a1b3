import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_omega_sweep_runs_from_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["--region", "clean", "--models", "1", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "omega_sweep.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = dict(field.split("=") for field in proc.stdout.splitlines()[-1].split())
    assert (summary["region"], summary["points"]) == ("clean", "3")
    # this draw is a clean model: omega is within its bound of mp_omega at all 3 points
    assert (summary["outside"], summary["exit4"]) == ("0", "0")
    assert float(summary["ms_per_point"]) > 0


P0_INLINE = ["--lam", "1", "--mu", "1", "--c", "3", "2"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["derive", *P0_INLINE], 0),
        (["ruin", *P0_INLINE, "--u", "1", "3", "--tol", "0"], 2),
        (["derive", "--model", "no-such-model.json"], 2),
        (["invert", *P0_INLINE, "--x", "2", "1"], 3),
        (["pde", *P0_INLINE, "--steps", "4", "--tol", "1e-12"], 4),
        # on the regime seam rho = p2^2/p1, where the pole -gamma2 meets the cut end
        (["ruin", "--lam", "1", "--mu", "1", "--c", "4", "2", "--u", "1", "3"], 0),
    ],
)
def test_cli_entry_point_exit_codes(tmp_path, argv, code):
    # the process status a shell sees, which in-process tests cannot observe
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "ruin2d.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert bool(proc.stdout) == (code == 0)


def test_cut_bound_below_resolution_exits_4(tmp_path):
    # -(p1 - p2)^2, the leading coefficient of b's radicand, rounds to zero at
    # p1 - p2 = 2e-8, and closedform.omega refuses
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["ruin", "--lam", "1", "--mu", "1", "--c", "1.00000003", "1.00000001",
            "--u", "1", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "ruin2d.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tolerance error: ")
