import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ruin2d import closedform
from ruin2d.model import Exponential, RiskModel

from oracles import mp_omega

ROOT = Path(__file__).resolve().parents[1]


def test_pde_convergence_runs_from_checkout():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "pde_convergence.py"), "--steps", "25", "50"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row for row in map(str.split, proc.stdout.splitlines()) if row and row[0].isdigit()]
    assert [row[0] for row in rows] == ["25", "50"]
    assert all(float(row[-1]) <= 1.0 for row in rows)  # true error / printed bound


def report_line(section, name, shown, unit, note=""):
    """One line of perfbench/run.py's readable report, in its layout."""
    return f"{section:<7} {name:<42} {shown:>14} {unit:<6} {note}".rstrip()


def canned_perfbench_stdout(correct, failed, values, kinds=None):
    """What perfbench/run.py prints: a readable report, then one JSON line.

    ``kinds`` maps each per-kind report line, ``(section, name)``, to its value.
    """
    machine = {"workload": "point_queries", "seed": 1, "seconds": 25.0, "trace": 0,
               "nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6",
               "scipy": "1.17.1", "platform": "Linux-x86_64"}
    units = {"setup_s": "s", "wall_cal": "cal", "cmd_p50_gmean_cal": "cal", "peak_rss_mb": "MB"}
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    report = [report_line("e2e", k, f"{v:.6g}", units[k]) for k, v in values.items()]
    report += [report_line(section, name, f"{v:.6g}", "ms", "n=40")
               for (section, name), v in (kinds or {}).items()]
    return "\n".join(["# perfbench workload=point_queries seed=1",
                      "# machine " + json.dumps(machine, sort_keys=True),
                      *report, json.dumps(result)]) + "\n"


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_builds_a_record_from_two_runs():
    bench_pairs = load_bench_pairs()
    kinds = {("kind", "exact_p50_ms"): 12.5, ("kind", "mc_direct_p50_ms"): 140.0,
             ("metric", "mc_direct_s_to_se1e-3"): 0.8,
             # neither a command kind's latency nor an MC estimator's time to 1e-3
             ("metric", "exact_query_p50_ms"): 12.5, ("raw", "wall_s"): 3.0}
    base = bench_pairs.parse_run(canned_perfbench_stdout(True, 0, {
        "setup_s": 0.20, "wall_cal": 16.0, "cmd_p50_gmean_cal": 0.27, "peak_rss_mb": 113.0},
        kinds))
    change = bench_pairs.parse_run(canned_perfbench_stdout(False, 2, {
        "setup_s": 0.21, "wall_cal": 8.6, "cmd_p50_gmean_cal": 0.19, "peak_rss_mb": 120.0},
        {**kinds, ("kind", "exact_p50_ms"): 10.0, ("kind", "pde_s0_p50_ms"): 30.0}))
    assert base["kinds"] == {"exact_p50_ms": 12.5, "mc_direct_p50_ms": 140.0,
                             "mc_direct_s_to_se1e-3": 0.8}
    assert base["machine"] == {"nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6",
                               "scipy": "1.17.1", "platform": "Linux-x86_64"}
    metrics = {"setup_s": "lower", "wall_cal": "lower", "cmd_p50_gmean_cal": "lower",
               "peak_rss_mb": "lower"}
    pair = {"seed": 1, "first": "change", "dirs": {"base": "b", "change": "a"},
            "base": base, "change": change}
    record = bench_pairs.build_record("point_queries", 25.0, metrics, "abc", "def", [pair])
    assert json.loads(json.dumps(record)) == record
    assert (record["workload"], record["seconds"], record["base"], record["change"]) == (
        "point_queries", 25.0, "abc", "def")
    assert record["machine"] == base["machine"]
    (row,) = record["pairs"]
    assert (row["seed"], row["first"], row["dirs"]) == (1, "change", {"base": "b", "change": "a"})
    assert (row["base"]["correct"], row["change"]["correct"], row["change"]["failed"]) == (
        True, False, 2)
    assert row["change"]["metrics"]["wall_cal"] == 8.6
    assert row["change"]["kinds"]["pde_s0_p50_ms"] == 30.0
    # a kind that only one side reports is kept per run but not summarised
    assert sorted(record["kind_summary"]) == ["exact_p50_ms", "mc_direct_p50_ms",
                                              "mc_direct_s_to_se1e-3"]
    exact = record["kind_summary"]["exact_p50_ms"]
    assert (exact["better"], exact["change_wins"], exact["ratio"]["median"]) == ("lower", 1, 0.8)
    assert exact["base"] == {"median": 12.5, "q1": 12.5, "q3": 12.5}
    assert record["kind_summary"]["mc_direct_s_to_se1e-3"]["change_wins"] == 0
    wall = record["summary"]["wall_cal"]
    assert wall["base"] == {"median": 16.0, "q1": 16.0, "q3": 16.0}
    assert wall["change"]["median"] == 8.6 and wall["change_wins"] == 1
    assert record["summary"]["peak_rss_mb"]["change_wins"] == 0
    # quartiles over four pairs, whose base wall_cal reads 14, 15, 16 and 17
    pairs = [{**pair, "base": {**base, "metrics": {**base["metrics"], "wall_cal": w}}}
             for w in (16.0, 14.0, 17.0, 15.0)]
    record = bench_pairs.build_record("point_queries", 25.0, metrics, "abc", "def", pairs)
    assert record["summary"]["wall_cal"]["base"] == pytest.approx(
        {"median": 15.5, "q1": 14.75, "q3": 16.25})
    assert record["summary"]["wall_cal"]["change_wins"] == 4


def test_bench_pairs_ratios_interval_and_placement():
    bench_pairs = load_bench_pairs()
    # the sides swap names on every pair, and each order meets each name once per four
    plan = bench_pairs.plan(8, first_seed=101)
    assert [p["seed"] for p in plan] == list(range(101, 109))
    assert [p["dirs"]["base"] + p["dirs"]["change"] for p in plan] == ["ab", "ba"] * 4
    assert [p["first"] for p in plan] == ["base", "change", "change", "base"] * 2
    assert {(p["first"], p["dirs"]["base"]) for p in plan[:4]} == {
        ("base", "a"), ("base", "b"), ("change", "a"), ("change", "b")}
    assert all(len(set(map(len, p["dirs"].values()))) == 1 for p in plan)
    # ten pairs of canned runs: the change reads wall_cal 0.90, 0.91, ... 0.99 of the base
    metrics = {"setup_s": "lower", "wall_cal": "lower", "cmd_p50_gmean_cal": "lower",
               "peak_rss_mb": "lower"}
    pairs = []
    for k, p in enumerate(bench_pairs.plan(10)):
        runs = {side: bench_pairs.parse_run(canned_perfbench_stdout(True, 0, {
            "setup_s": 0.2, "wall_cal": 40.0 * scale, "cmd_p50_gmean_cal": 5.0,
            "peak_rss_mb": 100.0 + k}))
            for side, scale in (("base", 1.0), ("change", 0.9 + k / 100))}
        pairs.append({**p, **runs})
    record = bench_pairs.build_record("mc_estimators", 25.0, metrics, "abc", "def", pairs)
    wall = record["summary"]["wall_cal"]
    assert wall["change_wins"] == 10
    # the 2nd smallest and 2nd largest of ten ratios: 1 - 2 * 11/1024 coverage
    assert wall["ratio"]["median"] == pytest.approx(0.945, rel=1e-12)
    assert wall["ratio"]["interval"] == pytest.approx(
        {"lo": 0.91, "hi": 0.98, "coverage": 1.0 - 22.0 / 1024.0}, rel=1e-12)
    assert record["summary"]["cmd_p50_gmean_cal"]["ratio"] == {
        "median": 1.0, "interval": {"lo": 1.0, "hi": 1.0, "coverage": 1.0 - 22.0 / 1024.0}}
    assert [row["dirs"] for row in record["pairs"]] == [p["dirs"] for p in bench_pairs.plan(10)]
    # five pairs are too few for a 95% sign-test interval
    few = bench_pairs.build_record("mc_estimators", 25.0, metrics, "abc", "def", pairs[:5])
    assert few["summary"]["wall_cal"]["ratio"]["interval"] is None
    assert few["summary"]["wall_cal"]["ratio"]["median"] == pytest.approx(0.92, rel=1e-12)


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


def run_sweep(*argv):
    """The summary line of ``scripts/omega_sweep.py``, as a dict."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "omega_sweep.py"), *argv],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(field.split("=") for field in proc.stdout.splitlines()[-1].split())


def test_omega_sweep_runs_from_checkout():
    summary = run_sweep("--region", "clean", "--models", "1", "--seed", "1")
    assert (summary["region"], summary["points"]) == ("clean", "3")
    # this draw is a clean model: omega is within its bound of mp_omega at all 3 points
    assert (summary["outside"], summary["exit4"]) == ("0", "0")
    assert float(summary["ms_per_point"]) > 0


def test_omega_sweep_seam_band_within_bounds():
    # this draw puts p1 a relative 3.1e-8 from the regime seam p2^2/rho: omega once
    # missed its bound at one point (3.67e-11 under 3.27e-11) and scipy warned at all three
    summary = run_sweep("--region", "seam", "--models", "1", "--seed", "1")
    assert summary["points"] == "3"
    assert (summary["outside"], summary["exit4"], summary["warned"]) == ("0", "0", "0")


def test_omega_sweep_wide_units_answer():
    # this draw has (p2 - rho)/pi = 34: its point at (0.0124, 0.126) once exited 4, with
    # a cut integral error of 1.11e-8 against tol 1e-8, because quad's target left it out
    summary = run_sweep("--region", "wide", "--models", "1", "--seed", "9")
    assert summary["points"] == "3"
    assert (summary["outside"], summary["exit4"], summary["warned"]) == ("0", "0", "0")


P0_INLINE = ["--lam", "1", "--mu", "1", "--c", "3", "2"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["derive", *P0_INLINE], 0),
        (["ruin", *P0_INLINE, "--u", "1", "3", "--tol", "0"], 2),
        (["derive", "--model", "no-such-model.json"], 2),
        (["ruin", *P0_INLINE, "--u", "2", "1", "--method", "invert"], 3),
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


def test_ruin_exact_at_a_margin_of_2e_8(tmp_path):
    # p1 - p2 = 2e-8: b's radicand in the model's raw parameters, whose leading
    # coefficient -(p1 - p2)^2 rounds to zero here, once made omega refuse (exit 4)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["ruin", "--lam", "1", "--mu", "1", "--c", "1.00000003", "1.00000001",
            "--u", "1", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "ruin2d.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    match = re.fullmatch(r"ruin = (\S+)  method=exact  error<=(\S+)  regime=case2\n", proc.stdout)
    model = RiskModel(lam=1.0, claim=Exponential(1.0), c1=1.00000003, c2=1.00000001)
    exact = closedform.survival(model, 1.0, 3.0)
    assert match.groups() == ("%.12g" % exact.ruin, "%.12g" % exact.quadrature_error)
    # the ruin assembled with mp_omega; 1e-14 allows for the rounding of omega's panel sum
    reference = exact.ruin + exact.omega - mp_omega(model, 1.0, 3.0)
    assert abs(exact.ruin - reference) <= exact.quadrature_error + 1e-14
