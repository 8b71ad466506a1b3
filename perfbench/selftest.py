#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute): ``python3 perfbench/selftest.py``.

Checks that BENCHMARK.json is well formed, that inputs follow from the seed,
that the output checks reject wrong outputs, that every workload emits every
metric of BENCHMARK.json with and without tracing, and that a directory
without the program's sources gives an error and no result.  Run it from
the root of a source checkout; it exits nonzero when a test fails.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402  (needs the path above)
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Figures each workload's report must print, beside the BENCHMARK.json metrics.
REPORTED = {
    "exact_table": ["table_points_per_s"],
    "point_queries": ["exact_query_p50_ms", "exact_query_p95_ms", "degenerate_query_p50_ms",
                      "invert_query_p50_ms", "pde_query_p50_ms"],
    "mc_estimators": ["mc_direct_s_to_se1e-3", "mc_lt_s_to_se1e-3", "mc_cond_s_to_se1e-3",
                      "fluid_paths_per_s"],
}


def test_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir(), path


def _signature(ops) -> list:
    return [(op.kind, op.argv, op.meta.get("seed")) for op in ops]


def test_seeded_inputs() -> None:
    for name, wl in workloads.WORKLOADS.items():
        first = _signature(wl.make_pass(7, 0))
        assert first == _signature(wl.make_pass(7, 0)), f"{name}: same seed, other inputs"
        assert first != _signature(wl.make_pass(8, 0)), f"{name}: seed does not change inputs"
        assert first != _signature(wl.make_pass(7, 1)), f"{name}: passes repeat inputs"


def _run_op(op):
    import ruin2d.cli

    done = run.execute(op, ruin2d.cli)
    assert not done.error and done.rc == 0, (op.argv, done.error, done.rc)
    return done.output


def test_checks_reject_wrong_outputs() -> None:
    ops = workloads.point_queries(workloads._pass_rng(3, 0, 2))
    exact = next(op for op in ops if op.kind == "exact" and op.meta["against_invert"])
    text = _run_op(exact)
    assert exact.check(text) == [], exact.check(text)
    _label, value, _fields = workloads.parse_result(text)
    assert exact.check(text.replace(repr(value)[:8], repr(value + 0.01)[:8], 1)), \
        "an exact value 0.01 off passed"

    table = workloads.exact_table(workloads._pass_rng(3, 0, 1))[0]
    text = _run_op(table)
    assert table.check(text) == [], table.check(text)
    lines = text.splitlines(keepends=True)
    assert table.check("".join(lines[:-1])), "a missing row passed"
    lower = next(i for i, line in enumerate(lines[1:], 1)
                 if float(line.split(",")[1]) <= float(line.split(",")[0]))
    fields = lines[lower].split(",")
    fields[2] = repr(float(fields[2]) * 0.999)
    assert table.check("".join(lines[:lower] + [",".join(fields)] + lines[lower + 1:])), \
        "a wrong lower-cone row passed"

    direct = workloads.mc_estimators(workloads._pass_rng(3, 0, 3), 11)
    direct = next(op for op in direct if op.kind == "mc_direct")
    ref, _ = workloads.exact_ruin("P0", *workloads.MC_U)
    line = "ruin(T=50) = {v!r}  stderr=0.001  method=mc  n=200000  seed=11  tail<=1e-12"
    assert direct.check(line.format(v=ref + 0.002)) == []
    assert direct.check(line.format(v=ref + 0.005)), "an estimate 5 se away passed"

    csv_probe = workloads.simulate_csv_probe(11)
    assert csv_probe.check("estimate,stderr\n0.1,0.01\n") == []
    assert csv_probe.check('estimate,meta\n0.1,"{"a": 1, "b": 2}"\n')


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_every_metric_emitted() -> None:
    for section, trace, seed in (("end_to_end", "0", "5"), ("per_layer", "1", "6")):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for name in workloads.WORKLOADS:
            proc = _bench(["--workload", name, "--seed", seed, "--seconds", "1", "--trace", trace])
            res = _result(proc)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, res
            assert set(res["metrics"]) == set(expected), set(res["metrics"]) ^ set(expected)
            for metric, unit in expected.items():
                got = res["metrics"][metric]
                assert got["unit"] == unit and math.isfinite(got["value"]), (metric, got)
            report = proc.stdout
            wanted = REPORTED[name] + ["fail_frac"] if trace == "0" else ["self_ms_per_op"]
            for figure in wanted:
                assert figure in report, f"{name}: report lacks {figure}"
            assert f'"seed": {seed}' in report and '"nproc"' in report, "no machine record"


def test_no_sources_no_result() -> None:
    bare = HERE / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = _bench(["--workload", "exact_table", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}", flush=True)
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
