#!/usr/bin/env python3
"""ruin2d benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout, and the run stops with exit code 2 when it is
missing.  One client issues the workload's commands in a closed loop through
``ruin2d.cli.main`` in this process, pass after pass, until ``--seconds`` of
command time are measured; every output is checked afterwards, outside the
timed phase.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes of the same inputs (the difference in
pass time is the tracing overhead), then traces a few commands of the other
workloads so that every layer is measured, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are a
readable report.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic_ns, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"   # workloads, metric names and units
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_LAUNCHES = 7
CAL_LOOP_N = 150_000       # calibration work: about 17 ms on a 2 GHz core
CAL_QUADS = 15
CAL_EVERY_S = 0.2          # command seconds between calibrations within a pass
IMPORTTIME_LAUNCHES = 3
CHILD_TIMEOUT_S = 60

COMPUTED = ("closedform.panels_per_point", "transform.inner_inversions",
            "transform.psi_tilde_evals", "pde.nodes", "pde.wavefronts",
            "mc.claims_per_path", "mc.chunks")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Executing operations
# ---------------------------------------------------------------------------

@dataclass
class Done:
    """What one operation did: timing, output, exit code and check outcome."""

    op: object
    seconds: float = 0.0
    output: object = None
    rc: int = 0
    error: str = ""
    warnings: int = 0
    problems: list = field(default_factory=list)
    cal: float = 0.0           # calibration seconds measured next to this op's pass


@dataclass
class Pass:
    wall: float                # seconds of command time: the sum over the pass's commands
    cal: float                 # median calibration seconds over the pass
    done: dict                 # op id -> Done


def _cal_integrand(q: float) -> float:
    return math.exp(-q) * math.sin(7.0 * q) / (1.0 + q * q)


def execute(op, cli) -> Done:
    done = Done(op)
    out = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if op.argv is not None:
                done.rc = cli.main(op.argv)
                done.output = out.getvalue()
            else:
                done.output = op.call()
    except SystemExit as exc:
        done.rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:   # a failed command is counted, not fatal
        done.error = f"{type(exc).__name__}: {exc}"
    done.seconds = perf_counter() - t0
    return done


def execute_traced(op, cli, tracer, op_id, integration_warning) -> Done:
    tracer.op = op_id
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer.span("cli.main" if op.argv is not None else "bench.call", kind=op.kind):
            done = execute(op, cli)
    done.warnings = sum(issubclass(w.category, integration_warning) for w in caught)
    return done


def check(done: Done, seen: dict) -> None:
    """Fill ``done.problems``; seeded MC outputs must repeat byte for byte."""
    if done.error:
        done.problems = [done.error]
        return
    if done.rc != 0:
        done.problems = [f"exit code {done.rc}"]
        return
    try:
        done.problems = list(done.op.check(done.output))
    except Exception as exc:   # an unreadable output is a failed check
        done.problems = [f"output check raised {type(exc).__name__}: {exc}"]
    if "seed" in done.op.meta:
        out = done.output
        key = (done.op.kind, done.op.meta["seed"])
        value = out if isinstance(out, str) else (out.mean, out.std_error, out.n)
        if seen.setdefault(key, value) != value:
            done.problems.append(f"seeded output changed: {value!r} vs {seen[key]!r}")


class Runner:
    def __init__(self, cli, integration_warning):
        self.cli = cli
        self.integration_warning = integration_warning
        self.seen: dict = {}
        self.done: list = []
        self.next_id = 0

    @staticmethod
    def calibrate() -> float:
        """Seconds of a fixed piece of work: a Python loop and a few scipy ``quad`` calls.

        The speed of a shared machine drifts by tens of percent within
        seconds, as other tenants load the cores.  Dividing a pass's times by
        the median of these figures, taken between its commands, cancels
        most of that drift; ruin2d's own code does not enter them.
        """
        from scipy.integrate import quad

        t0 = perf_counter()
        acc = 0
        for i in range(CAL_LOOP_N):
            acc += i * i
        for _ in range(CAL_QUADS):
            quad(_cal_integrand, 0.0, 40.0, limit=200, epsabs=1e-12)
        return perf_counter() - t0

    def run_pass(self, ops, tracer=None) -> Pass:
        """Run ``ops`` one after the other, calibrating between them; then check them."""
        ids = list(range(self.next_id, self.next_id + len(ops)))
        self.next_id += len(ops)
        cals, results = [], []
        since_cal = math.inf
        with tracer.installed() if tracer is not None else nullcontext():
            for op, op_id in zip(ops, ids):
                if since_cal >= CAL_EVERY_S:
                    cals.append(self.calibrate())
                    since_cal = 0.0
                if tracer is None:
                    d = execute(op, self.cli)
                else:
                    d = execute_traced(op, self.cli, tracer, op_id, self.integration_warning)
                results.append(d)
                since_cal += d.seconds
        cals.append(self.calibrate())
        cal = statistics.median(cals)
        for d in results:
            d.cal = cal
            check(d, self.seen)
        self.done.extend(results)
        return Pass(sum(d.seconds for d in results), cal, dict(zip(ids, results)))

    @property
    def failed(self) -> list:
        return [d for d in self.done if d.problems]


# ---------------------------------------------------------------------------
# Fresh-interpreter probes
# ---------------------------------------------------------------------------

SETUP_CHILD = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import ruin2d.cli
from ruin2d.model import derive, model_from_dict, validate
for spec in json.loads(sys.argv[2]):
    model = model_from_dict(spec)
    validate(model)
    derive(model)
print(time.monotonic_ns())
"""


def _child(args) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe interpreter failed: {proc.stderr.strip()[-500:]}")
    return proc


def setup_launcher(specs):
    """A function that times one fresh interpreter from launch until it could issue a command."""
    args = ["-c", SETUP_CHILD, str(SRC), json.dumps(specs)]
    _child(args)   # warm-up: byte-code caches, which a user has after the first call

    def launch() -> float:
        launched = monotonic_ns()
        ready = int(_child(args).stdout.split()[-1])
        return (ready - launched) / 1e9

    return launch


def measure_import_times() -> dict:
    """Cumulative ``-X importtime`` seconds of ruin2d.cli and ruin2d.closedform."""
    found: dict = {"cli.import_s": [], "closedform.import_s": []}
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ruin2d.cli"
    _child(["-c", code, str(SRC)])
    for _ in range(IMPORTTIME_LAUNCHES):
        stderr = _child(["-X", "importtime", "-c", code, str(SRC)]).stderr
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _self_us, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            key = {"ruin2d.cli": "cli.import_s", "ruin2d.closedform": "closedform.import_s"}.get(name)
            if key:
                found[key].append(int(cumulative) / 1e6)
    return {k: statistics.median(v) for k, v in found.items() if v}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def percentile(values, level: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[level - 1]


def tail_level(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (0 if none)."""
    return max(0, math.floor(100 * (1 - 10 / n))) if n >= 10 else 0


def say(*parts) -> None:
    print(*parts, flush=True)


def say_metric(section, name, value, unit, note="") -> None:
    shown = "n/a" if value is None else f"{value:.6g}"
    say(f"{section:<7} {name:<42} {shown:>14} {unit:<6} {note}".rstrip())


def latency_by_kind(done, calibrated=False) -> dict:
    """Latencies per command kind: in ms, or in calibration units."""
    out: dict = {}
    for d in done:
        out.setdefault(d.op.kind, []).append(d.seconds / d.cal if calibrated else d.seconds * 1e3)
    return out


def gmean_of_medians(groups: dict) -> float:
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in groups.values()))


def workload_metrics(name, done, passes) -> list:
    """The per-workload figures named in the benchmark's README: (name, value, unit, note)."""
    ok = [d for d in done if not d.problems]
    lat = latency_by_kind(ok)
    rows = []

    def p50(metric, kinds):
        xs = [x for k in kinds for x in lat.get(k, ())]
        if xs:
            rows.append((metric, statistics.median(xs), "ms", f"median, n={len(xs)}"))
        return xs

    if name == "exact_table":
        rates = [sum(d.op.units for d in p.done.values()) / p.wall for p in passes]
        rows.append(("table_points_per_s", statistics.median(rates), "1/s",
                     f"median over passes, n={len(rates)}"))
    elif name == "point_queries":
        xs = p50("exact_query_p50_ms", ["exact"])
        rows.append(("exact_query_p95_ms", percentile(xs, 95), "ms",
                     f"n={len(xs)}, {len(xs) - math.ceil(0.95 * len(xs))} beyond"))
        level = tail_level(len(xs))
        if level:
            rows.append((f"exact_query_p{level}_ms", percentile(xs, level), "ms",
                         f"highest percentile with >=10 beyond, n={len(xs)}"))
        p50("degenerate_query_p50_ms", ["degenerate"])
        p50("invert_query_p50_ms", ["invert"])
        p50("pde_query_p50_ms", ["pde_s0", "pde_lt"])
    elif name == "mc_estimators":
        from workloads import parse_result

        for kind, metric in (("mc_direct", "mc_direct_s_to_se1e-3"),
                             ("mc_lt", "mc_lt_s_to_se1e-3"),
                             ("mc_cond", "mc_cond_s_to_se1e-3")):
            xs = [d.seconds * (float(parse_result(d.output)[2]["stderr"]) / 1e-3) ** 2
                  for d in ok if d.op.kind == kind]
            if xs:
                rows.append((metric, statistics.median(xs), "s", f"time x (se/1e-3)^2, n={len(xs)}"))
        xs = [d.op.units / d.seconds for d in ok if d.op.kind == "fluid"]
        if xs:
            rows.append(("fluid_paths_per_s", statistics.median(xs), "1/s",
                         f"library call, median, n={len(xs)}"))
    return rows


def machine_record(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
    }


def report_failures(runner) -> None:
    failed = runner.failed
    say(f"checks  {len(runner.done) - len(failed)}/{len(runner.done)} operations correct, "
        f"fail_frac {len(failed) / max(len(runner.done), 1):.6g}")
    for d in failed[:10]:
        say(f"FAILED  {d.op.kind}: {'; '.join(str(p) for p in d.problems[:3])}")


def metric_units(section: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[section]}


def finish(runner, metrics: dict, units: dict) -> dict:
    missing = [k for k in units if metrics.get(k) is None]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": not runner.failed,
        "attempted": len(runner.done),
        "failed": len(runner.failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(args, wl, runner) -> dict:
    import workloads

    units = metric_units("end_to_end")
    launch = setup_launcher([workloads.model_spec(t) for t in wl.tags])
    setup, passes = [], []
    measured = 0.0
    index = 0
    while index == 0 or measured < args.seconds:
        passes.append(runner.run_pass(wl.make_pass(args.seed, index)))
        measured += passes[-1].wall
        index += 1
        # Fresh-interpreter launches are spread over the run, between passes.
        while len(setup) < SETUP_LAUNCHES * min(measured / args.seconds, 1.0):
            setup.append(launch())
    while len(setup) < SETUP_LAUNCHES:
        setup.append(launch())
    lat = latency_by_kind(runner.done)
    lat_cal = latency_by_kind(runner.done, calibrated=True)
    n_cmds = len(passes[0].done)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_cal": statistics.median(p.wall / p.cal for p in passes),
        "cmd_p50_gmean_cal": gmean_of_medians(lat_cal),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters, import ruin2d.cli + {'/'.join(wl.tags)}",
        "wall_cal": f"median pass time / calibration, n={len(passes)} passes of {n_cmds} commands",
        "cmd_p50_gmean_cal": f"geometric mean over {len(lat)} command kinds of median latency / calibration",
        "peak_rss_mb": "max resident set of this process",
    }
    for name, unit in units.items():
        say_metric("e2e", name, metrics[name], unit, notes[name])
    say_metric("raw", "wall_s", statistics.median(p.wall for p in passes), "s",
               f"median pass time, n={len(passes)}")
    say_metric("raw", "cmd_p50_gmean_ms", gmean_of_medians(lat), "ms",
               f"geometric mean over {len(lat)} command kinds of median latency")
    say_metric("raw", "calibration_ms", statistics.median(p.cal for p in passes) * 1e3, "ms",
               f"median, n={len(passes)} passes")
    for kind, xs in sorted(lat.items()):
        say_metric("kind", f"{kind}_p50_ms", statistics.median(xs), "ms", f"n={len(xs)}")
    for name, value, unit, note in workload_metrics(args.workload, runner.done, passes):
        say_metric("metric", name, value, unit, note)
    say_metric("metric", "fail_frac", len(runner.failed) / len(runner.done), "ratio",
               f"{len(runner.failed)}/{len(runner.done)}")
    run_probes(args, wl, runner)
    return finish(runner, metrics, units)


def run_probes(args, wl, runner) -> None:
    """Known defects, kept out of the timed workload; reported, not counted in ``failed``."""
    for probe in wl.probes(args.seed):
        done = execute(probe, runner.cli)
        check(done, {})
        verdict = "ok" if not done.problems else "FAILS: " + "; ".join(done.problems)
        say(f"probe   {' '.join(probe.argv)}: {verdict}")


def traced_run(args, wl, runner) -> dict:
    import tracing
    import workloads

    units = metric_units("per_layer")
    imports = measure_import_times()
    tracer = tracing.Tracer()
    untraced_passes, traced_passes, traced = [], [], {}
    measured = 0.0
    index = 0
    while index == 0 or measured < args.seconds:
        untraced_passes.append(runner.run_pass(wl.make_pass(args.seed, index)))
        traced_passes.append(runner.run_pass(wl.make_pass(args.seed, index), tracer))
        traced.update(traced_passes[-1].done)
        measured += untraced_passes[-1].wall + traced_passes[-1].wall
        index += 1
    if args.workload == "mc_estimators":
        traced.update(runner.run_pass([workloads.mc_direct_t1(workloads.mc_seeds(args.seed)[0])],
                                      tracer).done)
    own = tracing.layer_metrics(tracer.spans, traced)

    # Layers this workload does not reach are measured on a few commands of the others.
    others = tracing.Tracer()
    other_ops = []
    for name in workloads.WORKLOADS:
        if name != args.workload:
            other_ops += workloads.mini_pass(name, args.seed)
            if name == "mc_estimators":
                other_ops.append(workloads.mc_direct_t1(workloads.mc_seeds(args.seed)[0]))
    complement = tracing.layer_metrics(others.spans, runner.run_pass(other_ops, others).done)

    metrics, source = {}, {}
    for name in units:
        if own.get(name) is not None:
            metrics[name], source[name] = own[name], args.workload
        elif complement.get(name) is not None:
            metrics[name], source[name] = complement[name], "other workloads"
    metrics.update(imports)
    metrics.update(tracing.computed_counts())
    metrics["trace.wall_untraced_s"] = statistics.median(p.wall for p in untraced_passes)
    metrics["trace.wall_traced_s"] = statistics.median(p.wall for p in traced_passes)
    metrics["trace.overhead_frac"] = (statistics.median(p.wall / p.cal for p in traced_passes)
                                      / statistics.median(p.wall / p.cal for p in untraced_passes)
                                      - 1.0)

    for name, unit in units.items():
        if name in COMPUTED and name != "closedform.panels_per_point":
            note = "computed"
        elif name in imports:
            note = f"-X importtime cumulative, median of {IMPORTTIME_LAUNCHES}"
        elif name.startswith("trace."):
            note = f"median pass time, n={len(traced_passes)} pairs of passes"
        else:
            note = ("computed, " if name in COMPUTED else "") + f"from {source.get(name)}"
        say_metric("layer", name, metrics.get(name), unit, note)
    n_ops = len(traced)
    for layer, ms in tracing.layer_self_ms(tracer.spans, n_ops).items():
        say_metric("self", f"{layer}.self_ms_per_op", ms, "ms", f"{args.workload}, {n_ops} traced ops")
    say("note    MC epoch generation vs reduction (mc._epoch_panel / mc._accumulate) is not "
        "measured yet: it needs spans inside the program")
    write_spans(args, tracer.spans, others.spans)
    return finish(runner, metrics, units)


def write_spans(args, own, others) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for source, spans in ((args.workload, own), ("other workloads", others)):
            for sp in spans:
                fh.write(json.dumps({"source": source, **sp.as_dict()}) + "\n")
    say(f"spans   {len(own) + len(others)} written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ruin2d" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: no ruin2d sources at {SRC} or no {SPEC.name}; "
              "run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("RUIN2D_THREADS", None)   # the workloads set --threads themselves
    import ruin2d

    if Path(ruin2d.__file__).resolve().parent != (SRC / "ruin2d").resolve():
        print(f"perfbench: ruin2d imported from {ruin2d.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import ruin2d.cli
    from scipy.integrate import IntegrationWarning

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in json.loads(SPEC.read_text())["workloads"]}
    say(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    say(f"# why: {why.get(wl.name)}")
    say("# machine " + json.dumps(machine_record(args), sort_keys=True))
    runner = Runner(ruin2d.cli, IntegrationWarning)
    result = (traced_run if args.trace else untraced_run)(args, wl, runner)
    report_failures(runner)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
