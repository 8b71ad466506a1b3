"""Seeded workloads for the ruin2d benchmark, and the checks on their outputs.

A workload turns ``(seed, pass index)`` into one *pass*: a list of operations
that the runner issues back to back, each one a ``ruin2d.cli.main(argv)``
call typed exactly as a user would type the command (the fluid estimator is
the one library call, see :func:`mc_estimators`).  Every operation carries a
check that compares its output with references computed outside the timed
phase.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ruin2d import closedform, mc, onedim, pde, transform
from ruin2d.model import derive, model_from_dict

# lam, mu, c1, c2; delta is (1, 1), so raw and normalized reserves coincide.
MODELS = {
    "P0": (1.0, 1.0, 3.0, 2.0),      # regime case1
    "P1": (2.0, 1.0, 5.0, 2.2),      # regime case2
    "ND": (1.0, 1.0, 1.002, 1.001),  # near-degenerate: p1 -> p2 -> rho
}

TABLE_TOL = 1e-8          # the CLI default --tol
PDE_STEPS = 400
MC_U = (1.0, 3.0)         # raw reserves of every MC command
MC_HORIZON = 50.0
MC_S = 0.5
MC_DIRECT_PATHS = 200_000
MC_LT_PATHS = 200_000
MC_COND_PATHS = 1_000_000
FLUID_PATHS = 2000
MC_THREADS = 2
MC_SEEDS_PER_RUN = 3
MC_Z = 4.0                # allowed distance from the reference, in standard errors


def model_spec(tag: str) -> dict:
    lam, mu, c1, c2 = MODELS[tag]
    return {"lambda": lam, "claim": {"type": "exponential", "mu": mu},
            "c": [c1, c2], "delta": [1.0, 1.0]}


@lru_cache(maxsize=None)
def model(tag: str):
    return model_from_dict(model_spec(tag))


def model_tag(m) -> Optional[str]:
    """Tag of a model built by the CLI from one of :data:`MODELS`, else None."""
    key = (m.lam, getattr(m.claim, "mu", None), m.c1, m.c2)
    for tag, params in MODELS.items():
        if params == key:
            return tag
    return None


def _model_argv(tag: str) -> list[str]:
    lam, mu, c1, c2 = MODELS[tag]
    return ["--lam", repr(lam), "--mu", repr(mu), "--c", repr(c1), repr(c2)]


def _num(x: float) -> str:
    return repr(float(x))


@dataclass
class Op:
    """One command of a pass.

    ``kind`` groups operations for latency statistics; ``units`` is the work
    the operation does (table points, MC paths, else 1).  ``check`` receives
    the captured standard output (or the return value of ``call``) and
    returns a list of problems, empty when the output is correct.
    """

    kind: str
    check: Callable[[object], list]
    argv: Optional[list] = None
    call: Optional[Callable[[], object]] = None
    units: int = 1
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# References and output parsing (all used outside the timed phase).
# ---------------------------------------------------------------------------

def parse_result(text: str) -> tuple[str, float, dict]:
    """Split ``label = value  key=v  key<=v ...`` into its parts."""
    line = text.strip()
    if not line or "\n" in line:
        raise ValueError(f"expected one output line, got {text!r}")
    label, sep, rest = line.partition(" = ")
    if not sep:
        raise ValueError(f"no ' = ' in {line!r}")
    tokens = rest.split()
    fields = {}
    for tok in tokens[1:]:
        for mark in ("<=", "="):
            if mark in tok:
                key, value = tok.split(mark, 1)
                fields[key] = value
                break
    return label, float(tokens[0]), fields


@lru_cache(maxsize=None)
def exact_ruin(tag: str, x1: float, x2: float) -> tuple[float, float]:
    """Exact joint ruin probability and its quadrature error bound."""
    res = closedform.survival(model(tag), x1, x2, tol=TABLE_TOL)
    return 1.0 - res.value, res.quadrature_error


def ruin_bounds(tag: str, x1: float, x2: float) -> tuple[float, float]:
    """``[max(psi1, psi2), psi1 + psi2]``: either company ruined."""
    m = model(tag)
    psi1 = onedim.ruin_prob_exp(m, x1, company=1)
    psi2 = onedim.ruin_prob_exp(m, x2, company=2)
    return max(psi1, psi2), psi1 + psi2


def lower_cone_survival(tag: str, x2: float) -> float:
    dc = derive(model(tag))
    return 1.0 - dc.C2 * math.exp(-dc.gamma2 * x2)


def _check_exact_value(tag, x1, x2, ruin, err) -> list:
    problems = []
    lo, hi = ruin_bounds(tag, x1, x2)
    slack = 1e-9 + err
    if not lo - slack <= ruin <= hi + slack:
        problems.append(f"ruin {ruin!r} outside [{lo!r}, {hi!r}] at ({x1}, {x2})")
    if x2 <= x1:
        ref = 1.0 - lower_cone_survival(tag, x2)
        if not math.isclose(ruin, ref, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"lower-cone ruin {ruin!r} != 1-C2 e^(-gamma2 x2) = {ref!r}")
    return problems


@lru_cache(maxsize=None)
def pde_reference(tag: str, u1: float, u2: float, s: float) -> tuple[float, float]:
    """PDE transform value and its step-halving error at an upper-cone point."""
    m = model(tag)
    r_needed, _ = pde.to_grid_coords(m, u1, u2)
    grid = pde.solve(m, s=s, r_max=max(1.0, 1.05 * r_needed), steps=PDE_STEPS)
    return pde.evaluate(grid, u1, u2), grid.error_estimate


def horizon_tail(tag: str, u1: float, u2: float, horizon: float) -> float:
    """Ruin mass after ``horizon`` from the drifted mean reserves (both companies)."""
    m = model(tag)
    return (onedim.ruin_prob_exp(m, u1 + (m.p1 - m.rho) * horizon, company=1)
            + onedim.ruin_prob_exp(m, u2 + (m.p2 - m.rho) * horizon, company=2))


# ---------------------------------------------------------------------------
# exact_table
# ---------------------------------------------------------------------------

TABLE_HEADER = ["x1", "x2", "survival", "ruin", "omega", "quadratureError", "regime"]
TABLE_N = 16
INVERT_ROWS_PER_TABLE = 2


def _table_op(tag, lo1, hi1, lo2, hi2, rng) -> Op:
    xs1 = np.linspace(lo1, hi1, TABLE_N)
    xs2 = np.linspace(lo2, hi2, TABLE_N)
    grid = [(x1, x2) for x1 in xs1 for x2 in xs2]
    upper = [i for i, (x1, x2) in enumerate(grid) if x2 > x1 > 0]
    invert_rows = sorted(int(i) for i in rng.choice(upper, INVERT_ROWS_PER_TABLE, replace=False))
    argv = ["table", *_model_argv(tag),
            "--x1", _num(lo1), _num(hi1), str(TABLE_N),
            "--x2", _num(lo2), _num(hi2), str(TABLE_N)]

    def check(text) -> list:
        return _check_table(tag, grid, invert_rows, text)

    return Op(kind=f"table_{tag}", argv=argv, check=check, units=len(grid),
              meta={"points": len(grid)})


def _check_table(tag, grid, invert_rows, text) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != TABLE_HEADER:
        return [f"table header {rows[:1]!r}"]
    data = rows[1:]
    if len(data) != len(grid):
        return [f"table has {len(data)} rows, expected {len(grid)}"]
    regime = derive(model(tag)).regime
    problems = []
    for (gx1, gx2), row in zip(grid, data):
        if len(row) != len(TABLE_HEADER):
            problems.append(f"row {row!r} has {len(row)} fields")
            continue
        x1, x2, surv, ruin, _omega, qerr = (float(v) for v in row[:6])
        if not (math.isclose(x1, gx1, rel_tol=1e-11, abs_tol=1e-12)
                and math.isclose(x2, gx2, rel_tol=1e-11, abs_tol=1e-12)):
            problems.append(f"row at ({x1}, {x2}) expected ({gx1}, {gx2})")
        if not 0.0 <= surv <= 1.0:
            problems.append(f"survival {surv!r} outside [0, 1] at ({x1}, {x2})")
        if not qerr <= TABLE_TOL:
            problems.append(f"quadratureError {qerr!r} > tol at ({x1}, {x2})")
        if row[6] != regime:
            problems.append(f"regime {row[6]!r} != {regime!r}")
        if not math.isclose(ruin, 1.0 - surv, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"ruin {ruin!r} != 1 - survival {surv!r}")
        problems += _check_exact_value(tag, gx1, gx2, 1.0 - surv, qerr)
    for i in invert_rows:
        x1, x2 = grid[i]
        ref = transform.invert_2d(model(tag), x1, x2)
        surv = float(data[i][2])
        if abs(surv - ref) > 1e-3:
            problems.append(f"survival {surv!r} vs invert_2d {ref!r} at ({x1}, {x2})")
    return problems


def exact_table(rng: np.random.Generator) -> list:
    """Two sweeps per model: small reserves across both cones, and reserves up to ~30."""
    ops = []
    for tag in ("P0", "P1"):
        ops.append(_table_op(tag, rng.uniform(0.2, 0.4), rng.uniform(3.6, 4.4),
                             rng.uniform(0.2, 0.4), rng.uniform(5.6, 6.4), rng))
        ops.append(_table_op(tag, rng.uniform(0.5, 1.0), rng.uniform(28.0, 30.0),
                             rng.uniform(0.5, 1.0), rng.uniform(30.0, 32.0), rng))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

EXACT_PER_STRATUM = 10   # per model and stratum: 2 models x 4 strata x 10 = 80 per pass
DEGENERATE_PER_PASS = 4
INVERT_CHECK_SHARE = 0.1  # upper-cone exact queries also checked against invert_2d
# ND queries pass --tol 1e-6: at the default 1e-8 a few points in a thousand
# exit with code 4 (see degenerate_tol_probe).  The tolerance barely changes
# the cost, which roundoff in quad dominates on this model.
DEGENERATE_TOL = 1e-6
# An ND point where the default tolerance is not met (cut integral error 4.05e-8).
DEGENERATE_TOL_FAILURE = (1.9895316759833197, 2.119459091872955)
INVERT_PER_PASS = 8
PDE_PER_S = 2


def _ruin_op(kind, tag, x1, x2, extra, check, **meta) -> Op:
    argv = ["ruin", *_model_argv(tag), "--u", _num(x1), _num(x2), *extra]
    return Op(kind=kind, argv=argv, check=check,
              meta={"x1": x1, "x2": x2, **meta})


def _exact_query(kind, tag, x1, x2, tol=None, against_invert=False) -> Op:
    """An exact ``ruin`` query; ``against_invert`` also compares with ``invert_2d``."""
    def check(text) -> list:
        label, value, fields = parse_result(text)
        if label != "ruin" or fields.get("method") != "exact":
            return [f"unexpected output {text!r}"]
        problems = _check_exact_value(tag, x1, x2, value, float(fields["error"]))
        if fields.get("regime") != derive(model(tag)).regime:
            problems.append(f"regime {fields.get('regime')!r}")
        if against_invert:
            ref = 1.0 - transform.invert_2d(model(tag), x1, x2)
            if abs(value - ref) > 1e-3:
                problems.append(f"ruin {value!r} vs invert_2d {ref!r} at ({x1}, {x2})")
        return problems

    extra = [] if tol is None else ["--tol", _num(tol)]
    return _ruin_op(kind, tag, x1, x2, extra, check, against_invert=against_invert)


def _invert_query(tag, x1, x2) -> Op:
    def check(text) -> list:
        label, value, fields = parse_result(text)
        if label != "ruin" or fields.get("method") != "invert":
            return [f"unexpected output {text!r}"]
        ref, _ = exact_ruin(tag, x1, x2)
        return [] if abs(value - ref) <= 1e-3 else [f"invert {value!r} vs exact {ref!r}"]

    return _ruin_op("invert", tag, x1, x2, ["--method", "invert"], check)


def _pde_query(tag, x1, x2, s) -> Op:
    def check(text) -> list:
        label, value, fields = parse_result(text)
        if label != ("ruin" if s == 0.0 else "ruin_lt") or fields.get("method") != "pde":
            return [f"unexpected output {text!r}"]
        exact, qerr = exact_ruin(tag, x1, x2)
        slack = float(fields["error"]) + qerr + 1e-9
        if s == 0.0:
            return [] if abs(value - exact) <= 1e-3 else [f"pde {value!r} vs exact {exact!r}"]
        lower = onedim.ruin_transform_exp(model(tag), x2, s)
        if lower - slack <= value <= exact + slack:
            return []
        return [f"pde transform {value!r} outside [{lower!r}, {exact!r}]"]

    kind = "pde_s0" if s == 0.0 else "pde_lt"
    extra = ["--method", "pde", "--steps", str(PDE_STEPS), "--s", _num(s)]
    return _ruin_op(kind, tag, x1, x2, extra, check, s=s)


def degenerate_tol_probe() -> Op:
    """The exact ND query at :data:`DEGENERATE_TOL_FAILURE` with the default ``--tol``.

    Kept out of the timed workload, which must not fail: closedform.omega
    cannot reach 1e-8 there and the command exits with code 4.  The runner
    reports its outcome on every ``point_queries`` run.
    """
    return _exact_query("degenerate_default_tol", "ND", *DEGENERATE_TOL_FAILURE)


def _exact_point(rng: np.random.Generator, stratum: int) -> tuple[float, float]:
    """Lower cone, just above the diagonal, upper cone, and large reserves."""
    if stratum == 0:
        x1 = rng.uniform(0.5, 20.0)
        return x1, x1 * rng.uniform(0.1, 1.0)
    if stratum == 1:
        x1 = rng.uniform(0.1, 10.0)
        return x1, x1 + rng.uniform(0.005, 0.3)
    if stratum == 2:
        x1 = rng.uniform(0.1, 10.0)
        return x1, x1 + rng.uniform(0.3, 8.0)
    x1 = rng.uniform(10.0, 30.0)
    return x1, x1 + rng.uniform(0.1, 5.0)


def point_queries(rng: np.random.Generator) -> list:
    """A shuffled stream of single ``ruin`` commands (exact, ND, invert, pde)."""
    ops = []
    for tag in ("P0", "P1"):
        for stratum in range(4):
            for _ in range(EXACT_PER_STRATUM):
                x1, x2 = _exact_point(rng, stratum)
                against_invert = x2 > x1 > 0 and rng.uniform() < INVERT_CHECK_SHARE
                ops.append(_exact_query("exact", tag, x1, x2, against_invert=against_invert))
    # ND cost grows with x1, so x1 is stratified over [0, 3] to keep passes alike.
    for k in range(DEGENERATE_PER_PASS):
        x1 = 3.0 * (k + rng.uniform(0.0, 1.0)) / DEGENERATE_PER_PASS
        ops.append(_exact_query("degenerate", "ND", x1, x1 + rng.uniform(0.05, 1.5),
                                DEGENERATE_TOL))
    for k in range(INVERT_PER_PASS):
        x1 = rng.uniform(0.1, 6.0)
        ops.append(_invert_query(("P0", "P1")[k % 2], x1, x1 + rng.uniform(0.1, 6.0)))
    for s in (0.0, MC_S):
        for k in range(PDE_PER_S):
            x1 = rng.uniform(0.2, 4.0)
            ops.append(_pde_query(("P0", "P1")[k % 2], x1, x1 + rng.uniform(0.2, 4.0), s))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# mc_estimators
# ---------------------------------------------------------------------------

def _mc_op(kind, extra, paths, seed, reference) -> Op:
    """An MC ``ruin`` command on P0 at :data:`MC_U`; ``reference() -> (value, slack)``."""
    argv = ["ruin", *_model_argv("P0"), "--u", _num(MC_U[0]), _num(MC_U[1]),
            "--method", "mc", "--paths", str(paths), "--threads", str(MC_THREADS),
            "--seed", str(seed), *extra]

    def check(text) -> list:
        _label, value, fields = parse_result(text)
        if int(fields["n"]) != paths or int(fields["seed"]) != seed:
            return [f"n/seed mismatch in {text!r}"]
        se = float(fields["stderr"])
        slack = float(fields.get("tail", fields.get("bias", 0.0)))
        ref, ref_slack = reference()
        if abs(value - ref) <= MC_Z * se + slack + ref_slack:
            return []
        return [f"{kind} {value!r} (se {se!r}) vs reference {ref!r}"]

    return Op(kind=kind, argv=argv, check=check, units=paths,
              meta={"seed": seed, "paths": paths})


def _exact_mc_reference():
    value, err = exact_ruin("P0", *MC_U)
    return value, err


def _lt_mc_reference():
    value, err = pde_reference("P0", MC_U[0], MC_U[1], MC_S)
    return value, err


def _fluid_op(seed) -> Op:
    def call():
        return mc.simulate_joint_ruin_fluid(model("P0"), MC_U[0], MC_U[1], MC_HORIZON,
                                            FLUID_PATHS, seed)

    def check(est) -> list:
        ref, err = exact_ruin("P0", *MC_U)
        slack = MC_Z * est.std_error + horizon_tail("P0", *MC_U, MC_HORIZON) + err
        if est.n == FLUID_PATHS and abs(est.mean - ref) <= slack:
            return []
        return [f"fluid {est.mean!r} (se {est.std_error!r}, n {est.n}) vs exact {ref!r}"]

    return Op(kind="fluid", call=call, check=check, units=FLUID_PATHS,
              meta={"seed": seed, "paths": FLUID_PATHS})


def mc_seeds(seed: int) -> list:
    """The few MC ``--seed`` values of a run, derived from the workload seed."""
    rng = np.random.default_rng([seed, 0x4D43])
    return [int(v) for v in rng.integers(1, 2**31 - 1, size=MC_SEEDS_PER_RUN)]


def mc_estimators(rng: np.random.Generator, mc_seed: int) -> list:
    """Direct, discounted and conditional MC commands plus the fluid estimator."""
    horizon = ["--horizon", _num(MC_HORIZON)]
    ops = [
        _mc_op("mc_direct", horizon, MC_DIRECT_PATHS, mc_seed, _exact_mc_reference),
        _mc_op("mc_lt", ["--s", _num(MC_S), *horizon], MC_LT_PATHS, mc_seed, _lt_mc_reference),
        _mc_op("mc_cond", ["--ultimate"], MC_COND_PATHS, mc_seed, _exact_mc_reference),
        _fluid_op(mc_seed),
    ]
    return [ops[i] for i in rng.permutation(len(ops))]


def mc_direct_t1(mc_seed: int) -> Op:
    """Direct MC with one thread, for the traced run's thread-speedup figure.

    The chunked stream contract makes the estimate thread-invariant, so the
    check is the same as for the two-thread command.
    """
    def call():
        return mc.simulate_joint_ruin(model("P0"), MC_U[0], MC_U[1], MC_HORIZON,
                                      MC_DIRECT_PATHS, mc_seed, threads=1)

    def check(est) -> list:
        ref, err = exact_ruin("P0", *MC_U)
        tail = horizon_tail("P0", *MC_U, MC_HORIZON)
        if abs(est.mean - ref) <= MC_Z * est.std_error + tail + err:
            return []
        return [f"mc_direct_t1 {est.mean!r} (se {est.std_error!r}) vs exact {ref!r}"]

    return Op(kind="mc_direct_t1", call=call, check=check, units=MC_DIRECT_PATHS,
              meta={"seed": mc_seed, "paths": MC_DIRECT_PATHS})


def simulate_csv_probe(mc_seed: int) -> Op:
    """``simulate --method fluid`` through the CLI, checked with ``csv.reader``.

    Kept out of the timed workloads, which hold only commands that succeed:
    the CSV writer has a known defect (header and row field counts differ).
    The runner reports the outcome on every ``mc_estimators`` run.
    """
    argv = ["simulate", *_model_argv("P0"), "--u", _num(MC_U[0]), _num(MC_U[1]),
            "--method", "fluid", "--paths", str(FLUID_PATHS), "--seed", str(mc_seed),
            "--horizon", _num(MC_HORIZON)]

    def check(text) -> list:
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) != 2 or len(rows[0]) != len(rows[1]):
            return [f"simulate CSV: {[len(r) for r in rows]} fields per line"]
        return []

    return Op(kind="simulate_csv", argv=argv, check=check)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    tags: tuple            # models the workload builds
    make_pass: Callable    # (seed, index) -> list[Op]
    probes: Callable = lambda seed: []   # known defects, run and reported outside the timing


def _pass_rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


WORKLOADS = {
    "exact_table": Workload(
        name="exact_table",
        tags=("P0", "P1"),
        make_pass=lambda seed, i: exact_table(_pass_rng(seed, i, 1)),
    ),
    "point_queries": Workload(
        name="point_queries",
        tags=("P0", "P1", "ND"),
        make_pass=lambda seed, i: point_queries(_pass_rng(seed, i, 2)),
        probes=lambda seed: [degenerate_tol_probe()],
    ),
    "mc_estimators": Workload(
        name="mc_estimators",
        tags=("P0",),
        make_pass=lambda seed, i: mc_estimators(
            _pass_rng(seed, i, 3), mc_seeds(seed)[i % MC_SEEDS_PER_RUN]),
        probes=lambda seed: [simulate_csv_probe(mc_seeds(seed)[0])],
    ),
}


def mini_pass(name: str, seed: int) -> list:
    """A few operations of each kind of workload ``name`` (for traced layer figures)."""
    keep = {"exact": 10}
    taken: dict = {}
    out = []
    for op in WORKLOADS[name].make_pass(seed, 0):
        if taken.get(op.kind, 0) < keep.get(op.kind, 1):
            taken[op.kind] = taken.get(op.kind, 0) + 1
            out.append(op)
    return out
