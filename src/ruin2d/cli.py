"""Command-line front end.

Subcommands: ``derive``, ``ruin``, ``transform``, ``simulate``, ``pde``,
``table``.  ``ruin`` is the one point query of every method.  Reserve inputs
are raw company reserves (u-coordinates) and are normalized internally;
``table`` sweeps normalized coordinates, which coincide with raw reserves
whenever ``delta = (1, 1)``.

Exit codes: 0 success; 2 invalid argument (a negative reserve, discount,
horizon, seed or sweep bound, a non-finite number, ``--tol <= 0``,
``--paths < 1`` or not whole, a ``table`` point count ``N`` below 1 or
not whole, ``--threads < 1``, ``--p``/``--q <= 0``, ``ruin --steps < 4``,
``pde --steps < 2``, ``--rmax <= 0``, a negative ``--dump-stride``, or an
unknown subcommand or option) or invalid model (unreadable or malformed
input, or failed validation); 3 capability mismatch (the method does not
support the claim law, discount or reserves; ``ruin``'s method does not read
one of its method-specific options given, ``--tol``, ``--horizon``,
``--steps``, ``--ultimate``, ``--paths``, ``--seed`` or ``--threads``; or the
MC estimator does not read ``--s`` or ``--horizon`` given) or any other
refusal of the library; 4 numerical tolerance failure.  The program reads no
environment variable.  :func:`main` alone returns an exit code: it builds
and validates the model, passes it to the command, and turns a
:class:`~ruin2d.errors.ToleranceNotMet` into 4 and any other
:class:`~ruin2d.errors.Ruin2dError` into 3.  Commands return nothing and
signal failure only by raising.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import closedform, mc, onedim, pde, transform
from .errors import Ruin2dError, ToleranceNotMet, UnsupportedClaimLaw
from .model import (
    UNNORMALIZED_DELTA_WARNING,
    Exponential,
    RiskModel,
    derive,
    load_model,
    model_from_dict,
    normalize,
    validate,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAPABILITY = 3
EXIT_TOLERANCE = 4

_FMT = "%.12g"

# ruin's methods: name -> (needs exponential claims, takes s > 0, which of
# ruin's method-specific options it reads).  A method refuses a given option it
# does not read, and each option's default is applied where it is read.
# Without --method, ruin uses the first one that applies and reads every such
# option given; invert reads none, so it is never the default.
METHODS = {
    "exact": (True, False, {"tol"}),
    "pde": (True, True, {"tol", "steps"}),
    "mc": (False, True, {"horizon", "ultimate", "paths", "seed", "threads"}),
    "invert": (True, False, set()),
}
# the ruin-by-horizon of ruin --method mc without --horizon
_MC_HORIZON = 200.0
# the MC estimators (ruin --method mc runs naive, or conditional with --ultimate)
# -> which of their estimator-specific options each reads; each refuses the rest
_ESTIMATORS = {"naive": {"s", "horizon"}, "conditional": set(), "fluid": {"horizon"}}


def _fmt(x) -> str:
    return _FMT % float(x)


@contextmanager
def _output(path):
    """The file at ``path`` opened for LF-terminated text, or stdout without a path."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        yield out


def _at_least(bound, kind=float, strict=False):
    """argparse ``type=`` that rejects values below ``bound`` (or equal, if strict).

    Non-finite values are rejected too: ``inf`` passes every lower bound.
    """

    def parse(text):
        value = kind(text)
        if not (value > bound if strict else value >= bound):
            op = ">" if strict else ">="
            raise argparse.ArgumentTypeError(f"must be {op} {bound}, got {text}")
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value

    parse.__name__ = kind.__name__.lstrip("_")  # argparse's "invalid <name> value" message
    return parse


def _count(text) -> int:
    """A whole number, also written as a float such as ``2e4``."""
    value = float(text)
    if not value.is_integer():  # also false for inf and nan
        raise ValueError(f"not a whole number: {text}")
    return int(value)


class _Sweep(argparse.Action):
    """``LO HI N`` of a ``table`` axis, where ``N`` must be a whole number >= 1."""

    def __call__(self, parser, namespace, values, option_string=None):
        if not (values[2] >= 1 and values[2].is_integer()):
            raise argparse.ArgumentError(self, f"N must be a whole number >= 1, got {values[2]:g}")
        setattr(namespace, self.dest, values)


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", help="path to a JSON model file")
    p.add_argument("--lam", type=float, help="claim arrival intensity (inline model)")
    p.add_argument("--mu", type=float, help="exponential claim intensity (inline model)")
    p.add_argument("--c", type=float, nargs=2, metavar=("C1", "C2"), help="premium rates")
    p.add_argument(
        "--delta", type=float, nargs=2, metavar=("D1", "D2"),
        help="claim proportions (default 1 1)",
    )


def _build_model(args) -> RiskModel:
    """The model of ``--model FILE`` or of the inline parameters."""
    inline = args.lam is not None or args.mu is not None or args.c is not None
    if args.model and inline:
        raise ValueError("specify either --model or inline parameters, not both")
    if args.model:
        return load_model(args.model)
    if not (args.lam is not None and args.mu is not None and args.c is not None):
        raise ValueError("inline model needs --lam, --mu and --c (or use --model FILE)")
    return model_from_dict(
        {
            "lambda": args.lam,
            "claim": {"type": "exponential", "mu": args.mu},
            "c": list(args.c),
            "delta": list(args.delta or (1.0, 1.0)),
        }
    )


def _validated_model(args) -> tuple[RiskModel | None, tuple[str, ...]]:
    """``(model, problems)``, where a problem is why there is no valid model.

    Prints the model's validation warnings on the way.
    """
    try:
        model = _build_model(args)
    except KeyError as exc:
        return None, (f"missing key {exc}",)
    except (OSError, ValueError, TypeError, IndexError, UnsupportedClaimLaw) as exc:
        return None, (str(exc),)
    report = validate(model)
    # the inline default delta = (1, 1) is the CLI's own choice, not the user's
    default_delta = not args.model and args.delta is None
    for w in report.warnings:
        if not (default_delta and w == UNNORMALIZED_DELTA_WARNING):
            print(f"warning: {w}", file=sys.stderr)
    return model, report.violations


def _refuse_unread(what: str, given: set, reads: set) -> None:
    """Refuse the options of ``given`` that ``what``, a method or an estimator, does not read."""
    ignored = " or ".join(f"--{name}" for name in sorted(given - reads))
    if ignored:
        raise UnsupportedClaimLaw(f"{what} does not read {ignored}")


def _ruin_method(model: RiskModel, s: float, method, given: set) -> str:
    """The method ``ruin`` runs: ``method``, else the default; raises if it does not apply.

    ``given`` names the options of :data:`METHODS` that the command line sets.
    """
    exponential = isinstance(model.claim, Exponential)

    def applies(name):
        needs_exponential, takes_s, _ = METHODS[name]
        return (exponential or not needs_exponential) and (takes_s or s == 0.0)

    if method is None:
        method = next((name for name in METHODS
                       if applies(name) and given <= METHODS[name][2]), None)
        if method is None:
            options = " and ".join(f"--{name}" for name in sorted(given))
            raise UnsupportedClaimLaw(f"no method that applies here reads {options}")
        return method
    if not applies(method):
        takes_s = METHODS[method][1]
        raise UnsupportedClaimLaw(
            f"{method} method needs exponential claims{'' if takes_s else ' and s=0'}"
        )
    _refuse_unread(f"{method} method", given, METHODS[method][2])
    return method


def _mc_estimate(model: RiskModel, args, method: str, s, default_horizon: float):
    """``(estimand, MCEstimate)`` of one MC estimator at the raw reserves ``args.u``.

    ``method`` is a key of :data:`_ESTIMATORS`, which refuses ``s`` (the
    ruin-time discount, or None) and ``args.horizon`` where it does not read
    them.  The estimators that read a horizon simulate to ``args.horizon``, or
    to ``default_horizon`` without one.
    """
    u1, u2 = args.u
    given = {name for name, value in (("s", s), ("horizon", args.horizon)) if value is not None}
    _refuse_unread(f"the {method} estimator", given, _ESTIMATORS[method])
    n, seed, threads = args.paths or 100_000, args.seed or 0, args.threads or 1
    horizon = default_horizon if args.horizon is None else args.horizon
    if method == "conditional":
        return "survival", mc.conditional_survival(
            model, *normalize(model, u1, u2), n, seed, threads=threads
        )
    if method == "fluid":
        return "ruin_by_horizon", mc.simulate_joint_ruin_fluid(
            model, u1, u2, horizon, n, seed, threads=threads
        )
    if s is not None:
        return "ruin_time_lt", mc.ruin_time_lt(
            model, u1, u2, s, horizon, n, seed, threads=threads
        )
    return "ruin_by_horizon", mc.simulate_joint_ruin(
        model, u1, u2, horizon, n, seed, threads=threads
    )


def cmd_derive(model: RiskModel, args) -> None:
    dc = derive(model)
    # the cut ends print as q_plus and q_minus
    rows = {f.name.removesuffix("_end"): getattr(dc, f.name) for f in dataclasses.fields(dc)}
    if args.json:
        print(json.dumps({k: v if isinstance(v, str) else float(v) for k, v in rows.items()}))
    else:
        for key, value in rows.items():
            print(f"{key:>8} = {value if isinstance(value, str) else _fmt(value)}")


def cmd_ruin(model: RiskModel, args) -> None:
    u1, u2 = args.u
    x1, x2 = normalize(model, u1, u2)
    s = args.s
    given = {name for *_, reads in METHODS.values() for name in reads
             if getattr(args, name) is not None}
    method = _ruin_method(model, s, args.method, given)
    if method == "exact":
        res = closedform.survival(model, x1, x2, tol=args.tol or 1e-8)
        print(f"ruin = {_fmt(res.ruin)}  method=exact  "
              f"error<={_fmt(res.quadrature_error)}  regime={res.regime}")
    elif method == "invert":
        val = transform.invert_2d(model, x1, x2)
        print(f"ruin = {_fmt(1.0 - val)}  method=invert  error<=1e-3 (cross-check grade)")
    elif method == "pde":
        label = "ruin" if s == 0.0 else "ruin_lt"
        r, w = pde.to_grid_coords(model, u1, u2)
        if w > 0 or r <= 0:
            # lower cone or the apex: the transform is company 2's discounted value
            val = onedim.ruin_transform_exp(model, x2, s)
            print(f"{label} = {_fmt(val)}  method=exact (lower cone)  s={_fmt(s)}")
            return
        # r_max = r puts the point on the last column, with no interpolation in r
        steps = args.steps or 400
        grid = pde.solve(model, s=s, r_max=r, steps=steps // 2, tol=args.tol)
        val = pde.evaluate(grid, u1, u2)
        print(f"{label} = {_fmt(val)}  method=pde  error<={_fmt(grid.error_estimate)}  s={_fmt(s)}")
    else:
        kind, est = _mc_estimate(model, args, "conditional" if args.ultimate else "naive",
                                 s or None, _MC_HORIZON)
        if kind == "survival":
            print(
                f"ruin = {_fmt(1.0 - est.mean)}  stderr={_fmt(est.std_error)}  "
                f"method=mc(conditional)  n={est.n}  seed={est.seed}"
            )
        elif kind == "ruin_time_lt":
            print(
                f"ruin_lt = {_fmt(est.mean)}  stderr={_fmt(est.std_error)}  "
                f"bias<={_fmt(est.meta['bias_bound'])}  method=mc  n={est.n}  seed={est.seed}"
            )
        else:
            tail = est.meta.get("lundberg_tail")
            extra = f"  tail<={_fmt(tail)}" if tail is not None else ""
            print(
                f"ruin(T={_fmt(est.meta['horizon'])}) = {_fmt(est.mean)}  "
                f"stderr={_fmt(est.std_error)}  method=mc  n={est.n}  seed={est.seed}{extra}"
            )


def cmd_transform(model: RiskModel, args) -> None:
    val = transform.psi_tilde(model, args.p, args.q)
    print(f"psi_tilde({_fmt(args.p)},{_fmt(args.q)}) = {_fmt(val)}")


def cmd_simulate(model: RiskModel, args) -> None:
    kind, est = _mc_estimate(model, args, args.method, args.s, 100.0)
    meta = json.dumps({**est.meta, "estimand": kind}, sort_keys=True, default=float)
    with _output(args.output) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["quantity", "estimate", "stderr", "n", "seed", "meta"])
        writer.writerow([kind, _fmt(est.mean), _fmt(est.std_error), est.n, est.seed, meta])


def cmd_pde(model: RiskModel, args) -> None:
    grid = pde.solve(model, s=args.s, r_max=args.rmax, steps=args.steps, tol=args.tol)
    with _output(args.output) as out:
        out.write("r,w,u1,u2,chi,xi,h\n")
        h = grid.h
        stride = args.dump_stride if args.dump_stride > 0 else 1
        for i in range(0, grid.n + 1, stride):
            r = i * grid.r_step
            for j in range(0, i + 1, stride):
                w = -j * grid.w_step
                u1 = model.delta1 * r + model.c1 * w
                u2 = model.delta2 * r + model.c2 * w
                row = (r, w, u1, u2, grid.chi[i, j], grid.xi[i, j], h[i, j])
                out.write(",".join(_fmt(v) for v in row) + "\n")


def cmd_table(model: RiskModel, args) -> None:
    lo1, hi1, n1 = args.x1
    lo2, hi2, n2 = args.x2
    rows = []
    failed = 0
    for x1 in np.linspace(lo1, hi1, int(n1)):
        for x2 in np.linspace(lo2, hi2, int(n2)):
            try:
                res = closedform.survival(model, x1, x2, tol=args.tol)
            except ToleranceNotMet:
                failed += 1
                rows.append(f"{_fmt(x1)},{_fmt(x2)},nan,nan,nan,nan,failed\n")
                continue
            values = (x1, x2, res.value, res.ruin, res.omega, res.quadrature_error)
            rows.append(",".join([*(_fmt(v) for v in values), res.regime]) + "\n")
    with _output(args.output) as out:
        out.write("x1,x2,survival,ruin,omega,quadratureError,regime\n")
        out.writelines(rows)
    if failed:
        raise ToleranceNotMet(f"{failed} of {len(rows)} table points missed --tol {args.tol:g}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="ruin2d",
        description="Joint ruin probabilities for two proportionally coupled companies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="print derived model constants")
    _add_model_args(p)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("ruin", help="joint ruin probability at raw reserves")
    _add_model_args(p)
    p.add_argument("--u", type=_at_least(0), nargs=2, required=True, metavar=("U1", "U2"))
    p.add_argument("--s", type=_at_least(0), default=0.0, help="ruin-time discount rate")
    p.add_argument("--method", choices=list(METHODS))
    p.add_argument("--tol", type=_at_least(0, strict=True))
    p.add_argument("--paths", type=_at_least(1, _count))
    p.add_argument("--seed", type=_at_least(0, int))
    p.add_argument("--horizon", type=_at_least(0))
    p.add_argument("--steps", type=_at_least(4, int),
                   help="with --method pde: columns of the finer of the two grids "
                        "(an odd count uses one fewer)")
    p.add_argument("--ultimate", action="store_true", default=None,
                   help="with --method mc: use the unbiased conditional estimator")
    p.add_argument("--threads", type=_at_least(1, int))
    p.set_defaults(func=cmd_ruin)

    p = sub.add_parser("transform", help="evaluate the double transform psi_tilde(p,q)")
    _add_model_args(p)
    p.add_argument("--p", type=_at_least(0, strict=True), required=True)
    p.add_argument("--q", type=_at_least(0, strict=True), required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("simulate", help="Monte Carlo estimators (CSV output)")
    _add_model_args(p)
    p.add_argument("--u", type=_at_least(0), nargs=2, required=True, metavar=("U1", "U2"))
    p.add_argument("--paths", type=_at_least(1, _count))
    p.add_argument("--seed", type=_at_least(0, int))
    p.add_argument("--horizon", type=_at_least(0))
    p.add_argument("--s", type=_at_least(0), default=None)
    p.add_argument("--method", choices=list(_ESTIMATORS), default="naive")
    p.add_argument("--threads", type=_at_least(1, int))
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pde", help="solve the transform system on the cone")
    _add_model_args(p)
    p.add_argument("--s", type=_at_least(0), default=0.0)
    p.add_argument("--rmax", type=_at_least(0, strict=True), default=10.0)
    p.add_argument("--steps", type=_at_least(2, int), default=400,
                   help="columns of the coarser of the two grids: marches STEPS "
                        "and 2 STEPS columns (ruin --steps counts the finer one's)")
    p.add_argument("--tol", type=_at_least(0, strict=True), default=None)
    p.add_argument("--dump-stride", type=_at_least(0, int), default=0,
                   help="emit every k-th node only (0 = all nodes)")
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_pde)

    p = sub.add_parser("table", help="closed-form survival sweep to CSV")
    _add_model_args(p)
    p.add_argument("--x1", type=_at_least(0), nargs=3, required=True, metavar=("LO", "HI", "N"),
                   action=_Sweep)
    p.add_argument("--x2", type=_at_least(0), nargs=3, required=True, metavar=("LO", "HI", "N"),
                   action=_Sweep)
    p.add_argument("--tol", type=_at_least(0, strict=True), default=1e-8)
    p.add_argument("--output", help="CSV file (default stdout)")
    p.set_defaults(func=cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    model, problems = _validated_model(args)
    for problem in problems:
        print(f"invalid model: {problem}", file=sys.stderr)
    if problems:
        return EXIT_VALIDATION
    try:
        args.func(model, args)
    except ToleranceNotMet as exc:
        print(f"tolerance error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except Ruin2dError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
