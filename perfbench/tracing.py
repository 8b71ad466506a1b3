"""Spans recorded from the benchmark's own files, around calls into ruin2d.

:class:`Tracer` replaces public module attributes of ruin2d with timing
wrappers for the duration of a traced pass and restores them afterwards; the
package source is not changed.  A wrapped call either opens a *span* (name,
start, end, parent span, op id, attributes) or, for functions called
thousands of times per operation, adds its count and time to the enclosing
span as a *leaf* aggregate.  Spans stay in memory until the run writes them.
Self time is a span's duration minus its same-thread child spans and leaves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import statistics
import threading
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import workloads
from ruin2d import mc, transform
from ruin2d.model import derive


class Span:
    __slots__ = ("sid", "parent", "op", "name", "t0", "t1", "tid", "attrs", "leaf")

    def __init__(self, sid, parent, op, name, attrs):
        self.sid, self.parent, self.op, self.name, self.attrs = sid, parent, op, name, attrs
        self.tid = threading.get_ident()
        self.leaf = {}
        self.t0 = self.t1 = 0

    @property
    def ns(self) -> int:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "op": self.op, "name": self.name,
                "start_ns": self.t0, "end_ns": self.t1, "thread": self.tid,
                "attrs": self.attrs, "leaf": self.leaf}


# (module, attribute, span name, "span" | "leaf", attribute parameters)
PATCHES = (
    ("ruin2d.cli", "validate", "model.validate", "span", ()),
    ("ruin2d.cli", "derive", "model.derive", "span", ()),
    ("ruin2d.closedform", "derive", "model.derive", "span", ()),
    ("ruin2d.transform", "derive", "model.derive", "span", ()),
    ("ruin2d.closedform", "survival", "closedform.survival", "span", ("model", "x1", "x2")),
    ("ruin2d.closedform", "omega", "closedform.omega", "span", ("model", "x1", "x2")),
    ("ruin2d.closedform", "ab", "transform.ab", "leaf", ()),
    ("ruin2d.transform", "psi_tilde", "transform.psi_tilde", "leaf", ()),
    ("ruin2d.transform", "invert_2d", "transform.invert_2d", "span", ("model", "x1", "x2")),
    ("ruin2d.pde", "ruin_transform_exp", "onedim.ruin_transform_exp", "leaf", ()),
    ("ruin2d.onedim", "ruin_transform_exp", "onedim.ruin_transform_exp", "leaf", ()),
    ("ruin2d.mc", "survival_one_company", "onedim.survival_one_company", "span", ()),
    ("ruin2d.pde", "solve", "pde.solve", "span", ("s", "steps")),
    ("ruin2d.pde", "march_triangle", "pde.march_triangle", "span", ("n",)),
    ("ruin2d.pde", "evaluate", "pde.evaluate", "span", ()),
    ("ruin2d.mc", "simulate_joint_ruin", "mc.simulate_joint_ruin", "span", ("n", "threads")),
    ("ruin2d.mc", "ruin_time_lt", "mc.ruin_time_lt", "span", ("s", "n", "threads")),
    ("ruin2d.mc", "conditional_survival", "mc.conditional_survival", "span", ("n", "threads")),
    ("ruin2d.mc", "simulate_joint_ruin_fluid", "mc.simulate_joint_ruin_fluid", "span", ("n",)),
    ("ruin2d.mc", "stream", "mc.stream", "span", ()),
    ("ruin2d.mc", "sample_claims", "mc.sample_claims", "span", ("size",)),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None            # id of the operation in flight (one client)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sp = Span(next(self._ids), stack[-1].sid if stack else None, self.op, name, attrs)
        stack.append(sp)
        sp.t0 = perf_counter_ns()
        try:
            yield sp
        finally:
            sp.t1 = perf_counter_ns()
            stack.pop()
            self.spans.append(sp)

    def _span_wrapper(self, name, fn, params):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = {}
            if params:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for p in params:
                    value = bound.arguments[p]
                    attrs[p] = (workloads.model_tag(value) if p == "model"
                                else float(value) if isinstance(value, float) else value)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    def _leaf_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack = self._stack()
                if stack:
                    agg = stack[-1].leaf.setdefault(name, [0, 0])
                    agg[0] += 1
                    agg[1] += dt

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, kind, params in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrapped = (self._span_wrapper(name, fn, params) if kind == "span"
                       else self._leaf_wrapper(name, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Per-layer figures from spans
# ---------------------------------------------------------------------------

def self_times(spans) -> dict:
    """Self time in ns of every span: duration minus same-thread children and leaves."""
    child_ns: dict = {}
    by_id = {sp.sid: sp for sp in spans}
    for sp in spans:
        parent = by_id.get(sp.parent)
        if parent is not None and parent.tid == sp.tid:
            child_ns[parent.sid] = child_ns.get(parent.sid, 0) + sp.ns
    return {sp.sid: sp.ns - child_ns.get(sp.sid, 0) - sum(ns for _, ns in sp.leaf.values())
            for sp in spans}


def layer_self_ms(spans, n_ops: int) -> dict:
    """Self time per layer (module name) in ms per operation; leaves count as self."""
    selfs = self_times(spans)
    out: dict = {}
    for sp in spans:
        layer = sp.name.split(".")[0]
        out[layer] = out.get(layer, 0) + selfs[sp.sid]
        for leaf_name, (_, ns) in sp.leaf.items():
            leaf_layer = leaf_name.split(".")[0]
            out[leaf_layer] = out.get(leaf_layer, 0) + ns
    return {k: v / 1e6 / max(n_ops, 1) for k, v in sorted(out.items())}


def _median(values):
    return statistics.median(values) if values else None


def _ratio(num, den):
    return num / den if den else None


def _leaf_mean_us(spans, name):
    count = total = 0
    for sp in spans:
        if name in sp.leaf:
            count += sp.leaf[name][0]
            total += sp.leaf[name][1]
    return total / count / 1e3 if count else None


def layer_metrics(spans, ops) -> dict:
    """Per-layer figures from one set of traced operations; None where not exercised.

    ``ops`` maps op id to the runner's record of that operation (``.op``,
    ``.output``, ``.problems``, ``.warnings``).
    """
    by_name: dict = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def named(name, **where):
        return [sp for sp in by_name.get(name, ())
                if all(where_fn(sp) for where_fn in where.values())]

    def op_kind(sp):
        return ops[sp.op].op.kind if sp.op in ops else None

    roots = {sp.op: sp for sp in spans if sp.parent is None and sp.name in ("cli.main", "bench.call")}
    survival_ns_by_op: dict = {}
    for sp in by_name.get("closedform.survival", ()):
        survival_ns_by_op[sp.op] = survival_ns_by_op.get(sp.op, 0) + sp.ns

    m: dict = {}
    exact_roots = [r for op, r in roots.items() if ops[op].op.kind == "exact"]
    m["cli.self_ms"] = _median([(r.ns - survival_ns_by_op.get(r.op, 0)) / 1e6 for r in exact_roots])
    table_roots = [r for op, r in roots.items() if ops[op].op.kind.startswith("table_")]
    m["cli.table_self_us_per_point"] = _median(
        [(r.ns - survival_ns_by_op.get(r.op, 0)) / 1e3 / ops[r.op].op.meta["points"]
         for r in table_roots])
    m["model.derive_us"] = _median([sp.ns / 1e3 for sp in by_name.get("model.derive", ())])

    regular = {"P0", "P1"}
    upper = named("closedform.survival", m=lambda sp: sp.attrs["model"] in regular,
                  u=lambda sp: sp.attrs["x2"] > sp.attrs["x1"])
    lower = named("closedform.survival", m=lambda sp: sp.attrs["model"] in regular,
                  u=lambda sp: sp.attrs["x2"] <= sp.attrs["x1"])
    omega = named("closedform.omega", m=lambda sp: sp.attrs["model"] in regular)
    m["closedform.survival_lower_us"] = _median([sp.ns / 1e3 for sp in lower])
    m["closedform.survival_upper_ms"] = _median([sp.ns / 1e6 for sp in upper])
    m["closedform.omega_ms"] = _median([sp.ns / 1e6 for sp in omega])
    m["closedform.omega_share"] = _ratio(sum(sp.ns for sp in omega), sum(sp.ns for sp in upper))
    m["closedform.panels_per_point"] = (
        statistics.fmean(computed_panels(sp.attrs["model"], sp.attrs["x1"]) for sp in upper)
        if upper else None)
    m["closedform.degenerate_ms"] = _median(
        [sp.ns / 1e6 for sp in named("closedform.survival", m=lambda sp: sp.attrs["model"] == "ND")])
    closedform_ops = [op for op in ops if op in survival_ns_by_op]
    m["closedform.integration_warnings"] = (
        _ratio(sum(ops[op].warnings for op in closedform_ops), len(closedform_ops)))

    m["transform.ab_us"] = _leaf_mean_us(spans, "transform.ab")
    m["transform.psi_tilde_us"] = _leaf_mean_us(spans, "transform.psi_tilde")
    m["transform.invert_2d_ms"] = _median([sp.ns / 1e6 for sp in by_name.get("transform.invert_2d", ())])

    m["onedim.ruin_transform_exp_us"] = _leaf_mean_us(spans, "onedim.ruin_transform_exp")
    m["onedim.survival_one_company_us_per_chunk"] = _median(
        [sp.ns / 1e3 for sp in by_name.get("onedim.survival_one_company", ())])

    solves = by_name.get("pde.solve", ())
    marches = by_name.get("pde.march_triangle", ())
    march_ns_by_solve: dict = {}
    for sp in marches:
        march_ns_by_solve[sp.parent] = march_ns_by_solve.get(sp.parent, 0) + sp.ns
    m["pde.solve_ms"] = _median([sp.ns / 1e6 for sp in solves])
    m["pde.march_ms"] = _median([march_ns_by_solve.get(sp.sid, 0) / 1e6 for sp in solves])
    m["pde.march_share"] = _ratio(sum(sp.ns for sp in marches), sum(sp.ns for sp in solves))
    m["pde.ns_per_node"] = _ratio(sum(sp.ns for sp in marches),
                                  sum(triangle_nodes(sp.attrs["n"]) for sp in marches))
    m["pde.evaluate_us"] = _median([sp.ns / 1e3 for sp in by_name.get("pde.evaluate", ())])

    def paths_per_s(spans_):
        return _median([sp.attrs["n"] / (sp.ns / 1e9) for sp in spans_])

    m["mc.direct_paths_per_s_t1"] = paths_per_s(
        named("mc.simulate_joint_ruin", t=lambda sp: sp.attrs["threads"] == 1))
    m["mc.direct_paths_per_s_t2"] = paths_per_s(
        named("mc.simulate_joint_ruin", t=lambda sp: sp.attrs["threads"] == 2))
    m["mc.thread_speedup"] = (_ratio(m["mc.direct_paths_per_s_t2"], m["mc.direct_paths_per_s_t1"])
                              if m["mc.direct_paths_per_s_t1"] else None)
    m["mc.lt_paths_per_s"] = paths_per_s(named("mc.ruin_time_lt", s=lambda sp: sp.attrs["s"] > 0))
    m["mc.cond_paths_per_s"] = paths_per_s(by_name.get("mc.conditional_survival", ()))
    m["mc.stream_us"] = _median([sp.ns / 1e3 for sp in by_name.get("mc.stream", ())])
    chunk_claims = named("mc.sample_claims", k=lambda sp: op_kind(sp) in CHUNKED_MC_KINDS)
    m["mc.sample_claims_ns"] = _ratio(sum(sp.ns for sp in chunk_claims),
                                      sum(sp.attrs["size"] for sp in chunk_claims))
    fluid = by_name.get("mc.simulate_joint_ruin_fluid", ())
    m["mc.fluid_ms_per_path"] = _median([sp.ns / 1e6 / sp.attrs["n"] for sp in fluid])
    for kind, key in (("mc_direct", "mc.se_direct"), ("mc_lt", "mc.se_lt"), ("mc_cond", "mc.se_cond")):
        m[key] = _median([float(workloads.parse_result(d.output)[2]["stderr"])
                          for d in ops.values() if d.op.kind == kind and not d.problems])
    return m


CHUNKED_MC_KINDS = ("mc_direct", "mc_lt", "mc_cond", "mc_direct_t1")


def triangle_nodes(n: int) -> int:
    """Nodes of the march on ``{0 <= j <= i <= n}``."""
    return (n + 1) * (n + 2) // 2


def computed_panels(tag: str, x1: float) -> int:
    """Panels of the cut integral at ``x1``, as ``closedform.omega`` splits the cut.

    ``ceil(span * x1 * b_max / pi)`` clipped to ``[1, 10000]``; ``b_max`` is
    taken from ``transform.ab`` on a fine grid of the cut.
    """
    b_max, span = _cut_shape(tag)
    if x1 <= 0 or b_max <= 0:
        return 1
    return max(1, min(int(math.ceil(span * x1 * b_max / math.pi)), 10_000))


@functools.lru_cache(maxsize=None)
def _cut_shape(tag: str) -> tuple[float, float]:
    model = workloads.model(tag)
    dc = derive(model)
    qs = np.linspace(dc.q_plus_end, dc.q_minus_end, 4001)
    return max(transform.ab(model, float(q), dc).b for q in qs), dc.q_minus_end - dc.q_plus_end


def computed_counts() -> dict:
    """Work counts that follow from public defaults and the workloads' settings."""
    m_default = inspect.signature(transform.invert_2d).parameters["m"].default
    terms = (m_default, m_default + 5)   # invert_2d runs at m and at m + 5
    steps = workloads.PDE_STEPS
    return {
        "transform.inner_inversions": sum(2 * m + 1 for m in terms),
        "transform.psi_tilde_evals": sum((2 * m + 1) * (4 * m + 1) for m in terms),
        "pde.nodes": triangle_nodes(steps) + triangle_nodes(2 * steps),
        "pde.wavefronts": 2 * steps + 2 * (2 * steps),
        "mc.claims_per_path": workloads.MODELS["P0"][0] * workloads.MC_HORIZON,
        "mc.chunks": math.ceil(workloads.MC_DIRECT_PATHS / mc.CHUNK),
    }
