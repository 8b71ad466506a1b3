import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import chisquare, kstest, poisson

from ruin2d import cli, mc, pde
from ruin2d.closedform import survival
from ruin2d.errors import DomainError, UnsupportedClaimLaw
from ruin2d.mc import (
    BLOCK,
    CHUNK,
    STREAM_VERSION,
    MCEstimate,
    _MAX_MEAN_CLAIMS,
    _Workspace,
    _accumulate,
    _epoch_panel,
    _first_ruin_chunk,
    _fluid_ruin_chunk,
    _joint_ruin_chunk,
    _path_blocks,
    _path_bounds,
    conditional_survival,
    ruin_time_lt,
    sample_claims,
    simulate_joint_ruin,
    simulate_joint_ruin_fluid,
    stream,
)
from ruin2d.model import Exponential, RiskModel, normalize, validate
from ruin2d.onedim import ruin_transform_exp, survival_one_company

from conftest import z_score
from oracles import (
    fluid_embed,
    killed_position_frequencies,
    path_ruin_time,
    reference_company1_chunk,
    reference_discounted_chunk,
    reference_epoch_panel,
    reference_joint_tau_chunk,
    resolvent_density,
    sample_path,
)


def test_zero_horizon_gives_zero(p0):
    est = simulate_joint_ruin(p0, 1.0, 1.0, 0.0, 5_000, seed=1)
    assert est.mean == 0.0 and est.std_error == 0.0


def test_determinism_bitwise(p0):
    a = simulate_joint_ruin(p0, 1.0, 2.0, 30.0, 40_000, seed=9)
    b = simulate_joint_ruin(p0, 1.0, 2.0, 30.0, 40_000, seed=9)
    assert a.mean == b.mean and a.std_error == b.std_error
    c = conditional_survival(p0, 1.0, 2.0, 40_000, seed=9)
    d = conditional_survival(p0, 1.0, 2.0, 40_000, seed=9)
    assert c.mean == d.mean and c.std_error == d.std_error


def test_threaded_fanout_matches_serial(p0):
    a = conditional_survival(p0, 1.0, 2.0, 60_000, seed=3, threads=1)
    b = conditional_survival(p0, 1.0, 2.0, 60_000, seed=3, threads=4)
    assert a.mean == b.mean and a.std_error == b.std_error


@pytest.mark.parametrize("estimator", [
    lambda p0, threads: simulate_joint_ruin(p0, 1.0, 2.0, 10.0, 3 * CHUNK + 17, seed=3,
                                            threads=threads),
    lambda p0, threads: ruin_time_lt(p0, 1.0, 2.0, 0.5, 10.0, 3 * CHUNK + 17, seed=3,
                                     threads=threads),
    lambda p0, threads: simulate_joint_ruin_fluid(p0, 1.0, 2.0, 10.0, 3 * CHUNK + 17, seed=3,
                                                  threads=threads),
], ids=["direct", "ruin_time_lt", "fluid"])
def test_threads_bitwise_equal(p0, estimator):
    a = estimator(p0, 1)
    b = estimator(p0, 2)
    assert a == b


def test_thread_workspaces_under_frequent_switches(p0):
    # each thread keeps one workspace for the whole estimate: with more threads
    # than cores and a switch interval of 1 us, a workspace that two threads
    # shared would mix their blocks and move the estimate
    runs = {
        "direct": lambda threads: simulate_joint_ruin(p0, 1.0, 3.0, 20.0, 2 * CHUNK + 9, seed=4,
                                                      threads=threads),
        "conditional": lambda threads: conditional_survival(p0, 1.0, 3.0, 3 * CHUNK + 9, seed=4,
                                                            threads=threads),
    }
    serial = {name: run(1) for name, run in runs.items()}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = {name: run(4) for name, run in runs.items()}
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def chunk_moments(vals):
    """``(n, mean, M2)`` of one chunk's values, in the runner's arithmetic."""
    mean = float(np.mean(vals))
    dev = vals - mean
    return vals.size, mean, float(np.sum(dev * dev))


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_merges_chunks_in_chunk_order(threads):
    # each chunk is reduced to its moments as soon as it is drawn, never listed:
    # the estimate is the listed one bit for bit, and each thread holds at most
    # one chunk array at a time
    n = 9 * CHUNK + 5
    lock = threading.Lock()
    live = [0, 0]  # alive now, most alive at once

    def released():
        with lock:
            live[0] -= 1

    def values(rng, size, ws):
        vals = rng.random(size)
        with lock:
            live[0] += 1
            live[1] = max(live[1], live[0])
        weakref.finalize(vals, released)
        return vals

    est = mc._run(values, n, seed=31, threads=threads, meta={})
    sizes = [CHUNK] * 9 + [5]
    listed = _accumulate([chunk_moments(stream(31, k).random(size))
                          for k, size in enumerate(sizes)], seed=31, meta={})
    assert est == listed
    assert est.n == n
    assert live[1] <= threads


def test_accumulate_merges_near_constant_chunks():
    # values 1 - 1e-9 U: sum(x^2) - n mean^2 cancels to noise here
    rng = np.random.default_rng(8)
    chunks = [1.0 - 1e-9 * rng.random(size) for size in (CHUNK, CHUNK, 5_000, 1)]
    est = _accumulate(map(chunk_moments, chunks), seed=0, meta={})
    flat = np.concatenate(chunks)
    assert est.n == flat.size
    assert est.mean == pytest.approx(flat.mean(), rel=1e-15, abs=0.0)
    assert est.std_error**2 * est.n == pytest.approx(np.var(flat, ddof=1), rel=1e-6, abs=0.0)


def test_one_path_has_no_standard_error(p0):
    # a single value bounds nothing: se = 0 would read as exact
    assert _accumulate([(1, 0.25, 0.0)], seed=0, meta={}).std_error == math.inf
    assert simulate_joint_ruin(p0, 1.0, 3.0, 1.0, 1, seed=0).std_error == math.inf
    assert conditional_survival(p0, 1.0, 2.0, 1, seed=0).std_error == math.inf
    # the conditional estimator is exact at T = 0, whatever the number of paths
    assert conditional_survival(p0, 1.0, 1.0, 1, seed=0).std_error == 0.0


def test_every_estimate_records_stream_version(p0):
    ests = [
        simulate_joint_ruin(p0, 1.0, 2.0, 5.0, 100, seed=1),
        ruin_time_lt(p0, 1.0, 2.0, 0.5, 5.0, 100, seed=1),
        conditional_survival(p0, 1.0, 2.0, 100, seed=1),
        conditional_survival(p0, 1.0, 1.0, 100, seed=1),
        simulate_joint_ruin_fluid(p0, 1.0, 2.0, 5.0, 100, seed=1),
    ]
    assert STREAM_VERSION == 6
    assert all(e.meta["stream_version"] == STREAM_VERSION for e in ests)


def _direct(model, horizon, n, threads):
    return simulate_joint_ruin(model, 1.0, 3.0, horizon, n, seed=5, threads=threads)


def _discounted(model, horizon, n, threads):
    return ruin_time_lt(model, 1.0, 3.0, 0.5, horizon, n, seed=5, threads=threads)


def _fluid(model, horizon, n, threads):
    return simulate_joint_ruin_fluid(model, 1.0, 3.0, horizon, n, seed=5, threads=threads)


@pytest.mark.parametrize("estimator", [_direct, _discounted, _fluid],
                         ids=["direct", "ruin_time_lt", "fluid"])
@pytest.mark.parametrize("horizon, n", [
    (float(BLOCK), 7),          # ceil(lam T) + 1 > BLOCK: one path per block
    (50.0, CHUNK + 1285 + 5),   # BLOCK // 51 = 1285 paths: partial last blocks
], ids=["one-path-blocks", "partial-blocks"])
def test_block_edges_thread_invariant(p0, estimator, horizon, n):
    per_block = [b.stop - b.start for b in _path_blocks(p0, horizon, min(n, CHUNK))]
    if horizon == BLOCK:
        assert per_block == [1] * n
    else:
        assert CHUNK % per_block[0] != 0 and (n - CHUNK) % per_block[0] != 0
    runs = [estimator(p0, horizon, n, threads) for threads in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert runs[0].n == n


def _joint(model, u1, u2, horizon, rng, n, ws, s=0.0):
    """The direct kernel at raw reserves ``(u1, u2)``, killed at rate ``s``."""
    return _joint_ruin_chunk(model, u1 / model.delta1, u2 / model.delta2, horizon, rng, n, ws, s)


@pytest.mark.parametrize("kernel", [
    lambda model, u1, u2, horizon, rng, n: _joint(model, u1, u2, horizon, rng, n, _Workspace()),
    lambda model, u1, u2, horizon, rng, n: _joint(model, u1, u2, horizon, rng, n, _Workspace(),
                                                  s=0.01),
    _fluid_ruin_chunk,
    lambda model, u1, u2, horizon, rng, n: _first_ruin_chunk(
        model, model.p1, u1, horizon, rng, n, _Workspace()),
], ids=["direct", "discounted", "fluid", "company1"])
def test_chunk_memory_independent_of_horizon(p0, kernel):
    def peak(horizon):
        tracemalloc.start()
        try:
            kernel(p0, 1.0, 3.0, horizon, stream(2, 0), CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800.0) <= 1.5 * peak(200.0)


# the margins of SCALED are e1 = 0.30 and e2 = 0.29, with rho = 13/7
SCALED = RiskModel(lam=1.3, claim=Exponential(mu=0.7), c1=5.0, c2=3.0, delta1=1.6, delta2=1.25)


@pytest.fixture(params=["p0", "p1", "scaled", "erlang2"])
def any_model(request):
    return SCALED if request.param == "scaled" else request.getfixturevalue(
        "erlang2_model" if request.param == "erlang2" else request.param)


@pytest.mark.parametrize("horizon, n", [
    (0.0, 500),
    (0.5, 3_000),
    (50.0, 3_000),
    (float(BLOCK), 3),          # one path per block
], ids=["zero", "short", "long", "one-path-blocks"])
@pytest.mark.parametrize("seed, k", [(1, 0), (7, 3), (2024, 11)])
def test_chunk_kernels_match_reference_bits(any_model, horizon, n, seed, k):
    # the chunk kernels written path by path from stream 6, in tests/oracles.py;
    # the calls share one workspace, as the chunks of one thread do.  At (1, 2)
    # the crossing time is 0.36 to 1.34 on these models; (2, 1) is in the lower cone
    ws = _Workspace()
    for u1, u2 in ((1.0, 2.0), (2.0, 1.0)):
        tau = _joint(any_model, u1, u2, horizon, stream(seed, k), n, ws)
        assert np.array_equal(tau, reference_joint_tau_chunk(
            any_model, u1, u2, horizon, stream(seed, k), n))
        if horizon > 0.0:
            assert 0 < np.isfinite(tau).sum() < n or n == 3
    # company 1 alone, as conditional_survival reads it
    tau1, totals = _first_ruin_chunk(any_model, any_model.p1, 1.0, horizon, stream(seed, k), n, ws)
    alive, x_T = np.isinf(tau1), 1.0 + any_model.p1 * horizon - totals
    ref_alive, ref_x_T = reference_company1_chunk(any_model, 1.0, horizon, stream(seed, k), n)
    assert np.array_equal(alive, ref_alive) and np.array_equal(x_T, ref_x_T)
    if horizon > 0.0:
        assert 0 < alive.sum() < n or n == 3


@pytest.mark.parametrize("s, horizon, n", [
    (0.5, 50.0, 3_000),
    (0.02, 50.0, 3_000),        # clocks of mean 50: the killed window spans several blocks
    (1e-5, float(BLOCK), 3),    # clocks past the horizon: about a block per path
], ids=["one-block", "many-blocks", "long-clocks"])
@pytest.mark.parametrize("seed, k", [(1, 0), (7, 3), (2024, 11)])
def test_discounted_chunk_matches_reference_bits(any_model, s, horizon, n, seed, k):
    # stream 6 written path by path in tests/oracles.py: company 1's sweep, then
    # the killing clocks, then company 2's sweep on per-path horizons.  At (1, 2)
    # the crossing time is 0.36 to 1.34 on these models, (2, 1) is in the lower
    # cone, and at (1, 2) with H = 0.3 the crossing time is past the horizon
    ws = _Workspace()
    starts = [(1.0, 2.0, horizon), (2.0, 1.0, horizon), (1.0, 2.0, 0.3)]
    for u1, u2, h in starts:
        vals = np.exp(-s * _joint(any_model, u1, u2, h, stream(seed, k), n, ws, s))
        ref = reference_discounted_chunk(any_model, u1, u2, s, h, stream(seed, k), n)
        assert np.array_equal(vals, ref)
        assert 0 < np.count_nonzero(vals) < n or n == 3
    # T* >= H draws no clock: the values of stream 5, which is stream 6 at s = 0
    stream5 = reference_joint_tau_chunk(any_model, 1.0, 2.0, 0.3, stream(seed, k), n)
    assert np.array_equal(vals, np.exp(-s * stream5))


def test_discounted_draws_few_claims_per_path(p0, monkeypatch):
    # at P0 (1, 3), T* = 2: two claims per path before it, then about two per
    # survivor until its Exp(0.5) clock, where stream 5 drew 42.4 to H = 50
    drawn = []
    sampler = mc.sample_claims

    def spy(claim, rng, size, out=None):
        drawn.append(size)
        return sampler(claim, rng, size, out)

    monkeypatch.setattr(mc, "sample_claims", spy)
    ruin_time_lt(p0, 1.0, 3.0, 0.5, 50.0, CHUNK, seed=5)
    assert sum(drawn) < 6 * CHUNK
    drawn.clear()
    ruin_time_lt(p0, 1.0, 3.0, 0.0, 50.0, CHUNK, seed=5)
    assert sum(drawn) == 692_235  # as stream 5 drew it


def _pde_lt(model, u1, u2, s):
    """``ruin --method pde --s``: the value and its error bound, solved on the query's column."""
    r, _ = pde.to_grid_coords(model, u1, u2)
    grid = pde.solve(model, s=s, r_max=r, steps=200)
    return pde.evaluate(grid, u1, u2), grid.error_estimate


@pytest.mark.parametrize("model, u, s, horizon, seed", [
    ("p0", (1.0, 3.0), 0.5, 50.0, 61),
    ("p1", (0.3, 4.0), 0.3, 40.0, 62),
    ("p0", (3.0, 1.0), 0.5, 50.0, 63),
], ids=["p0", "p1", "p0-lower-cone"])
def test_discounted_matches_pde_and_company2(request, model, u, s, horizon, seed):
    # 2e6 paths: the killed estimator against the PDE in the upper cone and
    # against company 2's discounted ruin in the lower cone
    m = request.getfixturevalue(model)
    est = ruin_time_lt(m, *u, s, horizon, 2_000_000, seed=seed, threads=2)
    if u[0] < u[1]:
        ref, err = _pde_lt(m, *u, s)
    else:
        ref, err = ruin_transform_exp(m, u[1] / m.delta2, s), 0.0
    assert abs(ref - est.mean) <= 4.0 * est.std_error + est.meta["bias_bound"] + err


def test_discounted_phasetype_agrees_with_stream5(erlang2_model):
    # Erlang-2 has no deterministic reference at s > 0; stream 5 at the parent
    # of stream 6 gave 0.1168078748334239 (se 0.00029117307896765277) from
    # ruin_time_lt(erlang2, 1, 3, 0.5, 50, 1e6 paths, seed 2024)
    est = ruin_time_lt(erlang2_model, 1.0, 3.0, 0.5, 50.0, 2_000_000, seed=64, threads=2)
    stream5, se5 = 0.1168078748334239, 0.00029117307896765277
    assert abs(est.mean - stream5) <= 4.0 * math.hypot(est.std_error, se5)


def test_direct_and_conditional_share_the_first_window(p0, monkeypatch):
    # at P0 (1, 3) the crossing time is 2: up to it both estimators watch company 1
    # alone on the same blocks and draws, and the direct one then draws only the
    # survivors, carrying their claim totals
    calls = []
    sweep = mc._first_ruin_chunk

    def spy(model, p, x, horizon, rng, n, ws, start=None):
        tau, totals = sweep(model, p, x, horizon, rng, n, ws, start)
        calls.append((p, x, horizon, np.isinf(tau), totals.copy(), start))
        return tau, totals

    monkeypatch.setattr(mc, "_first_ruin_chunk", spy)
    n = CHUNK + 2_000  # two chunks
    simulate_joint_ruin(p0, 1.0, 3.0, 20.0, n, seed=13)
    direct, calls[:] = calls[:], []
    cond = conditional_survival(p0, 1.0, 3.0, n, seed=13)
    assert cond.meta["crossing_time"] == 2.0 and len(calls) == 2 and len(direct) == 4
    for (p, x, T, alive, totals, start), first, second in zip(calls, direct[::2], direct[1::2]):
        assert (p, x, T, start) == (p0.p1, 1.0, 2.0, None)
        # the direct kernel's survivors at T* and their claim totals, bit for bit
        assert first[:3] == (p, x, T) and first[5] is None
        assert np.array_equal(first[3], alive)
        assert np.array_equal(1.0 + p * T - first[4], 1.0 + p * T - totals)
        assert 0 < alive.sum() < alive.size
        # then company 2 alone over [2, 20), from each survivor's total at T*
        assert second[:3] == (p0.p2, 3.0 + p0.p2 * 2.0, 18.0)
        assert np.array_equal(second[5], totals[alive])


# per-path horizons with zero-length paths among them, as a clock of 0 would give
PER_PATH = np.where(np.arange(2_000) % 7 == 3, 0.0, np.random.default_rng(2).exponential(2.0, 2_000))


@pytest.mark.parametrize("horizon", [7.5, 0.0, PER_PATH], ids=["scalar", "zero", "per-path"])
def test_epoch_panel_sorted_within_horizon(p0, horizon):
    n = 2_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path, t, s, totals = _epoch_panel(p0, horizon, stream(4, 0), n, _Workspace())
    counts = np.bincount(path, minlength=n)
    assert path.size == t.size == s.size and np.all(np.diff(path) >= 0)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    assert np.all(t >= 0.0) and np.all(t <= np.broadcast_to(horizon, (n,))[path])
    assert np.all(counts[np.broadcast_to(horizon, (n,)) == 0.0] == 0)
    same_path = path[1:] == path[:-1]
    assert np.all(np.diff(t)[same_path] >= 0.0)
    assert np.all(np.diff(s)[same_path] > 0.0)
    nonempty = counts > 0
    assert np.array_equal(totals[nonempty], s[bounds[1:][nonempty] - 1])
    assert (np.sum(horizon) > 0.0 or path.size == 0) and np.all(totals[counts == 0] == 0.0)


def test_epoch_panel_per_path_counts_are_poisson(p0):
    # paths of horizons 1 and 4 alternate on one Poisson process: each path's
    # count is Poisson(lam h), its epochs uniform on [0, h)
    n = 20_000
    h = np.where(np.arange(n) % 2 == 0, 1.0, 4.0)
    path, t, _, _ = _epoch_panel(p0, h, stream(9, 0), n, _Workspace())
    counts = np.bincount(path, minlength=n)
    for length in (1.0, 4.0):
        c, mean = counts[h == length], p0.lam * length
        assert abs(c.mean() - mean) <= 4.0 * math.sqrt(mean / c.size)
        assert abs(c.var() - mean) <= 4.0 * math.sqrt((2 * mean**2 + mean) / c.size)
        assert kstest(t[h[path] == length] / length, "uniform").pvalue > 1e-3


def test_path_blocks_per_path_horizons(p1):
    # per-path horizons end a block at each path whose expected claims since the
    # chunk began pass a multiple of BLOCK; a path longer than a block ends one
    h = np.random.default_rng(3).exponential(3.0, 40_000)
    h[500] = 1.5 * BLOCK
    blocks = list(_path_blocks(p1, h, h.size))
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == h.size
    passed = np.floor_divide(p1.lam * np.cumsum(h), BLOCK)
    for b in blocks[:-1]:
        assert passed[b.stop - 1] > passed[b.stop - 2] if b.stop > 1 else passed[0] > 0
        assert p1.lam * h[b][:-1].sum() < BLOCK
    assert any(b.stop == 501 for b in blocks)
    assert list(_path_blocks(p1, h[:0], 0)) == []


def test_epoch_panel_uniform_order_statistics(p0):
    # given k claims on [0, H], the epochs are the sorted values of k uniforms
    n, horizon = 20_000, 4.0
    path, t, _, _ = _epoch_panel(p0, horizon, stream(6, 0), n, _Workspace())
    counts = np.bincount(path, minlength=n)
    starts = np.cumsum(counts) - counts
    assert kstest(t / horizon, "uniform").pvalue > 1e-3
    three = starts[counts == 3]
    assert kstest(t[three] / horizon, "beta", args=(1, 3)).pvalue > 1e-3
    assert kstest(t[three + 2] / horizon, "beta", args=(3, 1)).pvalue > 1e-3


def test_epoch_panel_counts_are_independent_poisson(p0):
    # one Poisson process cut into n pieces of length H: each piece's count is
    # Poisson(lam H), independent of its neighbours'
    n, horizon = 20_000, 2.5
    path, _, _, _ = _epoch_panel(p0, horizon, stream(8, 0), n, _Workspace())
    counts = np.bincount(path, minlength=n)
    mean = p0.lam * horizon
    assert abs(counts.mean() - mean) <= 4.0 * math.sqrt(mean / n)
    assert abs(counts.var() - mean) <= 4.0 * math.sqrt((2 * mean**2 + mean) / n)
    observed = np.bincount(counts, minlength=12)[:12]
    expected = n * poisson.pmf(np.arange(12), mean)
    assert chisquare(observed, expected * observed.sum() / expected.sum()).pvalue > 1e-3
    for lag in (1, 2):
        r = np.corrcoef(counts[:-lag], counts[lag:])[0, 1]
        assert abs(r) <= 4.0 / math.sqrt(n)


class _RoundingUpStream:
    """Draws for a block whose last epoch ``v`` rounds to ``n`` or above.

    The last spacing is 0 (``U = 0``), so the last epoch's partial sum is the
    total, and ``P (n / P)`` rounds to ``n`` or one ulp above it.
    """

    def __init__(self, count, uniforms):
        self.count, self.uniforms = count, list(uniforms)

    def poisson(self, mean):
        return self.count

    def random(self, size=None, out=None):
        k = out.size if out is not None else size
        out = np.empty(k) if out is None else out
        out[:] = self.uniforms[:k]
        del self.uniforms[:k]
        return out


def test_epoch_rounding_to_n_goes_to_the_last_path(p0):
    n, horizon = 3, 2.0
    # spacings -log1p(-U) for U = 0.3, 0.9, 0: partial sums p, P, P with P = total
    spacings = [0.3, 0.9, 0.0]
    total = -np.log1p(-0.3) - np.log1p(-0.9)
    assert total * (n / total) >= n  # this total rounds the last epoch up to n
    sizes = [0.5, 0.25]
    path, t, s, totals = _epoch_panel(
        p0, horizon, _RoundingUpStream(2, spacings + sizes), n, _Workspace())
    assert path.tolist() == [0, 2]
    assert t[1] == horizon and 0.0 < t[0] < horizon
    running = np.cumsum(-np.log1p(-np.array(sizes)))
    assert s.tolist() == [running[0], running[1] - running[0]]
    assert totals.tolist() == [running[0], 0.0, running[1] - running[0]]
    paths, ref_totals = reference_epoch_panel(
        p0, horizon, _RoundingUpStream(2, spacings + sizes), n)
    assert [p[0].tolist() for p in paths] == [[t[0]], [], [horizon]]
    assert np.array_equal(ref_totals, totals)


@pytest.mark.parametrize("claims_per_path", [0.5, 16.0, 17.0, 400.0])
def test_path_bounds_search_and_count_agree(claims_per_path):
    # a binary search per path above 16 claims per path, a count over the claims below
    rng = np.random.default_rng(3)
    n = 500
    path = np.sort(rng.integers(0, n, size=int(claims_per_path * n)))
    want = np.searchsorted(path, np.arange(n + 1))
    assert np.array_equal(_path_bounds(path, n), want)
    assert np.array_equal(_path_bounds(np.full(3, n - 1), n), [0] * n + [3])
    assert np.array_equal(_path_bounds(path[:0], n), np.zeros(n + 1))


def test_stream_independence_overlap(p0):
    # two master seeds draw independent streams: estimates must overlap
    for rep in range(20):
        a = conditional_survival(p0, 1.0, 2.0, 20_000, seed=rep)
        b = conditional_survival(p0, 1.0, 2.0, 20_000, seed=rep + 1000)
        pooled = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) <= 4.0 * pooled


def test_joint_ruin_origin_within_band(p0):
    # ruin probability at the origin is C2 = 1/2; the finite horizon can only
    # undershoot, by at most the reported tail diagnostic
    est = simulate_joint_ruin(p0, 0.0, 0.0, 100.0, 200_000, seed=21)
    target = 0.5
    tail = est.meta["lundberg_tail"]
    assert est.mean <= target + 3.5 * est.std_error
    assert target - est.mean <= 3.5 * est.std_error + tail


def test_barrier_formulation_agrees_eventwise(p0):
    # S(t) crossing min((u1+c1 t)/d1, (u2+c2 t)/d2) is the same event as a
    # post-jump reserve below zero
    rng = stream(12, 0)
    u1, u2 = 1.0, 2.0
    for _ in range(200):
        path = sample_path(p0, 25.0, rng)
        tau = path_ruin_time(path, u1, u2, p0)
        t = path.epochs
        s = np.cumsum(path.claim_sizes)
        barrier = np.minimum((u1 + p0.c1 * t) / p0.delta1, (u2 + p0.c2 * t) / p0.delta2)
        crossed = bool(np.any(s > barrier))
        assert crossed == math.isfinite(tau)


def test_conditional_degenerate_diagonal(p0):
    est = conditional_survival(p0, 1.0, 1.0, 1_000, seed=4)
    assert est.mean == pytest.approx(1.0 - 0.5 * math.exp(-0.5), abs=1e-14)
    assert est.std_error == 0.0
    assert est.meta["crossing_time"] == 0.0


def test_conditional_matches_closed_form(p0):
    est = conditional_survival(p0, 1.0, 2.0, 400_000, seed=42)
    assert abs(z_score(survival(p0, 1.0, 2.0).value, est)) <= 3.5


def test_conditional_unbiased_grand_mean(p0):
    target = survival(p0, 1.0, 2.0).value
    means = np.array(
        [conditional_survival(p0, 1.0, 2.0, 10_000, seed=s).mean for s in range(50)]
    )
    grand = means.mean()
    grand_se = means.std(ddof=1) / math.sqrt(len(means))
    assert abs(grand - target) <= 3.5 * grand_se


def test_conditional_variance_dominance(p0):
    # Rao-Blackwellization: the conditional estimator beats the naive
    # finite-horizon frequency at equal path count
    wins = 0
    for seed in range(20):
        cond = conditional_survival(p0, 1.0, 2.0, 100_000, seed=seed)
        naive = simulate_joint_ruin(p0, 1.0, 2.0, 20.0, 100_000, seed=seed)
        if cond.std_error <= naive.std_error:
            wins += 1
    assert wins >= 18


def test_conditional_supports_phasetype(erlang2_model):
    # no closed form exists here; pin against the direct finite-horizon
    # simulator, whose undershoot is bounded by the slowest decay mode
    x1, x2 = 0.5, 1.5
    cond = conditional_survival(erlang2_model, x1, x2, 300_000, seed=71)
    horizon = 40.0
    naive = simulate_joint_ruin(erlang2_model, x1, x2, horizon, 150_000, seed=72)
    ultimate_ruin = 1.0 - cond.mean
    tail = math.exp(-0.719 * (x2 + (erlang2_model.p2 - erlang2_model.rho) * horizon))
    band = 3.5 * math.hypot(cond.std_error, naive.std_error)
    assert naive.mean <= ultimate_ruin + band
    assert ultimate_ruin - naive.mean <= band + tail


# claim objects that are not a library law: a bare mean, and a sampler-style
# ("empirical") law that JSON cannot carry
FOREIGN_CLAIMS = {
    "mean": SimpleNamespace(mean=1.0),
    "sampler": SimpleNamespace(sampler=lambda rng, n: rng.exponential(1.0, n), mean=1.0),
}


def test_conditional_folds_lower_cone_and_rejects_empirical(p0):
    # a lower-cone start is company 2's one-dimensional problem at x2: exact, stderr 0
    est = conditional_survival(p0, 2.0, 1.0, 100, seed=0)
    assert (est.mean, est.std_error, est.meta["crossing_time"]) == (
        float(survival_one_company(p0, 1.0)), 0.0, 0.0)
    # at x2 = x1 the estimate is exact, and still refuses a path count below 1
    with pytest.raises(DomainError):
        conditional_survival(p0, 1.0, 1.0, 0, seed=0)
    m = RiskModel(lam=1.0, claim=FOREIGN_CLAIMS["sampler"], c1=3.0, c2=2.0)
    # at x2 = x1 the crossing time is 0 and no claim is drawn
    with pytest.raises(UnsupportedClaimLaw):
        conditional_survival(m, 2.0, 2.0, 100, seed=0)


def test_conditional_lower_cone_matches_ruin_ultimate(capsys):
    # raw (3, 1) of SCALED is normalized (1.875, 0.8), in the lower cone
    x1, x2 = normalize(SCALED, 3.0, 1.0)
    assert x2 < x1
    est = conditional_survival(SCALED, x1, x2, 20_000, seed=3)
    assert (est.mean, est.std_error) == (float(survival_one_company(SCALED, x2)), 0.0)
    assert cli.main(["ruin", "--lam", "1.3", "--mu", "0.7", "--c", "5", "3", "--delta", "1.6",
                     "1.25", "--u", "3", "1", "--ultimate", "--paths", "20000", "--seed", "3"]) == 0
    assert capsys.readouterr().out == (
        f"ruin = {1.0 - est.mean:.12g}  stderr=0  method=mc(conditional)  n=20000  seed=3\n")


ESTIMATORS = {
    "direct": lambda m, u1, u2, horizon, s, n, threads:
        simulate_joint_ruin(m, u1, u2, horizon, n, 0, threads),
    "discounted": lambda m, u1, u2, horizon, s, n, threads:
        ruin_time_lt(m, u1, u2, s, horizon, n, 0, threads),
    "fluid": lambda m, u1, u2, horizon, s, n, threads:
        simulate_joint_ruin_fluid(m, u1, u2, horizon, n, 0, threads),
    "conditional": lambda m, u1, u2, horizon, s, n, threads:
        conditional_survival(m, u1, u2, n, 0, threads),
}
TAKES = {"direct": "m u1 u2 horizon n threads", "discounted": "m u1 u2 horizon s n threads",
         "fluid": "m u1 u2 horizon n threads", "conditional": "m u1 u2 n threads"}
VALID = {"u1": 1.0, "u2": 3.0, "horizon": 5.0, "s": 0.5, "n": 100, "threads": 1}
# invalid models, which only a library caller can pass: the CLI validates first
INVALID_MODELS = {
    "mu=-1": RiskModel(lam=1.0, claim=Exponential(mu=-1.0), c1=3.0, c2=2.0),
    "lam=-1": RiskModel(lam=-1.0, claim=Exponential(mu=1.0), c1=3.0, c2=2.0),
    "lam=nan": RiskModel(lam=math.nan, claim=Exponential(mu=1.0), c1=3.0, c2=2.0),
    "c=(2,3)": RiskModel(lam=1.0, claim=Exponential(mu=1.0), c1=2.0, c2=3.0),
    "c=(2,2)": RiskModel(lam=1.0, claim=Exponential(mu=1.0), c1=2.0, c2=2.0),
}
# lam = 1: a horizon of 1e300 overflows numpy's Poisson draw, and just above
# _MAX_MEAN_CLAIMS a path would hold over a million claims at once
ABOVE_CAP = _MAX_MEAN_CLAIMS * (1 + 1e-9)
BAD = [("u1", -1.0), ("u1", math.nan), ("u2", -1.0), ("u2", math.nan), ("horizon", -1.0),
       ("horizon", math.nan), ("horizon", math.inf), ("s", -0.5), ("s", math.nan), ("s", math.inf),
       ("horizon", 1e300), ("horizon", ABOVE_CAP), ("n", 0), ("n", -5), ("n", 2.5),
       ("threads", 0), ("threads", -1), ("threads", 2.5),
       *(("m", label) for label in INVALID_MODELS)]
# x2 sets the conditional estimator's crossing time x2 - x1 (p1 - p2 = 1)
OUT_OF_DOMAIN = [(estimator, name, value) for estimator, takes in TAKES.items()
                 for name, value in BAD if name in takes.split()] + [
    ("conditional", "u2", x2) for x2 in (math.inf, 1e300, ABOVE_CAP + 1.0)]


@pytest.mark.parametrize(
    "estimator, name, value", OUT_OF_DOMAIN, ids=[f"{e}-{n}={v}" for e, n, v in OUT_OF_DOMAIN]
)
def test_estimators_refuse_out_of_domain_input(p0, monkeypatch, estimator, name, value):
    def no_draws(seed, k):
        raise AssertionError("paths were drawn before the refusal")

    monkeypatch.setattr(mc, "stream", no_draws)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if name == "m":
            with pytest.raises(DomainError, match="invalid model: "):
                ESTIMATORS[estimator](**{**VALID, "m": INVALID_MODELS[value]})
        else:
            with pytest.raises(DomainError):
                ESTIMATORS[estimator](p0, **{**VALID, name: value})


@pytest.mark.parametrize("claim", FOREIGN_CLAIMS.values(), ids=FOREIGN_CLAIMS.keys())
def test_foreign_claim_law_is_refused(claim):
    m = RiskModel(lam=1.0, claim=claim, c1=3.0, c2=2.0)
    assert validate(m).violations == ("unknown claim law SimpleNamespace",)
    with pytest.raises(UnsupportedClaimLaw):
        sample_claims(claim, stream(0, 0), 4)
    with pytest.raises(UnsupportedClaimLaw):
        survival_one_company(m, 1.0)
    for estimator in ESTIMATORS.values():
        with pytest.raises(UnsupportedClaimLaw):
            estimator(m, **VALID)


def test_ruin_time_lt_monotone_in_s(p0):
    hi = ruin_time_lt(p0, 1.0, 1.0, 1.0, 30.0, 50_000, seed=2)
    lo = ruin_time_lt(p0, 1.0, 1.0, 50.0, 30.0, 50_000, seed=2)
    assert lo.mean <= hi.mean


def test_ruin_time_lt_cone_pin(p0):
    s, horizon = 0.5, 30.0
    est = ruin_time_lt(p0, 1.0, 1.0, s, horizon, 300_000, seed=6)
    target = ruin_transform_exp(p0, 1.0, s)
    assert abs(target - est.mean) <= 3.5 * est.std_error + est.meta["bias_bound"]


def test_ruin_time_lt_s0_equals_indicator(p0):
    a = ruin_time_lt(p0, 1.0, 2.0, 0.0, 25.0, 60_000, seed=13)
    b = simulate_joint_ruin(p0, 1.0, 2.0, 25.0, 60_000, seed=13)
    assert a.mean == b.mean and a.std_error == b.std_error


# ---------------------------------------------------------------------------
# Fluid embedding identities.
# ---------------------------------------------------------------------------

def test_fluid_zero_claim_path(p0):
    path = sample_path(p0, 1e-9, stream(1, 0))
    assert len(path.interarrivals) == 0
    fp = fluid_embed(path, 1.0, 2.0, p0)
    for t in (0.0, 0.3, 1.0, 5.0):
        assert fp.up_time(t) == t
        r1, r2 = fp.reserves(t)
        assert r1 == 1.0 + p0.c1 * t and r2 == 2.0 + p0.c2 * t
    assert fp.ruin_time_embedded() == math.inf


def test_fluid_alternation_and_clock(p0):
    path = sample_path(p0, 20.0, stream(7, 3))
    fp = fluid_embed(path, 1.0, 1.0, p0)
    assert np.all(np.diff(fp.switch_times) > 0)
    assert np.all(fp.phases[:-1] != fp.phases[1:])
    assert fp.phases[0] == 1
    # I is nondecreasing and 1-Lipschitz along a fine time grid
    ts = np.linspace(0.0, fp.switch_times[-1], 500)
    ivals = np.array([fp.up_time(t) for t in ts])
    d = np.diff(ivals)
    dt = np.diff(ts)
    assert np.all(d >= -1e-12) and np.all(d <= dt + 1e-12)


def test_fluid_ruin_time_identity_exact(p0):
    rng = stream(99, 0)
    checked_ruin = 0
    for _ in range(500):
        path = sample_path(p0, 25.0, rng)
        fp = fluid_embed(path, 0.5, 1.5, p0)
        direct = path_ruin_time(path, 0.5, 1.5, p0)
        assert fp.ruin_time_original() == direct  # bitwise
        if math.isfinite(direct):
            checked_ruin += 1
            assert fp.up_time(fp.ruin_time_embedded()) == pytest.approx(direct, abs=1e-12)
    assert checked_ruin > 50


def test_fluid_extrema_identity(p0):
    rng = stream(123, 1)
    for _ in range(300):
        path = sample_path(p0, 15.0, rng)
        fp = fluid_embed(path, 1.0, 2.0, p0)
        m1, m2 = fp.minimum_reserves()
        # independent recomputation of the post-jump running minima
        t = np.cumsum(path.interarrivals)
        s = np.cumsum(path.claim_sizes)
        if len(t):
            u1_vals = 1.0 + p0.c1 * t - p0.delta1 * s
            u2_vals = 2.0 + p0.c2 * t - p0.delta2 * s
            assert m1 == pytest.approx(min(1.0, u1_vals.min()), abs=1e-12)
            assert m2 == pytest.approx(min(2.0, u2_vals.min()), abs=1e-12)
        else:
            assert (m1, m2) == (1.0, 2.0)


def test_fluid_estimator_consistent(p0):
    est = simulate_joint_ruin_fluid(p0, 1.0, 2.0, 20.0, 3_000, seed=17)
    ref = simulate_joint_ruin(p0, 1.0, 2.0, 20.0, 100_000, seed=18)
    assert abs(est.mean - ref.mean) <= 4.0 * math.hypot(est.std_error, ref.std_error)


# ---------------------------------------------------------------------------
# Claim sampling and the killed sweep.
# ---------------------------------------------------------------------------

def test_phasetype_sampler_moments(erlang2_model):
    rng = stream(55, 0)
    draws = sample_claims(erlang2_model.claim, rng, 200_000)
    # Erlang(2, 2): mean 1, variance 1/2
    se_mean = math.sqrt(0.5 / len(draws))
    assert abs(draws.mean() - 1.0) < 4.0 * se_mean
    assert abs(draws.var() - 0.5) < 0.02


def test_killed_positions_match_resolvent(p0):
    q, x1 = 0.5, 1.0
    edges = np.linspace(0.0, 6.0, 11)
    freq, se = killed_position_frequencies(p0, q, x1, edges, 150_000, seed=3)
    bad = 0
    for k in range(10):
        pred = q * quad(
            lambda z: resolvent_density(p0, q, x1, z), edges[k], edges[k + 1],
            points=[x1] if edges[k] < x1 < edges[k + 1] else None,
        )[0]
        if se[k] > 0 and abs(freq[k] - pred) > 3.5 * se[k]:
            bad += 1
    assert bad <= 1


def test_mcestimate_fields(p0):
    est = simulate_joint_ruin(p0, 1.0, 2.0, 10.0, 1_000, seed=5)
    assert isinstance(est, MCEstimate)
    assert est.n == 1_000 and est.seed == 5
    assert est.meta["horizon"] == 10.0
    assert est.std_error >= 0.0
