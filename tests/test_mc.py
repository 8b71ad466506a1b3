import math
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from ruin2d.closedform import survival
from ruin2d.errors import DomainError, UnsupportedClaimLaw
from ruin2d.mc import (
    BLOCK,
    CHUNK,
    STREAM_VERSION,
    MCEstimate,
    _accumulate,
    _chunk_sizes,
    _company1_chunk,
    _epoch_panel,
    _fluid_ruin_chunk,
    _joint_tau_chunk,
    _map_chunks,
    _path_blocks,
    conditional_survival,
    ruin_time_lt,
    sample_claims,
    simulate_joint_ruin,
    simulate_joint_ruin_fluid,
    stream,
)
from ruin2d.model import Empirical, RiskModel
from ruin2d.onedim import ruin_transform_exp

from conftest import z_score
from oracles import (
    fluid_embed,
    killed_position_frequencies,
    path_ruin_time,
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


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_map_chunks_streams_in_chunk_order(threads):
    # chunk results are merged as they arrive, never listed: the estimate is
    # the listed one bit for bit, and only O(threads) chunk arrays are alive
    n = 9 * CHUNK + 5
    lock = threading.Lock()
    live = [0, 0]  # alive now, most alive at once

    def released():
        with lock:
            live[0] -= 1

    def worker(k, size):
        vals = stream(31, k).random(size)
        with lock:
            live[0] += 1
            live[1] = max(live[1], live[0])
        weakref.finalize(vals, released)
        return vals

    est = _accumulate(_map_chunks(worker, n, threads), seed=31, meta={})
    listed = _accumulate([stream(31, k).random(size) for k, size in _chunk_sizes(n)],
                         seed=31, meta={})
    assert est == listed
    assert est.n == n
    assert live[1] <= 2 * threads + 2


def test_accumulate_merges_near_constant_chunks():
    # values 1 - 1e-9 U: sum(x^2) - n mean^2 cancels to noise here
    rng = np.random.default_rng(8)
    chunks = [1.0 - 1e-9 * rng.random(size) for size in (CHUNK, CHUNK, 5_000, 1)]
    est = _accumulate(chunks, seed=0, meta={})
    flat = np.concatenate(chunks)
    assert est.n == flat.size
    assert est.mean == pytest.approx(flat.mean(), rel=1e-15, abs=0.0)
    assert est.std_error**2 * est.n == pytest.approx(np.var(flat, ddof=1), rel=1e-6, abs=0.0)


def test_every_estimate_records_stream_version(p0):
    ests = [
        simulate_joint_ruin(p0, 1.0, 2.0, 5.0, 100, seed=1),
        ruin_time_lt(p0, 1.0, 2.0, 0.5, 5.0, 100, seed=1),
        conditional_survival(p0, 1.0, 2.0, 100, seed=1),
        conditional_survival(p0, 1.0, 1.0, 100, seed=1),
        simulate_joint_ruin_fluid(p0, 1.0, 2.0, 5.0, 100, seed=1),
    ]
    assert STREAM_VERSION == 3
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


def test_per_path_horizons_straddle_blocks(p0):
    # killed sweep with Exp(1/40) horizons: blocks are sized by the longest
    # horizon of the chunk, and paths of every length share each block
    x1, n = 1.0, 2 * CHUNK + 11

    def worker(k, size):
        rng = stream(17, k)
        kill = rng.exponential(40.0, size=size)
        blocks.append(len(list(_path_blocks(p0, kill, size))))
        alive, x_T = _company1_chunk(p0, x1, kill, rng, size)
        return np.where(alive, x_T, 0.0)

    blocks = []
    runs = [_accumulate(_map_chunks(worker, n, threads), seed=17, meta={})
            for threads in (1, 2, 3)]
    assert runs[0] == runs[1] == runs[2]
    assert max(blocks) > 1


@pytest.mark.parametrize("kernel", [_joint_tau_chunk, _fluid_ruin_chunk],
                         ids=["direct", "fluid"])
def test_chunk_memory_independent_of_horizon(p0, kernel):
    def peak(horizon):
        tracemalloc.start()
        try:
            kernel(p0, 1.0, 3.0, horizon, stream(2, 0), CHUNK)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800.0) <= 1.5 * peak(200.0)


@pytest.mark.parametrize("horizons", [
    7.5,
    0.0,
    np.array([0.0, 3.0, 0.0, 12.0, 0.25] * 400),
], ids=["scalar", "zero", "per-path"])
def test_epoch_panel_sorted_within_horizon(p0, horizons):
    n = 2_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        starts, has, t, s_within, totals = _epoch_panel(p0, horizons, stream(4, 0), n)
    h = np.broadcast_to(np.asarray(horizons, dtype=float), (n,))
    counts = np.diff(np.append(starts, t.size))
    assert np.array_equal(has, counts > 0)
    pid = np.repeat(np.arange(n), counts)
    assert np.all(t >= 0.0) and np.all(t <= h[pid])
    same_path = pid[1:] == pid[:-1]
    assert np.all(np.diff(t)[same_path] >= 0.0)
    assert np.all(np.diff(s_within)[same_path] > 0.0)
    assert np.all(counts[h == 0.0] == 0) and np.all(totals[counts == 0] == 0.0)


def test_epoch_panel_uniform_order_statistics(p0):
    # given k claims on [0, H], the epochs are the sorted values of k uniforms
    n, horizon = 20_000, 4.0
    starts, has, t, _, _ = _epoch_panel(p0, horizon, stream(6, 0), n)
    counts = np.diff(np.append(starts, t.size))
    assert kstest(t / horizon, "uniform").pvalue > 1e-3
    three = starts[counts == 3]
    assert kstest(t[three] / horizon, "beta", args=(1, 3)).pvalue > 1e-3
    assert kstest(t[three + 2] / horizon, "beta", args=(3, 1)).pvalue > 1e-3


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


def test_conditional_rejects_wrong_cone_and_empirical(p0):
    with pytest.raises(DomainError):
        conditional_survival(p0, 2.0, 1.0, 100, seed=0)
    emp = Empirical(sampler=lambda rng, n: rng.exponential(1.0, n), mean=1.0)
    m = RiskModel(lam=1.0, claim=emp, c1=3.0, c2=2.0)
    with pytest.raises(UnsupportedClaimLaw):
        conditional_survival(m, 1.0, 2.0, 100, seed=0)


ESTIMATORS = {
    "direct": lambda m, u1, u2, horizon, s: simulate_joint_ruin(m, u1, u2, horizon, 100, 0),
    "discounted": lambda m, u1, u2, horizon, s: ruin_time_lt(m, u1, u2, s, horizon, 100, 0),
    "fluid": lambda m, u1, u2, horizon, s: simulate_joint_ruin_fluid(m, u1, u2, horizon, 100, 0),
    "conditional": lambda m, u1, u2, horizon, s: conditional_survival(m, u1, u2, 100, 0),
}
TAKES = {"direct": "u1 u2 horizon", "discounted": "u1 u2 horizon s",
         "fluid": "u1 u2 horizon", "conditional": "u1 u2"}
VALID = {"u1": 1.0, "u2": 3.0, "horizon": 5.0, "s": 0.5}
BAD = [("u1", -1.0), ("u1", math.nan), ("u2", -1.0), ("u2", math.nan), ("horizon", -1.0),
       ("horizon", math.nan), ("horizon", math.inf), ("s", -0.5), ("s", math.nan)]
# an infinite x2 makes the conditional estimator's crossing time infinite
OUT_OF_DOMAIN = [(estimator, name, value) for estimator, takes in TAKES.items()
                 for name, value in BAD if name in takes.split()] + [("conditional", "u2", math.inf)]


@pytest.mark.parametrize(
    "estimator, name, value", OUT_OF_DOMAIN, ids=[f"{e}-{n}={v}" for e, n, v in OUT_OF_DOMAIN]
)
def test_estimators_refuse_out_of_domain_input(p0, estimator, name, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            ESTIMATORS[estimator](p0, **{**VALID, name: value})


def test_empirical_law_simulates(p0):
    emp = Empirical(sampler=lambda rng, n: rng.exponential(1.0, n), mean=1.0)
    m = RiskModel(lam=1.0, claim=emp, c1=3.0, c2=2.0)
    est = simulate_joint_ruin(m, 0.0, 0.0, 60.0, 100_000, seed=8)
    # law matches P0, so the same ruin probability applies
    assert est.mean == pytest.approx(0.5, abs=4.0 * est.std_error + 1e-3)


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
