"""Monte Carlo oracles: direct path simulation, the unbiased conditional
estimator, the fluid estimator, and ruin-time transform estimation.

Randomness contract: paths are generated in fixed-size chunks of
:data:`CHUNK` paths, and chunk ``k`` draws from an SFC64 stream that is a pure
function of ``(seed, k)``.  A chunk runs as consecutive path blocks of about
:data:`BLOCK` claims; each block draws its own Poisson counts, spacings and
claim sizes from the chunk's stream, in block order, and is reduced before the
next block is drawn, so memory per thread is bounded independently of the
horizon.  Each chunk is reduced to ``(n, mean, M2)`` and the chunks are merged
in chunk order, so every estimate is bit-reproducible for a fixed
``(seed, n)`` and parallel fan-out over chunks cannot change the result.  How
a chunk turns its stream into paths is versioned by :data:`STREAM_VERSION`
(now 3), which every estimate records in ``meta``.

Ruin is checked at claim epochs only: both reserves strictly increase between
claims, so the running minimum over continuous time is attained immediately
after a jump.  Survival therefore means "no post-jump reserve below zero".
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import DomainError, UnsupportedClaimLaw
from .model import Empirical, Exponential, PhaseType, RiskModel, derive, normalize
from .onedim import survival_one_company

__all__ = [
    "MCEstimate",
    "sample_claims",
    "simulate_joint_ruin",
    "simulate_joint_ruin_fluid",
    "conditional_survival",
    "ruin_time_lt",
]

CHUNK = 1 << 14
# Claims per path block.  Fixed by the stream contract, as CHUNK is: a block
# draws its own variates, so another value draws different paths.
BLOCK = 1 << 16
# 1: uniform epochs sorted with argsort; 2: epochs from exponential spacings;
# 3: SFC64 streams, each chunk drawn and reduced in path blocks.
STREAM_VERSION = 3


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int
    seed: int
    meta: dict = field(default_factory=dict)


def stream(seed: int, k: int) -> np.random.Generator:
    """Stream ``k`` of master ``seed`` (pure function of both)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    )


def sample_claims(claim, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. claim sizes from the model's claim law."""
    if isinstance(claim, Exponential):
        return rng.exponential(1.0 / claim.mu, size=size)
    if isinstance(claim, PhaseType):
        return _sample_phasetype(claim, rng, size)
    if isinstance(claim, Empirical):
        out = np.asarray(claim.sampler(rng, size), dtype=float)
        if out.shape != (size,):
            raise DomainError("empirical sampler returned wrong shape")
        return out
    raise UnsupportedClaimLaw(f"cannot sample {type(claim).__name__} claims")


def _sample_phasetype(claim: PhaseType, rng: np.random.Generator, size: int) -> np.ndarray:
    """Absorption times via the embedded jump chain."""
    m = len(claim.beta)
    rates = -np.diag(claim.B)
    trans = claim.B / rates[:, None]
    np.fill_diagonal(trans, 0.0)
    # last column: absorption
    table = np.column_stack([trans, claim.exit_rates / rates])
    cum = np.cumsum(table, axis=1)
    cum[:, -1] = 1.0
    init = np.concatenate([claim.beta, [max(0.0, 1.0 - claim.beta.sum())]])
    init = init / init.sum()
    state = rng.choice(m + 1, size=size, p=init)
    out = np.zeros(size)
    active = state < m
    while active.any():
        idx = np.flatnonzero(active)
        st = state[idx]
        out[idx] += rng.exponential(1.0, size=len(idx)) / rates[st]
        u = rng.random(len(idx))
        nxt = (u[:, None] < cum[st]).argmax(axis=1)
        state[idx] = nxt
        active[idx] = nxt < m
    return out


def reserves_at_epochs(model: RiskModel, u1: float, u2: float,
                       cum_up: np.ndarray, cum_claims: np.ndarray):
    """Post-jump reserves of both companies at the claim epochs.

    Shared by direct simulation and the fluid estimator so the two agree
    bit-for-bit (same operations in the same order).
    """
    U1 = model.c1 * cum_up
    U1 += u1
    U1 -= model.delta1 * cum_claims
    U2 = model.c2 * cum_up
    U2 += u2
    U2 -= model.delta2 * cum_claims
    return U1, U2


# ---------------------------------------------------------------------------
# Vectorized chunk kernels.
# ---------------------------------------------------------------------------

def _path_blocks(model: RiskModel, horizons, n: int) -> Iterable[slice]:
    """Consecutive path ranges of a chunk, each holding about :data:`BLOCK` claims.

    The paths per block follow from the chunk's longest horizon, so that with
    per-path horizons no block expects more than about :data:`BLOCK` claims.
    """
    per_block = max(1, BLOCK // (math.ceil(model.lam * float(np.max(horizons))) + 1))
    for lo in range(0, n, per_block):
        yield slice(lo, min(lo + per_block, n))


def _epoch_panel(model: RiskModel, horizons, rng: np.random.Generator, n: int):
    """Flat arrays of sorted claim epochs and within-path claim cumsums of one block.

    ``horizons`` is scalar or per-path.  Given its Poisson count ``k``, path
    ``i`` draws ``k + 1`` standard exponential spacings; their normalized
    partial sums are the order statistics of ``k`` uniforms (Devroye 1986,
    ch. V), so the epochs come out sorted without a sort.  Claim sizes are
    i.i.d., so they are used in draw order.

    Returns ``(starts, has, t, s_within, totals)`` where ``starts[has]`` index
    the first epoch of each nonempty path, ``t`` are epochs sorted within
    paths, ``s_within`` the running claim totals at those epochs and
    ``totals`` the per-path total claim amounts.
    """
    if np.ndim(horizons) == 0:
        counts = rng.poisson(model.lam * horizons, size=n)
    else:
        horizons = np.asarray(horizons, dtype=float)
        counts = rng.poisson(model.lam * horizons)
    tot = int(counts.sum())
    ends = np.cumsum(counts)
    starts = ends - counts
    has = counts > 0
    # segmented cumsums: a global cumsum (after a leading zero) minus its
    # value at the path's start, computed in place
    cg = np.empty(tot + 1)
    cg[0] = 0.0
    rng.standard_exponential(out=cg[1:])
    closing = rng.standard_exponential(n)
    sizes = sample_claims(model.claim, rng, tot)
    np.cumsum(cg[1:], out=cg[1:])
    cs = np.empty(tot + 1)
    cs[0] = 0.0
    np.cumsum(sizes, out=cs[1:])
    g0 = cg[starts]
    span = cg[ends] - g0 + closing
    # partial <= span, so partial / span <= 1 and the epochs stay in [0, horizon]
    t = cg[1:]
    t -= np.repeat(g0, counts)
    t /= np.repeat(span, counts)
    t *= np.repeat(horizons, counts) if np.ndim(horizons) else horizons
    s0 = cs[starts]
    totals = cs[ends] - s0
    s_within = cs[1:]
    s_within -= np.repeat(s0, counts)
    return starts, has, t, s_within, totals


def _joint_tau_chunk(model, u1, u2, horizon, rng, n):
    """First joint-ruin time within ``horizon`` per path (inf if none)."""
    tau = np.full(n, np.inf)
    for block in _path_blocks(model, horizon, n):
        starts, has, t, s_within, _ = _epoch_panel(
            model, horizon, rng, block.stop - block.start)
        if t.size:
            U1, U2 = reserves_at_epochs(model, u1, u2, t, s_within)
            hit = np.minimum(U1, U2, out=U1) < 0.0
            tau[block][has] = np.minimum.reduceat(np.where(hit, t, np.inf), starts[has])
    return tau


def _company1_chunk(model, x1, horizons, rng, n):
    """Normalized company-1 sweep: (alive flags, terminal values X1(T))."""
    p1 = model.p1
    horizons = np.asarray(horizons, dtype=float)
    alive = np.ones(n, dtype=bool)
    totals = np.empty(n)
    for block in _path_blocks(model, horizons, n):
        h = horizons[block] if horizons.ndim else horizons
        starts, has, t, s_within, totals[block] = _epoch_panel(
            model, h, rng, block.stop - block.start)
        if t.size:
            X = x1 + p1 * t - s_within
            alive[block][has] = np.minimum.reduceat(X, starts[has]) >= 0.0
    x_T = x1 + p1 * np.broadcast_to(horizons, (n,)) - totals
    return alive, x_T


def _chunk_sizes(n: int) -> Iterable[tuple[int, int]]:
    k = 0
    done = 0
    while done < n:
        size = min(CHUNK, n - done)
        yield k, size
        done += size
        k += 1


def _accumulate(chunks: Iterable[np.ndarray], seed: int, meta: dict) -> MCEstimate:
    """Mean and standard error of the concatenated chunk values.

    Each chunk contributes ``(n, mean, M2)`` and the parts are merged in
    chunk order (Chan, Golub & LeVeque 1979), which avoids the cancellation
    of ``sum(x**2) - n * mean**2`` when the variance is small against the mean.
    """
    n = 0
    mean = 0.0
    m2 = 0.0
    for vals in chunks:
        k = vals.size
        mean_k = float(np.mean(vals))
        dev = vals - mean_k
        m2_k = float(np.sum(dev * dev))
        delta = mean_k - mean
        total = n + k
        mean += delta * (k / total)
        m2 += m2_k + delta * delta * (n * k / total)
        n = total
    if n == 0:
        raise DomainError("no paths to average")
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return _estimate(mean, se, n, seed, meta)


def _estimate(mean: float, se: float, n: int, seed: int, meta: dict) -> MCEstimate:
    """The one place an estimate is built, so every ``meta`` carries the stream version."""
    return MCEstimate(mean=mean, std_error=se, n=n, seed=seed,
                      meta={**meta, "stream_version": STREAM_VERSION})


def _map_chunks(worker, n: int, threads: int) -> Iterable[np.ndarray]:
    """``worker(k, size)`` of every chunk, yielded in chunk order.

    At most ``2 * threads`` chunks are computing or waiting to be read, so the
    memory held does not grow with the number of chunks.
    """
    jobs = _chunk_sizes(n)
    if threads == 1:
        for k, size in jobs:
            yield worker(k, size)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = deque(pool.submit(worker, k, size)
                       for k, size in itertools.islice(jobs, 2 * threads))
        while window:
            vals = window.popleft().result()
            job = next(jobs, None)
            if job is not None:
                window.append(pool.submit(worker, *job))
            yield vals


# ---------------------------------------------------------------------------
# Estimators.
# ---------------------------------------------------------------------------

def _check_domain(u1: float, u2: float, horizon: float, s: float = 0.0) -> None:
    """Refuse a negative or NaN reserve, and a horizon or ``s`` outside ``[0, inf)``."""
    if not (u1 >= 0 and u2 >= 0):  # NaN fails both comparisons
        raise DomainError("reserves must be nonnegative")
    if not 0 <= horizon < math.inf:
        raise DomainError(f"simulation horizon must be finite and nonnegative, got {horizon}")
    if not 0 <= s < math.inf:
        raise DomainError("discount rate must be finite and nonnegative")


def ruin_time_lt(
    model: RiskModel,
    u1: float,
    u2: float,
    s: float,
    horizon: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Estimate ``E[e^{-s tau} 1{tau <= horizon}]`` from raw reserves.

    The deterministic truncation bias for the untruncated transform is at most
    ``exp(-s * horizon)``, reported in ``meta['bias_bound']``.  At ``s = 0``
    this is exactly the finite-horizon ruin frequency on the same draws.
    """
    _check_domain(u1, u2, horizon, s)

    def worker(k, size):
        rng = stream(seed, k)
        tau = _joint_tau_chunk(model, u1, u2, horizon, rng, size)
        finite = np.isfinite(tau)
        return np.where(finite, np.exp(-s * np.where(finite, tau, 0.0)), 0.0)

    meta = {"horizon": horizon, "s": s, "bias_bound": math.exp(-s * horizon) if s > 0 else 1.0}
    return _accumulate(_map_chunks(worker, n, threads), seed, meta)


def simulate_joint_ruin(
    model: RiskModel,
    u1: float,
    u2: float,
    horizon: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Frequency of joint ruin by ``horizon`` from raw reserves ``(u1, u2)``.

    ``meta['lundberg_tail']`` bounds the ruin mass after ``horizon = T`` for
    exponential claims (else None).  Company ``i``, alive at ``T``, is ruined
    later with probability ``C_i exp(-gamma_i X_i(T))``, at most
    ``C_i exp(-r X_i(T))`` for ``0 <= r <= gamma_i``, whose mean is
    ``C_i exp(-r x_i + T r (lam/(mu - r) - p_i))``.  The bound is the union
    of both companies, ``min(1, sum_i ...)``, at the minimizing
    ``r_i = min(gamma_i, mu - sqrt(lam mu T / (x_i + p_i T)))``; at ``T = 0``
    it is ``psi_1 + psi_2``.
    """
    est = ruin_time_lt(model, u1, u2, 0.0, horizon, n, seed, threads=threads)
    tail = None
    if isinstance(model.claim, Exponential):
        dc, lam, T = derive(model), model.lam, horizon
        mu, tail = dc.mu, 0.0
        for x, p, gamma, C in zip(normalize(model, u1, u2), (model.p1, model.p2),
                                  (dc.gamma1, dc.gamma2), (dc.C1, dc.C2)):
            r = min(gamma, mu - math.sqrt(lam * mu * T / (x + p * T))) if T > 0 else gamma
            tail += C * math.exp(-r * x + T * r * (lam / (mu - r) - p))
        tail = min(1.0, tail)
    meta = {"horizon": horizon, "lundberg_tail": tail}
    return _estimate(est.mean, est.std_error, est.n, est.seed, meta)


def conditional_survival(
    model: RiskModel,
    x1: float,
    x2: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Unbiased estimator of the joint survival at normalized ``(x1, x2)``.

    Simulates only company 1 up to the crossing time
    ``T = (x2 - x1)/(p1 - p2)`` and, on survival, plugs the terminal value
    into the exact one-dimensional survival of company 2.  ``x2 = x1`` is the
    degenerate ``T = 0`` case with zero variance; an infinite ``x2`` makes
    ``T`` infinite and is refused.
    """
    if isinstance(model.claim, Empirical):
        raise UnsupportedClaimLaw(
            "conditional estimator needs the exact one-dimensional survival "
            "(exponential or phase-type claims)"
        )
    if x2 < x1:
        raise DomainError("conditional estimator requires x2 >= x1 (upper cone)")
    T = (x2 - x1) / (model.p1 - model.p2)
    _check_domain(x1, x2, T)
    meta = {"crossing_time": T}
    if T == 0.0:
        exact = float(survival_one_company(model, x1))
        return _estimate(exact, 0.0, n, seed, meta)

    def worker(k, size):
        rng = stream(seed, k)
        alive, x_T = _company1_chunk(model, x1, T, rng, size)
        vals = survival_one_company(model, np.maximum(x_T, 0.0))
        return np.where(alive, vals, 0.0)

    return _accumulate(_map_chunks(worker, n, threads), seed, meta)


# ---------------------------------------------------------------------------
# Fluid estimator.
# ---------------------------------------------------------------------------

def _fluid_ruin_chunk(model, u1, u2, horizon, rng, n):
    """Ruin-by-horizon indicators of ``n`` paths from their fluid-embedding clocks.

    Unlike :func:`_epoch_panel`, this samples interarrival gaps: each pass
    draws a (paths x width) panel of gaps and claim sizes, whose row cumsums
    are the up clock ``I`` and the claim clock at successive down-phase ends.
    Ruin in original time is the first such end, within ``horizon``, at which
    a reserve is negative.  Paths neither ruined nor past the horizon draw
    another panel.  The paths run in the direct kernel's blocks, each finished
    before the next one draws, so a panel holds at most about :data:`BLOCK` draws.
    """
    width = math.ceil(model.lam * horizon) + 1
    ruined = np.zeros(n, dtype=bool)
    up = np.zeros(n)
    claims = np.zeros(n)
    for block in _path_blocks(model, horizon, n):
        rows = np.arange(block.start, block.stop)
        while rows.size:
            m = rows.size
            up_clock = rng.exponential(1.0 / model.lam, size=(m, width))
            np.cumsum(up_clock, axis=1, out=up_clock)
            up_clock += up[rows, None]
            claim_clock = np.cumsum(
                sample_claims(model.claim, rng, m * width).reshape(m, width), axis=1)
            claim_clock += claims[rows, None]
            U1, U2 = reserves_at_epochs(model, u1, u2, up_clock, claim_clock)
            low = (np.minimum(U1, U2, out=U1) < 0.0) & (up_clock <= horizon)
            hit = low.any(axis=1)
            ruined[rows] = hit
            up[rows] = up_clock[:, -1]
            claims[rows] = claim_clock[:, -1]
            rows = rows[~hit & (up_clock[:, -1] <= horizon)]
    return ruined.astype(float)


def simulate_joint_ruin_fluid(
    model: RiskModel,
    u1: float,
    u2: float,
    horizon: float,
    n: int,
    seed: int,
    threads: int = 1,
) -> MCEstimate:
    """Finite-horizon ruin frequency computed through the fluid embedding.

    Samples interarrival gaps rather than the sorted epochs of
    :func:`simulate_joint_ruin`, so the two estimate the same probability
    from differently generated paths and cross-check each other.
    """
    _check_domain(u1, u2, horizon)

    def worker(k, size):
        rng = stream(seed, k)
        return _fluid_ruin_chunk(model, u1, u2, horizon, rng, size)

    meta = {"horizon": horizon, "method": "fluid"}
    return _accumulate(_map_chunks(worker, n, threads), seed, meta)
