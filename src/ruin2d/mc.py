"""Monte Carlo oracles: direct path simulation, the unbiased conditional
estimator, the fluid estimator, and ruin-time transform estimation.

Randomness contract: paths are generated in fixed-size chunks of
:data:`CHUNK` paths, and chunk ``k`` draws from an SFC64 stream that is a pure
function of ``(seed, k)``.  A chunk runs as consecutive path blocks of about
:data:`BLOCK` claims.  Each block draws from the chunk's stream, in block
order, one Poisson count ``K`` for all its paths, ``K + 1`` spacings and
``K`` claim sizes (see :func:`_epoch_panel`), and is reduced before the next
block is drawn, so memory per thread is bounded independently of the
horizon.  The spacings, exponential claim sizes and the fluid estimator's
gaps are exponential by inversion: ``-scale log1p(-U)`` of uniforms ``U``
from ``rng.random``.  Each thread draws into and computes in one reused set of
per-claim buffers for the whole estimate.  Each chunk is reduced to
``(n, mean, M2)`` and the chunks are merged in chunk order, so every estimate
is bit-reproducible for a fixed ``(seed, n)`` and parallel fan-out over
chunks cannot change the result.  How a chunk turns its stream into paths is
versioned by :data:`STREAM_VERSION` (now 6), which every estimate records in
``meta``.

Direct simulation and the ruin-time transform follow the cone.  In normalized
coordinates ``X_i(t) = x_i + p_i t - S(t)``, and ``X_2 - X_1`` falls at rate
``p1 - p2`` to zero at the crossing time ``T* = (x2 - x1)/(p1 - p2)``: before
``T*`` company 1's reserve is the lower one, from ``T*`` on company 2's.  A
chunk of horizon ``H`` with ``0 < T* < H`` first draws all its blocks over
``[0, T*)`` and watches company 1 alone, as the conditional estimator does
with the same blocks and draws; then it draws, in blocks over ``[T*, H)``,
only the paths still alive, in path order, and watches company 2 alone from
each path's claim total at ``T*``.  A lower-cone start (``T* <= 0``) watches
company 2 alone from ``t = 0``, and a start with ``T* >= H`` company 1 alone.
At ``s > 0`` the paths alive at ``max(T*, 0) < H`` draw, after company 1's
blocks, one killing clock ``Exp(s)`` each, in path order and by inversion;
company 2's window of each ends at its clock if that rings before ``H`` (see
:func:`ruin_time_lt`).  Starts with ``T* >= H``, ``s = 0``, the conditional
and the fluid estimator draw as in stream 5.

Ruin is checked at claim epochs only: both reserves strictly increase between
claims, so the running minimum over continuous time is attained immediately
after a jump.  Survival therefore means "no post-jump reserve below zero".
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError, UnsupportedClaimLaw
from .model import Exponential, PhaseType, RiskModel, derive, normalize
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
# 3: SFC64 streams, each chunk drawn and reduced in path blocks; 4: one Poisson
# process per path block, and exponentials by inversion; 5: direct simulation
# watches company 1 before the crossing time and draws only its survivors after it;
# 6: at s > 0 the survivors run company 2 only until an Exp(s) killing clock.
STREAM_VERSION = 6
# Expected claims per path, lam * horizon, above which a simulation is refused:
# a path's claims are held at once, at about 60 bytes each per thread.
_MAX_MEAN_CLAIMS = 1 << 20


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    std_error: float
    n: int
    seed: int
    meta: dict


def stream(seed: int, k: int) -> np.random.Generator:
    """Stream ``k`` of master ``seed`` (pure function of both)."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    )


def _exponentials(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """Exponential variates of mean ``scale`` into ``out``, by inversion: ``-scale log1p(-U)``."""
    rng.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    out *= -scale
    return out


def sample_claims(claim, rng: np.random.Generator, size: int, out=None) -> np.ndarray:
    """Draw ``size`` i.i.d. claim sizes from the model's claim law, into ``out`` if given.

    Exponential sizes are ``-log1p(-U)`` times ``1/mu``, of ``size`` uniforms
    drawn by ``rng.random``, one uniform per claim in draw order.
    """
    if isinstance(claim, Exponential):
        return _exponentials(rng, 1.0 / claim.mu, np.empty(size) if out is None else out)
    if isinstance(claim, PhaseType):
        return _sample_phasetype(claim, rng, np.empty(size) if out is None else out)
    raise UnsupportedClaimLaw(f"cannot sample {type(claim).__name__} claims")


def _sample_phasetype(claim: PhaseType, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Absorption times via the embedded jump chain, written to ``out``."""
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
    state = rng.choice(m + 1, size=out.size, p=init)
    out.fill(0.0)
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


# ---------------------------------------------------------------------------
# Vectorized chunk kernels.
# ---------------------------------------------------------------------------

def _path_blocks(model: RiskModel, horizon, n: int) -> Iterable[slice]:
    """Consecutive path ranges of a chunk, each expecting about :data:`BLOCK` claims.

    Per-path horizons end a block at each path where the expected claims
    ``lam (h_0 + ... + h_j)`` pass a multiple of :data:`BLOCK`.
    """
    if np.ndim(horizon):
        passed = np.floor_divide(model.lam * np.cumsum(horizon), BLOCK)
        ends = [*(np.flatnonzero(np.diff(passed, prepend=0.0)) + 1).tolist(), n]
        yield from (slice(lo, hi) for lo, hi in zip([0, *ends], ends) if lo < hi)
        return
    per_block = max(1, BLOCK // (math.ceil(model.lam * horizon) + 1))
    for lo in range(0, n, per_block):
        yield slice(lo, min(lo + per_block, n))


class _Workspace:
    """Per-claim buffers that one thread's blocks reuse for a whole estimate.

    They grow only when a block draws more claims than any block before it, so
    a thread allocates them once unless its paths expect more than a block.
    ``draws`` takes a block's ``K + 1`` spacings and ``sizes`` its claim sizes;
    both are scratch once summed.
    ``epochs`` holds the running sum of the spacings, ``claims`` that of the
    sizes after a leading zero, ``path`` each claim's path, and ``hit`` the
    ruin test.
    """

    def __init__(self):
        self.cap = -1

    def fit(self, tot: int) -> None:
        """Views of ``tot`` claims.

        A block expects fewer than :data:`BLOCK` claims unless its one path
        expects more, so the buffers hold at least that many, with an eighth
        to spare for the spread of later blocks.  One allocation then serves
        the blocks of every horizon, the direct kernel's windows before and
        after the crossing time among them: growing between the two kept
        about 3 MB more resident (peak RSS 91.4 against 88.7 MB over 20
        discounted estimates of 2e5 paths at 2 threads).
        """
        if tot > self.cap:
            size = max(tot, BLOCK)
            self.cap = size + size // 8
            # one array per buffer: a single allocation of all of them raises
            # glibc's adaptive mmap and trim thresholds, and the freed
            # workspaces then stay resident (+6 MB peak RSS over a
            # 25-second run of the benchmark's MC workload)
            self._floats = [np.empty(self.cap + 1) for _ in range(4)]
            self._path = np.empty(self.cap, dtype=np.intp)
            self._hit = np.empty(self.cap, dtype=bool)
        draws, sizes, epochs, claims = self._floats
        self.draws, self.sizes = draws[:tot + 1], sizes[:tot]
        self.epochs, self.claims = epochs[:tot + 1], claims[:tot + 1]
        self.claims[0] = 0.0
        self.path = self._path[:tot]
        self.hit = self._hit[:tot]


def _epoch_panel(model: RiskModel, horizon, rng: np.random.Generator, n: int,
                 ws: _Workspace, start=None):
    """Claim epochs and within-path claim totals of one block of ``n`` paths, in ``ws``.

    Independent Poisson processes on ``[0, H)`` placed end to end are one
    Poisson process on ``[0, nH)``, so the block draws one count
    ``K ~ Poisson(lam H n)``, ``K + 1`` standard exponential spacings and
    ``K`` claim sizes.  The first ``K`` partial sums of the spacings, divided
    by all ``K + 1``, are the order statistics of ``K`` uniforms (Devroye
    1986, ch. V); times ``n`` they are the epochs ``v`` in units of ``H``,
    sorted without a sort.  Epoch ``v`` belongs to path ``j = floor(v)`` at
    time ``(v - j) H``; an epoch that rounds to ``v >= n`` belongs to the last
    path, at time ``H``.  A claim's running total within its path is the
    block's running total less its value where the path starts, plus the
    path's entry of ``start`` if given: the claims a path carries into the
    window.  Per-path horizons ``h`` place the paths on ``[0, sum h)`` in
    units of time instead: epoch ``v`` belongs to the last path ``j`` whose
    start ``h_0 + ... + h_{j-1}`` is at or before ``v``, at time
    ``min(v - start, h_j)``.

    Returns ``(path, t, s, totals)``: ``path`` is the path of each claim,
    nondecreasing, ``t`` the claim epochs, sorted within each path, and ``s``
    the path's running claim totals at them (``path``, ``t`` and ``s`` are
    views into ``ws``, valid until its next block); ``totals`` are the
    per-path claim totals at the window's end.  Both count ``start``.
    """
    span = horizon.sum() if np.ndim(horizon) else n
    tot = int(rng.poisson(model.lam * span if np.ndim(horizon) else model.lam * horizon * n))
    ws.fit(tot)
    _exponentials(rng, 1.0, ws.draws)
    sample_claims(model.claim, rng, tot, out=ws.sizes)
    # out of place, as an in-place cumsum holds the GIL
    np.cumsum(ws.draws, out=ws.epochs)
    np.cumsum(ws.sizes, out=ws.claims[1:])
    t, path = ws.epochs[:tot], ws.path
    t *= span / ws.epochs[tot]
    if np.ndim(horizon):
        starts = np.cumsum(horizon) - horizon
        np.subtract(np.searchsorted(starts, t, side="right"), 1, out=path)
        t -= starts.take(path, out=ws.draws[:tot], mode="clip")
        np.minimum(t, horizon.take(path, out=ws.draws[:tot], mode="clip"), out=t)
    else:
        np.copyto(path, t, casting="unsafe")  # floor, as t >= 0
        last = int(np.searchsorted(path, n))  # the claims from here on rounded to v >= n
        path[last:] = n - 1
        t -= path
        t *= horizon
        t[last:] = horizon
    # the running totals where each path starts and ends
    cs_b = ws.claims.take(_path_bounds(path, n))
    s0 = cs_b[:-1] if start is None else cs_b[:-1] - start
    s = ws.claims[1:]
    s -= np.take(s0, path, out=ws.draws[:tot], mode="clip")
    return path, t, s, cs_b[1:] - s0


def _path_bounds(path: np.ndarray, n: int) -> np.ndarray:
    """``bounds`` such that path ``j`` owns claims ``bounds[j]:bounds[j + 1]`` of a sorted ``path``.

    One binary search per path, or one count over the claims, whichever is
    cheaper: a search step and a counted claim cost about the same, and a
    search takes about 16 steps in a block.
    """
    if path.size > 16 * n:
        return np.searchsorted(path, np.arange(n + 1))
    bounds = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(path, minlength=n), out=bounds[1:])
    return bounds


def _below(ws: _Workspace, t, s, p: float, x: float) -> np.ndarray:
    """``ws.hit = p t + x < s``: where the normalized reserve ``x + p t - s`` is negative.

    IEEE subtraction keeps the sign of ``a - b``, so this is the sign of the
    reserve without forming it.
    """
    a = np.multiply(t, p, out=ws.draws[:t.size])
    a += x
    return np.less(a, s, out=ws.hit)


def _first_ruin_chunk(model, p, x, horizon, rng, n, ws, start=None):
    """First ruin time within ``horizon`` per path (inf if none), and its claim total.

    A path is ruined where the normalized reserve ``x + p t - S`` is negative,
    ``S`` being its claim total since the window began plus its entry of
    ``start``, if given.  ``horizon`` is scalar or per-path.  A path's epochs
    are nondecreasing, so its ruin time is the epoch of its first hit.
    """
    tau = np.full(n, np.inf)
    totals = np.empty(n)
    for block in _path_blocks(model, horizon, n):
        path, t, s, totals[block] = _epoch_panel(
            model, horizon[block] if np.ndim(horizon) else horizon, rng,
            block.stop - block.start, ws, None if start is None else start[block])
        idx = np.flatnonzero(_below(ws, t, s, p, x))
        hit_path = path[idx]
        # a path's first hit is where the hits' path changes
        first = np.empty(idx.size, dtype=bool)
        first[:1] = True
        np.not_equal(hit_path[1:], hit_path[:-1], out=first[1:])
        tau[block][hit_path[first]] = t[idx[first]]
    return tau, totals


def _joint_ruin_chunk(model, x1, x2, horizon, rng, n, ws, s=0.0):
    """First joint-ruin time within ``horizon`` per path (inf if none), at normalized ``(x1, x2)``.

    The lower reserve is company 1's before the crossing time ``T*`` and
    company 2's from it on, so each window watches one company: company 1
    over ``[0, min(T*, H))``, then company 2 over ``[T*, H)`` for the paths
    alive at ``T* = max(T*, 0)``, from their claim totals there.  At ``s > 0``
    company 2's window of each such path ends at its killing clock, if that
    rings first, and a ruin in it is returned at ``T*``.
    """
    p1, p2 = model.p1, model.p2
    cross = max((x2 - x1) / (p1 - p2), 0.0)
    if cross > 0.0:
        tau, totals = _first_ruin_chunk(model, p1, x1, min(cross, horizon), rng, n, ws)
    else:
        tau, totals = np.full(n, np.inf), np.zeros(n)
    if cross < horizon:
        alive = np.flatnonzero(np.isinf(tau))
        window = horizon - cross
        if s > 0:
            window = np.minimum(_exponentials(rng, 1.0 / s, np.empty(alive.size)), window)
        later, _ = _first_ruin_chunk(model, p2, x2 + p2 * cross, window, rng,
                                     alive.size, ws, start=totals[alive])
        tau[alive] = later + cross if s == 0 else np.where(np.isinf(later), later, cross)
    return tau


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
    One value says nothing of the spread, so its standard error is ``inf``.
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
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else math.inf
    return _estimate(mean, se, n, seed, meta)


def _estimate(mean: float, se: float, n: int, seed: int, meta: dict) -> MCEstimate:
    """The one place an estimate is built, so every ``meta`` carries the stream version."""
    return MCEstimate(mean=mean, std_error=se, n=n, seed=seed,
                      meta={**meta, "stream_version": STREAM_VERSION})


def _run(values, n: int, seed: int, threads: int, meta: dict) -> MCEstimate:
    """The estimate from ``values(rng, size, ws)`` of each chunk, drawn from ``stream(seed, k)``.

    ``ws`` is the calling thread's one :class:`_Workspace` for the whole estimate.
    """
    local = threading.local()

    def worker(k, size):
        if not hasattr(local, "ws"):
            local.ws = _Workspace()
        return values(stream(seed, k), size, local.ws)

    return _accumulate(_map_chunks(worker, n, threads), seed, meta)


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

def _check_domain(model: RiskModel, u1: float, u2: float, horizon: float, s: float = 0.0) -> None:
    """Refuse a negative or NaN reserve, a horizon or ``s`` outside ``[0, inf)``,
    and more than :data:`_MAX_MEAN_CLAIMS` expected claims by the horizon.
    """
    if not (u1 >= 0 and u2 >= 0):  # NaN fails both comparisons
        raise DomainError("reserves must be nonnegative")
    if not 0 <= horizon < math.inf:
        raise DomainError(f"simulation horizon must be finite and nonnegative, got {horizon}")
    if model.lam * horizon > _MAX_MEAN_CLAIMS:
        raise DomainError(f"lam * horizon = {model.lam * horizon:.6g} expected claims per path "
                          f"exceeds the {_MAX_MEAN_CLAIMS} that a simulation holds")
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

    At ``s > 0`` discounting is killing: ``e^{-s(tau - T*)} = P(zeta > tau - T*)``
    for ``zeta ~ Exp(s)`` independent of the path (Gerber & Shiu 1998).  So a
    path ruined before ``T* = max(T*, 0)`` scores ``e^{-s tau}``, and a path
    alive at ``T*`` scores ``e^{-s T*}`` if company 2 is ruined before
    ``T* + min(zeta, H - T*)``, else 0: given the path, its mean is
    ``e^{-s tau}`` on ``tau <= H``, and the estimator is unbiased.
    """
    _check_domain(model, u1, u2, horizon, s)
    x1, x2 = normalize(model, u1, u2)

    def values(rng, size, ws):
        tau = _joint_ruin_chunk(model, x1, x2, horizon, rng, size, ws, s)
        # exp(-s inf) is 0 for s > 0; at s = 0 the transform is the hit indicator
        return np.exp(-s * tau) if s > 0 else np.isfinite(tau).astype(float)

    meta = {"horizon": horizon, "s": s, "bias_bound": math.exp(-s * horizon) if s > 0 else 1.0}
    return _run(values, n, seed, threads, meta)


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
    if x2 < x1:
        raise DomainError("conditional estimator requires x2 >= x1 (upper cone)")
    T = (x2 - x1) / (model.p1 - model.p2)
    _check_domain(model, x1, x2, T)
    meta = {"crossing_time": T}
    if T == 0.0:
        exact = float(survival_one_company(model, x1))
        return _estimate(exact, 0.0, n, seed, meta)

    def values(rng, size, ws):
        tau, totals = _first_ruin_chunk(model, model.p1, x1, T, rng, size, ws)
        x_T = x1 + model.p1 * T - totals
        return np.where(np.isinf(tau), survival_one_company(model, np.maximum(x_T, 0.0)), 0.0)

    return _run(values, n, seed, threads, meta)


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
    another panel, as wide as the largest remaining deficit ``horizon - I``
    needs.  The paths run in the direct kernel's blocks, each finished before
    the next one draws, so a panel holds at most about :data:`BLOCK` draws.
    """
    ruined = np.zeros(n, dtype=bool)
    up = np.zeros(n)
    claims = np.zeros(n)
    for block in _path_blocks(model, horizon, n):
        rows = np.arange(block.start, block.stop)
        while rows.size:
            m = rows.size
            width = math.ceil(model.lam * (horizon - up[rows].min())) + 1
            up_clock = _exponentials(rng, 1.0 / model.lam, np.empty((m, width)))
            np.cumsum(up_clock, axis=1, out=up_clock)
            up_clock += up[rows, None]
            claim_clock = np.cumsum(
                sample_claims(model.claim, rng, m * width).reshape(m, width), axis=1)
            claim_clock += claims[rows, None]
            # a reserve u + c I - delta C is negative exactly where c I + u < delta C
            low = model.c1 * up_clock + u1 < model.delta1 * claim_clock
            low |= model.c2 * up_clock + u2 < model.delta2 * claim_clock
            low &= up_clock <= horizon
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
    _check_domain(model, u1, u2, horizon)
    meta = {"horizon": horizon, "method": "fluid"}
    return _run(lambda rng, size, ws: _fluid_ruin_chunk(model, u1, u2, horizon, rng, size),
                n, seed, threads, meta)
