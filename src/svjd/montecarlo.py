"""Path simulation and Monte Carlo pricing of path-dependent payoffs.

Heston-family variance follows full-truncation Euler (the variance state may
go negative; only its positive part enters drift and diffusion). Jumps are
aggregated per substep as exact compound-Poisson increments. Paths are
partitioned into fixed-size chunks, each driven by a counter-based Philox
stream keyed on (seed, chunk index), so results are bit-reproducible for a
given seed and path count regardless of thread count.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from svjd.models import (
    BGMParams,
    BatesParams,
    HKDEParams,
    KouJumpParams,
    MarketContext,
    ModelParams,
)

__all__ = ["SimConfig", "MonitoringSchedule", "PathBatch", "ExoticSpec", "McEstimate",
           "simulate_paths", "price_exotic", "price_exotic_batch", "price_european_mc",
           "evaluate_payoff", "sample_double_exponential", "mc_run"]

_CHUNK = 1 << 18          # paths per worker chunk; part of the reproducibility key
_MAX_DT = 1.0 / 250.0     # default substep cap for discretized models

EXOTIC_KINDS = ("asian_call", "asian_put", "variance_swap", "variance_call",
                "cliquet", "barrier_uo", "barrier_do", "barrier_double")


@dataclass(frozen=True)
class SimConfig:
    """Path count, substeps between monitoring dates (None: dt <= 1/250), seed.

    steps_per_interval may be one int for every interval or a tuple giving the
    substep count per monitoring interval.
    """
    n_paths: int = 1_000_000
    steps_per_interval: Optional[object] = None
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        spi = self.steps_per_interval
        if spi is not None:
            counts = spi if isinstance(spi, (tuple, list)) else (spi,)
            if any(int(c) < 1 for c in counts):
                raise ValueError("steps_per_interval must be at least 1")


@dataclass(frozen=True)
class MonitoringSchedule:
    """Observation dates t_0 = 0 < t_1 < ... <= maturity."""
    maturity: float
    dates: tuple

    def __post_init__(self):
        d = np.asarray(self.dates, dtype=float)
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if d.size < 2 or d[0] != 0.0 or np.any(np.diff(d) <= 0):
            raise ValueError("dates must start at 0 and increase strictly")
        if d[-1] > self.maturity * (1 + 1e-12):
            raise ValueError("last monitoring date exceeds maturity")

    @classmethod
    def uniform(cls, maturity: float, m: int, spacing: str = "span") -> "MonitoringSchedule":
        """m monitoring intervals; spacing "span" puts t_m = maturity (step T/m),
        "m_plus_1" uses step T/(m+1) so the last date falls short of maturity."""
        if m < 1:
            raise ValueError("m must be at least 1")
        if spacing == "span":
            dates = tuple(maturity * k / m for k in range(m + 1))
        elif spacing == "m_plus_1":
            dates = tuple(maturity * k / (m + 1) for k in range(m + 1))
        else:
            raise ValueError("spacing must be 'span' or 'm_plus_1'")
        return cls(maturity=maturity, dates=dates)

    @property
    def n_intervals(self) -> int:
        return len(self.dates) - 1


@dataclass
class PathBatch:
    """Log prices (and positive-part variance for diffusive models) at monitoring dates."""
    log_prices: np.ndarray
    variance: Optional[np.ndarray]
    schedule: MonitoringSchedule


@dataclass(frozen=True)
class ExoticSpec:
    """Contract description for the path-dependent payoff families."""
    kind: str
    schedule: MonitoringSchedule
    strike: float = 0.0
    is_call: bool = True
    cap: Optional[float] = None
    floor: Optional[float] = None
    global_cap: Optional[float] = None
    global_floor: Optional[float] = None
    barrier_up: Optional[float] = None
    barrier_down: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EXOTIC_KINDS:
            raise ValueError(f"unknown payoff kind '{self.kind}'")
        if self.kind in ("asian_call", "asian_put", "barrier_uo", "barrier_do",
                         "barrier_double") and self.strike <= 0:
            raise ValueError(f"{self.kind} needs a positive strike")
        if self.kind == "cliquet":
            if self.cap is None or self.floor is None or self.cap <= self.floor:
                raise ValueError("cliquet needs local cap > local floor")
            if self.global_cap is None or self.global_floor is None:
                raise ValueError("cliquet needs global cap and floor")
        if self.kind in ("barrier_uo", "barrier_double") and self.barrier_up is None:
            raise ValueError(f"{self.kind} needs barrier_up")
        if self.kind in ("barrier_do", "barrier_double") and self.barrier_down is None:
            raise ValueError(f"{self.kind} needs barrier_down")


@dataclass(frozen=True)
class McEstimate:
    price: float
    std_err: float
    n_paths: int

    @property
    def ci95_half_width(self) -> float:
        return 1.96 * self.std_err


# ---------------------------------------------------------------------------
# Sampling primitives
# ---------------------------------------------------------------------------

def sample_double_exponential(rng: np.random.Generator, jumps: KouJumpParams, size: int) -> np.ndarray:
    """Inverse-CDF draw: with probability p an Exp(eta1) up-jump, else -Exp(eta2)."""
    u = np.maximum(rng.uniform(size=size), 2.0 ** -53)
    up = u >= 1.0 - jumps.p
    out = np.empty(size)
    out[up] = -np.log((1.0 - u[up]) / jumps.p) / jumps.eta1
    down = ~up
    out[down] = np.log(u[down] / (1.0 - jumps.p)) / jumps.eta2
    return out


def _poisson_jump_total(rng, n, lam_dt, size_sampler) -> np.ndarray:
    """Sum of a Poisson(lam_dt) number of iid jump sizes per path."""
    total = np.zeros(n)
    if lam_dt <= 0:
        return total
    counts = rng.poisson(lam_dt, size=n)
    for j in range(int(counts.max()) if counts.size else 0):
        mask = counts > j
        total[mask] += size_sampler(int(mask.sum()))
    return total


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------

def _substeps(schedule: MonitoringSchedule, config: SimConfig, model: ModelParams) -> list[int]:
    spi = config.steps_per_interval
    if spi is not None:
        if isinstance(spi, (tuple, list)):
            if len(spi) != schedule.n_intervals:
                raise ValueError("steps_per_interval tuple must match the interval count")
            return [int(c) for c in spi]
        return [int(spi)] * schedule.n_intervals
    if isinstance(model, BGMParams):
        return [1] * schedule.n_intervals   # Levy increments are exact at any step
    taus = np.diff(np.asarray(schedule.dates))
    return [max(1, int(math.ceil(tau / _MAX_DT - 1e-12))) for tau in taus]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n_paths: int, antithetic: bool) -> list[int]:
    if antithetic and n_paths % 2:
        n_paths += 1  # antithetic pairing needs an even path count
    sizes = []
    remaining = n_paths
    while remaining > 0:
        take = min(_CHUNK, remaining)
        if antithetic and take % 2:
            take += 1
        sizes.append(take)
        remaining -= take
    return sizes


def _simulate_chunk(model: ModelParams, ctx: MarketContext, schedule: MonitoringSchedule,
                    sub: list[int], n: int, rng: np.random.Generator, antithetic: bool) -> PathBatch:
    half = n // 2

    def gauss():
        if antithetic:
            z = rng.standard_normal(half)
            return np.concatenate([z, -z])
        return rng.standard_normal(n)

    n_dates = len(schedule.dates)
    x = np.full(n, math.log(ctx.spot))
    xs = np.empty((n, n_dates))
    xs[:, 0] = x
    drift = ctx.rate - ctx.div_yield + model.omega()
    taus = np.diff(np.asarray(schedule.dates))

    if isinstance(model, BGMParams):
        for m, tau in enumerate(taus):
            for _ in range(sub[m]):
                dt = tau / sub[m]
                x = (x + drift * dt + model.sigma * math.sqrt(dt) * gauss()
                     + rng.gamma(model.alpha_p * dt, 1.0 / model.lam_p, size=n)
                     - rng.gamma(model.alpha_m * dt, 1.0 / model.lam_m, size=n))
            xs[:, m + 1] = x
        return PathBatch(log_prices=xs, variance=None, schedule=schedule)

    heston = getattr(model, "heston", model)   # a bare Heston model is its own variance leg
    rho = heston.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    v = np.full(n, heston.v0)
    vs = np.empty((n, n_dates))
    vs[:, 0] = heston.v0
    for m, tau in enumerate(taus):
        dt = tau / sub[m]
        drift_dt = drift * dt
        for _ in range(sub[m]):
            z_v = gauss()
            z_s = rho * z_v + rho_c * gauss()
            v_plus = np.maximum(v, 0.0)
            sq_v = np.sqrt(v_plus * dt)
            x += drift_dt - 0.5 * dt * v_plus + sq_v * z_s
            v += heston.kappa * (heston.theta - v_plus) * dt + heston.sigma_v * (sq_v * z_v)
        # jumps are independent of the diffusion, so the interval's compound-
        # Poisson total may be added once at the interval end (exact in law
        # for values observed at monitoring dates)
        if isinstance(model, HKDEParams):
            x += _poisson_jump_total(
                rng, n, model.jumps.lam * tau,
                lambda k: sample_double_exponential(rng, model.jumps, k))
        elif isinstance(model, BatesParams):
            counts = rng.poisson(model.lam * tau, size=n)
            x += model.mu_j * counts + model.sigma_j * np.sqrt(counts) * rng.standard_normal(n)
        xs[:, m + 1] = x
        vs[:, m + 1] = np.maximum(v, 0.0)
    return PathBatch(log_prices=xs, variance=vs, schedule=schedule)


def simulate_paths(model: ModelParams, ctx: MarketContext, schedule: MonitoringSchedule,
                   config: SimConfig) -> PathBatch:
    """Materialize all paths at the monitoring dates (memory: n_paths x dates)."""
    sub = _substeps(schedule, config, model)
    batches = [
        _simulate_chunk(model, ctx, schedule, sub, size, _chunk_rng(config.seed, i), config.antithetic)
        for i, size in enumerate(_chunk_sizes(config.n_paths, config.antithetic))
    ]
    log_prices = np.concatenate([b.log_prices for b in batches])
    variance = (np.concatenate([b.variance for b in batches])
                if batches[0].variance is not None else None)
    return PathBatch(log_prices=log_prices, variance=variance, schedule=schedule)


def _thread_count() -> int:
    return max(1, int(os.environ.get("SVJD_THREADS", "1")))


def mc_run(model: ModelParams, ctx: MarketContext, schedule: MonitoringSchedule,
           config: SimConfig, payoff_fn: Callable[[PathBatch], np.ndarray]) -> list[McEstimate]:
    """Chunked estimator: payoff_fn maps a PathBatch to discounted per-path payoffs
    of shape (n_outputs, n_chunk_paths); returns one estimate per output row.

    With antithetic sampling the estimator and its standard error are computed
    over pair averages (path i pairs with path i + n/2 within a chunk).
    """
    sub = _substeps(schedule, config, model)
    sizes = _chunk_sizes(config.n_paths, config.antithetic)

    def run_chunk(item):
        i, size = item
        batch = _simulate_chunk(model, ctx, schedule, sub, size,
                                _chunk_rng(config.seed, i), config.antithetic)
        pay = np.atleast_2d(payoff_fn(batch))
        if config.antithetic:
            h = size // 2
            pay = 0.5 * (pay[:, :h] + pay[:, h:])
        return pay.sum(axis=1), (pay * pay).sum(axis=1), pay.shape[1]

    n_threads = _thread_count()
    items = list(enumerate(sizes))
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_chunk, items))
    else:
        results = [run_chunk(it) for it in items]

    n_out = results[0][0].size
    sums = np.zeros(n_out)
    sumsq = np.zeros(n_out)
    count = 0
    for s, s2, c in results:   # fixed reduction order keeps results bit-identical
        sums += s
        sumsq += s2
        count += c
    mean = sums / count
    var = np.maximum(sumsq / count - mean * mean, 0.0) * count / (count - 1)
    se = np.sqrt(var / count)
    return [McEstimate(price=float(m), std_err=float(s), n_paths=sum(sizes))
            for m, s in zip(mean, se)]


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def evaluate_payoff(spec: ExoticSpec, batch: PathBatch) -> np.ndarray:
    """Undiscounted payoff per path, evaluated at the monitoring dates only."""
    logs = batch.log_prices
    kind = spec.kind
    if kind in ("asian_call", "asian_put"):
        avg = np.exp(logs).mean(axis=1)    # equal-weight average including t_0
        return np.maximum(avg - spec.strike, 0.0) if kind == "asian_call" \
            else np.maximum(spec.strike - avg, 0.0)

    returns = np.diff(logs, axis=1)
    t = batch.schedule.maturity
    if kind == "variance_swap":
        return (returns ** 2).sum(axis=1) / t - spec.strike
    if kind == "variance_call":
        return np.maximum((np.expm1(returns) ** 2).sum(axis=1) / t - spec.strike, 0.0)
    if kind == "cliquet":
        period = np.clip(np.expm1(returns), spec.floor, spec.cap)
        return spec.strike * np.clip(period.sum(axis=1), spec.global_floor, spec.global_cap)

    # knock-out barriers: monitored at t_1..t_M, payoff on S at the last date
    s_last = np.exp(logs[:, -1])
    vanilla = np.maximum(s_last - spec.strike, 0.0) if spec.is_call \
        else np.maximum(spec.strike - s_last, 0.0)
    alive = np.ones(logs.shape[0], dtype=bool)
    if kind in ("barrier_uo", "barrier_double"):
        alive &= logs[:, 1:].max(axis=1) <= math.log(spec.barrier_up)
    if kind in ("barrier_do", "barrier_double"):
        alive &= logs[:, 1:].min(axis=1) >= math.log(spec.barrier_down)
    return vanilla * alive


def _check_barriers(spec: ExoticSpec, ctx: MarketContext) -> None:
    if spec.kind in ("barrier_uo", "barrier_double") and spec.barrier_up <= ctx.spot:
        raise ValueError("up barrier must exceed the spot")
    if spec.kind in ("barrier_do", "barrier_double") and spec.barrier_down >= ctx.spot:
        raise ValueError("down barrier must lie below the spot")


def price_exotic_batch(model: ModelParams, ctx: MarketContext, specs: Sequence[ExoticSpec],
                       config: SimConfig) -> list[McEstimate]:
    """Price several contracts sharing one monitoring schedule off the same paths."""
    if not specs:
        raise ValueError("no contracts given")
    schedule = specs[0].schedule
    for spec in specs:
        if spec.schedule != schedule:
            raise ValueError("all contracts in a batch must share the schedule")
        _check_barriers(spec, ctx)
    disc = math.exp(-ctx.rate * schedule.maturity)

    def payoff(batch: PathBatch) -> np.ndarray:
        return np.stack([disc * evaluate_payoff(spec, batch) for spec in specs])

    return mc_run(model, ctx, schedule, config, payoff)


def price_exotic(model: ModelParams, ctx: MarketContext, spec: ExoticSpec,
                 config: SimConfig) -> McEstimate:
    """Discounted Monte Carlo price of one path-dependent contract."""
    return price_exotic_batch(model, ctx, [spec], config)[0]


def price_european_mc(model: ModelParams, ctx: MarketContext, t: float, strike: float,
                      is_call: bool, config: SimConfig) -> McEstimate:
    """Monte Carlo European price; oracle counterpart of the projection pricer."""
    if strike <= 0 or t <= 0:
        raise ValueError("strike and t must be positive")
    schedule = MonitoringSchedule.uniform(t, 1)
    disc = math.exp(-ctx.rate * t)

    def payoff(batch: PathBatch) -> np.ndarray:
        s_t = np.exp(batch.log_prices[:, -1])
        pay = np.maximum(s_t - strike, 0.0) if is_call else np.maximum(strike - s_t, 0.0)
        return disc * pay[None, :]

    return mc_run(model, ctx, schedule, config, payoff)[0]
