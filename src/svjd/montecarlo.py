"""Path simulation and Monte Carlo pricing of path-dependent payoffs.

Heston-family variance follows full-truncation Euler (the variance state may
go negative; only its positive part enters drift and diffusion). Jumps are
aggregated per monitoring interval as exact compound-Poisson totals. Paths are
partitioned into fixed-size chunks, each driven by a counter-based Philox
stream keyed on (seed, chunk index), so results are bit-reproducible for a
given seed and path count regardless of thread count. A chunk keeps no paths: each
monitoring date's log prices are folded into the per-path statistics payoffs read.
"""
from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from svjd.models import MarketContext, ModelParams, _require_count, _require_finite, _require_real

__all__ = ["SimConfig", "MonitoringSchedule", "PathBatch", "ExoticSpec", "McEstimate",
           "price_exotic", "price_exotic_batch", "evaluate_payoff", "mc_run"]

_CHUNK = 1 << 18          # paths per worker chunk; part of the reproducibility key
_MAX_DT = 1.0 / 250.0     # default substep cap for discretized models
_BLOCK = 1 << 15          # paths per cache block of the Euler substep arithmetic

EXOTIC_KINDS = ("european_call", "european_put", "asian_call", "asian_put", "variance_swap",
                "variance_call", "cliquet", "barrier_uo", "barrier_do", "barrier_double")
# each contract term beyond the strike, and the kinds that read it
_TERMS = {"cap": ("cliquet",), "floor": ("cliquet",), "global_cap": ("cliquet",),
          "global_floor": ("cliquet",), "barrier_up": ("barrier_uo", "barrier_double"),
          "barrier_down": ("barrier_do", "barrier_double")}


@dataclass(frozen=True)
class SimConfig:
    """Path count, seed, and the substep count of every monitoring interval
    (one integer, or None for dt <= 1/250)."""
    n_paths: int = 1_000_000
    steps_per_interval: Optional[int] = None
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        _require_count("n_paths", self.n_paths, 2)
        if self.steps_per_interval is not None:
            _require_count("steps_per_interval", self.steps_per_interval, 1)
        # True would run as seed 1 and "no" would switch antithetic sampling on
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer; got {self.seed!r}")
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError(f"antithetic must be a bool; got {self.antithetic!r}")
        # two antithetic paths make one pair average, which has no standard error
        if self.antithetic and self.n_paths < 3:
            raise ValueError(f"n_paths must be >= 3 with antithetic sampling; got {self.n_paths!r}")


@dataclass(frozen=True)
class MonitoringSchedule:
    """Observation dates t_0 = 0 < t_1 < ... <= maturity."""
    maturity: float
    dates: tuple

    def __post_init__(self):
        _require_real("maturity", self.maturity, positive=True)
        d = np.asarray(self.dates, dtype=float)
        if not np.isfinite(d).all():
            raise ValueError(f"dates must be finite; got {self.dates!r}")
        if d.size < 2 or d[0] != 0.0 or np.any(np.diff(d) <= 0):
            raise ValueError("dates must start at 0 and increase strictly")
        if d[-1] > self.maturity * (1 + 1e-12):
            raise ValueError("last monitoring date exceeds maturity")

    @classmethod
    def uniform(cls, maturity: float, m: int, spacing: str = "span") -> "MonitoringSchedule":
        """m monitoring intervals; spacing "span" puts t_m = maturity (step T/m),
        "m_plus_1" uses step T/(m+1) so the last date falls short of maturity."""
        _require_real("maturity", maturity, positive=True)
        _require_count("m", m, 1)
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


class PathBatch:
    """One chunk's paths as its payoffs read them: record(x) takes every path's log
    price at t_0, t_1, ..., t_M in turn. With reads None, log_prices keeps every
    date (paths x dates). Otherwise log_prices keeps the last date only, as an
    (n, 1) array, and stats holds one per-path vector per key in reads, folded in
    date order: "max" and "min" over t_1..t_M, "sum" of S over t_0..t_M, "log_sq"
    and "simple_sq" of the returns, ("clipped", floor, cap) of the simple returns,
    and "last", S at t_M. A batch belongs to one chunk, priced on one thread."""
    # no batch holds variance paths, but perfbench/tracer.py still reads this
    # name when it sizes the arrays a payoff is handed
    variance = None

    def __init__(self, schedule: MonitoringSchedule, n: int, reads: Optional[Iterable] = None):
        self.schedule = schedule
        self._date, self._n_dates, self._reads = 0, len(schedule.dates), reads
        self.log_prices = np.empty((n, self._n_dates if reads is None else 1))
        self.stats = {key: np.full(n, {"max": -np.inf, "min": np.inf}.get(key, 0.0))
                      for key in reads or () if key != "last"}
        self._clipped = [key for key in self.stats if isinstance(key, tuple)]
        self._simple = bool(self._clipped) or "simple_sq" in self.stats
        self._ret, self._tmp = (np.empty(n), np.empty(n)) if reads is not None else (None, None)

    def record(self, x: np.ndarray) -> None:
        """Fold the next monitoring date's log prices into the batch."""
        date, stats = self._date, self.stats
        self._date += 1
        if self._reads is None:
            self.log_prices[:, date] = x
            return
        prev = self.log_prices[:, 0]
        if "sum" in stats:
            stats["sum"] += np.exp(x, out=self._tmp)
        if date > 0:
            for key, fold in (("max", np.maximum), ("min", np.minimum)):
                if key in stats:
                    fold(stats[key], x, out=stats[key])
            if self._simple or "log_sq" in stats:
                ret = np.subtract(x, prev, out=self._ret)
                if "log_sq" in stats:
                    stats["log_sq"] += np.square(ret, out=self._tmp)
                if self._simple:
                    np.expm1(ret, out=ret)     # once, for every statistic that reads it
                    if "simple_sq" in stats:
                        stats["simple_sq"] += np.square(ret, out=self._tmp)
                    for key in self._clipped:
                        stats[key] += np.clip(ret, key[1], key[2], out=self._tmp)
        if date == self._n_dates - 1 and "last" in self._reads:
            stats["last"] = np.exp(x, out=self._tmp)    # the scratch is free from here on
        prev[:] = x


@dataclass(frozen=True)
class ExoticSpec:
    """Contract description for the European and path-dependent payoff families;
    Europeans pay on S at the last date (give them one interval)."""
    kind: str
    schedule: MonitoringSchedule
    strike: float = 0.0     # a cliquet's notional; only the variance payoffs may be <= 0
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
        for name, kinds in _TERMS.items():   # a term the kind never reads would be dropped
            if getattr(self, name) is not None and self.kind not in kinds:
                raise ValueError(f"{self.kind} does not read {name}")
        # the payoff tests its truth, so "no" would price the call
        if not isinstance(self.is_call, (bool, np.bool_)):
            raise ValueError(f"is_call must be a bool; got {self.is_call!r}")
        # nan terms would price as nan or 0 and a negative barrier fail in log
        _require_finite(self, ["strike"] + [f for f in _TERMS if getattr(self, f) is not None])
        for name in ("barrier_up", "barrier_down"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive; got {getattr(self, name)}")
        if self.kind not in ("variance_swap", "variance_call") and self.strike <= 0:
            raise ValueError(f"{self.kind} needs a positive strike")
        # a European is discounted over the maturity, so it must pay there; t*m/m can miss t
        last, maturity = self.schedule.dates[-1], self.schedule.maturity
        if self.kind in ("european_call", "european_put") and last < maturity * (1 - 1e-12):
            raise ValueError(f"{self.kind} pays at maturity {maturity}; its schedule ends at {last}")
        if self.kind == "cliquet":
            if self.cap is None or self.floor is None or self.cap <= self.floor:
                raise ValueError("cliquet needs local cap > local floor")
            if self.global_cap is None or self.global_floor is None:
                raise ValueError("cliquet needs global cap and floor")
        for name in ("barrier_up", "barrier_down"):
            if self.kind in _TERMS[name] and getattr(self, name) is None:
                raise ValueError(f"{self.kind} needs {name}")


@dataclass(frozen=True)
class McEstimate:
    price: float
    std_err: float
    n_paths: int

    @property
    def ci95_half_width(self) -> float:
        return 1.96 * self.std_err


# ---------------------------------------------------------------------------
# Simulation engine
# ---------------------------------------------------------------------------

def _substeps(schedule: MonitoringSchedule, config: SimConfig, model: ModelParams) -> list[int]:
    if config.steps_per_interval is not None:
        return [int(config.steps_per_interval)] * schedule.n_intervals
    if hasattr(model, "increment"):
        return [1] * schedule.n_intervals   # Levy increments are exact at any step
    taus = np.diff(np.asarray(schedule.dates))
    return [max(1, int(math.ceil(tau / _MAX_DT - 1e-12))) for tau in taus]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([int(seed) & 0xFFFFFFFFFFFFFFFF, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(n_paths: int, antithetic: bool) -> list[int]:
    if antithetic and n_paths % 2:
        n_paths += 1  # antithetic pairing needs an even path count
    return [min(_CHUNK, n_paths - start) for start in range(0, n_paths, _CHUNK)]


def _simulate_chunk(model: ModelParams, ctx: MarketContext, schedule: MonitoringSchedule,
                    sub: list[int], n: int, rng: np.random.Generator,
                    antithetic: bool, reads: Optional[Iterable] = None) -> PathBatch:
    half = n // 2

    def gauss(out: np.ndarray) -> np.ndarray:
        """Fill out with standard normals; antithetic: the second half negates the first."""
        if antithetic:
            rng.standard_normal(out=out[:half])
            np.negative(out[:half], out=out[half:])
        else:
            rng.standard_normal(out=out)
        return out

    x = np.full(n, math.log(ctx.spot))
    batch = PathBatch(schedule, n, reads)
    batch.record(x)
    drift = ctx.rate - ctx.div_yield + model.omega()
    taus = np.diff(np.asarray(schedule.dates))

    if hasattr(model, "increment"):
        z = np.empty(n)
        for m, tau in enumerate(taus):
            for _ in range(sub[m]):
                x = model.increment(rng, x, drift, tau / sub[m], gauss(z))
            batch.record(x)
        return batch

    heston = getattr(model, "heston", model)   # a bare Heston model is its own variance leg
    kappa, theta, sigma_v, rho = heston.kappa, heston.theta, heston.sigma_v, heston.rho
    rho_c = math.sqrt(1.0 - rho * rho)
    v = np.full(n, heston.v0)
    # the full-truncation Euler substep, in place with this operand grouping (bit-identical):
    #   x += (drift_dt - (0.5*dt)*v+) + sqrt(v+ dt)*z_s
    #   v += (kappa*(theta - v+))*dt + sigma_v*(sqrt(v+ dt)*z_v)
    # the normals fill the whole chunk; the arithmetic runs block by block, with v+, sqrt(v+ dt)
    # and a scratch term in block-sized buffers of this call, so each block stays in cache
    z_v, z_s = np.empty(n), np.empty(n)
    scratch = [np.empty(min(n, _BLOCK)) for _ in range(3)]
    blocks = [tuple(a[i:i + _BLOCK] for a in (x, v, z_v, z_s))
              + tuple(b[:min(_BLOCK, n - i)] for b in scratch) for i in range(0, n, _BLOCK)]
    for m, tau in enumerate(taus):
        dt = tau / sub[m]
        drift_dt = drift * dt
        half_dt = 0.5 * dt
        for _ in range(sub[m]):
            gauss(z_v)
            gauss(z_s)
            for x_b, v_b, zv_b, zs_b, vp_b, sq_b, tmp_b in blocks:
                np.multiply(zs_b, rho_c, out=zs_b)
                np.multiply(zv_b, rho, out=tmp_b)
                np.add(tmp_b, zs_b, out=zs_b)             # z_s = rho*z_v + rho_c*z_2
                np.maximum(v_b, 0.0, out=vp_b)
                np.multiply(vp_b, dt, out=sq_b)
                np.sqrt(sq_b, out=sq_b)
                np.multiply(vp_b, half_dt, out=tmp_b)
                np.subtract(drift_dt, tmp_b, out=tmp_b)
                np.multiply(sq_b, zs_b, out=zs_b)
                np.add(tmp_b, zs_b, out=tmp_b)
                np.add(x_b, tmp_b, out=x_b)
                np.subtract(theta, vp_b, out=tmp_b)
                np.multiply(tmp_b, kappa, out=tmp_b)
                np.multiply(tmp_b, dt, out=tmp_b)
                np.multiply(sq_b, zv_b, out=zv_b)
                np.multiply(zv_b, sigma_v, out=zv_b)
                np.add(tmp_b, zv_b, out=tmp_b)
                np.add(v_b, tmp_b, out=v_b)
        # jumps are independent of the diffusion, so the interval's compound-
        # Poisson total may be added once at the interval end (exact in law
        # for values observed at monitoring dates)
        if model.jumps is not None:
            x += model.jumps.interval_total(rng, n, tau)
        batch.record(x)
    return batch


def _thread_count() -> int:
    raw = os.environ.get("SVJD_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"SVJD_THREADS must be a positive integer; got {raw!r}")
    return n


def mc_run(model: ModelParams, ctx: MarketContext, schedule: MonitoringSchedule,
           config: SimConfig, payoff_fn: Callable[[PathBatch], Iterable],
           reads: Optional[Iterable] = None) -> list[McEstimate]:
    """Chunked estimator: payoff_fn maps a PathBatch to discounted per-path payoffs,
    an array of shape (n_outputs, n_chunk_paths) or (n_chunk_paths,), or an iterable
    of per-path rows; returns one estimate per output row. Each row is reduced to its
    sum and sum of squares before the next is taken, so yielded rows live one at a time.

    reads, a collection of the PathBatch statistic keys payoff_fn reads, makes each
    batch keep those and the last date's log prices only; None keeps every date's.

    With antithetic sampling the estimator and its standard error are computed
    over pair averages (path i pairs with path i + n/2 within a chunk).
    """
    sub = _substeps(schedule, config, model)
    sizes = _chunk_sizes(config.n_paths, config.antithetic)

    def run_chunk(item):
        i, size = item
        batch = _simulate_chunk(model, ctx, schedule, sub, size,
                                _chunk_rng(config.seed, i), config.antithetic, reads)
        rows, h = payoff_fn(batch), size // 2
        sums, sumsq = [], []
        for pay in np.atleast_2d(rows) if isinstance(rows, np.ndarray) else rows:
            if config.antithetic:
                pay = 0.5 * (pay[:h] + pay[h:])
            sums.append(pay.sum())
            sumsq.append((pay * pay).sum())
        return np.array(sums), np.array(sumsq), h if config.antithetic else size

    n_threads = _thread_count()
    items = list(enumerate(sizes))
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_chunk, items))
    else:
        results = [run_chunk(it) for it in items]

    # a fixed reduction order keeps results bit-identical
    sums, sumsq, count = (sum(column) for column in zip(*results))
    mean = sums / count
    var = np.maximum(sumsq / count - mean * mean, 0.0) * count / (count - 1)
    se = np.sqrt(var / count)
    return [McEstimate(price=float(m), std_err=float(s), n_paths=sum(sizes))
            for m, s in zip(mean, se)]


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def _vanilla(s: np.ndarray, strike: float, is_call: bool) -> np.ndarray:
    return np.maximum(s - strike, 0.0) if is_call else np.maximum(strike - s, 0.0)


def _statistic_keys(spec: ExoticSpec) -> tuple:
    """The PathBatch statistics evaluate_payoff reads for spec."""
    if spec.kind == "cliquet":
        return (("clipped", spec.floor, spec.cap),)
    return {"asian_call": ("sum",), "asian_put": ("sum",), "variance_swap": ("log_sq",),
            "variance_call": ("simple_sq",), "barrier_uo": ("last", "max"),
            "barrier_do": ("last", "min"), "barrier_double": ("last", "max", "min")
            }.get(spec.kind, ("last",))


def evaluate_payoff(spec: ExoticSpec, batch: PathBatch) -> np.ndarray:
    """Undiscounted payoff per path, evaluated at the monitoring dates only, from
    the statistics the batch recorded (_statistic_keys(spec) names them); every
    contract priced on a batch shares them."""
    stats, kind, strike, t = batch.stats, spec.kind, spec.strike, batch.schedule.maturity
    if kind == "variance_swap":
        return stats["log_sq"] / t - strike
    if kind == "variance_call":
        return np.maximum(stats["simple_sq"] / t - strike, 0.0)
    if kind == "cliquet":
        total = stats[("clipped", spec.floor, spec.cap)]
        return strike * np.clip(total, spec.global_floor, spec.global_cap)
    if kind in ("asian_call", "asian_put"):   # equal-weight average including t_0
        return _vanilla(stats["sum"] / len(batch.schedule.dates), strike, kind == "asian_call")
    # Europeans and knock-out barriers pay on S at the last date; barriers are
    # monitored at t_1..t_M
    pay = _vanilla(stats["last"], strike,
                   spec.is_call if kind.startswith("barrier") else kind == "european_call")
    if spec.barrier_up is not None:
        pay = pay * (stats["max"] <= math.log(spec.barrier_up))
    if spec.barrier_down is not None:
        pay = pay * (stats["min"] >= math.log(spec.barrier_down))
    return pay


def price_exotic_batch(model: ModelParams, ctx: MarketContext, specs: Sequence[ExoticSpec],
                       config: SimConfig) -> list[McEstimate]:
    """Price several contracts sharing one monitoring schedule off the same paths."""
    if not specs:
        raise ValueError("no contracts given")
    schedule = specs[0].schedule
    for spec in specs:
        if spec.schedule != schedule:
            raise ValueError("all contracts in a batch must share the schedule")
        if spec.barrier_up is not None and spec.barrier_up <= ctx.spot:
            raise ValueError("up barrier must exceed the spot")
        if spec.barrier_down is not None and spec.barrier_down >= ctx.spot:
            raise ValueError("down barrier must lie below the spot")
    disc = math.exp(-ctx.rate * schedule.maturity)

    reads = dict.fromkeys(key for spec in specs for key in _statistic_keys(spec))
    return mc_run(model, ctx, schedule, config,
                  lambda batch: (disc * evaluate_payoff(spec, batch) for spec in specs), reads)


def price_exotic(model: ModelParams, ctx: MarketContext, spec: ExoticSpec,
                 config: SimConfig) -> McEstimate:
    """Discounted Monte Carlo price of one contract."""
    return price_exotic_batch(model, ctx, [spec], config)[0]
