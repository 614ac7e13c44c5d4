"""Vega-weighted least-squares calibration of a model to an OTM quote surface.

The objective is sum over maturities and strikes of w (V_model - v_mkt)^2 with
w = 1/(S0 pdf(d1) sqrt(T)) evaluated at each quote's market implied volatility,
which makes price residuals behave like implied-volatility residuals. A
trust-region-reflective solver is run through a schedule of tightening cost
tolerances, warm-starting each pass at the previous solution.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from svjd.black_scholes import Quote, bs_price, bs_vega, implied_vol, no_arbitrage_bounds
from svjd.models import MODELS, MarketContext, ModelParams
from svjd.proj import GridSpec, price_strike_slice

__all__ = ["MaturitySlice", "QuoteSurface", "CalibrationResult", "ErrorMetrics",
           "objective", "residuals", "calibrate", "error_metrics", "synthetic_surface",
           "default_bounds", "default_init", "PRICING_PENALTY"]

PRICING_PENALTY = 1e10          # objective value substituted when pricing fails
DEFAULT_SCHEDULE = (1e-4, 1e-6, 1e-8)


@dataclass
class MaturitySlice:
    """All OTM quotes of one tenor with its own rate and dividend yield."""
    t: float
    ctx: MarketContext
    quotes: list

    def __post_init__(self):
        if len(self.quotes) < 3:
            raise ValueError(f"maturity {self.t}: needs at least 3 quotes")
        strikes = [q.strike for q in self.quotes]
        if any(k2 <= k1 for k1, k2 in zip(strikes, strikes[1:])):
            raise ValueError(f"maturity {self.t}: strikes must be strictly ascending")


@dataclass
class QuoteSurface:
    """OTM quote surface grouped by maturity; construction fills prices, IVs, weights."""
    spot: float
    slices: list
    n_dropped_itm: int = 0

    def __post_init__(self):
        ts = [s.t for s in self.slices]
        if not ts or any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("maturities must be strictly ascending and nonempty")

    @classmethod
    def build(cls, spot: float, rows: Sequence[tuple]) -> "QuoteSurface":
        """rows: (maturity, rate, div_yield, Quote). ITM quotes are dropped; the
        call/put pivot is the forward. Missing prices come from IVs and missing
        IVs from prices."""
        by_t: dict = {}
        n_dropped = 0
        for t, rate, div_yield, quote in rows:
            ctx = MarketContext(spot=spot, rate=rate, div_yield=div_yield)
            fwd = ctx.forward(t)
            if quote.is_call != (quote.strike >= fwd):
                n_dropped += 1
                continue
            price, iv = quote.price, quote.iv
            if price is None:
                price = bs_price(ctx, t, quote.strike, iv, quote.is_call)
            if iv is None:
                iv = implied_vol(ctx, t, quote.strike, price, quote.is_call)
            filled = Quote(maturity=t, strike=quote.strike, is_call=quote.is_call,
                           price=price, iv=iv)
            key = round(t, 12)
            if key in by_t and (by_t[key][0] != rate or by_t[key][1] != div_yield):
                raise ValueError(f"maturity {t}: inconsistent rate or dividend yield")
            by_t.setdefault(key, (rate, div_yield, []))[2].append(filled)
        slices = []
        for key in sorted(by_t):
            rate, div_yield, quotes = by_t[key]
            quotes.sort(key=lambda q: q.strike)
            slices.append(MaturitySlice(
                t=float(key), ctx=MarketContext(spot=spot, rate=rate, div_yield=div_yield),
                quotes=quotes))
        return cls(spot=spot, slices=slices, n_dropped_itm=n_dropped)

    def weights(self) -> list:
        """Per-slice vega weights 1/(S0 pdf(d1) sqrt(T)) at market IVs."""
        out = []
        for sl in self.slices:
            out.append(np.array([1.0 / bs_vega(sl.ctx, sl.t, q.strike, q.iv)
                                 for q in sl.quotes]))
        return out

    @property
    def n_quotes(self) -> int:
        return sum(len(sl.quotes) for sl in self.slices)


@dataclass(frozen=True)
class ErrorMetrics:
    mape_pct: float
    rmse: float
    n_excluded: int = 0


@dataclass
class CalibrationResult:
    params: ModelParams
    objective: float
    per_quote_residuals: np.ndarray
    mape_pct: float
    rmse: float
    iterations: int
    trace: list
    stagnated: bool = False


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def residuals(model: ModelParams, surface: QuoteSurface, weights=None,
              grid_spec: GridSpec = GridSpec()) -> np.ndarray:
    """sqrt(w) (V_model - v_mkt) over the whole surface, one slice pricing per tenor."""
    if weights is None:
        weights = surface.weights()
    parts = []
    for sl, w in zip(surface.slices, weights):
        strikes = [q.strike for q in sl.quotes]
        flags = [q.is_call for q in sl.quotes]
        model_prices = price_strike_slice(model, sl.ctx, sl.t, strikes, flags, grid_spec)
        mkt = np.array([q.price for q in sl.quotes])
        parts.append(np.sqrt(w) * (model_prices - mkt))
    return np.concatenate(parts)


def objective(model: ModelParams, surface: QuoteSurface,
              grid_spec: GridSpec = GridSpec()) -> float:
    """Vega-weighted sum of squared price residuals."""
    try:
        r = residuals(model, surface, grid_spec=grid_spec)
    except (ValueError, FloatingPointError, OverflowError):
        return PRICING_PENALTY
    val = float(r @ r)
    return val if math.isfinite(val) else PRICING_PENALTY


# ---------------------------------------------------------------------------
# Parameter vectors: bounds and starts per flat field
# ---------------------------------------------------------------------------

# field: (lower bound, upper bound, default start); a None start is set from
# the surface's ATM implied vols in default_init
_FIELD_BOUNDS = {
    "v0": (1e-6, 4.0, None), "theta": (1e-6, 4.0, None), "kappa": (1e-3, 100.0, 3.0),
    "sigma_v": (1e-3, 12.0, 1.0), "rho": (-0.999, 0.999, -0.5),
    "lam": (0.0, 250.0, 1.0), "p": (0.0, 1.0, 0.5), "eta1": (1.01, 300.0, 20.0),
    "eta2": (0.01, 300.0, 20.0), "mu_j": (-50.0, 5.0, -0.1), "sigma_j": (1e-3, 12.0, 0.3),
    "alpha_p": (1e-4, 100.0, 1.0), "alpha_m": (1e-4, 100.0, 1.0),
    "lam_p": (1.01, 500.0, 15.0), "lam_m": (0.01, 500.0, 15.0), "sigma": (1e-4, 3.0, None),
}


def _model_class(model_kind: str):
    if model_kind not in MODELS:
        raise ValueError(f"unknown model kind '{model_kind}'")
    return MODELS[model_kind]


def default_bounds(model_kind: str) -> tuple[np.ndarray, np.ndarray]:
    names = _model_class(model_kind).FIELDS
    lo = np.array([_FIELD_BOUNDS[f][0] for f in names])
    hi = np.array([_FIELD_BOUNDS[f][1] for f in names])
    return lo, hi


def _atm_iv(surface: QuoteSurface, sl: MaturitySlice) -> float:
    fwd = sl.ctx.forward(sl.t)
    return min(sl.quotes, key=lambda q: abs(q.strike - fwd)).iv


def default_init(model_kind: str, surface: QuoteSurface) -> ModelParams:
    """Smile-informed seed: short/long ATM variance levels plus neutral jump settings."""
    cls = _model_class(model_kind)
    v_short = _atm_iv(surface, surface.slices[0]) ** 2
    v_long = _atm_iv(surface, surface.slices[-1]) ** 2
    atm = {"v0": v_short, "theta": v_long, "sigma": max(math.sqrt(v_short), 0.05)}
    x = [atm[f] if f in atm else _FIELD_BOUNDS[f][2] for f in cls.FIELDS]
    lo, hi = default_bounds(model_kind)
    return cls.from_flat(np.clip(x, lo, hi))


# ---------------------------------------------------------------------------
# Calibration driver
# ---------------------------------------------------------------------------

def calibrate(model_kind: str, surface: QuoteSurface, init: Optional[ModelParams] = None,
              bounds: Optional[tuple] = None, schedule: Sequence[float] = DEFAULT_SCHEDULE,
              grid_spec: GridSpec = GridSpec()) -> CalibrationResult:
    """Bound-constrained least squares run once per tolerance, warm-started.

    Each pass terminates on the relative change of the cost function (ftol);
    the Jacobian uses forward differences with relative step 1e-6.
    """
    cls = _model_class(model_kind)
    lo, hi = bounds if bounds is not None else default_bounds(model_kind)
    inverted = [f"{f} [{a}, {b}]" for f, a, b in zip(cls.FIELDS, lo, hi) if not a < b]
    if inverted:
        raise ValueError(f"bounds need lower < upper; violated for {', '.join(inverted)}")
    if init is None:
        init = default_init(model_kind, surface)
    elif init.NAME != model_kind:
        raise ValueError(f"initial guess is a {init.NAME} model, not {model_kind}")
    x0 = np.clip(np.asarray(init.flat(), dtype=float), lo, hi)

    weights = surface.weights()
    n_res = surface.n_quotes
    penalty_vec = np.full(n_res, math.sqrt(PRICING_PENALTY / n_res))

    def fun(x):
        try:
            r = residuals(cls.from_flat(x), surface, weights=weights, grid_spec=grid_spec)
        except (ValueError, FloatingPointError, OverflowError):
            return penalty_vec
        return np.where(np.isfinite(r), r, penalty_vec)

    x, r = x0, fun(x0)
    trace = [float(r @ r)]
    n_iter = 0
    stagnated = False
    for tol in schedule:
        # ftol (relative cost change) is the operative criterion; the tiny gtol
        # only catches exactly stationary starts where ftol can never fire.
        # errstate silences scipy's internal divide-by-zero chatter at zero cost.
        with np.errstate(divide="ignore", invalid="ignore"):
            res = least_squares(fun, x, bounds=(lo, hi), method="trf",
                                diff_step=1e-6, ftol=tol, xtol=None, gtol=1e-14)
        x, r = res.x, res.fun
        n_iter += res.nfev
        trace.append(2.0 * float(res.cost))   # scipy cost is half the SSE
        if res.status == 0:
            stagnated = True

    final = cls.from_flat(x)
    metrics = error_metrics(final, surface, grid_spec=grid_spec)
    return CalibrationResult(params=final, objective=float(r @ r),
                             per_quote_residuals=r, mape_pct=metrics.mape_pct,
                             rmse=metrics.rmse, iterations=n_iter, trace=trace,
                             stagnated=stagnated)


def error_metrics(model: ModelParams, surface: QuoteSurface,
                  grid_spec: GridSpec = GridSpec()) -> ErrorMetrics:
    """Surface-wide IV errors: MAPE in percent, RMSE in absolute IV units.

    Quotes whose model price cannot be inverted are excluded and counted.
    """
    abs_pct, sq = [], []
    n_excluded = 0
    for sl in surface.slices:
        strikes = [q.strike for q in sl.quotes]
        flags = [q.is_call for q in sl.quotes]
        model_prices = price_strike_slice(model, sl.ctx, sl.t, strikes, flags, grid_spec)
        for q, v in zip(sl.quotes, model_prices):
            lo_b, hi_b = no_arbitrage_bounds(sl.ctx, sl.t, q.strike, q.is_call)
            if not lo_b < v < hi_b:
                n_excluded += 1
                continue
            try:
                iv_model = implied_vol(sl.ctx, sl.t, q.strike, float(v), q.is_call)
            except (ValueError, RuntimeError):
                n_excluded += 1
                continue
            abs_pct.append(abs(iv_model - q.iv) / q.iv)
            sq.append((iv_model - q.iv) ** 2)
    if not abs_pct:
        raise ValueError("no quote could be inverted to an implied volatility")
    return ErrorMetrics(mape_pct=100.0 * float(np.mean(abs_pct)),
                        rmse=float(np.sqrt(np.mean(sq))), n_excluded=n_excluded)


# ---------------------------------------------------------------------------
# Synthetic surfaces (round-trip calibration and CLI support)
# ---------------------------------------------------------------------------

def synthetic_surface(model: ModelParams, spot: float, rate: float, div_yield: float,
                      maturities: Sequence[float], log_moneyness: Sequence[float],
                      grid_spec: GridSpec = GridSpec()) -> QuoteSurface:
    """Noiseless OTM surface priced from a model: puts below the forward, calls above."""
    rows = []
    for t in maturities:
        ctx = MarketContext(spot=spot, rate=rate, div_yield=div_yield)
        fwd = ctx.forward(t)
        strikes = [fwd * math.exp(m) for m in sorted(log_moneyness)]
        flags = [k >= fwd for k in strikes]
        prices = price_strike_slice(model, ctx, t, strikes, flags, grid_spec)
        for k, flag, price in zip(strikes, flags, prices):
            iv = implied_vol(ctx, t, k, float(price), flag)
            rows.append((t, rate, div_yield,
                         Quote(maturity=t, strike=k, is_call=flag, price=float(price), iv=iv)))
    return QuoteSurface.build(spot, rows)
