"""Vega-weighted least-squares calibration of a model to an OTM quote surface.

The objective is sum over maturities and strikes of w (V_model - v_mkt)^2 with
w = 1/(S0 pdf(d1) sqrt(T)) evaluated at each quote's market implied volatility,
which makes price residuals behave like implied-volatility residuals. One
trust-region-reflective solver pass fits it, stopping on the relative change of
the cost (ftol = 1e-8). Trial points and the forward-difference Jacobian are
priced on one grid per tenor held across the fit (`FrozenSlice`), all tenors
with one exponent call per model (`price_frozen`), and only the start and the
result by full pricings. SciPy's optimizer is imported inside
`calibrate`, so importing this module (or `svjd`) to price does not load it.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from svjd.black_scholes import Quote, _bracketed, _newton, bs_price, bs_vega, implied_vol
from svjd.models import MODELS, MarketContext, ModelParams
from svjd.proj import FrozenSlice, GridSpec, build_grid, price_frozen, price_strike_slice

__all__ = ["MaturitySlice", "QuoteSurface", "CalibrationResult", "ErrorMetrics",
           "objective", "residuals", "calibrate", "error_metrics", "synthetic_surface",
           "default_bounds", "default_init", "PRICING_PENALTY"]

_log = logging.getLogger(__name__)

PRICING_PENALTY = 1e10          # objective value substituted when pricing fails
PRICING_ERRORS = (ValueError, FloatingPointError, OverflowError)
FD_STEP = 1e-6                  # forward-difference step relative to max(1, |x|)
GRID_MOVE_RTOL = 1e-3           # a grid move past this from the held grid re-anchors it


@dataclass
class MaturitySlice:
    """All OTM quotes of one tenor with its own rate and dividend yield.

    Missing prices come from IVs and missing IVs from prices, one array call each;
    quotes that are already complete are kept as they are. The quotes are a tuple,
    in step with the arrays `strikes`, `is_calls`, `prices` and `ivs` built from them.
    """
    t: float
    ctx: MarketContext
    quotes: tuple

    def __post_init__(self):
        if len(self.quotes) < 3:
            raise ValueError(f"maturity {self.t}: needs at least 3 quotes")
        k, c, v, iv = (np.array(col, dtype=float) for col in
                       zip(*((q.strike, q.is_call, q.price, q.iv) for q in self.quotes)))
        if np.any(np.diff(k) <= 0):
            raise ValueError(f"maturity {self.t}: strikes must be strictly ascending")
        c = c == 1.0
        no_price, no_iv = np.isnan(v), np.isnan(iv)
        if no_price.any() or no_iv.any():   # fill the gaps and rebuild the quotes with them
            v[no_price] = bs_price(self.ctx, self.t, k[no_price], iv[no_price], c[no_price])
            iv[no_iv] = implied_vol(self.ctx, self.t, k[no_iv], v[no_iv], c[no_iv])
            self.quotes = [Quote(self.t, *q) for q in zip(k.tolist(), c.tolist(), v.tolist(),
                                                          iv.tolist())]
        if not np.all(iv > 0):   # the vega weights need them
            raise ValueError(f"maturity {self.t}: implied volatilities must be positive")
        self.quotes = tuple(self.quotes)
        self.strikes, self.is_calls, self.prices, self.ivs = k, c, v, iv

    @cached_property
    def weights(self) -> np.ndarray:
        """Vega weights 1/(S0 pdf(d1) sqrt(T)) at the market IVs, computed once."""
        return 1.0 / bs_vega(self.ctx, self.t, self.strikes, self.ivs)

    def model_prices(self, model: ModelParams, grid_spec: GridSpec) -> np.ndarray:
        """The model's prices of this slice's quotes, from one slice pricing."""
        return price_strike_slice(model, self.ctx, self.t, self.strikes, self.is_calls,
                                  grid_spec)


@dataclass
class QuoteSurface:
    """OTM quote surface grouped by maturity; each slice fills its prices, IVs and weights."""
    spot: float
    slices: list
    n_dropped_itm: int = 0

    def __post_init__(self):
        ts = [s.t for s in self.slices]
        if not ts or any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise ValueError("maturities must be strictly ascending and nonempty")

    @classmethod
    def build(cls, spot: float, rows: Sequence[tuple]) -> "QuoteSurface":
        """rows: (rate, div_yield, Quote), sliced by quote.maturity. ITM quotes are
        dropped (the call/put pivot is the forward); each slice fills missing prices and IVs.
        A row whose rate or dividend yield differs from its tenor's raises a ValueError
        whose `row` is that row's index."""
        by_t: dict = {}
        n_dropped = 0
        for i, (rate, div_yield, quote) in enumerate(rows):
            t = quote.maturity
            if quote.is_call != (quote.strike >= MarketContext(spot, rate, div_yield).forward(t)):
                n_dropped += 1
                continue
            key = round(t, 12)
            if key in by_t and (by_t[key][0] != rate or by_t[key][1] != div_yield):
                exc = ValueError(f"maturity {t}: inconsistent rate or dividend yield")
                exc.row = i    # the first row that disagrees with its tenor's earlier rows
                raise exc
            by_t.setdefault(key, (rate, div_yield, []))[2].append(quote)
        if n_dropped and not by_t:
            raise ValueError(f"no out-of-the-money quotes: all {n_dropped} were in the money "
                             f"against the forward")
        slices = [MaturitySlice(float(key), MarketContext(spot, rate, div_yield),
                                sorted(quotes, key=lambda q: q.strike))
                  for key, (rate, div_yield, quotes) in sorted(by_t.items())]
        return cls(spot=spot, slices=slices, n_dropped_itm=n_dropped)

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
    """A fit and its work: residual vectors evaluated (the start's and each
    trial point's), Jacobians built, held grids anchored, and penalty
    substitutions (residual vectors that fell back to the penalty in whole or
    part, tenors whose Jacobian rows were zeroed because the slice could not
    be priced, and Jacobian columns whose non-finite entries were zeroed).
    `mape_pct` and `rmse` leave out the `n_excluded` quotes whose model price
    cannot be inverted. `trace` is the start's cost and the solver's final cost;
    `stagnated` is whether the solver stopped at its evaluation limit."""
    params: ModelParams
    objective: float
    per_quote_residuals: np.ndarray
    mape_pct: float
    rmse: float
    n_excluded: int
    n_residuals: int
    n_jacobians: int
    n_penalties: int
    n_anchors: int
    trace: list
    stagnated: bool = False


# ---------------------------------------------------------------------------
# Objective
# ---------------------------------------------------------------------------

def _model_prices(model: ModelParams, surface: QuoteSurface, grid_spec: GridSpec) -> list:
    return [sl.model_prices(model, grid_spec) for sl in surface.slices]


def _weighted(surface: QuoteSurface, prices: Sequence[np.ndarray]) -> np.ndarray:
    """sqrt(w) (V_model - v_mkt) over the whole surface, from each tenor's model prices."""
    return np.concatenate([np.sqrt(sl.weights) * (p - sl.prices)
                           for sl, p in zip(surface.slices, prices)])


def residuals(model: ModelParams, surface: QuoteSurface,
              grid_spec: GridSpec = GridSpec()) -> np.ndarray:
    """sqrt(w) (V_model - v_mkt) over the whole surface, one slice pricing per tenor."""
    return _weighted(surface, _model_prices(model, surface, grid_spec))


def objective(model: ModelParams, surface: QuoteSurface,
              grid_spec: GridSpec = GridSpec()) -> float:
    """Vega-weighted sum of squared price residuals."""
    try:
        r = residuals(model, surface, grid_spec=grid_spec)
    except PRICING_ERRORS as exc:
        _log.debug("objective: pricing failed, penalty substituted: %s", exc)
        return PRICING_PENALTY
    val = float(r @ r)
    if math.isfinite(val):
        return val
    _log.debug("objective: non-finite value %r, penalty substituted", val)
    return PRICING_PENALTY


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


def default_init(model_kind: str, surface: QuoteSurface) -> ModelParams:
    """Smile-informed seed: short/long ATM variance levels plus neutral jump settings."""
    cls = _model_class(model_kind)
    v_short, v_long = (sl.ivs[np.argmin(np.abs(sl.strikes - sl.ctx.forward(sl.t)))] ** 2
                       for sl in (surface.slices[0], surface.slices[-1]))
    atm = {"v0": v_short, "theta": v_long, "sigma": max(math.sqrt(v_short), 0.05)}
    x = [atm[f] if f in atm else _FIELD_BOUNDS[f][2] for f in cls.FIELDS]
    lo, hi = default_bounds(model_kind)
    return cls.from_flat(np.clip(x, lo, hi))


# ---------------------------------------------------------------------------
# Calibration driver
# ---------------------------------------------------------------------------

def calibrate(model_kind: str, surface: QuoteSurface, init: Optional[ModelParams] = None,
              grid_spec: GridSpec = GridSpec()) -> CalibrationResult:
    """Least squares within default_bounds, one solver pass.

    The pass stops on the relative change of the cost (ftol = 1e-8). Trial
    points and `_jacobian` are priced on `_HeldSlices`; the start (the trace's
    first entry and the solver's first residual vector) and the result
    (objective, residuals, IV errors) are each priced once by full slice
    pricings. Residual vectors are remembered by the bytes of their point, so a
    repeated trial point reuses its vector; the counts are of real evaluations.
    """
    cls = _model_class(model_kind)
    lo, hi = default_bounds(model_kind)
    if init is None:
        init = default_init(model_kind, surface)
    elif init.NAME != model_kind:
        raise ValueError(f"initial guess is a {init.NAME} model, not {model_kind}")
    x0 = np.clip(np.asarray(init.flat(), dtype=float), lo, hi)

    n_res = surface.n_quotes
    penalty_vec = np.full(n_res, math.sqrt(PRICING_PENALTY / n_res))
    counts = {"residuals": 0, "jacobians": 0, "penalties": 0}
    held = _HeldSlices(surface, grid_spec)

    def residual_vector(x, price=held.residuals):
        counts["residuals"] += 1
        try:
            r = price(cls.from_flat(x))
        except PRICING_ERRORS as exc:
            counts["penalties"] += 1
            _log.debug("calibrate: pricing failed at %s, penalty substituted: %s", x, exc)
            return penalty_vec
        finite = np.isfinite(r)
        if finite.all():
            return r
        counts["penalties"] += 1
        _log.debug("calibrate: %d non-finite residuals at %s, penalty substituted",
                   int((~finite).sum()), x)
        return np.where(finite, r, penalty_vec)

    def jacobian(x):
        counts["jacobians"] += 1
        J, penalties = _jacobian(cls, x, lo, hi, held)
        counts["penalties"] += penalties
        return J

    r = residual_vector(x0, lambda model: residuals(model, surface, grid_spec))
    # the solver's first call is at the start, and trial points can repeat (a
    # step that rounds to nothing)
    values = {x0.tobytes(): r}
    trace = [float(r @ r)]

    def fun(x):
        key = x.tobytes()
        if key not in values:
            values[key] = residual_vector(x)
        return values[key].copy()

    # imported per fit, not with the module: it keeps about 23 MB and 0.2 s of
    # start-up off every process that only prices
    from scipy.optimize import least_squares

    # ftol (relative cost change) is the operative criterion; the tiny gtol
    # only catches exactly stationary starts where ftol can never fire.
    # errstate silences scipy's internal divide-by-zero chatter at zero cost.
    with np.errstate(divide="ignore", invalid="ignore"):
        res = least_squares(fun, x0, jac=jacobian, bounds=(lo, hi), method="trf",
                            ftol=1e-8, xtol=None, gtol=1e-14)
    trace.append(2.0 * float(res.cost))   # scipy cost is half the SSE

    final = cls.from_flat(res.x)
    prices = _model_prices(final, surface, grid_spec)
    r = _weighted(surface, prices)
    metrics = _iv_errors(surface, prices)
    return CalibrationResult(params=final, objective=float(r @ r),
                             per_quote_residuals=r, mape_pct=metrics.mape_pct,
                             rmse=metrics.rmse, n_excluded=metrics.n_excluded,
                             n_residuals=counts["residuals"],
                             n_jacobians=counts["jacobians"], n_penalties=counts["penalties"],
                             n_anchors=held.n_anchors, trace=trace,
                             stagnated=res.status == 0)


class _HeldSlices:
    """One FrozenSlice per tenor, held across a calibration call. A tenor
    re-anchors at the model it is asked to price only when that model's grid
    half-width moves from the held one by more than GRID_MOVE_RTOL relative, or
    its left edge x1 by more than GRID_MOVE_RTOL held half-widths; every model
    is checked, because the width, which goes as sqrt(c4), has a kink where a
    Kou side loses its weight (p = 1). The held tenors are priced together by
    `price_frozen`: one exponent call per model on their live nodes."""

    def __init__(self, surface: QuoteSurface, grid_spec: GridSpec):
        self.surface, self.grid_spec = surface, grid_spec
        self.slices = [None] * len(surface.slices)
        self.n_anchors = 0

    def moved(self, i: int, model: ModelParams) -> bool:
        """Whether model's grid for tenor i is past the re-anchor rule (or none is held)."""
        frozen, sl = self.slices[i], self.surface.slices[i]
        if frozen is None:
            return True
        grid, width = build_grid(model, sl.ctx, sl.t, self.grid_spec), frozen.grid.alpha_bar
        return (abs(grid.alpha_bar / width - 1.0) > GRID_MOVE_RTOL
                or abs(grid.x1 - frozen.grid.x1) > GRID_MOVE_RTOL * width)

    def at(self, i: int, model: ModelParams) -> FrozenSlice:
        """Tenor i's held slice, re-anchored at model first if its grid moved."""
        if self.moved(i, model):
            sl = self.surface.slices[i]
            self.slices[i] = FrozenSlice.at(model, sl.ctx, sl.t, sl.strikes, sl.is_calls,
                                            self.grid_spec)
            self.n_anchors += 1
        return self.slices[i]

    def residuals(self, model: ModelParams) -> np.ndarray:
        """`residuals` of model priced on the held slices, anchored in tenor order."""
        frozen = [self.at(i, model) for i in range(len(self.slices))]
        prices = price_frozen(frozen, [[model]] * len(frozen))
        return _weighted(self.surface, [p[0] for p in prices])


def _jacobian(cls, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              held: _HeldSlices) -> tuple[np.ndarray, int]:
    """Forward-difference Jacobian of `residuals` at x and its penalty count.

    Steps follow SciPy's 2-point rule, FD_STEP sign(x) max(1, |x|), flipped
    where they would leave the bounds. Each tenor prices the base and every
    bumped model on its held slice, re-anchored at x if x's grid moved; one
    `price_frozen` call prices all tenors, with one exponent call per model on
    their live nodes and one matmul per tenor. A bumped model whose grid moves
    past the held one is differenced through full slice pricings instead. A
    tenor whose base cannot be priced gets zero rows and stays out of that
    call, and non-finite entries are zeroed; each counts as a penalty.
    """
    step = FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    step = np.where((x + step < lo) | (x + step > hi), -step, step)
    x_bumped = x + np.diag(step)
    dx = np.diag(x_bumped) - x          # the steps as represented
    base = cls.from_flat(x)
    bumped = [cls.from_flat(row) for row in x_bumped]
    slices, penalties = held.surface.slices, 0
    blocks = [np.zeros((sl.strikes.size, x.size)) for sl in slices]
    priced = []     # (tenor, held slice, models priced on it, moved mask, base's full prices)
    for i, sl in enumerate(slices):
        try:
            frozen = held.at(i, base)
            moved = np.array([held.moved(i, m) for m in bumped])
            p0 = sl.model_prices(base, held.grid_spec) if moved.any() else None
        except PRICING_ERRORS as exc:
            penalties += 1
            _log.debug("jacobian: tenor %g cannot be priced, rows zeroed: %s", sl.t, exc)
            continue
        priced.append((i, frozen, [base] + [m for m, mv in zip(bumped, moved) if not mv],
                       moved, p0))
    held_prices = price_frozen([p[1] for p in priced], [p[2] for p in priced])
    for (i, _, _, moved, p0), prices in zip(priced, held_prices):
        sl = slices[i]
        diffs = np.zeros((x.size, sl.strikes.size))
        diffs[~moved] = prices[1:] - prices[0]
        for j in np.flatnonzero(moved):
            try:
                diffs[j] = sl.model_prices(bumped[j], held.grid_spec) - p0
            except PRICING_ERRORS as exc:
                diffs[j] = np.nan
                _log.debug("jacobian: tenor %g column %d cannot be priced, zeroed: %s", sl.t, j, exc)
        block = np.sqrt(sl.weights)[:, None] * diffs.T / dx
        bad = ~np.isfinite(block)
        penalties += int(bad.any(axis=0).sum())
        block[bad] = 0.0
        blocks[i] = block
    # Fortran order even with zeroed tenors: SciPy's steps depend on J's layout
    return np.asfortranarray(np.concatenate(blocks)), penalties


def _iv_errors(surface: QuoteSurface, prices: Sequence[np.ndarray]) -> ErrorMetrics:
    """error_metrics from each tenor's model prices, all inverted by one Newton iteration."""
    slices = surface.slices
    k, v, c = (np.concatenate(col) for col in zip(*((sl.strikes, p, sl.is_calls)
                                                    for sl, p in zip(slices, prices))))
    index = np.repeat(np.arange(len(slices)), [sl.strikes.size for sl in slices])
    ivs, failures = _newton([(sl.ctx, sl.t) for sl in slices], index, k, v, c)
    ok = failures == 0
    if not ok.any():
        raise ValueError("no quote could be inverted to an implied volatility")
    iv_mkt = np.concatenate([sl.ivs for sl in slices])[ok]
    err = ivs[ok] - iv_mkt
    return ErrorMetrics(mape_pct=100.0 * float(np.mean(np.abs(err) / iv_mkt)),
                        rmse=float(np.sqrt(np.mean(err ** 2))), n_excluded=int((~ok).sum()))


def error_metrics(model: ModelParams, surface: QuoteSurface,
                  grid_spec: GridSpec = GridSpec()) -> ErrorMetrics:
    """Surface-wide IV errors: MAPE in percent, RMSE in absolute IV units.

    Quotes whose model price cannot be inverted are excluded and counted.
    """
    return _iv_errors(surface, _model_prices(model, surface, grid_spec))


# ---------------------------------------------------------------------------
# Synthetic surfaces (round-trip calibration and CLI support)
# ---------------------------------------------------------------------------

def synthetic_surface(model: ModelParams, spot: float, rate: float, div_yield: float,
                      maturities: Sequence[float], log_moneyness: Sequence[float],
                      grid_spec: GridSpec = GridSpec()) -> QuoteSurface:
    """Noiseless OTM surface priced from a model: puts below the forward, calls
    above. The tenors are priced in turn, up to the first with a quote outside
    the inverter's bracket; one implied_vol call then inverts every tenor priced
    (raising for that one), and each quote is built once."""
    ctx = MarketContext(spot=spot, rate=rate, div_yield=div_yield)
    ts, moneyness = sorted(float(t) for t in maturities), sorted(log_moneyness)
    strikes, is_call, prices = [], [], []
    for t in ts:
        fwd = ctx.forward(t)
        strikes.append(np.array([fwd * math.exp(m) for m in moneyness]))
        is_call.append(strikes[-1] >= fwd)
        prices.append(price_strike_slice(model, ctx, t, strikes[-1], is_call[-1], grid_spec))
        if not _bracketed(ctx, t, strikes[-1], prices[-1], is_call[-1]):
            break   # implied_vol raises for this tenor, as it would alone
    ivs = implied_vol(ctx, np.array(ts[:len(prices)])[:, None], np.array(strikes),
                      np.array(prices), np.array(is_call))
    slices = [MaturitySlice(t, ctx, tuple(Quote(t, *q) for q in zip(
                  k.tolist(), c.tolist(), p.tolist(), v.tolist())))
              for t, k, c, p, v in zip(ts, strikes, is_call, prices, ivs)]
    return QuoteSurface(spot=spot, slices=slices)
