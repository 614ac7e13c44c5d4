"""Black-Scholes pricing, the vega weight kernel, and implied-volatility inversion
on scalars or broadcasting arrays; scalars in give a float out. Pricing takes one
maturity per call, inversion one maturity per quote, so quotes of several tenors
are inverted by one Newton iteration."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from svjd.models import MarketContext, _require_finite, _require_real

__all__ = ["Quote", "bs_price", "bs_vega", "implied_vol", "no_arbitrage_bounds"]

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# inversion bracket and convergence targets
VOL_LO = 1e-4
VOL_HI = 5.0
MAX_ITER = 200

# why _invert could not invert an element: failure code -> (exception, message)
_FAILURES = {1: (ValueError, "price {p} at strike {k} outside no-arbitrage bounds ({lo}, {hi})"),
             2: (ValueError, f"price {{p}} at strike {{k}} requires vol above {VOL_HI}"),
             3: (RuntimeError, "implied volatility did not converge at strike {k}")}
_OUTSIDE, _ABOVE, _UNCONVERGED = _FAILURES


def _out(x):
    """A float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class Quote:
    """One observed option quote; at least one of price / iv must be present."""
    maturity: float
    strike: float
    is_call: bool
    price: Optional[float] = None
    iv: Optional[float] = None

    def __post_init__(self):
        _require_finite(self, ("maturity", "strike"), positive=True)
        if self.price is None and self.iv is None:
            raise ValueError("quote needs a price or an implied volatility")
        # signs are left to the slice and the CLI's arbitrage bounds
        _require_finite(self, [name for name in ("price", "iv") if getattr(self, name) is not None])


def ndtr(x):
    """The standard normal CDF. The first call binds SciPy's ufunc over this
    name, so importing the module loads NumPy only (`scipy.special` adds about
    0.3 s and 24 MB to a cold start on a 2-core x86-64 host) and later calls
    run no import statement.
    The heap slack that pricing needs comes from the allocator warm-up in
    `svjd/__init__.py`, not from this import."""
    global ndtr
    from scipy.special import ndtr
    return ndtr(x)


def _d1(log_sk, t, root_t, drift, vol):
    """d1 from log(S/K), t, sqrt(t) and r - q; every price and vega reads it from here."""
    return (log_sk + t * (drift + 0.5 * vol * vol)) / (vol * root_t)


def _call_put(fwd, disc_k, sign, root_t, vol, d1):
    """The call formula; the put is the call with d1, d2 and the result negated (sign -1)."""
    d2 = d1 - vol * root_t
    return sign * (fwd * ndtr(sign * d1) - disc_k * ndtr(sign * d2))


def _vega(spot, root_t, d1):
    return spot * (_INV_SQRT_2PI * np.exp(-0.5 * d1 * d1)) * root_t


def _tenor(ctx: MarketContext, t: float) -> tuple:
    """spot, t, sqrt(t), exp(-r t), exp(-q t) and r - q of one maturity."""
    return (ctx.spot, t, math.sqrt(t), math.exp(-ctx.rate * t), math.exp(-ctx.div_yield * t),
            ctx.rate - ctx.div_yield)


def _price(tenor, strike, vol, is_call):
    """bs_price on one _tenor, or on its six rows with one entry per quote."""
    spot, t, root_t, disc_r, disc_q, drift = tenor
    d1 = _d1(np.log(spot / strike), t, root_t, drift, vol)
    return _call_put(spot * disc_q, strike * disc_r, np.where(is_call, 1.0, -1.0), root_t, vol, d1)


def _bounds(tenor, strike, is_call) -> tuple:
    """no_arbitrage_bounds on one _tenor, or on its rows."""
    spot, _, _, disc_r, disc_q, _ = tenor
    fwd, disc_k = spot * disc_q, strike * disc_r
    lower = np.maximum(np.where(is_call, fwd - disc_k, disc_k - fwd), 0.0)
    return lower, np.where(is_call, fwd, disc_k)


def bs_price(ctx: MarketContext, t: float, strike, vol, is_call):
    """Black-Scholes price with continuous rate and dividend yield."""
    _require_real("t", t, positive=True)
    if not np.all((vol > 0) & (vol < math.inf)):     # a nan vol fails both
        raise ValueError("vol must be finite and positive")
    return _out(_price(_tenor(ctx, t), strike, vol, is_call))


def bs_vega(ctx: MarketContext, t: float, strike, vol):
    """Weight kernel S0 * pdf(d1) * sqrt(t) used for vega-weighted calibration.

    Deliberately carries no dividend discounting, so it is exp(q t) times the
    derivative of bs_price with respect to vol.
    """
    _require_real("t", t, positive=True)
    if not np.all((vol > 0) & (vol < math.inf)):     # a nan vol fails both
        raise ValueError("vol must be finite and positive")
    root_t = math.sqrt(t)
    d1 = _d1(np.log(ctx.spot / strike), t, root_t, ctx.rate - ctx.div_yield, vol)
    return _out(_vega(ctx.spot, root_t, d1))


def no_arbitrage_bounds(ctx: MarketContext, t: float, strike, is_call) -> tuple:
    """(lower, upper) static bounds for a European option price."""
    _require_real("t", t, positive=True)
    lower, upper = _bounds(_tenor(ctx, t), strike, is_call)
    return _out(lower), _out(upper)


def _bracket(tenor, strike, price, is_call) -> tuple:
    """Per quote 0, _OUTSIDE (price outside the static no-arbitrage bounds) or
    _ABOVE (price above the VOL_HI price), and whether the price is below the
    VOL_LO price. `tenor` is one _tenor, or its six rows with one entry per quote."""
    lower, upper = _bounds(tenor, strike, is_call)
    failure = np.where((lower < price) & (price < upper), 0, _OUTSIDE)
    low = (failure == 0) & (_price(tenor, strike, VOL_LO, is_call) > price)
    failure[(failure == 0) & ~low & (_price(tenor, strike, VOL_HI, is_call) < price)] = _ABOVE
    return failure, low


def _bracketed(ctx: MarketContext, t: float, strike, price, is_call) -> bool:
    """Whether every quote of one maturity passes _invert's bracket checks, so
    only the Newton stage can still fail it."""
    return not _bracket(_tenor(ctx, t), strike, price, is_call)[0].any()


def _invert(ctx: MarketContext, t, strike, price, is_call) -> tuple:
    """Implied vols of equal-length 1-d arrays with one maturity per quote (`t`
    a scalar or such an array), and per quote 0 or its _FAILURES code (vol nan).

    Each distinct maturity's sqrt(t) and discount factors are computed once, as
    the scalar formulas compute them. After the bracket checks one safeguarded
    Newton iteration runs over the unconverged quotes of every tenor; each
    quote's steps are elementwise, so its vol does not depend on the others.
    """
    if np.ndim(t):
        maturities, index = np.unique(t, return_inverse=True)
        maturities = maturities.tolist()
    else:
        maturities, index = [t], np.zeros(strike.size, dtype=np.intp)
    for m in maturities:
        _require_real("t", m, positive=True)
    return _newton([(ctx, m) for m in maturities], index, strike, price, is_call)


def _newton(tenors, index, strike, price, is_call) -> tuple:
    """_invert with quote j of tenor tenors[index[j]], a (ctx, t) pair: the
    bracket checks, then the iteration."""
    table = np.array([_tenor(ctx, t) for ctx, t in tenors]).reshape(-1, 6)
    tenor = np.take(table.T, index, axis=1)     # six rows, one entry per quote
    sigma = np.full(strike.shape, np.nan)
    failure, low = _bracket(tenor, strike, price, is_call)
    sigma[low] = VOL_LO  # price below the bracket: vanishing vol

    i = np.flatnonzero((failure == 0) & ~low)
    spot, t, root_t, disc_r, disc_q, drift = tenor[:, i]
    k, log_sk = strike[i], np.log(spot / strike[i])
    # the quotes' constants as rows of one array, so that dropping the converged
    # quotes is one gather; only the vol and its bracket change between iterations
    quotes = np.array([price[i], np.where(is_call[i], 1.0, -1.0), log_sk, k * disc_r,
                       spot * disc_q, 1e-10 * spot, spot, t, root_t, drift, disc_q])
    guess = np.sqrt(2.0 * np.abs(log_sk + drift * t) / t)
    vols = np.array([np.full(i.size, VOL_LO), np.full(i.size, VOL_HI), guess])
    lo, hi, s = vols
    np.clip(np.where(guess == 0.0, 0.2, guess), lo, hi, out=s)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            if not i.size:
                break
            p, sign, log_sk, disc_k, fwd, tol, spot, t, root_t, drift, disc_q = quotes
            lo, hi, s = vols
            d1 = _d1(log_sk, t, root_t, drift, s)
            f = _call_put(fwd, disc_k, sign, root_t, s, d1) - p
            up = f > 0
            np.copyto(hi, s, where=up)
            np.copyto(lo, s, where=~up)
            vega = disc_q * _vega(spot, root_t, d1)
            step = f / vega
            # price converged; require vol-space convergence too, unless vega or
            # the remaining bracket is too small for the price to resolve it
            vol_res = 1e-9 * np.maximum(s, 1e-2)
            done = (np.abs(f) < tol) & (
                (vega <= 1e-12) | (np.abs(step) < vol_res) | (hi - lo < vol_res))
            candidate = s - step
            s_next = np.where((vega > 1e-14) & (lo < candidate) & (candidate < hi),
                              candidate, 0.5 * (lo + hi))
            if done.any():
                sigma[i[done]] = s[done]
                keep = ~done
                i, quotes, vols = i[keep], quotes[:, keep], vols[:, keep]
                s_next = s_next[keep]
            vols[2] = s_next
    failure[i] = _UNCONVERGED
    return sigma, failure


def implied_vol(ctx: MarketContext, t, strike, price, is_call):
    """Invert bs_price: safeguarded Newton on [VOL_LO, VOL_HI] with bisection
    fallback, to |price error| < 1e-10 S0 and a vol step < 1e-9 max(vol, 1e-2).
    The maturity broadcasts with the quotes like the other inputs, so one call
    inverts several tenors.

    Raises for the first element it cannot invert, naming its strike: ValueError
    outside the static no-arbitrage bounds or above VOL_HI, RuntimeError if
    MAX_ITER iterations do not converge.
    """
    strike, price, is_call, each_t = np.broadcast_arrays(strike, price, is_call, t)
    sigma, failure = _invert(ctx, t if np.ndim(t) == 0 else each_t.ravel(), strike.ravel(),
                             price.ravel(), is_call.ravel())
    if failure.any():
        j = np.flatnonzero(failure)[0]
        k, p, c = float(strike.flat[j]), float(price.flat[j]), bool(is_call.flat[j])
        lo, hi = no_arbitrage_bounds(ctx, float(each_t.flat[j]), k, c)
        error, message = _FAILURES[failure[j]]
        raise error(message.format(p=p, k=k, lo=lo, hi=hi))
    return _out(sigma.reshape(strike.shape))
