"""Black-Scholes pricing, the vega weight kernel, and implied-volatility inversion
on scalars or broadcasting arrays (the maturity is a scalar); scalars in give a float out."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
# Imported with the module on purpose, unlike calibration's optimizer: deferring
# it saves start-up, but then glibc trims the heap slack this import happens to
# leave, and strike-slice pricing re-faults its NumPy temporaries on every call
# (on a 2-core x86_64 host, a 64-command CLI smile pass took 39k minor page
# faults instead of 0-2, and 16% longer).
from scipy.special import ndtr

from svjd.models import MarketContext, _require_finite, _require_real

__all__ = ["Quote", "bs_price", "bs_vega", "bs_vega_greek", "implied_vol",
           "no_arbitrage_bounds"]

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


def _d1(log_sk, t: float, drift: float, vol):
    """d1 from log(S/K) and r - q; every price and vega reads it from here."""
    return (log_sk + t * (drift + 0.5 * vol * vol)) / (vol * math.sqrt(t))


def _call_put(fwd: float, disc_k, sign, t: float, vol, d1):
    """The call formula; the put is the call with d1, d2 and the result negated (sign -1)."""
    d2 = d1 - vol * math.sqrt(t)
    return sign * (fwd * ndtr(sign * d1) - disc_k * ndtr(sign * d2))


def _vega(spot: float, t: float, d1):
    return spot * (_INV_SQRT_2PI * np.exp(-0.5 * d1 * d1)) * math.sqrt(t)


def bs_price(ctx: MarketContext, t: float, strike, vol, is_call):
    """Black-Scholes price with continuous rate and dividend yield."""
    _require_real("t", t, positive=True)
    if np.any(vol <= 0):
        raise ValueError("vol must be positive")
    d1 = _d1(np.log(ctx.spot / strike), t, ctx.rate - ctx.div_yield, vol)
    fwd, disc_k = ctx.spot * math.exp(-ctx.div_yield * t), strike * math.exp(-ctx.rate * t)
    return _out(_call_put(fwd, disc_k, np.where(is_call, 1.0, -1.0), t, vol, d1))


def bs_vega(ctx: MarketContext, t: float, strike, vol):
    """Weight kernel S0 * pdf(d1) * sqrt(t) used for vega-weighted calibration.

    Deliberately carries no dividend discounting; see bs_vega_greek for the
    derivative of bs_price with respect to vol.
    """
    _require_real("t", t, positive=True)
    if np.any(vol <= 0):
        raise ValueError("vol must be positive")
    d1 = _d1(np.log(ctx.spot / strike), t, ctx.rate - ctx.div_yield, vol)
    return _out(_vega(ctx.spot, t, d1))


def bs_vega_greek(ctx: MarketContext, t: float, strike, vol):
    """dPrice/dVol, including the exp(-q t) factor."""
    _require_real("t", t, positive=True)   # before exp(-q t): it overflows for q < 0, t = inf
    return math.exp(-ctx.div_yield * t) * bs_vega(ctx, t, strike, vol)


def no_arbitrage_bounds(ctx: MarketContext, t: float, strike, is_call) -> tuple:
    """(lower, upper) static bounds for a European option price."""
    _require_real("t", t, positive=True)   # implied_vol's too: _invert calls this first
    fwd = ctx.spot * math.exp(-ctx.div_yield * t)
    disc_k = strike * math.exp(-ctx.rate * t)
    lower = np.maximum(np.where(is_call, fwd - disc_k, disc_k - fwd), 0.0)
    return _out(lower), _out(np.where(is_call, fwd, disc_k))


def _invert(ctx: MarketContext, t: float, strike, price, is_call) -> tuple:
    """Implied vols of equal-length 1-d arrays, by one safeguarded Newton iteration
    over the unconverged elements, and per element 0 or its _FAILURES code (vol nan)."""
    sigma = np.full(strike.shape, np.nan)
    lo_bound, hi_bound = no_arbitrage_bounds(ctx, t, strike, is_call)
    failure = np.where((lo_bound < price) & (price < hi_bound), 0, _OUTSIDE)
    low = (failure == 0) & (bs_price(ctx, t, strike, VOL_LO, is_call) > price)
    sigma[low] = VOL_LO  # price below the bracket: vanishing vol
    failure[(failure == 0) & ~low & (bs_price(ctx, t, strike, VOL_HI, is_call) < price)] = _ABOVE

    i = np.flatnonzero((failure == 0) & ~low)
    p, sign, log_sk = price[i], np.where(is_call[i], 1.0, -1.0), np.log(ctx.spot / strike[i])
    disc_k, disc_q = strike[i] * math.exp(-ctx.rate * t), math.exp(-ctx.div_yield * t)
    drift = ctx.rate - ctx.div_yield   # only the vol changes between iterations
    lo, hi = np.full(i.size, VOL_LO), np.full(i.size, VOL_HI)
    guess = np.sqrt(2.0 * np.abs(log_sk + drift * t) / t)
    s = np.clip(np.where(guess == 0.0, 0.2, guess), lo, hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER):
            if not i.size:
                break
            d1 = _d1(log_sk, t, drift, s)
            f = _call_put(ctx.spot * disc_q, disc_k, sign, t, s, d1) - p
            up = f > 0
            hi, lo = np.where(up, s, hi), np.where(up, lo, s)
            vega = disc_q * _vega(ctx.spot, t, d1)
            step = f / vega
            # price converged; require vol-space convergence too, unless vega or
            # the remaining bracket is too small for the price to resolve it
            vol_res = 1e-9 * np.maximum(s, 1e-2)
            done = (np.abs(f) < 1e-10 * ctx.spot) & (
                (vega <= 1e-12) | (np.abs(step) < vol_res) | (hi - lo < vol_res))
            candidate = s - step
            s_next = np.where((vega > 1e-14) & (lo < candidate) & (candidate < hi),
                              candidate, 0.5 * (lo + hi))
            if done.any():
                sigma[i[done]] = s[done]
                keep = ~done
                i, log_sk, disc_k, sign, p, s_next, lo, hi = (
                    a[keep] for a in (i, log_sk, disc_k, sign, p, s_next, lo, hi))
            s = s_next
    failure[i] = _UNCONVERGED
    return sigma, failure


def implied_vol(ctx: MarketContext, t: float, strike, price, is_call):
    """Invert bs_price: safeguarded Newton on [VOL_LO, VOL_HI] with bisection
    fallback, to |price error| < 1e-10 S0 and a vol step < 1e-9 max(vol, 1e-2).

    Raises for the first element it cannot invert, naming its strike: ValueError
    outside the static no-arbitrage bounds or above VOL_HI, RuntimeError if
    MAX_ITER iterations do not converge.
    """
    strike, price, is_call = np.broadcast_arrays(strike, price, is_call)
    sigma, failure = _invert(ctx, t, strike.ravel(), price.ravel(), is_call.ravel())
    if failure.any():
        j = np.flatnonzero(failure)[0]
        k, p, c = float(strike.flat[j]), float(price.flat[j]), bool(is_call.flat[j])
        lo, hi = no_arbitrage_bounds(ctx, t, k, c)
        error, message = _FAILURES[failure[j]]
        raise error(message.format(p=p, k=k, lo=lo, hi=hi))
    return _out(sigma.reshape(strike.shape))
