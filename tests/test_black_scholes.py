"""Black-Scholes pricing, vega kernel, implied-vol inversion."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr

import svjd.black_scholes
from svjd.black_scholes import (
    VOL_HI,
    VOL_LO,
    Quote,
    _invert,
    bs_price,
    bs_vega,
    implied_vol,
    no_arbitrage_bounds,
)
from svjd.models import HestonParams, HKDEParams, KouJumpParams, MarketContext
from svjd.proj import price_strike_slice

from conftest import ALL_ROWS, PARAM_ROWS


@pytest.fixture
def ctx():
    return MarketContext(spot=100.0, rate=0.05, div_yield=0.0)


def test_bs_price_frozen_reference(ctx):
    # frozen from a 40-digit evaluation of the closed form
    assert bs_price(ctx, 1.0, 100.0, 0.2, True) == pytest.approx(10.4505835721855668, rel=1e-14)


def test_bs_price_zero_vol_limit_is_forward_intrinsic():
    ctx = MarketContext(spot=100.0, rate=0.03, div_yield=0.01)
    t, k = 2.0, 80.0
    intrinsic = 100.0 * math.exp(-0.01 * t) - k * math.exp(-0.03 * t)
    assert bs_price(ctx, t, k, 1e-8, True) == pytest.approx(intrinsic, abs=1e-10)


def test_bs_put_call_parity_exact():
    ctx = MarketContext(spot=100.0, rate=0.04, div_yield=0.02)
    for k in (70.0, 100.0, 130.0):
        c = bs_price(ctx, 0.75, k, 0.35, True)
        p = bs_price(ctx, 0.75, k, 0.35, False)
        fwd_leg = 100.0 * math.exp(-0.02 * 0.75) - k * math.exp(-0.04 * 0.75)
        assert c - p == pytest.approx(fwd_leg, abs=1e-12)


def test_bs_vega_frozen_reference(ctx):
    # frozen from a 40-digit evaluation of S0 pdf(d1) sqrt(T)
    assert bs_vega(ctx, 0.5, 110.0, 0.3) == pytest.approx(27.5020387153017419, rel=1e-14)


def test_bs_vega_positive_and_atm_forward_maximal(ctx):
    vol, t = 0.25, 0.5
    fwd_strike = ctx.forward(t) * math.exp(0.5 * vol * vol * t)  # d1 = 0 there
    strikes = np.linspace(60, 160, 101)
    vegas = [bs_vega(ctx, t, k, vol) for k in strikes]
    assert all(v > 0 for v in vegas)
    assert bs_vega(ctx, t, fwd_strike, vol) >= max(vegas)


def test_bs_vega_omits_the_dividend_discount():
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=0.013)
    t, k, vol, h = 0.5, 110.0, 0.3, 1e-5
    fd = (bs_price(ctx, t, k, vol + h, True) - bs_price(ctx, t, k, vol - h, True)) / (2 * h)
    # the weighting kernel intentionally omits exp(-q t)
    assert bs_vega(ctx, t, k, vol) == pytest.approx(fd * math.exp(0.013 * t), rel=1e-6)


@pytest.mark.parametrize("bad", [0.0, -0.2, math.nan, math.inf])
@pytest.mark.parametrize("as_array", [False, True])
def test_bs_price_and_vega_reject_a_vol_that_is_not_finite_and_positive(ctx, bad, as_array):
    # an array vol is rejected if any entry is bad
    vol = np.array([0.2, bad]) if as_array else bad
    strike = np.array([100.0, 110.0]) if as_array else 100.0
    for call in (lambda: bs_price(ctx, 0.5, strike, vol, True),
                 lambda: bs_vega(ctx, 0.5, strike, vol)):
        with pytest.raises(ValueError, match="^vol must be finite and positive$"):
            call()


def test_implied_vol_round_trip_frozen_case(ctx):
    price = bs_price(ctx, 1.0, 100.0, 0.2, True)
    assert implied_vol(ctx, 1.0, 100.0, price, True) == pytest.approx(0.2, abs=1e-8)


def test_implied_vol_round_trip_grid(ctx):
    for vol in (0.05, 0.2, 0.8, 1.6, 3.0):
        for m in (0.5, 0.8, 1.0, 1.25, 2.0):
            for is_call in (True, False):
                k = 100.0 * m
                price = bs_price(ctx, 0.7, k, vol, is_call)
                lo, hi = no_arbitrage_bounds(ctx, 0.7, k, is_call)
                if price - lo < 1e-9 * ctx.spot or hi - price < 1e-9 * ctx.spot:
                    continue   # price pinned at a bound carries no vol information
                assert implied_vol(ctx, 0.7, k, price, is_call) == pytest.approx(vol, rel=1e-7)


@settings(max_examples=60, deadline=None)
@given(vol=st.floats(0.05, 3.0), m=st.floats(0.5, 2.0), t=st.floats(0.05, 3.0))
def test_implied_vol_round_trip_property(vol, m, t):
    ctx = MarketContext(spot=100.0, rate=0.02, div_yield=0.01)
    k = 100.0 * m
    is_call = k >= ctx.forward(t)
    price = bs_price(ctx, t, k, vol, is_call)
    lo, hi = no_arbitrage_bounds(ctx, t, k, is_call)
    if price - lo > 1e-9 * ctx.spot and hi - price > 1e-9 * ctx.spot:
        assert implied_vol(ctx, t, k, price, is_call) == pytest.approx(vol, rel=1e-7)


def test_implied_vol_monotone_in_price(ctx):
    k, t = 110.0, 0.5
    prices = np.linspace(2.0, 20.0, 25)
    ivs = [implied_vol(ctx, t, k, p, True) for p in prices]
    assert all(b > a for a, b in zip(ivs, ivs[1:]))


def test_implied_vol_near_lower_bound_no_crash(ctx):
    # a whisker of time value on a deep-ITM call maps to a small vol, no crash
    lo, _ = no_arbitrage_bounds(ctx, 1.0, 70.0, True)
    sigma = implied_vol(ctx, 1.0, 70.0, lo + 1e-9, True)
    assert VOL_LO <= sigma < 0.1


def test_implied_vol_rejects_out_of_bounds(ctx):
    with pytest.raises(ValueError):
        implied_vol(ctx, 1.0, 100.0, -0.5, True)
    with pytest.raises(ValueError):
        implied_vol(ctx, 1.0, 100.0, 101.0, True)


def test_quote_validation():
    with pytest.raises(ValueError):
        Quote(maturity=1.0, strike=100.0, is_call=True)
    with pytest.raises(ValueError):
        Quote(maturity=-1.0, strike=100.0, is_call=True, price=5.0)
    q = Quote(maturity=1.0, strike=100.0, is_call=True, iv=0.3)
    assert q.price is None and q.iv == 0.3


@pytest.mark.parametrize("name", ["maturity", "strike"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0, True, "1", None])
def test_quote_rejects_bad_maturity_or_strike_by_name(name, bad):
    fields = {"maturity": 1.0, "strike": 100.0, "is_call": True, "price": 5.0, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive; got {bad}$"):
        Quote(**fields)


@pytest.mark.parametrize("name", ["price", "iv"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"])
def test_quote_rejects_a_price_or_iv_that_is_not_a_finite_number(name, bad):
    # an inf price used to be kept as the quote's market price, and True as 1.0
    fields = {"maturity": 1.0, "strike": 110.0, "is_call": True, "price": 5.0, "iv": 0.2}
    with pytest.raises(ValueError, match=f"^{name} must be finite; got {bad}$"):
        Quote(**{**fields, name: bad})
    # signs are checked later: by the slice's IV check and the CLI's arbitrage bounds
    assert getattr(Quote(**{**fields, name: -1.0}), name) == -1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0, True, "1", None])
@pytest.mark.parametrize("rate", [0.05, -0.01])   # r < 0 and t = inf used to overflow in exp
def test_maturity_rejected_by_name(bad, rate):
    # a nan maturity used to price as nan and be blamed on the price in implied_vol
    ctx = MarketContext(spot=100.0, rate=rate)
    message = f"^t must be finite and positive; got {bad}$"
    for call in (lambda: bs_price(ctx, bad, 100.0, 0.2, True),
                 lambda: bs_vega(ctx, bad, 100.0, 0.2),
                 lambda: no_arbitrage_bounds(ctx, bad, 100.0, True),
                 lambda: implied_vol(ctx, bad, 100.0, 5.0, True),
                 lambda: implied_vol(ctx, bad, np.array([90.0, 110.0]), np.array([5.0, 4.0]),
                                     np.array([False, True]))):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("cast", [np.float64, np.int64])
def test_numpy_scalar_maturity_and_strike_accepted(cast):
    ctx = MarketContext(spot=100.0, rate=0.05)
    t, k = cast(1), cast(110)
    assert Quote(maturity=t, strike=k, is_call=True, price=5.0).maturity == 1.0
    assert bs_price(ctx, t, k, 0.2, True) == bs_price(ctx, 1.0, 110.0, 0.2, True)


# ---------------------------------------------------------------------------
# Array form against the scalar inverter it replaced
# ---------------------------------------------------------------------------

def _reference_price(ctx, t, strike, vol, is_call):
    fwd = ctx.spot * math.exp(-ctx.div_yield * t)
    disc_k = strike * math.exp(-ctx.rate * t)
    d1 = ((math.log(ctx.spot / strike) + t * (ctx.rate - ctx.div_yield + 0.5 * vol * vol))
          / (vol * math.sqrt(t)))
    d2 = d1 - vol * math.sqrt(t)
    cdf = lambda x: 0.5 * math.erfc(-x / math.sqrt(2.0))
    if is_call:
        return fwd * cdf(d1) - disc_k * cdf(d2)
    return disc_k * cdf(-d2) - fwd * cdf(-d1)


def _reference_vega(ctx, t, strike, vol):
    """S0 pdf(d1) sqrt(t) in scalar math, the form of the weight kernel."""
    d1 = ((math.log(ctx.spot / strike) + t * (ctx.rate - ctx.div_yield + 0.5 * vol * vol))
          / (vol * math.sqrt(t)))
    return ctx.spot * (math.exp(-0.5 * d1 * d1) / math.sqrt(2.0 * math.pi)) * math.sqrt(t)


def _reference_implied_vol(ctx, t, strike, price, is_call):
    """The scalar safeguarded Newton inverter that the array form replaced."""
    fwd = ctx.spot * math.exp(-ctx.div_yield * t)
    disc_k = strike * math.exp(-ctx.rate * t)
    if is_call:
        lo_bound, hi_bound = max(fwd - disc_k, 0.0), fwd
    else:
        lo_bound, hi_bound = max(disc_k - fwd, 0.0), disc_k
    if not lo_bound < price < hi_bound:
        raise ValueError(f"price {price} outside no-arbitrage bounds ({lo_bound}, {hi_bound})")
    tol = 1e-10 * ctx.spot
    lo, hi = VOL_LO, VOL_HI
    if _reference_price(ctx, t, strike, lo, is_call) - price > 0:
        return lo
    if _reference_price(ctx, t, strike, hi, is_call) - price < 0:
        raise ValueError(f"price {price} requires vol above {VOL_HI}")
    sigma = min(max(math.sqrt(2.0 * abs(math.log(ctx.spot / strike)
                                        + (ctx.rate - ctx.div_yield) * t) / t) or 0.2, lo), hi)
    for _ in range(200):
        f = _reference_price(ctx, t, strike, sigma, is_call) - price
        if f > 0:
            hi = sigma
        else:
            lo = sigma
        vega = math.exp(-ctx.div_yield * t) * _reference_vega(ctx, t, strike, sigma)
        if abs(f) < tol:
            vol_res = 1e-9 * max(sigma, 1e-2)
            if vega <= 1e-12 or abs(f / vega) < vol_res or hi - lo < vol_res:
                return sigma
        if vega > 1e-14:
            candidate = sigma - f / vega
            if lo < candidate < hi:
                sigma = candidate
                continue
        sigma = 0.5 * (lo + hi)
    raise RuntimeError("implied volatility did not converge")


def _check_slice_against_reference(ctx, t, strikes, prices, flags):
    """implied_vol on the whole slice equals the scalar reference per quote to
    1e-10, and raises for the first quote the reference cannot invert."""
    ref, first_error = [], None
    for k, v, c in zip(strikes, prices, flags):
        try:
            ref.append(_reference_implied_vol(ctx, t, float(k), float(v), bool(c)))
        except (ValueError, RuntimeError) as exc:
            ref.append(np.nan)
            first_error = first_error or (float(k), exc)
    ref = np.array(ref)
    vols, failure = _invert(ctx, t, strikes, prices, flags)
    np.testing.assert_array_equal(failure != 0, np.isnan(ref))
    assert np.max(np.abs(vols - ref), initial=0.0, where=failure == 0) <= 1e-10
    if first_error is None:
        assert np.max(np.abs(implied_vol(ctx, t, strikes, prices, flags) - ref)) <= 1e-10
    else:
        k, exc = first_error
        with pytest.raises(type(exc), match=f"at strike {k} "):
            implied_vol(ctx, t, strikes, prices, flags)
    return int(failure.astype(bool).sum())


@pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
def test_implied_vol_slices_match_scalar_reference(t):
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=0.0)
    strikes = np.arange(60.0, 160.25, 0.5)
    flags = strikes >= ctx.forward(t)
    failed = sum(_check_slice_against_reference(
        ctx, t, strikes, price_strike_slice(model, ctx, t, strikes, flags), flags)
        for _, _, model in ALL_ROWS)
    # the known negative-call defect at T = 0.1 (four rows) is the only failure
    assert (failed > 0) == (t == 0.1)


def test_implied_vol_criterion_09_smiles_match_scalar_reference():
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=0.0)
    model, t = PARAM_ROWS["hkde"]["SHOP"], 0.25
    strikes = ctx.spot * np.exp(np.linspace(-0.4, 0.4, 21))
    flags = strikes >= ctx.forward(t)
    h, j = model.heston, model.jumps
    bumped = [model,
              HKDEParams(HestonParams(h.v0, h.theta * 1.5, h.kappa, h.sigma_v, h.rho), j),
              HKDEParams(HestonParams(h.v0, h.theta, h.kappa * 1.5, h.sigma_v, h.rho), j),
              HKDEParams(h, KouJumpParams(j.lam * 1.5, j.p, j.eta1, j.eta2)),
              HKDEParams(HestonParams(h.v0, h.theta, h.kappa, h.sigma_v * 1.5, h.rho), j),
              HKDEParams(h, KouJumpParams(j.lam, j.p, j.eta1 * 0.5, j.eta2))]
    for m in bumped:
        prices = price_strike_slice(m, ctx, t, strikes, flags)
        assert _check_slice_against_reference(ctx, t, strikes, prices, flags) == 0


def test_scalars_in_give_floats_out(ctx):
    price = bs_price(ctx, 0.5, 110.0, 0.3, True)
    lo, hi = no_arbitrage_bounds(ctx, 0.5, 110.0, False)
    for value in (price, bs_vega(ctx, 0.5, 110.0, 0.3), implied_vol(ctx, 0.5, 110.0, price, True),
                  lo, hi):
        assert type(value) is float


def test_array_calls_equal_scalar_calls(ctx):
    strikes = np.array([70.0, 95.0, 100.0, 105.0, 140.0])
    vols = np.array([0.1, 0.25, 0.3, 0.45, 1.2])
    flags = np.array([False, False, True, True, True])
    prices = bs_price(ctx, 0.5, strikes, vols, flags)
    lo, hi = no_arbitrage_bounds(ctx, 0.5, strikes, flags)
    ivs = implied_vol(ctx, 0.5, strikes, prices, flags)
    for i, (k, vol, c) in enumerate(zip(strikes, vols, flags)):
        assert prices[i] == bs_price(ctx, 0.5, k, vol, c)
        assert bs_vega(ctx, 0.5, strikes, vols)[i] == bs_vega(ctx, 0.5, k, vol)
        assert (lo[i], hi[i]) == no_arbitrage_bounds(ctx, 0.5, k, c)
        assert ivs[i] == implied_vol(ctx, 0.5, k, prices[i], c)
    # a scalar price broadcasts against a strike array, keeping its shape
    assert implied_vol(ctx, 0.5, strikes[2:], 5.0, True).shape == (3,)


def test_implied_vol_slice_names_out_of_bounds_strike(ctx):
    strikes = np.array([90.0, 100.0, 110.0, 120.0])
    prices = bs_price(ctx, 0.5, strikes, 0.3, True)
    prices[2] = -1e-6
    with pytest.raises(ValueError, match=r"price -1e-06 at strike 110.0 outside no-arbitrage bounds"):
        implied_vol(ctx, 0.5, strikes, prices, True)


def test_implied_vol_below_bracket_returns_vol_lo(ctx):
    k = ctx.forward(1.0)    # at the money forward, the price at VOL_LO is ~0.4 S0 VOL_LO
    price = 1e-3
    assert no_arbitrage_bounds(ctx, 1.0, k, True)[0] < price < bs_price(ctx, 1.0, k, VOL_LO, True)
    assert implied_vol(ctx, 1.0, k, price, True) == VOL_LO
    vols = implied_vol(ctx, 1.0, np.array([k, 110.0]), np.array([price, 10.0]), True)
    assert vols[0] == VOL_LO
    assert vols[1] == pytest.approx(_reference_implied_vol(ctx, 1.0, 110.0, 10.0, True), abs=1e-10)


def test_implied_vol_above_bracket_raises(ctx):
    price = 0.5 * (bs_price(ctx, 1.0, 100.0, VOL_HI, True) + 100.0)   # below the upper bound
    with pytest.raises(ValueError, match=f"at strike 100.0 requires vol above {VOL_HI}"):
        implied_vol(ctx, 1.0, np.array([90.0, 100.0]), np.array([20.0, price]), True)


def test_implied_vol_reports_no_convergence(ctx, monkeypatch):
    monkeypatch.setattr(svjd.black_scholes, "MAX_ITER", 1)
    strikes = np.array([100.0, 120.0])
    prices = bs_price(ctx, 1.0, strikes, 0.3, True)
    with pytest.raises(RuntimeError, match="did not converge at strike 100.0"):
        implied_vol(ctx, 1.0, strikes, prices, True)


# ---------------------------------------------------------------------------
# The Newton loop against a frozen copy of its earlier form
# ---------------------------------------------------------------------------

def _frozen_price(ctx, t, strike, vol, is_call):
    """bs_price as the loop below called it: d1 built from ctx on every call."""
    d1 = ((np.log(ctx.spot / strike) + t * (ctx.rate - ctx.div_yield + 0.5 * vol * vol))
          / (vol * math.sqrt(t)))
    d2 = d1 - vol * math.sqrt(t)
    sign = np.where(is_call, 1.0, -1.0)
    return sign * (ctx.spot * math.exp(-ctx.div_yield * t) * ndtr(sign * d1)
                   - strike * math.exp(-ctx.rate * t) * ndtr(sign * d2))


def _frozen_vega_greek(ctx, t, strike, vol):
    d1 = ((np.log(ctx.spot / strike) + t * (ctx.rate - ctx.div_yield + 0.5 * vol * vol))
          / (vol * math.sqrt(t)))
    return math.exp(-ctx.div_yield * t) * (
        ctx.spot * (1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * d1 * d1)) * math.sqrt(t))


def _frozen_invert(ctx, t, strike, price, is_call, max_iter):
    """The inverter before d1 was computed once per step: two d1 per iteration and
    seven gathers on every iteration. _invert must return exactly its arrays."""
    sigma = np.full(strike.shape, np.nan)
    lo_bound, hi_bound = no_arbitrage_bounds(ctx, t, strike, is_call)
    failure = np.where((lo_bound < price) & (price < hi_bound), 0, 1)
    low = (failure == 0) & (_frozen_price(ctx, t, strike, VOL_LO, is_call) > price)
    sigma[low] = VOL_LO
    failure[(failure == 0) & ~low & (_frozen_price(ctx, t, strike, VOL_HI, is_call) < price)] = 2
    i = np.flatnonzero((failure == 0) & ~low)
    k, p, c = strike[i], price[i], is_call[i]
    lo, hi = np.full(i.size, VOL_LO), np.full(i.size, VOL_HI)
    guess = np.sqrt(2.0 * np.abs(np.log(ctx.spot / k) + (ctx.rate - ctx.div_yield) * t) / t)
    s = np.clip(np.where(guess == 0.0, 0.2, guess), lo, hi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            if not i.size:
                break
            f = _frozen_price(ctx, t, k, s, c) - p
            up = f > 0
            hi, lo = np.where(up, s, hi), np.where(up, lo, s)
            vega = _frozen_vega_greek(ctx, t, k, s)
            step = f / vega
            vol_res = 1e-9 * np.maximum(s, 1e-2)
            done = (np.abs(f) < 1e-10 * ctx.spot) & (
                (vega <= 1e-12) | (np.abs(step) < vol_res) | (hi - lo < vol_res))
            sigma[i[done]] = s[done]
            candidate = s - step
            s = np.where((vega > 1e-14) & (lo < candidate) & (candidate < hi),
                         candidate, 0.5 * (lo + hi))
            i, k, p, c, s, lo, hi = (a[~done] for a in (i, k, p, c, s, lo, hi))
    failure[i] = 3
    return sigma, failure


def _assert_invert_equals_frozen(ctx, t, strikes, prices, flags, max_iter=200):
    sigma, failure = _invert(ctx, t, strikes, prices, flags)
    ref_sigma, ref_failure = _frozen_invert(ctx, t, strikes, prices, flags, max_iter)
    assert np.array_equal(sigma, ref_sigma, equal_nan=True)
    assert np.array_equal(failure, ref_failure)
    return sigma, failure


def _edge_cases(ctx, t, is_call):
    """(strikes, prices) for failure codes 1 and 2 and one price below the bracket."""
    k_atm = ctx.forward(t)
    lo, hi = no_arbitrage_bounds(ctx, t, np.array([90.0, k_atm, 110.0]), is_call)
    at_lo = bs_price(ctx, t, k_atm, VOL_LO, is_call)
    at_hi = bs_price(ctx, t, 110.0, VOL_HI, is_call)
    return np.array([90.0, k_atm, 110.0]), np.array([lo[0] - 1e-3, 0.5 * (lo[1] + at_lo),
                                                     0.5 * (at_hi + hi[2])])


@pytest.mark.parametrize("t", [0.02, 0.25, 1.0, 5.0])
@pytest.mark.parametrize("div_yield", [0.0, 0.03])
def test_invert_equals_frozen_loop_on_a_grid(t, div_yield):
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=div_yield)
    grid = np.arange(40.0, 260.0, 2.5)
    vols = np.linspace(0.05, 1.5, grid.size)
    for is_call in (True, False):
        edge_k, edge_p = _edge_cases(ctx, t, is_call)
        strikes = np.concatenate([grid, edge_k])
        prices = np.concatenate([bs_price(ctx, t, grid, vols, is_call), edge_p])
        flags = np.full(strikes.shape, is_call)
        sigma, failure = _assert_invert_equals_frozen(ctx, t, strikes, prices, flags)
        assert list(failure[-3:]) == [1, 0, 2] and sigma[-2] == VOL_LO
    # and on a mixed-flag out-of-the-money slice
    flags = grid >= ctx.forward(t)
    _assert_invert_equals_frozen(ctx, t, grid, bs_price(ctx, t, grid, vols, flags), flags)


@pytest.mark.parametrize("t", [0.1, 2.0])
def test_invert_equals_frozen_loop_on_model_smiles(t):
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=0.0)
    strikes = np.arange(60.0, 160.25, 0.5)
    flags = strikes >= ctx.forward(t)
    codes = set()
    for model in (PARAM_ROWS["hkde"]["AMZN"], PARAM_ROWS["bgm"]["SPOT"],
                  PARAM_ROWS["bates"]["NFLX"], PARAM_ROWS["heston"]["SHOP"]):
        prices = price_strike_slice(model, ctx, t, strikes, flags)
        codes |= set(_assert_invert_equals_frozen(ctx, t, strikes, prices, flags)[1])
    # the known negative-call rows at T = 0.1 give failure code 1
    assert (1 in codes) == (t == 0.1)


def test_invert_equals_frozen_loop_when_steps_run_out(ctx, monkeypatch):
    strikes = np.arange(60.0, 160.0, 5.0)
    flags = strikes >= ctx.forward(1.0)
    prices = bs_price(ctx, 1.0, strikes, 0.3, flags)
    for max_iter in (1, 2, 4):
        monkeypatch.setattr(svjd.black_scholes, "MAX_ITER", max_iter)
        _, failure = _assert_invert_equals_frozen(ctx, 1.0, strikes, prices, flags, max_iter)
        assert 3 in failure



@pytest.mark.parametrize("div_yield", [0.0, 0.03])
def test_invert_over_tenors_equals_per_tenor_calls(div_yield):
    # one Newton loop over every tenor: each quote's vol and failure code must be
    # the ones its own tenor's call gives, whatever the other tenors hold
    ctx = MarketContext(spot=100.0, rate=0.05, div_yield=div_yield)
    grid = np.arange(40.0, 260.0, 7.5)
    vols = np.linspace(0.05, 1.5, grid.size)
    tenors = []
    for t in (2.0, 0.02, 0.25, 5.0, 1.0):     # unsorted, so the tenor lookup is exercised
        for is_call in (True, False):
            edge_k, edge_p = _edge_cases(ctx, t, is_call)   # codes 1 and 2, and VOL_LO
            strikes = np.concatenate([grid, edge_k])
            prices = np.concatenate([bs_price(ctx, t, grid, vols, is_call), edge_p])
            tenors.append((np.full(strikes.size, t), strikes, prices,
                           np.full(strikes.size, is_call)))
    t, strikes, prices, flags = (np.concatenate(col) for col in zip(*tenors))
    sigma, failure = _invert(ctx, t, strikes, prices, flags)
    alone = [_invert(ctx, float(ts[0]), k, p, c) for ts, k, p, c in tenors]
    assert np.array_equal(sigma, np.concatenate([s for s, _ in alone]), equal_nan=True)
    assert np.array_equal(failure, np.concatenate([f for _, f in alone]))
    assert {1, 2} <= set(failure) and np.count_nonzero(sigma == VOL_LO) == len(tenors)
    # implied_vol broadcasts the maturity: a column of tenors against a strike row
    # (the strikes every tenor inverts), and names the first failing quote in that
    # order with its own tenor's bounds
    keep = np.all(failure.reshape(len(tenors), -1)[:, :grid.size] == 0, axis=0)
    ts = np.array([ts[0] for ts, _, _, _ in tenors])
    table, calls = (np.array([col[:grid.size][keep] for col in cols])
                    for cols in ([p for _, _, p, _ in tenors], [c for _, _, _, c in tenors]))
    rows = implied_vol(ctx, ts[:, None], grid[keep], table, calls)
    assert np.array_equal(rows, sigma.reshape(len(tenors), -1)[:, :grid.size][:, keep])
    table[3:, 4] = -1.0
    lo, hi = no_arbitrage_bounds(ctx, ts[3], grid[keep][4], calls[3, 4])
    with pytest.raises(ValueError, match=re.escape(
            f"price -1.0 at strike {grid[keep][4]} outside no-arbitrage bounds ({lo}, {hi})")):
        implied_vol(ctx, ts[:, None], grid[keep], table, calls)
