"""B-spline projection pricer: grid rule, coefficients, European prices."""
import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import svjd.models
import svjd.proj
from svjd.black_scholes import bs_price
from svjd.models import HestonParams, HKDEParams, KouJumpParams, MarketContext, cumulants_numeric
from svjd.proj import (
    _GL01_W,
    _GL01_X,
    GridSpec,
    _payoff_constants,
    alpha_bar_from_cumulants,
    bspline3,
    build_grid,
    density,
    dual_zeta,
    price_european,
    price_strike_slice,
    proj_coefficients,
)

from conftest import ALL_ROWS, PARAM_ROWS, degenerate_hkde


# ---------------------------------------------------------------------------
# Grid rule
# ---------------------------------------------------------------------------

def test_alpha_bar_floor():
    assert alpha_bar_from_cumulants(1e-12, 1e-16, 1.0, 10.0) == 0.5


def test_alpha_bar_forced_arithmetic():
    assert alpha_bar_from_cumulants(1.0, 0.0, 1.0, 10.0) == pytest.approx(10.0, rel=1e-15)


def test_alpha_bar_amzn_matches_hand_evaluation(ctx, amzn_hkde):
    _, c2, _, c4 = cumulants_numeric(amzn_hkde, ctx, 1.0)
    by_hand = max(0.5, 12.0 * math.sqrt(c2 * 0.5 + math.sqrt(c4 * 0.5)))
    grid = build_grid(amzn_hkde, ctx, 0.5, GridSpec(4096, 12.0))
    assert grid.alpha_bar == pytest.approx(by_hand, rel=1e-12)


def test_build_grid_makes_one_exponent_call(ctx, amzn_hkde, monkeypatch):
    # one finite-difference ladder yields all four cumulants, and every later
    # tenor of the same model and context reads them from the cache
    calls = []
    original = svjd.models.char_exponent

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    svjd.proj._unit_cumulants.cache_clear()
    monkeypatch.setattr(svjd.models, "char_exponent", counted)
    build_grid(amzn_hkde, ctx, 0.5)
    assert len(calls) == 1
    build_grid(amzn_hkde, ctx, 2.0)
    assert len(calls) == 1


def test_build_grid_cached_ladder_is_bit_identical(ctx, monkeypatch):
    def fields(grid):
        return (grid.n_basis, grid.alpha_bar, grid.x1, grid.delta, grid.a, grid.delta_xi)

    tenors = (0.1, 0.5, 2.0)
    cached = {(kind, name, t): fields(build_grid(model, ctx, t))
              for kind, name, model in ALL_ROWS for t in tenors}
    monkeypatch.setattr(svjd.proj, "_unit_cumulants",
                        lambda model, ctx: cumulants_numeric(model, ctx, 1.0))
    for kind, name, model in ALL_ROWS:
        for t in tenors:
            assert fields(build_grid(model, ctx, t)) == cached[kind, name, t], (kind, name, t)


def test_grid_invariants(ctx, amzn_hkde):
    grid = build_grid(amzn_hkde, ctx, 0.5, GridSpec(4096, 12.0))
    assert grid.n_basis == 4096
    assert grid.delta > 0
    assert grid.a * grid.delta == pytest.approx(1.0, rel=1e-14)
    assert grid.delta_xi * grid.n_basis == pytest.approx(2.0 * math.pi * grid.a, rel=1e-14)
    assert grid.delta == pytest.approx(2.0 * grid.alpha_bar / (grid.n_basis - 1), rel=1e-14)


def test_grid_spec_validation():
    assert GridSpec(np.int64(4096)).n == 4096
    with pytest.raises(ValueError):
        GridSpec(n=1000)    # not a power of two
    with pytest.raises(ValueError):
        GridSpec(n=8)
    with pytest.raises(ValueError):
        GridSpec(l1=-1.0)
    # nan <= 0 is false: a nan l1 would price on the 0.5 floor half-width
    for bad in (math.nan, math.inf, 0.0, True, "1", None):
        with pytest.raises(ValueError, match=f"^l1 must be finite and positive; got {bad}$"):
            GridSpec(l1=bad)


@pytest.mark.parametrize("n", [4096.0, "4096", True, None, 1000, 8])
def test_grid_spec_names_a_bad_n(n):
    # a float or str n once failed with a bare TypeError from & or <
    with pytest.raises(ValueError) as info:
        GridSpec(n)
    assert str(info.value) == f"n must be a power of two, at least 16; got {n!r}"


# ---------------------------------------------------------------------------
# Dual-basis transform values
# ---------------------------------------------------------------------------

def test_zeta_small_frequency_limit():
    # zeta -> 1/(16 a^4) as xi -> 0+, exact at xi = 0 by construction
    for a in (0.5, 3.0, 41.7):
        target = 1.0 / (16.0 * a**4)
        assert dual_zeta(0.0, a) == pytest.approx(target, rel=1e-14)
        assert dual_zeta(1e-7 * a, a) == pytest.approx(target, rel=1e-10)


def test_bspline3_shape():
    assert bspline3(0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert bspline3(1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert bspline3(2.0) == 0.0
    assert bspline3(-1.5) == bspline3(1.5)
    u = np.linspace(-2.5, 2.5, 501)
    assert trapezoid(bspline3(u), u) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# Coefficients and density reconstruction
# ---------------------------------------------------------------------------

def test_gaussian_density_reconstruction(ctx):
    model = degenerate_hkde(0.2)
    grid = build_grid(model, ctx, 1.0, GridSpec(4096, 12.0))
    coeffs = proj_coefficients(model, ctx, 1.0, grid)
    x = np.linspace(-0.9, 0.9, 3001)
    mean = (ctx.rate - 0.5 * 0.04) * 1.0
    pdf = np.exp(-((x - mean) ** 2) / (2 * 0.04)) / math.sqrt(2 * math.pi * 0.04)
    assert np.abs(density(coeffs, x) - pdf).max() < 1e-8


def test_normalization_all_calibrated_rows(ctx):
    for _, _, params in ALL_ROWS:
        grid = build_grid(params, ctx, 0.5, GridSpec(4096, 12.0))
        coeffs = proj_coefficients(params, ctx, 0.5, grid)
        mass = coeffs.beta.sum() / math.sqrt(grid.a)
        assert mass == pytest.approx(1.0, abs=1e-6), params


def test_amzn_density_mass_via_quadrature(ctx, amzn_hkde):
    grid = build_grid(amzn_hkde, ctx, 1.0, GridSpec(4096, 12.0))
    coeffs = proj_coefficients(amzn_hkde, ctx, 1.0, grid)
    x = np.linspace(grid.x1, grid.x1 + (grid.n_basis - 1) * grid.delta, 200001)
    mass = trapezoid(density(coeffs, x), x)
    assert mass == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# European pricing
# ---------------------------------------------------------------------------

def test_black_scholes_degenerate_price(ctx):
    model = degenerate_hkde(0.2)
    ours = price_european(model, ctx, 1.0, 100.0, True)
    ref = bs_price(ctx, 1.0, 100.0, 0.2, True)
    assert abs(ours - ref) < 1e-5


def test_put_call_parity(ctx, spot_hkde):
    for t in (0.5,):
        for k in (70.0, 100.0, 130.0):
            c = price_european(spot_hkde, ctx, t, k, True)
            p = price_european(spot_hkde, ctx, t, k, False)
            fwd_leg = ctx.spot * math.exp(-ctx.div_yield * t) - k * math.exp(-ctx.rate * t)
            assert c - p == pytest.approx(fwd_leg, abs=1e-6 * ctx.spot)


def test_strike_monotonicity_and_convexity(ctx):
    strikes = np.linspace(70.0, 130.0, 21)
    for kind in ("hkde", "heston", "bates", "bgm"):
        params = PARAM_ROWS[kind]["AMZN"]
        calls = price_strike_slice(params, ctx, 0.5, strikes, [True] * 21)
        assert np.all(np.diff(calls) < 0.0)
        assert np.all(np.diff(calls, 2) > -1e-9)


def test_grid_doubling_stability(ctx):
    for kind in ("hkde", "heston", "bates", "bgm"):
        params = PARAM_ROWS[kind]["SPOT"]
        p12 = price_european(params, ctx, 1.0, 100.0, True, GridSpec(4096, 12.0))
        p13 = price_european(params, ctx, 1.0, 100.0, True, GridSpec(8192, 12.0))
        assert abs(p13 - p12) < 1e-6 * ctx.spot, kind


def test_l1_robustness(ctx, amzn_hkde):
    for t in (0.25, 1.0, 2.0):
        lo = price_european(amzn_hkde, ctx, t, 100.0, True, GridSpec(4096, 10.0))
        hi = price_european(amzn_hkde, ctx, t, 100.0, True, GridSpec(4096, 14.0))
        assert abs(hi - lo) < 1e-5 * ctx.spot


def test_slice_equals_individual_prices(ctx, shop_hkde):
    strikes = np.linspace(60.0, 150.0, 50)
    flags = strikes >= ctx.forward(0.75)
    sliced = price_strike_slice(shop_hkde, ctx, 0.75, strikes, flags)
    looped = np.array([price_european(shop_hkde, ctx, 0.75, float(k), bool(f))
                       for k, f in zip(strikes, flags)])
    assert np.array_equal(sliced, looped)


def _put_leg_by_strike(coeffs, ctx, t, strikes):
    """Discounted put leg one strike at a time: cumulative sums below the kink,
    GL quadrature on the four straddling elements with the kink interval split."""
    g = coeffs.grid
    xk = g.x1 + g.delta * np.arange(g.n_basis)
    exp_const, one_const = _payoff_constants(g.delta)
    cum_mass = np.cumsum(coeffs.beta)
    cum_exp = np.cumsum(coeffs.beta * np.exp(np.minimum(xk, 700.0)))
    scale = g.delta * math.sqrt(g.a)
    out = []
    for k, y_star in zip(strikes, np.log(strikes / ctx.spot)):
        k_full = int(math.floor((y_star - g.x1) * g.a)) - 2
        below = scale * (k * one_const * cum_mass[k_full] - ctx.spot * exp_const * cum_exp[k_full])
        x = xk[k_full + 1:k_full + 5]
        lo = np.arange(4.0)[None, :] - 2.0
        width = np.maximum(np.minimum(lo + 1.0, (y_star - x[:, None]) * g.a) - lo, 0.0)
        u = lo[:, :, None] + width[:, :, None] * _GL01_X
        vals = bspline3(u) * (k - ctx.spot * np.exp(x[:, None, None] + u * g.delta))
        per_element = (width[:, :, None] * _GL01_W * vals).sum(axis=(1, 2))
        straddle = float(coeffs.beta[k_full + 1:k_full + 5] @ per_element)
        out.append((below + scale * straddle) * math.exp(-ctx.rate * t))
    return np.array(out)


def test_slice_equals_per_strike_reference(ctx):
    for kind in ("hkde", "bgm"):
        model = PARAM_ROWS[kind]["AMZN"]
        for t in (0.1, 1.0):
            strikes = np.arange(60.0, 160.0, 0.5)
            coeffs = proj_coefficients(model, ctx, t, build_grid(model, ctx, t))
            puts = price_strike_slice(model, ctx, t, strikes, [False] * strikes.size)
            assert np.array_equal(puts, _put_leg_by_strike(coeffs, ctx, t, strikes)), (kind, t)


def test_single_strike_slice_equals_price_european(ctx, amzn_hkde):
    s = price_strike_slice(amzn_hkde, ctx, 0.5, [100.0], [True])[0]
    assert s == price_european(amzn_hkde, ctx, 0.5, 100.0, True)


def test_strike_outside_grid_raises(ctx):
    # negligible-cumulant model floors the half-width at 0.5 in log-return space
    tiny = degenerate_hkde(0.01)
    with pytest.raises(ValueError, match="L1"):
        price_european(tiny, ctx, 0.25, 250.0, True)
    with pytest.raises(ValueError):
        price_european(tiny, ctx, 0.25, 30.0, False)
    # a slice names its first off-grid strike
    with pytest.raises(ValueError, match=r"strike 250\.0 .*L1"):
        price_strike_slice(tiny, ctx, 0.25, [100.0, 250.0, 300.0], [True] * 3)


def test_slice_input_validation(ctx, amzn_hkde):
    with pytest.raises(ValueError):
        price_strike_slice(amzn_hkde, ctx, 0.5, [100.0, 90.0], [True, True])
    with pytest.raises(ValueError):
        price_strike_slice(amzn_hkde, ctx, 0.5, [90.0, 100.0], [True])
    with pytest.raises(ValueError):
        price_strike_slice(amzn_hkde, ctx, -0.5, [100.0], [True])
    for bad in (math.inf, math.nan, 0.0, True, "1", None):
        message = f"^t must be finite and positive; got {bad}$"
        with pytest.raises(ValueError, match=message):
            price_strike_slice(amzn_hkde, ctx, bad, [100.0], [True])
        with pytest.raises(ValueError, match=message):
            build_grid(amzn_hkde, ctx, bad)


@pytest.mark.parametrize("cast", [np.float64, np.int64])
def test_numpy_scalar_maturity_and_width_accepted(ctx, amzn_hkde, cast):
    assert GridSpec(l1=cast(12)) == GridSpec()
    assert build_grid(amzn_hkde, ctx, cast(1)) == build_grid(amzn_hkde, ctx, 1.0)
    assert np.array_equal(price_strike_slice(amzn_hkde, ctx, cast(1), [100.0], [True]),
                          price_strike_slice(amzn_hkde, ctx, 1.0, [100.0], [True]))


def test_slice_amortizes_coefficient_build(ctx, shop_hkde):
    import time
    strikes = np.linspace(60.0, 150.0, 50)
    flags = strikes >= ctx.forward(0.75)
    t0 = time.perf_counter()
    price_strike_slice(shop_hkde, ctx, 0.75, strikes, flags)
    sliced = time.perf_counter() - t0
    t0 = time.perf_counter()
    for k, f in zip(strikes, flags):
        price_european(shop_hkde, ctx, 0.75, float(k), bool(f))
    looped = time.perf_counter() - t0
    assert sliced <= looped / 10.0
