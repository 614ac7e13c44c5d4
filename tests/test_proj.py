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
    FrozenSlice,
    GridSpec,
    _put_leg,
    alpha_bar_from_cumulants,
    bspline3,
    build_grid,
    density,
    dual_zeta,
    price_european,
    price_frozen,
    price_strike_slice,
    proj_coefficients,
)

from conftest import ALL_ROWS, PARAM_ROWS, count_exponent_nodes, degenerate_hkde


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
    beta = proj_coefficients(model, ctx, 1.0, grid)
    x = np.linspace(-0.9, 0.9, 3001)
    mean = (ctx.rate - 0.5 * 0.04) * 1.0
    pdf = np.exp(-((x - mean) ** 2) / (2 * 0.04)) / math.sqrt(2 * math.pi * 0.04)
    assert np.abs(density(beta, grid, x) - pdf).max() < 1e-8


def test_normalization_all_calibrated_rows(ctx):
    for _, _, params in ALL_ROWS:
        grid = build_grid(params, ctx, 0.5, GridSpec(4096, 12.0))
        mass = proj_coefficients(params, ctx, 0.5, grid).sum() / math.sqrt(grid.a)
        assert mass == pytest.approx(1.0, abs=1e-6), params


def test_amzn_density_mass_via_quadrature(ctx, amzn_hkde):
    grid = build_grid(amzn_hkde, ctx, 1.0, GridSpec(4096, 12.0))
    beta = proj_coefficients(amzn_hkde, ctx, 1.0, grid)
    x = np.linspace(grid.x1, grid.x1 + (grid.n_basis - 1) * grid.delta, 200001)
    mass = trapezoid(density(beta, grid, x), x)
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


def _put_leg_by_strike(beta, g, ctx, t, strikes):
    """Discounted put leg one strike at a time: cumulative sums below the kink,
    GL quadrature on the four straddling elements with the kink interval split."""
    xk = g.x1 + g.delta * np.arange(g.n_basis)
    # GL values of integral phi3(u) e^(u delta) du and integral phi3(u) du over [-2, 2]
    u = np.arange(4.0)[:, None] - 2.0 + _GL01_X
    w = _GL01_W * bspline3(u)
    exp_const, one_const = float((w * np.exp(u * g.delta)).sum()), float(w.sum())
    cum_mass = np.cumsum(beta)
    cum_exp = np.cumsum(beta * np.exp(np.minimum(xk, 700.0)))
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
        straddle = float(beta[k_full + 1:k_full + 5] @ per_element)
        out.append((below + scale * straddle) * math.exp(-ctx.rate * t))
    return np.array(out)


def test_slice_equals_per_strike_reference(ctx):
    for kind in ("hkde", "bgm"):
        model = PARAM_ROWS[kind]["AMZN"]
        for t in (0.1, 1.0):
            strikes = np.arange(60.0, 160.0, 0.5)
            grid = build_grid(model, ctx, t)
            beta = proj_coefficients(model, ctx, t, grid)
            puts = price_strike_slice(model, ctx, t, strikes, [False] * strikes.size)
            assert np.array_equal(puts, _put_leg_by_strike(beta, grid, ctx, t, strikes)), (kind, t)


# ---------------------------------------------------------------------------
# The put leg and the coefficient build against frozen copies of earlier forms
# ---------------------------------------------------------------------------

def _frozen_dual_zeta(xi, a):
    """dual_zeta as it was: the xi == 0 mask built twice."""
    xi = np.asarray(xi, dtype=float)
    w = xi / a
    ratio = np.where(xi == 0.0, 1.0 / (2.0 * a), np.sin(0.5 * w) / np.where(xi == 0.0, 1.0, xi))
    denom = 1208.0 + 1191.0 * np.cos(w) + 120.0 * np.cos(2.0 * w) + np.cos(3.0 * w)
    return 2520.0 * ratio**4 / denom


def _frozen_proj_coefficients(model, ctx, t, grid):
    """proj_coefficients as it was: complex spot shift and grid phase."""
    n = grid.n_basis
    xi = grid.delta_xi * np.arange(n)
    h = (np.exp(svjd.models.char_exponent(model, ctx, xi, t) - 1j * xi * math.log(ctx.spot))
         * _frozen_dual_zeta(xi, grid.a) * np.exp(-1j * xi * grid.x1))
    h[0] *= 0.5
    return (32.0 * grid.a**4.5 / n) * np.real(np.fft.fft(h))


def _frozen_put_leg(grid, spot, strikes):
    """_put_leg as it was: strike x element x interval x node throughout, bspline3
    on every point. The slice pricers must return exactly its prices."""
    n = grid.n_basis
    xk = grid.x1 + grid.delta * np.arange(n)
    y_star = np.log(strikes / spot)
    pos = (y_star - grid.x1) * grid.a
    off_grid = np.flatnonzero(~((pos >= 2.0) & (pos <= n - 3.0)))
    if off_grid.size:
        i = off_grid[0]
        raise ValueError(
            f"strike {strikes[i]} at log-moneyness {y_star[i]:.4f} is outside the "
            f"projection grid [{grid.x1:.4f}, {grid.x1 + (n - 1) * grid.delta:.4f}]; "
            "increase L1 (or N) in the grid spec")
    k_full = np.floor(pos).astype(int) - 2
    near = k_full[:, None] + np.arange(1, 5)
    x_near = xk[near][:, :, None]
    knot_lo = np.arange(4, dtype=float) - 2.0
    hi = np.minimum(knot_lo + 1.0, (y_star[:, None, None] - x_near) * grid.a)
    width = np.maximum(hi - knot_lo, 0.0)[..., None]
    u = knot_lo[:, None] + width * _GL01_X
    vals = bspline3(u) * (strikes[:, None, None, None]
                          - spot * np.exp(x_near[..., None] + u * grid.delta))
    whole = knot_lo[:, None] + _GL01_X
    w = _GL01_W * bspline3(whole)
    return (xk, k_full, near, (width * _GL01_W * vals).sum(axis=(2, 3)),
            float((w * np.exp(whole * grid.delta)).sum()), float(w.sum()))


def _slices_and_errors(model, ctx, t, ladders):
    """Calls and puts of both slice pricers on each ladder, or the error text."""
    out = []
    for strikes in ladders:
        for flags in (strikes >= ctx.forward(t), np.ones(strikes.size, bool),
                      np.zeros(strikes.size, bool)):
            try:
                out.append(price_strike_slice(model, ctx, t, strikes, flags).tobytes()
                           + price_frozen([FrozenSlice.at(model, ctx, t, strikes, flags)],
                                          [[model]])[0].tobytes())
            except ValueError as exc:
                out.append(str(exc))
    return out


@pytest.mark.parametrize("kind, name, model", ALL_ROWS)
def test_slices_equal_frozen_put_leg_and_coefficients(ctx, monkeypatch, kind, name, model):
    for t in (0.1, 0.25, 0.5, 1.0, 2.0):
        fwd = ctx.forward(t)
        ladders = [np.arange(60.0, 160.25, 0.5),     # the cli-smile ladder
                   fwd * np.exp(np.arange(-0.5, 0.5 + 0.0125, 0.025)),   # synth
                   fwd * np.exp(np.linspace(-0.35, 0.35, 15))]           # calibration
        grid = build_grid(model, ctx, t)
        xi = grid.delta_xi * np.arange(grid.n_basis)
        assert dual_zeta(xi, grid.a).tobytes() == _frozen_dual_zeta(xi, grid.a).tobytes()
        assert (proj_coefficients(model, ctx, t, grid).tobytes()
                == _frozen_proj_coefficients(model, ctx, t, grid).tobytes())
        for strikes in ladders:
            legs = [_put_leg(grid, ctx.spot, strikes), _frozen_put_leg(grid, ctx.spot, strikes)]
            assert [np.asarray(a).tobytes() for a in legs[0]] == \
                [np.asarray(a).tobytes() for a in legs[1]]
        current = _slices_and_errors(model, ctx, t, ladders)
        with monkeypatch.context() as frozen:
            frozen.setattr(svjd.proj, "_put_leg", _frozen_put_leg)
            frozen.setattr(svjd.proj, "proj_coefficients", _frozen_proj_coefficients)
            frozen.setattr(svjd.proj, "dual_zeta", _frozen_dual_zeta)
            assert current == _slices_and_errors(model, ctx, t, ladders), t


def _frozen_slice_prices(frozen, models):
    """A frozen copy of the per-slice pricer that price_frozen replaced."""
    shift = 1j * frozen.xi * math.log(frozen.ctx.spot)
    h = np.array([np.exp(svjd.proj.char_exponent(m, frozen.ctx, frozen.xi, frozen.t) - shift)
                  for m in models]) * frozen.weight
    return np.real(h @ frozen.gain) + frozen.offset


def _held_slices(model, ctxs):
    """The calibration ladder's slices at five tenors, held at model, tenor i in ctxs[i]."""
    slices = []
    for c, t in zip(ctxs, (0.1, 0.25, 0.5, 1.0, 2.0)):
        strikes = c.forward(t) * np.exp(np.linspace(-0.35, 0.35, 15))
        slices.append(FrozenSlice.at(model, c, t, strikes, strikes >= c.forward(t)))
    return slices


def _groups(sizes: list, nodes: list, per_group: int) -> list:
    """The tenors of each exponent call group, read off the calls' node counts."""
    totals = nodes[::per_group]
    assert nodes == [n for n in totals for _ in range(per_group)]
    groups, lo = [], 0
    for total in totals:
        hi = lo + 1
        while sum(sizes[lo:hi]) < total:
            hi += 1
        assert sum(sizes[lo:hi]) == total
        groups.append(list(range(lo, hi)))
        lo = hi
    assert lo == len(sizes)
    return groups


@pytest.mark.parametrize("kind, name, model", ALL_ROWS)
def test_price_frozen_equals_per_slice_pricing(ctx, monkeypatch, kind, name, model):
    x = np.asarray(model.flat(), dtype=float)
    bumped = [type(model).from_flat(x - 1e-6 * max(1.0, abs(v)) * e)
              for v, e in zip(x, np.eye(x.size))]
    slices = _held_slices(model, [ctx] * 5)
    # tenor 2 prices a subset of the models, as a Jacobian does when some
    # bumped grids moved, and tenor 4 the base alone
    rows = [[model] + bumped] * 5
    rows[2], rows[4] = [model] + bumped[1::2], [model]
    prices = price_frozen(slices, rows)
    assert ([p.tobytes() for p in prices]
            == [_frozen_slice_prices(s, r).tobytes() for s, r in zip(slices, rows)])
    # one call per model and group; a group is as many consecutive tenors as
    # fit in one grid's N nodes
    nodes = count_exponent_nodes(monkeypatch)
    price_frozen(slices, [[model] + bumped] * 5)
    sizes, n = [s.xi.size for s in slices], GridSpec().n
    groups = _groups(sizes, nodes, 1 + x.size)
    assert all(sum(sizes[i] for i in g) <= n for g in groups)
    assert all(sum(sizes[g[0]:g[-1] + 2]) > n for g in groups[:-1])
    assert len(groups) == 1 or kind == "bates", sizes


def test_price_frozen_splits_tenors_by_market(monkeypatch):
    # tenors 0, 1 and 4 in one market and 2, 3 in another: three groups, each
    # context equal by value, not by object
    model = PARAM_ROWS["hkde"]["AMZN"]
    rates = (0.05, 0.05, 0.02, 0.02, 0.05)
    slices = _held_slices(model, [MarketContext(100.0, r, 0.0) for r in rates])
    rows = [[model, PARAM_ROWS["hkde"]["SHOP"]]] * 5
    nodes = count_exponent_nodes(monkeypatch)
    prices = price_frozen(slices, rows)
    assert _groups([s.xi.size for s in slices], nodes, 2) == [[0, 1], [2, 3], [4]]
    assert ([p.tobytes() for p in prices]
            == [_frozen_slice_prices(s, r).tobytes() for s, r in zip(slices, rows)])


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


def test_frozen_slice_raises_the_slice_pricers_off_grid_message(ctx):
    tiny = degenerate_hkde(0.01)
    strikes, flags = np.array([30.0, 100.0, 250.0]), np.array([False, True, True])
    with pytest.raises(ValueError, match="outside the projection grid") as sliced:
        price_strike_slice(tiny, ctx, 0.25, strikes, flags)
    with pytest.raises(ValueError) as frozen:
        FrozenSlice.at(tiny, ctx, 0.25, strikes, flags)
    assert str(frozen.value) == str(sliced.value)


def test_slice_input_validation(ctx, amzn_hkde):
    with pytest.raises(ValueError):
        price_strike_slice(amzn_hkde, ctx, 0.5, [100.0, 90.0], [True, True])
    for strikes in ([90.0, 0.0], [[90.0, 100.0]]):
        with pytest.raises(ValueError, match="^strikes must be a 1-d array of positive values$"):
            price_strike_slice(amzn_hkde, ctx, 0.5, strikes, [True, True])
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
