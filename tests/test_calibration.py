"""Objective construction, calibration driver, error metrics."""
import math

import numpy as np
import pytest

from svjd.black_scholes import Quote, bs_price, bs_vega, implied_vol
from svjd.calibration import (
    MaturitySlice,
    QuoteSurface,
    calibrate,
    default_bounds,
    default_init,
    error_metrics,
    objective,
    residuals,
    synthetic_surface,
    PRICING_PENALTY,
)
import svjd.calibration
from svjd.models import MODELS, MODEL_NAMES, HestonParams, MarketContext, model_to_dict
from svjd.proj import GridSpec, price_strike_slice

from conftest import PARAM_ROWS, degenerate_hkde

MONEYNESS = np.linspace(-0.25, 0.25, 7)


@pytest.fixture(scope="module")
def heston_surface():
    model = PARAM_ROWS["heston"]["SPOT"]
    return synthetic_surface(model, 100.0, 0.05, 0.0, [0.25, 0.5, 1.0], MONEYNESS)


def test_surface_build_groups_and_filters():
    rows = []
    ctx = MarketContext(100.0, 0.05, 0.0)
    for t in (0.5, 1.0):
        fwd = ctx.forward(t)
        for m in (-0.2, -0.1, 0.0, 0.1, 0.2):
            k = fwd * math.exp(m)
            rows.append((0.05, 0.0, Quote(maturity=t, strike=k, is_call=k >= fwd, iv=0.3)))
    # one ITM quote that must be dropped
    rows.append((0.05, 0.0, Quote(maturity=0.5, strike=50.0, is_call=True, iv=0.3)))
    surface = QuoteSurface.build(100.0, rows)
    assert [sl.t for sl in surface.slices] == [0.5, 1.0]
    assert surface.n_quotes == 10
    assert surface.n_dropped_itm == 1
    for sl in surface.slices:
        for q in sl.quotes:
            assert q.price is not None and q.iv is not None


def test_surface_build_slices_by_quote_maturity():
    # the row holds no maturity of its own: each quote's maturity picks its slice
    rows = [(0.05, 0.0, Quote(maturity=t, strike=k, is_call=True, iv=0.3))
            for k in (110.0, 120.0, 130.0) for t in (1.0, 0.5)]
    surface = QuoteSurface.build(100.0, rows)
    assert [sl.t for sl in surface.slices] == [0.5, 1.0]
    for sl in surface.slices:
        assert sl.strikes.tolist() == [110.0, 120.0, 130.0]
        assert all(q.maturity == sl.t for q in sl.quotes)


def test_surface_build_names_all_in_the_money():
    rows = [(0.05, 0.0, Quote(maturity=0.5, strike=k, is_call=True, iv=0.3))
            for k in (90.0, 100.0)]
    with pytest.raises(ValueError) as info:
        QuoteSurface.build(100.0, rows)
    assert str(info.value) == ("no out-of-the-money quotes: all 2 were in the money "
                               "against the forward")


def test_surface_rejects_sparse_maturity():
    rows = [(0.05, 0.0, Quote(maturity=1.0, strike=110.0, is_call=True, iv=0.3)),
            (0.05, 0.0, Quote(maturity=1.0, strike=120.0, is_call=True, iv=0.3))]
    with pytest.raises(ValueError, match="at least 3"):
        QuoteSurface.build(100.0, rows)


def test_surface_rejects_inconsistent_tenor_rates():
    rows = [(0.05, 0.0, Quote(maturity=1.0, strike=k, is_call=True, iv=0.3))
            for k in (110.0, 120.0, 130.0)]
    rows.append((0.04, 0.0, Quote(maturity=1.0, strike=140.0, is_call=True, iv=0.3)))
    with pytest.raises(ValueError, match="inconsistent"):
        QuoteSurface.build(100.0, rows)


def test_objective_zero_at_generating_model(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    val = objective(model, heston_surface)
    assert val < 1e-16 * heston_surface.n_quotes


def test_objective_quadratic_in_single_perturbation(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    delta = 0.05
    sl = heston_surface.slices[0]
    q0 = sl.quotes[0]
    perturbed = Quote(maturity=q0.maturity, strike=q0.strike, is_call=q0.is_call,
                      price=q0.price + delta, iv=q0.iv)
    bumped = QuoteSurface(spot=heston_surface.spot,
                          slices=[MaturitySlice(sl.t, sl.ctx, (perturbed,) + sl.quotes[1:])]
                          + heston_surface.slices[1:])
    val = objective(model, bumped)
    assert val == pytest.approx(sl.weights[0] * delta**2, rel=1e-6)


def test_objective_invariant_under_quote_reordering(heston_surface):
    model = PARAM_ROWS["heston"]["AMZN"]
    base = objective(model, heston_surface)
    r = residuals(model, heston_surface)
    assert objective(model, heston_surface) == base
    assert float((r[::-1] ** 2).sum()) == pytest.approx(base, rel=1e-12)


def test_objective_penalty_on_pricing_failure():
    # strikes far outside the floor grid of a near-zero-vol model cannot price
    model = degenerate_hkde(0.01)
    rows = [(0.05, 0.0, Quote(maturity=0.25, strike=k, is_call=True, iv=3.5))
            for k in (300.0, 320.0, 340.0)]
    surface = QuoteSurface.build(100.0, rows)
    assert objective(model, surface) == PRICING_PENALTY


def test_error_metrics_zero_for_generating_model(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    metrics = error_metrics(model, heston_surface)
    assert metrics.mape_pct == pytest.approx(0.0, abs=1e-4)
    assert metrics.rmse == pytest.approx(0.0, abs=1e-6)
    assert metrics.n_excluded == 0


def test_error_metrics_uniform_iv_shift():
    market = synthetic_surface(degenerate_hkde(0.20), 100.0, 0.05, 0.0, [0.5, 1.0], MONEYNESS)
    metrics = error_metrics(degenerate_hkde(0.22), market)
    assert metrics.mape_pct == pytest.approx(10.0, abs=0.01)
    assert metrics.rmse == pytest.approx(0.02, abs=1e-5)


def test_error_metrics_counts_forced_out_of_bounds_price(heston_surface, monkeypatch):
    model = PARAM_ROWS["heston"]["SPOT"]
    original = svjd.calibration.price_strike_slice
    calls = []

    def one_negative(*args, **kwargs):
        prices = original(*args, **kwargs)
        if not calls:
            prices[3] = -1e-3    # below every static lower bound
        calls.append(1)
        return prices

    monkeypatch.setattr(svjd.calibration, "price_strike_slice", one_negative)
    metrics = error_metrics(model, heston_surface)
    assert metrics.n_excluded == 1
    assert metrics.rmse == pytest.approx(0.0, abs=1e-6)


def test_weights_match_scalar_vega(heston_surface):
    for sl in heston_surface.slices:
        scalar = np.array([1.0 / bs_vega(sl.ctx, sl.t, q.strike, q.iv) for q in sl.quotes])
        np.testing.assert_allclose(sl.weights, scalar, rtol=1e-15, atol=0.0)


def test_objective_computes_weights_once_per_slice(heston_surface, monkeypatch):
    surface = QuoteSurface(spot=heston_surface.spot,
                           slices=[MaturitySlice(sl.t, sl.ctx, sl.quotes)
                                   for sl in heston_surface.slices])
    calls = []

    def counted(*args):
        calls.append(1)
        return bs_vega(*args)

    monkeypatch.setattr(svjd.calibration, "bs_vega", counted)
    model = PARAM_ROWS["heston"]["AMZN"]
    assert objective(model, surface) == objective(model, surface)
    assert len(calls) == len(surface.slices)


def test_slice_rejects_nonpositive_iv():
    quotes = [Quote(maturity=0.5, strike=k, is_call=True, price=1.0, iv=iv)
              for k, iv in ((110.0, 0.3), (120.0, -0.3), (130.0, 0.3))]
    with pytest.raises(ValueError, match="implied volatilities must be positive"):
        MaturitySlice(0.5, MarketContext(100.0, 0.05, 0.0), quotes)


def test_residuals_equal_per_quote_loop(heston_surface):
    model = PARAM_ROWS["heston"]["AMZN"]
    parts = []
    for sl in heston_surface.slices:
        prices = price_strike_slice(model, sl.ctx, sl.t, [q.strike for q in sl.quotes],
                                    [q.is_call for q in sl.quotes])
        parts.append(np.sqrt(sl.weights) * (prices - np.array([q.price for q in sl.quotes])))
    assert np.array_equal(residuals(model, heston_surface), np.concatenate(parts))


def test_surface_build_fills_slices_in_array_form():
    ctx = MarketContext(100.0, 0.05, 0.0)
    strikes = (80.0, 90.0, 110.0, 120.0)
    rows = [(0.05, 0.0, Quote(maturity=0.5, strike=k, is_call=k >= ctx.forward(0.5),
                              **({"iv": 0.3} if k < 100 else {"price": 2.0 + k / 100})))
            for k in strikes]
    (sl,) = QuoteSurface.build(100.0, rows).slices
    assert isinstance(sl.quotes, tuple) and sl.strikes.tolist() == list(strikes)
    for q, k, c, v, iv in zip(sl.quotes, sl.strikes, sl.is_calls, sl.prices, sl.ivs):
        assert (q.strike, q.is_call, q.price, q.iv) == (k, c, v, iv)
        if k < 100:
            assert iv == 0.3 and v == bs_price(ctx, 0.5, k, 0.3, False)
        else:
            assert v == 2.0 + k / 100 and iv == implied_vol(ctx, 0.5, k, v, True)
    rows.append((0.05, 0.0, Quote(maturity=0.5, strike=130.0, is_call=True, price=150.0)))
    with pytest.raises(ValueError, match="at strike 130.0 outside no-arbitrage bounds"):
        QuoteSurface.build(100.0, rows)


def test_calibrate_from_truth_converges_immediately(heston_surface):
    truth = PARAM_ROWS["heston"]["SPOT"]
    result = calibrate("heston", heston_surface, init=truth, schedule=[1e-4])
    assert result.objective < 1e-14
    assert result.rmse < 1e-6
    assert not result.stagnated


def test_calibrate_heston_round_trip_small(heston_surface):
    truth = PARAM_ROWS["heston"]["SPOT"]
    rng = np.random.default_rng(5)
    factors = rng.uniform(0.7, 1.5, size=5)
    init = HestonParams(truth.v0 * factors[0], truth.theta * factors[1],
                        truth.kappa * factors[2], truth.sigma_v * factors[3],
                        max(-0.95, min(truth.rho * factors[4], 0.95)))
    result = calibrate("heston", heston_surface, init=init, schedule=[1e-4, 1e-6])
    assert result.rmse < 1e-3
    assert result.mape_pct < 0.5
    # trace of outer passes never increases (up to squared-residual noise floor)
    floor = 1e-18 * max(1.0, result.trace[0])
    assert all(b <= a * (1 + 1e-12) + floor for a, b in zip(result.trace, result.trace[1:]))
    # final parameters respect bounds exactly
    lo, hi = default_bounds("heston")
    packed = [result.params.v0, result.params.theta, result.params.kappa,
              result.params.sigma_v, result.params.rho]
    assert np.all(packed >= lo) and np.all(packed <= hi)
    # noiseless surface: large objective reduction against the perturbed start
    assert result.objective < 1e-8 * result.trace[0]


def test_default_init_within_bounds(heston_surface):
    for kind in MODEL_NAMES:
        cls = MODELS[kind]
        lo, hi = default_bounds(kind)
        assert len(lo) == len(hi) == len(cls.FIELDS)
        x = np.asarray(default_init(kind, heston_surface).flat())
        assert np.all(x >= lo) and np.all(x <= hi)
        assert list(model_to_dict(cls.from_flat(x))["params"]) == list(cls.FIELDS)


def test_calibrate_prices_surface_once_without_passes(heston_surface, monkeypatch):
    calls = []
    original = svjd.calibration.residuals

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(svjd.calibration, "residuals", counted)
    truth = PARAM_ROWS["heston"]["SPOT"]
    result = calibrate("heston", heston_surface, init=truth, schedule=())
    assert len(calls) == 1
    assert result.trace == [result.objective]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_calibrate_rejects_nonpositive_or_nan_schedule_entry(heston_surface, tol):
    truth = PARAM_ROWS["heston"]["SPOT"]
    with pytest.raises(ValueError, match=f"finite positive numbers; got {tol!r}"):
        calibrate("heston", heston_surface, init=truth, schedule=(1e-4, tol))


def test_calibrate_rejects_unknown_kind(heston_surface):
    with pytest.raises(ValueError):
        calibrate("sabr", heston_surface)
    with pytest.raises(ValueError, match="not heston"):
        calibrate("heston", heston_surface, init=PARAM_ROWS["bgm"]["SPOT"])
