"""Objective construction, calibration driver, error metrics."""
import math

import numpy as np
import pytest

from svjd.black_scholes import Quote, bs_price
from svjd.calibration import (
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
from svjd.proj import GridSpec

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
            rows.append((t, 0.05, 0.0, Quote(maturity=t, strike=k, is_call=k >= fwd, iv=0.3)))
    # one ITM quote that must be dropped
    rows.append((0.5, 0.05, 0.0, Quote(maturity=0.5, strike=50.0, is_call=True, iv=0.3)))
    surface = QuoteSurface.build(100.0, rows)
    assert [sl.t for sl in surface.slices] == [0.5, 1.0]
    assert surface.n_quotes == 10
    assert surface.n_dropped_itm == 1
    for sl in surface.slices:
        for q in sl.quotes:
            assert q.price is not None and q.iv is not None


def test_surface_rejects_sparse_maturity():
    rows = [(1.0, 0.05, 0.0, Quote(maturity=1.0, strike=110.0, is_call=True, iv=0.3)),
            (1.0, 0.05, 0.0, Quote(maturity=1.0, strike=120.0, is_call=True, iv=0.3))]
    with pytest.raises(ValueError, match="at least 3"):
        QuoteSurface.build(100.0, rows)


def test_surface_rejects_inconsistent_tenor_rates():
    rows = [(1.0, 0.05, 0.0, Quote(maturity=1.0, strike=k, is_call=True, iv=0.3))
            for k in (110.0, 120.0, 130.0)]
    rows.append((1.0, 0.04, 0.0, Quote(maturity=1.0, strike=140.0, is_call=True, iv=0.3)))
    with pytest.raises(ValueError, match="inconsistent"):
        QuoteSurface.build(100.0, rows)


def test_objective_zero_at_generating_model(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    val = objective(model, heston_surface)
    assert val < 1e-16 * heston_surface.n_quotes


def test_objective_quadratic_in_single_perturbation(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    delta = 0.05
    w_all = heston_surface.weights()
    sl = heston_surface.slices[0]
    q0 = sl.quotes[0]
    perturbed = Quote(maturity=q0.maturity, strike=q0.strike, is_call=q0.is_call,
                      price=q0.price + delta, iv=q0.iv)
    old = sl.quotes[0]
    sl.quotes[0] = perturbed
    try:
        val = objective(model, heston_surface)
    finally:
        sl.quotes[0] = old
    assert val == pytest.approx(w_all[0][0] * delta**2, rel=1e-6)


def test_objective_invariant_under_quote_reordering(heston_surface):
    model = PARAM_ROWS["heston"]["AMZN"]
    base = objective(model, heston_surface)
    r = residuals(model, heston_surface)
    assert objective(model, heston_surface) == base
    assert float((r[::-1] ** 2).sum()) == pytest.approx(base, rel=1e-12)


def test_objective_penalty_on_pricing_failure():
    # strikes far outside the floor grid of a near-zero-vol model cannot price
    model = degenerate_hkde(0.01)
    rows = [(0.25, 0.05, 0.0, Quote(maturity=0.25, strike=k, is_call=True, iv=3.5))
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


def test_calibrate_rejects_inverted_bounds(heston_surface):
    lo, hi = default_bounds("heston")
    with pytest.raises(ValueError, match=r"lower < upper; violated for v0"):
        calibrate("heston", heston_surface, bounds=(hi, lo))


def test_calibrate_rejects_unknown_kind(heston_surface):
    with pytest.raises(ValueError):
        calibrate("sabr", heston_surface)
    with pytest.raises(ValueError, match="not heston"):
        calibrate("heston", heston_surface, init=PARAM_ROWS["bgm"]["SPOT"])
