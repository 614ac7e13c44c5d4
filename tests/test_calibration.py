"""Objective construction, calibration driver, error metrics."""
import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.optimize

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
import svjd.black_scholes
import svjd.calibration
import svjd.proj
from svjd.models import (MODELS, MODEL_NAMES, HestonParams, HKDEParams, KouJumpParams,
                         MarketContext, model_to_dict)
from svjd.proj import FrozenSlice, GridSpec, price_frozen, price_strike_slice

from conftest import (PARAM_ROWS, certify_nothing, count_exponent_nodes, degenerate_hkde,
                      slice_bytes)

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


def test_surface_needs_ascending_maturities(heston_surface):
    for slices in ([], heston_surface.slices[::-1], heston_surface.slices[:1] * 2):
        with pytest.raises(ValueError) as info:
            QuoteSurface(100.0, slices)
        assert str(info.value) == "maturities must be strictly ascending and nonempty"


def test_surface_rejects_inconsistent_tenor_rates():
    rows = [(0.05, 0.0, Quote(maturity=1.0, strike=k, is_call=True, iv=0.3))
            for k in (110.0, 120.0, 130.0)]
    rows.append((0.04, 0.0, Quote(maturity=1.0, strike=140.0, is_call=True, iv=0.3)))
    with pytest.raises(ValueError, match="inconsistent") as info:
        QuoteSurface.build(100.0, rows)
    assert info.value.row == 3     # the row at fault, for callers that name its source


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


def test_objective_penalty_on_pricing_failure(caplog):
    # strikes far outside the floor grid of a near-zero-vol model cannot price
    model = degenerate_hkde(0.01)
    rows = [(0.05, 0.0, Quote(maturity=0.25, strike=k, is_call=True, iv=3.5))
            for k in (300.0, 320.0, 340.0)]
    surface = QuoteSurface.build(100.0, rows)
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        assert objective(model, surface) == PRICING_PENALTY
    # the substitution is logged once, at DEBUG, with the pricing error's text
    assert [(r.name, r.levelno) for r in caplog.records] == [("svjd.calibration", logging.DEBUG)]
    assert "outside the projection grid" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        objective(PARAM_ROWS["heston"]["SPOT"], surface)
    assert caplog.records == []


def test_error_metrics_zero_for_generating_model(heston_surface):
    model = PARAM_ROWS["heston"]["SPOT"]
    metrics = error_metrics(model, heston_surface)
    assert metrics.mape_pct == pytest.approx(0.0, abs=1e-4)
    assert metrics.rmse == pytest.approx(0.0, abs=1e-6)
    assert metrics.n_excluded == 0


def test_objective_penalty_on_a_non_finite_value(heston_surface, monkeypatch, caplog):
    # a nan price raises nowhere, so only the sum shows it
    original = svjd.calibration.price_strike_slice

    def one_nan(*args):
        prices = original(*args)
        prices[2] = math.nan
        return prices

    monkeypatch.setattr(svjd.calibration, "price_strike_slice", one_nan)
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        assert objective(PARAM_ROWS["heston"]["SPOT"], heston_surface) == PRICING_PENALTY
    assert [r.getMessage() for r in caplog.records] == [
        "objective: non-finite value nan, penalty substituted"]


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
    # with every price out of bounds no error is left to average
    monkeypatch.setattr(svjd.calibration, "price_strike_slice",
                        lambda model, ctx, t, strikes, *rest: np.full(strikes.size, -1e-3))
    with pytest.raises(ValueError) as info:
        error_metrics(model, heston_surface)
    assert str(info.value) == "no quote could be inverted to an implied volatility"


def test_calibrate_reports_quotes_left_out_of_the_iv_errors():
    # bgm/AMZN prices the T = 0.1 call at 160 below zero on the default grid
    # (the known negative-parity defect), so that quote's model price cannot
    # be inverted. Quoting the model's own prices, with a market iv beside the
    # negative one, makes the start the exact optimum: the fit ends there.
    model, ctx, t = PARAM_ROWS["bgm"]["AMZN"], MarketContext(100.0, 0.05, 0.0), 0.1
    strikes = np.array([90.0, 95.0, 105.0, 110.0, 160.0])
    is_call = strikes >= ctx.forward(t)
    prices = price_strike_slice(model, ctx, t, strikes, is_call)
    assert prices[-1] < 0.0 and np.all(prices[:-1] > 0.0)
    ivs = [*implied_vol(ctx, t, strikes[:-1], prices[:-1], is_call[:-1]), 0.5]
    surface = QuoteSurface(spot=100.0, slices=[MaturitySlice(t, ctx, [
        Quote(t, k, c, p, iv) for k, c, p, iv in zip(strikes, is_call, prices, ivs)])])
    result = calibrate("bgm", surface, init=model)
    assert (result.n_residuals, result.n_jacobians) == (1, 1)
    assert result.n_excluded == 1
    assert result.rmse == pytest.approx(0.0, abs=1e-9)


def test_iv_errors_invert_every_tenor_at_once_at_its_own_rates(monkeypatch):
    # three tenors with their own rates and dividend yields; bgm/AMZN's T = 0.1
    # calls far out of the money price below zero, so quotes are also excluded
    market = PARAM_ROWS["heston"]["SPOT"]
    slices = [synthetic_surface(market, 100.0, r, q, [t], np.linspace(-0.3, 0.5, 9)).slices[0]
              for t, r, q in ((0.1, 0.05, 0.0), (0.5, 0.01, 0.02), (1.0, 0.03, -0.01))]
    surface = QuoteSurface(100.0, slices)
    model = PARAM_ROWS["bgm"]["AMZN"]
    ivs, failures = zip(*(svjd.black_scholes._invert(
        sl.ctx, sl.t, sl.strikes, price_strike_slice(model, sl.ctx, sl.t, sl.strikes, sl.is_calls),
        sl.is_calls) for sl in slices))
    ok = np.concatenate(failures) == 0
    err = np.concatenate(ivs)[ok] - np.concatenate([sl.ivs for sl in slices])[ok]
    inversions = []
    monkeypatch.setattr(svjd.calibration, "_newton",
                        lambda *args: inversions.append(1) or svjd.black_scholes._newton(*args))
    metrics = error_metrics(model, surface)
    assert inversions == [1] and 0 < metrics.n_excluded == int((~ok).sum())
    assert metrics.rmse == float(np.sqrt(np.mean(err ** 2)))
    assert metrics.mape_pct == 100.0 * float(np.mean(
        np.abs(err) / np.concatenate([sl.ivs for sl in slices])[ok]))


def test_synthetic_surface_inverts_once_and_stops_at_a_failing_tenor(monkeypatch):
    calls = {"implied_vol": 0, "price_strike_slice": 0}
    for name in calls:
        def counted(*args, _original=getattr(svjd.calibration, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(svjd.calibration, name, counted)
    heston = synthetic_surface(PARAM_ROWS["heston"]["SPOT"], 100.0, 0.05, 0.0,
                               [1.0, 0.25, 0.5], MONEYNESS)
    assert calls == {"implied_vol": 1, "price_strike_slice": 3}
    for sl in heston.slices:
        assert sl.ivs.tolist() == implied_vol(sl.ctx, sl.t, sl.strikes, sl.prices,
                                              sl.is_calls).tolist()
    # bgm/AMZN's T = 0.1 slice holds negative calls: the command stops there, with
    # the message that tenor's own inversion gives
    calls.update(implied_vol=0, price_strike_slice=0)
    model, ctx, moneyness = PARAM_ROWS["bgm"]["AMZN"], MarketContext(100.0, 0.05, 0.0), [0.3, 0.4, 0.5]
    with pytest.raises(ValueError, match="outside no-arbitrage bounds") as stopped:
        synthetic_surface(model, 100.0, 0.05, 0.0, [0.1, 0.5, 1.0], moneyness)
    assert calls == {"implied_vol": 1, "price_strike_slice": 1}
    strikes = np.array([ctx.forward(0.1) * math.exp(m) for m in moneyness])
    with pytest.raises(ValueError) as alone:
        implied_vol(ctx, 0.1, strikes, price_strike_slice(model, ctx, 0.1, strikes, [True] * 3),
                    True)
    assert str(stopped.value) == str(alone.value)


def test_synthetic_surface_builds_each_quote_once(monkeypatch):
    original, calls = Quote.__post_init__, []

    def counted(quote):
        calls.append(quote)
        original(quote)

    monkeypatch.setattr(Quote, "__post_init__", counted)
    surface = synthetic_surface(PARAM_ROWS["heston"]["SPOT"], 100.0, 0.05, 0.0, [0.5, 1.0],
                                MONEYNESS)
    assert calls == [q for sl in surface.slices for q in sl.quotes]
    for sl in surface.slices:
        assert [(q.strike, q.is_call, q.price, q.iv) for q in sl.quotes] == list(zip(
            sl.strikes.tolist(), sl.is_calls.tolist(), sl.prices.tolist(), sl.ivs.tolist()))


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
    result = calibrate("heston", heston_surface, init=truth)
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
    result = calibrate("heston", heston_surface, init=init)
    assert result.rmse < 1e-3
    assert result.mape_pct < 0.5
    # the trace (start, end) never increases (up to squared-residual noise)
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


def test_calibrate_rejects_unknown_kind(heston_surface):
    with pytest.raises(ValueError):
        calibrate("sabr", heston_surface)
    with pytest.raises(ValueError, match="not heston"):
        calibrate("heston", heston_surface, init=PARAM_ROWS["bgm"]["SPOT"])


# ---------------------------------------------------------------------------
# Frozen-grid Jacobian
# ---------------------------------------------------------------------------

def _forward_difference(kind, x, surface):
    """Columns (residuals(x + h e_i) - residuals(x)) / h_i with SciPy's 2-point
    steps 1e-6 sign(x) max(1, |x|), flipped to stay inside the bounds."""
    cls = MODELS[kind]
    lo, hi = default_bounds(kind)
    h = 1e-6 * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where((x + h < lo) | (x + h > hi), -h, h)
    r0 = residuals(cls.from_flat(x), surface)
    cols = []
    for i in range(x.size):
        xb = x.copy()
        xb[i] += h[i]
        cols.append((residuals(cls.from_flat(xb), surface) - r0) / (xb[i] - x[i]))
    return np.column_stack(cols)


def _jacobian(kind, x, surface, held=None):
    """calibration._jacobian on held slices, anchored at x unless `held` is given."""
    lo, hi = default_bounds(kind)
    held = svjd.calibration._HeldSlices(surface, GridSpec()) if held is None else held
    return svjd.calibration._jacobian(MODELS[kind], x, lo, hi, held)


@pytest.mark.parametrize("kind", MODEL_NAMES)
def test_jacobian_columns_match_forward_differences(kind, heston_surface):
    # at each model's default start the grid is converged, so a bump that moves
    # the grid moves the 2-point reference by far less than 1e-5; on the
    # heavy-tailed rows it does not (the frozen grid leaves that motion out)
    x = np.asarray(default_init(kind, heston_surface).flat(), dtype=float)
    J, penalties = _jacobian(kind, x, heston_surface)
    reference = _forward_difference(kind, x, heston_surface)
    assert penalties == 0 and J.shape == reference.shape
    scale = np.abs(reference).max(axis=0)
    assert np.all(scale > 0)
    assert np.all(np.abs(J - reference).max(axis=0) <= 1e-5 * scale), kind


def test_jacobian_zeroes_the_column_of_a_moved_model_that_cannot_be_priced(heston_surface,
                                                                          monkeypatch):
    # every bumped grid moves, so each bumped model is priced in full; the one
    # with kappa bumped cannot be: its column is zeroed and counted in each tenor,
    # and the other columns are the full-pricing forward differences
    x = np.asarray(PARAM_ROWS["heston"]["SPOT"].flat(), dtype=float)
    kappa = HestonParams.FIELDS.index("kappa")
    model_prices = MaturitySlice.model_prices

    def unpriceable_kappa(self, model, grid_spec):
        if model.kappa != x[kappa]:
            raise ValueError("cannot price")
        return model_prices(self, model, grid_spec)

    monkeypatch.setattr(svjd.calibration._HeldSlices, "moved", lambda self, i, model: True)
    monkeypatch.setattr(MaturitySlice, "model_prices", unpriceable_kappa)
    J, penalties = _jacobian("heston", x, heston_surface)
    monkeypatch.undo()
    assert penalties == len(heston_surface.slices)
    assert np.all(J[:, kappa] == 0.0)
    reference = np.delete(_forward_difference("heston", x, heston_surface), kappa, axis=1)
    scale = np.abs(reference).max(axis=0)
    assert np.all(np.abs(np.delete(J, kappa, axis=1) - reference).max(axis=0) <= 1e-6 * scale)


def test_jacobian_logs_the_error_of_a_moved_model_that_cannot_be_priced(heston_surface,
                                                                        monkeypatch, caplog):
    # the setting above on two tenors: each zeroed kappa column is a penalty
    # whose DEBUG record carries the pricing error's text
    x = np.asarray(PARAM_ROWS["heston"]["SPOT"].flat(), dtype=float)
    kappa = HestonParams.FIELDS.index("kappa")
    model_prices = MaturitySlice.model_prices

    def unpriceable_kappa(self, model, grid_spec):
        if model.kappa != x[kappa]:
            raise ValueError("cannot price this kappa")
        return model_prices(self, model, grid_spec)

    monkeypatch.setattr(svjd.calibration._HeldSlices, "moved", lambda self, i, model: True)
    monkeypatch.setattr(MaturitySlice, "model_prices", unpriceable_kappa)
    surface = QuoteSurface(100.0, heston_surface.slices[:2])
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        J, penalties = _jacobian("heston", x, surface)
    assert penalties == 2 and np.all(J[:, kappa] == 0.0)
    assert [(r.name, r.levelno) for r in caplog.records] == [("svjd.calibration",
                                                               logging.DEBUG)] * 2
    assert [r.getMessage() for r in caplog.records] == [
        f"jacobian: tenor {sl.t:g} column {kappa} cannot be priced, zeroed: cannot price this kappa"
        for sl in surface.slices]


def test_frozen_slice_keeps_every_node_without_decay(monkeypatch):
    # frequent tiny down-jumps (eta2 at its lower bound) widen the grid so far at
    # T = 0.1 that its nodes end near xi = 5, where phi has barely decayed: the
    # jumps floor |phi| near exp(-lam (1 - p) T)
    model = HKDEParams(HestonParams(0.04, 0.04, 2.0, 0.3, -0.5),
                       KouJumpParams(50.0, 0.8, 20.0, 0.01))
    ctx = MarketContext(100.0, 0.05, 0.0)
    strikes = np.array([80.0, 100.0, 120.0])
    frozen = FrozenSlice.at(model, ctx, 0.1, strikes, strikes >= ctx.forward(0.1))
    assert frozen.xi.size == frozen.grid.n_basis == GridSpec().n
    # between two decaying tenors of its market, the all-N slice is priced
    # alone: no exponent call spans more than one grid's nodes
    smooth = PARAM_ROWS["heston"]["SPOT"]
    held = [FrozenSlice.at(smooth, ctx, t, strikes, strikes >= ctx.forward(t)) for t in (0.5, 1.0)]
    slices = [held[0], frozen, held[1]]
    nodes = count_exponent_nodes(monkeypatch)
    prices = price_frozen(slices, [[model, smooth]] * 3)
    assert nodes == [held[0].xi.size] * 2 + [GridSpec().n] * 2 + [held[1].xi.size] * 2
    assert [p.tobytes() for p in prices] == [p.tobytes() for s in slices
                                             for p in price_frozen([s], [[model, smooth]])]


def test_frozen_slice_matches_slice_pricing_and_drops_a_bounded_tail(heston_surface,
                                                                    monkeypatch):
    model = PARAM_ROWS["heston"]["SPOT"]
    x = np.asarray(model.flat())
    bumped = [HestonParams(*(x + 1e-6 * np.eye(5)[i])) for i in range(5)]
    frozen = [FrozenSlice.at(model, sl.ctx, sl.t, sl.strikes, sl.is_calls)
              for sl in heston_surface.slices]
    monkeypatch.setattr(svjd.proj, "LIVE_NODE_CUTOFF", 0.0)
    for frozen, sl in zip(frozen, heston_surface.slices):
        full = FrozenSlice.at(model, sl.ctx, sl.t, sl.strikes, sl.is_calls)
        k = frozen.xi.size
        assert 0 < k < full.xi.size
        # the frozen functional reprices the base within 1e-12 of the spot
        base = price_frozen([frozen], [[model]])[0][0]
        assert np.abs(base - sl.model_prices(model, GridSpec())).max() <= 1e-12 * sl.ctx.spot
        for m in [model] + bumped:
            h = np.exp(svjd.proj.char_exponent(m, sl.ctx, full.xi, sl.t)
                       - 1j * full.xi * math.log(sl.ctx.spot)) * full.weight
            terms = np.abs(h)[:, None] * np.abs(full.gain)
            bound = terms[k:].sum(axis=0)
            rounding = 64 * np.finfo(float).eps * terms.sum(axis=0)
            dropped = np.abs(price_frozen([frozen], [[m]])[0][0]
                             - price_frozen([full], [[m]])[0][0])
            assert np.all(dropped <= bound + rounding)
            assert bound.max() <= 1e-13 * sl.ctx.spot


def test_grid_move_falls_back_to_slice_pricing_and_fits(monkeypatch):
    # a start at p = 1 with a heavy unused down side: bumping p gives that side
    # weight, and the grid width, which goes as sqrt(c4), jumps with it
    truth = PARAM_ROWS["hkde"]["SPOT"]
    surface = synthetic_surface(truth, 100.0, 0.05, 0.0, [0.1, 0.25, 0.5, 1.0, 2.0],
                                np.linspace(-0.35, 0.35, 15))
    init = HKDEParams(HestonParams(0.0402, 0.1394, 11.566, 2.3318, -0.2507),
                      KouJumpParams(20.378, 1.0, 26.297, 0.0785))
    calls = []
    original = MaturitySlice.model_prices

    def counted(self, *args):
        calls.append(1)
        return original(self, *args)

    monkeypatch.setattr(MaturitySlice, "model_prices", counted)
    result = calibrate("hkde", surface, init=init)
    # the start and the result price each slice once; trial points are priced
    # on held slices, so the rest are the bumped models that moved their grid
    repriced = len(calls) - 2 * len(surface.slices)
    assert repriced > 0
    # the width's kink at p = 1 moves trial points off the grids anchored at the start
    assert result.n_anchors > len(surface.slices)
    assert result.rmse < 1e-3
    assert result.n_penalties == 0


def test_calibrate_counts_penalties_of_a_forced_off_grid_strike(heston_surface, monkeypatch,
                                                                caplog):
    # a tiny-variance start floors every grid half-width at 0.5, which leaves the
    # 0.7 log-moneyness strike of the last tenor off the grid: the residual
    # evaluation at the start falls back to the penalty (the trace prices it, and
    # the solver's first call reuses that vector), and the start's Jacobian
    # zeroes that tenor's rows
    truth = PARAM_ROWS["heston"]["SPOT"]
    far = synthetic_surface(truth, 100.0, 0.05, 0.0, [1.0], list(MONEYNESS) + [0.7])
    surface = QuoteSurface(100.0, heston_surface.slices[:2] + far.slices)
    raised = []
    original = svjd.proj._put_leg

    def counted(*args):
        try:
            return original(*args)
        except ValueError:
            raised.append(1)
            raise

    monkeypatch.setattr(svjd.proj, "_put_leg", counted)
    init = HestonParams(1e-4, 1e-4, 3.0, 0.01, -0.5)
    J, penalties = _jacobian("heston", np.asarray(init.flat()), surface)
    n_head = sum(sl.strikes.size for sl in surface.slices[:2])
    assert penalties == 1 and raised == [1]
    assert np.all(J[n_head:] == 0.0) and np.all(np.any(J[:n_head] != 0.0, axis=0))
    assert J.flags.f_contiguous   # a C-ordered zero block must not flip the layout

    raised.clear()
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        result = calibrate("heston", surface, init=init)
    assert result.n_penalties == len(raised) == 2
    messages = [r.getMessage() for r in caplog.records]
    assert [m.split(":")[0] for m in messages] == ["calibrate", "jacobian"]
    assert all("outside the projection grid" in m for m in messages)
    assert result.trace[0] == pytest.approx(PRICING_PENALTY, rel=1e-12)
    assert result.rmse < 1e-6


def test_calibrate_penalises_only_the_non_finite_residuals(heston_surface, monkeypatch,
                                                          caplog):
    # a trial point whose held pricing leaves two residuals nan: those two take
    # the penalty, the others stay, and the vector counts one penalty, logged once
    truth = PARAM_ROWS["heston"]["SPOT"]
    trial = np.asarray(truth.flat(), dtype=float) * (1.0 + 1e-3)
    held_residuals = svjd.calibration._HeldSlices.residuals

    def two_nan(self, model):
        r = held_residuals(self, model)
        r[[1, 4]] = math.nan
        return r

    seen = []

    def one_trial_point(fun, x0, jac, **kwargs):
        seen.append(fun(trial))
        return scipy.optimize.OptimizeResult(x=x0, cost=0.0, status=1)

    monkeypatch.setattr(svjd.calibration._HeldSlices, "residuals", two_nan)
    monkeypatch.setattr(scipy.optimize, "least_squares", one_trial_point)
    with caplog.at_level(logging.DEBUG, logger="svjd.calibration"):
        result = calibrate("heston", heston_surface, init=truth)
    (r,) = seen
    expected = held_residuals(svjd.calibration._HeldSlices(heston_surface, GridSpec()),
                              HestonParams.from_flat(trial))
    penalty = math.sqrt(PRICING_PENALTY / heston_surface.n_quotes)
    assert np.all(r[[1, 4]] == penalty)
    assert np.array_equal(np.delete(r, [1, 4]), np.delete(expected, [1, 4]))
    assert (result.n_residuals, result.n_penalties) == (2, 1)
    assert [rec.levelno for rec in caplog.records] == [logging.DEBUG]
    assert caplog.records[0].getMessage().startswith("calibrate: 2 non-finite residuals at ")


def test_calibrate_counts_residuals_and_jacobians(heston_surface, monkeypatch):
    # the start's full pricing plus every residual vector on the held slices
    calls = {"residuals": 0, "jacobians": 0}
    held_residuals = svjd.calibration._HeldSlices.residuals
    jacobian = svjd.calibration._jacobian

    def on_held(self, model):
        calls["residuals"] += 1
        return held_residuals(self, model)

    def counted(*args):
        calls["jacobians"] += 1
        return jacobian(*args)

    monkeypatch.setattr(svjd.calibration._HeldSlices, "residuals", on_held)
    monkeypatch.setattr(svjd.calibration, "_jacobian", counted)
    result = calibrate("heston", heston_surface)
    assert (result.n_residuals, result.n_jacobians) == (1 + calls["residuals"],
                                                        calls["jacobians"])
    assert result.n_jacobians >= 2 and result.n_penalties == 0


def test_n_anchors_counts_frozen_slice_builds(heston_surface, monkeypatch):
    builds = []
    build = FrozenSlice.at

    def counted(cls, *args):
        frozen = build(*args)
        builds.append(frozen)
        return frozen

    monkeypatch.setattr(FrozenSlice, "at", classmethod(counted))
    result = calibrate("heston", heston_surface)
    assert result.n_anchors == len(builds) >= len(heston_surface.slices)


def test_jacobian_reaches_scipy_fortran_ordered(heston_surface, monkeypatch):
    # SciPy's steps depend on J's memory order, so the layout is part of the fit:
    # _jacobian returns Fortran order, and calibrate hands it to SciPy as it is
    # (calibrate imports the solver per fit, so the spy sits on scipy.optimize)
    x = np.asarray(default_init("heston", heston_surface).flat(), dtype=float)
    J, _ = _jacobian("heston", x, heston_surface)
    assert J.flags.f_contiguous and not J.flags.c_contiguous
    layouts = []
    solve = scipy.optimize.least_squares

    def spy(fun, x0, jac, **kwargs):
        def seen(x):
            value = jac(x)
            layouts.append((value.flags.f_contiguous, value.flags.c_contiguous))
            return value
        return solve(fun, x0, jac=seen, **kwargs)

    monkeypatch.setattr(scipy.optimize, "least_squares", spy)
    calibrate("heston", heston_surface)
    assert len(layouts) >= 4 and set(layouts) == {(True, False)}


@pytest.mark.parametrize("kind", MODEL_NAMES)
def test_jacobian_equals_the_per_model_reference(kind, heston_surface):
    # the Jacobian under test reuses the slices the residual evaluation just run
    # anchored; the reference anchors afresh
    points = [default_init(kind, heston_surface)] + list(PARAM_ROWS[kind].values())
    for model in points:
        x = np.asarray(model.flat(), dtype=float)
        held = svjd.calibration._HeldSlices(heston_surface, GridSpec())
        held.residuals(model)
        J, penalties = _jacobian(kind, x, heston_surface, held)
        assert held.n_anchors == len(heston_surface.slices)
        J_ref, penalties_ref = _jacobian(kind, x, heston_surface)
        assert np.array_equal(J, J_ref) and penalties == penalties_ref, (kind, model)


def test_jacobian_after_residuals_prices_only_live_nodes(heston_surface, monkeypatch):
    model = default_init("hkde", heston_surface)
    live = [FrozenSlice.at(model, sl.ctx, sl.t, sl.strikes, sl.is_calls).xi.size
            for sl in heston_surface.slices]
    nodes = count_exponent_nodes(monkeypatch)
    held = svjd.calibration._HeldSlices(heston_surface, GridSpec())
    held.residuals(model)
    # each tenor anchors on a prefix that holds its live nodes, short of all N
    # where the bound certifies the rest dead, then one call prices the model on
    # the live prefixes of all tenors at once
    anchors = nodes[:len(live)]
    assert all(k <= cut < GridSpec().n for k, cut in zip(live, anchors))
    assert nodes[len(live):] == [sum(live)]
    nodes.clear()
    _jacobian("hkde", np.asarray(model.flat(), dtype=float), heston_surface, held)
    # one call on the summed live prefixes for the base and each of the nine bumped models
    assert nodes == [sum(live)] * 10 and sum(live) <= GridSpec().n


def test_slice_pricing_does_not_reuse_the_spectrum(monkeypatch):
    model = PARAM_ROWS["heston"]["SPOT"]
    ctx = MarketContext(100.0, 0.05, 0.0)
    strikes = np.array([90.0, 100.0, 110.0])
    nodes = count_exponent_nodes(monkeypatch)
    first = price_strike_slice(model, ctx, 0.5, strikes, strikes >= 100.0)
    second = price_strike_slice(model, ctx, 0.5, strikes, strikes >= 100.0)
    assert nodes == [GridSpec().n] * 2 and np.array_equal(first, second)


def test_calibrate_evaluates_each_point_once(heston_surface, monkeypatch):
    # the start is priced in full once; every other residual vector is on the
    # held slices, each at a point of its own
    seen = {"residuals": [], "_jacobian": []}
    held_residuals = svjd.calibration._HeldSlices.residuals
    jacobian = svjd.calibration._jacobian

    def residuals_at(self, model):
        seen["residuals"].append(np.asarray(model.flat(), dtype=float).tobytes())
        return held_residuals(self, model)

    def jacobian_at(cls, x, *args):
        seen["_jacobian"].append(x.tobytes())
        return jacobian(cls, x, *args)

    monkeypatch.setattr(svjd.calibration._HeldSlices, "residuals", residuals_at)
    monkeypatch.setattr(svjd.calibration, "_jacobian", jacobian_at)
    start = np.asarray(default_init("heston", heston_surface).flat(), dtype=float).tobytes()
    result = calibrate("heston", heston_surface)
    assert len(set(seen["residuals"])) == len(seen["residuals"]) == result.n_residuals - 1
    assert start not in seen["residuals"] and seen["_jacobian"][0] == start
    assert len(set(seen["_jacobian"])) == len(seen["_jacobian"]) == result.n_jacobians


# ---------------------------------------------------------------------------
# Held slices and the one-pass driver (SPOT-HKDE 5x15 round-trip surface)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def spot_hkde_surface():
    return synthetic_surface(PARAM_ROWS["hkde"]["SPOT"], 100.0, 0.05, 0.0,
                             [0.1, 0.25, 0.5, 1.0, 2.0], np.linspace(-0.35, 0.35, 15))


def test_held_residuals_match_full_pricing_inside_the_re_anchor_rule(spot_hkde_surface):
    # perturbations of up to 1e-3 relative, p held at the truth's 1 (below it the
    # width jumps); the held slices stay anchored at the truth. Measured gap over
    # 200 such draws: at most 2.3e-12 in residual units (sqrt(w) times price),
    # 4.7e-11 relative to the price; the bound leaves 40x headroom
    truth = PARAM_ROWS["hkde"]["SPOT"]
    x = np.asarray(truth.flat(), dtype=float)
    held = svjd.calibration._HeldSlices(spot_hkde_surface, GridSpec())
    held.residuals(truth)
    rng = np.random.default_rng(16)
    n_tenors, tested = len(spot_hkde_surface.slices), 0
    for _ in range(40):
        factors = 1.0 + 1e-3 * rng.uniform(-1.0, 1.0, x.size)
        factors[HKDEParams.FIELDS.index("p")] = 1.0
        model = HKDEParams.from_flat(x * factors)
        if any(held.moved(i, model) for i in range(n_tenors)):
            continue
        gap = np.abs(held.residuals(model) - residuals(model, spot_hkde_surface))
        assert gap.max() <= 1e-10
        tested += 1
    assert held.n_anchors == n_tenors and tested >= 20


def test_re_anchor_rule_bounds_the_width_and_the_left_edge(spot_hkde_surface, monkeypatch):
    truth = PARAM_ROWS["hkde"]["SPOT"]
    held = svjd.calibration._HeldSlices(spot_hkde_surface, GridSpec())
    held.residuals(truth)
    grid = held.slices[0].grid
    rtol = svjd.calibration.GRID_MOVE_RTOL
    for fields, moved in [
            ({"alpha_bar": grid.alpha_bar * (1 + 0.99 * rtol)}, False),
            ({"alpha_bar": grid.alpha_bar * (1 - 1.01 * rtol)}, True),
            ({"x1": grid.x1 + 0.99 * rtol * grid.alpha_bar}, False),
            ({"x1": grid.x1 - 1.01 * rtol * grid.alpha_bar}, True)]:
        shifted = dataclasses.replace(grid, **fields)
        monkeypatch.setattr(svjd.calibration, "build_grid", lambda *args: shifted)
        assert held.moved(0, truth) is moved, fields
        # a move past the rule re-anchors tenor 0, here on the truth's own grid again
        anchors = held.n_anchors
        held.at(0, truth)
        assert held.n_anchors == anchors + moved and held.slices[0].grid == grid


def _pass_events(monkeypatch) -> list:
    """'r', 'j' per residual vector on the held slices and Jacobian, 'pass' per solver run."""
    events = []
    held_residuals = svjd.calibration._HeldSlices.residuals
    jacobian, solve = svjd.calibration._jacobian, scipy.optimize.least_squares

    def on_held(self, model):
        events.append("r")
        return held_residuals(self, model)

    def counted(*args):
        events.append("j")
        return jacobian(*args)

    def one_pass(*args, **kwargs):
        res = solve(*args, **kwargs)
        events.append("pass")
        return res

    monkeypatch.setattr(svjd.calibration._HeldSlices, "residuals", on_held)
    monkeypatch.setattr(svjd.calibration, "_jacobian", counted)
    monkeypatch.setattr(scipy.optimize, "least_squares", one_pass)
    return events


def _start_2024() -> HKDEParams:
    """The criterion-08 round trip's start: the truth's fields scaled by seed-2024 factors."""
    lo, hi = default_bounds("hkde")
    factors = np.random.default_rng(2024).uniform(0.5, 2.0, 9)
    return HKDEParams.from_flat(np.clip(np.asarray(PARAM_ROWS["hkde"]["SPOT"].flat()) * factors,
                                        lo, hi))


def test_the_hkde_round_trip_runs_one_solver_pass(spot_hkde_surface, monkeypatch):
    # the criterion-08 round trip from start 2024
    events = _pass_events(monkeypatch)
    nodes = count_exponent_nodes(monkeypatch)
    result = calibrate("hkde", spot_hkde_surface, init=_start_2024())
    assert events.count("pass") == 1 and events[-1] == "pass"
    # held tenors are priced together, but no exponent call spans more nodes
    # than one grid has (the start and the result are priced on all of them)
    assert max(nodes) == GridSpec().n
    assert len(result.trace) == 2 and result.trace[1] <= 1e-18 * max(1.0, result.trace[0])
    assert result.n_residuals == 1 + events.count("r")
    assert result.n_jacobians == events.count("j")
    # the result is fully priced, not read off the held grids
    assert np.array_equal(result.per_quote_residuals, residuals(result.params, spot_hkde_surface))
    assert result.objective == objective(result.params, spot_hkde_surface)
    assert result.rmse == error_metrics(result.params, spot_hkde_surface).rmse < 1e-3


def test_hkde_round_trip_anchors_equal_the_all_node_builds(spot_hkde_surface, monkeypatch):
    # every anchor of the criterion-08 fit from start 2024, rebuilt on all N nodes
    anchors, anchored, build = [], [], FrozenSlice.at
    nodes = count_exponent_nodes(monkeypatch)

    def recorded(cls, *args):
        calls = len(nodes)
        anchors.append((args, build(*args)))
        anchored.extend(nodes[calls:])
        return anchors[-1][1]

    monkeypatch.setattr(FrozenSlice, "at", classmethod(recorded))
    result = calibrate("hkde", spot_hkde_surface, init=_start_2024())
    # 113 anchors, 462,848 nodes when each evaluated all N
    assert result.n_anchors == len(anchors) == len(anchored) and sum(anchored) <= 100_000
    certify_nothing(monkeypatch)
    for args, frozen in anchors:
        assert slice_bytes(frozen) == slice_bytes(build(*args))


def test_a_misspecified_fit_runs_one_solver_pass(spot_hkde_surface, monkeypatch):
    # Heston cannot fit the HKDE smile, so the fit ends well above zero
    events = _pass_events(monkeypatch)
    result = calibrate("heston", spot_hkde_surface)
    assert events.count("pass") == 1 and len(result.trace) == 2
    assert 1e-6 * result.trace[0] < result.trace[1] < result.trace[0]
    assert not result.stagnated
    # the result is fully priced, not read off the held grids
    assert np.array_equal(result.per_quote_residuals, residuals(result.params, spot_hkde_surface))
    assert result.objective == objective(result.params, spot_hkde_surface)


# ---------------------------------------------------------------------------
# Unit-horizon ladder cache
# ---------------------------------------------------------------------------

def test_residuals_run_one_ladder_for_five_tenors(monkeypatch):
    model = PARAM_ROWS["hkde"]["AMZN"]
    surface = synthetic_surface(model, 100.0, 0.05, 0.0, [0.1, 0.25, 0.5, 1.0, 2.0], MONEYNESS)
    calls = []
    original = svjd.proj.cumulants_numeric

    def counted(*args):
        calls.append(args)
        return original(*args)

    svjd.proj._unit_cumulants.cache_clear()
    monkeypatch.setattr(svjd.proj, "cumulants_numeric", counted)
    residuals(model, surface)
    assert len(calls) == 1 and calls[0][2] == 1.0
