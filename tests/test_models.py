"""Characteristic exponents, compensators and cumulants."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from svjd.calibration import default_bounds
from svjd.models import (
    BGMParams,
    BatesParams,
    HestonParams,
    HKDEParams,
    KouJumpParams,
    MODELS,
    MarketContext,
    NormalJumpParams,
    _clog1p,
    char_exponent,
    cumulants_numeric,
    model_from_dict,
    model_to_dict,
)

from svjd.proj import build_grid

from conftest import ALL_ROWS, PARAM_ROWS, cumulants_kou, degenerate_hkde, pure_jump_hkde


# ---------------------------------------------------------------------------
# Kou drift compensator
# ---------------------------------------------------------------------------

def test_omega_zero_intensity():
    assert KouJumpParams(0.0, 0.3, 2.0, 3.0).omega() == 0.0


def test_omega_forced_arithmetic():
    # p=1, eta1=2: 2/1 + 0 - 1 = 1, so omega = -1
    assert KouJumpParams(1.0, 1.0, 2.0, 5.0).omega() == pytest.approx(-1.0, abs=1e-15)


def test_omega_amzn_exact_rational():
    # frozen from exact Fraction arithmetic on the decimal literals
    jumps = KouJumpParams(53.165, 0.999, 49.799, 2.587)
    assert jumps.omega() == pytest.approx(-1.07355799953009, rel=1e-14)


@pytest.mark.parametrize("name", sorted(PARAM_ROWS["hkde"]))
def test_kou_compensator_written_out(name):
    # omega() and the exponent share one compensator; both equal the expanded form bit for bit
    j = PARAM_ROWS["hkde"][name].jumps
    comp = j.p / (j.eta1 - 1.0) - (1.0 - j.p) / (j.eta2 + 1.0)
    assert j.omega() == -j.lam * comp
    xi = np.concatenate([[0.0], np.linspace(-60.0, 60.0, 241), 1e-9 - 0.5j * np.ones(3)])
    ix = 1j * xi
    expanded = 0.7 * j.lam * ix * (j.p / (j.eta1 - ix) - (1.0 - j.p) / (j.eta2 + ix) - comp)
    assert np.array_equal(j.exponent(xi, 0.7), expanded)


@pytest.mark.parametrize("name", sorted(PARAM_ROWS["bates"]))
def test_normal_leg_written_out(ctx, name):
    # the normal jump leg and its Bates composite equal the expressions BatesParams
    # once carried itself, bit for bit
    model = PARAM_ROWS["bates"][name]
    j = model.jumps
    omega = -j.lam * math.expm1(j.mu_j + 0.5 * j.sigma_j * j.sigma_j)
    assert j.omega() == model.omega() == omega
    assert model.frequency_scale() == min(1.0, 1.0 / (abs(j.mu_j) + j.sigma_j))
    xi = np.concatenate([[0.0], np.linspace(-60.0, 60.0, 241), 1e-9 - 0.5j * np.ones(3)])
    jump_cf = np.exp(1j * xi * j.mu_j - 0.5 * j.sigma_j * j.sigma_j * xi * xi)
    term = 0.7 * (j.lam * (jump_cf - 1.0) + 1j * xi * omega)
    assert np.array_equal(j.exponent(xi, 0.7), term)
    assert np.array_equal(model.exponent(ctx, xi, 0.7), model.heston.exponent(ctx, xi, 0.7) + term)


def test_jump_legs_without_intensity_add_no_frequency_scale():
    for leg in (NormalJumpParams(0.0, -0.2, 0.5), KouJumpParams(0.0, 0.5, 2.0, 0.1)):
        assert leg.frequency_scale() == math.inf
    assert KouJumpParams(1.0, 1.0, 2.0, 0.1).frequency_scale() == 2.0    # the down side has no weight
    assert KouJumpParams(1.0, 0.0, 2.0, 5.0).frequency_scale() == 5.0    # the up side has no weight


def test_omega_requires_eta1_above_one():
    with pytest.raises(ValueError):
        KouJumpParams(1.0, 0.5, 1.0, 2.0)


# a valid flat parameter list of each parameter class
VALID_FLAT = pytest.mark.parametrize("cls, values", [
    (HestonParams, [0.04, 0.04, 1.0, 0.5, -0.5]),
    (KouJumpParams, [1.0, 0.5, 10.0, 5.0]),
    (NormalJumpParams, [1.0, -0.1, 0.2]),
    (BatesParams, [0.04, 0.04, 1.0, 0.5, -0.5, 1.0, -0.1, 0.2]),
    (BGMParams, [1.0, 15.0, 1.0, 15.0, 0.2]),
], ids=["heston", "kou", "normal", "bates", "bgm"])


# each is rejected as a field: a bool, str, None or array is not a real scalar
NOT_FINITE_SCALARS = [math.nan, math.inf, -math.inf, True, "0.04", None,
                      np.array(0.04), np.array([0.04])]


@VALID_FLAT
def test_params_reject_nonfinite_field(cls, values):
    cls.from_flat(values)
    cls.from_flat(np.array(values))     # np.float64 fields
    for i, name in enumerate(cls.FIELDS):
        for bad in NOT_FINITE_SCALARS:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                cls.from_flat(values[:i] + [bad] + values[i + 1:])


@pytest.mark.parametrize("cls, values, message", [
    (HestonParams, [0.04, 0.04, 0.0, 0.5, -0.5], "v0, theta, kappa, sigma_v must be positive"),
    (HestonParams, [0.04, 0.04, 1.0, 0.5, -1.5], "rho must lie in [-1, 1]"),
    (KouJumpParams, [-1.0, 0.5, 10.0, 5.0], "lam must be nonnegative"),
    (KouJumpParams, [1.0, 1.5, 10.0, 5.0], "p must lie in [0, 1]"),
    (KouJumpParams, [1.0, 0.5, 10.0, 0.0], "eta2 must be positive"),
    (NormalJumpParams, [-1.0, -0.1, 0.2], "lam must be nonnegative"),
    (NormalJumpParams, [1.0, -0.1, 0.0], "sigma_j must be positive"),
    (BGMParams, [1.0, 15.0, 0.0, 15.0, 0.2], "all BGM parameters must be positive"),
    (BGMParams, [1.0, 1.0, 1.0, 15.0, 0.2], "lam_p must exceed 1"),
], ids=["heston-kappa", "heston-rho", "kou-lam", "kou-p", "kou-eta2", "normal-lam",
        "normal-sigma_j", "bgm-alpha_m", "bgm-lam_p"])
def test_params_reject_a_field_out_of_range(cls, values, message):
    with pytest.raises(ValueError) as info:
        cls.from_flat(values)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["spot", "rate", "div_yield"])
@pytest.mark.parametrize("bad", NOT_FINITE_SCALARS)
def test_market_context_rejects_nonfinite_field(name, bad):
    # a nan spot used to reach the projection grid and be reported as off-grid strikes
    fields = {"spot": 100.0, "rate": 0.05, "div_yield": 0.0, name: bad}
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be finite; got {bad}')}$"):
        MarketContext(**fields)


# ---------------------------------------------------------------------------
# Heston characteristic function
# ---------------------------------------------------------------------------

def _heston_cf_riccati(xi, t, p: HestonParams, ctx: MarketContext):
    """Independent oracle: numerically integrate the Riccati system."""
    def rhs(_, y):
        b = y[2] + 1j * y[3]
        db = (0.5 * (-xi * xi - 1j * xi)
              + (1j * xi * p.rho * p.sigma_v - p.kappa) * b
              + 0.5 * p.sigma_v ** 2 * b * b)
        da = p.kappa * p.theta * b
        return [da.real, da.imag, db.real, db.imag]

    sol = solve_ivp(rhs, [0.0, t], [0.0, 0.0, 0.0, 0.0], rtol=1e-12, atol=1e-14,
                    method="DOP853")
    a = sol.y[0, -1] + 1j * sol.y[1, -1]
    b = sol.y[2, -1] + 1j * sol.y[3, -1]
    return np.exp(1j * xi * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t)
                  + a + b * p.v0)


def test_cf_heston_at_zero_is_one(ctx):
    for params in PARAM_ROWS["heston"].values():
        assert np.exp(params.exponent(ctx, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_cf_heston_matches_riccati_oracle(ctx):
    params = PARAM_ROWS["heston"]["SPOT"]
    for t in (0.1, 0.5, 2.0):
        for xi in (0.5, 1.0, 5.0, 25.0):
            ours = complex(np.exp(params.exponent(ctx, xi, t)))
            oracle = complex(_heston_cf_riccati(xi, t, params, ctx))
            assert abs(ours - oracle) / abs(oracle) < 1e-9


def test_cf_heston_black_scholes_limit(ctx):
    v0 = 0.04
    params = HestonParams(v0=v0, theta=v0, kappa=1e-8, sigma_v=1e-8, rho=0.0)
    for t in (0.25, 1.0, 5.0):
        for xi in (0.3, 1.0, 7.0):
            ours = complex(np.exp(params.exponent(ctx, xi, t)))
            gauss = np.exp(1j * xi * (math.log(ctx.spot) + ctx.rate * t)
                           - 0.5 * v0 * t * (xi * xi + 1j * xi))
            assert abs(ours - gauss) / abs(gauss) < 1e-6


def test_cf_heston_forward_normalized_bounded(ctx):
    xi = np.linspace(-200.0, 200.0, 4001)
    for params in PARAM_ROWS["heston"].values():
        for t in (0.1, 1.0, 10.0):
            phi = np.exp(params.exponent(ctx, xi, t))
            normalized = phi * np.exp(-1j * xi * (math.log(ctx.spot) + ctx.rate * t))
            assert np.all(np.abs(normalized) <= 1.0 + 1e-12)


def test_cf_heston_long_maturity_continuity(ctx):
    # branch errors show up as O(1) jumps on a fine frequency grid
    xi = np.linspace(0.0, 200.0, 40001)
    for params in PARAM_ROWS["heston"].values():
        phi = np.exp(params.exponent(ctx, xi, 10.0))
        normalized = phi * np.exp(-1j * xi * (math.log(ctx.spot) + ctx.rate * 10.0))
        assert np.abs(np.diff(normalized)).max() < 0.05


# ---------------------------------------------------------------------------
# Kou characteristic function
# ---------------------------------------------------------------------------

def test_cf_kou_at_zero_and_no_jumps():
    jumps = KouJumpParams(2.0, 0.4, 3.0, 4.0)
    assert np.exp(jumps.exponent(0.0, 1.7)) == pytest.approx(1.0, abs=1e-15)
    none = KouJumpParams(0.0, 0.4, 3.0, 4.0)
    xi = np.linspace(-40, 40, 101)
    assert np.allclose(np.exp(none.exponent(xi, 2.0)), 1.0, atol=1e-15)


def test_cf_kou_symmetric_exponent_imag_odd():
    jumps = KouJumpParams(1.5, 0.5, 6.0, 6.0)
    t = 0.75
    xi = np.linspace(0.1, 30, 50)
    # strip the omega drift: remaining exponent of a symmetric density is even/real-odd/imag
    drift = jumps.omega()
    exp_plus = jumps.exponent(xi, t) - 1j * xi * drift * t
    exp_minus = jumps.exponent(-xi, t) + 1j * xi * drift * t
    assert np.allclose(exp_plus.imag, -exp_minus.imag, atol=1e-13)
    assert np.allclose(exp_plus.imag, 0.0, atol=1e-13)


def test_cf_model_hermitian_symmetry(ctx):
    xi = np.linspace(0.0, 60.0, 121)
    for _, _, params in ALL_ROWS:
        plus = np.exp(params.exponent(ctx, xi, 0.8))
        minus = np.exp(params.exponent(ctx, -xi, 0.8))
        assert np.allclose(minus, np.conj(plus), rtol=0, atol=1e-14 * np.abs(plus).max())


def test_cf_model_martingale_identity_all_rows(ctx):
    for _, _, params in ALL_ROWS:
        for t in (0.1, 1.0, 5.0):
            lhs = complex(np.exp(params.exponent(ctx, -1j, t)))
            rhs = ctx.spot * math.exp((ctx.rate - ctx.div_yield) * t)
            assert abs(lhs - rhs) / rhs < 1e-10, (params, t)


def test_cf_model_forward_normalized_bounded(ctx):
    xi = np.linspace(-200.0, 200.0, 2001)
    for _, _, params in ALL_ROWS:
        phi = np.exp(params.exponent(ctx, xi, 1.0))
        normalized = phi * np.exp(-1j * xi * (math.log(ctx.spot) + ctx.rate * 1.0))
        assert np.all(np.abs(normalized) <= 1.0 + 1e-12)


def test_hkde_reduces_to_heston(ctx):
    heston = PARAM_ROWS["heston"]["SPOT"]
    hkde = HKDEParams(heston, KouJumpParams(0.0, 0.5, 20.0, 20.0))
    xi = np.linspace(-80, 80, 321)
    for t in (0.1, 1.0):
        a = np.exp(hkde.exponent(ctx, xi, t))
        b = np.exp(heston.exponent(ctx, xi, t))
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12


def test_bates_reduces_to_heston(ctx):
    heston = PARAM_ROWS["heston"]["SPOT"]
    bates = BatesParams(heston, NormalJumpParams(lam=0.0, mu_j=-0.2, sigma_j=0.5))
    xi = np.linspace(-80, 80, 321)
    for t in (0.1, 1.0):
        a = np.exp(bates.exponent(ctx, xi, t))
        b = np.exp(heston.exponent(ctx, xi, t))
        assert np.max(np.abs(a - b) / np.abs(b)) < 1e-12


def test_cf_hkde_is_product_of_legs(ctx, amzn_hkde):
    xi = np.linspace(-50, 50, 101)
    t = 0.7
    prod = (np.exp(amzn_hkde.heston.exponent(ctx, xi, t))
            * np.exp(amzn_hkde.jumps.exponent(xi, t)))
    assert np.allclose(np.exp(amzn_hkde.exponent(ctx, xi, t)), prod, rtol=1e-13)


# ---------------------------------------------------------------------------
# The Heston exponent against a frozen copy of its earlier form
# ---------------------------------------------------------------------------

def _frozen_clog1p(z):
    """_clog1p as it was: two complex temporaries added."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return 0.5 * np.log1p(2.0 * x + x * x + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _frozen_heston_exponent(p: HestonParams, ctx, xi, t):
    """HestonParams.exponent as it was: 1j*xi, beta + d and g*edt formed twice each.
    The exponent must return exactly its bytes."""
    xi = np.asarray(xi, dtype=complex)
    sv2 = p.sigma_v * p.sigma_v
    beta = p.kappa - 1j * xi * p.sigma_v * p.rho
    lin = 1j * xi + xi * xi
    d = np.sqrt(beta * beta + sv2 * lin)
    bmd = -sv2 * lin / (beta + d)
    g = bmd / (beta + d)
    edt = np.exp(-d * t)
    log_term = _frozen_clog1p(-g * edt) - _frozen_clog1p(-g)
    a = p.kappa * p.theta / sv2 * (bmd * t - 2.0 * log_term)
    b = bmd / sv2 * (1.0 - edt) / (1.0 - g * edt)
    return 1j * xi * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t) + a + b * p.v0


def test_clog1p_equals_frozen_copy():
    parts = [0.0, -0.0, 1e-300, -1e-17, 0.3, -0.5, -0.7, 2.5, 1e8]
    z = np.array([complex(x, y) for x in parts for y in parts])    # -0.0 parts kept
    assert _clog1p(z).tobytes() == _frozen_clog1p(z).tobytes()


@pytest.mark.parametrize("kind, name, model", [r for r in ALL_ROWS if r[0] != "bgm"])
def test_heston_exponent_equals_frozen_copy(ctx, kind, name, model):
    heston = model if kind == "heston" else model.heston
    for market in (ctx, MarketContext(spot=80.0, rate=0.01, div_yield=0.03)):
        for t in (0.1, 0.25, 0.5, 1.0, 2.0):
            nodes = build_grid(model, market, t).delta_xi * np.arange(4096)
            # the projection nodes, the cumulant ladder's small steps, complex
            # arguments in both half planes and the MGF strip's imaginary axis
            z = np.concatenate([nodes, np.geomspace(1e-9, 1.0, 40), -np.geomspace(1e-9, 1.0, 40),
                                nodes[:200] - 0.5j, -nodes[:200] + 0.25j,
                                -1j * np.linspace(-3.0, 3.0, 61)])
            assert (heston.exponent(market, z, t).tobytes()
                    == _frozen_heston_exponent(heston, market, z, t).tobytes()), (market, t)


# ---------------------------------------------------------------------------
# The bound on log|phi| that certifies dead projection nodes
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(MODELS)), t=st.floats(0.02, 5.0),
       u=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9))
def test_log_modulus_bound_holds_and_never_rises(kind, t, u):
    # anywhere in the calibration bounds: Re psi = log|phi| <= bound wherever psi
    # is finite, and the bound does not rise with xi. The slack grows with |bound|
    # at rounding scale: BGM's bound is log|phi| itself, about -2e10 at xi = 3e4
    lo, hi = default_bounds(kind)
    model = MODELS[kind].from_flat(lo + np.asarray(u[:lo.size]) * (hi - lo))
    xi = np.concatenate([[0.0], np.geomspace(1e-3, 3e4, 241)])
    with np.errstate(all="ignore"):
        psi = char_exponent(model, MarketContext(100.0, 0.05, 0.02), xi, t)
        bound = model.log_modulus_bound(xi, t)
    finite = np.isfinite(psi)
    slack = 1e-9 + 1e-14 * np.abs(bound)
    assert np.all(psi.real[finite] <= (bound + slack)[finite]), model
    assert bound[0] == 0.0 and np.all(np.diff(bound) <= 1e-12 * (1.0 + np.abs(bound[1:]))), model


# ---------------------------------------------------------------------------
# Cumulants
# ---------------------------------------------------------------------------

def test_cumulants_kou_symmetry_kills_odd_orders():
    jumps = KouJumpParams(2.0, 0.5, 7.0, 7.0)
    assert cumulants_kou(jumps, 1.3, 3) == 0.0


def test_cumulants_kou_forced_arithmetic():
    jumps = KouJumpParams(1.0, 1.0, 2.0, 5.0)
    assert cumulants_kou(jumps, 1.0, 2) == pytest.approx(0.5, rel=1e-15)


def test_cumulants_kou_amzn_frozen():
    # frozen from exact Fraction arithmetic on the decimal literals, t = 0.5
    jumps = KouJumpParams(53.165, 0.999, 49.799, 2.587)
    expected = {1: -0.013792351809028705, 2: 0.029360462405612887,
                3: -0.00792190066413553, 4: 0.014347282923025253}
    for n, val in expected.items():
        assert cumulants_kou(jumps, 0.5, n) == pytest.approx(val, rel=1e-13)


def test_cumulants_kou_order_4_vs_high_precision_fd():
    # independent oracle: 4th central difference of the textbook log-CF,
    # evaluated in 40-digit arithmetic so the tiny step carries no roundoff
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    lam, p, eta1, eta2 = (mp.mpf(s) for s in ("53.165", "0.999", "49.799", "2.587"))
    t = mp.mpf("0.5")
    omega = -lam * (p * eta1 / (eta1 - 1) + (1 - p) * eta2 / (eta2 + 1) - 1)

    def log_cf(xi):
        return t * (lam * (p * eta1 / (eta1 - 1j * xi)
                           + (1 - p) * eta2 / (eta2 + 1j * xi) - 1) + omega * 1j * xi)

    h = mp.mpf("1e-5")
    d4 = (log_cf(2 * h) - 4 * log_cf(h) + 6 * log_cf(0) - 4 * log_cf(-h)
          + log_cf(-2 * h)) / h ** 4
    oracle = float(mp.re(d4))
    jumps = KouJumpParams(53.165, 0.999, 49.799, 2.587)
    assert cumulants_kou(jumps, 0.5, 4) == pytest.approx(oracle, rel=1e-6)


def test_cumulants_kou_rejects_bad_order():
    with pytest.raises(ValueError):
        cumulants_kou(KouJumpParams(1.0, 0.5, 2.0, 2.0), 1.0, 5)


def test_cumulants_numeric_matches_kou_closed_form():
    ctx = MarketContext(spot=1.0, rate=0.0, div_yield=0.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        lam = 10 ** rng.uniform(-1, math.log10(250))
        p = rng.uniform(0, 1)
        eta1 = 10 ** rng.uniform(math.log10(1.01), math.log10(300))
        eta2 = 10 ** rng.uniform(math.log10(0.01), math.log10(300))
        t = rng.uniform(0.05, 2.0)
        jumps = KouJumpParams(lam, p, eta1, eta2)
        numeric = cumulants_numeric(pure_jump_hkde(jumps), ctx, t)
        for n in (1, 2, 3, 4):
            exact = cumulants_kou(jumps, t, n)
            assert numeric[n - 1] == pytest.approx(exact, rel=1e-5, abs=1e-13), (jumps, t, n)


def test_cumulants_numeric_variance_positive(ctx):
    for _, _, params in ALL_ROWS:
        assert cumulants_numeric(params, ctx, 1.0)[1] > 0.0


def test_cumulants_numeric_first_carries_forward_drift(ctx):
    # k1 = ln S0 + (r-q)t + jump/diffusion drift corrections
    model = degenerate_hkde(0.2)
    k1 = cumulants_numeric(model, ctx, 1.0)[0]
    expected = math.log(100.0) + 0.05 - 0.5 * 0.04
    assert k1 == pytest.approx(expected, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.1, 100.0), p=st.floats(0.0, 1.0),
       eta1=st.floats(1.05, 200.0), eta2=st.floats(0.05, 200.0))
def test_cumulants_kou_second_order_nonnegative(lam, p, eta1, eta2):
    assert cumulants_kou(KouJumpParams(lam, p, eta1, eta2), 1.0, 2) >= 0.0


# ---------------------------------------------------------------------------
# Drift compensators with the math module's bits
# ---------------------------------------------------------------------------

def test_stacked_omega_equals_each_rows_scalar_omega():
    # NumPy's expm1, log and power round differently from math's on some of
    # these 20,000 rows; the Monte Carlo drifts and the exponents read omega()
    rng = np.random.default_rng(11)
    n = 20000
    heston = [0.04, 0.04, 1.0, 0.5, -0.5]
    bates = [heston + [lam, mu, sj] for lam, mu, sj in
             zip(rng.uniform(0.0, 5.0, n), rng.uniform(-2.0, 0.5, n), rng.uniform(0.01, 1.5, n))]
    bgm = np.column_stack([rng.uniform(0.01, 20.0, n), rng.uniform(1.01, 300.0, n),
                           rng.uniform(0.01, 20.0, n), rng.uniform(0.01, 300.0, n),
                           rng.uniform(0.01, 2.0, n)])
    written_out = {
        BatesParams: lambda v0, theta, kappa, sigma_v, rho, lam, mu_j, sigma_j:
            -lam * math.expm1(mu_j + 0.5 * sigma_j * sigma_j),
        BGMParams: lambda alpha_p, lam_p, alpha_m, lam_m, sigma:
            (-0.5 * sigma**2 - alpha_p * math.log(lam_p / (lam_p - 1.0))
             - alpha_m * math.log(lam_m / (lam_m + 1.0))),
    }
    for cls, rows in ((BatesParams, bates), (BGMParams, bgm)):
        scalar = [cls.from_flat(row).omega() for row in rows]
        assert scalar == [written_out[cls](*map(float, row)) for row in rows]


# ---------------------------------------------------------------------------
# JSON schema round trip
# ---------------------------------------------------------------------------

def test_model_json_round_trip():
    for _, _, params in ALL_ROWS:
        doc = model_to_dict(params)
        assert doc["model"] in ("hkde", "heston", "bates", "bgm")
        assert model_from_dict(doc) == params


def test_model_from_dict_rejects_extra_and_missing():
    with pytest.raises(ValueError):
        model_from_dict({"model": "heston",
                         "params": {"v0": 0.04, "theta": 0.04, "kappa": 1.0,
                                    "sigma_v": 0.5, "rho": -0.5, "bogus": 1.0}})
    with pytest.raises(ValueError):
        model_from_dict({"model": "hkde", "params": {"v0": 0.04}})
    with pytest.raises(ValueError):
        model_from_dict({"model": "sabr", "params": {}})
    for doc in ({"params": {}}, {"model": "heston"}, {"model": "heston", "params": 3}):
        with pytest.raises(ValueError, match="^parameter document needs 'model' and 'params'"):
            model_from_dict(doc)
