"""Model parameter sets, characteristic functions and cumulants.

Four risk-neutral models of the log price: Heston stochastic volatility,
Heston + double-exponential jumps (HKDE), Heston + normal jumps (Bates),
and bilateral-gamma motion with a diffusion component (BGM). All transform
machinery works off the characteristic exponent psi(xi, t) = ln E[exp(i xi ln S_t)],
which every model provides in closed form.

Each frozen parameter class is the single definition of its model and carries:

- ``NAME``: the model name used in JSON documents, the CLI and calibration;
- ``FIELDS``: the flat parameter names, in JSON and calibration-vector order;
- ``flat()`` / ``from_flat(x)``: the parameter values in ``FIELDS`` order and back;
- ``exponent(ctx, xi, t)``: the characteristic exponent psi(xi, t);
- ``frequency_scale()``: the scale in xi over which psi varies (sets FD steps);
- ``omega()``: the drift compensator that makes exp(-(r-q)t) S_t a martingale.

``MODELS`` maps each name to its class; everything else dispatches through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HestonParams", "KouJumpParams", "HKDEParams", "BatesParams", "BGMParams",
    "MarketContext", "ModelParams", "omega_kde", "omega_bates", "omega_bgm",
    "cf_heston", "cf_kou", "cf_model", "char_exponent", "cumulants_kou",
    "cumulants_numeric", "frequency_scale", "model_to_dict", "model_from_dict",
    "MODELS", "MODEL_NAMES",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

class _FlatFields:
    """flat()/from_flat() for a class whose FIELDS are its own dataclass fields."""

    def flat(self) -> list:
        return [getattr(self, f) for f in self.FIELDS]

    @classmethod
    def from_flat(cls, x):
        return cls(*x)


@dataclass(frozen=True)
class HestonParams(_FlatFields):
    """CIR variance process: dV = kappa(theta - V)dt + sigma_v sqrt(V) dW."""
    NAME = "heston"
    FIELDS = ("v0", "theta", "kappa", "sigma_v", "rho")
    v0: float
    theta: float
    kappa: float
    sigma_v: float
    rho: float

    def __post_init__(self):
        if self.v0 <= 0 or self.theta <= 0 or self.kappa <= 0 or self.sigma_v <= 0:
            raise ValueError("v0, theta, kappa, sigma_v must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")

    def exponent(self, ctx: MarketContext, xi, t: float):
        """ln phi_Hes in the branch-stable (ratio / "little trap") parameterization.

        beta - d is formed as -sigma_v^2(i xi + xi^2)/(beta + d) to avoid the
        cancellation that otherwise pollutes cumulant finite differences.
        """
        xi = np.asarray(xi, dtype=complex)
        sv2 = self.sigma_v * self.sigma_v
        beta = self.kappa - 1j * xi * self.sigma_v * self.rho
        lin = 1j * xi + xi * xi
        d = np.sqrt(beta * beta + sv2 * lin)
        bmd = -sv2 * lin / (beta + d)
        g = bmd / (beta + d)
        edt = np.exp(-d * t)
        log_term = _clog1p(-g * edt) - _clog1p(-g)
        a = self.kappa * self.theta / sv2 * (bmd * t - 2.0 * log_term)
        b = bmd / sv2 * (1.0 - edt) / (1.0 - g * edt)
        return 1j * xi * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t) + a + b * self.v0

    def frequency_scale(self) -> float:
        return 1.0

    def omega(self) -> float:
        return 0.0


@dataclass(frozen=True)
class KouJumpParams(_FlatFields):
    """Compound-Poisson double-exponential jumps in the log price."""
    FIELDS = ("lam", "p", "eta1", "eta2")
    lam: float
    p: float
    eta1: float
    eta2: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.eta1 <= 1.0:
            # eta1 > 1 keeps E[exp(J)] finite, so the drift compensator exists
            raise ValueError("eta1 must exceed 1")
        if self.eta2 <= 0:
            raise ValueError("eta2 must be positive")


@dataclass(frozen=True)
class HKDEParams:
    NAME = "hkde"
    FIELDS = HestonParams.FIELDS + KouJumpParams.FIELDS
    heston: HestonParams
    jumps: KouJumpParams

    def flat(self) -> list:
        return self.heston.flat() + self.jumps.flat()

    @classmethod
    def from_flat(cls, x):
        return cls(HestonParams(*x[:5]), KouJumpParams(*x[5:]))

    def exponent(self, ctx: MarketContext, xi, t: float):
        return self.heston.exponent(ctx, xi, t) + _kou_exponent(xi, t, self.jumps)

    def frequency_scale(self) -> float:
        j = self.jumps
        scales = [1.0]
        if j.lam > 0 and j.p > 0:
            scales.append(j.eta1)
        if j.lam > 0 and j.p < 1:
            scales.append(j.eta2)
        return min(scales)

    def omega(self) -> float:
        return omega_kde(self.jumps)


@dataclass(frozen=True)
class BatesParams:
    """Heston variance plus normally distributed log-price jumps."""
    NAME = "bates"
    FIELDS = HestonParams.FIELDS + ("lam", "mu_j", "sigma_j")
    heston: HestonParams
    lam: float
    mu_j: float
    sigma_j: float

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.sigma_j <= 0:
            raise ValueError("sigma_j must be positive")

    def flat(self) -> list:
        return self.heston.flat() + [self.lam, self.mu_j, self.sigma_j]

    @classmethod
    def from_flat(cls, x):
        return cls(HestonParams(*x[:5]), *x[5:])

    def exponent(self, ctx: MarketContext, xi, t: float):
        xi = np.asarray(xi, dtype=complex)
        jump_cf = np.exp(1j * xi * self.mu_j - 0.5 * self.sigma_j * self.sigma_j * xi * xi)
        return (self.heston.exponent(ctx, xi, t)
                + t * (self.lam * (jump_cf - 1.0) + 1j * xi * self.omega()))

    def frequency_scale(self) -> float:
        if self.lam > 0:
            return min(1.0, 1.0 / (abs(self.mu_j) + self.sigma_j))
        return 1.0

    def omega(self) -> float:
        return omega_bates(self.lam, self.mu_j, self.sigma_j)


@dataclass(frozen=True)
class BGMParams(_FlatFields):
    """Bilateral gamma motion plus an independent Brownian component."""
    NAME = "bgm"
    FIELDS = ("alpha_p", "lam_p", "alpha_m", "lam_m", "sigma")
    alpha_p: float
    lam_p: float
    alpha_m: float
    lam_m: float
    sigma: float

    def __post_init__(self):
        if min(self.alpha_p, self.lam_p, self.alpha_m, self.lam_m, self.sigma) <= 0:
            raise ValueError("all BGM parameters must be positive")
        if self.lam_p <= 1.0:
            # lam_p > 1 keeps E[exp(X)] finite for the martingale drift
            raise ValueError("lam_p must exceed 1")

    def exponent(self, ctx: MarketContext, xi, t: float):
        xi = np.asarray(xi, dtype=complex)
        ix = 1j * xi
        psi = (-0.5 * self.sigma**2 * xi * xi
               + self.alpha_p * (np.log(self.lam_p) - np.log(self.lam_p - ix))
               + self.alpha_m * (np.log(self.lam_m) - np.log(self.lam_m + ix))
               + ix * self.omega())
        return ix * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t) + t * psi

    def frequency_scale(self) -> float:
        return min(1.0, self.lam_p, self.lam_m)

    def omega(self) -> float:
        return omega_bgm(self)


ModelParams = Union[HKDEParams, HestonParams, BatesParams, BGMParams]

MODELS = {cls.NAME: cls for cls in (HKDEParams, HestonParams, BatesParams, BGMParams)}
MODEL_NAMES = tuple(MODELS)


@dataclass(frozen=True)
class MarketContext:
    """Spot plus flat continuously-compounded rate and dividend yield."""
    spot: float
    rate: float = 0.0
    div_yield: float = 0.0

    def __post_init__(self):
        if self.spot <= 0:
            raise ValueError("spot must be positive")

    def forward(self, t: float) -> float:
        return self.spot * math.exp((self.rate - self.div_yield) * t)


# ---------------------------------------------------------------------------
# Drift compensators (make exp(-(r-q)t) S_t a martingale)
# ---------------------------------------------------------------------------

def omega_kde(jumps: KouJumpParams) -> float:
    """Jump drift compensator -lam*(p*eta1/(eta1-1) + (1-p)*eta2/(eta2+1) - 1)."""
    return -jumps.lam * (jumps.p / (jumps.eta1 - 1.0) - (1.0 - jumps.p) / (jumps.eta2 + 1.0))


def omega_bates(lam: float, mu_j: float, sigma_j: float) -> float:
    return -lam * math.expm1(mu_j + 0.5 * sigma_j * sigma_j)


def omega_bgm(params: BGMParams) -> float:
    return (-0.5 * params.sigma**2
            - params.alpha_p * math.log(params.lam_p / (params.lam_p - 1.0))
            - params.alpha_m * math.log(params.lam_m / (params.lam_m + 1.0)))


# ---------------------------------------------------------------------------
# Characteristic exponents
# ---------------------------------------------------------------------------

def _clog1p(z: np.ndarray) -> np.ndarray:
    """log(1+z) for complex z without cancellation near z = 0."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return 0.5 * np.log1p(2.0 * x + x * x + y * y) + 1j * np.arctan2(y, 1.0 + x)


def _kou_exponent(xi, t: float, j: KouJumpParams):
    """ln phi_Kou = t(lam(p eta1/(eta1 - i xi) + (1-p) eta2/(eta2 + i xi) - 1) + i xi omega).

    Written as t lam i xi [p/(eta1 - i xi) - (1-p)/(eta2 + i xi) + omega/lam]
    so tiny values near xi = 0 are built from same-order terms only.
    """
    xi = np.asarray(xi, dtype=complex)
    ix = 1j * xi
    bracket = (j.p / (j.eta1 - ix) - (1.0 - j.p) / (j.eta2 + ix)
               - (j.p / (j.eta1 - 1.0) - (1.0 - j.p) / (j.eta2 + 1.0)))
    return t * j.lam * ix * bracket


def char_exponent(model: ModelParams, ctx: MarketContext, xi, t: float):
    """ln E[exp(i xi ln S_t)] for any supported model; accepts complex xi."""
    return model.exponent(ctx, xi, t)


def cf_heston(xi, t: float, params: HestonParams, ctx: MarketContext):
    """Heston characteristic function of ln S_t."""
    if t <= 0:
        raise ValueError("t must be positive")
    return np.exp(params.exponent(ctx, xi, t))


def cf_kou(xi, t: float, jumps: KouJumpParams):
    """Characteristic function of the compensated double-exponential jump component."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return np.exp(_kou_exponent(xi, t, jumps))


def cf_model(model: ModelParams, ctx: MarketContext, xi, t: float):
    """Characteristic function E[exp(i xi ln S_t)] of the full model."""
    return np.exp(char_exponent(model, ctx, xi, t))


# ---------------------------------------------------------------------------
# Cumulants
# ---------------------------------------------------------------------------

def cumulants_kou(jumps: KouJumpParams, t: float, n: int) -> float:
    """Closed-form cumulant of the compensated jump component, orders 1..4."""
    if n not in (1, 2, 3, 4):
        raise ValueError("cumulant order must be 1..4")
    if t < 0:
        raise ValueError("t must be nonnegative")
    j = jumps
    if n == 1:
        return t * (j.lam * (j.p / j.eta1 - (1.0 - j.p) / j.eta2) + omega_kde(j))
    return math.factorial(n) * t * j.lam * (j.p / j.eta1**n + (-1) ** n * (1.0 - j.p) / j.eta2**n)


def frequency_scale(model: ModelParams) -> float:
    """Scale (in xi) over which the characteristic exponent varies; sets FD steps.

    Jump sides carrying zero weight do not contribute structure and are ignored.
    """
    return model.frequency_scale()


# Central O(h^2) stencils for psi-derivatives; psi(0) = 0 is used implicitly.
_FD_NODES = {1: (1.0, -1.0), 2: (1.0, -1.0), 3: (2.0, 1.0, -1.0, -2.0), 4: (2.0, 1.0, -1.0, -2.0)}
_FD_WEIGHTS = {1: (0.5, -0.5), 2: (1.0, 1.0), 3: (0.5, -1.0, 1.0, -0.5), 4: (1.0, -4.0, -4.0, 1.0)}


def _fd_derivative(psi, n: int, scale: float, shrink: float = 1.2, nlev: int = 36):
    """n-th derivative of psi at 0 from a ladder of central differences.

    One Richardson refinement per ladder rung; the returned value is the rung
    whose refined estimates agree best over three consecutive levels, scanning
    from the largest step and stopping once the agreement deteriorates (which
    marks the onset of roundoff noise).
    """
    hs = 0.5 * scale / shrink ** np.arange(nlev)
    nodes = np.asarray(_FD_NODES[n])
    weights = np.asarray(_FD_WEIGHTS[n])
    vals = psi((hs[:, None] * nodes[None, :]).ravel()).reshape(nlev, nodes.size)
    d = (vals * weights[None, :]).sum(axis=1) / hs**n
    s2 = shrink * shrink
    r = (s2 * d[1:] - d[:-1]) / (s2 - 1.0)
    err = np.maximum(np.abs(r[:-2] - r[1:-1]), np.abs(r[1:-1] - r[2:]))
    best_i, best_err, grew = 0, np.inf, 0
    for i, e in enumerate(err):
        if e <= best_err:
            best_i, best_err, grew = i, e, 0
        elif e > 10.0 * best_err:
            grew += 1
            if grew >= 3:
                break
    return r[best_i + 1]


def cumulants_numeric(model: ModelParams, ctx: MarketContext, t: float, n: int) -> float:
    """n-th cumulant of ln S_t from finite differences of the characteristic exponent."""
    if n not in (1, 2, 3, 4):
        raise ValueError("cumulant order must be 1..4")
    # The deterministic i xi (ln S0 + (r-q)t) term is differentiated analytically;
    # the FD only sees the slowly varying stochastic part.
    shift = math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t

    def psi(xi):
        return char_exponent(model, ctx, xi, t) - 1j * np.asarray(xi, dtype=complex) * shift

    deriv = _fd_derivative(psi, n, frequency_scale(model))
    cum = (deriv / 1j**n).real
    if n == 1:
        cum += shift
    return float(cum)


# ---------------------------------------------------------------------------
# JSON parameter schema
# ---------------------------------------------------------------------------

def model_to_dict(model: ModelParams) -> dict:
    """Serialize to {"model": name, "params": {flat field: value}}."""
    return {"model": model.NAME, "params": dict(zip(model.FIELDS, model.flat()))}


def model_from_dict(doc: dict) -> ModelParams:
    """Inverse of model_to_dict; validates field names and invariants."""
    try:
        kind = doc["model"]
        params = dict(doc["params"])
    except (KeyError, TypeError) as exc:
        raise ValueError("parameter document needs 'model' and 'params' entries") from exc
    if kind not in MODEL_NAMES:
        raise ValueError(f"unknown model '{kind}'; expected one of {', '.join(MODEL_NAMES)}")
    cls = MODELS[kind]
    missing = [f for f in cls.FIELDS if f not in params]
    if missing:
        raise ValueError(f"{kind}: missing parameter(s) {', '.join(missing)}")
    unexpected = sorted(set(params) - set(cls.FIELDS))
    if unexpected:
        raise ValueError(f"{kind}: unexpected parameter(s) {', '.join(unexpected)}")
    return cls.from_flat([float(params[f]) for f in cls.FIELDS])
