"""Model parameter sets, characteristic exponents and cumulants.

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

HKDE and Bates are one composite: the Heston leg ``heston`` plus a jump leg
``jumps`` of class ``JUMPS`` (Kou or normal sizes); Heston and BGM have
``jumps = None``. A jump leg carries ``FIELDS``, ``flat()``, its psi term
``exponent(xi, t)``, ``frequency_scale()`` (inf if it adds no structure),
``omega()`` and ``interval_total(rng, n, tau)``. BGM carries ``increment``.

``MODELS`` maps each name to its class; everything else dispatches through it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Union

import numpy as np

_BLOCK = 1 << 15    # paths per cache block of the Monte Carlo arithmetic, jump legs included

__all__ = [
    "HestonParams", "KouJumpParams", "NormalJumpParams", "HKDEParams", "BatesParams", "BGMParams",
    "MarketContext", "ModelParams", "char_exponent", "cumulants_numeric",
    "model_to_dict", "model_from_dict", "MODELS", "MODEL_NAMES",
]


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

def _require_real(name: str, value, positive: bool = False) -> None:
    """A finite real scalar, > 0 if `positive`; a bool, str, None or array is not."""
    # a float skips the Real check, an abstract-class lookup of about a microsecond
    real = isinstance(value, float) or isinstance(value, Real) and not isinstance(value, bool)
    if not real or not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{name} must be finite{' and positive' if positive else ''}; got {value}")


def _require_finite(params, names, positive: bool = False) -> None:
    """_require_real on each named field of params."""
    for name in names:
        _require_real(name, getattr(params, name), positive)


def _require_count(name: str, value, least: int) -> None:
    """An integer (not bool) of at least `least`; int() would truncate 2.9 and accept "3"."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}; got {value!r}")


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
    jumps = None
    v0: float
    theta: float
    kappa: float
    sigma_v: float
    rho: float

    def __post_init__(self):
        _require_finite(self, self.FIELDS)
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
        ixi = 1j * xi
        sv2 = self.sigma_v * self.sigma_v
        beta = self.kappa - ixi * self.sigma_v * self.rho
        lin = ixi + xi * xi
        d = np.sqrt(beta * beta + sv2 * lin)
        beta_d = beta + d
        bmd = -sv2 * lin / beta_d
        g = bmd / beta_d
        edt = np.exp(-d * t)
        g_edt = g * edt
        log_term = _clog1p(-g_edt) - _clog1p(-g)
        a = self.kappa * self.theta / sv2 * (bmd * t - 2.0 * log_term)
        b = bmd / sv2 * (1.0 - edt) / (1.0 - g_edt)
        return ixi * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t) + a + b * self.v0

    def frequency_scale(self) -> float:
        return 1.0

    def omega(self) -> float:
        return 0.0


@dataclass(frozen=True)
class KouJumpParams(_FlatFields):
    """Compound-Poisson double-exponential jumps in the log price (Kou 2002)."""
    FIELDS = ("lam", "p", "eta1", "eta2")
    lam: float
    p: float
    eta1: float
    eta2: float

    def __post_init__(self):
        _require_finite(self, self.FIELDS)
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if self.eta1 <= 1.0:
            # eta1 > 1 keeps E[exp(J)] finite, so the drift compensator exists
            raise ValueError("eta1 must exceed 1")
        if self.eta2 <= 0:
            raise ValueError("eta2 must be positive")

    def exponent(self, xi, t: float):
        """t(lam(p eta1/(eta1 - i xi) + (1-p) eta2/(eta2 + i xi) - 1) + i xi omega).

        Written as t lam i xi [p/(eta1 - i xi) - (1-p)/(eta2 + i xi) + omega/lam]
        so tiny values near xi = 0 are built from same-order terms only.
        """
        xi = np.asarray(xi, dtype=complex)
        ix = 1j * xi
        p, comp = self.p, self._compensator()
        return t * self.lam * ix * (p / (self.eta1 - ix) - (1.0 - p) / (self.eta2 + ix) - comp)

    def frequency_scale(self) -> float:
        """Jump sides carrying zero weight add no structure and are ignored."""
        scales = [math.inf]
        if self.lam > 0 and self.p > 0:
            scales.append(self.eta1)
        if self.lam > 0 and self.p < 1:
            scales.append(self.eta2)
        return min(scales)

    def omega(self) -> float:
        """Jump drift compensator -lam*(p*eta1/(eta1-1) + (1-p)*eta2/(eta2+1) - 1)."""
        return -self.lam * self._compensator()

    def _compensator(self) -> float:
        """p/(eta1-1) - (1-p)/(eta2+1) = E[exp(J)] - 1: omega() per unit intensity."""
        return self.p / (self.eta1 - 1.0) - (1.0 - self.p) / (self.eta2 + 1.0)

    def sample_sizes(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Inverse-CDF draw: with probability p an Exp(eta1) up-jump, else -Exp(eta2).
        Each branch transforms its own draws in place under a where= mask, so p = 0 or 1
        divides by nothing."""
        u = np.maximum(rng.uniform(size=k), 2.0 ** -53)
        up = u >= 1.0 - self.p
        np.subtract(1.0, u, out=u, where=up)                  # -log((1 - u)/p)/eta1
        np.divide(u, self.p, out=u, where=up)
        np.log(u, out=u, where=up)
        np.negative(u, out=u, where=up)
        np.divide(u, self.eta1, out=u, where=up)
        down = np.logical_not(up, out=up)                     # log(u/(1 - p))/eta2
        np.divide(u, 1.0 - self.p, out=u, where=down)
        np.log(u, out=u, where=down)
        np.divide(u, self.eta2, out=u, where=down)
        return u

    def interval_total(self, rng: np.random.Generator, n: int, tau: float) -> np.ndarray:
        """Sum of a Poisson(lam tau) number of iid jump sizes for each of n paths.

        The sizes are drawn in j-major order: the j-th jumps of every path that has
        one, for j = 0, 1, ..., each rank block by block in path order. Each path adds
        its jumps to 0.0 in that order."""
        counts = rng.poisson(self.lam * tau, size=n)   # lam = 0 draws nothing
        top = int(counts.max())
        total = np.zeros(n)
        counts = counts.astype(np.min_scalar_type(top))
        for j in range(top):
            for i in range(0, n, _BLOCK):
                has_jth = np.flatnonzero(counts[i:i + _BLOCK] > j)
                block = total[i:i + _BLOCK]
                block[has_jth] += self.sample_sizes(rng, has_jth.size)
        return total


@dataclass(frozen=True)
class NormalJumpParams(_FlatFields):
    """Compound-Poisson normal N(mu_j, sigma_j^2) jumps in the log price (Bates 1996)."""
    FIELDS = ("lam", "mu_j", "sigma_j")
    lam: float
    mu_j: float
    sigma_j: float

    def __post_init__(self):
        _require_finite(self, self.FIELDS)
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.sigma_j <= 0:
            raise ValueError("sigma_j must be positive")

    def exponent(self, xi, t: float):
        """t(lam(exp(i xi mu_j - sigma_j^2 xi^2 / 2) - 1) + i xi omega)."""
        xi = np.asarray(xi, dtype=complex)
        jump_cf = np.exp(1j * xi * self.mu_j - 0.5 * self.sigma_j * self.sigma_j * xi * xi)
        return t * (self.lam * (jump_cf - 1.0) + 1j * xi * self.omega())

    def frequency_scale(self) -> float:
        return 1.0 / (abs(self.mu_j) + self.sigma_j) if self.lam > 0 else math.inf

    def omega(self) -> float:
        return -self.lam * math.expm1(self.mu_j + 0.5 * self.sigma_j * self.sigma_j)

    def interval_total(self, rng: np.random.Generator, n: int, tau: float) -> np.ndarray:
        """Sum of a Poisson(lam tau) number of jumps per path: one normal given the count.
        All counts are drawn first, then the normals block by block in path order."""
        counts = rng.poisson(self.lam * tau, size=n)
        total = np.sqrt(counts) * self.sigma_j     # (sigma_j*sqrt(counts))*z + mu_j*counts,
        for i in range(0, n, _BLOCK):              # in place
            block = total[i:i + _BLOCK]
            block *= rng.standard_normal(block.size)
            block += self.mu_j * counts[i:i + _BLOCK]
        return total


@dataclass(frozen=True)
class _HestonWithJumps:
    """Heston variance leg plus an independent compound-Poisson jump leg of type JUMPS."""
    heston: HestonParams
    jumps: Union[KouJumpParams, NormalJumpParams]

    def flat(self) -> list:
        return self.heston.flat() + self.jumps.flat()

    @classmethod
    def from_flat(cls, x):
        return cls(HestonParams(*x[:5]), cls.JUMPS(*x[5:]))

    def exponent(self, ctx: MarketContext, xi, t: float):
        return self.heston.exponent(ctx, xi, t) + self.jumps.exponent(xi, t)

    def frequency_scale(self) -> float:
        return min(1.0, self.jumps.frequency_scale())

    def omega(self) -> float:
        return self.jumps.omega()


class HKDEParams(_HestonWithJumps):
    NAME = "hkde"
    JUMPS = KouJumpParams
    FIELDS = HestonParams.FIELDS + KouJumpParams.FIELDS


class BatesParams(_HestonWithJumps):
    """Heston variance plus normally distributed log-price jumps."""
    NAME = "bates"
    JUMPS = NormalJumpParams
    FIELDS = HestonParams.FIELDS + NormalJumpParams.FIELDS


@dataclass(frozen=True)
class BGMParams(_FlatFields):
    """Bilateral gamma motion plus an independent Brownian component."""
    NAME = "bgm"
    FIELDS = ("alpha_p", "lam_p", "alpha_m", "lam_m", "sigma")
    jumps = None
    alpha_p: float
    lam_p: float
    alpha_m: float
    lam_m: float
    sigma: float

    def __post_init__(self):
        _require_finite(self, self.FIELDS)
        if min(self.alpha_p, self.lam_p, self.alpha_m, self.lam_m, self.sigma) <= 0:
            raise ValueError("all BGM parameters must be positive")
        if self.lam_p <= 1.0:
            # lam_p > 1 keeps E[exp(X)] finite for the martingale drift
            raise ValueError("lam_p must exceed 1")

    def exponent(self, ctx: MarketContext, xi, t: float):
        xi = np.asarray(xi, dtype=complex)
        ix = 1j * xi
        psi = (-0.5 * math.pow(self.sigma, 2) * xi * xi
               + self.alpha_p * (np.log(self.lam_p) - np.log(self.lam_p - ix))
               + self.alpha_m * (np.log(self.lam_m) - np.log(self.lam_m + ix))
               + ix * self.omega())
        return ix * (math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t) + t * psi

    def frequency_scale(self) -> float:
        return min(1.0, self.lam_p, self.lam_m)

    def increment(self, rng: np.random.Generator, x, drift: float, dt: float, z) -> np.ndarray:
        """x after one exact step of length dt, given the step's standard normals z."""
        return (x + drift * dt + self.sigma * math.sqrt(dt) * z
                + rng.gamma(self.alpha_p * dt, 1.0 / self.lam_p, size=x.size)
                - rng.gamma(self.alpha_m * dt, 1.0 / self.lam_m, size=x.size))

    def omega(self) -> float:
        return (-0.5 * math.pow(self.sigma, 2)
                - self.alpha_p * math.log(self.lam_p / (self.lam_p - 1.0))
                - self.alpha_m * math.log(self.lam_m / (self.lam_m + 1.0)))


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
        _require_finite(self, ("spot", "rate", "div_yield"))
        if self.spot <= 0:
            raise ValueError("spot must be positive")

    def forward(self, t: float) -> float:
        return self.spot * math.exp((self.rate - self.div_yield) * t)


# ---------------------------------------------------------------------------
# Characteristic exponents
# ---------------------------------------------------------------------------

def _clog1p(z: np.ndarray) -> np.ndarray:
    """log(1+z) for complex z without cancellation near z = 0."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    out = np.empty_like(z)
    np.multiply(0.5, np.log1p(2.0 * x + x * x + y * y), out=out.real)
    np.add(np.arctan2(y, 1.0 + x), 0.0, out=out.imag)    # -0 to +0, as a complex sum gave it
    return out


def char_exponent(model: ModelParams, ctx: MarketContext, xi, t: float):
    """ln E[exp(i xi ln S_t)] for any supported model; accepts complex xi."""
    return model.exponent(ctx, xi, t)


# ---------------------------------------------------------------------------
# Cumulants
# ---------------------------------------------------------------------------

# Central O(h^2) stencils for psi-derivatives on the nodes h*(2, 1, -1, -2);
# psi(0) = 0 is used implicitly. Orders 1 and 2 read only the +-h columns.
_FD_NODES = np.array([2.0, 1.0, -1.0, -2.0])
_FD_SHRINK = 1.2     # step ratio between rungs of the ladder
_FD_LEVELS = 36      # rungs, from 0.5 * scale down by _FD_SHRINK each
_FD_STENCILS = (
    (1, slice(1, 3), np.array([0.5, -0.5])),
    (2, slice(1, 3), np.array([1.0, 1.0])),
    (3, slice(0, 4), np.array([0.5, -1.0, 1.0, -0.5])),
    (4, slice(0, 4), np.array([1.0, -4.0, -4.0, 1.0])),
)


def _fd_derivatives(psi, scale: float) -> list:
    """Derivatives of orders 1..4 of psi at 0 from one ladder of central differences.

    psi is evaluated once on every rung. Each order gets one Richardson
    refinement per rung; its returned value is the rung whose refined estimates
    agree best over three consecutive levels, scanning from the largest step and
    stopping once the agreement deteriorates (which marks the onset of roundoff
    noise).
    """
    hs = 0.5 * scale / _FD_SHRINK ** np.arange(_FD_LEVELS)
    vals = psi((hs[:, None] * _FD_NODES[None, :]).ravel()).reshape(_FD_LEVELS, _FD_NODES.size)
    s2 = _FD_SHRINK * _FD_SHRINK
    derivs = []
    for n, cols, weights in _FD_STENCILS:
        d = (vals[:, cols] * weights[None, :]).sum(axis=1) / hs**n
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
        derivs.append(r[best_i + 1])
    return derivs


def cumulants_numeric(model: ModelParams, ctx: MarketContext, t: float) -> tuple:
    """Cumulants (k1, k2, k3, k4) of ln S_t from finite differences of the characteristic exponent."""
    # The deterministic i xi (ln S0 + (r-q)t) term is differentiated analytically;
    # the FD only sees the slowly varying stochastic part.
    shift = math.log(ctx.spot) + (ctx.rate - ctx.div_yield) * t

    def psi(xi):
        return char_exponent(model, ctx, xi, t) - 1j * np.asarray(xi, dtype=complex) * shift

    k1, k2, k3, k4 = (float((deriv / 1j**n).real)
                      for n, deriv in enumerate(_fd_derivatives(psi, model.frequency_scale()), 1))
    return k1 + shift, k2, k3, k4


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
    for name in cls.FIELDS:   # float() would take true and "0.04"; the constructors reject nan
        if isinstance(params[name], bool) or not isinstance(params[name], (int, float)):
            raise ValueError(f"parameter '{name}' must be a finite JSON number; "
                             f"got {params[name]!r}")
    return cls.from_flat([float(params[f]) for f in cls.FIELDS])
