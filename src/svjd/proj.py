"""European pricing by projecting the risk-neutral density onto a cubic B-spline basis.

The log-return density is recovered from the characteristic function: dual-basis
projection coefficients come from a trapezoid discretization of the inverse
transform evaluated with one FFT, and claims are priced by integrating the
payoff against each basis element with fixed-order Gauss-Legendre quadrature.
On a grid held fixed, prices are linear in the characteristic function
(`FrozenSlice`), which is how calibration prices its trial points and Jacobian
columns on grids it holds across a fit: `price_frozen` prices all held tenors
of one market with one exponent call per model on their live nodes.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from svjd.models import MarketContext, ModelParams, _require_real, char_exponent, cumulants_numeric

__all__ = ["GridSpec", "ProjGrid", "FrozenSlice", "alpha_bar_from_cumulants", "build_grid",
           "proj_coefficients", "density", "price_european", "price_strike_slice", "price_frozen",
           "bspline3", "dual_zeta"]

# Gauss-Legendre rule used on every knot interval of the basis support
_GL_ORDER = 7
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_ORDER)
_GL01_X = 0.5 * (_GL_X + 1.0)   # nodes on [0, 1]
_GL01_W = 0.5 * _GL_W
LIVE_NODE_CUTOFF = 1e-16    # FrozenSlice keeps nodes up to the last |h| above this share of max |h|


@dataclass(frozen=True)
class GridSpec:
    """Basis size (power of two) and the cumulant-rule width multiplier."""
    n: int = 4096
    l1: float = 12.0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, Integral) \
                or self.n < 16 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two, at least 16; got {self.n!r}")
        _require_real("l1", self.l1, positive=True)   # a nan l1 would price on the 0.5 floor width


@dataclass(frozen=True)
class ProjGrid:
    """Uniform log-return grid of basis centers plus its dual frequency grid."""
    n_basis: int
    alpha_bar: float
    x1: float
    delta: float
    a: float
    delta_xi: float


def bspline3(u):
    """Centered cubic B-spline generator, support [-2, 2], unit integral."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    tail = (u >= 1.0) & (u < 2.0)
    core = u < 1.0
    out[tail] = (2.0 - u[tail]) ** 3 / 6.0
    uc = u[core]
    out[core] = 2.0 / 3.0 - uc * uc * (1.0 - 0.5 * uc)
    return out


def dual_zeta(xi, a: float):
    """Scaled Fourier transform of the cubic dual generator on the frequency grid.

    Approaches 1/(16 a^4) as xi -> 0; evaluated through sin(w/2)/w scaled forms
    so the limit is exact at xi = 0.
    """
    xi = np.asarray(xi, dtype=float)
    w = xi / a
    zero = xi == 0.0
    # sin(w/2)/xi -> 1/(2a) as xi -> 0
    ratio = np.where(zero, 1.0 / (2.0 * a), np.sin(0.5 * w) / np.where(zero, 1.0, xi))
    denom = 1208.0 + 1191.0 * np.cos(w) + 120.0 * np.cos(2.0 * w) + np.cos(3.0 * w)
    return 2520.0 * ratio**4 / denom


def alpha_bar_from_cumulants(c2: float, c4: float, t: float, l1: float) -> float:
    """Grid half-width max(1/2, L1 sqrt(c2 t + sqrt(c4 t)))."""
    return max(0.5, l1 * math.sqrt(max(c2, 0.0) * t + math.sqrt(max(c4, 0.0) * t)))


@functools.lru_cache(maxsize=64)
def _unit_cumulants(model: ModelParams, ctx: MarketContext) -> tuple:
    """Unit-horizon cumulants, one ladder per (model, context) for every tenor."""
    return cumulants_numeric(model, ctx, 1.0)


def build_grid(model: ModelParams, ctx: MarketContext, t: float, spec: GridSpec = GridSpec()) -> ProjGrid:
    """Log-return grid centered on the unit-horizon drift scaled to maturity.

    The half-width comes from the second and fourth cumulants at unit horizon,
    which do not depend on t and are cached per (model, context).
    """
    _require_real("t", t, positive=True)
    k1, k2, _, k4 = _unit_cumulants(model, ctx)
    c1 = k1 - math.log(ctx.spot)
    half_width = alpha_bar_from_cumulants(k2, k4, t, spec.l1)
    delta = 2.0 * half_width / (spec.n - 1)
    a = 1.0 / delta
    return ProjGrid(n_basis=spec.n, alpha_bar=half_width, x1=c1 * t - half_width,
                    delta=delta, a=a, delta_xi=2.0 * math.pi * a / spec.n)


def proj_coefficients(model: ModelParams, ctx: MarketContext, t: float, grid: ProjGrid) -> np.ndarray:
    """Dual-basis projection coefficients of the log-return density on `grid` via one FFT."""
    n = grid.n_basis
    xi = grid.delta_xi * np.arange(n)
    psi = char_exponent(model, ctx, xi, t)
    psi.imag -= xi * math.log(ctx.spot)
    phase = np.zeros(n, dtype=complex)          # i xi (-x1)
    np.multiply(xi, -grid.x1, out=phase.imag)
    h = np.exp(psi) * dual_zeta(xi, grid.a) * np.exp(phase)
    h[0] *= 0.5  # trapezoid half-weight on the first node
    return (32.0 * grid.a**4.5 / n) * np.real(np.fft.fft(h))


def density(beta: np.ndarray, grid: ProjGrid, x) -> np.ndarray:
    """Log-return density at points x reconstructed from coefficients `beta` on `grid`."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    pos = (x - grid.x1) / grid.delta
    sqrt_a = math.sqrt(grid.a)
    for off in (-1, 0, 1, 2):
        k = np.floor(pos).astype(int) + off
        ok = (k >= 0) & (k < grid.n_basis)
        out[ok] += beta[k[ok]] * sqrt_a * bspline3(pos[ok] - k[ok])
    return out


_KNOT_LO = np.arange(4, dtype=float) - 2.0    # knot interval lower edges in u units
# GL nodes of the whole knot intervals of an element below the kink, and their
# spline-weighted GL weights (the payoff constants' grid-free parts)
_WHOLE_U = _KNOT_LO[:, None] + _GL01_X
_WHOLE_W = _GL01_W * bspline3(_WHOLE_U)
_WHOLE_ONE = float(_WHOLE_W.sum())


def _put_leg(grid: ProjGrid, spot: float, strikes: np.ndarray):
    """Put payoff against the basis elements, for both slice pricers.

    Returns the element centers xk, the index of the last element wholly below
    each strike's kink, the four elements whose support holds it, their payoff
    integrals (strikes x 4), and the GL values of integral phi3(u) e^(u delta) du
    and integral phi3(u) du that price the elements wholly below. Each knot
    interval is integrated by GL quadrature, the one holding the kink split
    there. A strike too close to the grid edge for four elements raises.

    The quadrature points are laid out interval x GL node x strike x element,
    so that each interval evaluates one spline branch and every step runs
    over strikes x elements at once. The integrand is then copied to strike x
    element x interval x node before each element's 28 terms are summed: how
    that sum rounds depends on the layout, and the prices are pinned to this
    one (tests/test_proj.py keeps a frozen copy of the all-strike-major form).
    """
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
    near = k_full[:, None] + np.arange(1, 5)     # the four straddling elements
    x_near = xk[near]
    lo = _KNOT_LO[:, None, None]
    width = np.maximum(np.minimum(lo + 1.0, (y_star[:, None] - x_near) * grid.a) - lo, 0.0)
    u = lo[..., None] + width[:, None] * _GL01_X[:, None, None]   # interval, node, strike, element
    # bspline3(u) by the one branch each interval can take: |u| >= 1 on the
    # outer two and |u| < 1 on the inner two, but for u = -1 exactly, which
    # needs a width below 3e-15 (or 0), whose term no element sum can resolve
    spline = np.empty_like(u)
    np.add(2.0, u[0], out=spline[0])                # 2 - |u| for u <= 0
    np.subtract(2.0, u[3], out=spline[3])
    tails = spline[::3]
    np.power(tails, 3, out=tails)
    tails /= 6.0
    core = np.abs(u[1:3])
    spline[1:3] = 2.0 / 3.0 - core * core * (1.0 - 0.5 * core)
    vals = u         # the integrand, built in place of the points it needs
    vals *= grid.delta
    vals += x_near
    np.exp(vals, out=vals)
    vals *= spot
    np.subtract(strikes[:, None], vals, out=vals)
    vals *= spline
    vals *= width[:, None] * _GL01_W[:, None, None]
    terms = np.ascontiguousarray(vals.transpose(2, 3, 0, 1))   # strike, element, interval, node
    return (xk, k_full, near, terms.sum(axis=(2, 3)),
            float((_WHOLE_W * np.exp(_WHOLE_U * grid.delta)).sum()), _WHOLE_ONE)


def price_strike_slice(model: ModelParams, ctx: MarketContext, t: float,
                       strikes: Sequence[float], is_calls: Sequence[bool],
                       spec: GridSpec = GridSpec()) -> np.ndarray:
    """Price one maturity slice of European options off a single coefficient build.

    The bounded put leg is integrated directly; calls follow from parity with
    the analytic forward, which keeps wide, heavy-tailed grids stable. Elements
    wholly below a strike's log-moneyness enter through cumulative sums; the
    four elements whose support holds the kink are integrated by GL quadrature.
    """
    _require_real("t", t, positive=True)
    strikes = np.asarray(strikes, dtype=float)
    if strikes.ndim != 1 or np.any(strikes <= 0):
        raise ValueError("strikes must be a 1-d array of positive values")
    if np.any(np.diff(strikes) < 0):
        raise ValueError("strikes must be ascending")
    is_calls = np.asarray(is_calls, dtype=bool)
    if is_calls.shape != strikes.shape:
        raise ValueError("is_calls must match strikes")

    grid = build_grid(model, ctx, t, spec)
    beta = proj_coefficients(model, ctx, t, grid)
    xk, k_full, near, per_element, exp_const, one_const = _put_leg(grid, ctx.spot, strikes)
    cum_mass = np.cumsum(beta)
    # the right tail beyond any admissible strike is never read; clip its
    # exponent so extreme trial grids cannot overflow the cumulative sum
    cum_exp = np.cumsum(beta * np.exp(np.minimum(xk, 700.0)))
    disc = math.exp(-ctx.rate * t)
    fwd_leg = ctx.spot * math.exp(-ctx.div_yield * t) - strikes * disc
    scale = grid.delta * math.sqrt(grid.a)

    below = scale * (strikes * one_const * cum_mass[k_full]
                     - ctx.spot * exp_const * cum_exp[k_full])
    # a stacked matmul rounds each 4-term dot as a 1-d `@` does;
    # einsum and multiply-then-sum round differently
    straddle = (beta[near][:, None, :] @ per_element[:, :, None])[:, 0, 0]
    put = (below + scale * straddle) * disc
    return np.where(is_calls, put + fwd_leg, put)


@dataclass(frozen=True, eq=False)
class FrozenSlice:
    """One maturity slice priced as a linear functional of the characteristic
    function on a grid held fixed at a base model.

    The coefficients are linear in h_j = phi(xi_j) D_j, with D the dual
    transform and grid phase, and the puts are linear in the coefficients
    through a payoff matrix L (basis x strikes), so on the frozen grid

        prices = Re(H @ gain) + offset,   gain = FFT of L along the basis,

    with the calls' parity constant in `offset`. Only the live node prefix
    [0, k) is kept: k is one past the last node where the base model's |h|
    exceeds LIVE_NODE_CUTOFF times its maximum (all N if phi does not decay there).
    A dropped node j moves a price by at most |h_j| max_s sum_i |L_is|.
    Each build evaluates the base model's exponent on all N nodes once; any
    model of the tenor whose grid stays near this one can then be priced on
    the live nodes alone, by `price_frozen` together with the other held tenors.
    """
    ctx: MarketContext
    t: float
    grid: ProjGrid
    xi: np.ndarray        # live frequency nodes
    weight: np.ndarray    # D on those nodes, node-0 trapezoid half weight folded in
    gain: np.ndarray      # (live nodes, strikes)
    offset: np.ndarray    # (strikes,)

    @classmethod
    def at(cls, model: ModelParams, ctx: MarketContext, t: float, strikes: np.ndarray,
           is_calls: np.ndarray, spec: GridSpec = GridSpec()) -> "FrozenSlice":
        """The functional on `model`'s grid; raises as price_strike_slice does off the grid."""
        grid = build_grid(model, ctx, t, spec)
        n = grid.n_basis
        xk, k_full, near, per_element, exp_const, one_const = _put_leg(grid, ctx.spot, strikes)
        m = near.max() + 1      # L is 0 past the last straddling element
        payoff = np.where(np.arange(m) <= k_full[:, None],
                          strikes[:, None] * one_const - ctx.spot * exp_const * np.exp(xk[:m]),
                          0.0)
        payoff[np.arange(strikes.size)[:, None], near] = per_element
        disc = math.exp(-ctx.rate * t)
        payoff *= (32.0 * grid.a**4.5 / n) * disc * grid.delta * math.sqrt(grid.a)

        xi = grid.delta_xi * np.arange(n)
        zeta = dual_zeta(xi, grid.a)
        zeta[0] *= 0.5          # trapezoid half weight on the first node
        mag = np.exp(char_exponent(model, ctx, xi, t).real) * zeta     # |h|
        live = np.flatnonzero(mag > LIVE_NODE_CUTOFF * mag.max())
        k = live[-1] + 1 if live.size else n
        # L is real: its spectrum's first n/2 + 1 nodes are the cheaper rfft
        spectrum = (np.fft.rfft if k <= n // 2 + 1 else np.fft.fft)(payoff, n, axis=1)
        return cls(ctx, t, grid, xi[:k], zeta[:k] * np.exp(-1j * xi[:k] * grid.x1),
                   np.ascontiguousarray(spectrum[:, :k]).T,   # not a view of all n nodes
                   np.where(is_calls, ctx.spot * math.exp(-ctx.div_yield * t) - strikes * disc,
                            0.0))


def price_frozen(slices: Sequence[FrozenSlice],
                 models: Sequence[Sequence[ModelParams]]) -> list:
    """One price array (models x strikes) per slice: its models on its frozen grid.

    Consecutive slices that share one market context are priced as a group
    whose live nodes total at most one grid's N, so no call holds more than a
    full-grid build does. Each distinct model of a group gets one exponent call
    on the group's concatenated live nodes, each node at its slice's maturity,
    which gives its h = phi D on every slice of the group; each slice then
    prices its own models' rows of h by one matmul, as it would alone.
    """
    out, lo = [], 0
    while lo < len(slices):
        ctx, hi = slices[lo].ctx, lo + 1
        while (hi < len(slices) and slices[hi].ctx == ctx
               and sum(s.xi.size for s in slices[lo:hi + 1]) <= slices[lo].grid.n_basis):
            hi += 1
        group = slices[lo:hi]
        xi = np.concatenate([s.xi for s in group])
        t = np.concatenate([np.full(s.xi.size, s.t) for s in group])
        weight = np.concatenate([s.weight for s in group])
        shift = 1j * xi * math.log(ctx.spot)
        h = {id(m): np.exp(char_exponent(m, ctx, xi, t) - shift) * weight   # once per model
             for m in {id(m): m for row in models[lo:hi] for m in row}.values()}
        ends = np.cumsum([0] + [s.xi.size for s in group])
        out += [np.real(np.array([h[id(m)][a:b] for m in row]) @ s.gain) + s.offset
                for s, row, a, b in zip(group, models[lo:hi], ends, ends[1:])]
        lo = hi
    return out


def price_european(model: ModelParams, ctx: MarketContext, t: float, strike: float,
                   is_call: bool, spec: GridSpec = GridSpec()) -> float:
    """Price a single European option (one-strike slice)."""
    return float(price_strike_slice(model, ctx, t, [strike], [is_call], spec)[0])
