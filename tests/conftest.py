"""Shared fixtures: calibrated parameter rows, standard market context, Kou cumulant oracle."""
import math

import numpy as np
import pytest

import svjd.montecarlo
import svjd.proj
from svjd.models import (
    BGMParams,
    BatesParams,
    HestonParams,
    HKDEParams,
    KouJumpParams,
    MarketContext,
    NormalJumpParams,
)


def _hkde(v0, theta, kappa, sigma_v, rho, lam, p, eta1, eta2):
    return HKDEParams(HestonParams(v0, theta, kappa, sigma_v, rho),
                      KouJumpParams(lam, p, eta1, eta2))


def _bates(v0, theta, kappa, sigma_v, rho, lam, mu_j, sigma_j):
    return BatesParams(HestonParams(v0, theta, kappa, sigma_v, rho),
                       NormalJumpParams(lam, mu_j, sigma_j))


# Calibrated parameter rows (single-name equity smiles, four models x four names).
PARAM_ROWS = {
    "hkde": {
        "AMZN": _hkde(0.023, 0.067, 5.275, 1.268, -0.691, 53.165, 0.999, 49.799, 2.587),
        "NFLX": _hkde(0.001, 0.091, 13.355, 4.797, -0.498, 103.622, 0.272, 42.945, 65.011),
        "SHOP": _hkde(0.176, 0.728, 0.191, 0.194, -0.718, 1.009, 0.958, 8.739, 0.733),
        "SPOT": _hkde(0.064, 0.163, 6.796, 1.698, -0.391, 17.725, 1.0, 35.555, 0.049),
    },
    "heston": {
        "AMZN": HestonParams(0.062, 0.109, 14.825, 3.077, -0.264),
        "NFLX": HestonParams(0.066, 0.151, 14.857, 2.987, -0.279),
        "SHOP": HestonParams(0.216, 0.268, 43.472, 10.0, -0.183),
        "SPOT": HestonParams(0.094, 0.199, 6.95, 2.133, -0.23),
    },
    "bates": {
        "AMZN": _bates(0.07, 0.113, 3.46, 0.809, -0.299, 0.021, -0.37, 0.635),
        "NFLX": _bates(0.067, 0.146, 14.254, 2.434, -0.275, 0.002, -9.343, 3.901),
        "SHOP": _bates(0.192, 0.221, 49.841, 5.093, -0.075, 0.051, -1.014, 1.073),
        "SPOT": _bates(0.094, 0.191, 6.344, 1.617, -0.258, 0.002, -40.123, 8.946),
    },
    "bgm": {
        "AMZN": BGMParams(3.093, 22.88, 0.415, 3.342, 0.248),
        "NFLX": BGMParams(0.032, 258.818, 0.184, 2.017, 0.316),
        "SHOP": BGMParams(6.165, 11.075, 3.201, 4.34, 0.265),
        "SPOT": BGMParams(14.706, 238.363, 0.168, 1.839, 0.351),
    },
}

ALL_ROWS = [(kind, name, params)
            for kind, rows in PARAM_ROWS.items()
            for name, params in rows.items()]


@pytest.fixture
def ctx():
    return MarketContext(spot=100.0, rate=0.05, div_yield=0.0)


@pytest.fixture
def amzn_hkde():
    return PARAM_ROWS["hkde"]["AMZN"]


@pytest.fixture
def shop_hkde():
    return PARAM_ROWS["hkde"]["SHOP"]


@pytest.fixture
def spot_hkde():
    return PARAM_ROWS["hkde"]["SPOT"]


def count_exponent_nodes(monkeypatch) -> list:
    """Node counts of each char_exponent call made through svjd.proj, from now on."""
    nodes = []
    original = svjd.proj.char_exponent

    def counted(model, ctx, xi, t):
        nodes.append(np.size(xi))
        return original(model, ctx, xi, t)

    monkeypatch.setattr(svjd.proj, "char_exponent", counted)
    return nodes


class EveryDateBatch(svjd.montecarlo.PathBatch):
    """A PathBatch that also keeps a copy of every date it records, as a paths x
    dates array in `paths`. Installed over svjd.montecarlo.PathBatch, it gives a
    test every monitoring date's log prices; the engine keeps only the last."""

    def __init__(self, schedule, n, reads=()):
        super().__init__(schedule, n, reads)
        self.paths = np.empty((n, len(schedule.dates)))

    def record(self, x):
        self.paths[:, self._date] = x
        super().record(x)


def degenerate_hkde(vol: float = 0.2) -> HKDEParams:
    """HKDE collapsed to Black-Scholes: no jumps, frozen variance vol^2."""
    return _hkde(vol * vol, vol * vol, 1e-8, 1e-8, 0.0, 0.0, 0.5, 2.0, 3.0)


def pure_jump_hkde(jumps: KouJumpParams) -> HKDEParams:
    """HKDE with a negligible diffusion leg, for jump-cumulant cross-checks."""
    return HKDEParams(HestonParams(1e-12, 1e-12, 1.0, 1e-6, 0.0), jumps)


def cumulants_kou(jumps: KouJumpParams, t: float, n: int) -> float:
    """Closed-form cumulant of the compensated double-exponential jump component, orders 1..4."""
    if n not in (1, 2, 3, 4):
        raise ValueError("cumulant order must be 1..4")
    if t < 0:
        raise ValueError("t must be nonnegative")
    j = jumps
    if n == 1:
        # compensator -lam*(p*eta1/(eta1-1) + (1-p)*eta2/(eta2+1) - 1), same-order terms
        omega = -j.lam * (j.p / (j.eta1 - 1.0) - (1.0 - j.p) / (j.eta2 + 1.0))
        return t * (j.lam * (j.p / j.eta1 - (1.0 - j.p) / j.eta2) + omega)
    return math.factorial(n) * t * j.lam * (j.p / j.eta1**n + (-1) ** n * (1.0 - j.p) / j.eta2**n)
