"""Stochastic-volatility jump-diffusion pricing toolkit.

Characteristic-function models (Heston, HKDE, Bates, BGM), a B-spline
projection European pricer, vega-weighted smile calibration, and a Monte
Carlo engine for path-dependent payoffs.
"""
import numpy as np

from svjd.models import (
    BGMParams,
    BatesParams,
    HestonParams,
    HKDEParams,
    KouJumpParams,
    MarketContext,
    ModelParams,
    NormalJumpParams,
    cumulants_numeric,
    model_from_dict,
    model_to_dict,
)
from svjd.proj import GridSpec, ProjGrid, price_european, price_strike_slice, proj_coefficients
from svjd.black_scholes import Quote, bs_price, bs_vega, implied_vol
from svjd.calibration import CalibrationResult, QuoteSurface, calibrate, error_metrics, objective
from svjd.montecarlo import (
    ExoticSpec,
    McEstimate,
    MonitoringSchedule,
    PathBatch,
    SimConfig,
    price_exotic,
)

__version__ = "0.1.0"

# Allocator warm-up: allocate and free one 4 MiB block. glibc serves it by mmap,
# and the free raises its mmap threshold to 4 MiB and its trim threshold to
# 8 MiB (the dynamic threshold of mallopt(3)), so the heap keeps the slack that
# the NumPy temporaries of pricing reuse. Without it glibc trims the top of the
# heap after every call. On a 2-core x86-64 host (glibc 2.36, NumPy 2.4), each
# 201-strike price_strike_slice then re-faulted about 190 pages, a 64-command CLI
# smile pass took 39k minor faults and ran about 15% longer, and a Heston fit on
# a 5x15 surface took about 5,800. With it: 0-0.06 faults per slice, 0-6 per pass
# and 0-13 per fit. Other allocators are not affected.
np.empty(1 << 19)
