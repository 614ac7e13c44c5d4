"""Stochastic-volatility jump-diffusion pricing toolkit.

Characteristic-function models (Heston, HKDE, Bates, BGM), a B-spline
projection European pricer, vega-weighted smile calibration, and a Monte
Carlo engine for path-dependent payoffs.
"""
from svjd.models import (
    BGMParams,
    BatesParams,
    HestonParams,
    HKDEParams,
    KouJumpParams,
    MarketContext,
    ModelParams,
    cumulants_numeric,
    model_from_dict,
    model_to_dict,
)
from svjd.proj import GridSpec, ProjCoefficients, ProjGrid, price_european, price_strike_slice, proj_coefficients
from svjd.black_scholes import Quote, bs_price, bs_vega, bs_vega_greek, implied_vol
from svjd.calibration import CalibrationResult, QuoteSurface, calibrate, error_metrics, objective
from svjd.montecarlo import (
    ExoticSpec,
    McEstimate,
    MonitoringSchedule,
    PathBatch,
    SimConfig,
    price_exotic,
    simulate_paths,
)

__version__ = "0.1.0"
