"""Fixed data the workloads draw their inputs from.

The sixteen calibrated parameter rows (four models x four single-name smiles)
and the M = 40 exotic contracts with their published reference values are the
same ones the acceptance suite uses; they are written out here as parameter
documents so the benchmark depends on the package's public API only.
"""
from __future__ import annotations

_HESTON = ("v0", "theta", "kappa", "sigma_v", "rho")
_FIELDS = {
    "hkde": _HESTON + ("lam", "p", "eta1", "eta2"),
    "heston": _HESTON,
    "bates": _HESTON + ("lam", "mu_j", "sigma_j"),
    "bgm": ("alpha_p", "lam_p", "alpha_m", "lam_m", "sigma"),
}
_VALUES = {
    "hkde": {
        "AMZN": (0.023, 0.067, 5.275, 1.268, -0.691, 53.165, 0.999, 49.799, 2.587),
        "NFLX": (0.001, 0.091, 13.355, 4.797, -0.498, 103.622, 0.272, 42.945, 65.011),
        "SHOP": (0.176, 0.728, 0.191, 0.194, -0.718, 1.009, 0.958, 8.739, 0.733),
        "SPOT": (0.064, 0.163, 6.796, 1.698, -0.391, 17.725, 1.0, 35.555, 0.049),
    },
    "heston": {
        "AMZN": (0.062, 0.109, 14.825, 3.077, -0.264),
        "NFLX": (0.066, 0.151, 14.857, 2.987, -0.279),
        "SHOP": (0.216, 0.268, 43.472, 10.0, -0.183),
        "SPOT": (0.094, 0.199, 6.95, 2.133, -0.23),
    },
    "bates": {
        "AMZN": (0.07, 0.113, 3.46, 0.809, -0.299, 0.021, -0.37, 0.635),
        "NFLX": (0.067, 0.146, 14.254, 2.434, -0.275, 0.002, -9.343, 3.901),
        "SHOP": (0.192, 0.221, 49.841, 5.093, -0.075, 0.051, -1.014, 1.073),
        "SPOT": (0.094, 0.191, 6.344, 1.617, -0.258, 0.002, -40.123, 8.946),
    },
    "bgm": {
        "AMZN": (3.093, 22.88, 0.415, 3.342, 0.248),
        "NFLX": (0.032, 258.818, 0.184, 2.017, 0.316),
        "SHOP": (6.165, 11.075, 3.201, 4.34, 0.265),
        "SPOT": (14.706, 238.363, 0.168, 1.839, 0.351),
    },
}

MODELS = ("heston", "hkde", "bates", "bgm")
NAMES = ("AMZN", "NFLX", "SHOP", "SPOT")

# Fields a cli-smile command may bump by +10%: the variance leg of the
# Heston family and every BGM field. A +10% bump of a jump probability can
# leave [0, 1], and one of the Bates SPOT jump widths implies volatilities
# above the inverter's bracket, so allowing them would make the number of
# failing commands depend on the seed.
BUMP_FIELDS = {"hkde": _HESTON, "heston": _HESTON, "bates": _HESTON,
               "bgm": _FIELDS["bgm"]}

SPOT, RATE, DIV_YIELD = 100.0, 0.05, 0.0


def param_doc(model: str, name: str) -> dict:
    """Parameter document in the package's JSON schema for one calibrated row."""
    return {"model": model, "params": dict(zip(_FIELDS[model], _VALUES[model][name]))}


# criterion-08 round trip: SPOT HKDE surface, 5 maturities x 15 log-moneyness points
CALIB_MATURITIES = (0.1, 0.25, 0.5, 1.0, 2.0)
CALIB_MONEYNESS_RANGE = (-0.35, 0.35, 15)

# criterion-02 M = 40 contracts: three up-and-out calls, two variance calls,
# three cliquets whose notionals are 0.5 / 1 / 1.5 (criterion 03 linearity)
M40_INTERVALS = 40
M40_CONTRACTS = (
    dict(kind="barrier_uo", strike=70.0, barrier_up=140.0),
    dict(kind="barrier_uo", strike=100.0, barrier_up=140.0),
    dict(kind="barrier_uo", strike=130.0, barrier_up=140.0),
    dict(kind="variance_call", strike=0.01),
    dict(kind="variance_call", strike=0.05),
    dict(kind="cliquet", strike=0.5),
    dict(kind="cliquet", strike=1.0),
    dict(kind="cliquet", strike=1.5),
)
CLIQUET_TERMS = dict(cap=0.06, floor=0.01, global_cap=0.75 * 40 * 0.06,
                     global_floor=1.25 * 40 * 0.01)
# published HKDE AMZN values by contract index; index 2 (OTM up-and-out) is
# the acceptance suite's strict xfail and is not checked
M40_PUBLISHED = {0: 18.75, 1: 4.62, 3: 0.099, 4: 0.062, 5: 0.392}
M40_ROUNDING = 0.005

# cli-smile: known failing commands at the seed commit. At T = 0.1 the
# parity calls of these rows come out slightly negative for strikes
# 148.5-160 and the implied-volatility inversion raises.
KNOWN_CLI_FAILURES = frozenset({
    ("hkde", "AMZN", "synth", None), ("hkde", "AMZN", "smile", 0.1),
    ("bgm", "AMZN", "synth", None), ("bgm", "AMZN", "smile", 0.1),
    ("bgm", "NFLX", "synth", None), ("bgm", "NFLX", "smile", 0.1),
    ("bgm", "SPOT", "synth", None), ("bgm", "SPOT", "smile", 0.1),
})
CLI_SYNTH_GRID = "0.1,0.25,0.5,1,2x-0.5:0.5:0.025"
CLI_SMILE_MATURITIES = (0.1, 0.5, 2.0)
CLI_SMILE_STRIKES = "60:160:0.5"
