"""Path engine, payoff evaluators, estimator statistics."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import svjd.models as models
import svjd.montecarlo as montecarlo
from svjd.models import KouJumpParams, MarketContext, NormalJumpParams
from svjd.montecarlo import (
    EXOTIC_KINDS,
    ExoticSpec,
    MonitoringSchedule,
    PathBatch,
    SimConfig,
    _chunk_rng,
    _chunk_sizes,
    _simulate_chunk,
    _substeps,
    _thread_count,
    evaluate_payoff,
    mc_run,
    price_exotic,
    price_exotic_batch,
)

from conftest import PARAM_ROWS, EveryDateBatch, degenerate_hkde


def _european(t, strike, is_call=True):
    return ExoticSpec(kind="european_call" if is_call else "european_put",
                      schedule=MonitoringSchedule.uniform(t, 1), strike=strike)


# ---------------------------------------------------------------------------
# Schedules and specs
# ---------------------------------------------------------------------------

def test_uniform_schedule_span():
    s = MonitoringSchedule.uniform(2.0, 4)
    assert s.dates == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert s.n_intervals == 4


def test_uniform_schedule_m_plus_1_spacing():
    s = MonitoringSchedule.uniform(1.0, 4, spacing="m_plus_1")
    assert s.dates == pytest.approx((0.0, 0.2, 0.4, 0.6, 0.8))
    assert s.dates[-1] < s.maturity


def test_schedule_validation():
    with pytest.raises(ValueError):
        MonitoringSchedule(maturity=1.0, dates=(0.0, 0.5, 0.5, 1.0))
    with pytest.raises(ValueError):
        MonitoringSchedule(maturity=1.0, dates=(0.1, 0.5, 1.0))
    with pytest.raises(ValueError):
        MonitoringSchedule(maturity=1.0, dates=(0.0, 1.5))
    with pytest.raises(ValueError, match="^maturity must be finite and positive; got nan$"):
        MonitoringSchedule.uniform(math.nan, 4)
    with pytest.raises(ValueError, match="^spacing must be 'span' or 'm_plus_1'$"):
        MonitoringSchedule.uniform(1.0, 4, spacing="weekly")


@pytest.mark.parametrize("bad", [True, 4.5, "4", 0, -1, None])
def test_uniform_schedule_rejects_a_bad_interval_count_by_name(bad):
    # True used to build one interval, 4.5 and "4" to fail with a bare TypeError
    with pytest.raises(ValueError) as info:
        MonitoringSchedule.uniform(1.0, bad)
    assert str(info.value) == f"m must be an integer >= 1; got {bad!r}"


def test_uniform_schedule_accepts_a_numpy_integer_count():
    assert MonitoringSchedule.uniform(2.0, np.int64(4)) == MonitoringSchedule.uniform(2.0, 4)


@pytest.mark.parametrize("cast", [np.float64, np.int64])
def test_schedule_accepts_a_numpy_scalar_maturity(cast):
    assert MonitoringSchedule.uniform(cast(2), 4) == MonitoringSchedule.uniform(2.0, 4)


@pytest.mark.parametrize("maturity, dates, message", [
    (math.nan, (0.0, 1.0), "maturity must be finite and positive; got nan"),
    (math.inf, (0.0, 1.0), "maturity must be finite and positive; got inf"),
    (0.0, (0.0, 1.0), "maturity must be finite and positive; got 0.0"),
    (1.0, (0.0, math.nan), "dates must be finite; got (0.0, nan)"),
    (1.0, (0.0, math.nan, 1.0), "dates must be finite; got (0.0, nan, 1.0)"),
    (math.inf, (0.0, math.inf), "maturity must be finite and positive; got inf"),
    (True, (0.0, 1.0), "maturity must be finite and positive; got True"),
    ("1", (0.0, 1.0), "maturity must be finite and positive; got 1"),
    (None, (0.0, 1.0), "maturity must be finite and positive; got None")])
def test_schedule_rejects_non_finite_entries_by_name(maturity, dates, message):
    # nan maturity or dates used to price a variance swap at nan, an infinite
    # maturity at 0
    with pytest.raises(ValueError) as info:
        MonitoringSchedule(maturity=maturity, dates=dates)
    assert str(info.value) == message
    if message.startswith("maturity"):   # uniform builds its dates from the maturity
        with pytest.raises(ValueError) as info:
            MonitoringSchedule.uniform(maturity, 4)
        assert str(info.value) == message


def test_exotic_spec_validation():
    sched = MonitoringSchedule.uniform(1.0, 4)
    with pytest.raises(ValueError):
        ExoticSpec(kind="lookback", schedule=sched)
    with pytest.raises(ValueError):
        ExoticSpec(kind="asian_call", schedule=sched, strike=0.0)
    with pytest.raises(ValueError):
        ExoticSpec(kind="cliquet", schedule=sched, strike=1.0, cap=0.01, floor=0.06,
                   global_cap=1.0, global_floor=0.0)
    with pytest.raises(ValueError):
        ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0)


@pytest.mark.parametrize("kind, terms, message", [
    ("european_call", dict(strike=math.nan), "strike must be finite; got nan"),
    ("european_put", dict(strike=True), "strike must be finite; got True"),
    ("asian_call", dict(strike=math.inf), "strike must be finite; got inf"),
    ("variance_call", dict(strike=-math.inf), "strike must be finite; got -inf"),
    ("barrier_uo", dict(strike=100.0, barrier_up=math.nan), "barrier_up must be finite; got nan"),
    ("barrier_do", dict(strike=100.0, barrier_down=math.inf),
     "barrier_down must be finite; got inf"),
    ("barrier_do", dict(strike=100.0, barrier_down=-5.0),
     "barrier_down must be positive; got -5.0"),
    ("barrier_double", dict(strike=100.0, barrier_up=0.0, barrier_down=80.0),
     "barrier_up must be positive; got 0.0"),
    ("cliquet", dict(strike=1.0, cap=math.nan, floor=0.0, global_cap=1.0, global_floor=0.0),
     "cap must be finite; got nan"),
    ("cliquet", dict(strike=1.0, cap=0.06, floor=-math.inf, global_cap=1.0, global_floor=0.0),
     "floor must be finite; got -inf"),
    ("cliquet", dict(strike=1.0, cap=0.06, floor=0.0, global_cap=math.inf, global_floor=0.0),
     "global_cap must be finite; got inf"),
    ("cliquet", dict(strike=1.0, cap=0.06, floor=0.0, global_cap=1.0, global_floor=False),
     "global_floor must be finite; got False"),
    *[("barrier_uo", dict(strike=100.0, barrier_up=140.0, is_call=bad),
       f"is_call must be a bool; got {bad!r}") for bad in ("no", 0, 1, None, np.float64(1.0))],
    ("cliquet", dict(strike=1.0, cap=0.06, floor=0.0, global_cap=1.0),
     "cliquet needs global cap and floor"),
    ("barrier_double", dict(strike=100.0, barrier_up=140.0), "barrier_double needs barrier_down"),
    ("asian_call", dict(strike=100.0, is_call=False), "asian_call does not read is_call"),
])
def test_exotic_spec_rejects_bad_terms_by_name(kind, terms, message):
    # unchecked, these priced as nan, as 0, failed with a bare math domain error,
    # or (is_call "no", or False on an Asian) priced the call
    with pytest.raises(ValueError) as info:
        ExoticSpec(kind=kind, schedule=MonitoringSchedule.uniform(1.0, 4), **terms)
    assert str(info.value) == message


def test_exotic_spec_rejects_terms_its_kind_does_not_read():
    # unchecked, a European with barrier_up priced as the plain European
    readers = {"cap": ("cliquet",), "floor": ("cliquet",), "global_cap": ("cliquet",),
               "global_floor": ("cliquet",), "barrier_up": ("barrier_uo", "barrier_double"),
               "barrier_down": ("barrier_do", "barrier_double")}
    sched = MonitoringSchedule.uniform(1.0, 4)
    for kind in EXOTIC_KINDS:
        for name, kinds in readers.items():
            if kind not in kinds:
                with pytest.raises(ValueError) as info:
                    ExoticSpec(kind=kind, schedule=sched, strike=100.0, **{name: 0.5})
                assert str(info.value) == f"{kind} does not read {name}"


def test_exotic_spec_numpy_flag_prices_as_the_python_one():
    logs = [[np.log(100.0), np.log(80.0)], [np.log(100.0), np.log(120.0)]]
    spec, np_spec = (ExoticSpec(kind="barrier_uo", schedule=_schedule(logs, 1.0), strike=100.0,
                                barrier_up=200.0, is_call=flag) for flag in (False, np.False_))
    batch = _batch(logs, [spec])
    payoff = evaluate_payoff(spec, batch)
    assert np.array_equal(payoff, evaluate_payoff(np_spec, batch))
    assert payoff == pytest.approx([20.0, 0.0])


@pytest.mark.parametrize("kind", ["european_call", "european_put", "cliquet"])
@pytest.mark.parametrize("strike", [0.0, -100.0])
def test_european_spec_needs_positive_strike(kind, strike):
    with pytest.raises(ValueError, match=f"{kind} needs a positive strike"):
        ExoticSpec(kind=kind, schedule=MonitoringSchedule.uniform(1.0, 1), strike=strike)


@pytest.mark.parametrize("kind", ["european_call", "european_put"])
def test_european_spec_must_pay_at_maturity(kind):
    # price_exotic_batch discounts over the maturity, so a schedule that ends
    # early would price the T = 0.8 payoff under one year of discounting
    with pytest.raises(ValueError, match=f"^{kind} pays at maturity 1.0; its schedule ends at 0.8"):
        ExoticSpec(kind=kind, schedule=MonitoringSchedule.uniform(1.0, 4, "m_plus_1"),
                   strike=100.0)
    # t*m/m may miss t by an ulp: 0.7*3/3 is 0.6999999999999998
    schedule = MonitoringSchedule.uniform(0.7, 3)
    assert schedule.dates[-1] < schedule.maturity
    ExoticSpec(kind=kind, schedule=schedule, strike=100.0)
    # path-dependent kinds may still end early
    ExoticSpec(kind=kind.replace("european", "asian"),
               schedule=MonitoringSchedule.uniform(1.0, 4, "m_plus_1"), strike=100.0)


# ---------------------------------------------------------------------------
# Payoff evaluators on hand-built paths
# ---------------------------------------------------------------------------

def _schedule(log_prices, maturity):
    return MonitoringSchedule.uniform(maturity, np.shape(log_prices)[1] - 1)


def _reads(specs):
    return dict.fromkeys(key for spec in specs for key in montecarlo._statistic_keys(spec))


def _batch(log_prices, specs):
    """The engine's recorder fed a paths x dates array one date at a time,
    keeping the statistics that specs read."""
    logs = np.asarray(log_prices, dtype=float)
    batch = PathBatch(specs[0].schedule, logs.shape[0], _reads(specs))
    for column in logs.T:
        batch.record(np.ascontiguousarray(column))   # the engine hands over a whole vector
    return batch


def test_asian_payoff_includes_initial_date():
    s = np.log([[100.0, 110.0, 120.0], [100.0, 90.0, 80.0]])
    call, put = (ExoticSpec(kind=kind, schedule=_schedule(s, 1.0), strike=100.0)
                 for kind in ("asian_call", "asian_put"))
    batch = _batch(s, [call, put])
    assert evaluate_payoff(call, batch) == pytest.approx([10.0, 0.0])
    assert evaluate_payoff(put, batch) == pytest.approx([0.0, 10.0])


def test_variance_payoffs_by_hand():
    r1, r2 = 0.03, -0.02
    s = [[0.0, r1, r1 + r2]]
    swap, call, deep = (ExoticSpec(kind=kind, schedule=_schedule(s, 0.5), strike=strike)
                        for kind, strike in (("variance_swap", 0.001), ("variance_call", 0.001),
                                             ("variance_swap", 1.0)))
    batch = _batch(s, [swap, call, deep])
    assert evaluate_payoff(swap, batch) == pytest.approx([(r1 ** 2 + r2 ** 2) / 0.5 - 0.001])
    expected = (math.expm1(r1) ** 2 + math.expm1(r2) ** 2) / 0.5 - 0.001
    assert evaluate_payoff(call, batch) == pytest.approx([max(expected, 0.0)])
    assert evaluate_payoff(deep, batch)[0] < 0.0   # swap payoff may go negative


def test_cliquet_payoff_by_hand():
    r = [0.10, -0.50, 0.01]
    logs = np.concatenate([[0.0], np.cumsum(r)])
    spec = ExoticSpec(kind="cliquet", schedule=_schedule([logs], 1.0), strike=2.0, cap=0.06,
                      floor=-0.03, global_cap=0.05, global_floor=-0.01)
    # per-period clamped returns: 0.06, -0.03, expm1(0.01); sum then global clamp
    total = 0.06 - 0.03 + math.expm1(0.01)
    expected = 2.0 * min(0.05, max(-0.01, total))
    assert evaluate_payoff(spec, _batch([logs], [spec])) == pytest.approx([expected])


def test_barrier_payoffs_by_hand():
    s = np.log([[100.0, 120.0, 115.0],    # survives U=130
                [100.0, 135.0, 115.0],    # knocked at t_1
                [100.0, 120.0, 131.0]])   # knocked at maturity observation
    sched = _schedule(s, 1.0)
    uo = ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0, barrier_up=130.0)
    do = ExoticSpec(kind="barrier_do", schedule=sched, strike=100.0, barrier_down=90.0)
    dbl = ExoticSpec(kind="barrier_double", schedule=sched, strike=100.0,
                     barrier_up=130.0, barrier_down=117.0)
    put = ExoticSpec(kind="barrier_uo", schedule=sched, strike=120.0,
                     barrier_up=130.0, is_call=False)
    batch = _batch(s, [uo, do, dbl, put])
    assert evaluate_payoff(uo, batch) == pytest.approx([15.0, 0.0, 0.0])
    assert evaluate_payoff(do, batch) == pytest.approx([15.0, 15.0, 31.0])
    assert evaluate_payoff(dbl, batch) == pytest.approx([0.0, 0.0, 0.0])
    assert evaluate_payoff(put, batch) == pytest.approx([5.0, 0.0, 0.0])


def _random_walk(n, m=40, seed=5):
    """n log-price paths over m dates after t_0 = 0, from S_0 = 100."""
    steps = np.random.default_rng(seed).normal(-0.002, 0.06, (n, m))
    return math.log(100.0) + np.concatenate([np.zeros((n, 1)), np.cumsum(steps, axis=1)], axis=1)


def _one_of_each_kind(schedule):
    # strikes and global terms that bite on some of _random_walk's paths
    terms = {"variance_swap": dict(strike=0.15), "variance_call": dict(strike=0.15),
             "cliquet": dict(strike=1.0, cap=0.06, floor=0.01, global_cap=1.2, global_floor=0.8),
             "barrier_uo": dict(barrier_up=130.0), "barrier_do": dict(barrier_down=80.0),
             "barrier_double": dict(barrier_up=130.0, barrier_down=80.0)}
    return [ExoticSpec(kind=kind, schedule=schedule, **{"strike": 100.0, **terms.get(kind, {})})
            for kind in EXOTIC_KINDS]


def _whole_array_payoff(spec, logs):
    """The payoffs written out over the whole batch: one n x M temporary per statistic."""
    k, t = spec.strike, spec.schedule.maturity

    def vanilla(s, is_call):
        return np.maximum(s - k, 0.0) if is_call else np.maximum(k - s, 0.0)

    returns = np.diff(logs, axis=1)
    simple = np.expm1(returns)
    if spec.kind in ("european_call", "european_put"):
        return vanilla(np.exp(logs[:, -1]), spec.kind == "european_call")
    if spec.kind in ("asian_call", "asian_put"):
        return vanilla(np.exp(logs).mean(axis=1), spec.kind == "asian_call")
    if spec.kind == "variance_swap":
        return (returns ** 2).sum(axis=1) / t - k
    if spec.kind == "variance_call":
        return np.maximum((simple ** 2).sum(axis=1) / t - k, 0.0)
    if spec.kind == "cliquet":
        period = np.clip(simple, spec.floor, spec.cap)
        return k * np.clip(period.sum(axis=1), spec.global_floor, spec.global_cap)
    alive = np.ones(logs.shape[0], dtype=bool)
    if spec.barrier_up is not None:
        alive &= logs[:, 1:].max(axis=1) <= math.log(spec.barrier_up)
    if spec.barrier_down is not None:
        alive &= logs[:, 1:].min(axis=1) >= math.log(spec.barrier_down)
    return vanilla(np.exp(logs[:, -1]), spec.is_call) * alive


def _in_date_order(terms):
    """Row sums of a paths x dates array taken date by date from 0, as the recorder
    folds them; NumPy sums a row of 8 or more terms pairwise, in 8 lanes."""
    total = np.zeros(terms.shape[0])
    for column in terms.T:
        total += column
    return total


def _sum_terms(spec, logs):
    """The per-date terms a sum kind adds up, and its payoff's largest slope in their sum."""
    returns = np.diff(logs, axis=1)
    if spec.kind in ("asian_call", "asian_put"):
        return np.exp(logs), 1.0 / logs.shape[1]
    if spec.kind == "variance_swap":
        return returns ** 2, 1.0 / spec.schedule.maturity
    if spec.kind == "variance_call":
        return np.expm1(returns) ** 2, 1.0 / spec.schedule.maturity
    return np.clip(np.expm1(returns), spec.floor, spec.cap), spec.strike


def _date_ordered_stats(logs, clipped=((0.01, 0.06),)):
    """Every statistic the recorder keeps, from a paths x dates array, with date-ordered sums."""
    returns = np.diff(logs, axis=1)
    simple = np.expm1(returns)
    stats = {"last": np.exp(logs[:, -1]), "max": logs[:, 1:].max(axis=1),
             "min": logs[:, 1:].min(axis=1), "sum": _in_date_order(np.exp(logs)),
             "log_sq": _in_date_order(returns ** 2), "simple_sq": _in_date_order(simple ** 2)}
    stats.update({("clipped", floor, cap): _in_date_order(np.clip(simple, floor, cap))
                  for floor, cap in clipped})
    return stats


_SUM_KINDS = ("asian_call", "asian_put", "variance_swap", "variance_call", "cliquet")


@pytest.mark.parametrize("n", [1, 4096, 8195])
@pytest.mark.parametrize("kind", EXOTIC_KINDS)
def test_payoffs_equal_whole_array_formulas(kind, n):
    # every kind is recorded on one batch with all the others, so a statistic
    # read under the wrong key, or folded into another, shows too
    for m in (1, 4, 6, 7, 40, 252):
        logs = _random_walk(n, m)
        specs = _one_of_each_kind(_schedule(logs, 1.0))
        (spec,) = (s for s in specs if s.kind == kind)
        batch = _batch(logs, specs)
        pay, frozen = evaluate_payoff(spec, batch), _whole_array_payoff(spec, logs)
        assert pay.shape == (n,)
        if kind not in _SUM_KINDS or m <= 6:
            # max, min and the last date are exact, and NumPy sums up to 7 terms in order
            assert np.array_equal(pay, frozen), m
            continue
        (key,) = montecarlo._statistic_keys(spec)
        terms, slope = _sum_terms(spec, logs)
        assert np.array_equal(batch.stats[key], _in_date_order(terms)), m
        bound = slope * (m + 1) * 2.0 ** -52 * np.abs(terms).sum(axis=1)
        assert np.all(np.abs(pay - frozen) <= bound), m


def test_cliquets_with_different_local_terms_read_different_sums():
    logs = _random_walk(8195)
    specs = [ExoticSpec(kind="cliquet", schedule=_schedule(logs, 1.0), strike=1.0, floor=floor,
                        cap=cap, global_cap=100.0, global_floor=-100.0)
             for floor, cap in ((0.01, 0.06), (-0.01, 0.06), (0.01, 0.02))]
    batch = _batch(logs, specs)
    reference = _date_ordered_stats(logs, [(spec.floor, spec.cap) for spec in specs])
    pays = [evaluate_payoff(spec, batch) for spec in specs]
    for spec, pay in zip(specs, pays):
        assert np.array_equal(pay, reference[("clipped", spec.floor, spec.cap)])
        assert np.array_equal(evaluate_payoff(spec, batch), pay)     # read again
    assert not any(np.array_equal(a, b) for a, b in [pays[:2], pays[::2], pays[1:]])


def test_payoff_statistics_need_no_batch_sized_temporary():
    # the whole-array form, one n x M temporary per statistic, peaks near 3x
    # the path matrix here; recording every statistic and evaluating every
    # kind holds a few per-path vectors
    logs = _random_walk(1 << 16)
    specs = _one_of_each_kind(_schedule(logs, 1.0))
    tracemalloc.start()
    try:
        batch = _batch(logs, specs)
        for spec in specs:
            evaluate_payoff(spec, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * logs.nbytes


# ---------------------------------------------------------------------------
# Sampler and path statistics
# ---------------------------------------------------------------------------

def _masked_double_exponential(rng, jumps, size):
    """The inverse-CDF sampler in boolean-mask form: each branch sees only its own draws."""
    u = np.maximum(rng.uniform(size=size), 2.0 ** -53)
    up = u >= 1.0 - jumps.p
    out = np.empty(size)
    out[up] = -np.log((1.0 - u[up]) / jumps.p) / jumps.eta1
    down = ~up
    out[down] = np.log(u[down] / (1.0 - jumps.p)) / jumps.eta2
    return out


@pytest.mark.filterwarnings("error")    # p = 0 and p = 1 must not warn
@pytest.mark.parametrize("jumps", [
    KouJumpParams(1.0, 0.0, 2.0, 5.0),
    PARAM_ROWS["hkde"]["NFLX"].jumps,     # p = 0.272
    PARAM_ROWS["hkde"]["AMZN"].jumps,     # p = 0.999
    PARAM_ROWS["hkde"]["SPOT"].jumps,     # p = 1
], ids=["p0", "nflx", "amzn", "spot-p1"])
@pytest.mark.parametrize("size", [0, 1, 7, 100_000])
def test_jump_sampler_equals_masked_form(jumps, size):
    draws = jumps.sample_sizes(_chunk_rng(9, 2), size)
    assert np.array_equal(draws, _masked_double_exponential(_chunk_rng(9, 2), jumps, size))


def test_jump_sampler_mean_p1():
    rng = np.random.default_rng(11)
    draws = KouJumpParams(1.0, 1.0, 2.0, 5.0).sample_sizes(rng, 200_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3 * se
    assert np.all(draws >= 0.0)


def test_jump_sampler_mixture_mean():
    rng = np.random.default_rng(12)
    jumps = KouJumpParams(1.0, 0.3, 4.0, 2.0)
    draws = jumps.sample_sizes(rng, 200_000)
    expected = 0.3 / 4.0 - 0.7 / 2.0
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - expected) < 3 * se


def test_degenerate_model_matches_gaussian_moments(ctx):
    model = degenerate_hkde(0.2)
    sched = MonitoringSchedule.uniform(1.0, 1)
    cfg = SimConfig(n_paths=100_000, seed=4, antithetic=False, steps_per_interval=20)
    mean_target = math.log(100.0) + 0.05 - 0.5 * 0.04

    def moments(batch):
        ret = batch.log_prices[:, -1] - mean_target
        return np.stack([ret, ret * ret])

    mean, var = mc_run(model, ctx, sched, cfg, moments)
    assert abs(mean.price) < 3 * mean.std_err
    assert abs(var.price - 0.04) < 3 * var.std_err


def test_martingale_property_hkde(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(1.0, 1)
    cfg = SimConfig(n_paths=200_000, seed=9, antithetic=True, steps_per_interval=50)
    # discounted S_T / S_0; mc_run estimates it over antithetic pair averages
    est, = mc_run(amzn_hkde, ctx, sched, cfg,
                  lambda batch: np.exp(batch.log_prices[:, -1] - 0.05) / 100.0)
    assert abs(est.price - 1.0) < 3 * est.std_err


# ---------------------------------------------------------------------------
# Estimator behavior
# ---------------------------------------------------------------------------

def test_fixed_seed_is_bit_reproducible(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(0.5, 4)
    spec = ExoticSpec(kind="asian_call", schedule=sched, strike=100.0)
    cfg = SimConfig(n_paths=50_000, seed=33, steps_per_interval=4)
    a = price_exotic(amzn_hkde, ctx, spec, cfg)
    b = price_exotic(amzn_hkde, ctx, spec, cfg)
    assert a.price == b.price and a.std_err == b.std_err


def test_thread_count_does_not_change_results(ctx, amzn_hkde, monkeypatch):
    sched = MonitoringSchedule.uniform(0.5, 4)
    spec = ExoticSpec(kind="asian_call", schedule=sched, strike=100.0)
    cfg = SimConfig(n_paths=600_000, seed=33, steps_per_interval=2)  # several chunks
    monkeypatch.setenv("SVJD_THREADS", "1")
    a = price_exotic(amzn_hkde, ctx, spec, cfg)
    monkeypatch.setenv("SVJD_THREADS", "2")
    b = price_exotic(amzn_hkde, ctx, spec, cfg)
    assert a.price == b.price and a.std_err == b.std_err


def _loop_chunk_sizes(n_paths, antithetic):
    """Loop form of the chunk split, with an odd-chunk guard that antithetic
    sampling never reaches: the count is made even first and the chunk is even."""
    if antithetic and n_paths % 2:
        n_paths += 1
    sizes = []
    remaining = n_paths
    while remaining > 0:
        take = min(montecarlo._CHUNK, remaining)
        if antithetic and take % 2:
            take += 1
        sizes.append(take)
        remaining -= take
    return sizes


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("n", [2, 3, 5, 2**18 - 1, 2**18, 2**18 + 1, 2**19 - 1, 1_000_001])
def test_chunk_sizes_equal_loop_form(n, antithetic):
    sizes = _chunk_sizes(n, antithetic)
    assert sizes == _loop_chunk_sizes(n, antithetic)
    assert sum(sizes) == n + (antithetic and n % 2)
    assert not antithetic or all(size % 2 == 0 for size in sizes)


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("n_paths", [1_001, 2**18 + 1])   # odd; one chunk and two
def test_european_kinds_equal_mc_run_reference(ctx, amzn_hkde, antithetic, n_paths):
    t, strike = 0.5, 105.0
    cfg = SimConfig(n_paths=n_paths, seed=21, steps_per_interval=2, antithetic=antithetic)
    disc = math.exp(-ctx.rate * t)
    for is_call in (True, False):
        def payoff(batch):
            s_t = np.exp(batch.log_prices[:, -1])
            pay = np.maximum(s_t - strike, 0.0) if is_call else np.maximum(strike - s_t, 0.0)
            return disc * pay[None, :]

        (ref,) = mc_run(amzn_hkde, ctx, MonitoringSchedule.uniform(t, 1), cfg, payoff)
        est = price_exotic(amzn_hkde, ctx, _european(t, strike, is_call), cfg)
        assert (est.price, est.std_err, est.n_paths) == (ref.price, ref.std_err, ref.n_paths)


_M40 = MonitoringSchedule.uniform(1.0, 40)
_CLIQUET_KW = dict(cap=0.06, floor=0.01, global_cap=0.75 * 40 * 0.06,
                   global_floor=1.25 * 40 * 0.01)
# the eight criterion-02 contracts at M = 40
_M40_SPECS = ([ExoticSpec(kind="barrier_uo", schedule=_M40, strike=k, barrier_up=140.0)
               for k in (70.0, 100.0, 130.0)]
              + [ExoticSpec(kind="variance_call", schedule=_M40, strike=k) for k in (0.01, 0.05)]
              + [ExoticSpec(kind="cliquet", schedule=_M40, strike=k, **_CLIQUET_KW)
                 for k in (0.5, 1.0, 1.5)])


def test_batch_estimates_equal_stacked_payoff_reference(ctx, amzn_hkde, monkeypatch):
    # the batch hands mc_run one discounted payoff row at a time; the reference
    # stacks them into one array; three chunks, on one and two threads
    monkeypatch.setattr(montecarlo, "_CHUNK", 4096)
    cfg = SimConfig(n_paths=10_001, seed=202, steps_per_interval=2)
    disc = math.exp(-ctx.rate * _M40.maturity)
    reference = mc_run(amzn_hkde, ctx, _M40, cfg,
                       lambda batch: np.stack([disc * evaluate_payoff(spec, batch)
                                               for spec in _M40_SPECS]), _reads(_M40_SPECS))
    for threads in ("1", "2"):
        monkeypatch.setenv("SVJD_THREADS", threads)
        batch = price_exotic_batch(amzn_hkde, ctx, _M40_SPECS, cfg)
        assert [(e.price, e.std_err, e.n_paths) for e in batch] == \
            [(r.price, r.std_err, r.n_paths) for r in reference]


@pytest.mark.parametrize("antithetic", [True, False])
def test_mc_run_reduces_yielded_rows_as_the_stacked_array(ctx, amzn_hkde, monkeypatch,
                                                          antithetic):
    monkeypatch.setattr(montecarlo, "_CHUNK", 4096)
    cfg = SimConfig(n_paths=10_001, seed=7, steps_per_interval=2, antithetic=antithetic)

    def rows(batch):
        yield np.exp(batch.log_prices[:, -1])
        yield batch.stats["max"]

    stacked = mc_run(amzn_hkde, ctx, _M40, cfg, lambda batch: np.stack(list(rows(batch))),
                     ("max",))
    one_row = mc_run(amzn_hkde, ctx, _M40, cfg, lambda batch: next(rows(batch)), ("max",))
    yielded = mc_run(amzn_hkde, ctx, _M40, cfg, rows, ("max",))
    assert [(e.price, e.std_err, e.n_paths) for e in yielded] == \
        [(r.price, r.std_err, r.n_paths) for r in stacked]
    assert one_row == stacked[:1]


@pytest.mark.parametrize("antithetic", [True, False])
def test_mc_run_rejects_a_payoff_row_that_is_not_one_value_per_path(ctx, amzn_hkde, antithetic):
    # a paths x 2 array used to price 1,000 "estimates", or fail in the pair average
    cfg = SimConfig(n_paths=1_000, seed=3, steps_per_interval=2, antithetic=antithetic)

    def two_columns(batch):
        s_t = np.exp(batch.log_prices[:, -1])
        return np.stack([s_t, s_t * s_t], axis=1)

    with pytest.raises(ValueError) as info:
        mc_run(amzn_hkde, ctx, MonitoringSchedule.uniform(0.5, 1), cfg, two_columns)
    assert str(info.value) == ("payoff row has shape (2,); a chunk of 1000 paths needs one "
                               "value per path, shape (1000,)")


@pytest.mark.parametrize("spec, key", [(_european(0.5, 100.0), "'last'"),
                                       (ExoticSpec(kind="asian_call", schedule=_M40,
                                                   strike=100.0), "'sum'"),
                                       (_M40_SPECS[-1], "('clipped', 0.01, 0.06)")])
def test_evaluate_payoff_names_a_statistic_the_batch_did_not_record(ctx, amzn_hkde, spec, key):
    # without reads the batch records no statistic; this used to be a bare KeyError
    cfg = SimConfig(n_paths=1_000, seed=3, steps_per_interval=1)
    with pytest.raises(ValueError) as info:
        mc_run(amzn_hkde, ctx, spec.schedule, cfg, lambda b: evaluate_payoff(spec, b))
    assert str(info.value) == (f"{spec.kind} reads the batch statistic {key}, which was not "
                               f"recorded; pass it in mc_run's reads")


def test_exotic_batch_chunk_holds_little_beside_its_path_matrix(ctx, monkeypatch):
    # one 2^16-path chunk of the eight contracts: no path matrix exists, only the
    # recorder's per-path vectors, the Euler state and scratch of 2^12-path blocks,
    # so the peak stays a fraction of the M = 40 matrix bytes (1.21-1.24x while a
    # chunk held its matrix, 0.24-0.36x while it stored negated antithetic normals
    # and chunk-sized recorder and jump scratch) and does not grow with M; ratios,
    # so allocator differences across platforms cancel
    monkeypatch.setenv("SVJD_THREADS", "1")
    monkeypatch.setattr(montecarlo, "_BLOCK", 1 << 12)
    monkeypatch.setattr(models, "_BLOCK", 1 << 12)
    cfg = SimConfig(n_paths=1 << 16, seed=202, steps_per_interval=1)
    matrix_bytes = cfg.n_paths * len(_M40.dates) * 8
    m250 = MonitoringSchedule.uniform(1.0, 250)
    for kind in ("heston", "hkde", "bates", "bgm"):
        peaks = []
        for specs in (_M40_SPECS, [dataclasses.replace(s, schedule=m250) for s in _M40_SPECS]):
            tracemalloc.start()
            try:
                price_exotic_batch(PARAM_ROWS[kind]["AMZN"], ctx, specs, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.30 * matrix_bytes, (kind, peaks[0] / matrix_bytes)
        assert peaks[1] <= 1.1 * peaks[0], (kind, peaks[1] / peaks[0])


def test_seed_changes_results(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(0.5, 4)
    spec = ExoticSpec(kind="asian_call", schedule=sched, strike=100.0)
    a = price_exotic(amzn_hkde, ctx, spec, SimConfig(n_paths=50_000, seed=1, steps_per_interval=4))
    b = price_exotic(amzn_hkde, ctx, spec, SimConfig(n_paths=50_000, seed=2, steps_per_interval=4))
    assert a.price != b.price


def test_antithetic_reduces_std_err_battery(ctx):
    # fixed-seed battery: European calls across 10 configurations
    battery = [
        (PARAM_ROWS["heston"]["AMZN"], 1.0, 100.0),
        (PARAM_ROWS["heston"]["NFLX"], 0.5, 110.0),
        (PARAM_ROWS["heston"]["SHOP"], 1.0, 90.0),
        (PARAM_ROWS["heston"]["SPOT"], 0.5, 100.0),
        (PARAM_ROWS["hkde"]["AMZN"], 1.0, 100.0),
        (PARAM_ROWS["hkde"]["AMZN"], 0.5, 110.0),
        (PARAM_ROWS["hkde"]["SHOP"], 1.0, 110.0),
        (PARAM_ROWS["hkde"]["SPOT"], 0.5, 90.0),
        (PARAM_ROWS["bates"]["AMZN"], 1.0, 100.0),
        (PARAM_ROWS["bates"]["SHOP"], 0.5, 100.0),
    ]
    for i, (model, t, k) in enumerate(battery):
        plain = price_exotic(model, ctx, _european(t, k),
                             SimConfig(n_paths=40_000, seed=100 + i, antithetic=False))
        anti = price_exotic(model, ctx, _european(t, k),
                            SimConfig(n_paths=40_000, seed=100 + i, antithetic=True))
        assert anti.std_err <= plain.std_err, (i, anti.std_err, plain.std_err)


def test_barrier_price_nonincreasing_in_monitoring_frequency(ctx, amzn_hkde):
    prices = []
    for m in (4, 12, 40):
        sched = MonitoringSchedule.uniform(1.0, m)
        spec = ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0, barrier_up=130.0)
        cfg = SimConfig(n_paths=200_000, seed=7, steps_per_interval=max(1, 12 // m * 2))
        prices.append(price_exotic(amzn_hkde, ctx, spec, cfg).price)
    assert prices[0] >= prices[1] >= prices[2]


def test_variance_call_nonincreasing_in_strike(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(1.0, 10)
    cfg = SimConfig(n_paths=50_000, seed=5, steps_per_interval=2)
    specs = [ExoticSpec(kind="variance_call", schedule=sched, strike=k)
             for k in (0.01, 0.03, 0.05)]
    ests = price_exotic_batch(amzn_hkde, ctx, specs, cfg)
    assert ests[0].price >= ests[1].price >= ests[2].price


def test_cliquet_exactly_linear_in_strike(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(1.0, 12)
    cfg = SimConfig(n_paths=50_000, seed=6, steps_per_interval=2)
    specs = [ExoticSpec(kind="cliquet", schedule=sched, strike=k, cap=0.06, floor=0.01,
                        global_cap=1.8, global_floor=0.5) for k in (0.5, 1.0, 1.5)]
    e = price_exotic_batch(amzn_hkde, ctx, specs, cfg)
    assert e[1].price == pytest.approx(2.0 * e[0].price, rel=1e-12)
    assert e[2].price == pytest.approx(3.0 * e[0].price, rel=1e-12)


def test_barrier_up_at_infinity_equals_european(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(0.5, 8)
    spec = ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0, barrier_up=1e12)
    cfg = SimConfig(n_paths=200_000, seed=8, steps_per_interval=4)
    barrier = price_exotic(amzn_hkde, ctx, spec, cfg)
    euro = price_exotic(amzn_hkde, ctx, _european(0.5, 100.0),
                        SimConfig(n_paths=200_000, seed=80, steps_per_interval=32))
    combined = math.hypot(barrier.std_err, euro.std_err)
    assert abs(barrier.price - euro.price) < 3 * combined


def test_variance_contract_spot_invariance(amzn_hkde):
    sched = MonitoringSchedule.uniform(1.0, 8)
    cfg = SimConfig(n_paths=50_000, seed=13, steps_per_interval=2)
    spec = ExoticSpec(kind="variance_call", schedule=sched, strike=0.03)
    a = price_exotic(amzn_hkde, MarketContext(spot=100.0, rate=0.05), spec, cfg)
    b = price_exotic(amzn_hkde, MarketContext(spot=250.0, rate=0.05), spec, cfg)
    assert a.price == b.price


def test_barrier_level_validation(ctx, amzn_hkde):
    sched = MonitoringSchedule.uniform(1.0, 4)
    cfg = SimConfig(n_paths=1_000, seed=1, steps_per_interval=1)
    with pytest.raises(ValueError, match="up barrier"):
        price_exotic(amzn_hkde, ctx,
                     ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0,
                                barrier_up=90.0), cfg)
    with pytest.raises(ValueError, match="down barrier"):
        price_exotic(amzn_hkde, ctx,
                     ExoticSpec(kind="barrier_do", schedule=sched, strike=100.0,
                                barrier_down=110.0), cfg)


def test_batch_needs_contracts_on_one_schedule(ctx, amzn_hkde):
    config = SimConfig(n_paths=100)
    with pytest.raises(ValueError, match="^no contracts given$"):
        price_exotic_batch(amzn_hkde, ctx, [], config)
    specs = [_european(1.0, 100.0), _european(0.5, 100.0)]
    with pytest.raises(ValueError, match="^all contracts in a batch must share the schedule$"):
        price_exotic_batch(amzn_hkde, ctx, specs, config)


def test_substeps_default_to_one_per_interval_only_for_levy_increments():
    schedule = MonitoringSchedule.uniform(1.0, 4)
    assert _substeps(schedule, SimConfig(), PARAM_ROWS["bgm"]["NFLX"]) == [1] * 4
    # a discretized model takes steps of at most 1/250: ceil(0.25 * 250)
    assert _substeps(schedule, SimConfig(), PARAM_ROWS["heston"]["SPOT"]) == [63] * 4
    for model in (PARAM_ROWS["bgm"]["NFLX"], PARAM_ROWS["heston"]["SPOT"]):
        assert _substeps(schedule, SimConfig(steps_per_interval=3), model) == [3] * 4


def test_ci_field(ctx, amzn_hkde):
    est = price_exotic(amzn_hkde, ctx, _european(0.25, 100.0),
                       SimConfig(n_paths=10_000, seed=2, steps_per_interval=5))
    assert est.ci95_half_width == pytest.approx(1.96 * est.std_err)
    assert est.n_paths == 10_000


@pytest.mark.parametrize("field, bad", [
    ("steps_per_interval", 2.9), ("steps_per_interval", True), ("steps_per_interval", "3"),
    ("steps_per_interval", 0), ("steps_per_interval", (3, 1)),
    ("n_paths", 2.5), ("n_paths", math.nan), ("n_paths", 1e6)])
def test_sim_config_rejects_non_integer_counts_by_name(field, bad):
    # int() used to run 2.9 as 2 substeps, True as 1 and "3" as 3
    least = 2 if field == "n_paths" else 1
    with pytest.raises(ValueError) as info:
        SimConfig(**{field: bad})
    assert str(info.value) == f"{field} must be an integer >= {least}; got {bad!r}"


@pytest.mark.parametrize("field, bad, kind", [
    ("seed", 2.5, "an integer"), ("seed", "3", "an integer"), ("seed", True, "an integer"),
    ("seed", None, "an integer"), ("antithetic", "no", "a bool"), ("antithetic", 0, "a bool"),
    ("antithetic", None, "a bool")])
def test_sim_config_rejects_bad_seed_or_antithetic_by_name(field, bad, kind):
    # 2.5 and "3" used to fail inside the chunk stream, True to run as seed 1,
    # and "no" to switch antithetic sampling on
    with pytest.raises(ValueError) as info:
        SimConfig(**{field: bad})
    assert str(info.value) == f"{field} must be {kind}; got {bad!r}"


def test_sim_config_needs_two_antithetic_pairs(ctx, amzn_hkde):
    # two paths make one pair average, which has no standard error
    with pytest.raises(ValueError) as info:
        SimConfig(n_paths=2)
    assert str(info.value) == "n_paths must be >= 3 with antithetic sampling; got 2"
    spec = _european(0.25, 100.0)
    est = price_exotic(amzn_hkde, ctx, spec, SimConfig(n_paths=3, seed=1, steps_per_interval=1))
    assert est.n_paths == 4 and est.std_err > 0      # rounded up to two pairs
    est = price_exotic(amzn_hkde, ctx, spec,
                       SimConfig(n_paths=2, seed=1, steps_per_interval=1, antithetic=False))
    assert est.n_paths == 2 and math.isfinite(est.std_err)


def test_sim_config_numpy_seed_and_flag_price_as_python_ones(ctx, amzn_hkde):
    spec = _european(0.25, 100.0)
    a, b = (price_exotic(amzn_hkde, ctx, spec,
                         SimConfig(n_paths=1_000, seed=seed, steps_per_interval=2, antithetic=anti))
            for seed, anti in ((7, True), (np.int64(7), np.True_)))
    assert (a.price, a.std_err) == (b.price, b.std_err)


def test_sim_config_accepts_numpy_integer_substeps(ctx, amzn_hkde):
    spec = _european(0.25, 100.0)
    a, b = (price_exotic(amzn_hkde, ctx, spec, SimConfig(n_paths=1_000, steps_per_interval=s))
            for s in (np.int64(7), 7))
    assert (a.price, a.std_err) == (b.price, b.std_err)


def test_cf_and_second_cumulant_vs_million_path_sample(ctx, amzn_hkde):
    # spot-checks the transform layer against raw sampled paths at T = 1
    from svjd.models import cumulants_numeric

    sched = MonitoringSchedule.uniform(1.0, 1)
    k1, k2 = cumulants_numeric(amzn_hkde, ctx, 1.0)[:2]    # of ln S_T
    xi = 2.0

    def moments(batch):
        x = batch.log_prices[:, -1]
        return np.stack([np.cos(xi * x), np.sin(xi * x), (x - k1) ** 2])

    re, im, var = mc_run(amzn_hkde, ctx, sched,
                         SimConfig(n_paths=1_000_000, seed=99, antithetic=False), moments)
    cf = complex(np.exp(amzn_hkde.exponent(ctx, xi, 1.0)))
    assert abs(re.price - cf.real) < 3 * re.std_err
    assert abs(im.price - cf.imag) < 3 * im.std_err
    assert abs(var.price - k2) < 3 * var.std_err


@pytest.mark.parametrize("name", ["AMZN", "NFLX", "SHOP", "SPOT"])
def test_bgm_variance_swap_equals_transform_value(ctx, name):
    # BGM log returns are i.i.d., so the strike-0 swap pays on average
    # M (k2 tau + (k1 tau)^2) / T, with k1 (less ln S0) and k2 the t = 1 cumulants
    from svjd.models import cumulants_numeric

    model, m = PARAM_ROWS["bgm"][name], 40
    sched = MonitoringSchedule.uniform(1.0, m)
    k1, k2 = cumulants_numeric(model, ctx, 1.0)[:2]
    k1, tau = k1 - math.log(ctx.spot), sched.maturity / m
    value = math.exp(-ctx.rate * sched.maturity) * m * (k2 * tau + (k1 * tau) ** 2) / sched.maturity
    est = price_exotic(model, ctx, ExoticSpec(kind="variance_swap", schedule=sched, strike=0.0),
                       SimConfig(n_paths=1 << 17, seed=11))
    assert abs(est.price - value) <= 3 * est.std_err


# ---------------------------------------------------------------------------
# Chunk kernel against the allocating reference form
# ---------------------------------------------------------------------------

def _reference_jump_total(rng, n, lam_dt, size_sampler):
    """Per-count loop: the j-th jumps of all paths that have one, j = 0, 1, ..."""
    total = np.zeros(n)
    if lam_dt <= 0:
        return total
    counts = rng.poisson(lam_dt, size=n)
    for j in range(int(counts.max()) if counts.size else 0):
        mask = counts > j
        total[mask] += size_sampler(int(mask.sum()))
    return total


def _reference_chunk(model, ctx, schedule, sub, n, rng, antithetic):
    """Full-truncation Euler chunk in allocating expression form."""
    half = n // 2

    def gauss():
        if antithetic:
            z = rng.standard_normal(half)
            return np.concatenate([z, -z])
        return rng.standard_normal(n)

    x = np.full(n, math.log(ctx.spot))
    xs = np.empty((n, len(schedule.dates)))
    xs[:, 0] = x
    drift = ctx.rate - ctx.div_yield + model.omega()
    heston = getattr(model, "heston", model)
    rho_c = math.sqrt(1.0 - heston.rho * heston.rho)
    v = np.full(n, heston.v0)
    vs = np.empty_like(xs)
    vs[:, 0] = heston.v0
    for m, tau in enumerate(np.diff(np.asarray(schedule.dates))):
        dt = tau / sub[m]
        drift_dt = drift * dt
        for _ in range(sub[m]):
            z_v = gauss()
            z_s = heston.rho * z_v + rho_c * gauss()
            v_plus = np.maximum(v, 0.0)
            sq_v = np.sqrt(v_plus * dt)
            x += drift_dt - 0.5 * dt * v_plus + sq_v * z_s
            v += heston.kappa * (heston.theta - v_plus) * dt + heston.sigma_v * (sq_v * z_v)
        jumps = model.jumps
        if isinstance(jumps, KouJumpParams):
            x += _reference_jump_total(
                rng, n, jumps.lam * tau, lambda k: _masked_double_exponential(rng, jumps, k))
        elif isinstance(jumps, NormalJumpParams):
            counts = rng.poisson(jumps.lam * tau, size=n)
            x += jumps.mu_j * counts + jumps.sigma_j * np.sqrt(counts) * rng.standard_normal(n)
        xs[:, m + 1] = x
        vs[:, m + 1] = np.maximum(v, 0.0)
    return xs, vs


@pytest.mark.parametrize("kind,name", [("heston", "SHOP"), ("hkde", "NFLX"), ("bates", "AMZN")])
@pytest.mark.parametrize("antithetic,n", [(True, 1_000), (False, 1_001)])
@pytest.mark.parametrize("block", [96, None])    # 96: ten cache blocks and a short tail
def test_chunk_kernel_equals_allocating_reference(ctx, monkeypatch, kind, name, antithetic, n,
                                                  block):
    if block is not None:
        monkeypatch.setattr(montecarlo, "_BLOCK", block)
    monkeypatch.setattr(montecarlo, "PathBatch", EveryDateBatch)
    model = PARAM_ROWS[kind][name]
    sched = MonitoringSchedule.uniform(1.0, 4)
    sub = [3, 1, 5, 2]
    batch = _simulate_chunk(model, ctx, sched, sub, n, _chunk_rng(5, 0), antithetic)
    xs, _ = _reference_chunk(model, ctx, sched, sub, n, _chunk_rng(5, 0), antithetic)
    # every substep's positive-part variance feeds x, so equal log prices pin the
    # kernel's variance state to the reference's too
    assert np.array_equal(batch.paths, xs)
    _assert_folds_dates(model, ctx, sched, sub, n, antithetic, xs)


def _assert_folds_dates(model, ctx, schedule, sub, n, antithetic, xs):
    """A chunk that keeps statistics folds the very dates xs holds, in date order."""
    reference = _date_ordered_stats(xs)
    folded = _simulate_chunk(model, ctx, schedule, sub, n, _chunk_rng(5, 0), antithetic, reference)
    assert folded.log_prices.shape == (n, 1)
    assert np.array_equal(folded.log_prices[:, 0], xs[:, -1])
    assert folded.stats.keys() == reference.keys()
    for key, value in reference.items():
        assert np.array_equal(folded.stats[key], value), key


def test_cir_long_run_mean(ctx):
    params = PARAM_ROWS["heston"]["AMZN"]   # kappa = 14.8
    sched = MonitoringSchedule.uniform(10.0, 20)
    # the kernel keeps no variance path; the reference it equals above does
    _, vs = _reference_chunk(params, ctx, sched, [60] * 20, 20_000, _chunk_rng(21, 0), False)
    dates = np.asarray(sched.dates)
    late = vs[:, dates >= 5.0]
    per_path = late.mean(axis=1)
    se = per_path.std(ddof=1) / math.sqrt(per_path.size)
    assert abs(per_path.mean() - params.theta) < 3 * se
    assert vs.min() >= 0.0


@pytest.mark.parametrize("antithetic,n", [(True, 1_000), (False, 1_001)])
def test_bgm_chunk_equals_written_out_step(ctx, monkeypatch, antithetic, n):
    monkeypatch.setattr(montecarlo, "PathBatch", EveryDateBatch)
    model = PARAM_ROWS["bgm"]["NFLX"]
    sched = MonitoringSchedule.uniform(1.0, 3)
    sub = [2, 1, 3]
    batch = _simulate_chunk(model, ctx, sched, sub, n, _chunk_rng(5, 0), antithetic)
    rng = _chunk_rng(5, 0)
    x = np.full(n, math.log(ctx.spot))
    xs = [x]
    drift = ctx.rate - ctx.div_yield + model.omega()
    for m, tau in enumerate(np.diff(np.asarray(sched.dates))):
        dt = tau / sub[m]
        for _ in range(sub[m]):
            z = rng.standard_normal(n // 2 if antithetic else n)
            z = np.concatenate([z, -z]) if antithetic else z
            x = (x + drift * dt + model.sigma * math.sqrt(dt) * z
                 + rng.gamma(model.alpha_p * dt, 1.0 / model.lam_p, size=n)
                 - rng.gamma(model.alpha_m * dt, 1.0 / model.lam_m, size=n))
        assert np.array_equal(batch.paths[:, m + 1], x)
        xs.append(x)
    _assert_folds_dates(model, ctx, sched, sub, n, antithetic, np.stack(xs, axis=1))


@pytest.mark.parametrize("tau", [0.0, 1e-11, 0.1])
def test_jump_total_equals_per_count_loop(tau):
    jumps = PARAM_ROWS["hkde"]["NFLX"].jumps      # lam ~ 104
    rng = _chunk_rng(3, 1)
    total, after = jumps.interval_total(rng, 5_000, tau), rng.standard_normal(4)
    rng = _chunk_rng(3, 1)
    ref_total = _reference_jump_total(rng, 5_000, jumps.lam * tau,
                                      lambda k: _masked_double_exponential(rng, jumps, k))
    assert np.array_equal(total, ref_total)
    assert np.array_equal(after, rng.standard_normal(4))   # the generator is left in the same state
    if jumps.lam * tau < 1e-6:
        assert not total.any()                     # no path jumps
    else:
        assert (total != 0.0).mean() > 0.99


@pytest.mark.parametrize("jumps", [PARAM_ROWS["hkde"]["NFLX"].jumps,
                                   NormalJumpParams(50.0, -0.1, 0.2)], ids=["kou", "normal"])
@pytest.mark.parametrize("block", [96, None])    # 96: 53 path blocks and a short tail
def test_jump_total_equals_per_count_loop_across_blocks(monkeypatch, jumps, block):
    # the legs draw block by block; the reference draws a rank (Kou) or every
    # normal (Bates) at once, so equal totals and end states pin the stream order
    if block is not None:
        monkeypatch.setattr(models, "_BLOCK", block)
    n, tau = (5_000 if block is not None else 2 * models._BLOCK + 1_001), 0.1
    rng = _chunk_rng(3, 1)
    total, after = jumps.interval_total(rng, n, tau), rng.standard_normal(4)
    rng = _chunk_rng(3, 1)
    if isinstance(jumps, KouJumpParams):
        ref_total = _reference_jump_total(rng, n, jumps.lam * tau,
                                          lambda k: _masked_double_exponential(rng, jumps, k))
    else:
        counts = rng.poisson(jumps.lam * tau, size=n)
        ref_total = jumps.mu_j * counts + jumps.sigma_j * np.sqrt(counts) * rng.standard_normal(n)
    assert np.array_equal(total, ref_total)
    assert np.array_equal(after, rng.standard_normal(4))
    assert (total != 0.0).mean() > 0.99


def test_payoffs_do_not_depend_on_evaluation_order(ctx, amzn_hkde, monkeypatch):
    sched = MonitoringSchedule.uniform(1.0, 12)
    specs = [ExoticSpec(kind="variance_swap", schedule=sched, strike=0.02),
             ExoticSpec(kind="variance_call", schedule=sched, strike=0.03),
             ExoticSpec(kind="cliquet", schedule=sched, strike=1.0, cap=0.06, floor=0.01,
                        global_cap=1.8, global_floor=0.5),
             ExoticSpec(kind="asian_call", schedule=sched, strike=100.0),
             ExoticSpec(kind="barrier_uo", schedule=sched, strike=100.0, barrier_up=130.0)]

    def fresh(reads):   # one antithetic chunk of 2,000 paths, 2 substeps per interval
        return _simulate_chunk(amzn_hkde, ctx, sched, [2] * 12, 2_000, _chunk_rng(4, 0), True,
                               reads)

    forward_batch, reverse_batch = fresh(_reads(specs)), fresh(_reads(specs[::-1]))
    recorded = {key: value.copy() for key, value in forward_batch.stats.items()}
    assert recorded.keys() == reverse_batch.stats.keys()
    forward = [evaluate_payoff(s, forward_batch) for s in specs]
    reverse = [evaluate_payoff(s, reverse_batch) for s in reversed(specs)][::-1]
    for a, b in zip(forward, reverse):
        assert np.array_equal(a, b)
    # the batch keeps what the five contracts read and nothing else, folded in
    # date order from the same paths, and reading it changes none of it
    monkeypatch.setattr(montecarlo, "PathBatch", EveryDateBatch)
    whole = _date_ordered_stats(fresh(()).paths)
    del whole["min"]
    assert recorded.keys() == whole.keys()
    for key, value in whole.items():
        assert np.array_equal(recorded[key], value), key
        for batch in (forward_batch, reverse_batch):
            assert np.array_equal(batch.stats[key], value), key


@pytest.mark.parametrize("raw", ["two", "0", "-3"])
def test_thread_count_rejects_non_positive_integers(monkeypatch, raw):
    monkeypatch.setenv("SVJD_THREADS", raw)
    with pytest.raises(ValueError) as info:
        _thread_count()
    assert str(info.value) == f"SVJD_THREADS must be a positive integer; got '{raw}'"


def test_thread_count_defaults_to_one(monkeypatch):
    monkeypatch.delenv("SVJD_THREADS", raising=False)
    assert _thread_count() == 1
    monkeypatch.setenv("SVJD_THREADS", "3")
    assert _thread_count() == 3
