"""The three benchmark workloads.

Each workload builds its inputs from a seed in its constructor (the set-up
that ``setup_s`` times), then ``run`` repeats its work for a time budget and
checks every output. The package is always called through module attributes
(``cal.calibrate``, ``mc.price_exotic_batch``, ``cli.main``) so the tracer's
wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

import inputs
import svjd.calibration as cal
import svjd.cli as cli
import svjd.models as models
import svjd.montecarlo as mc

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
PRICE_RTOL = 1e-12          # ROADMAP: projection prices must match to 1e-12 relative


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def summary(samples) -> dict:
    """Median and the highest percentile that has at least ten samples beyond it."""
    xs = np.asarray(samples, dtype=float)
    out = {"n": int(xs.size), "p50": float(np.median(xs))}
    for p in TAIL_PERCENTILES:
        if xs.size * (1.0 - p / 100.0) >= 10.0:
            out["tail_pct"] = p
            out["tail"] = float(np.percentile(xs, p))
            break
    return out


@dataclass
class Outcome:
    # each sample is a list of (start, end, value) parts, timed separately
    # so that each can be scaled to the reference speed; the sample is their sum
    job_s: list = field(default_factory=list)       # seed-stable job wall times
    unit_ns: list = field(default_factory=list)     # cost per unit of work
    named: dict = field(default_factory=dict)       # name -> (value, unit)
    counts: dict = field(default_factory=dict)      # deterministic work counts
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)      # (name, ok, detail)
    failures: list = field(default_factory=list)    # dicts with a reason
    layer: dict = field(default_factory=dict)       # per-layer values the workload knows
    path_steps: dict = field(default_factory=dict)  # Monte Carlo path-steps per model
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def timing(self, name: str, samples, unit: str, scale: float = 1.0) -> None:
        s = summary(np.asarray(samples) * scale)
        self.named[name + "_p50"] = (s["p50"], unit)
        if "tail" in s:
            self.named[f"{name}_p{s['tail_pct']:g}"] = (s["tail"], unit)
        self.named[name + "_n"] = (s["n"], "count")


def _rel_close(a, b, rtol=PRICE_RTOL) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


class Workload:
    """Inputs are built from the seed in the constructor; run() does the work."""

    @staticmethod
    def threads(traced: bool) -> int:
        """Threads the program computes on."""
        return 1

    def thread_invariance(self, out: Outcome) -> None:
        """Extra checks of a traced run; none by default."""


# ---------------------------------------------------------------------------
# calib-hkde
# ---------------------------------------------------------------------------

class CalibHkde(Workload):
    """Criterion-08 round trip on the SPOT-HKDE synthetic 5x15 surface."""

    name = "calib-hkde"
    default_seed = 2024
    heston_fits = 5
    residuals_per_sample = 5            # reference-kernel samples inside the fits
    min_objective_share = 1.0 / 3.0     # of the time budget, whatever the fits take
    # Perturbation seeds whose HKDE fit was measured at 378-1740 residual
    # evaluations (2024: 803, 7: 1740, the rest 378-1055). Other workload
    # seeds map onto this list: seed 5, for one, takes 4463 evaluations
    # (103 s on a 2-core host), close to the 180 s limit of one traced run,
    # and seeds 8-10 (1663-1754) would add a third to the benchmark's time.
    start_seeds = (2024, 7, 0, 1, 2, 3, 4, 6)

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.start_seed = seed if seed in self.start_seeds \
            else self.start_seeds[seed % len(self.start_seeds)]
        self.truth = models.model_from_dict(inputs.param_doc("hkde", "SPOT"))
        lo, hi, n = inputs.CALIB_MONEYNESS_RANGE
        self.surface = cal.synthetic_surface(self.truth, inputs.SPOT, inputs.RATE,
                                             inputs.DIV_YIELD, inputs.CALIB_MATURITIES,
                                             np.linspace(lo, hi, n))
        truth_x = [self.truth.heston.v0, self.truth.heston.theta, self.truth.heston.kappa,
                   self.truth.heston.sigma_v, self.truth.heston.rho, self.truth.jumps.lam,
                   self.truth.jumps.p, self.truth.jumps.eta1, self.truth.jumps.eta2]
        factors = np.random.default_rng(self.start_seed).uniform(0.5, 2.0, size=9)
        lo_b, hi_b = cal.default_bounds("hkde")
        xp = np.clip(np.array(truth_x) * factors, lo_b, hi_b)
        self.start = models.HKDEParams(models.HestonParams(*xp[:5]),
                                       models.KouJumpParams(*xp[5:]))

    def surface_prices(self) -> list:
        return [q.price for sl in self.surface.slices for q in sl.quotes]

    def run(self, seconds: float, tracer, speed) -> Outcome:
        out = Outcome()
        deadline = time.perf_counter() + seconds
        n_quotes = self.surface.n_quotes
        out.config = {"seed": self.seed, "start_seed": self.start_seed,
                      "start": models.model_to_dict(self.start)["params"],
                      "quotes": n_quotes, "maturities": list(inputs.CALIB_MATURITIES)}
        out.check("surface prices match the seed commit (1e-12 rel)",
                  _rel_close(self.surface_prices(), load_reference()["calib_surface_prices"]))

        def fit(kind, init, tag):
            """One calibration, timed in parts split at each residual
            evaluation; the reference kernel runs before every fifth one."""
            before = dict(tracer.calls)
            out.attempted += 1
            marks = []

            def at_residuals():
                if len(marks) % self.residuals_per_sample == 0:
                    speed.sample()
                marks.append(time.perf_counter())

            speed.sample(2)
            tracer.hooks["calibration.residuals"] = at_residuals
            t0 = time.perf_counter()
            with tracer.span("bench.fit", tag):
                result = cal.calibrate(kind, self.surface, init=init)
            t1 = time.perf_counter()
            del tracer.hooks["calibration.residuals"]
            speed.sample(2)
            edges = [t0] + marks + [t1]
            parts = [(a, b, b - a - speed.busy(a, b)) for a, b in zip(edges, edges[1:])]
            work = {k: tracer.calls[k] - before.get(k, 0)
                    for k in ("calibration.residuals", "models.char_exponent")}
            return result, parts, work

        tracer.run_id += 1
        hkde, hkde_parts, hkde_work = fit("hkde", self.start, "hkde")
        fit_hkde_s = sum(dt for _, _, dt in hkde_parts)
        heston_fits = []
        for _ in range(self.heston_fits):
            tracer.run_id += 1
            heston_fits.append(fit("heston", None, "heston"))
        heston, _, heston_work = heston_fits[0]

        objective_s, values = [], set()
        deadline = max(deadline, time.perf_counter() + self.min_objective_share * seconds)
        while time.perf_counter() < deadline:
            tracer.run_id += 1
            out.attempted += 1
            if len(objective_s) % 4 == 0:
                speed.sample()
            t0 = time.perf_counter()
            with tracer.span("bench.objective", "truth"):
                value = cal.objective(self.truth, self.surface)
            t1 = time.perf_counter()
            objective_s.append((t0, t1, t1 - t0))
            values.add(value)
        speed.sample()

        floor = 1e-18 * max(1.0, hkde.trace[0])
        out.check("HKDE fit rmse < 1e-3", hkde.rmse < 1e-3, f"{hkde.rmse:.3e}")
        out.check("HKDE fit MAPE < 0.5%", hkde.mape_pct < 0.5, f"{hkde.mape_pct:.3e}")
        out.check("Heston rmse worse than HKDE", heston.rmse > hkde.rmse,
                  f"{heston.rmse:.3e} vs {hkde.rmse:.3e}")
        out.check("HKDE trace non-increasing",
                  all(b <= a * (1 + 1e-12) + floor for a, b in zip(hkde.trace, hkde.trace[1:])))
        out.check("Heston fits repeat exactly",
                  len({(tuple(models.model_to_dict(r.params)["params"].values()), r.objective)
                       for r, _, _ in heston_fits}) == 1)
        out.check("objective at the true parameters repeats and is ~0",
                  len(values) == 1 and max(values) <= 1e-18, f"{sorted(values)[:3]}")

        out.job_s = [parts for _, parts, _ in heston_fits]
        out.unit_ns = [[(t0, t1, 1e9 * dt / n_quotes)] for t0, t1, dt in objective_s]
        heston_s = [sum(dt for _, _, dt in parts) for parts in out.job_s]
        out.named["fit_hkde_s"] = (fit_hkde_s, "s")
        out.named["fit_heston_s"] = (float(np.median(heston_s)), "s")
        out.named["wall_s"] = (fit_hkde_s + heston_s[0], "s")
        out.timing("objective_ms", [dt for _, _, dt in objective_s], "ms", 1e3)
        out.named["hkde_rmse"] = (hkde.rmse, "1")
        out.named["hkde_mape_pct"] = (hkde.mape_pct, "%")
        out.named["heston_rmse"] = (heston.rmse, "1")
        out.counts = {
            "hkde.residual_calls": hkde_work["calibration.residuals"],
            "hkde.char_exponent_calls": hkde_work["models.char_exponent"],
            "heston.residual_calls": heston_work["calibration.residuals"],
            "heston.char_exponent_calls": heston_work["models.char_exponent"],
            "objective_calls": len(objective_s),
            "strikes_per_objective": n_quotes,
        }
        return out


# ---------------------------------------------------------------------------
# mc-exotics
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _threads(n: int):
    """Set SVJD_THREADS, which the Monte Carlo engine reads on every run."""
    saved = os.environ.get("SVJD_THREADS")
    os.environ["SVJD_THREADS"] = str(n)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["SVJD_THREADS"]
        else:
            os.environ["SVJD_THREADS"] = saved


class McExotics(Workload):
    """The eight criterion-02 contracts at M = 40 on each model's AMZN row."""

    name = "mc-exotics"
    default_seed = 202
    n_paths = 1 << 19             # two 2^18-path chunks per model
    heston_substeps = 7
    probe_seed, probe_paths = 202, 8192

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.ctx = models.MarketContext(spot=inputs.SPOT, rate=inputs.RATE,
                                        div_yield=inputs.DIV_YIELD)
        schedule = mc.MonitoringSchedule.uniform(1.0, inputs.M40_INTERVALS)
        self.specs = [mc.ExoticSpec(schedule=schedule,
                                    **(dict(c, **inputs.CLIQUET_TERMS)
                                       if c["kind"] == "cliquet" else c))
                      for c in inputs.M40_CONTRACTS]
        self.rows = {m: models.model_from_dict(inputs.param_doc(m, "AMZN"))
                     for m in inputs.MODELS}

    def _config(self, model: str, seed: int, n_paths: int):
        sub = None if model == "bgm" else self.heston_substeps
        return mc.SimConfig(n_paths=n_paths, seed=seed, steps_per_interval=sub)

    def substeps(self, model: str) -> int:
        """Substeps per path over all monitoring intervals."""
        return inputs.M40_INTERVALS * (1 if model == "bgm" else self.heston_substeps)

    def price_all(self, seed: int, n_paths: int, tracer=None, times=None) -> dict:
        out = {}
        for model in inputs.MODELS:
            t0 = time.perf_counter()
            with tracer.span("bench.batch", model) if tracer else contextlib.nullcontext():
                ests = mc.price_exotic_batch(self.rows[model], self.ctx, self.specs,
                                             self._config(model, seed, n_paths))
            if times is not None:
                times[model] = time.perf_counter() - t0
            out[model] = ests
        return out

    @staticmethod
    def digest(results: dict) -> str:
        h = hashlib.sha256()
        for model in inputs.MODELS:
            for est in results[model]:
                h.update(np.array([est.price, est.std_err]).tobytes())
        return h.hexdigest()

    @staticmethod
    def threads(traced: bool) -> int:
        # the traced run is the plain single-thread baseline; spans nest
        # cleanly only when every chunk runs on the calling thread
        return 1 if traced else 2

    def run(self, seconds: float, tracer, speed) -> Outcome:
        threads = self.threads(tracer.record_spans)
        with _threads(threads):
            return self._run(seconds, tracer, threads)

    def _run(self, seconds: float, tracer, threads: int) -> Outcome:
        out = Outcome()
        steps = {m: self.n_paths * self.substeps(m) for m in inputs.MODELS}
        out.config = {"seed": self.seed, "SVJD_THREADS": threads, "n_paths": self.n_paths,
                      "chunk_paths": 1 << 18, "monitoring_intervals": inputs.M40_INTERVALS,
                      "substeps_per_interval": {m: self.substeps(m) // inputs.M40_INTERVALS
                                                for m in inputs.MODELS},
                      "path_steps_per_round": sum(steps.values())}
        deadline = time.perf_counter() + seconds
        rounds, walls, model_times = [], [], {m: [] for m in inputs.MODELS}
        while True:
            tracer.run_id += 1
            times = {}
            t0 = time.perf_counter()
            rounds.append(self.price_all(self.seed, self.n_paths, tracer, times))
            walls.append((t0, time.perf_counter(), sum(times.values())))
            for m, t in times.items():
                model_times[m].append(t)
            out.attempted += len(self.specs) * len(inputs.MODELS)
            if time.perf_counter() + walls[-1][2] > deadline:
                break

        self._check_estimates(out, rounds[0])
        if len(rounds) > 1:
            out.check("rounds repeat bit for bit",
                      len({self.digest(r) for r in rounds}) == 1)
        self.first_round = rounds[0]

        total_steps = sum(steps.values())
        out.job_s = [[w] for w in walls]
        out.unit_ns = [[(t0, t1, 1e9 * w / total_steps)] for t0, t1, w in walls]
        out.named["wall_s"] = (float(np.median([w for _, _, w in walls])), "s")
        out.named["mc_ns_per_path_step"] = (
            float(np.median([1e9 * w / total_steps for _, _, w in walls])), "ns")
        for m in inputs.MODELS:
            out.named[f"{m}_batch_s"] = (float(np.median(model_times[m])), "s")
        out.counts = {"rounds": len(rounds), "estimates": out.attempted,
                      "chunks_per_model": math.ceil(self.n_paths / (1 << 18)),
                      "path_steps_per_round": total_steps}
        out.path_steps = {m: n * len(rounds) for m, n in steps.items()}
        return out

    def _check_estimates(self, out: Outcome, results: dict) -> None:
        for model, ests in results.items():
            bad = [i for i, e in enumerate(ests)
                   if not (math.isfinite(e.price) and math.isfinite(e.std_err))]
            out.failed += len(bad)
            for i in bad:
                out.failures.append({"model": model, "contract": i, "reason": "non-finite estimate"})
            out.check(f"{model}: estimates finite", not bad)
            k05, k10, k15 = (ests[i].price for i in (5, 6, 7))
            out.check(f"{model}: cliquet notional linearity exact (criterion 03)",
                      abs(k10 - 2.0 * k05) <= 1e-12 * max(k10, 1.0)
                      and abs(k15 - 3.0 * k05) <= 1e-12 * max(k15, 1.0),
                      f"{k05!r} {k10!r} {k15!r}")
        # 4 standard errors rather than a 95% interval: the run's Monte Carlo
        # seed is the workload seed, and a 95% band would reject about one
        # in twenty cells by chance alone
        for i, ref in inputs.M40_PUBLISHED.items():
            est = results["hkde"][i]
            gap = abs(est.price - ref)
            out.check(f"hkde contract {i}: within 4 SE + rounding of published {ref}",
                      gap <= 4.0 * est.std_err + inputs.M40_ROUNDING,
                      f"{est.price:.5f} se {est.std_err:.5f}")

    def thread_invariance(self, out: Outcome) -> None:
        """Re-price the first round at SVJD_THREADS=2 and probe the fixed-seed
        digest of the seed commit."""
        with _threads(2):
            two = self.price_all(self.seed, self.n_paths)
        mismatch = sum(
            int(a.price != b.price) + int(a.std_err != b.std_err)
            for m in inputs.MODELS for a, b in zip(self.first_round[m], two[m]))
        out.check("1-thread and 2-thread estimates identical", mismatch == 0,
                  f"{mismatch} values differ")
        probe = self.digest(self.price_all(self.probe_seed, self.probe_paths))
        match = probe == load_reference()["mc_probe_digest"]
        # reported, not checked: a change may alter seeded output if it says why
        out.named["seed_digest_match"] = (int(match), "count")
        out.layer["montecarlo.thread_mismatch"] = mismatch
        out.layer["montecarlo.seed_digest_match"] = int(match)


# ---------------------------------------------------------------------------
# cli-smile
# ---------------------------------------------------------------------------

class CliSmile(Workload):
    """svjd.cli.main in process: one synth and three bumped smiles per calibrated row."""

    name = "cli-smile"
    default_seed = 1
    min_passes = 3

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.dir = os.path.join(out_dir, "cli")
        os.makedirs(self.dir, exist_ok=True)
        rng = np.random.default_rng(seed)
        self.commands = []     # (row key, command, maturity, argv, out path)
        for model in inputs.MODELS:
            for name in inputs.NAMES:
                key = (model, name)
                params = os.path.join(self.dir, f"{model}_{name}.json")
                with open(params, "w") as fh:
                    json.dump(models.model_to_dict(
                        models.model_from_dict(inputs.param_doc(model, name))), fh)
                path = os.path.join(self.dir, f"{model}_{name}_synth.csv")
                self.commands.append((key, "synth", None, [
                    "synth", "--params", params, "--grid", inputs.CLI_SYNTH_GRID,
                    "--out", path], path))
                for t in inputs.CLI_SMILE_MATURITIES:
                    bump = str(rng.choice(inputs.BUMP_FIELDS[model]))
                    path = os.path.join(self.dir, f"{model}_{name}_smile_{t:g}.csv")
                    self.commands.append((key, "smile", t, [
                        "smile", "--params", params, "--maturity", f"{t:g}",
                        "--strikes", inputs.CLI_SMILE_STRIKES, "--bump", f"{bump}=+10%",
                        "--out", path], path))

    def run(self, seconds: float, tracer, speed) -> Outcome:
        out = Outcome()
        out.config = {"seed": self.seed, "commands_per_pass": len(self.commands),
                      "bumps": {f"{k[0]}/{k[1]}/T={t:g}": argv[argv.index("--bump") + 1]
                                for k, c, t, argv, _ in self.commands if c == "smile"}}
        reference = load_reference()["cli_synth_prices"]
        deadline = time.perf_counter() + seconds
        passes, quotes_per_pass, bytes_per_pass = [], None, None
        unexpected = set()
        while len(passes) < self.min_passes or time.perf_counter() < deadline:
            tracer.run_id += 1
            commands, quotes, nbytes = [], 0, 0
            for i, (key, command, t, argv, path) in enumerate(self.commands):
                if i % 4 == 0:
                    speed.sample()
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
                stdout, stderr = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with tracer.span("bench.command", command), \
                        contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(argv)
                t1 = time.perf_counter()
                commands.append((t0, t1, t1 - t0))
                out.attempted += 1
                if code != 0:
                    out.failed += 1
                    known = ((*key, command, t) in inputs.KNOWN_CLI_FAILURES
                             and "outside no-arbitrage bounds" in stderr.getvalue())
                    if not known:
                        unexpected.add(f"{'/'.join(key)} {command} T={t}: exit {code}")
                    if not passes:
                        out.failures.append({"row": "/".join(key), "command": command,
                                             "maturity": t, "known_defect": known,
                                             "exit": code, "reason": stderr.getvalue().strip()})
                    continue
                n, problem = self._check_output(command, path, reference.get("/".join(key)))
                if problem:
                    unexpected.add(f"{'/'.join(key)} {command} T={t}: {problem}")
                    if not passes:
                        out.failures.append({"row": "/".join(key), "command": command,
                                             "maturity": t, "reason": problem})
                quotes += n
                nbytes += os.path.getsize(path)
            speed.sample()
            passes.append(commands)
            if quotes_per_pass is None:
                quotes_per_pass, bytes_per_pass = quotes, nbytes
            elif (quotes, nbytes) != (quotes_per_pass, bytes_per_pass):
                unexpected.add("pass output size changed")

        out.check("every failure is a recorded known defect and every output passes",
                  not unexpected, "; ".join(sorted(unexpected)))
        per_quote = 1e9 / max(quotes_per_pass, 1)
        out.job_s = passes
        out.unit_ns = [[(t0, t1, dt * per_quote) for t0, t1, dt in p] for p in passes]
        wall = float(np.median([sum(dt for _, _, dt in p) for p in passes]))
        out.named["wall_s"] = (wall, "s")
        out.named["quotes_per_s"] = (quotes_per_pass / wall, "1/s")
        out.timing("command_ms", [dt for p in passes for _, _, dt in p], "ms", 1e3)
        out.counts = {"passes": len(passes), "commands": out.attempted,
                      "quotes_per_pass": quotes_per_pass, "bytes_per_pass": bytes_per_pass,
                      "failed_commands_per_pass": out.failed // len(passes)}
        out.layer["cli.bytes_written"] = bytes_per_pass * len(passes)
        return out

    @staticmethod
    def _check_output(command: str, path: str, reference) -> tuple[int, str]:
        """Quotes in one output file and a description of any problem with it."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        if command == "synth":
            prices = [float(r[header.index("mid_price")]) for r in body]
            ivs = [float(r[header.index("iv")]) for r in body]
            if reference is not None and not _rel_close(prices, reference):
                return len(body), "synth prices differ from the seed commit (1e-12 rel)"
            if not all(0.0 < v < 5.0 for v in ivs):
                return len(body), "implied volatility outside (0, 5)"
            return len(body), ""
        ivs = np.array([[float(v) for v in r[1:]] for r in body])
        if header != ["log_moneyness", "iv", "iv_bumped"] or len(body) != 201:
            return ivs.size, f"unexpected smile shape {header} x {len(body)}"
        if not np.all((ivs > 0.0) & (ivs <= 5.0)):
            return ivs.size, "implied volatility outside (0, 5]"
        if np.array_equal(ivs[:, 0], ivs[:, 1]):
            return ivs.size, "bump left the smile unchanged"
        return ivs.size, ""


WORKLOADS = {w.name: w for w in (CalibHkde, McExotics, CliSmile)}
