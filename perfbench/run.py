"""Benchmark entry point for svjd: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload calib-hkde --seed 2024 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs the same
workload with a span around every wrapped entry point and prints the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit, the deterministic work counts, the
output checks and the failures. The full record, and the spans of a traced
run, are written to ``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
# entry points whose calls an untraced run counts: the work counts of a fit
COUNTED_UNTRACED = ("calibration.residuals", "models.char_exponent")
SETUP_TIMEOUT_S = 120


def _declared_metrics() -> tuple[dict, dict]:
    """Metric name -> unit for the end-to-end and per-layer lists of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _import_package():
    """Import svjd from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import svjd
    if os.path.dirname(os.path.dirname(os.path.abspath(svjd.__file__))) != SRC:
        raise ImportError(f"svjd imported from {svjd.__file__}, not from {SRC}")


def _setup_seconds(workload: str, seed: int, speed) -> list[tuple]:
    """Time from starting a fresh interpreter until it has imported svjd and
    built the inputs, as (start, end, seconds) samples with reference-kernel
    samples taken between them.

    The child reports the CLOCK_MONOTONIC reading (system-wide on Linux) at
    which it was ready, since waiting on a child with a timeout polls in
    steps of up to 50 ms."""
    times = []
    speed.sample(4)
    for _ in range(SETUP_REPEATS):
        start, t0 = time.perf_counter(), time.monotonic()
        child = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                                "--seed", str(seed), "--setup-only"],
                               cwd=ROOT, check=True, timeout=SETUP_TIMEOUT_S,
                               stdout=subprocess.PIPE, text=True)
        times.append((start, time.perf_counter(), float(child.stdout.split()[-1]) - t0))
        speed.sample(4)
    return times


def _machine() -> dict:
    import numpy
    import scipy

    def cache(glibc_name: int):
        # os.sysconf_names lacks the cache entries; these are glibc's
        # _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and _SC_LEVEL3_CACHE_SIZE
        try:
            return os.sysconf(glibc_name)
        except (ValueError, OSError):
            return None

    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "l1d_bytes": cache(188), "l2_bytes": cache(191), "l3_bytes": cache(194), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _layer_values(tracer, outcome) -> dict:
    """Per-layer values from the spans and counters of a traced run."""
    selfs = tracer.self_times()
    traced_wall = sum(e - s for n, s, e, *_ in tracer.spans if n == "bench.run")

    def self_s(name, tag=None):
        return sum(v for (n, t), v in selfs.items() if n == name and (tag is None or t == tag))

    def calls(name):
        return tracer.calls.get(name, 0)

    values = {}
    for span in ("models.char_exponent", "models.cumulants_numeric", "proj.build_grid",
                 "proj.proj_coefficients", "proj.dual_zeta", "proj.price_strike_slice",
                 "black_scholes.implied_vol", "calibration.residuals", "calibration.calibrate",
                 "calibration.objective", "calibration.synthetic_surface",
                 "montecarlo.evaluate_payoff", "cli.main"):
        values[span + ".calls"] = calls(span)
        values[span + ".self_s"] = self_s(span)
    values["models.char_exponent.nodes"] = tracer.work["models.char_exponent.nodes"]
    nodes = values["models.char_exponent.nodes"]
    values["models.char_exponent.ns_per_node"] = \
        1e9 * values["models.char_exponent.self_s"] / nodes if nodes else 0.0
    strikes = tracer.work["proj.price_strike_slice.strikes"]
    values["proj.price_strike_slice.strikes"] = strikes
    values["proj.us_per_strike"] = \
        1e6 * values["proj.price_strike_slice.self_s"] / strikes if strikes else 0.0
    values["black_scholes.implied_vol.failures"] = \
        tracer.work["black_scholes.implied_vol.failures"]
    fit_wall = sum(e - s for n, s, e, *_ in tracer.spans if n == "calibration.calibrate")
    values["calibration.evals_per_s"] = \
        calls("calibration.residuals") / fit_wall if fit_wall else 0.0
    values["montecarlo.simulate_s"] = self_s("montecarlo.mc_run")
    for model, path_steps in outcome.path_steps.items():
        values[f"montecarlo.{model}.ns_per_path_step"] = \
            1e9 * self_s("montecarlo.mc_run", model) / path_steps
    values["montecarlo.batch_bytes"] = tracer.work["montecarlo.batch_bytes"]
    values["montecarlo.chunks"] = tracer.work["montecarlo.chunks"]
    values["bench.self_s"] = sum(v for (n, _), v in selfs.items() if n.startswith("bench."))
    total_self = sum(selfs.values())
    values["trace.spans"] = len(tracer.spans)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_pct"] = 100.0 * len(tracer.spans) * tracer.span_cost_s() / traced_wall
    values["trace.unattributed_pct"] = 100.0 * (traced_wall - total_self) / traced_wall
    values.update(outcome.layer)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    from speed import Speedometer
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        cls(seed, OUT_DIR)
        print(time.monotonic())
        return 0

    end_to_end, per_layer = _declared_metrics()
    traced = bool(args.trace)
    setup_speed = Speedometer(enabled=not traced)
    setup_times = [] if traced else _setup_seconds(args.workload, seed, setup_speed)
    workload = cls(seed, OUT_DIR)
    tracer = Tracer(spans=traced)
    # neither a one- nor a two-thread kernel tracked the two-thread Monte
    # Carlo batch (each widened its spread between runs from under 8% to
    # 20% or more), so only single-threaded work is scaled
    speed = Speedometer(enabled=not traced and workload.threads(traced) == 1)
    tracer.install(None if traced else COUNTED_UNTRACED)
    try:
        with tracer.span("bench.run"):
            outcome = workload.run(args.seconds, tracer, speed)
        tracer.recording = False
        if traced:
            workload.thread_invariance(outcome)
    finally:
        tracer.uninstall()

    if traced:
        values = _layer_values(tracer, outcome)
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer.items()}
        outcome.check("layer self times add up to the traced wall within trace.overhead_pct",
                      abs(values["trace.unattributed_pct"]) <= values["trace.overhead_pct"])
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{seed}.jsonl"))
    else:
        values = {
            "setup_s": statistics.median(setup_speed.scale(setup_times)),
            "job_s": statistics.median(sum(speed.scale(parts)) for parts in outcome.job_s),
            "unit_ns": statistics.median(sum(speed.scale(parts)) for parts in outcome.unit_ns),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end.items()}
        for name, samples, unit in (("raw_setup_s", [[t] for t in setup_times], "s"),
                                    ("raw_job_s", outcome.job_s, "s"),
                                    ("raw_unit_ns", outcome.unit_ns, "ns")):
            outcome.named[name] = (
                statistics.median(sum(v for *_, v in parts) for parts in samples), unit)
        if speed.enabled:
            outcome.named["host_speed"] = (speed.factor(), "1")

    correct = all(ok for _, ok, _ in outcome.checks) and outcome.attempted > 0
    fail_ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    record = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "SVJD_THREADS": outcome.config.get("SVJD_THREADS", os.environ.get("SVJD_THREADS")),
        "machine": _machine(), "config": outcome.config, "counts": outcome.counts,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in outcome.named.items()},
        "setup_samples_s": setup_times, "job_samples_s": outcome.job_s,
        "unit_samples_ns": outcome.unit_ns, "checks": outcome.checks, "failures": outcome.failures,
        "fail_ratio": fail_ratio, "calls": dict(tracer.calls), "work": dict(tracer.work),
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"# {args.workload} seed={seed} seconds={args.seconds:g} trace={args.trace} "
          f"SVJD_THREADS={record['SVJD_THREADS']}")
    print("# machine " + json.dumps(record["machine"]))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in outcome.named.items():
        print(f"named {name} = {value:.6g} {unit}")
    print(f"named fail_ratio = {fail_ratio:.6g} 1 ({outcome.failed}/{outcome.attempted})")
    for name, value in outcome.counts.items():
        print(f"count {name} = {value}")
    for name, ok, detail in outcome.checks:
        print(f"check {'PASS' if ok else 'FAIL'} {name}" + (f" [{detail}]" if detail else ""))
    for failure in outcome.failures:
        print("failure " + json.dumps(failure))
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
