"""Command-line interface: quote ingestion, calibration, pricing and CSV emission.

Subcommands: calibrate, price, smile, mc-compare, synth. All file outputs are
plot-ready CSV or JSON carrying the full input configuration; numeric CSV
fields use 17 significant digits so values round-trip exactly.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from svjd.black_scholes import Quote, bs_price, implied_vol, no_arbitrage_bounds
from svjd.calibration import QuoteSurface, calibrate, synthetic_surface
from svjd.models import MODEL_NAMES, MarketContext, ModelParams, model_from_dict, model_to_dict
from svjd.montecarlo import (
    EXOTIC_KINDS,
    ExoticSpec,
    MonitoringSchedule,
    SimConfig,
    price_exotic,
)
from svjd.proj import GridSpec, price_european, price_strike_slice

QUOTE_HEADER = ["maturity_yrs", "strike", "option_type", "mid_price", "iv",
                "rate", "div_yield", "spot"]

_FMT = "%.17g"
_parser = None   # the argument parser, built by the first main() call, not at import

_CONTRACT_NUMBERS = ("maturity", "spot", "rate", "div_yield", "strike", "cap", "floor",
                     "global_cap", "global_floor", "barrier_up", "barrier_down")


# ---------------------------------------------------------------------------
# Quote file I/O
# ---------------------------------------------------------------------------

def _csv_number(path: str, line_no: int, rec: list, col: int) -> float:
    try:
        value = float(rec[col])
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}:{line_no}: column '{QUOTE_HEADER[col]}' must be a finite "
                         f"number; got {rec[col]!r}")
    return value


def load_quotes(path: str) -> QuoteSurface:
    """Parse and validate a quote CSV; arbitrage-violating rows are reported
    on stderr with their line numbers and skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != QUOTE_HEADER:
            raise ValueError(f"{path}: header must be {','.join(QUOTE_HEADER)}")
        rows = []
        row_lines = []   # the file line of each row
        spot = None
        rejected = []
        for line_no, rec in enumerate(reader, start=2):
            if not rec or all(not c.strip() for c in rec):
                continue
            if len(rec) != len(QUOTE_HEADER):
                raise ValueError(f"{path}:{line_no}: expected {len(QUOTE_HEADER)} fields")
            t = _csv_number(path, line_no, rec, 0)
            strike = _csv_number(path, line_no, rec, 1)
            opt = rec[2].strip().upper()
            if opt not in ("C", "P"):
                raise ValueError(f"{path}:{line_no}: option_type must be C or P")
            price = _csv_number(path, line_no, rec, 3) if rec[3].strip() else None
            iv = _csv_number(path, line_no, rec, 4) if rec[4].strip() else None
            rate = _csv_number(path, line_no, rec, 5)
            div_yield = _csv_number(path, line_no, rec, 6)
            row_spot = _csv_number(path, line_no, rec, 7)
            if spot is None:
                spot = row_spot
            elif row_spot != spot:
                raise ValueError(f"{path}:{line_no}: spot differs from earlier rows")
            is_call = opt == "C"
            try:   # the row's market and quote first, so a bad input is named as such
                ctx = MarketContext(spot=spot, rate=rate, div_yield=div_yield)
                quote = Quote(maturity=t, strike=strike, is_call=is_call, price=price,
                              iv=iv if price is None else None)   # price takes precedence
                implied = price if iv is None else bs_price(ctx, t, strike, iv, is_call)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if price is not None and abs(implied - price) > 0.01 * max(price, 1e-12):
                print(f"warning: {path}:{line_no}: price {price} and iv {iv} disagree "
                      f"by more than 1% (iv implies {implied:.6g}); using price", file=sys.stderr)
            check_price = implied if price is None else price
            lo, hi = no_arbitrage_bounds(ctx, t, strike, is_call)
            if not lo < check_price < hi:
                rejected.append((line_no, f"price {check_price:.6g} outside bounds ({lo:.6g}, {hi:.6g})"))
                continue
            rows.append((rate, div_yield, quote))
            row_lines.append(line_no)
    for line_no, reason in rejected:
        print(f"warning: {path}:{line_no}: rejected, {reason}", file=sys.stderr)
    if not rows:
        raise ValueError(f"{path}: no usable quotes")
    try:
        surface = QuoteSurface.build(spot, rows)
    except ValueError as exc:
        row = getattr(exc, "row", None)   # set where one row is at fault
        where = path if row is None else f"{path}:{row_lines[row]}"
        raise ValueError(f"{where}: {exc}") from None
    if surface.n_dropped_itm:
        print(f"warning: {path}: dropped {surface.n_dropped_itm} in-the-money quotes; "
              f"the call/put pivot is the forward", file=sys.stderr)
    return surface


def _csv_text(header: list, template: str, rows) -> str:
    """Header and rows as csv.writer writes them; no cell needs quoting."""
    end = csv.excel.lineterminator
    return ",".join(header) + end + "".join(template % row + end for row in rows)


def write_quotes(path: str, surface: QuoteSurface) -> None:
    rows = ((sl.t, q.strike, "C" if q.is_call else "P", q.price, q.iv, sl.ctx.rate,
             sl.ctx.div_yield, surface.spot) for sl in surface.slices for q in sl.quotes)
    with open(path, "w", newline="") as fh:
        fh.write(_csv_text(QUOTE_HEADER, "%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g", rows))


# ---------------------------------------------------------------------------
# Shared loaders
# ---------------------------------------------------------------------------

def _load_params(path: str) -> ModelParams:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("parameter file must hold a JSON object")
    if "model" not in doc and isinstance(doc.get("params"), dict):
        doc = doc["params"]   # accept a calibrate output file directly
    return model_from_dict(doc)


def _load_contract(path: str) -> tuple[dict, MarketContext, ExoticSpec]:
    """Read a contract JSON, check its kind and field types, and build its market
    and contract once; a European pays at maturity, so it gets one interval
    whatever its monitoring and spacing."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("contract file must hold a JSON object")
    for key in ("kind", "maturity", "spot", "rate"):
        if key not in doc:
            raise ValueError(f"contract file needs '{key}'")
    if doc["kind"] not in EXOTIC_KINDS:
        raise ValueError(f"contract field 'kind' must be one of "
                         f"{', '.join(EXOTIC_KINDS)}; got {doc['kind']!r}")
    for key in _CONTRACT_NUMBERS:
        value = doc.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise ValueError(f"contract field '{key}' must be a finite JSON number; got {value!r}")
    monitoring = doc.get("monitoring", 1)
    if isinstance(monitoring, bool) or not isinstance(monitoring, int) or monitoring < 1:
        raise ValueError(f"contract field 'monitoring' must be a JSON integer >= 1; "
                         f"got {monitoring!r}")
    if not isinstance(doc.get("is_call", True), bool):
        raise ValueError(f"contract field 'is_call' must be a JSON boolean "
                         f"(true or false); got {doc['is_call']!r}")
    ctx = MarketContext(spot=float(doc["spot"]), rate=float(doc["rate"]),
                        div_yield=float(doc.get("div_yield", 0.0)))
    european = doc["kind"].startswith("european")
    schedule = MonitoringSchedule.uniform(
        float(doc["maturity"]), 1 if european else monitoring,
        spacing="span" if european else doc.get("spacing", "span"))
    spec = ExoticSpec(
        kind=doc["kind"], schedule=schedule, strike=float(doc.get("strike", 0.0)),
        is_call=doc.get("is_call", True),
        cap=doc.get("cap"), floor=doc.get("floor"),
        global_cap=doc.get("global_cap"), global_floor=doc.get("global_floor"),
        barrier_up=doc.get("barrier_up"), barrier_down=doc.get("barrier_down"))
    return doc, ctx, spec


def _bump_model(model: ModelParams, bump: str) -> ModelParams:
    """Apply 'name=factor' or 'name=+NN%' to one parameter field."""
    name, _, spec = bump.partition("=")
    spec = spec.strip()
    try:
        factor = 1.0 + float(spec[:-1]) / 100.0 if spec.endswith("%") else float(spec)
    except ValueError:
        raise ValueError("--bump must look like name=factor or name=+NN%") from None
    doc = model_to_dict(model)
    if name not in doc["params"]:
        raise ValueError(f"model has no parameter '{name}'")
    doc["params"][name] *= factor
    return model_from_dict(doc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_calibrate(args) -> int:
    surface = load_quotes(args.quotes)
    init = _load_params(args.init) if args.init else None
    spec = GridSpec(n=args.n, l1=args.l1)
    result = calibrate(args.model, surface, init=init, grid_spec=spec)
    out = {
        "inputs": {"command": "calibrate", "model": args.model, "quotes": args.quotes,
                   "n": args.n, "l1": args.l1, "init": args.init},
        "params": model_to_dict(result.params),
        "metrics": {"objective": result.objective, "mape_pct": result.mape_pct,
                    "rmse": result.rmse, "n_residuals": result.n_residuals,
                    "n_jacobians": result.n_jacobians, "n_penalties": result.n_penalties,
                    "n_anchors": result.n_anchors, "trace": result.trace,
                    "stagnated": result.stagnated, "n_quotes": surface.n_quotes},
    }
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
    print(f"calibrated {args.model}: objective {result.objective:.6e} "
          f"mape {result.mape_pct:.4f}% rmse {result.rmse:.6f} -> {args.out}")
    return 0


def _sim_config(args) -> SimConfig:
    return SimConfig(n_paths=args.paths, seed=args.seed,
                     steps_per_interval=args.steps_per_interval,
                     antithetic=not args.no_antithetic)


def _proj_price(model: ModelParams, ctx: MarketContext, spec: ExoticSpec, args) -> float | None:
    """Projection price of a European contract; None for path-dependent kinds,
    which have no transform pricer."""
    if not spec.kind.startswith("european"):
        return None
    return price_european(model, ctx, spec.schedule.maturity, spec.strike,
                          spec.kind == "european_call", GridSpec(n=args.n, l1=args.l1))


def cmd_price(args) -> int:
    model = _load_params(args.params)
    doc, ctx, spec = _load_contract(args.contract)
    value = _proj_price(model, ctx, spec, args)
    if value is not None:
        result = {"price": value, "method": "proj"}
    else:
        est = price_exotic(model, ctx, spec, _sim_config(args))
        result = {"price": est.price, "std_err": est.std_err,
                  "ci95_half_width": est.ci95_half_width, "n_paths": est.n_paths,
                  "method": "mc"}
    out = {"inputs": {"command": "price", "params": args.params, "contract": doc,
                      "paths": args.paths, "seed": args.seed,
                      "steps_per_interval": args.steps_per_interval,
                      "antithetic": not args.no_antithetic},
           **result}
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _ladder(text: str) -> np.ndarray:
    """The inclusive ladder LO:HI:STEP; ValueError unless finite, STEP > 0 and LO <= HI."""
    lo, hi, step = (float(v) for v in text.split(":"))
    if not (np.isfinite([lo, hi, step]).all() and step > 0 and lo <= hi):
        raise ValueError(text)
    return np.arange(lo, hi + 0.5 * step, step)


def cmd_smile(args) -> int:
    t = args.maturity
    if not t > 0:
        raise ValueError("--maturity must be positive")
    try:
        strikes = _ladder(args.strikes)
    except ValueError:
        raise ValueError("--strikes must be LO:HI:STEP with positive STEP") from None
    if not strikes[0] > 0:   # not in _ladder: synth --grid ladders are log-moneyness
        raise ValueError(f"--strikes LO must be positive; got {strikes[0]:g}")
    model = _load_params(args.params)
    ctx = MarketContext(spot=args.spot, rate=args.rate, div_yield=args.div_yield)
    spec = GridSpec(n=args.n, l1=args.l1)
    models = [("iv", model)]
    if args.bump:
        models.append(("iv_bumped", _bump_model(model, args.bump)))
    flags = strikes >= ctx.forward(t)
    curves = [implied_vol(ctx, t, strikes, price_strike_slice(m, ctx, t, strikes, flags, spec),
                          flags) for _, m in models]

    # libm's log per strike, as the file always had it; np.log need not round the same
    rows = zip([math.log(x) for x in (strikes / ctx.spot).tolist()], *(c.tolist() for c in curves))
    with open(args.out, "w", newline="") as fh:
        fh.write(_csv_text(["log_moneyness"] + [name for name, _ in models],
                           ",".join([_FMT] * (1 + len(curves))), rows))
    print(f"smile with {len(strikes)} strikes at T={t} -> {args.out}")
    return 0


def cmd_mc_compare(args) -> int:
    model = _load_params(args.params)
    _, ctx, spec = _load_contract(args.contract)
    kind = spec.kind
    t0 = time.perf_counter()
    proj_value = _proj_price(model, ctx, spec, args)
    proj_time = time.perf_counter() - t0 if proj_value is not None else 0.0
    t0 = time.perf_counter()
    est = price_exotic(model, ctx, spec, _sim_config(args))
    mc_time = time.perf_counter() - t0
    proj_out = "n/a" if proj_value is None else _FMT % proj_value
    header = ["kind", "strike", "maturity", "proj", "mc", "mc_ci95_half_width", "time_proj_s",
              "time_mc_s"]
    row = (kind, spec.strike, spec.schedule.maturity, proj_out, est.price,
           est.ci95_half_width, proj_time, mc_time)
    with open(args.out, "w", newline="") as fh:
        fh.write(_csv_text(header, "%s,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g", [row]))
    print(f"{kind}: proj {proj_out} mc {est.price:.6f} +/- {est.ci95_half_width:.6f} "
          f"-> {args.out}")
    return 0


def cmd_synth(args) -> int:
    model = _load_params(args.params)
    try:
        t_part, m_part = args.grid.split("x")
        maturities = [float(v) for v in t_part.split(",")]
        moneyness = _ladder(m_part)
    except ValueError:
        raise ValueError("--grid must look like T1,T2,...xLO:HI:STEP "
                         "(maturities x log-moneyness ladder)") from None
    surface = synthetic_surface(model, args.spot, args.rate, args.div_yield,
                                maturities, moneyness, GridSpec(n=args.n, l1=args.l1))
    write_quotes(args.out, surface)
    print(f"synthetic surface: {surface.n_quotes} quotes over {len(maturities)} "
          f"maturities -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _add_grid_flags(p):
    p.add_argument("--n", type=int, default=4096, help="projection basis size (power of two)")
    p.add_argument("--l1", type=float, default=12.0, help="grid width multiplier")


def _add_mc_flags(p):
    p.add_argument("--paths", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps-per-interval", type=int, default=None)
    p.add_argument("--no-antithetic", action="store_true")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of printing usage and exiting, so main reports
    them like any other failure; subparsers inherit this class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="svjd", description="Stochastic-volatility jump-diffusion pricing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="fit a model to a quote surface")
    p.add_argument("--model", required=True, choices=MODEL_NAMES)
    p.add_argument("--quotes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None, help="optional params JSON used as initial guess")
    _add_grid_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("price", help="price one contract from a JSON spec")
    p.add_argument("--params", required=True)
    p.add_argument("--contract", required=True)
    _add_grid_flags(p)
    _add_mc_flags(p)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("smile", help="implied-volatility cross section as CSV")
    p.add_argument("--params", required=True)
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--strikes", required=True, help="LO:HI:STEP")
    p.add_argument("--bump", default=None, help="name=factor or name=+NN%%")
    p.add_argument("--out", required=True)
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--div-yield", type=float, default=0.0)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_smile)

    p = sub.add_parser("mc-compare", help="projection vs Monte Carlo table row")
    p.add_argument("--params", required=True)
    p.add_argument("--contract", required=True)
    p.add_argument("--out", required=True)
    _add_grid_flags(p)
    _add_mc_flags(p)
    p.set_defaults(func=cmd_mc_compare)

    p = sub.add_parser("synth", help="synthetic OTM quote surface as CSV")
    p.add_argument("--params", required=True)
    p.add_argument("--grid", required=True, help="T1,T2,...xLO:HI:STEP")
    p.add_argument("--out", required=True)
    p.add_argument("--spot", type=float, default=100.0)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--div-yield", type=float, default=0.0)
    _add_grid_flags(p)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
