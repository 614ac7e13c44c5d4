"""End-to-end command-line behavior on small configurations."""
import csv
import io
import json
import math
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svjd.calibration
import svjd.cli
from svjd.black_scholes import implied_vol
from svjd.cli import build_parser, load_quotes, main, write_quotes
from svjd.calibration import synthetic_surface
from svjd.models import MODEL_NAMES, HestonParams, HKDEParams, model_to_dict
from svjd.proj import GridSpec, price_european, price_strike_slice
from svjd.models import MarketContext
from svjd.montecarlo import SimConfig

from conftest import PARAM_ROWS


def _write_params(path, model):
    path.write_text(json.dumps(model_to_dict(model)))
    return str(path)


@pytest.fixture
def spot_heston_file(tmp_path):
    return _write_params(tmp_path / "spot_heston.json", PARAM_ROWS["heston"]["SPOT"])


@pytest.fixture
def shop_hkde_file(tmp_path):
    return _write_params(tmp_path / "shop_hkde.json", PARAM_ROWS["hkde"]["SHOP"])


# ---------------------------------------------------------------------------
# Quote file round trip
# ---------------------------------------------------------------------------

def test_synth_then_load_round_trips_losslessly(tmp_path, spot_heston_file, capsys):
    out = tmp_path / "quotes.csv"
    rc = main(["synth", "--params", spot_heston_file, "--grid", "0.25,0.5x-0.2:0.2:0.1",
               "--out", str(out)])
    assert rc == 0
    surface = load_quotes(str(out))
    assert [sl.t for sl in surface.slices] == [0.25, 0.5]
    assert surface.n_quotes == 10
    # write -> read -> write is byte-stable (17 significant digit formatting)
    again = tmp_path / "again.csv"
    write_quotes(str(again), surface)
    assert out.read_text() == again.read_text()


def test_load_quotes_rejects_bad_header(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        load_quotes(str(f))
    f.write_text("")
    with pytest.raises(ValueError) as info:
        load_quotes(str(f))
    assert str(info.value) == f"{f}: empty file"


def test_load_quotes_skips_blank_rows(tmp_path):
    header = "maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
    rows = [f"0.5,{k},C,,0.3,0.05,0.0,100\n" for k in (110, 115, 120)]
    plain, gappy = tmp_path / "plain.csv", tmp_path / "gappy.csv"
    plain.write_text(header + "".join(rows))
    gappy.write_text(header + "\n" + rows[0] + " , ,\n" + "".join(rows[1:]) + ",,,,,,,\n")
    assert load_quotes(str(gappy)).slices[0].quotes == load_quotes(str(plain)).slices[0].quotes
    # a bad row is still named by its line in the file, blank lines counted
    gappy.write_text(header + "\n\n0.5,110,X,1.0,,0.05,0.0,100\n")
    with pytest.raises(ValueError) as info:
        load_quotes(str(gappy))
    assert str(info.value) == f"{gappy}:4: option_type must be C or P"


def test_load_quotes_skips_arbitrage_rows_with_line_numbers(tmp_path, capsys):
    f = tmp_path / "q.csv"
    rows = ["maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot"]
    for k in (105.0, 110.0, 115.0):
        rows.append(f"0.5,{k},C,,0.3,0.05,0.0,100")
    rows.append("0.5,120,C,130.0,,0.05,0.0,100")   # above the call upper bound
    f.write_text("\n".join(rows) + "\n")
    surface = load_quotes(str(f))
    err = capsys.readouterr().err
    assert "q.csv:5" in err and "rejected" in err
    assert surface.n_quotes == 3


def test_load_quotes_price_iv_disagreement_warns_price_wins(tmp_path, capsys):
    from svjd.black_scholes import bs_price
    ctx = MarketContext(100.0, 0.05, 0.0)
    good = bs_price(ctx, 0.5, 110.0, 0.3, True)
    f = tmp_path / "q.csv"
    f.write_text("\n".join([
        "maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot",
        f"0.5,105,C,,0.3,0.05,0.0,100",
        f"0.5,110,C,{good * 1.05},0.3,0.05,0.0,100",   # 5% off the stated iv
        f"0.5,115,C,,0.3,0.05,0.0,100",
    ]) + "\n")
    surface = load_quotes(str(f))
    assert "disagree" in capsys.readouterr().err
    q = [q for q in surface.slices[0].quotes if q.strike == 110.0][0]
    assert q.price == pytest.approx(good * 1.05)      # price took precedence


def test_load_quotes_names_bad_cell(tmp_path):
    f = tmp_path / "q.csv"
    header = "maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
    for cell in ("abc", "nan", "inf", "-inf"):
        f.write_text(header + f"0.5,{cell},C,,0.3,0.05,0.0,100\n")
        with pytest.raises(ValueError) as info:
            load_quotes(str(f))
        assert str(info.value) == f"{f}:2: column 'strike' must be a finite number; got '{cell}'"
    # a non-finite iv is rejected even beside a usable price
    f.write_text(header + "0.5,110,C,3.0,0.3,0.05,0.0,100\n0.5,120,C,2.0,nan,0.05,0.0,100\n")
    with pytest.raises(ValueError) as info:
        load_quotes(str(f))
    assert str(info.value) == f"{f}:3: column 'iv' must be a finite number; got 'nan'"


@pytest.mark.parametrize("row, message", [
    # neither a price nor an iv once failed comparing None with 0
    ("0.5,110,C,,,0.05,0.0,100", "quote needs a price or an implied volatility"),
    # a non-positive strike was once skipped as a price outside its bounds
    ("0.5,0,P,1.0,,0.05,0.0,100", "strike must be finite and positive; got 0.0"),
    ("0.5,-5,P,,0.3,0.05,0.0,100", "strike must be finite and positive; got -5.0"),
    # a non-positive maturity, spot or iv was once named without its file and line
    ("0,110,C,1.0,,0.05,0.0,100", "maturity must be finite and positive; got 0.0"),
    ("-0.5,110,C,,0.3,0.05,0.0,100", "maturity must be finite and positive; got -0.5"),
    ("0.5,110,C,1.0,,0.05,0.0,0", "spot must be positive"),
    ("0.5,110,C,,-0.3,0.05,0.0,100", "vol must be finite and positive"),
    ("0.5,110,C,1.0,0,0.05,0.0,100", "vol must be finite and positive"),
    ("0.5,110,C,1.0", "expected 8 fields"),
    ("0.5,110,X,1.0,,0.05,0.0,100", "option_type must be C or P"),
])
def test_calibrate_names_the_file_and_line_of_a_bad_quote(tmp_path, capsys, row, message):
    f = tmp_path / "q.csv"
    f.write_text("maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
                 + row + "\n0.5,115,C,,0.3,0.05,0.0,100\n")
    rc = main(["calibrate", "--model", "heston", "--quotes", str(f),
               "--out", str(tmp_path / "fit.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {f}:2: {message}\n"


@pytest.mark.parametrize("rows, message", [
    # rows of one maturity that disagree on the rate: the second one is at fault
    (["0.5,110,C,,0.3,0.05,0.0,100", "0.5,115,C,,0.3,0.04,0.0,100",
      "0.5,120,C,,0.3,0.05,0.0,100"], ":3: maturity 0.5: inconsistent rate or dividend yield"),
    (["0.5,110,C,,0.3,0.05,0.0,100", "0.5,110,C,,0.3,0.05,0.0,100",
      "0.5,120,C,,0.3,0.05,0.0,100"], ": maturity 0.5: strikes must be strictly ascending"),
    (["0.5,110,C,,0.3,0.05,0.0,100", "0.5,120,C,,0.3,0.05,0.0,100"],
     ": maturity 0.5: needs at least 3 quotes"),
    (["0.5,110,C,,0.3,0.05,0.0,100", "0.5,115,C,,0.3,0.05,0.0,90"],
     ":3: spot differs from earlier rows"),
    (["", " , "], ": no usable quotes"),   # blank rows only
])
def test_calibrate_names_the_file_of_a_bad_surface(tmp_path, capsys, rows, message):
    f = tmp_path / "q.csv"
    f.write_text("maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
                 + "\n".join(rows) + "\n")
    rc = main(["calibrate", "--model", "heston", "--quotes", str(f),
               "--out", str(tmp_path / "fit.json")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {f}{message}\n"


def test_load_quotes_reports_dropped_in_the_money_quotes(tmp_path, capsys):
    f = tmp_path / "q.csv"
    header = "maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
    f.write_text(header + "0.5,100,C,,0.3,0.05,0.0,100\n")     # forward 102.5: in the money
    with pytest.raises(ValueError) as info:
        load_quotes(str(f))
    assert str(info.value) == (f"{f}: no out-of-the-money quotes: all 1 were in the money "
                               "against the forward")
    rows = [f"0.5,{k},C,,0.3,0.05,0.0,100\n" for k in (95, 100, 110, 120, 130)]
    f.write_text(header + "".join(rows))
    surface = load_quotes(str(f))
    assert surface.n_quotes == 3 and surface.n_dropped_itm == 2
    err = capsys.readouterr().err
    assert err == (f"warning: {f}: dropped 2 in-the-money quotes; "
                   f"the call/put pivot is the forward\n")


# ---------------------------------------------------------------------------
# calibrate / price / smile / mc-compare
# ---------------------------------------------------------------------------

def test_cmd_calibrate_smoke(tmp_path, spot_heston_file, capsys):
    quotes = tmp_path / "quotes.csv"
    main(["synth", "--params", spot_heston_file, "--grid", "0.25,0.5,1x-0.2:0.2:0.05",
          "--out", str(quotes)])
    out = tmp_path / "fit.json"
    rc = main(["calibrate", "--model", "heston", "--quotes", str(quotes),
               "--out", str(out), "--init", spot_heston_file])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["inputs"]["command"] == "calibrate"
    assert doc["params"]["model"] == "heston"
    assert doc["metrics"]["rmse"] < 1e-5
    assert doc["metrics"]["mape_pct"] < 1e-3
    assert doc["metrics"]["n_excluded"] == 0
    assert "iterations" not in doc["metrics"]
    # the start is the exact optimum (zero residuals): priced once, the solver's
    # first call reusing the trace's vector, and one Jacobian to see g = 0
    assert (doc["metrics"]["n_residuals"], doc["metrics"]["n_jacobians"]) == (1, 1)
    assert doc["metrics"]["n_penalties"] == 0
    # that Jacobian anchors one held slice per tenor
    assert doc["metrics"]["n_anchors"] == 3
    calibrate_parser = build_parser()._subparsers._group_actions[0].choices["calibrate"]
    assert tuple(calibrate_parser._option_string_actions["--model"].choices) == MODEL_NAMES
    # price reads the output file as a parameter file: its "params" entry, priced
    # as the bare file of that entry is
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "european_put", "strike": 90.0, "maturity": 0.5,
                                    "spot": 100.0, "rate": 0.05}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc["params"]))
    capsys.readouterr()
    prices = []
    for params in (out, bare):
        assert main(["price", "--params", str(params), "--contract", str(contract)]) == 0
        prices.append(json.loads(capsys.readouterr().out)["price"])
    assert prices[0] == prices[1]


def test_cmd_price_european_matches_library(tmp_path, shop_hkde_file, capsys):
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "european_call", "strike": 110.0,
                                    "maturity": 0.5, "spot": 100.0, "rate": 0.05,
                                    "div_yield": 0.0}))
    rc = main(["price", "--params", shop_hkde_file, "--contract", str(contract)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    ctx = MarketContext(100.0, 0.05, 0.0)
    expected = price_european(PARAM_ROWS["hkde"]["SHOP"], ctx, 0.5, 110.0, True)
    assert doc["price"] == pytest.approx(expected, rel=1e-12)
    assert doc["method"] == "proj"


def test_cmd_price_exotic_deterministic(tmp_path, shop_hkde_file, capsys):
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "asian_call", "strike": 100.0,
                                    "maturity": 0.5, "monitoring": 4, "spot": 100.0,
                                    "rate": 0.05}))
    args = ["price", "--params", shop_hkde_file, "--contract", str(contract),
            "--paths", "20000", "--seed", "7", "--steps-per-interval", "4"]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["price"] == second["price"]
    assert first["method"] == "mc" and first["std_err"] > 0
    assert first["inputs"]["contract"]["kind"] == "asian_call"


def test_cmd_smile_bump_lifts_curve(tmp_path, shop_hkde_file, capsys):
    out = tmp_path / "smile.csv"
    rc = main(["smile", "--params", shop_hkde_file, "--maturity", "0.25",
               "--strikes", "80:125:5", "--bump", "theta=+50%", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    base = np.array([float(r["iv"]) for r in rows])
    bumped = np.array([float(r["iv_bumped"]) for r in rows])
    assert np.all(bumped > base)


def test_cmd_mc_compare_exotic_has_na_proj(tmp_path, shop_hkde_file, capsys):
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "asian_call", "strike": 100.0,
                                    "maturity": 0.5, "monitoring": 2, "spot": 100.0,
                                    "rate": 0.05}))
    out = tmp_path / "cmp.csv"
    rc = main(["mc-compare", "--params", shop_hkde_file, "--contract", str(contract),
               "--out", str(out), "--paths", "20000", "--steps-per-interval", "4"])
    assert rc == 0
    with open(out) as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["proj"] == "n/a"
    assert float(row["mc_ci95_half_width"]) > 0
    assert float(row["time_mc_s"]) > 0


def test_cmd_mc_compare_european_has_both(tmp_path, spot_heston_file, capsys):
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "european_call", "strike": 100.0,
                                    "maturity": 0.25, "spot": 100.0, "rate": 0.05}))
    out = tmp_path / "cmp.csv"
    rc = main(["mc-compare", "--params", spot_heston_file, "--contract", str(contract),
               "--out", str(out), "--paths", "50000"])
    assert rc == 0
    with open(out) as fh:
        row = list(csv.DictReader(fh))[0]
    proj, mc, ci = float(row["proj"]), float(row["mc"]), float(row["mc_ci95_half_width"])
    assert abs(proj - mc) < 2 * ci + 0.05


def test_cmd_mc_compare_european_ignores_monitoring_and_spacing(tmp_path, shop_hkde_file,
                                                                capsys):
    rows = []
    for extra in ({}, {"monitoring": 4, "spacing": "m_plus_1"}):
        contract = tmp_path / "c.json"
        contract.write_text(json.dumps({"kind": "european_put", "strike": 95.0, "maturity": 0.5,
                                        "spot": 100.0, "rate": 0.05, **extra}))
        out = tmp_path / "cmp.csv"
        assert main(["mc-compare", "--params", shop_hkde_file, "--contract", str(contract),
                     "--out", str(out), "--paths", "5001", "--seed", "3"]) == 0
        with open(out) as fh:
            rows.append(list(csv.DictReader(fh))[0])
    assert rows[0]["mc"] == rows[1]["mc"]
    assert rows[0]["mc_ci95_half_width"] == rows[1]["mc_ci95_half_width"]


def test_cli_error_is_one_line_nonzero(tmp_path, capsys):
    rc = main(["price", "--params", str(tmp_path / "missing.json"),
               "--contract", str(tmp_path / "missing2.json")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ")
    assert "\n" not in err


def test_cli_rejects_bad_bump(tmp_path, shop_hkde_file, capsys):
    rc = main(["smile", "--params", shop_hkde_file, "--maturity", "0.25",
               "--strikes", "90:110:5", "--bump", "notaparam=+50%",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "notaparam" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--strikes", "60:160", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "60:abc:1", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "60:160:0", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "60:160:-1", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "160:60:1", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "60:inf:1", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "nan:160:1", "--strikes must be LO:HI:STEP with positive STEP"),
    ("--strikes", "0:100:5", "--strikes LO must be positive; got 0"),
    ("--strikes", "-10:100:5", "--strikes LO must be positive; got -10"),
    ("--maturity", "-1", "--maturity must be positive"),
    ("--maturity", "0", "--maturity must be positive"),
    ("--maturity", "nan", "--maturity must be positive"),
    ("--maturity", "inf", "--maturity must be finite; got inf"),
    ("--l1", "nan", "l1 must be finite and positive; got nan"),
    ("--l1", "inf", "l1 must be finite and positive; got inf"),
    ("--spot", "nan", "spot must be finite; got nan"),
    ("--rate", "nan", "rate must be finite; got nan"),
    ("--div-yield", "inf", "div_yield must be finite; got inf"),
    ("--bump", "theta=abc", "--bump must look like name=factor or name=+NN%"),
    ("--bump", "theta", "--bump must look like name=factor or name=+NN%"),
    ("--bump", "theta=nan", "theta must be finite; got nan"),
    ("--bump", "kappa=+1e400%", "kappa must be finite; got inf"),
])
def test_cli_smile_names_bad_flag(tmp_path, shop_hkde_file, capsys, flag, value, message):
    argv = {"--maturity": "0.25", "--strikes": "90:110:5", flag: value}
    # FLAG=VALUE: argparse would read a separate "-10:100:5" as an option
    rc = main(["smile", "--params", shop_hkde_file, "--out", str(tmp_path / "x.csv"),
               *(f"{key}={val}" for key, val in argv.items())])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_cli_smile_refuses_a_repeated_bump(tmp_path, shop_hkde_file, capsys):
    # argparse would keep the last --bump and drop the first without a word
    out = tmp_path / "x.csv"
    rc = main(["smile", "--params", shop_hkde_file, "--maturity", "0.25", "--strikes",
               "90:110:5", "--bump", "theta=+10%", "--bump", "v0=+5%", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == "error: argument --bump: may be given only once\n"


@pytest.mark.parametrize("maturities, bad", [("0.25,inf", "inf"), ("nan,1", "nan"),
                                             ("0.25,0", "0"), ("-1", "-1")])
def test_cli_synth_names_a_bad_grid_maturity(tmp_path, spot_heston_file, capsys, maturities, bad):
    rc = main(["synth", "--params", spot_heston_file, f"--grid={maturities}x-0.2:0.2:0.1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --grid maturities must be finite and positive; got {bad}\n")


@pytest.mark.parametrize("maturities, repeated", [("0.5,0.5", "0.5"), ("1,0.25,1.0,1", "1")])
def test_cli_synth_refuses_a_repeated_maturity_before_pricing(tmp_path, spot_heston_file, capsys,
                                                              monkeypatch, maturities, repeated):
    priced = []
    monkeypatch.setattr(svjd.calibration, "price_strike_slice",
                        lambda *args: priced.append(args))
    out = tmp_path / "x.csv"
    rc = main(["synth", "--params", spot_heston_file, f"--grid={maturities}x-0.2:0.2:0.1",
               "--out", str(out)])
    assert rc == 2 and not out.exists() and priced == []
    assert capsys.readouterr().err == (
        f"error: --grid maturities must be distinct; got {repeated} more than once\n")


def test_cli_smile_inverts_both_curves_at_once(tmp_path, monkeypatch, capsys):
    calls = {"implied_vol": 0, "price_strike_slice": 0}
    for name in calls:
        def counted(*args, _original=getattr(svjd.cli, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(svjd.cli, name, counted)
    argv = ["smile", "--maturity", "0.1", "--strikes", "60:160:0.5", "--bump", "sigma=+10%",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv + ["--params", _write_params(tmp_path / "shop.json",
                                                  PARAM_ROWS["bgm"]["SHOP"])]) == 0
    assert calls == {"implied_vol": 1, "price_strike_slice": 2}
    # bgm/AMZN prices T = 0.1 calls far out of the money below zero: the command
    # stops at the base curve, with the message its own inversion gives
    calls.update(implied_vol=0, price_strike_slice=0)
    model, ctx = PARAM_ROWS["bgm"]["AMZN"], MarketContext(100.0, 0.05, 0.0)
    capsys.readouterr()
    assert main(argv + ["--params", _write_params(tmp_path / "bgm.json", model)]) == 2
    assert calls == {"implied_vol": 1, "price_strike_slice": 1}
    strikes = np.arange(60.0, 160.25, 0.5)
    flags = strikes >= ctx.forward(0.1)
    with pytest.raises(ValueError) as alone:
        implied_vol(ctx, 0.1, strikes, price_strike_slice(model, ctx, 0.1, strikes, flags), flags)
    assert capsys.readouterr().err == f"error: {alone.value}\n"


def test_cli_calibrate_has_no_tol_schedule(tmp_path, capsys):
    # one solver pass per fit: the old flag is a usage error, before any file is read
    rc = main(["calibrate", "--model", "heston", "--quotes", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "fit.json"), "--tol-schedule", "1e-4"])
    assert rc == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --tol-schedule 1e-4\n"


@pytest.mark.parametrize("grid", ["0.25x-0.2:0.2:0", "0.25x0.2:-0.2:0.1", "0.25x-0.2:0.2",
                                  "0.25x-0.2:0.2:-0.1", "0.25x-0.2:abc:0.1"])
def test_cli_synth_names_bad_ladder(tmp_path, spot_heston_file, capsys, grid):
    rc = main(["synth", "--params", spot_heston_file, "--grid", grid,
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --grid must look like T1,T2,...xLO:HI:STEP")


_BARRIER = {"kind": "barrier_uo", "strike": 100.0, "barrier_up": 140.0, "maturity": 0.5,
            "monitoring": 2, "spot": 100.0, "rate": 0.05}


@pytest.mark.parametrize("field, value", [
    ("kind", "digital_call"),
    ("is_call", "false"),
    ("is_call", 0),
    ("barrier_up", "140"),
    ("strike", None),
    ("maturity", "0.5"),
    ("spot", True),
    ("rate", float("nan")),
    ("cap", "0.06"),
    ("floor", "0.0"),
    ("monitoring", 4.9),
    ("monitoring", 4.0),
    ("monitoring", "4"),
    ("monitoring", True),
    ("monitoring", 0),
])
def test_cli_rejects_bad_contract_field(tmp_path, shop_hkde_file, capsys, field, value):
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({**_BARRIER, field: value}))
    for cmd in (["price"], ["mc-compare", "--out", str(tmp_path / "x.csv")]):
        rc = main(cmd + ["--params", shop_hkde_file, "--contract", str(contract),
                         "--paths", "100"])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and f"'{field}'" in err
        assert "\n" not in err


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "contract file must hold a JSON object"),
    *[(json.dumps({k: v for k, v in _BARRIER.items() if k != key}),
       f"contract file needs '{key}'") for key in ("kind", "maturity", "spot", "rate")],
])
def test_cli_rejects_a_contract_file_without_its_entries(tmp_path, shop_hkde_file, capsys, text,
                                                         message):
    contract = tmp_path / "c.json"
    contract.write_text(text)
    for cmd in (["price"], ["mc-compare", "--out", str(tmp_path / "x.csv")]):
        assert main(cmd + ["--params", shop_hkde_file, "--contract", str(contract)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind", ["european_call", "european_put"])
@pytest.mark.parametrize("strike", [None, -100.0])   # None: the field is left out
def test_cli_rejects_european_without_positive_strike(tmp_path, shop_hkde_file, capsys, kind,
                                                      strike):
    contract = tmp_path / "c.json"
    fields = {"kind": kind, "maturity": 0.5, "spot": 100.0, "rate": 0.05}
    contract.write_text(json.dumps(fields if strike is None else {**fields, "strike": strike}))
    for cmd in (["price"], ["mc-compare", "--out", str(tmp_path / "x.csv")]):
        rc = main(cmd + ["--params", shop_hkde_file, "--contract", str(contract)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == f"error: {kind} needs a positive strike"


@pytest.mark.parametrize("kind, term", [("european_call", "barrier_up"),
                                        ("barrier_uo", "barrier_down"), ("asian_put", "cap")])
def test_cli_rejects_a_term_the_kind_does_not_read(tmp_path, shop_hkde_file, capsys, kind, term):
    # a European with a barrier used to price as the plain European, exit 0
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({**_BARRIER, "kind": kind, term: 130.0}))
    for cmd in (["price"], ["mc-compare", "--out", str(tmp_path / "x.csv")]):
        rc = main(cmd + ["--params", shop_hkde_file, "--contract", str(contract),
                         "--paths", "100"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {kind} does not read {term}\n"


def test_cli_rejects_cliquet_without_notional(tmp_path, spot_heston_file, capsys):
    # a cliquet's strike is its notional: left out, it would price to 0
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "cliquet", "cap": 0.06, "floor": 0.01,
                                    "global_cap": 1.2, "global_floor": 0.0, "maturity": 1.0,
                                    "monitoring": 4, "spot": 100.0, "rate": 0.05}))
    for cmd in (["price"], ["mc-compare", "--out", str(tmp_path / "x.csv")]):
        rc = main(cmd + ["--params", spot_heston_file, "--contract", str(contract)])
        assert rc == 2
        assert capsys.readouterr().err == "error: cliquet needs a positive strike\n"


@pytest.mark.parametrize("value", [True, "0.04", None])
def test_cli_rejects_non_number_parameter(tmp_path, capsys, value):
    doc = model_to_dict(PARAM_ROWS["heston"]["SPOT"])
    doc["params"]["v0"] = value
    params = tmp_path / "p.json"
    params.write_text(json.dumps(doc))
    rc = main(["smile", "--params", str(params), "--maturity", "0.25", "--strikes", "90:110:5",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.strip() == \
        f"error: parameter 'v0' must be a finite JSON number; got {value!r}"


@pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "3.5", "null"])
def test_cli_rejects_a_parameter_file_that_is_not_an_object(tmp_path, capsys, text):
    # a list or a string once failed with "'list' object has no attribute 'get'"
    params = tmp_path / "p.json"
    params.write_text(text)
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps(_BARRIER))
    quotes = tmp_path / "q.csv"
    quotes.write_text("maturity_yrs,strike,option_type,mid_price,iv,rate,div_yield,spot\n"
                      + "".join(f"0.5,{k},C,,0.3,0.05,0.0,100\n" for k in (105, 110, 115)))
    out = str(tmp_path / "x.csv")
    for argv in (["smile", "--params", str(params), "--maturity", "0.25", "--strikes",
                  "90:110:5", "--out", out],
                 ["price", "--params", str(params), "--contract", str(contract)],
                 ["synth", "--params", str(params), "--grid", "0.25x-0.2:0.2:0.1", "--out", out],
                 ["calibrate", "--model", "heston", "--quotes", str(quotes), "--init",
                  str(params), "--out", out]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: parameter file must hold a JSON object\n"


@pytest.mark.parametrize("argv, message", [
    # argparse reads a separate "-10:100:5" as an option, so --strikes has no value
    (["--strikes", "-10:100:5"], "argument --strikes: expected one argument"),
    ([], "the following arguments are required: --strikes"),
])
def test_cli_usage_error_is_one_line(tmp_path, shop_hkde_file, capsys, argv, message):
    rc = main(["smile", "--params", shop_hkde_file, "--maturity", "0.25",
               "--out", str(tmp_path / "x.csv"), *argv])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["smile", "--help"])
    assert info.value.code == 0
    assert "--strikes" in capsys.readouterr().out


def test_parser_defaults_are_the_library_defaults():
    commands = build_parser()._subparsers._group_actions[0].choices
    for name, p in commands.items():
        assert (p.get_default("n"), p.get_default("l1")) == (GridSpec().n, GridSpec().l1), name
    for name in ("price", "mc-compare"):
        assert (commands[name].get_default("paths"), commands[name].get_default("seed")) \
            == (SimConfig().n_paths, SimConfig().seed), name
    for name in ("smile", "synth"):
        assert [commands[name].get_default(k) for k in ("spot", "rate", "div_yield")] \
            == [100.0, 0.05, 0.0], name


# ---------------------------------------------------------------------------
# Output bytes and per-process state
# ---------------------------------------------------------------------------

def _csv_writer_text(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def test_csv_files_equal_csv_writer_rendering(tmp_path, shop_hkde_file, capsys):
    model, ctx = PARAM_ROWS["hkde"]["SHOP"], MarketContext(100.0, 0.05, 0.0)
    synth = tmp_path / "synth.csv"
    assert main(["synth", "--params", shop_hkde_file, "--grid", "0.1,0.5,2x-0.3:0.3:0.05",
                 "--out", str(synth)]) == 0
    surface = synthetic_surface(model, 100.0, 0.05, 0.0, [0.1, 0.5, 2.0],
                                np.arange(-0.3, 0.3 + 0.025, 0.05))
    f = "%.17g".__mod__
    assert synth.read_bytes() == _csv_writer_text(
        [["maturity_yrs", "strike", "option_type", "mid_price", "iv", "rate", "div_yield",
          "spot"]]
        + [[f(sl.t), f(q.strike), "C" if q.is_call else "P", f(q.price), f(q.iv),
            f(sl.ctx.rate), f(sl.ctx.div_yield), f(surface.spot)]
           for sl in surface.slices for q in sl.quotes])

    smile = tmp_path / "smile.csv"
    assert main(["smile", "--params", shop_hkde_file, "--maturity", "0.25",
                 "--strikes", "70:140:2.5", "--bump", "theta=+20%", "--out", str(smile)]) == 0
    strikes = np.arange(70.0, 140.0 + 1.25, 2.5)
    flags = strikes >= ctx.forward(0.25)
    h = model.heston
    bumped = HKDEParams(HestonParams(h.v0, h.theta * 1.2, h.kappa, h.sigma_v, h.rho),
                        model.jumps)
    curves = [implied_vol(ctx, 0.25, strikes, price_strike_slice(m, ctx, 0.25, strikes, flags),
                          flags) for m in (model, bumped)]
    assert smile.read_bytes() == _csv_writer_text(
        [["log_moneyness", "iv", "iv_bumped"]]
        + [[f(math.log(k / ctx.spot))] + [f(c[i]) for c in curves]
           for i, k in enumerate(strikes)])

    # mc-compare times itself, so only its line form is compared
    contract = tmp_path / "c.json"
    contract.write_text(json.dumps({"kind": "european_call", "strike": 100.0, "maturity": 0.25,
                                    "spot": 100.0, "rate": 0.05}))
    table = tmp_path / "cmp.csv"
    assert main(["mc-compare", "--params", shop_hkde_file, "--contract", str(contract),
                 "--out", str(table), "--paths", "1000"]) == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and table.read_bytes() == _csv_writer_text(rows)
    assert table.read_bytes().startswith(
        b"kind,strike,maturity,proj,mc,mc_ci95_half_width,time_proj_s,time_mc_s\r\n")


def test_main_keeps_no_parsed_state_between_calls(tmp_path, shop_hkde_file, capsys):
    out = tmp_path / "smile.csv"
    common = ["smile", "--params", shop_hkde_file, "--maturity", "0.25", "--strikes",
              "90:110:5", "--out", str(out)]
    assert main(common + ["--bump", "theta=+50%"]) == 0
    assert out.read_text().splitlines()[0] == "log_moneyness,iv,iv_bumped"
    assert main(common) == 0
    header, *body = out.read_text().splitlines()
    assert header == "log_moneyness,iv" and all(row.count(",") == 1 for row in body)


def test_main_builds_the_parser_once(tmp_path, shop_hkde_file, monkeypatch, capsys):
    calls = []

    def counting_build_parser():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(svjd.cli, "_parser", None)
    monkeypatch.setattr(svjd.cli, "build_parser", counting_build_parser)
    out = str(tmp_path / "out.csv")
    for argv in (["smile", "--params", shop_hkde_file, "--maturity", "0.25",
                  "--strikes", "90:110:5", "--out", out],
                 ["smile", "--params", shop_hkde_file, "--maturity", "-1",
                  "--strikes", "90:110:5", "--out", out],
                 ["synth", "--params", shop_hkde_file, "--grid", "0.25x-0.1:0.1:0.1",
                  "--out", out]):
        main(argv)
    assert len(calls) == 1


def test_importing_the_cli_builds_no_parser():
    code = "import svjd.cli as cli; assert cli._parser is None"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


_PRICING_COMMANDS_LOAD_NO_OPTIMIZER = """
import sys
import svjd, svjd.cli
params, contract, barrier, out = sys.argv[1:5]
for argv in (["price", "--params", params, "--contract", contract],
             ["mc-compare", "--params", params, "--contract", barrier, "--paths", "2000",
              "--out", out + "/cmp.csv"]):
    assert svjd.cli.main(argv) == 0, argv
assert "scipy.special" not in sys.modules   # no Black-Scholes call, no normal CDF
for argv in (["smile", "--params", params, "--maturity", "0.5", "--strikes", "80:120:5",
              "--out", out + "/smile.csv"],
             ["synth", "--params", params, "--grid", "0.25,1x-0.2:0.2:0.1",
              "--out", out + "/synth.csv"]):
    assert svjd.cli.main(argv) == 0, argv
assert "scipy.special" in sys.modules       # the smile inverts, so it loads ndtr
assert "scipy.optimize" not in sys.modules
assert svjd.cli.main(["calibrate", "--model", "heston", "--quotes", out + "/synth.csv",
                      "--init", params, "--out", out + "/fit.json"]) == 0
assert "scipy.optimize" in sys.modules
"""


_IMPORT_LOADS_NO_SCIPY_SPECIAL = """
import sys
import svjd, svjd.black_scholes as bs
assert "scipy.special" not in sys.modules
bs.bs_price(svjd.MarketContext(100.0), 0.5, 100.0, 0.2, True)
import scipy.special
assert bs.ndtr is scipy.special.ndtr   # bound once, on the first call
"""


def test_importing_svjd_loads_no_scipy_special():
    subprocess.run([sys.executable, "-c", _IMPORT_LOADS_NO_SCIPY_SPECIAL], check=True,
                   timeout=60)


_SLICE_FAULTS = """
import resource, sys
import numpy as np
import svjd
from svjd.models import HestonParams, HKDEParams, KouJumpParams, MarketContext
from svjd.proj import price_strike_slice
model = HKDEParams(HestonParams(0.064, 0.163, 6.796, 1.698, -0.391),
                   KouJumpParams(17.725, 1.0, 35.555, 0.049))
ctx, strikes = MarketContext(100.0, 0.05, 0.0), np.arange(60.0, 160.5, 0.5)
price_strike_slice(model, ctx, 0.5, strikes, strikes >= 100.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    price_strike_slice(model, ctx, 0.5, strikes, strikes >= 100.0)
assert "scipy" not in sys.modules
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_slices_do_not_refault_the_heap():
    # without svjd's allocator warm-up glibc trims the heap after every call,
    # and each 201-strike slice re-faults about 190 pages; with it, about 0
    out = subprocess.run([sys.executable, "-c", _SLICE_FAULTS], check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert float(out) < 5.0


def test_only_calibrate_loads_the_optimizer(tmp_path, spot_heston_file):
    contract = tmp_path / "euro.json"
    contract.write_text(json.dumps({"kind": "european_call", "strike": 110, "maturity": 0.5,
                                    "spot": 100, "rate": 0.05}))
    barrier = tmp_path / "uo.json"
    barrier.write_text(json.dumps({"kind": "barrier_uo", "strike": 100, "barrier_up": 140,
                                   "maturity": 0.5, "monitoring": 4, "spot": 100, "rate": 0.05}))
    subprocess.run([sys.executable, "-c", _PRICING_COMMANDS_LOAD_NO_OPTIMIZER, spot_heston_file,
                    str(contract), str(barrier), str(tmp_path)], check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def test_the_module_entry_point_exits_0_or_2_with_one_error_line(tmp_path, spot_heston_file):
    # pip's svjd script is sys.exit(main()), as python -m svjd.cli runs it, from this entry
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'svjd = "svjd.cli:main"' in scripts.splitlines()
    contract = tmp_path / "euro.json"
    contract.write_text(json.dumps({"kind": "european_call", "strike": 110, "maturity": 0.5,
                                    "spot": 100, "rate": 0.05}))
    module = [sys.executable, "-m", "svjd.cli"]
    run = subprocess.run(module + ["price", "--params", spot_heston_file, "--contract",
                                   str(contract)], capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["method"] == "proj"
    # a usage error: one line, not argparse's usage block
    run = subprocess.run(module + ["smile", "--params", spot_heston_file, "--maturity", "0.5",
                                   "--strikes", "-10:100:5", "--out", str(tmp_path / "x.csv")],
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")
