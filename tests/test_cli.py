"""End-to-end command-line behavior on small configurations."""
import csv
import json
import math

import numpy as np
import pytest

from svjd.cli import build_parser, load_quotes, main, write_quotes
from svjd.calibration import synthetic_surface
from svjd.models import MODEL_NAMES, model_to_dict
from svjd.proj import GridSpec, price_european
from svjd.models import MarketContext

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


# ---------------------------------------------------------------------------
# calibrate / price / smile / mc-compare
# ---------------------------------------------------------------------------

def test_cmd_calibrate_smoke(tmp_path, spot_heston_file, capsys):
    quotes = tmp_path / "quotes.csv"
    main(["synth", "--params", spot_heston_file, "--grid", "0.25,0.5,1x-0.2:0.2:0.05",
          "--out", str(quotes)])
    out = tmp_path / "fit.json"
    rc = main(["calibrate", "--model", "heston", "--quotes", str(quotes),
               "--out", str(out), "--init", spot_heston_file, "--tol-schedule", "1e-4"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["inputs"]["command"] == "calibrate"
    assert doc["params"]["model"] == "heston"
    assert doc["metrics"]["rmse"] < 1e-5
    assert doc["metrics"]["mape_pct"] < 1e-3
    calibrate_parser = build_parser()._subparsers._group_actions[0].choices["calibrate"]
    assert tuple(calibrate_parser._option_string_actions["--model"].choices) == MODEL_NAMES


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
