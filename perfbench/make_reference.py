"""Write perfbench/reference.json: the outputs later runs are compared against.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It stores the 75 projection prices of the calib-hkde surface, the mid prices
of every cli-smile synth command that succeeds, and the SHA-256 digest of the
mc-exotics fixed-seed probe (seed 202, 8192 paths per model, one thread).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import run


def main() -> int:
    run._import_package()
    import svjd.cli as cli
    import workloads

    out_dir = os.path.join(run.OUT_DIR, "reference")
    os.makedirs(out_dir, exist_ok=True)
    calib = workloads.CalibHkde(workloads.CalibHkde.default_seed, out_dir)

    synth = {}
    for key, command, _, argv, path in workloads.CliSmile(1, out_dir).commands:
        if command != "synth":
            continue
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        if code == 0:
            with open(path, newline="") as fh:
                synth["/".join(key)] = [float(r["mid_price"]) for r in csv.DictReader(fh)]

    mcw = workloads.McExotics(workloads.McExotics.default_seed, out_dir)
    with workloads._threads(1):
        digest = mcw.digest(mcw.price_all(mcw.probe_seed, mcw.probe_paths))

    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"calib_surface_prices": calib.surface_prices(),
                   "cli_synth_prices": synth, "mc_probe_digest": digest}, fh)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}: {len(synth)} synth surfaces")
    return 0


if __name__ == "__main__":
    sys.exit(main())
