#!/usr/bin/env python3
"""Regenerate the packaged constants manifest on the reference grids.

Run from the repository root after any change to the kernel evaluation or
the reference-grid definitions::

    python scripts/build_constants_manifest.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from frstokes.constants import constants_key, measure_constants  # noqa: E402
# the cells the b-properties suite reads
from frstokes.verification import GAMMA_GRID, RHO_GRID  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "frstokes", "data",
                   "constants.json")


def main():
    cells = {}
    t0 = time.time()
    for rho in RHO_GRID:
        for gamma in GAMMA_GRID:
            key = constants_key(rho, gamma)
            cells[key] = measure_constants(rho, gamma)
            print(f"{key}: {cells[key]['c_envelope_B']:.6f} "
                  f"{cells[key]['c_derivative_B']:.6f} "
                  f"{cells[key]['c_forcing_response']:.6f}")
    manifest = {
        "version": 1,
        "reference": {
            "lambda_1": 1.0,
            "horizon": 1.0,
            "epsilon": 0.5,
            "time_grid": "geomspace(1e-4, T, 241)",
        },
        "cells": cells,
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT} in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
