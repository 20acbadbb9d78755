"""Accuracy scorecard: the numbers the correctness work is judged by, in
one JSON file.

    python scripts/scorecard.py [--out scorecard.json]

Numpy only, deterministic, and a few minutes on two cores.  The data
generators are the tests' own (tests/conftest.py), so the scorecard and
the tests draw the same plants.  Sections:

- ``c05_draws``: c05's data (tests/conftest.py's c05_runs) at noise draws
  21, 41 and 61, with payload runs 31, 51 and 71.  For each draw: the
  three stages' worst gain error against the plant, and on the clean
  held-out runs ``random_trajectory(6, seed=11)`` and ``seed=12`` each
  joint's MNAE of the complete model and its eta, the MNAE of the model's
  own stage-1 prediction (``estimation.predict_currents``) over the
  complete model's.

The package imported is whichever ``dynid`` is first on the path, so
``PYTHONPATH=OTHER_TREE/src`` scores another checkout with the same
generators.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH: another tree wins
sys.path.append(str(ROOT / "tests"))

import dynid  # noqa: E402
from conftest import c05_runs  # noqa: E402
from dynid.cli import mnae  # noqa: E402
from dynid.dataio import IdentifiedModel, simulate, ur10_default_model  # noqa: E402
from dynid.estimation import (estimate_gains, fit_friction,  # noqa: E402
                              friction_residual_currents,
                              identify_coefficients, predict_currents)
from dynid.reduction import compute_base_map  # noqa: E402
from dynid.solver import torque  # noqa: E402
from dynid.trajectory import random_trajectory  # noqa: E402

DRAWS = (21, 41, 61)
HELD_OUT = (11, 12)


def c05_draws() -> dict:
    plant = ur10_default_model()
    chain = plant.chain
    bmap = compute_base_map(chain)
    K = np.asarray(plant.gains)
    held = {seed: simulate(plant, random_trajectory(6, seed=seed),
                           duration=20.0) for seed in HELD_OUT}
    out = {}
    for draw in DRAWS:
        da, db, known = c05_runs(plant, draw, draw + 10)
        chi = identify_coefficients(bmap, chain, da)
        resid = friction_residual_currents(bmap, chain, chi, da)
        psi = fit_friction(da.qd, resid, threshold=da.qd_threshold).friction
        gains = estimate_gains(da, db, known, bmap, chain, chi, psi).gains
        model = IdentifiedModel(name="c05", chain=chain, map=bmap,
                                chi=chi.as_matrix(), psi=psi, gains=gains)
        row = {"gain_error_pct": (np.abs(gains - K) / K * 100).tolist()}
        for seed, run in held.items():
            states = (run.q, run.qd, run.qdd)
            complete = torque(model, *states) / gains
            stage1 = predict_currents(bmap, chain, chi, *states)
            ours = np.array([mnae(run.v[:, j], complete[:, j])
                             for j in range(chain.n)])
            base = np.array([mnae(run.v[:, j], stage1[:, j])
                             for j in range(chain.n)])
            row[f"held_out_{seed}"] = {"mnae_pct": ours.tolist(),
                                       "eta": (base / ours).tolist()}
        mnaes = np.array([row[f"held_out_{s}"]["mnae_pct"] for s in HELD_OUT])
        etas = np.array([row[f"held_out_{s}"]["eta"] for s in HELD_OUT])
        row["summary"] = {
            "worst_gain_pct": max(row["gain_error_pct"]),
            "held_out_mnae_max_pct": float(mnaes.max()),
            "held_out_mnae_mean_pct": float(mnaes.mean()),
            "lowest_eta": float(etas.min())}
        out[f"draw_{draw}"] = row
    return out


SECTIONS = {"c05_draws": c05_draws}


def tree_commit() -> str | None:
    """The commit of the checkout that holds the imported package, with
    -dirty for uncommitted changes; None outside a git checkout."""
    pkg = Path(dynid.__file__).resolve().parent
    proc = subprocess.run(["git", "-C", str(pkg), "describe", "--always",
                           "--dirty", "--abbrev=12"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="scorecard.json")
    args = ap.parse_args()
    result = {"commit": tree_commit(),
              "package": str(Path(dynid.__file__).resolve().parent),
              "numpy": np.__version__,
              "sections": {name: fn() for name, fn in SECTIONS.items()}}
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, section in result["sections"].items():
        for key, row in section.items():
            print(name, key, " ".join(f"{k} {v:.4g}"
                                      for k, v in row["summary"].items()))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
