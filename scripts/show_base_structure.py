"""Print the identifiable-parameter structure of a serial chain.

For the default arm (or a robot description given with --robot) this shows
how the 13n raw dynamic parameters collapse onto the base set: total and
inertial base counts, their stability across probe seeds, which joints
have row-dependent columns under each seed, a numeric check that the
reduced regressor reproduces the full one, and a per-joint table of which
base columns each drive row can and cannot separate on its own.
"""
import argparse

import numpy as np

from dynid.dataio import read_robot_model, ur10_default_model
from dynid.dynamics import DynamicParameters, regressor_stack
from dynid.reduction import (compute_base_map, minimal_regressor_stack,
                             probe_states)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--robot", help="robot model file; default built-in arm")
    ap.add_argument("--seeds", default="0,1,2,3",
                    help="comma list of probe seeds to compare")
    args = ap.parse_args()

    model = read_robot_model(args.robot) if args.robot else ur10_default_model()
    chain = model.chain
    n = chain.n
    seeds = [int(s) for s in args.seeds.split(",")]

    maps = [compute_base_map(chain, seed=s) for s in seeds]
    bmap = maps[0]
    print(f"joints: {n}   raw parameters: {13 * n} "
          f"({10 * n} inertial + {3 * n} friction)")
    print(f"base parameters: c = {bmap.c}   inertial: c_in = {bmap.c_inertial}")

    counts = {(m.c, m.c_inertial) for m in maps}
    same_cols = all(np.array_equal(m.inertial_columns,
                                   bmap.inertial_columns) for m in maps)
    print(f"across probe seeds {seeds}: counts "
          f"{'stable' if len(counts) == 1 else 'UNSTABLE ' + str(counts)}, "
          f"column selection {'identical' if same_cols else 'varies'}")
    # which joints regroup decides which stage-3 gain solves are
    # rank-deficient, so a seed-dependent answer is worth seeing
    for s, m in zip(seeds, maps):
        joints = [j + 1 for j in range(n) if m.joint_depcols[j].size]
        print(f"probe seed {s}: joints with row-dependent columns "
              f"{joints if joints else 'none'}")

    # reduced regressor must reproduce the full one for any parameter draw
    rng = np.random.default_rng(0)
    q, qd, qdd = probe_states(n, 40, seed=7)
    Y = regressor_stack(chain, q, qd, qdd)
    U = minimal_regressor_stack(bmap, chain, q, qd, qdd)
    P = bmap.projection_matrix()
    worst = 0.0
    for _ in range(5):
        pi = DynamicParameters.from_vector(rng.normal(size=13 * n), n).to_vector()
        err = np.max(np.abs(Y @ pi - U @ (P @ pi)))
        worst = max(worst, err)
    print(f"projection residual over random draws: {worst:.3e}")

    print("\nper-joint view of the inertial base columns:")
    print(f"{'joint':>5} {'active':>7} {'separable':>10} "
          f"{'regrouped':>10} {'own-row rank':>13}")
    for j in range(n):
        active = int(bmap.joint_masks[j, :bmap.c_inertial].sum())
        idc = len(bmap.joint_idcols[j])
        dep = len(bmap.joint_depcols[j])
        print(f"{j + 1:>5} {active:>7} {idc:>10} {dep:>10} "
              f"{idc:>9}/{active}")
    print("\nregrouped columns fold onto the separable ones when a single "
          "joint row is\nused alone; the stacked regressor still separates "
          "all of them.")


if __name__ == "__main__":
    main()
