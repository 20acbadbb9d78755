"""Compare the solver and regressor kernels of two source trees in one process.

    python scripts/ab_kernels.py PARENT_TREE CHANGED_TREE [--rounds 20]

Each tree is a checkout of this repository (or its src/ directory).  Its
``dynid`` package is loaded under its own name (``dynid_a``, ``dynid_b``), so
both live in one interpreter and share one numpy and one BLAS.  Every round
times each kernel on both sides, in alternating order, and takes the
median of a few repeats; the paired ratio b/a of a round cancels most of
the machine's drift.  The kernels:

- ``torque_2500`` and ``terms_2500``: a 2500-state ``solver.torque`` and
  ``solver.torque_terms`` of the exact UR10 model (the solver workload's
  batch, on ``random_trajectory(6, seed=3)``);
- ``torque_1x250``: 250 single-state ``solver.torque`` calls back to back;
- ``inertia_1x250`` and ``terms_1x250``: 250 single-state
  ``solver.inertia`` and ``solver.torque_terms`` calls, each n or three
  motion blocks over one configuration;
- ``regressor_7500``: a 7500-state regressor pass, ``regressor_stack`` over
  ``BLOCK_STATES``-state blocks, as identification builds it;
- ``simulate_7500``: ``dataio.simulate`` of the default plant over the same
  7500 states, no noise: ``newton_euler`` on one set that every joint
  shares.

It prints each side's median, the median and quartiles of the paired
ratios and how many rounds each side won.  Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with the benchmark's.
It needs numpy and the two trees only.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np


def load_tree(tree: str, name: str):
    """Import the dynid package of a tree as the top-level package name."""
    root = Path(tree).resolve()
    pkg = root / "dynid"
    if not pkg.is_dir():
        pkg = root / "src" / "dynid"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("dataio", "dynamics", "reduction", "solver", "trajectory"):
        importlib.import_module(f"{name}.{sub}")
    return module


def exact_model(pkg):
    """The exact current-level model of the default plant."""
    plant = pkg.dataio.ur10_default_model()
    chain = plant.chain
    bmap = pkg.reduction.compute_base_map(chain)
    K = np.asarray(plant.gains)
    params = pkg.dynamics.DynamicParameters(
        links=plant.links, friction=[(0.0, 0.0, 0.0)] * chain.n)
    base = bmap.base_parameters(params)
    chi = np.vstack([bmap.regroup_for_joint(j, base / K[j])
                     for j in range(chain.n)])
    f = plant.friction
    psi = pkg.dynamics.FrictionSet(
        f_o=np.asarray(f.f_o) / K, f_v=np.asarray(f.f_v) / K,
        f_c=np.asarray(f.f_c) / K, delta=f.delta, nu=f.nu)
    return pkg.solver.IdentifiedModel(name="ur10-exact", chain=chain,
                                      map=bmap, chi=chi, psi=psi, gains=K)


def kernels(pkg):
    """Name -> zero-argument callable, on inputs of this side's own."""
    model = exact_model(pkg)
    chain = model.chain
    traj = pkg.trajectory.random_trajectory(6, seed=3)
    t = np.arange(7500) / 125.0
    q, qd, qdd = (np.ascontiguousarray(x)
                  for x in pkg.trajectory.evaluate(traj, t))
    Q, Qd, Qdd = q[:2500], qd[:2500], qdd[:2500]
    torque, terms = pkg.solver.torque, pkg.solver.torque_terms
    inertia = pkg.solver.inertia
    regressor_stack = pkg.dynamics.regressor_stack
    block = pkg.dynamics.BLOCK_STATES
    plant = pkg.dataio.ur10_default_model()

    def torque_1x250():
        for k in range(250):
            torque(model, Q[k], Qd[k], Qdd[k])

    def inertia_1x250():
        for k in range(250):
            inertia(model, Q[k])

    def terms_1x250():
        for k in range(250):
            terms(model, Q[k], Qd[k], Qdd[k])

    def regressor_7500():
        for start in range(0, len(q), block):
            rows = slice(start, start + block)
            regressor_stack(chain, q[rows], qd[rows], qdd[rows])

    return {"torque_2500": lambda: torque(model, Q, Qd, Qdd),
            "terms_2500": lambda: terms(model, Q, Qd, Qdd),
            "torque_1x250": torque_1x250,
            "inertia_1x250": inertia_1x250,
            "terms_1x250": terms_1x250,
            "regressor_7500": regressor_7500,
            "simulate_7500": lambda: pkg.dataio.simulate(
                plant, states=(t, q, qd))}


def median_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", help="the reference tree (the parent)")
    ap.add_argument("tree_b", help="the tree under test")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5,
                    help="calls per kernel, side and round; median taken")
    args = ap.parse_args()

    sides = {"a": kernels(load_tree(args.tree_a, "dynid_a")),
             "b": kernels(load_tree(args.tree_b, "dynid_b"))}
    names = list(sides["a"])
    for side in sides.values():  # warm caches and the model's folds
        for fn in side.values():
            fn()
    times = {(s, k): [] for s in sides for k in names}
    for r in range(args.rounds):
        order = "ab" if r % 2 == 0 else "ba"
        for k in names:
            for s in order:
                times[s, k].append(median_of(sides[s][k], args.repeats))

    print(f"numpy {np.__version__}, {args.rounds} rounds, "
          f"{args.repeats} repeats each")
    print(f"{'kernel':<16}{'a median':>12}{'b median':>12}"
          f"{'b/a median':>12}{'b/a q1':>9}{'b/a q3':>9}{'b wins':>8}")
    for k in names:
        a, b = np.array(times["a", k]), np.array(times["b", k])
        ratio = b / a
        q1, med, q3 = np.percentile(ratio, [25, 50, 75])
        print(f"{k:<16}{np.median(a) * 1e3:>10.3f}ms"
              f"{np.median(b) * 1e3:>10.3f}ms{med:>12.3f}{q1:>9.3f}{q3:>9.3f}"
              f"{int(np.sum(b < a)):>5}/{len(a)}")


if __name__ == "__main__":
    main()
