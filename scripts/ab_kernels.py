"""Compare the solver, regressor and stage kernels of two trees in one process.

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
- ``simulate_7500``: ``dataio.simulate`` of the default plant over 7500
  states of the same trajectory, no noise: ``newton_euler`` on one set
  that every joint shares;
- ``columns_7500``: the column request stage 1 makes,
  ``dynamics.regressor_columns`` of each joint's active inertial base
  columns on its linearity-region rows of run a of the data below;
- ``stages_7500``: ``estimation.identify_coefficients`` and
  ``estimate_gains`` on fixed c05-shaped data (three merged 20 s noisy
  runs per scenario, the payload known as mass and com), with the exact
  model's friction in stage 3: the fits and the regressor columns they
  read;
- ``friction_7500``: ``estimation.fit_friction`` alone on run a of the
  same data, on the residual currents of stage 1's result there, made
  once, outside the timing: stage 2's searches, which ``stages_7500``
  skips;
- ``gains_7500``: ``estimation.estimate_gains`` alone on the same data,
  with stage 1's result on run a made once, outside the timing: stage 3's
  fits and run b's column request;
- ``split_8501x40``: ``reduction.split_columns`` of a seeded Gaussian
  8501 x 40 matrix, the shape of stage 3's largest stack on that data;
- ``read_samples_2500``: ``dataio.read_samples`` of a 2500-row sample
  file (a 20 s noisy run of the default plant), each side reading the
  file it wrote into a temporary directory.

It prints each side's median, the median and quartiles of the paired
ratios and how many rounds each side won.  Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1``) for figures comparable with the benchmark's.
It needs numpy and the two trees only.

Both trees share one process, so thread, allocator and BLAS state leak
from one side to the other: a helper thread pool kept alive by one side
is alive for both, and a single-state ratio read 1.00 here against a
live idle pool that separate-process runs read as +8 %.  Claims about
latency or memory that threads can move need separate-process runs
(``perfbench/run.py``, alternating sides).
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
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
    for sub in ("dataio", "dynamics", "estimation", "payload", "reduction",
                "solver", "trajectory"):
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


def c05_runs(pkg):
    """c05's noisy runs, merged per scenario, and its known payload."""
    tr, dio = pkg.trajectory, pkg.dataio
    plant = dio.ur10_default_model()
    spec = pkg.payload.PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                                   inertia_com=np.diag((0.030, 0.035, 0.030)))
    runs = []
    for name, seeds, noise, payload in (("A", (313, 707), (21, 22, 23), None),
                                        ("B", (909, 1203), (31, 32, 33), spec)):
        trajs = [tr.validation_trajectory(name)] + [
            tr.random_trajectory(6, seed=s) for s in seeds]
        runs.append(dio.merge_sample_sets(
            dio.simulate(plant, traj, duration=20.0, noise_v=0.05, seed=seed,
                         payload=payload)
            for traj, seed in zip(trajs, noise)))
    return runs, pkg.estimation.KnownPayload(spec=spec, known=("mass", "com"))


def kernels(pkg, workdir: str):
    """Name -> zero-argument callable, on inputs of this side's own; files
    go into workdir."""
    model = exact_model(pkg)
    chain = model.chain
    traj = pkg.trajectory.random_trajectory(6, seed=3)
    t = np.arange(7500) / 125.0
    q, qd, qdd = (np.ascontiguousarray(x)
                  for x in pkg.trajectory.evaluate(traj, t))
    Q, Qd, Qdd = q[:2500], qd[:2500], qdd[:2500]
    torque, terms = pkg.solver.torque, pkg.solver.torque_terms
    inertia = pkg.solver.inertia
    plant = pkg.dataio.ur10_default_model()
    (da, db), known = c05_runs(pkg)
    est = pkg.estimation
    bmap, rows = model.map, da.mask
    cols = [bmap.inertial_columns[np.flatnonzero(m[:bmap.c_inertial])]
            for m in bmap.joint_masks]
    tall = np.random.default_rng(0).standard_normal((8501, 40))
    csv = Path(workdir) / f"{pkg.__name__}_2500.csv"
    pkg.dataio.write_samples(pkg.dataio.simulate(
        plant, traj, duration=20.0, noise_v=0.05, seed=21), csv)

    def torque_1x250():
        for k in range(250):
            torque(model, Q[k], Qd[k], Qdd[k])

    def inertia_1x250():
        for k in range(250):
            inertia(model, Q[k])

    def terms_1x250():
        for k in range(250):
            terms(model, Q[k], Qd[k], Qdd[k])

    def columns_7500():
        out = [np.empty((len(c), k)) for c, k in zip(cols, rows.sum(0))]
        pkg.dynamics.regressor_columns(chain, da.q, da.qd, da.qdd, cols, out,
                                       rows)

    def stages_7500():
        chi = est.identify_coefficients(model.map, chain, da)
        est.estimate_gains(da, db, known, model.map, chain, chi, model.psi)

    chi = est.identify_coefficients(model.map, chain, da)
    resid = est.friction_residual_currents(model.map, chain, chi, da)

    return {"torque_2500": lambda: torque(model, Q, Qd, Qdd),
            "terms_2500": lambda: terms(model, Q, Qd, Qdd),
            "torque_1x250": torque_1x250,
            "inertia_1x250": inertia_1x250,
            "terms_1x250": terms_1x250,
            "simulate_7500": lambda: pkg.dataio.simulate(
                plant, states=(t, q, qd)),
            "columns_7500": columns_7500,
            "stages_7500": stages_7500,
            "friction_7500": lambda: est.fit_friction(
                da.qd, resid, threshold=da.qd_threshold),
            "gains_7500": lambda: est.estimate_gains(
                da, db, known, model.map, chain, chi, model.psi),
            "split_8501x40": lambda: pkg.reduction.split_columns(tall),
            "read_samples_2500": lambda: pkg.dataio.read_samples(csv)}


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

    with tempfile.TemporaryDirectory() as workdir:
        sides = {"a": kernels(load_tree(args.tree_a, "dynid_a"), workdir),
                 "b": kernels(load_tree(args.tree_b, "dynid_b"), workdir)}
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
