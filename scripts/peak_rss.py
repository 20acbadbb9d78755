"""Peak resident memory of each scripts/run_pipeline.py command, each run
in a fresh child process.

    python scripts/peak_rss.py [TREE ...] [--rounds 3]

Each TREE is a checkout of this repository (or its src/ directory); the
default is the checkout holding this script, which also writes the plant
files once, into a temporary directory.  Every round runs the 17 ``dynid`` commands of run_pipeline.py
one after another for each tree, each as ``python -m dynid`` with that
tree's package on PYTHONPATH and BLAS pinned to one thread, as the
benchmark runs them.  The child's peak resident set comes from
``os.wait4``, so the figure is that child's own ``ru_maxrss``, not the
running maximum over every child that a process's RUSAGE_CHILDREN reports.
Rounds alternate the order of the trees.  It prints, per command, the
median peak of each tree in MiB, and the command with the highest peak.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import run_pipeline  # noqa: E402  (imports dynid)

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tree_src(tree: str) -> str:
    root = Path(tree).resolve()
    src = root if (root / "dynid").is_dir() else root / "src"
    if not (src / "dynid" / "__init__.py").is_file():
        sys.exit(f"no dynid package under {tree}")
    return str(src)


def child_peak_mib(argv, env) -> float:
    """Run python -m dynid argv with its output discarded; its ru_maxrss."""
    args = [sys.executable, "-m", "dynid", *argv]
    pid = os.posix_spawn(sys.executable, args, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"dynid {' '.join(argv)} failed")
    return usage.ru_maxrss / 1024.0  # KiB on Linux


def one_round(src: str, cmds) -> list[float]:
    env = dict(os.environ, PYTHONPATH=src, **{v: "1" for v in PINNED})
    return [child_peak_mib(argv, env) for argv in cmds]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", default=[str(ROOT)])
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()
    srcs = [tree_src(t) for t in args.trees]
    peaks = {src: [] for src in srcs}
    with tempfile.TemporaryDirectory() as workdir:
        run_pipeline.write_plant(workdir)
        cmds = run_pipeline.commands(workdir, 0.05, 20.0)
        for r in range(args.rounds):
            for src in (srcs if r % 2 == 0 else srcs[::-1]):
                peaks[src].append(one_round(src, cmds))
    names = [" ".join(argv[:2]) if argv[0] in ("traj", "identify")
             else argv[0] for argv in cmds]
    med = {src: np.median(peaks[src], axis=0) for src in srcs}
    print(f"peak RSS per child, MiB, median of {args.rounds} round(s)")
    for k, src in enumerate(srcs):
        print(f"  tree {k}: {src}")
    print(f"{'#':>3}  {'command':<18}"
          + "".join(f"{f'tree {k}':>10}" for k in range(len(srcs))))
    for i, name in enumerate(names):
        print(f"{i + 1:>3}  {name:<18}"
              + "".join(f"{med[src][i]:>10.2f}" for src in srcs))
    for k, src in enumerate(srcs):
        i = int(np.argmax(med[src]))
        print(f"tree {k}: highest peak {med[src][i]:.2f} MiB, "
              f"command {i + 1} ({names[i]})")


if __name__ == "__main__":
    main()
