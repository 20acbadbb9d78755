"""End-to-end identification workflow on synthetic data.

Writes a reference plant and payload description into a working directory,
generates seeded excitation trajectories, simulates noisy current logs with
and without the payload, runs the three identification stages, and scores
the identified model on a clean held-out run.  Every artifact the toolkit
reads or writes lands in --workdir for inspection.
"""
import argparse
import os
import sys

from dynid.cli import main as dynid
from dynid.dataio import ur10_default_model, write_payload, write_robot_model
from dynid.payload import PayloadSpec

import numpy as np


def step(argv):
    print("$ dynid " + " ".join(argv))
    rc = dynid(argv)
    if rc != 0:
        sys.exit(rc)


def write_plant(workdir):
    """The reference plant and payload files the commands read."""
    write_robot_model(ur10_default_model(), f"{workdir}/robot.ini")
    write_payload(PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                              inertia_com=np.diag((0.030, 0.035, 0.030))),
                  f"{workdir}/payload.ini")


def commands(workdir, noise, duration):
    """The workflow's 17 dynid commands, in order, as argument lists."""
    robot = f"{workdir}/robot.ini"
    payload = f"{workdir}/payload.ini"
    cmds = []
    # several independently seeded runs per scenario: a single trajectory
    # is rarely persistently exciting, and merging runs also averages the
    # per-sample noise down
    run_a, run_b = [], []
    for k, seed in enumerate((1, 5, 9)):
        traj = f"{workdir}/traj_a{seed}.csv"
        out = f"{workdir}/run_a{seed}.csv"
        cmds.append(["traj", "gen", "--robot", robot, "--seed", str(seed),
                     "--duration", str(duration), "--out", traj])
        cmds.append(["simulate", "--robot", robot, "--traj", traj,
                     "--noise-v", str(noise), "--seed", str(21 + k),
                     "--out", out])
        run_a.append(out)
    for k, seed in enumerate((2, 7)):
        traj = f"{workdir}/traj_b{seed}.csv"
        out = f"{workdir}/run_b{seed}.csv"
        cmds.append(["traj", "gen", "--robot", robot, "--seed", str(seed),
                     "--duration", str(duration), "--out", traj])
        cmds.append(["simulate", "--robot", robot, "--traj", traj,
                     "--payload", payload, "--noise-v", str(noise),
                     "--seed", str(31 + k), "--out", out])
        run_b.append(out)

    model = f"{workdir}/model.ini"
    cmds.append(["identify", "linear", "--robot", robot,
                 "--samples", *run_a, "--out", model])
    cmds.append(["identify", "friction", "--model", model,
                 "--samples", *run_a])
    cmds.append(["identify", "gains", "--model", model,
                 "--samples-a", *run_a, "--samples-b", *run_b,
                 "--payload", payload, "--known", "mass,com"])

    held_traj = f"{workdir}/traj_held.csv"
    held_run = f"{workdir}/run_held.csv"
    cmds.append(["traj", "gen", "--robot", robot, "--seed", "11",
                 "--duration", str(duration), "--out", held_traj])
    cmds.append(["simulate", "--robot", robot, "--traj", held_traj,
                 "--seed", "0", "--out", held_run])
    cmds.append(["validate", "--model", model, "--samples", held_run,
                 "--report", f"{workdir}/report.csv"])
    cmds.append(["solve", "--model", model, "--traj", held_run,
                 "--out", f"{workdir}/torques.csv"])
    return cmds


def run(workdir, noise, duration):
    write_plant(workdir)
    for argv in commands(workdir, noise, duration):
        step(argv)
    print(f"\ndone; identified model in {workdir}/model.ini, "
          f"report in {workdir}/report.csv")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", default="pipeline_out",
                    help="directory for all generated files")
    ap.add_argument("--noise", type=float, default=0.05,
                    help="current noise std [A] on the training runs")
    ap.add_argument("--duration", type=float, default=20.0,
                    help="length of each run [s]")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)
    run(args.workdir, args.noise, args.duration)
