"""Pipeline driver and reporting.

Subcommands cover the whole workflow: excitation trajectory generation,
synthetic data simulation, the three identification stages, inverse
dynamics solving, and validation reports with MSE/MNAE metrics.

Exit codes: 0 success, 1 usage (including stage-order violations),
2 malformed input files or values, 3 numeric failure (rank or
convergence).  Every failure prints one machine-parsable line
`error=<code> msg=...` to stderr.  All outputs are deterministic:
identical inputs and seeds give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dataio import (QD_THRESHOLD_DEFAULT, IdentifiedModel, SampleSet,
                     SchemaError, load_identified_model, merge_sample_sets,
                     read_payload, read_robot_model, read_samples,
                     save_identified_model, simulate, write_samples,
                     write_table)
from .estimation import (EstimationError, KnownPayload, estimate_gains,
                         fit_friction, friction_residual_currents,
                         identify_coefficients)
from .reduction import compute_base_map
from .solver import configure_payload, torque, torque_terms
from .trajectory import (RATE_DEFAULT, random_trajectory,
                         sample as sample_trajectory)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3

DURATION_DEFAULT = 20.0


class UsageError(Exception):
    """Bad invocation: wrong flags, wrong file roles, or stage order."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on bad flags; route through the
    # common error path instead so usage failures report exit code 1
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# metrics

@dataclass(frozen=True)
class Metrics:
    """Per-joint validation metrics.

    mnae values are percentages; mnae_nonlinear covers only samples inside
    the low-velocity friction region.  eta is the per-joint improvement
    factor MNAE_baseline / MNAE_ours, present only when a baseline was
    supplied.
    """

    mse: np.ndarray
    mnae: np.ndarray
    mnae_nonlinear: np.ndarray
    eta: np.ndarray | None = None


def mse(x, y) -> float:
    """Mean squared error between two equal-length sample vectors."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("mse needs two 1-D vectors of equal length")
    return float(np.mean((x - y) ** 2))


def mnae(x, y) -> float:
    """Mean absolute error normalized by the range of x, in percent.

    The factor 200/m (not 100/m) matches the convention of reporting
    against the half-range.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("mnae needs two 1-D vectors of equal length")
    rng = float(np.max(x) - np.min(x))
    if rng <= 0.0:
        raise ValueError("mnae is undefined for a zero-range reference")
    return 200.0 * float(np.mean(np.abs(x - y))) / rng


def validation_metrics(samples: SampleSet, predicted: np.ndarray,
                       baseline: np.ndarray | None = None) -> Metrics:
    """Per-joint metrics of predicted vs measured currents.

    The region column restricts the comparison to samples whose own joint
    velocity lies inside the friction nonlinearity band; joints with fewer
    than two such samples (or a degenerate range there) get nan.
    """
    x = samples.v
    predicted = np.asarray(predicted, dtype=float)
    if predicted.shape != x.shape:
        raise ValueError("prediction array must match the sample array")
    n = samples.n
    region = ~samples.mask
    mses = np.array([mse(x[:, j], predicted[:, j]) for j in range(n)])
    mnaes = np.array([mnae(x[:, j], predicted[:, j]) for j in range(n)])
    reg = np.empty(n)
    for j in range(n):
        r = region[:, j]
        xr = x[r, j]
        if xr.size < 2 or float(np.max(xr) - np.min(xr)) <= 0.0:
            reg[j] = np.nan
        else:
            reg[j] = mnae(xr, predicted[r, j])
    eta = None
    if baseline is not None:
        baseline = np.asarray(baseline, dtype=float)
        if baseline.shape != x.shape:
            raise ValueError("baseline array must match the sample array")
        base = np.array([mnae(x[:, j], baseline[:, j]) for j in range(n)])
        with np.errstate(divide="ignore"):
            eta = base / mnaes
    return Metrics(mse=mses, mnae=mnaes, mnae_nonlinear=reg, eta=eta)


def write_report(metrics: Metrics, path) -> None:
    """Write the per-joint validation report CSV."""
    header = ["joint", "mse", "mnae", "mnae_nonlinear_region"]
    columns = [np.arange(1, metrics.mse.size + 1), metrics.mse, metrics.mnae,
               metrics.mnae_nonlinear]
    if metrics.eta is not None:
        header.append("eta")
        columns.append(metrics.eta)
    write_table(path, header, np.column_stack(columns))


# ---------------------------------------------------------------------------
# shared input handling

_SCENARIO_DATA = {"a": "payload-free", "b": "payload-attached"}


def _read_runs(paths, flag: str, n: int, qd_threshold: float,
               scenario: str | None = None) -> SampleSet:
    """Read the sample files given to flag and merge them.

    Each file is read, and so differentiated, on its own, and checked on
    its own, so a failure names it: n joints (SchemaError), and the
    scenario tag when one is given (UsageError).
    """
    sets = []
    for p in paths:
        s = read_samples(p, qd_threshold=qd_threshold)
        if s.n != n:
            raise SchemaError(f"{flag} file {p} covers {s.n} joints, "
                              f"expected {n}")
        if scenario is not None and s.scenario != scenario:
            raise UsageError(f"{flag} must hold scenario '{scenario}' "
                             f"({_SCENARIO_DATA[scenario]}) data; {p} holds "
                             f"scenario '{s.scenario}'")
        sets.append(s)
    return merge_sample_sets(sets)


_STAGES = ("linear", "friction", "gains")
_STAGE_HINT = "run `identify {0}` first (missing stage: {0})"


def _load_stage(path, need: str) -> IdentifiedModel:
    """Load an identified model, requiring it to reach the given stage."""
    if not os.path.exists(path):
        raise UsageError(f"model file {path} not found; "
                         + _STAGE_HINT.format("linear"))
    model = load_identified_model(path)
    held = _STAGES.index(model.stage)
    if held < _STAGES.index(need):
        raise UsageError(f"{path} is identified only through stage "
                         f"'{model.stage}'; "
                         + _STAGE_HINT.format(_STAGES[held + 1]))
    return model


# ---------------------------------------------------------------------------
# commands

def _report_irls_cap(record) -> None:
    """Name the joints whose robust weights still moved at the IRLS cap."""
    capped = [str(j + 1) for j, ok in enumerate(record.irls_converged)
              if not ok]
    if capped:
        print(f"robust weights still moving at IRLS iteration cap "
              f"{max(record.irls_iterations)} on joint(s) "
              f"{', '.join(capped)}; fitted with the last iterate")


def cmd_traj_gen(a) -> None:
    plant = read_robot_model(a.robot)
    traj = random_trajectory(plant.chain.n, seed=a.seed)
    t, q, qd, qdd = sample_trajectory(traj, rate=a.rate, duration=a.duration)
    s = SampleSet(t=t, q=q, qd=qd, qdd=qdd, v=np.zeros_like(q),
                  scenario="a")
    write_samples(s, a.out)
    print(f"wrote {s.m} trajectory samples to {a.out}")


def cmd_simulate(a) -> None:
    plant = read_robot_model(a.robot)
    if not plant.is_complete:
        raise SchemaError(f"{a.robot}: simulation needs a complete plant "
                          "(inertial, friction, and gain sections)")
    traj = _read_runs([a.traj], "--traj", plant.chain.n,
                      QD_THRESHOLD_DEFAULT)
    payload = read_payload(a.payload) if a.payload else None
    s = simulate(plant, states=(traj.t, traj.q, traj.qd),
                 noise_v=a.noise_v, noise_qd=a.noise_qd, seed=a.seed,
                 payload=payload)
    write_samples(s, a.out)
    print(f"wrote {s.m} simulated samples (scenario {s.scenario}) to {a.out}")


def cmd_identify_linear(a) -> None:
    plant = read_robot_model(a.robot)
    chain = plant.chain
    s = _read_runs(a.samples, "--samples", chain.n, a.qd_threshold, "a")
    map_ = compute_base_map(chain)
    chi = identify_coefficients(map_, chain, s)
    model = IdentifiedModel(name=plant.name, chain=chain, map=map_,
                            chi=chi.as_matrix(), qd_threshold=a.qd_threshold)
    save_identified_model(model, a.out)
    conds = ", ".join(f"{c:.3g}" for c in chi.conditions)
    print(f"linear stage done ({s.m} samples); conditions {conds}")
    _report_irls_cap(chi)
    print(f"wrote {a.out}")


def cmd_identify_friction(a) -> None:
    model = _load_stage(a.model, "linear")
    s = _read_runs(a.samples, "--samples", model.n, model.qd_threshold, "a")
    resid = friction_residual_currents(model.map, model.chain, model.chi, s)
    fit = fit_friction(s.qd, resid, threshold=model.qd_threshold)
    # downstream gains depend on the friction estimate; drop them
    out = a.out or a.model
    save_identified_model(replace(model, psi=fit.friction, gains=None), out)
    counts = ", ".join(str(c) for c in fit.region_counts)
    print(f"friction stage done; low-velocity sample counts {counts}")
    print(f"wrote {out}")


def cmd_identify_gains(a) -> None:
    model = _load_stage(a.model, "friction")
    spec = read_payload(a.payload)  # its SchemaError is a ValueError too
    known = tuple(k.strip() for k in a.known.split(",") if k.strip())
    try:
        if not known:
            raise ValueError("no payload parameter group is named")
        kp = KnownPayload(spec=spec, known=known)
    except ValueError as e:
        raise UsageError(f"--known {a.known!r}: {e}; give 'mass', "
                         "'mass,com' or 'mass,com,inertia'") from None
    sa = _read_runs(a.samples_a, "--samples-a", model.n, model.qd_threshold,
                    "a")
    sb = _read_runs(a.samples_b, "--samples-b", model.n, model.qd_threshold,
                    "b")
    est = estimate_gains(sa, sb, kp, model.map, model.chain, model.chi,
                         model.psi)
    out = a.out or a.model
    save_identified_model(replace(model, gains=est.gains), out)
    gains = ", ".join(f"{g:.17g}" for g in est.gains)
    flags = ", ".join("full" if f else "regrouped" for f in est.full_rank)
    print(f"gain stage done; K = [{gains}]")
    print(f"per-joint solve paths: {flags}")
    _report_irls_cap(est)
    print(f"wrote {out}")


def cmd_solve(a) -> None:
    model = _load_stage(a.model, "gains")
    if a.payload:
        model = configure_payload(model, read_payload(a.payload))
    s = _read_runs([a.traj], "--traj", model.n, model.qd_threshold)
    inert, cor, fric, grav = torque_terms(model, s.q, s.qd, s.qdd)
    tau = inert + cor + fric + grav
    n = model.n
    cols = ["t"]
    for name in ("tau", "inertia", "coriolis", "friction", "gravity"):
        cols += [f"{name}{j+1}" for j in range(n)]
    write_table(a.out, cols, np.column_stack((s.t, tau, inert, cor, fric,
                                              grav)))
    print(f"wrote torques and term decomposition for {s.m} samples "
          f"to {a.out}")


def cmd_validate(a) -> None:
    model = _load_stage(a.model, "gains")
    # the model is the bare arm's; a payload run would be scored against
    # torques that leave the payload out
    s = _read_runs([a.samples], "--samples", model.n, model.qd_threshold,
                   "a")
    v_hat = torque(model, s.q, s.qd, s.qdd) / model.gains
    baseline = None
    if a.baseline:
        b = _read_runs([a.baseline], "--baseline", model.n,
                       model.qd_threshold)
        if b.m != s.m:
            raise SchemaError(f"--baseline file {a.baseline} holds {b.m} "
                              f"samples, {a.samples} holds {s.m}; baseline "
                              "predictions must match the sample count")
        baseline = b.v
    metrics = validation_metrics(s, v_hat, baseline)
    write_report(metrics, a.report)
    for j in range(model.n):
        extra = ""
        if metrics.eta is not None:
            extra = f"  eta {metrics.eta[j]:.3f}"
        print(f"joint {j+1}: mse {metrics.mse[j]:.6g}  "
              f"mnae {metrics.mnae[j]:.3f} %  "
              f"region {metrics.mnae_nonlinear[j]:.3f} %{extra}")
    print(f"wrote {a.report}")


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="dynid",
                description="manipulator dynamic model identification")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    tp = sub.add_parser("traj", help="excitation trajectory utilities")
    tsub = tp.add_subparsers(dest="traj_command", required=True,
                             metavar="subcommand")
    g = tsub.add_parser("gen", help="generate a seeded excitation trajectory")
    g.add_argument("--robot", required=True, help="robot model file")
    g.add_argument("--seed", required=True, type=int)
    g.add_argument("--out", required=True, help="output sample CSV")
    g.add_argument("--rate", type=float, default=RATE_DEFAULT,
                   help="sample rate [Hz]")
    g.add_argument("--duration", type=float, default=DURATION_DEFAULT,
                   help="trajectory length [s]")
    g.set_defaults(func=cmd_traj_gen)

    sp = sub.add_parser("simulate", help="simulate current logs over a "
                                         "trajectory")
    sp.add_argument("--robot", required=True, help="complete plant model file")
    sp.add_argument("--traj", required=True, help="trajectory sample CSV")
    sp.add_argument("--payload", help="payload file (marks scenario 'b')")
    sp.add_argument("--noise-v", type=float, default=0.0,
                    help="current noise std [A]")
    sp.add_argument("--noise-qd", type=float, default=0.0,
                    help="velocity noise std [rad/s]")
    sp.add_argument("--seed", required=True, type=int)
    sp.add_argument("--out", required=True, help="output sample CSV")
    sp.set_defaults(func=cmd_simulate)

    ip = sub.add_parser("identify", help="run an identification stage")
    isub = ip.add_subparsers(dest="stage", required=True, metavar="stage")

    il = isub.add_parser("linear", help="stage 1: dynamic coefficients")
    il.add_argument("--robot", required=True,
                    help="robot model file (kinematics suffice)")
    il.add_argument("--samples", required=True, nargs="+",
                    help="one or more payload-free sample CSVs, merged "
                         "for the fit")
    il.add_argument("--out", required=True, help="identified model file")
    il.add_argument("--qd-threshold", type=float,
                    default=QD_THRESHOLD_DEFAULT)
    il.set_defaults(func=cmd_identify_linear)

    if_ = isub.add_parser("friction", help="stage 2: low-velocity friction")
    if_.add_argument("--model", required=True,
                     help="identified model from the linear stage")
    if_.add_argument("--samples", required=True, nargs="+",
                     help="payload-free sample CSVs")
    if_.add_argument("--out", help="output model file (default: update "
                                   "--model in place)")
    if_.set_defaults(func=cmd_identify_friction)

    ig = isub.add_parser("gains", help="stage 3: drive gains via payload")
    ig.add_argument("--model", required=True,
                    help="identified model from the friction stage")
    ig.add_argument("--samples-a", required=True, nargs="+",
                    help="payload-free sample CSVs")
    ig.add_argument("--samples-b", required=True, nargs="+",
                    help="payload-attached sample CSVs")
    ig.add_argument("--payload", required=True, help="payload file")
    ig.add_argument("--known", default="mass,com,inertia",
                    help="comma-separated payload coordinate groups to "
                         "trust (mass, com, inertia)")
    ig.add_argument("--out", help="output model file (default: update "
                                  "--model in place)")
    ig.set_defaults(func=cmd_identify_gains)

    so = sub.add_parser("solve", help="evaluate torques and EOM terms")
    so.add_argument("--model", required=True, help="fully identified model")
    so.add_argument("--payload", help="payload file to configure")
    so.add_argument("--traj", required=True, help="sample CSV with states")
    so.add_argument("--out", required=True, help="output CSV")
    so.set_defaults(func=cmd_solve)

    vp = sub.add_parser("validate", help="score predictions against "
                                         "measured currents")
    vp.add_argument("--model", required=True, help="fully identified model")
    vp.add_argument("--samples", required=True,
                    help="measured payload-free sample CSV")
    vp.add_argument("--baseline",
                    help="sample CSV whose current columns hold a baseline "
                         "prediction; adds the eta column")
    vp.add_argument("--report", required=True, help="output report CSV")
    vp.set_defaults(func=cmd_validate)

    return p


def _fail(code: int, msg: str) -> int:
    msg = " ".join(str(msg).split())
    print(f"error={code} msg={msg}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
        return EXIT_OK
    except UsageError as e:
        return _fail(EXIT_USAGE, str(e))
    except SchemaError as e:
        return _fail(EXIT_SCHEMA, str(e))
    except EstimationError as e:
        return _fail(EXIT_NUMERIC, str(e))
    except np.linalg.LinAlgError as e:
        return _fail(EXIT_NUMERIC, str(e))
    except (OSError, ValueError) as e:
        return _fail(EXIT_SCHEMA, str(e))


if __name__ == "__main__":
    sys.exit(main())
