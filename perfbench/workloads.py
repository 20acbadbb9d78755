"""The three benchmark workloads.

Each workload builds its inputs from the workload seed, runs one operation
at a time (a closed loop with one caller), times it, and checks its outputs.
``op(tracer)`` returns a record of timings and accuracy; every check that
fails is reported to the shared ``Tally`` and makes that operation count as
failed.  With a tracer the operation runs with the span wrappers installed.

Library calls go through module attributes (``estimation.fit_friction``) so
the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

from dynid import cli, dataio, dynamics, estimation, payload, reduction, \
    solver, trajectory

import spans

DEFAULT_SEED = 0
RUN_DURATION = 20.0      # seconds of 125 Hz data per simulated run
NOISE_V = 0.05           # current noise std [A] on the training runs
REL_TOL = 1e-9           # c01's relative tolerance against scalar rnea
TERMS_TOL = 1e-9         # c07's absolute tolerance on the term decomposition
CHECK_STRIDE = 100       # every 100th batch state is checked against rnea
SINGLE_STATES = 250      # single-state calls per solver phase (b)
HELD_CALLS = 4           # held-out torque calls per identification
CLI_SAMPLES = 2          # speed kernel calls after each pipeline command

# the eccentric payload of tests/conftest.py and scripts/run_pipeline.py
PAYLOAD = payload.PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                              inertia_com=np.diag((0.030, 0.035, 0.030)))


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, problems) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.extend(problems)
        return not problems


def derived_seeds(seed: int, count: int) -> list[int]:
    """Trajectory and noise seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _traj(seed):
    return trajectory.random_trajectory(6, seed=seed)


def _failure(exc) -> list[str]:
    return [f"{type(exc).__name__}: {exc}"]


def gain_error_pct(gains, true_gains) -> float:
    k = np.asarray(true_gains)
    return float(np.max(np.abs(np.asarray(gains) - k) / k) * 100.0)


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when it passes

def check_gains(gains) -> list[str]:
    g = np.asarray(gains, dtype=float)
    if g.shape != (6,) or not np.all(np.isfinite(g)) or np.any(g <= 0):
        return [f"gains not finite and positive: {g.tolist()}"]
    return []


def check_same(label, value, reference) -> list[str]:
    """Repeats of an operation on the same inputs must agree bit for bit."""
    if reference is not None and not np.array_equal(value, reference):
        return [f"{label} differs from the first repeat on the same inputs"]
    return []


def check_torque(tau, reference) -> list[str]:
    err = np.max(np.abs(tau - reference) / (1.0 + np.abs(reference)))
    if not err < REL_TOL:
        return [f"torque off scalar rnea by rel {err:.3e} (limit {REL_TOL})"]
    return []


def check_terms(terms, tau) -> list[str]:
    err = np.max(np.abs(sum(terms) - tau))
    if not err < TERMS_TOL:
        return [f"torque terms sum off torque by {err:.3e} (limit "
                f"{TERMS_TOL})"]
    return []


def check_single(tau_1, batch_row) -> list[str]:
    if not np.array_equal(tau_1, batch_row):
        err = np.max(np.abs(tau_1 - batch_row))
        return [f"single-state torque differs from its batch row by {err:.3e}"]
    return []


def check_files(digests, reference) -> list[str]:
    if reference is None or digests == reference:
        return []
    diff = sorted(k for k in set(digests) | set(reference)
                  if digests.get(k) != reference.get(k))
    return [f"pipeline outputs not byte-identical to the first repeat: {diff}"]


# ---------------------------------------------------------------------------
# identify: library-level three-stage identification on c05-shaped data

class Identify:
    """Three merged noisy runs per scenario, payload known as mass,com.

    The default seed reproduces c05's data: training trajectories A/313/707
    with noise seeds 21+k, payload runs B/909/1203 with noise seeds 31+k, and
    the clean held-out run of trajectory seed 11.
    """

    name = "identify"
    min_ops = 2    # the repeat check needs a second identification

    def __init__(self, seed, tally, *, pace, run_duration=RUN_DURATION):
        self.tally = tally
        self.pace = pace
        if seed == DEFAULT_SEED:
            trains = [trajectory.validation_trajectory("A"), _traj(313),
                      _traj(707)]
            loads = [trajectory.validation_trajectory("B"), _traj(909),
                     _traj(1203)]
            held, noise_a, noise_b = _traj(11), [21, 22, 23], [31, 32, 33]
        else:
            s = derived_seeds(seed, 13)
            trains = [_traj(x) for x in s[0:3]]
            loads = [_traj(x) for x in s[3:6]]
            held, noise_a, noise_b = _traj(s[6]), s[7:10], s[10:13]
        self.plant = dataio.ur10_default_model()
        self.chain = self.plant.chain
        self.bmap = reduction.compute_base_map(self.chain)
        sim = dataio.simulate
        self.da = dataio.merge_sample_sets(
            sim(self.plant, tr, duration=run_duration, noise_v=NOISE_V,
                seed=ns) for tr, ns in zip(trains, noise_a))
        self.db = dataio.merge_sample_sets(
            sim(self.plant, tr, duration=run_duration, noise_v=NOISE_V,
                seed=ns, payload=PAYLOAD) for tr, ns in zip(loads, noise_b))
        self.held = sim(self.plant, held, duration=run_duration)
        self.known = estimation.KnownPayload(spec=PAYLOAD,
                                             known=("mass", "com"))
        self.distinct_states = self.da.m + self.db.m + self.held.m
        self.ref = None

    def op(self, tracer=None) -> dict:
        da, db, held, bmap, chain = self.da, self.db, self.held, self.bmap, \
            self.chain
        with spans.traced_op(tracer):
            t0 = time.perf_counter()
            try:
                chi = estimation.identify_coefficients(bmap, chain, da)
                resid = estimation.friction_residual_currents(bmap, chain,
                                                              chi, da)
                fit = estimation.fit_friction(da.qd, resid,
                                              threshold=da.qd_threshold)
                est = estimation.estimate_gains(da, db, self.known, bmap,
                                                chain, chi, fit.friction)
                model = solver.IdentifiedModel(
                    name="ur10-fit", chain=chain, map=bmap,
                    chi=chi.as_matrix(), psi=fit.friction, gains=est.gains)
                t1 = time.perf_counter()
                tau = solver.torque(model, held.q, held.qd, held.qdd)
                t2 = time.perf_counter()
                # repeats of the held-out call, outside the operation's time,
                # so a run's call median has a dozen samples, not three
                call_s, repeats = [t2 - t1], []
                for _ in range(HELD_CALLS - 1):
                    c0 = time.perf_counter()
                    repeats.append(solver.torque(model, held.q, held.qd,
                                                 held.qdd))
                    call_s.append(time.perf_counter() - c0)
            except Exception as exc:  # an operation that raises has failed
                self.tally.record(_failure(exc))
                return {}
        call_factor = None
        if tracer is None:
            # the machine's speed moves within a run, and the held-out
            # calls are short, so they are scaled by kernel samples taken
            # right after them
            first_sample = len(self.pace.times)
            self.pace.sample()
            call_factor = self.pace.factor(first_sample)
        gains = est.gains
        if self.ref is None:
            self.ref = (gains, tau)
        problems = self.check(gains, tau, self.ref)
        for again in repeats:
            problems += check_same("repeated held-out torque", again, tau)
        if not self.tally.record(problems):
            return {}
        v_hat = tau / gains
        mnaes = [cli.mnae(held.v[:, j], v_hat[:, j]) for j in range(6)]
        return {"op_s": t2 - t0, "call_s": call_s, "call_factor": call_factor,
                "gain_err_pct": gain_error_pct(gains, self.plant.gains),
                "mnae_pct": max(mnaes)}

    @staticmethod
    def check(gains, tau, ref) -> list[str]:
        return (check_gains(gains) + check_same("gains", gains, ref[0])
                + check_same("held-out torque", tau, ref[1]))


# ---------------------------------------------------------------------------
# cli_pipeline: the scripts/run_pipeline.py sequence as child processes

class CliPipeline:
    """The 17 ``dynid`` commands of scripts/run_pipeline.py, each a fresh
    ``python -m dynid`` child, one after another in a fresh directory.

    The default seed reproduces run_pipeline.py: trajectory seeds 1,5,9
    (arm only) and 2,7 (payload), noise seeds 21+k and 31+k, held-out
    trajectory 11 simulated without noise.
    """

    name = "cli_pipeline"
    min_ops = 2    # the byte-identity check needs a second repeat

    def __init__(self, seed, tally, *, workdir, env, launcher, pace):
        self.tally = tally
        self.workdir = workdir
        self.env = env
        self.launcher = launcher
        self.pace = pace
        if seed == DEFAULT_SEED:
            ta, tb, th = (1, 5, 9), (2, 7), 11
            na, nb = (21, 22, 23), (31, 32)
        else:
            s = derived_seeds(seed, 11)
            ta, tb, th, na, nb = s[0:3], s[3:5], s[5], s[6:9], s[9:11]
        self.plant = dataio.ur10_default_model()
        self.commands = self._commands(ta, tb, th, na, nb, RUN_DURATION)
        self.distinct_states = 6 * int(round(RUN_DURATION
                                             * trajectory.RATE_DEFAULT))
        self.reps = 0
        self.ref = None

    @staticmethod
    def _commands(ta, tb, th, na, nb, duration):
        dur = format(duration, "g")
        cmds = []
        run_a, run_b = [], []
        for tag, seeds, noises, runs in (("a", ta, na, run_a),
                                         ("b", tb, nb, run_b)):
            for k, (seed, noise_seed) in enumerate(zip(seeds, noises)):
                tr, rn = f"traj_{tag}{k}.csv", f"run_{tag}{k}.csv"
                cmds.append(("traj_gen", ["traj", "gen", "--robot",
                             "robot.ini", "--seed", str(seed), "--duration",
                             dur, "--out", tr]))
                extra = ["--payload", "payload.ini"] if tag == "b" else []
                cmds.append(("simulate", ["simulate", "--robot", "robot.ini",
                             "--traj", tr, *extra, "--noise-v",
                             format(NOISE_V, "g"), "--seed", str(noise_seed),
                             "--out", rn]))
                runs.append(rn)
        cmds += [
            ("identify_linear", ["identify", "linear", "--robot", "robot.ini",
                                 "--samples", *run_a, "--out", "model.ini"]),
            ("identify_friction", ["identify", "friction", "--model",
                                   "model.ini", "--samples", *run_a]),
            ("identify_gains", ["identify", "gains", "--model", "model.ini",
                                "--samples-a", *run_a, "--samples-b", *run_b,
                                "--payload", "payload.ini", "--known",
                                "mass,com"]),
            ("traj_gen", ["traj", "gen", "--robot", "robot.ini", "--seed",
                          str(th), "--duration", dur, "--out",
                          "traj_held.csv"]),
            ("simulate", ["simulate", "--robot", "robot.ini", "--traj",
                          "traj_held.csv", "--seed", "0", "--out",
                          "run_held.csv"]),
            ("validate", ["validate", "--model", "model.ini", "--samples",
                          "run_held.csv", "--report", "report.csv"]),
            ("solve", ["solve", "--model", "model.ini", "--traj",
                       "run_held.csv", "--out", "torques.csv"]),
        ]
        return cmds

    def op(self, tracer=None) -> dict:
        rep = os.path.join(self.workdir, f"rep{self.reps}")
        self.reps += 1
        os.makedirs(rep)
        dataio.write_robot_model(self.plant, os.path.join(rep, "robot.ini"))
        dataio.write_payload(PAYLOAD, os.path.join(rep, "payload.ini"))
        cmd_times = []
        first_sample, spent = len(self.pace.times), self.pace.spent
        ok = True
        with spans.traced_op(tracer):
            t0 = time.perf_counter()
            for k, (label, argv) in enumerate(self.commands):
                if tracer is None:
                    args = [sys.executable, "-m", "dynid", *argv]
                else:
                    out = os.path.join(rep, f".spans{k}.json")
                    args = [sys.executable, self.launcher, out, "--", *argv]
                idx = tracer.begin(f"cmd.{label}", "bench") if tracer else None
                c0 = time.perf_counter()
                proc = subprocess.run(args, cwd=rep, env=self.env,
                                      stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True)
                cmd_times.append((label, time.perf_counter() - c0))
                if tracer is None:
                    # a pipeline is long and the machine's speed moves
                    # within it, so the speed kernel runs after every
                    # command; its time is not the pipeline's
                    self.pace.sample(CLI_SAMPLES)
                else:
                    tracer.end(idx)
                    if os.path.exists(out):
                        with open(out) as fh:
                            tracer.adopt(json.load(fh), idx)
                        os.remove(out)
                problems = []
                if proc.returncode != 0:
                    tail = proc.stderr.strip().splitlines()[-1:] or [""]
                    problems = [f"dynid {' '.join(argv[:2])} exited "
                                f"{proc.returncode}: {tail[0]}"]
                if not self.tally.record(problems):
                    ok = False
                    break
            t1 = time.perf_counter()
        record = {}
        if ok:
            record = {"op_s": t1 - t0 - (self.pace.spent - spent),
                      "cmd_times": cmd_times,
                      **self._score(rep)}
            if tracer is None:
                record["factor"] = self.pace.factor(first_sample)
        shutil.rmtree(rep)
        return record

    def _score(self, rep) -> dict:
        digests = {}
        for name in sorted(os.listdir(rep)):
            with open(os.path.join(rep, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        try:
            gains = solver.load_identified_model(
                os.path.join(rep, "model.ini")).gains
            with open(os.path.join(rep, "report.csv")) as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            col = rows[0].index("mnae")
            mnae_max = max(float(r[col]) for r in rows[1:])
        except (OSError, ValueError) as exc:
            self.tally.record(_failure(exc))
            return {}
        if self.ref is None:
            self.ref = digests
        if not self.tally.record(self.check(gains, digests, self.ref)):
            return {}
        return {"gain_err_pct": gain_error_pct(gains, self.plant.gains),
                "mnae_pct": mnae_max}

    @staticmethod
    def check(gains, digests, ref) -> list[str]:
        return check_gains(gains) + check_files(digests, ref)


# ---------------------------------------------------------------------------
# solver: batch throughput and single-state latency of the exact model

class Solver:
    """The exact current-level model of the plant (the ``ident_true``
    fixture), alternating (a) 2500-state held-out batches through torque and
    torque_terms, without and with the payload, and (b) single-state torque
    and inertia calls back to back, as a control loop makes them.

    The default seed uses conftest's held-out trajectory B.
    """

    name = "solver"
    min_ops = 1

    def __init__(self, seed, tally, *, pace, run_duration=RUN_DURATION):
        self.tally = tally
        self.pace = pace
        plant = dataio.ur10_default_model()
        chain = plant.chain
        bmap = reduction.compute_base_map(chain)
        K = np.asarray(plant.gains)
        params = dynamics.DynamicParameters(
            links=plant.links, friction=[(0.0, 0.0, 0.0)] * chain.n)
        base = bmap.base_parameters(params)
        chi = np.vstack([bmap.regroup_for_joint(j, base / K[j])
                         for j in range(chain.n)])
        f = plant.friction
        psi = dynamics.FrictionSet(
            f_o=np.asarray(f.f_o) / K, f_v=np.asarray(f.f_v) / K,
            f_c=np.asarray(f.f_c) / K, delta=f.delta, nu=f.nu)
        self.arm = solver.IdentifiedModel(name="ur10-exact", chain=chain,
                                          map=bmap, chi=chi, psi=psi, gains=K)
        self.pay = solver.configure_payload(self.arm, PAYLOAD)
        traj = trajectory.validation_trajectory("B") \
            if seed == DEFAULT_SEED else _traj(derived_seeds(seed, 1)[0])
        held = dataio.simulate(plant, traj, duration=run_duration)
        self.Q, self.Qd, self.Qdd = held.q, held.qd, held.qdd
        self.m = held.m
        self.distinct_states = held.m
        self.subset = np.arange(0, held.m, CHECK_STRIDE)
        loaded = payload.apply_payload(params,
                                       payload.payload_to_frame_n(PAYLOAD))
        self.ref = {}
        for tag, links in (("arm", plant.links), ("pay", loaded.links)):
            self.ref[tag] = np.array([
                dynamics.rnea(chain, links, dynamics.JointState(
                    q=tuple(self.Q[i]), qd=tuple(self.Qd[i]),
                    qdd=tuple(self.Qdd[i])))
                + dynamics.friction_sigmoid(f, self.Qd[i])
                for i in self.subset])
        self.cursor = 0

    def _call(self, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises has failed
            return None, time.perf_counter() - t0, _failure(exc)
        return out, time.perf_counter() - t0, []

    def op(self, tracer=None) -> dict:
        Q, Qd, Qdd = self.Q, self.Qd, self.Qdd
        batch_times, torque_1, inertia_1 = [], [], []
        tau_arm = None
        with spans.traced_op(tracer):
            for tag, model in (("arm", self.arm), ("pay", self.pay)):
                tau, dt, problems = self._call(solver.torque, model, Q, Qd,
                                               Qdd)
                batch_times.append(dt)
                if tau is not None:
                    problems = check_torque(tau[self.subset], self.ref[tag])
                self.tally.record(problems)
                terms, dt, problems = self._call(solver.torque_terms, model,
                                                 Q, Qd, Qdd)
                batch_times.append(dt)
                if terms is not None and tau is not None:
                    problems = check_terms(terms, tau)
                self.tally.record(problems)
                if tag == "arm":
                    tau_arm = tau
            for _ in range(SINGLE_STATES):
                i = self.cursor
                self.cursor = (i + 1) % self.m
                tau1, dt, problems = self._call(solver.torque, self.arm,
                                                Q[i], Qd[i], Qdd[i])
                torque_1.append(dt)
                if tau1 is not None and tau_arm is not None:
                    problems = check_single(tau1, tau_arm[i])
                self.tally.record(problems)
                M, dt, problems = self._call(solver.inertia, self.arm, Q[i])
                inertia_1.append(dt)
                if M is not None and not np.allclose(M, M.T, rtol=0,
                                                     atol=TERMS_TOL):
                    problems = ["inertia matrix not symmetric"]
                self.tally.record(problems)
        record = {"op_s": sum(batch_times),
                  "states": len(batch_times) * self.m,
                  "torque_1": torque_1, "inertia_1": inertia_1}
        if tracer is None:
            # the machine's speed moves within a run, so a cycle's batch and
            # single-state times are scaled by kernel samples taken right
            # after it
            first_sample = len(self.pace.times)
            self.pace.sample()
            record["factor"] = self.pace.factor(first_sample)
        return record


WORKLOADS = {w.name: w for w in (Identify, CliPipeline, Solver)}
