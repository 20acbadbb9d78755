"""The three identification stages end to end on random revolute chains.

Every other end-to-end test identifies the UR10, on whose data the
stages' guards and tolerances were set.  Here each of a fixed set of
generator seeds draws a chain of 2-7 joints and a plant on it, simulates
three noiseless 20 s runs per scenario, and runs the stages as c05 runs
them, the conftest payload known as mass and com.  Each chain must give
its plant's drive gains, or stop with a named EstimationError
(ExcitationError or IdentifiabilityError): a wrong gain with no error
fails.  With the plant's friction in stage 3, the identified model must
also give a fresh run's currents.  Each chain's base map must reproduce
its regressor, as c02 checks on the UR10.
"""
import numpy as np
import pytest

from conftest import PAYLOAD
from dynid.dataio import (IdentifiedModel, RobotModel, merge_sample_sets,
                          simulate)
from dynid.dynamics import (N_FRICTION, N_INERTIAL, FrictionSet,
                            InertialParameters, regressor_stack)
from dynid.estimation import (ExcitationError, IdentifiabilityError,
                              KnownPayload, estimate_gains, fit_friction,
                              friction_residual_currents,
                              identify_coefficients)
from dynid.kinematics import DhRow, KinematicChain
from dynid.reduction import compute_base_map, minimal_regressor_stack
from dynid.solver import torque
from dynid.trajectory import random_trajectory

G = 9.80665


def _random_plant(seed: int) -> RobotModel:
    """A revolute chain and a complete plant on it, drawn from seed: a and
    d each zero in 30 % of rows, alpha from {0, +-pi/2, uniform}, masses
    of 0.5-10 kg with rotated COM inertias, sigmoid friction, gains of
    12-25 Nm/A, and gravity along -z or along a diagonal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))

    def length(hi):
        return 0.0 if rng.random() < 0.3 else float(rng.uniform(0.05, hi))

    rows = tuple(DhRow(a=length(0.6),
                       alpha=float(rng.choice([0.0, np.pi / 2, -np.pi / 2,
                                               rng.uniform(-np.pi, np.pi)])),
                       d=length(0.3), offset=float(rng.uniform(-np.pi, np.pi)))
                 for _ in range(n))
    gravity = ((0.0, 0.0, -G) if rng.random() < 0.7
               else tuple(G / np.sqrt(3.0) * rng.choice([-1.0, 1.0], 3)))
    links = []
    for _ in range(n):
        R, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        inertia = R @ np.diag(rng.uniform(0.005, 0.5, 3)) @ R.T
        links.append(InertialParameters.from_com(
            rng.uniform(0.5, 10.0), rng.uniform(-0.2, 0.2, 3),
            0.5 * (inertia + inertia.T)))
    friction = FrictionSet(f_o=rng.uniform(-1.5, 1.5, n),
                           f_v=rng.uniform(2.0, 15.0, n),
                           f_c=rng.uniform(-3.5, 3.5, n),
                           delta=rng.choice([-1.0, 1.0], n)
                           * rng.uniform(30.0, 400.0, n),
                           nu=rng.uniform(-0.02, 0.02, n))
    return RobotModel(name=f"chain-{seed}",
                      chain=KinematicChain(rows=rows, gravity=gravity),
                      links=tuple(links), friction=friction,
                      gains=tuple(rng.uniform(12.0, 25.0, n)))


@pytest.mark.parametrize("seed", range(10))
def test_random_chain_base_map_reproduces_its_regressor(seed):
    # c02's check: the minimal regressor times the projected parameters is
    # the full regressor times the parameters, within 1e-8 of 1 + |Y pi|
    # (seeds 0-9 read at most 8.5e-13), for random states and parameters
    chain = _random_plant(seed).chain
    n = chain.n
    rng = np.random.default_rng(seed)
    m = 200
    Q = rng.uniform(-np.pi, np.pi, (m, n))
    Qd = rng.uniform(-3.0, 3.0, (m, n))
    Qdd = rng.uniform(-8.0, 8.0, (m, n))
    bmap = compute_base_map(chain)
    Y = regressor_stack(chain, Q, Qd, Qdd)
    U = minimal_regressor_stack(bmap, chain, Q, Qd, Qdd)
    for _ in range(5):
        pi = rng.uniform(-2.0, 2.0, (N_INERTIAL + N_FRICTION) * n)
        full = Y @ pi
        err = np.abs(U @ (bmap.projection_matrix() @ pi) - full)
        assert np.max(err / (1.0 + np.abs(full))) < 1e-8


def _assert_held_out_currents(plant, seed, bmap, chi, psi, gains):
    """The identified model (stage 1's chi, the plant's friction, stage
    3's gains) gives a fresh noiseless run's currents to 1e-4 of each
    joint's largest |current|.  Seeds 0-9 read at most 4.5e-5 (seed 2),
    and 4 of them below 1e-9: stage 1's linear friction triple cannot
    follow the sigmoid's unsaturated tail just past the velocity
    threshold, so chi's inertial part takes up a little of it.  With the
    plant's sigmoids saturated (delta 1e9) the same seeds read at most
    1.6e-13."""
    chain = plant.chain
    held = simulate(plant, random_trajectory(chain.n, seed=1000 * seed + 99),
                    duration=20.0)
    model = IdentifiedModel(name=plant.name, chain=chain, map=bmap,
                            chi=chi.as_matrix(), psi=psi, gains=gains)
    v = torque(model, held.q, held.qd, held.qdd) / gains
    err = np.abs(v - held.v) / np.max(np.abs(held.v), axis=0)
    assert np.max(err) < 1e-4


@pytest.mark.parametrize("seed", range(10))
def test_random_chain_gives_its_gains_or_a_named_refusal(seed):
    plant = _random_plant(seed)
    chain, n = plant.chain, plant.chain.n
    K = np.asarray(plant.gains)
    # three merged runs per scenario: with one run, 4 of seeds 0-11 stop
    # at stage 1's condition guard
    runs = [merge_sample_sets(
        simulate(plant, random_trajectory(n, seed=1000 * seed + 10 * k + r),
                 duration=20.0, payload=payload) for r in range(3))
        for k, payload in enumerate((None, PAYLOAD))]
    known = KnownPayload(spec=PAYLOAD, known=("mass", "com"))
    f = plant.friction
    psi = FrictionSet(f_o=np.asarray(f.f_o) / K, f_v=np.asarray(f.f_v) / K,
                      f_c=np.asarray(f.f_c) / K, delta=f.delta, nu=f.nu)
    try:
        bmap = compute_base_map(chain)
        chi = identify_coefficients(bmap, chain, runs[0])
        fit = fit_friction(runs[0].qd, friction_residual_currents(
            bmap, chain, chi, runs[0]), threshold=runs[0].qd_threshold)
        # the plant's own friction leaves only rounding; stage 2's adds
        # its fit's error
        for friction, tol in ((psi, 1e-9), (fit.friction, 1e-4)):
            est = estimate_gains(*runs, known, bmap, chain, chi, friction)
            assert np.max(np.abs(est.gains - K) / K) < tol
            if friction is psi:
                _assert_held_out_currents(plant, seed, bmap, chi, psi,
                                          est.gains)
    except (ExcitationError, IdentifiabilityError):
        pass  # a refusal that names its cause
