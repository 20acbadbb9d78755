"""Shared fixtures: the UR10 chain, its base-parameter map, and simulated runs.

Everything expensive is session-scoped; all data is deterministic, so tests
may freeze exact expectations against these fixtures.
"""
import numpy as np
import pytest

from dynid.dataio import (RobotModel, merge_sample_sets, simulate,
                          ur10_default_model)
from dynid.dynamics import DynamicParameters, FrictionSet
from dynid.estimation import (KnownPayload, estimate_gains, fit_friction,
                              friction_residual_currents,
                              identify_coefficients)
from dynid.kinematics import ur10_chain
from dynid.payload import PayloadSpec
from dynid.reduction import compute_base_map
from dynid.solver import IdentifiedModel
from dynid.trajectory import random_trajectory, validation_trajectory

# linear-friction plant used wherever stage 1 must close exactly
LIN_FRICTION = ((-1.4, 14.8, 2.9), (1.3, 13.9, -3.4), (-0.9, 9.5, 2.3),
                (-0.45, 3.6, 1.1), (-0.4, 2.6, 1.05), (-0.5, 2.7, 1.3))

# eccentric test payload: off-axis COM so every payload coordinate is excited
PAYLOAD = PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                      inertia_com=np.diag((0.030, 0.035, 0.030)))


@pytest.fixture(scope="session")
def chain():
    return ur10_chain()


@pytest.fixture(scope="session")
def bmap(chain):
    return compute_base_map(chain)


@pytest.fixture(scope="session")
def plant():
    return ur10_default_model()


@pytest.fixture(scope="session")
def plant_linear(plant):
    fric = FrictionSet.from_linear([t[0] for t in LIN_FRICTION],
                                   [t[1] for t in LIN_FRICTION],
                                   [t[2] for t in LIN_FRICTION])
    return RobotModel(name="ur10-linear", chain=plant.chain,
                      links=plant.links, friction=fric, gains=plant.gains)


@pytest.fixture(scope="session")
def traj_a():
    return validation_trajectory("A")


@pytest.fixture(scope="session")
def traj_b():
    return validation_trajectory("B")


@pytest.fixture(scope="session")
def data_a(plant, traj_a):
    """Noiseless arm-only run of the sigmoid-friction plant."""
    return simulate(plant, traj_a, duration=20.0)


@pytest.fixture(scope="session")
def data_b(plant, traj_b):
    """Noiseless held-out arm-only run."""
    return simulate(plant, traj_b, duration=20.0)


@pytest.fixture(scope="session")
def data_b_pay(plant, traj_b):
    """Noiseless run with the eccentric payload attached."""
    return simulate(plant, traj_b, duration=20.0, payload=PAYLOAD)


@pytest.fixture(scope="session")
def noisy_runs(plant, traj_a, traj_b):
    """c05's noisy data: three merged runs per scenario with 0.05 A current
    noise, and the payload known as mass and com."""
    trains = [traj_a, random_trajectory(6, seed=313),
              random_trajectory(6, seed=707)]
    loads = [traj_b, random_trajectory(6, seed=909),
             random_trajectory(6, seed=1203)]
    da = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, seed=21 + k)
        for k, tr in enumerate(trains))
    db = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, seed=31 + k,
                 payload=PAYLOAD)
        for k, tr in enumerate(loads))
    return da, db, KnownPayload(spec=PAYLOAD, known=("mass", "com"))


@pytest.fixture(scope="session")
def stage1(bmap, chain, data_a):
    return identify_coefficients(bmap, chain, data_a)


@pytest.fixture(scope="session")
def stage2(bmap, chain, data_a, stage1):
    resid = friction_residual_currents(bmap, chain, stage1, data_a)
    return fit_friction(data_a.qd, resid, threshold=data_a.qd_threshold)


@pytest.fixture(scope="session")
def stage3(data_a, data_b_pay, bmap, chain, stage1, stage2):
    known = KnownPayload(spec=PAYLOAD, known=("mass", "com"))
    return estimate_gains(data_a, data_b_pay, known, bmap, chain, stage1,
                          stage2.friction)


@pytest.fixture(scope="session")
def ident(chain, bmap, stage1, stage2, stage3):
    """Identified model assembled from the three estimation stages."""
    return IdentifiedModel(name="ur10-fit", chain=chain, map=bmap,
                           chi=stage1.as_matrix(), psi=stage2.friction,
                           gains=stage3.gains)


@pytest.fixture(scope="session")
def ident_true(chain, bmap, plant):
    """Exact current-level model derived from the plant, no estimation."""
    K = np.asarray(plant.gains)
    params = DynamicParameters(links=plant.links,
                               friction=[(0.0, 0.0, 0.0)] * chain.n)
    base = bmap.base_parameters(params)
    chi = np.vstack([bmap.regroup_for_joint(j, base / K[j])
                     for j in range(chain.n)])
    f = plant.friction
    psi = FrictionSet(f_o=np.asarray(f.f_o) / K, f_v=np.asarray(f.f_v) / K,
                      f_c=np.asarray(f.f_c) / K, delta=f.delta, nu=f.nu)
    return IdentifiedModel(name="ur10-exact", chain=chain, map=bmap,
                           chi=chi, psi=psi, gains=K)
