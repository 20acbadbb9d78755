"""Shared fixtures: the UR10 chain, its base-parameter map, and simulated runs.

Everything expensive is session-scoped; all data is deterministic, so tests
may freeze exact expectations against these fixtures.  c05_runs is also
the generator of scripts/scorecard.py, and recorded_qr the QR log of the
factorisation-count tests.
"""
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from unittest import mock

import numpy as np
import pytest

from dynid.dataio import (IdentifiedModel, RobotModel, merge_sample_sets,
                          simulate, ur10_default_model)
from dynid.dynamics import DynamicParameters, FrictionSet
from dynid.estimation import (KnownPayload, estimate_gains, fit_friction,
                              friction_residual_currents,
                              identify_coefficients)
from dynid.kinematics import ur10_chain
from dynid import reduction
from dynid.payload import PayloadSpec
from dynid.reduction import compute_base_map
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


def c05_runs(plant, draw_a: int = 21, draw_b: int = 31):
    """c05's noisy data: three merged 20 s runs per scenario with 0.05 A
    current noise, seeded draw_a + k (arm only) and draw_b + k (payload),
    and the payload known as mass and com."""
    trains = [validation_trajectory("A"), random_trajectory(6, seed=313),
              random_trajectory(6, seed=707)]
    loads = [validation_trajectory("B"), random_trajectory(6, seed=909),
             random_trajectory(6, seed=1203)]
    da = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, seed=draw_a + k)
        for k, tr in enumerate(trains))
    db = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, seed=draw_b + k,
                 payload=PAYLOAD)
        for k, tr in enumerate(loads))
    return da, db, KnownPayload(spec=PAYLOAD, known=("mass", "com"))


@pytest.fixture(scope="session")
def noisy_runs(plant):
    """c05's noisy data (c05_runs at noise draws 21 and 31)."""
    return c05_runs(plant)


@dataclass
class QrCalls:
    """The numpy QRs made while recorded_qr was active.

    stacks: per matrix that reduction._triangular_factor factored, its row
        count and the (first row, rows) of each QR made on its own rows.
    other: the row counts of every other QR, such as those of stacked
        block factors.
    """

    stacks: list = field(default_factory=list)
    other: list = field(default_factory=list)

    def assert_each_row_once(self, limit: int) -> None:
        """Each factored matrix's rows enter exactly one QR each, of at
        most limit rows."""
        for rows, blocks in self.stacks:
            start = 0
            for first, k in sorted(blocks):
                assert first == start and 0 < k <= limit, blocks
                start += k
            assert start == rows, blocks


@contextmanager
def recorded_qr():
    """Log every numpy QR, on any thread, into a QrCalls."""
    calls, local = QrCalls(), threading.local()
    qr, factor = np.linalg.qr, reduction._triangular_factor

    def logged_qr(a, *args, **kwargs):
        A = getattr(local, "stack", None)
        if A is not None and np.may_share_memory(a, A):
            # a view of rows of A: its first row from the data pointers
            first = (a.__array_interface__["data"][0]
                     - A.__array_interface__["data"][0]) // A.strides[0]
            local.blocks.append((first, a.shape[0]))
        else:
            calls.other.append(a.shape[0])
        return qr(a, *args, **kwargs)

    def logged_factor(A):
        local.stack, local.blocks = A, []
        try:
            return factor(A)
        finally:
            calls.stacks.append((A.shape[0], local.blocks))
            local.stack = None

    with mock.patch.object(np.linalg, "qr", logged_qr), \
            mock.patch.object(reduction, "_triangular_factor", logged_factor):
        yield calls


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
