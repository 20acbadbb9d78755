import re

import numpy as np
import pytest

from dynid.trajectory import (FourierTrajectory, JointLimits, evaluate,
                              random_trajectory, sample, ur10_limits,
                              validation_trajectory)


def test_constant_trajectory():
    traj = FourierTrajectory(q0=(0.2, -0.4), a=np.zeros((2, 1)),
                             b=np.zeros((2, 1)), period=10.0)
    q, qd, qdd = evaluate(traj, [0.0, 1.7, 9.9])
    assert np.array_equal(q, np.tile([0.2, -0.4], (3, 1)))
    assert np.array_equal(qd, np.zeros((3, 2)))
    assert np.array_equal(qdd, np.zeros((3, 2)))


def test_single_harmonic_derivatives_at_zero():
    A = 0.6
    traj = FourierTrajectory(q0=(0.0,), a=[[A]], b=[[0.0]], period=8.0)
    q, qd, qdd = evaluate(traj, [0.0])
    w = 2.0 * np.pi / 8.0
    assert q[0, 0] == 0.0
    assert qd[0, 0] == pytest.approx(A * w, abs=1e-15)
    assert qdd[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    traj = FourierTrajectory(q0=rng.uniform(-1, 1, 3),
                             a=rng.uniform(-0.5, 0.5, (3, 4)),
                             b=rng.uniform(-0.5, 0.5, (3, 4)), period=12.0)
    dt = 1e-5
    for t0 in (0.3, 4.4, 11.1):
        qm, _, _ = evaluate(traj, [t0 - dt])
        qp, _, _ = evaluate(traj, [t0 + dt])
        _, qd, qdd = evaluate(traj, [t0])
        fd_qd = (qp - qm) / (2 * dt)
        assert np.max(np.abs(qd - fd_qd)) < 1e-6
        _, vm, _ = evaluate(traj, [t0 - dt])
        _, vp, _ = evaluate(traj, [t0 + dt])
        fd_qdd = (vp - vm) / (2 * dt)
        assert np.max(np.abs(qdd - fd_qdd)) < 1e-6


def test_periodicity():
    rng = np.random.default_rng(33)
    traj = FourierTrajectory(q0=rng.uniform(-1, 1, 6),
                             a=rng.uniform(-0.3, 0.3, (6, 5)),
                             b=rng.uniform(-0.3, 0.3, (6, 5)), period=20.0)
    for t0 in (0.0, 3.7, 12.25):
        q1, qd1, _ = evaluate(traj, [t0])
        q2, qd2, _ = evaluate(traj, [t0 + traj.period])
        assert np.max(np.abs(q1 - q2)) < 1e-12
        assert np.max(np.abs(qd1 - qd2)) < 1e-12


def test_sample_counts():
    traj = random_trajectory(6, seed=4)
    t, q, qd, qdd = sample(traj, rate=125.0, duration=20.0)
    assert t.shape == (2500,) and q.shape == (2500, 6)
    assert t[0] == 0.0 and t[1] == pytest.approx(1 / 125.0)
    # default duration is one full period
    t2, _, _, _ = sample(traj, rate=125.0)
    assert t2.size == int(round(traj.period * 125.0))
    # non-multiple durations round to the nearest whole sample
    t3, _, _, _ = sample(traj, rate=125.0, duration=0.0201)
    assert t3.size == 3


def test_sample_grid_is_periodic():
    traj = random_trajectory(4, seed=9)
    t, q, _, _ = sample(traj, rate=25.0, duration=traj.period)
    q_wrap, _, _ = evaluate(traj, [traj.period])
    assert np.max(np.abs(q[0] - q_wrap[0])) < 1e-12


def test_random_trajectory_respects_limits():
    lims = ur10_limits()
    for seed in (0, 7, 42):
        traj = random_trajectory(6, seed=seed)
        _, q, qd, qdd = sample(traj, rate=125.0, duration=traj.period)
        q0 = np.asarray(traj.q0)
        assert np.all(np.abs(q - q0) <= np.asarray(lims.excursion) + 1e-9)
        assert np.all(np.abs(qd) <= np.asarray(lims.velocity) + 1e-9)
        assert np.all(np.abs(qdd) <= np.asarray(lims.acceleration) + 1e-9)


def test_random_trajectory_deterministic():
    t1 = random_trajectory(6, seed=5)
    t2 = random_trajectory(6, seed=5)
    t3 = random_trajectory(6, seed=6)
    assert t1.a == t2.a and t1.b == t2.b and t1.q0 == t2.q0
    assert t1.a != t3.a


@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_random_trajectory_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be a non-negative integer, got {seed}")):
        random_trajectory(6, seed=seed)


def test_validation_trajectories():
    a = validation_trajectory("A")
    a2 = validation_trajectory("A")
    b = validation_trajectory("B")
    assert a.a == a2.a
    assert a.a != b.a
    with pytest.raises(ValueError):
        validation_trajectory("C")


def test_joint_limits_validation():
    with pytest.raises(ValueError):
        JointLimits(excursion=(1.0, -1.0), velocity=(1.0, 1.0),
                    acceleration=(1.0, 1.0))
    with pytest.raises(ValueError):
        JointLimits(excursion=(1.0,), velocity=(1.0, 1.0),
                    acceleration=(1.0, 1.0))
