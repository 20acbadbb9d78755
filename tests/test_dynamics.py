import functools
import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynid import dynamics
from dynid.dataio import IdentifiedModel
from dynid.dynamics import (_WRENCH_BASIS, BLOCK_STATES, N_FRICTION,
                            N_INERTIAL, DynamicParameters, FrictionSet,
                            InertialParameters, JointState, _link_maps,
                            _motion_numbers, fold_sets, friction_linear,
                            friction_sigmoid, newton_euler, regressor,
                            regressor_columns, regressor_stack, rnea,
                            sigmoid)
from dynid.kinematics import (DhRow, KinematicChain, local_frames,
                              local_frames_batch, ur10_chain)
from dynid.payload import PayloadSpec
from dynid.reduction import compute_base_map
from dynid.solver import (configure_payload, coriolis_times_qd, gravity,
                          torque, torque_terms)
from forward_kinematics import frame_chain
from regressor_oracle import (newton_euler_unfolded, regressor_stack_sweep,
                              unit_wrenches)

# single link rotating about z, gravity along -y: the swing works against
# gravity, so tau = m g r cos(q)
PENDULUM = KinematicChain(rows=(DhRow(0.0, 0.0, 0.0),),
                          gravity=(0.0, -9.80665, 0.0))
PENDULUM_LINK = InertialParameters(mass=2.0, first_moment=(1.0, 0.0, 0.0),
                                   inertia_origin=((0.0,) * 3,) * 3)


def random_links(n, rng, physical=True):
    links = []
    for _ in range(n):
        m = rng.uniform(0.5, 10.0)
        com = rng.uniform(-0.3, 0.3, size=3)
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        Ic = A @ A.T * 0.05 + np.eye(3) * 0.01
        links.append(InertialParameters.from_com(m, com, Ic))
    return links


def zero_links(n):
    z = InertialParameters(mass=0.0, first_moment=(0.0, 0.0, 0.0),
                           inertia_origin=((0.0,) * 3,) * 3)
    return [z] * n


def random_state(n, rng):
    return JointState(q=tuple(rng.uniform(-np.pi, np.pi, n)),
                      qd=tuple(rng.uniform(-3.0, 3.0, n)),
                      qdd=tuple(rng.uniform(-10.0, 10.0, n)))


# ---------------------------------------------------------------------------
# rnea

def test_rnea_zero_parameters():
    chain = ur10_chain()
    st = JointState(q=(0.1,) * 6, qd=(1.0,) * 6, qdd=(-2.0,) * 6)
    assert np.array_equal(rnea(chain, zero_links(6), st), np.zeros(6))


def test_rnea_pendulum():
    st = JointState(q=(0.0,), qd=(0.0,), qdd=(0.0,))
    tau = rnea(PENDULUM, [PENDULUM_LINK], st)
    assert abs(tau[0] - 9.80665) < 1e-12
    for qv in (0.3, 1.0, -2.0):
        st = JointState(q=(qv,), qd=(0.0,), qdd=(0.0,))
        tau = rnea(PENDULUM, [PENDULUM_LINK], st)
        assert abs(tau[0] - 2.0 * 9.80665 * 0.5 * np.cos(qv)) < 1e-12


def test_rnea_dimension_mismatch():
    chain = ur10_chain()
    with pytest.raises(ValueError):
        rnea(chain, zero_links(5), JointState(q=(0,) * 6, qd=(0,) * 6,
                                              qdd=(0,) * 6))


def test_rnea_linear_in_parameters():
    chain = ur10_chain()
    rng = np.random.default_rng(5)
    st = random_state(6, rng)
    v1 = rng.normal(size=(6, 10))
    v2 = rng.normal(size=(6, 10))

    def links_of(V):
        out = []
        for row in V:
            I = np.array([[row[4], row[5], row[6]],
                          [row[5], row[7], row[8]],
                          [row[6], row[8], row[9]]])
            out.append(InertialParameters(mass=row[0],
                                          first_moment=tuple(row[1:4]),
                                          inertia_origin=I))
        return out

    t1 = rnea(chain, links_of(v1), st)
    t2 = rnea(chain, links_of(v2), st)
    t12 = rnea(chain, links_of(v1 + v2), st)
    tc = rnea(chain, links_of(2.5 * v1), st)
    assert np.max(np.abs(t12 - (t1 + t2))) < 1e-9
    assert np.max(np.abs(tc - 2.5 * t1)) < 1e-9


# ---------------------------------------------------------------------------
# Lagrangian oracle: assemble torques from energy derivatives alone

def _world_frames(chain, q):
    Ts = frame_chain(chain, q)
    return [T[:3, :3] for T in Ts[1:]], [T[:3, 3] for T in Ts[1:]], Ts


def _link_velocities(chain, q, qd):
    Ts = frame_chain(chain, q)
    n = chain.n
    w = np.zeros((n, 3))
    v = np.zeros((n, 3))
    w_prev = np.zeros(3)
    v_prev = np.zeros(3)
    for i in range(n):
        z_axis = Ts[i][:3, 2]
        w_i = w_prev + qd[i] * z_axis
        dp = Ts[i + 1][:3, 3] - Ts[i][:3, 3]
        v_i = v_prev + np.cross(w_i, dp)
        w[i], v[i] = w_i, v_i
        w_prev, v_prev = w_i, v_i
    return w, v


def _kinetic(chain, links, q, qd):
    Rs, _, _ = _world_frames(chain, q)
    w, v = _link_velocities(chain, q, qd)
    T = 0.0
    for i, lk in enumerate(links):
        R = Rs[i]
        h_w = R @ np.array(lk.first_moment)
        I_w = R @ np.array(lk.inertia_origin) @ R.T
        T += (0.5 * lk.mass * v[i] @ v[i] + v[i] @ np.cross(w[i], h_w)
              + 0.5 * w[i] @ I_w @ w[i])
    return T


def _potential(chain, links, q):
    Rs, ps, _ = _world_frames(chain, q)
    gvec = chain.gravity_vector
    U = 0.0
    for i, lk in enumerate(links):
        U -= gvec @ (lk.mass * ps[i] + Rs[i] @ np.array(lk.first_moment))
    return U


def _mass_from_energy(chain, links, q):
    # kinetic energy is exactly quadratic in qd, so polarization recovers M
    n = chain.n
    M = np.zeros((n, n))
    for j in range(n):
        ej = np.eye(n)[j]
        for k in range(j + 1, n):
            ek = np.eye(n)[k]
            M[j, k] = (_kinetic(chain, links, q, ej + ek)
                       - _kinetic(chain, links, q, ej)
                       - _kinetic(chain, links, q, ek))
            M[k, j] = M[j, k]
        M[j, j] = 2.0 * _kinetic(chain, links, q, ej)
    return M


def _lagrangian_tau(chain, links, q, qd, qdd, h=1e-6):
    n = chain.n
    tau = _mass_from_energy(chain, links, q) @ qdd
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        dM = (_mass_from_energy(chain, links, q + e)
              - _mass_from_energy(chain, links, q - e)) / (2 * h)
        tau += qd[j] * (dM @ qd)
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        tau[k] -= (_kinetic(chain, links, q + e, qd)
                   - _kinetic(chain, links, q - e, qd)) / (2 * h)
        tau[k] += (_potential(chain, links, q + e)
                   - _potential(chain, links, q - e)) / (2 * h)
    return tau


def test_rnea_matches_lagrangian_oracle():
    chain = ur10_chain()
    rng = np.random.default_rng(0)
    links = random_links(6, rng)
    for _ in range(2):
        q = rng.uniform(-np.pi, np.pi, 6)
        qd = rng.uniform(-3, 3, 6)
        qdd = rng.uniform(-10, 10, 6)
        st = JointState(q=tuple(q), qd=tuple(qd), qdd=tuple(qdd))
        t_direct = rnea(chain, links, st)
        t_energy = _lagrangian_tau(chain, links, q, qd, qdd)
        assert np.max(np.abs(t_direct - t_energy)) < 1e-6


# ---------------------------------------------------------------------------
# equation-of-motion terms, evaluated as the solver evaluates them: one
# newton_euler call, unit-acceleration blocks with gravity off for M(q) and
# gravity off for c(q, qd); rnea is the reference

NO_GRAVITY = (0.0, 0.0, 0.0)


def _fold(chain, links):
    return fold_sets(chain, np.concatenate([lk.to_vector()
                                            for lk in links])[:, None])


def _inertia(chain, links, q):
    # block k accelerates joint k alone: column k of M
    n = chain.n
    return newton_euler(chain, q, (np.zeros(n),) * n, tuple(np.eye(n)),
                        _fold(chain, links), gravity=NO_GRAVITY)[:, 0].T


def _coriolis(chain, links, q, qd):
    return newton_euler(chain, q, qd, np.zeros(chain.n), _fold(chain, links),
                        gravity=NO_GRAVITY)[0]


def _gravity(chain, links, q):
    z = np.zeros(chain.n)
    return newton_euler(chain, q, z, z, _fold(chain, links))[0]


def _close(x, ref):
    # c01's relative error against the scalar oracle
    return np.max(np.abs(x - ref) / (1.0 + np.abs(ref))) < 1e-9


def test_inertia_matrix_properties():
    chain = ur10_chain()
    rng = np.random.default_rng(1)
    links = random_links(6, rng)
    assert np.array_equal(_inertia(chain, zero_links(6), np.zeros(6)),
                          np.zeros((6, 6)))
    for _ in range(100):
        q = rng.uniform(-np.pi, np.pi, 6)
        M = _inertia(chain, links, q)
        assert np.max(np.abs(M - M.T)) < 1e-10
        for k, e in enumerate(np.eye(6)):
            ref = rnea(chain, links, JointState(q=q, qd=np.zeros(6), qdd=e),
                       gravity=NO_GRAVITY)
            assert _close(M[:, k], ref)
    # physical parameters give positive definite M
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_inertia_matrix_pendulum():
    # point mass carries its own origin-referenced inertia via Steiner
    point = InertialParameters.from_com(2.0, (0.5, 0.0, 0.0), np.zeros((3, 3)))
    M = _inertia(PENDULUM, [point], np.zeros(1))
    # 2 kg at radius 0.5 m about the joint axis: I = m r^2 = 0.5
    assert abs(M[0, 0] - 0.5) < 1e-12


def test_coriolis_vector():
    chain = ur10_chain()
    rng = np.random.default_rng(2)
    links = random_links(6, rng)
    q = rng.uniform(-np.pi, np.pi, 6)
    qd = rng.uniform(-3, 3, 6)
    assert np.array_equal(_coriolis(chain, links, q, np.zeros(6)),
                          np.zeros(6))
    c1 = _coriolis(chain, links, q, qd)
    c2 = _coriolis(chain, links, q, 2.0 * qd)
    assert np.max(np.abs(c2 - 4.0 * c1)) < 1e-9
    ref = rnea(chain, links, JointState(q=q, qd=qd, qdd=np.zeros(6)),
               gravity=NO_GRAVITY)
    assert _close(c1, ref)


def test_term_decomposition():
    chain = ur10_chain()
    rng = np.random.default_rng(3)
    links = random_links(6, rng)
    for _ in range(10):
        q = rng.uniform(-np.pi, np.pi, 6)
        qd = rng.uniform(-3, 3, 6)
        qdd = rng.uniform(-10, 10, 6)
        st = JointState(q=tuple(q), qd=tuple(qd), qdd=tuple(qdd))
        total = rnea(chain, links, st)
        M = _inertia(chain, links, q)
        c = _coriolis(chain, links, q, qd)
        g = _gravity(chain, links, q)
        assert np.max(np.abs(total - (M @ qdd + c + g))) < 1e-9


def test_gravity_vector_pendulum():
    assert np.array_equal(_gravity(PENDULUM, zero_links(1), np.zeros(1)),
                          np.zeros(1))
    g = _gravity(PENDULUM, [PENDULUM_LINK], np.array([0.3]))
    assert abs(g[0] - 2.0 * 9.80665 * 0.5 * np.cos(0.3)) < 1e-12


def test_energy_rate_consistency():
    # d/dt of the kinetic metric equals twice the Coriolis power:
    # qd' Mdot qd = 2 qd' C(q, qd) qd, with Mdot by finite differences
    chain = ur10_chain()
    rng = np.random.default_rng(4)
    links = random_links(6, rng)
    h = 1e-6
    for _ in range(5):
        q = rng.uniform(-np.pi, np.pi, 6)
        qd = rng.uniform(-2, 2, 6)
        Mdot = (_inertia(chain, links, q + h * qd)
                - _inertia(chain, links, q - h * qd)) / (2 * h)
        c = _coriolis(chain, links, q, qd)
        assert abs(qd @ Mdot @ qd - 2.0 * qd @ c) < 1e-5


# ---------------------------------------------------------------------------
# friction models

def test_friction_linear_values():
    tri = ((0.0, 1.0, 0.0),)
    assert friction_linear(tri, np.array([0.3]))[0] == pytest.approx(0.3)
    tri = ((0.7, 1.0, 0.4),)
    assert friction_linear(tri, np.array([0.0]))[0] == 0.7  # sgn(0) = 0
    # reference joint-1 row at qd = 1 rad/s, checked by hand:
    # -1.0066 + 1.0640 * 1 + 2.0506 * sgn(1) = 2.108
    tri = ((-1.0066, 1.0640, 2.0506),)
    assert friction_linear(tri, np.array([1.0]))[0] == pytest.approx(2.108)


def test_friction_linear_odd_without_offset():
    tri = ((0.0, 1.3, 0.8), (0.0, 0.4, 0.2))
    qd = np.array([0.7, -2.1])
    f_pos = friction_linear(tri, qd)
    f_neg = friction_linear(tri, -qd)
    assert np.array_equal(f_pos, -f_neg)


def test_friction_sigmoid_midpoint():
    fs = FrictionSet(f_o=(0.3,), f_v=(1.2,), f_c=(0.8,), delta=(25.0,),
                     nu=(0.04,))
    val = friction_sigmoid(fs, np.array([-0.04]))[0]
    assert val == pytest.approx(0.3 + 1.2 * (-0.04) + 0.4, abs=1e-12)


def test_friction_sigmoid_step_limit():
    fs = FrictionSet(f_o=(0.3,), f_v=(1.2,), f_c=(0.8,), delta=(1e6,),
                     nu=(0.0,))
    for qd in (0.5, -0.5, 0.01, -0.01):
        val = friction_sigmoid(fs, np.array([qd]))[0]
        step = 0.3 + 1.2 * qd + 0.8 * (1.0 if qd > 0 else 0.0)
        assert abs(val - step) < 1e-6


def test_friction_sigmoid_scalar_oracle():
    # reference joint-3 row evaluated by the raw formula
    f_v, f_o, f_c, delta, nu = 0.6796, -0.8120, 1.6478, 19.8251, -0.0053
    fs = FrictionSet(f_o=(f_o,), f_v=(f_v,), f_c=(f_c,), delta=(delta,),
                     nu=(nu,))
    qd = 0.1
    expected = f_o + f_v * qd + f_c / (1.0 + math.exp(-delta * (nu + qd)))
    assert friction_sigmoid(fs, np.array([qd]))[0] == pytest.approx(
        expected, abs=1e-15)


def test_friction_arrays_are_built_once_and_read_only():
    # as_arrays hands every call the same read-only arrays, and the
    # sigmoid law on them gives the bits of arrays built afresh
    names = ("f_o", "f_v", "f_c", "delta", "nu")
    rng = np.random.default_rng(13)
    fs = FrictionSet(*(rng.uniform(0.1, 2.0, 6) for _ in names))
    arrays = fs.as_arrays()
    assert fs.as_arrays() is arrays
    for a, name in zip(arrays, names):
        assert not a.flags.writeable
        assert a.tolist() == list(getattr(fs, name))
    with pytest.raises(ValueError):
        arrays[0][0] = 1.0
    qd = rng.uniform(-2.0, 2.0, (50, 6))
    f_o, f_v, f_c, delta, nu = (np.array(getattr(fs, name)) for name in names)
    expect = f_o + f_v * qd + f_c * sigmoid(delta * (nu + qd))
    assert friction_sigmoid(fs, qd).tobytes() == expect.tobytes()


def test_friction_set_from_linear():
    fs = FrictionSet.from_linear([0.7], [1.0], [0.4])
    for qd in (0.5, -0.5, 1e-3, -1e-3):
        lin = friction_linear(((0.7, 1.0, 0.4),), np.array([qd]))[0]
        assert friction_sigmoid(fs, np.array([qd]))[0] == pytest.approx(
            lin, abs=1e-12)
    # sgn(0) = 0 convention carries over: the sigmoid sits at its midpoint
    assert friction_sigmoid(fs, np.array([0.0]))[0] == pytest.approx(0.7)


def test_sigmoid_saturation():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1000.0) == pytest.approx(1.0)
    assert sigmoid(-1000.0) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# regressor

def test_regressor_identity():
    chain = ur10_chain()
    rng = np.random.default_rng(6)
    links = random_links(6, rng)
    tri = rng.uniform(-2, 2, size=(6, 3))
    params = DynamicParameters(links=tuple(links),
                               friction=tuple(map(tuple, tri)))
    pi = params.to_vector()
    for _ in range(100):
        st = random_state(6, rng)
        Y = regressor(chain, st)
        ref = rnea(chain, links, st) + friction_linear(tri, np.asarray(st.qd))
        assert np.max(np.abs(Y @ pi - ref)) < 1e-9


def test_regressor_static_structure():
    chain = ur10_chain()
    st = JointState(q=(0.4, -0.2, 0.9, 0.1, -1.2, 0.5), qd=(0.0,) * 6,
                    qdd=(0.0,) * 6)
    Y = regressor(chain, st)
    for j in range(6):
        block = Y[:, 60 + 3 * j:60 + 3 * j + 3]
        expect = np.zeros((6, 3))
        expect[j, 0] = 1.0  # offset column; velocity and sign columns vanish
        assert np.array_equal(block, expect)


def test_regressor_mass_column():
    # the mass column of link i is the torque of a unit point mass at the
    # frame-i origin
    chain = ur10_chain()
    rng = np.random.default_rng(8)
    q = rng.uniform(-np.pi, np.pi, 6)
    st = JointState(q=tuple(q), qd=(0.0,) * 6, qdd=(0.0,) * 6)
    Y = regressor(chain, st)
    for i in range(6):
        links = zero_links(6).copy()
        links[i] = InertialParameters(mass=1.0, first_moment=(0.0, 0.0, 0.0),
                                      inertia_origin=((0.0,) * 3,) * 3)
        tau = rnea(chain, links, st)
        assert np.max(np.abs(Y[:, 10 * i] - tau)) < 1e-12


# ---------------------------------------------------------------------------
# batched Newton-Euler against the scalar rnea oracle

TOY = KinematicChain(rows=(DhRow(0.3, 0.4, 0.1), DhRow(0.25, -1.2, 0.05)),
                     gravity=(0.0, -9.80665, 0.0))


def _random_batch(chain, m, sets, rng):
    n = chain.n
    return (rng.uniform(-np.pi, np.pi, (m, n)), rng.uniform(-3.0, 3.0, (m, n)),
            rng.uniform(-10.0, 10.0, (m, n)),
            rng.uniform(-2.0, 2.0, (10 * n, sets)))


def _set_counts(chain):
    # newton_euler's two shapes of Pi: one set per joint, or one shared
    return st.sampled_from([1, chain.n])


def _own_sets(tau):
    """An all-sets result (..., n, S), S in {1, n}, read on newton_euler's
    contract: joint j's torque of set j, or of the one set."""
    j = np.arange(tau.shape[-2])
    return tau[..., j, j % tau.shape[-1]]


def _rnea_of_sets(chain, Pi, q, qd, qdd, g):
    """rnea on every set of Pi, read on newton_euler's contract."""
    n, state = chain.n, JointState(q=q, qd=qd, qdd=qdd)
    return _own_sets(np.stack([rnea(chain, DynamicParameters.from_vector(
        np.concatenate((p, np.zeros(3 * n))), n).links, state, gravity=g)
        for p in Pi.T], axis=-1))


def _gravities(chain, mode, nb, rng):
    """The gravity of each of nb motion blocks in a mode, (nb, 3), and the
    newton_euler argument for it."""
    g_rows = np.tile(chain.gravity_vector, (nb, 1))
    if mode == "off":
        g_rows[:] = 0.0
    elif mode == "per-block":
        g_rows[rng.random(nb) < 0.5] = 0.0
    return g_rows, {"chain": None, "off": (0.0, 0.0, 0.0),
                    "per-block": g_rows}[mode]


# gravity from the chain, off, or given per motion block, (nb, 3); one
# plain block takes a (1, 3) gravity
_GRAVITY = ["chain", "off", "per-block"]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_matches_rnea(seed, chain, gravity, data):
    # S = 1 or n; every set, state and gravity mode agrees with rnea to
    # c01's relative error 1e-9
    rng = np.random.default_rng(seed)
    n, m = chain.n, 5
    Q, Qd, Qdd, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                   rng)
    g_rows, arg = _gravities(chain, gravity, 1, rng)
    tau = newton_euler(chain, Q, Qd, Qdd, fold_sets(chain, Pi), gravity=arg)
    assert tau.shape == (m, n)
    for k in range(m):
        ref = _rnea_of_sets(chain, Pi, Q[k], Qd[k], Qdd[k], g_rows[0])
        assert np.max(np.abs(tau[k] - ref) / (1.0 + np.abs(ref))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_single_state_is_its_batch_row(seed, m, chain, gravity,
                                                    data):
    rng = np.random.default_rng(seed)
    Q, Qd, Qdd, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                   rng)
    _, arg = _gravities(chain, gravity, 1, rng)
    row = data.draw(st.integers(0, m - 1))
    sets = fold_sets(chain, Pi)
    batch = newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg)
    one = newton_euler(chain, Q[row], Qd[row], Qdd[row], sets, gravity=arg)
    assert one.shape == (1,) + batch.shape[1:]
    assert one[0].tobytes() == batch[row].tobytes()


def _random_blocks(chain, m, nb, mode, rng):
    """nb blocks of velocities and accelerations over m configurations, as
    tuples of (m, n) arrays, the gravity of each block and the newton_euler
    argument for it."""
    n = chain.n
    Qd = tuple(rng.uniform(-3.0, 3.0, (nb, m, n)))
    Qdd = tuple(rng.uniform(-10.0, 10.0, (nb, m, n)))
    return (Qd, Qdd) + _gravities(chain, mode, nb, rng)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_blocks_match_one_call_per_block(seed, m, chain, gravity,
                                                      data):
    # motion blocks over one set of configurations, Qd one array shared by
    # all blocks or not: each block agrees with its own call to 1e-12 and
    # with rnea to c01's 1e-9
    rng = np.random.default_rng(seed)
    nb = data.draw(st.integers(1, 4))
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, g_rows, arg = _random_blocks(chain, m, nb, gravity, rng)
    if data.draw(st.booleans()):
        Qd = (Qd[0],) * nb
    sets = fold_sets(chain, Pi)
    tau = newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg)
    assert tau.shape == (nb, m, chain.n)
    k = data.draw(st.integers(0, m - 1))
    for b in range(nb):
        one = newton_euler(chain, Q, Qd[b], Qdd[b], sets, gravity=g_rows[b])
        assert np.max(np.abs(tau[b] - one) / (1.0 + np.abs(one))) < 1e-12
        ref = _rnea_of_sets(chain, Pi, Q[k], Qd[b][k], Qdd[b][k], g_rows[b])
        assert np.max(np.abs(tau[b, k] - ref) / (1.0 + np.abs(ref))) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_blocks_single_configuration_is_its_batch_row(
        seed, m, chain, gravity, data):
    rng = np.random.default_rng(seed)
    nb = data.draw(st.integers(1, 4))
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, _, arg = _random_blocks(chain, m, nb, gravity, rng)
    row = data.draw(st.integers(0, m - 1))
    sets = fold_sets(chain, Pi)
    batch = newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg)
    one = newton_euler(chain, Q[row], tuple(b[row] for b in Qd),
                       tuple(b[row] for b in Qdd), sets, gravity=arg)
    assert one.shape == (nb, 1) + batch.shape[2:]
    assert one[:, 0].tobytes() == batch[:, row].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_matches_unfolded_oracle(seed, m, chain, gravity, data):
    # the sets folded into the wrench basis agree with unit wrenches summed
    # per set to relative 1e-12, for S = 1 or n and one or more blocks
    rng = np.random.default_rng(seed)
    nb = data.draw(st.integers(1, 4))
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, _, arg = _random_blocks(chain, m, nb, gravity, rng)
    if nb == 1 and data.draw(st.booleans()):
        Qd, Qdd = Qd[0], Qdd[0]  # a plain array, not a tuple
    tau = newton_euler(chain, Q, Qd, Qdd, fold_sets(chain, Pi), gravity=arg)
    ref = _own_sets(newton_euler_unfolded(chain, Q, Qd, Qdd, Pi,
                                          gravity=arg))
    assert tau.shape == ref.shape
    assert tau.shape[-2:] == (m, chain.n)
    assert np.max(np.abs(tau - ref) / (1.0 + np.abs(ref))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 20),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_one_block_tuple_is_the_plain_array(seed, m, chain, gravity, data):
    # a tuple of one block gives the bits of the block given plainly, with
    # a block axis of one in front
    rng = np.random.default_rng(seed)
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, _, arg = _random_blocks(chain, m, 1, gravity, rng)
    sets = fold_sets(chain, Pi)
    one = newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg)
    plain = newton_euler(chain, Q, Qd[0], Qdd[0], sets, gravity=arg)
    assert one.shape == (1,) + plain.shape
    assert one.tobytes() == plain.tobytes()


def _across_block_edges(data, block):
    """A state count just below, at or just above a multiple of block."""
    k = data.draw(st.integers(1, 2 if block == BLOCK_STATES else 4))
    return max(1, k * block + data.draw(st.integers(-1, 1)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 7, BLOCK_STATES]),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_newton_euler_block_size_changes_no_bit(seed, block, chain, gravity,
                                                data):
    # at any block size, and for batches that end just before, at or just
    # after a block edge, every state's torques are bitwise its own call's:
    # S = 1 or n, plain arrays or tuples of motion blocks, every gravity
    rng = np.random.default_rng(seed)
    m = _across_block_edges(data, block)
    blocks = data.draw(st.booleans())
    nb = data.draw(st.integers(1, 3)) if blocks else 1
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, _, arg = _random_blocks(chain, m, nb, gravity, rng)
    if not blocks:
        Qd, Qdd = Qd[0], Qdd[0]
    sets = fold_sets(chain, Pi)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_STATES", block)
        tau = newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg)
    assert tau.shape == ((nb,) if blocks else ()) + (m, chain.n)
    for k in range(m):
        if blocks:
            one = newton_euler(chain, Q[k], tuple(b[k] for b in Qd),
                               tuple(b[k] for b in Qdd), sets,
                               gravity=arg)[:, 0]
            row = tau[:, k]
        else:
            one = newton_euler(chain, Q[k], Qd[k], Qdd[k], sets,
                               gravity=arg)[0]
            row = tau[k]
        assert one.tobytes() == row.tobytes()


def test_helper_threads_stay_at_the_measured_count(monkeypatch):
    # one helper, the count measured (a 2-CPU machine), where the process
    # may run on a second CPU: two or more in its affinity, and a CPU-time
    # quota of none or two or more whole CPUs, however many it allows
    for cpus, quota, helper in (
            (1, None, False), (1, 8, False), (2, None, True),
            (64, None, True), (64, 0, False), (64, 1, False),
            (64, 2, True), (2, 64, True)):
        monkeypatch.setattr(dynamics.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(dynamics, "_cpu_quota", lambda: quota)
        assert dynamics._second_cpu() is helper
    # a lone block runs on the calling thread, and no CPU count is read
    monkeypatch.setattr(dynamics, "_second_cpu", lambda: 1 / 0)
    ran = []
    dynamics.run_shared(lambda rows: ran.append(threading.get_ident()),
                        [slice(0, 512)])
    assert ran == [threading.get_ident()]


@pytest.mark.parametrize("v2, v1, cpus", [
    ("max 100000", None, None), ("150000 100000", None, 1),
    ("400000 100000", "-1", 4), (None, "-1", None), (None, "250000", 2),
    (None, None, None), ("max", None, None), ("x 100000", None, None),
    ("100000 0", None, None)])
def test_cpu_quota_reads_cgroup_v2_then_v1(tmp_path, monkeypatch, v2, v1,
                                           cpus):
    # cgroup v2's cpu.max holds quota and period; v1 keeps them in two
    # files, and is read only without cpu.max.  A missing or malformed
    # file, or no quota (max, -1), means no cap
    paths = {"_CPU_MAX": v2, "_CFS_QUOTA": v1,
             "_CFS_PERIOD": None if v1 is None else "100000"}
    for name, text in paths.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text + "\n")
        monkeypatch.setattr(dynamics, name, str(path))
    assert dynamics._cpu_quota() == cpus


def test_single_block_pass_reads_no_cpu_quota(chain, monkeypatch):
    # the quota is read for a pass of more than one block only: never on
    # a single-state call or a batch of one block
    def refuse():
        raise AssertionError("quota read")

    monkeypatch.setattr(dynamics, "_cpu_quota", refuse)
    sets = fold_sets(chain, np.zeros((10 * chain.n, 1)))
    q = np.zeros((BLOCK_STATES, chain.n))
    newton_euler(chain, q[0], q[0], q[0], sets)
    newton_euler(chain, q, q, q, sets)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       m=st.sampled_from([1, BLOCK_STATES, BLOCK_STATES + 1,
                          3 * BLOCK_STATES + 1, 2500]),
       chain=st.sampled_from([ur10_chain(), TOY]),
       gravity=st.sampled_from(_GRAVITY), data=st.data())
def test_helper_threads_change_no_bit(seed, m, chain, gravity, data):
    # the blocks of a batch run on the calling thread and the helper give
    # the calling thread's bits alone: one block or several, S = 1 or n,
    # plain arrays or tuples of motion blocks with gravity per block
    rng = np.random.default_rng(seed)
    blocks = data.draw(st.booleans())
    nb = data.draw(st.integers(1, 3)) if blocks else 1
    Q, _, _, Pi = _random_batch(chain, m, data.draw(_set_counts(chain)),
                                rng)
    Qd, Qdd, _, arg = _random_blocks(chain, m, nb, gravity, rng)
    if not blocks:
        Qd, Qdd = Qd[0], Qdd[0]
    sets = fold_sets(chain, Pi)
    runs = []
    with pytest.MonkeyPatch.context() as mp:
        for helper in (False, True):
            mp.setattr(dynamics, "_second_cpu", lambda: helper)
            runs.append(newton_euler(chain, Q, Qd, Qdd, sets, gravity=arg))
    assert runs[0].shape == ((nb,) if blocks else ()) + (m, chain.n)
    assert runs[1].tobytes() == runs[0].tobytes()


def _shared_blocks_run_once(monkeypatch, run, block_name, start):
    """run() once serially, then as 300 one-state blocks shared by the
    calling thread and the helper, with the interpreter switching threads
    as often as it can: every block runs once (start(args) is the first
    state of the block a call to block_name runs), and the bits stay the
    serial run's."""
    monkeypatch.setattr(dynamics, "_second_cpu", lambda: False)
    serial = run()
    monkeypatch.setattr(dynamics, "BLOCK_STATES", 1)
    monkeypatch.setattr(dynamics, "_second_cpu", lambda: True)
    ran, block = [], getattr(dynamics, block_name)

    def counted(*args):
        ran.append(start(args))
        block(*args)

    monkeypatch.setattr(dynamics, block_name, counted)
    out = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: out.append(run()))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(ran) == list(range(300))
    assert out[0].tobytes() == serial.tobytes()


def test_every_block_runs_once_on_more_threads_than_cpus(monkeypatch):
    # the calling thread and the helper share 300 one-state blocks through
    # one iterator: a block taken twice or never shows in the count
    chain, m = ur10_chain(), 300
    Q, Qd, Qdd, Pi = _random_batch(chain, m, chain.n,
                                   np.random.default_rng(13))
    sets = fold_sets(chain, Pi)
    _shared_blocks_run_once(
        monkeypatch, lambda: newton_euler(chain, Q, Qd, Qdd, sets),
        "_block_torques", lambda args: args[-1].start)


def test_column_request_blocks_run_once_on_more_threads_than_cpus(
        monkeypatch):
    # the column request's blocks, shared the same way, each write their
    # own states' columns of every joint's array on a random row mask
    chain, m = ur10_chain(), 300
    rng = np.random.default_rng(13)
    Q, Qd, Qdd, _ = _random_batch(chain, m, 1, rng)
    rows = rng.random((m, chain.n)) < 0.7
    cols = [np.arange(13 * chain.n)] * chain.n

    def run():
        out = [np.empty((len(c), k)) for c, k in zip(cols, rows.sum(0))]
        regressor_columns(chain, Q, Qd, Qdd, cols, out, rows)
        return np.concatenate(out, axis=1)

    _shared_blocks_run_once(monkeypatch, run, "_block_columns",
                            lambda args: args[-1][0].start)


def test_helper_exception_reaches_the_caller(monkeypatch):
    # a block that raises on the helper thread raises from the call, once
    # the helper has ended; the calling thread's own block waits until the
    # helper has taken one
    chain = ur10_chain()
    Q, Qd, Qdd, Pi = _random_batch(chain, 40, 1, np.random.default_rng(14))
    monkeypatch.setattr(dynamics, "BLOCK_STATES", 8)
    monkeypatch.setattr(dynamics, "_second_cpu", lambda: True)
    caller, on_helper = threading.get_ident(), threading.Event()
    block = dynamics._block_torques

    def failing(*args):
        if threading.get_ident() != caller:
            on_helper.set()
            raise RuntimeError(f"block at row {args[-1].start}")
        on_helper.wait(timeout=60)
        block(*args)

    monkeypatch.setattr(dynamics, "_block_torques", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=r"^block at row \d+$"):
        newton_euler(chain, Q, Qd, Qdd, fold_sets(chain, Pi))
    assert on_helper.is_set()
    assert threading.active_count() == before


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("sets", [1, 6])
def test_newton_euler_empty_batch_keeps_its_shape(lead, sets):
    # lead is the result's leading shape: none for plain arrays, (nb,) for
    # a tuple of nb motion blocks
    chain = ur10_chain()
    z = np.zeros((0, 6))
    blocks = (z,) * lead[0] if lead else z
    tau = newton_euler(chain, z, blocks, blocks,
                       fold_sets(chain, np.zeros((60, sets))))
    assert tau.shape == lead + (0, 6)


@pytest.mark.parametrize("lead", [(), (2,)])
def test_non_finite_entry_in_a_later_block_names_its_batch_row(
        lead, monkeypatch):
    # in a plain array or in the last of a tuple of motion blocks, the row
    # is the batch's and no block is named
    monkeypatch.setattr(dynamics, "BLOCK_STATES", 7)
    chain = ur10_chain()
    z = np.zeros((20, 6))
    bad = np.zeros((20, 6))
    bad[17, 4] = np.inf
    Qd, Qdd = ((z,) * lead[0], (z,) * (lead[0] - 1) + (bad,)) if lead \
        else (z, bad)
    with pytest.raises(ValueError,
                       match="^qdd is not finite at row 17, column 4$"):
        newton_euler(chain, z, Qd, Qdd, fold_sets(chain, np.zeros((60, 1))))


# nonzero joint offsets, a negative link length, twists off the axes
OFFSETS = KinematicChain(rows=(DhRow(0.4, 0.7, -0.2, 0.5),
                               DhRow(-0.3, -2.1, 0.15, -1.3),
                               DhRow(0.0, np.pi / 2, 0.25, 2.0)))


# 32 joints, each with its own set: link 31's fold is 3 + 6 * 32 = 195
# columns wide, the narrowest chain whose products split at
# dynamics._PRODUCT_COLUMNS
LONG = KinematicChain(rows=tuple(
    DhRow(0.05 + 0.01 * (k % 5), (-1.0) ** k * (0.3 + 0.1 * (k % 3)),
          0.02 * (k % 4), 0.1 * k) for k in range(32)))


def _origin_offsets(chain):
    # R_i^T p_i from local_frames at zero DH angle (q_i = -offset_i), where
    # it reads (a_i, d_i sin alpha_i, d_i cos alpha_i) with no rounding
    R, p = local_frames(chain, [-row.offset for row in chain.rows])
    return (p[:, None, :] @ R)[:, 0, :]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS]))
def test_origin_offset_in_own_frame_is_constant(seed, m, chain):
    # standard DH: R_i^T p_i = (a_i, d_i sin alpha_i, d_i cos alpha_i) for
    # every q, with R_i from local_frames_batch
    Q = np.random.default_rng(seed).uniform(-2 * np.pi, 2 * np.pi,
                                            (m, chain.n))
    R = local_frames_batch(chain, Q)
    p = np.stack([local_frames(chain, q)[1] for q in Q])
    r = (p[..., None, :] @ R)[..., 0, :]
    assert np.max(np.abs(r - _origin_offsets(chain))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS]))
def test_origin_maps_match_cross_products(seed, m, chain):
    # x @ X_i = x x r_i, and the last nine motion numbers times C_i give
    # omd x r_i + om x (om x r_i)
    rng = np.random.default_rng(seed)
    om, omd, x = (rng.uniform(-s, s, (m, 3)) for s in (3.0, 10.0, 1.0))
    F = _motion_numbers(np.concatenate((om, omd, np.zeros((m, 3))), axis=1))
    dh = chain.dh
    for i, r in enumerate(_origin_offsets(chain)):
        for got, ref in ((x @ dh.X[i], np.cross(x, r)),
                         (F[:, 3:] @ dh.C[i],
                          np.cross(omd, r) + np.cross(om, np.cross(om, r)))):
            assert np.max(np.abs(got - ref) / (1.0 + np.abs(ref))) < 1e-12


def test_wrench_basis_is_signed_selection():
    assert _WRENCH_BASIS.shape == (12, 60)
    assert set(np.unique(_WRENCH_BASIS)) <= {-1.0, 0.0, 1.0}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS]))
def test_unit_wrenches_match_oracle(seed, m, chain):
    # one product of the motion numbers with a link's map of the constant
    # basis gives the origin's acceleration, the parent's plus
    # omd x r_i + om x (om x r_i), and the unit wrenches the skew-matrix
    # formulas give at that acceleration
    rng = np.random.default_rng(seed)
    om = rng.uniform(-3.0, 3.0, (m, 3))
    omd = rng.uniform(-10.0, 10.0, (m, 3))
    acc = rng.uniform(-20.0, 20.0, (m, 3))
    F = _motion_numbers(np.concatenate((om, omd, acc), axis=1))
    B = _link_maps(chain, _WRENCH_BASIS)
    assert B.shape == (chain.n, 12, 63)
    for i, r in enumerate(_origin_offsets(chain)):
        G = F @ B[i]
        acc_i = acc + np.cross(omd, r) + np.cross(om, np.cross(om, r))
        ref = unit_wrenches(om, omd, acc_i)
        for got, want in ((G[:, :3], acc_i),
                          (G[:, 3:].reshape(m, 10, 6), ref)):
            assert np.max(np.abs(got - want) / (1.0 + np.abs(want))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS]))
def test_regressor_stack_matches_sweep_oracle(seed, m, chain):
    # the axis projection agrees with the joint-by-joint unit sweep to c01's
    # relative error 1e-9; link i's columns are exactly zero past row i
    rng = np.random.default_rng(seed)
    n = chain.n
    Q, Qd, Qdd, _ = _random_batch(chain, m, 1, rng)
    Y = regressor_stack(chain, Q, Qd, Qdd)
    ref = regressor_stack_sweep(chain, Q, Qd, Qdd)
    assert Y.shape == ref.shape == (m, n, 13 * n)
    assert np.max(np.abs(Y - ref) / (1.0 + np.abs(ref))) < 1e-9
    for i in range(n):
        assert not np.any(Y[:, i + 1:, 10 * i:10 * i + 10])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 60),
       chain=st.sampled_from([ur10_chain(), TOY]))
def test_regressor_stack_matches_single(seed, m, chain):
    # every row of a random batch is bitwise the regressor of its state alone
    rng = np.random.default_rng(seed)
    Q, Qd, Qdd, _ = _random_batch(chain, m, 1, rng)
    Ys = regressor_stack(chain, Q, Qd, Qdd)
    for k in range(m):
        st_k = JointState(q=Q[k], qd=Qd[k], qdd=Qdd[k])
        assert regressor(chain, st_k).tobytes() == Ys[k].tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 30),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS, LONG]),
       size=st.sampled_from(["1", "7", "M-1", "M", "M+1"]),
       helper=st.booleans(), masked=st.booleans())
def test_column_request_gives_regressor_stack_columns(seed, m, chain, size,
                                                      helper, masked):
    # random columns per joint, in any order and with repeats, over a
    # random row mask or every row: the request writes bitwise the entries
    # of regressor_stack (built whole at the default block size, helper
    # allowed), zeros and friction columns included, at any block size and
    # with the helper thread or without it
    rng = np.random.default_rng(seed)
    n, width = chain.n, (N_INERTIAL + N_FRICTION) * chain.n
    Q, Qd, Qdd, _ = _random_batch(chain, m, 1, rng)
    Qd[rng.random((m, n)) < 0.1] = 0.0  # sgn(0) = 0
    Y = regressor_stack(chain, Q, Qd, Qdd)
    rows = rng.random((m, n)) < rng.uniform(0.0, 1.0) if masked else None
    cols = [rng.integers(0, width, int(rng.integers(0, 2 * width)))
            for _ in range(n)]
    counts = rows.sum(axis=0) if masked else [m] * n
    out = [np.full((len(c), k), np.nan) for c, k in zip(cols, counts)]
    block = {"1": 1, "7": 7, "M-1": max(m - 1, 1), "M": m, "M+1": m + 1}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_STATES", block[size])
        mp.setattr(dynamics, "_second_cpu", lambda: helper)
        regressor_columns(chain, Q, Qd, Qdd, cols, out, rows)
    for j, (c, got) in enumerate(zip(cols, out)):
        want = Y[:, j][:, c] if rows is None else Y[rows[:, j], j][:, c]
        assert got.tobytes() == np.ascontiguousarray(want.T).tobytes(), j


@functools.cache
def _base_map(chain):
    return compute_base_map(chain)


def _solver_model(chain, rng, payload):
    """A complete solver model of random coefficients on the chain, with
    or without an eccentric payload."""
    n, bmap = chain.n, _base_map(chain)
    psi = FrictionSet(f_o=rng.uniform(-0.5, 0.5, n),
                      f_v=rng.uniform(0.1, 2.0, n),
                      f_c=rng.uniform(0.1, 1.0, n),
                      delta=rng.uniform(10.0, 100.0, n),
                      nu=rng.uniform(-0.05, 0.05, n))
    model = IdentifiedModel(name="random", chain=chain, map=bmap,
                            chi=rng.uniform(-1.0, 1.0, (n, bmap.c)),
                            psi=psi, gains=rng.uniform(5.0, 20.0, n))
    if payload:
        model = configure_payload(model, PayloadSpec(
            mass=4.8, com=(0.10, 0.06, 0.05),
            inertia_com=np.diag((0.030, 0.035, 0.030))))
    return model


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       chain=st.sampled_from([ur10_chain(), TOY, OFFSETS]),
       m=st.sampled_from([2, BLOCK_STATES + 1]),
       payload=st.booleans(), data=st.data())
def test_lone_state_rounds_as_its_batch_row(seed, chain, m, payload, data):
    # each link's motion product is one 2-D product over a block's rows,
    # never fewer than two, so a lone state's product is a matrix product
    # too and must round exactly as its row inside a batch does: a drawn
    # state and the last, which a batch of BLOCK_STATES + 1 leaves alone in
    # its own block, are bitwise their own calls in every result
    rng = np.random.default_rng(seed)
    n = chain.n
    Q, Qd, Qdd, Pi = _random_batch(chain, m, n, rng)
    *long_states, long_sets = _random_batch(LONG, m, LONG.n, rng)
    model = _solver_model(chain, rng, payload)
    one_set, sets = fold_sets(chain, Pi[:, :1]), fold_sets(chain, Pi)
    long_sets = fold_sets(LONG, long_sets)

    def results(rows):
        q, qd, qdd = Q[rows], Qd[rows], Qdd[rows]
        batch = np.ndim(q) == 2
        Y = regressor_stack(chain, *(np.atleast_2d(x) for x in (q, qd, qdd)))
        return {"newton_euler, S = 1": newton_euler(chain, q, qd, qdd,
                                                   one_set),
                "newton_euler, S = n": newton_euler(chain, q, qd, qdd, sets),
                "newton_euler, 32 joints, S = n": newton_euler(
                    LONG, *(x[rows] for x in long_states), long_sets),
                "regressor_stack": Y,
                "regressor": Y if batch else regressor(
                    chain, JointState(q=q, qd=qd, qdd=qdd))[None],
                "torque": torque(model, q, qd, qdd),
                "torque_terms": np.stack(torque_terms(model, q, qd, qdd),
                                         axis=-2),
                "gravity": gravity(model, q),
                "coriolis_times_qd": coriolis_times_qd(model, q, qd)}

    whole = results(slice(None))
    for k in (data.draw(st.integers(0, m - 2)), m - 1):
        one = results(k)
        assert [key for key, x in one.items() if x.tobytes()
                != whole[key][k].tobytes()] == [], k


def test_newton_euler_shape_guards():
    chain = ur10_chain()
    z = np.zeros((2, 6))
    sets = fold_sets(chain, np.zeros((60, 1)))
    with pytest.raises(ValueError, match="Pi"):
        fold_sets(chain, np.zeros((59, 1)))
    # one set per joint or one for all: two sets on six joints name both
    for count in (2, 7):
        with pytest.raises(ValueError, match=re.escape(
                "Pi must be (60, 6), a set per joint, or (60, 1)")):
            fold_sets(chain, np.zeros((60, count)))
    with pytest.raises(ValueError, match="expected 6 joints, got 5"):
        newton_euler(chain, z[:, :5], z[:, :5], z[:, :5], sets)
    with pytest.raises(ValueError, match=re.escape("got q (2, 6), qd (1, 6)")):
        newton_euler(chain, z, z[:1], z, sets)
    # motion blocks are newton_euler's alone; the regressor takes states
    with pytest.raises(ValueError, match="one shape"):
        regressor_stack(chain, z, np.zeros((3, 2, 6)), z)


def test_newton_euler_takes_one_form_of_motion_blocks():
    # Qd and Qdd are two arrays, or two tuples of as many (M, n) blocks, and
    # gravity is (3,) or one per block, (nb, 3): every other form raises,
    # naming the shapes
    chain = ur10_chain()
    z = np.zeros((2, 6))
    sets = fold_sets(chain, np.zeros((60, 1)))
    for Qd, Qdd, got in (((z, z), (z,), "2 and 1"),
                         ((z,), z, "1 and an array"), ((), (), "0 and 0")):
        with pytest.raises(ValueError, match=re.escape(
                f"as many blocks, one or more; got {got}")):
            newton_euler(chain, z, Qd, Qdd, sets)
    # a block of the wrong shape, and a leading block axis
    with pytest.raises(ValueError,
                       match=re.escape("got q (2, 6), qdd (2, 5)")):
        newton_euler(chain, z, (z, z), (z, z[:, :5]), sets)
    with pytest.raises(ValueError,
                       match=re.escape("got q (2, 6), qd (3, 2, 6)")):
        newton_euler(chain, z, np.zeros((3, 2, 6)), z, sets)
    # gravity per state, (M, 3), is not one per block, nor are block axes
    for blocks, g in ((z, np.zeros((2, 3))), ((z,) * 3, np.zeros((2, 3))),
                      ((z,) * 2, np.zeros((2, 2, 3))),
                      ((z,) * 2, np.zeros((2, 1, 3))),
                      (z, np.zeros(2)), (z, np.zeros((3, 1)))):
        nb = len(blocks) if isinstance(blocks, tuple) else 1
        with pytest.raises(ValueError, match=re.escape(
                f"gravity must be (3,) or ({nb}, 3), one per motion block; "
                f"got {g.shape}")):
            newton_euler(chain, z, blocks, blocks, sets, gravity=g)


def test_newton_euler_names_non_finite_block():
    # an entry of any motion block is named by its array, row and column
    chain = ur10_chain()
    z = np.zeros((2, 6))
    Qd = np.zeros((2, 6))
    Qd[1, 4] = np.nan
    with pytest.raises(ValueError,
                       match="^qd is not finite at row 1, column 4$"):
        newton_euler(chain, z, (z, z, Qd), (z, z, z),
                     fold_sets(chain, np.zeros((60, 1))))


# ---------------------------------------------------------------------------
# parameter containers

def test_inertial_parameters_steiner_round_trip():
    rng = np.random.default_rng(10)
    m = 3.2
    com = np.array([0.05, -0.02, 0.11])
    A = rng.uniform(-1, 1, (3, 3))
    Ic = A @ A.T * 0.01 + np.eye(3) * 0.005
    lk = InertialParameters.from_com(m, com, Ic)
    assert np.allclose(lk.com, com, atol=1e-14)
    assert np.allclose(lk.inertia_com, Ic, atol=1e-14)
    assert np.allclose(np.array(lk.first_moment), m * com, atol=1e-14)


def test_massless_link_without_first_moment_sits_at_its_origin():
    # no division by the zero mass (RuntimeWarnings fail the suite)
    I0 = np.diag((0.01, 0.02, 0.03))
    lk = InertialParameters(mass=0.0, first_moment=(0, 0, 0),
                            inertia_origin=I0)
    assert np.array_equal(lk.com, np.zeros(3))
    assert np.array_equal(lk.inertia_com, I0)


def test_massless_link_with_first_moment_has_no_com():
    lk = InertialParameters(mass=0.0, first_moment=(0.0, 0.1, 0.0),
                            inertia_origin=np.diag((0.01, 0.02, 0.03)))
    for prop in ("com", "inertia_com"):
        with pytest.raises(ValueError, match="^a massless link with a "
                           "nonzero first moment has no centre of mass$"):
            getattr(lk, prop)


def test_inertial_parameters_validation():
    with pytest.raises(ValueError):
        InertialParameters(mass=1.0, first_moment=(0.0, 0.0, 0.0),
                           inertia_origin=((0, 1, 0), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        InertialParameters.from_com(-1.0, (0, 0, 0), np.eye(3))


def test_dynamic_parameters_vector_layout():
    rng = np.random.default_rng(12)
    links = random_links(2, rng)
    tri = ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
    params = DynamicParameters(links=tuple(links), friction=tri)
    vec = params.to_vector()
    assert vec.shape == (26,)
    assert vec[0] == links[0].mass
    assert np.array_equal(vec[20:], [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    back = InertialParameters.from_vector(vec[10:20])
    assert back.mass == links[1].mass
    assert np.array_equal(np.array(back.inertia_origin),
                          np.array(links[1].inertia_origin))
