import numpy as np
import pytest

from dynid.dynamics import (DynamicParameters, InertialParameters, JointState,
                            fold_sets, newton_euler, rnea)
from dynid.kinematics import DhRow, KinematicChain
from dynid.payload import PayloadSpec, apply_payload, payload_to_frame_n


def _skew(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def _random_links(n, rng):
    links = []
    for _ in range(n):
        m = rng.uniform(0.5, 10.0)
        com = rng.uniform(-0.3, 0.3, size=3)
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        links.append(InertialParameters.from_com(
            m, com, A @ A.T * 0.05 + np.eye(3) * 0.01))
    return links


def _arm_and_payload(chain, links, pi_L, st):
    # one newton_euler call per set, each shared by every joint: the arm,
    # and pi_L alone on the last link; by linearity their sum is the
    # loaded arm's torque
    arm = np.concatenate([lk.to_vector() for lk in links])
    load = np.zeros_like(arm)
    load[-10:] = pi_L
    return tuple(newton_euler(chain, *st.arrays(),
                              fold_sets(chain, Pi[:, None]))[0]
                 for Pi in (arm, load))


def test_zero_mass_payload_vanishes():
    spec = PayloadSpec(mass=0.0, com=(0.3, 0.2, 0.1),
                       inertia_com=np.zeros((3, 3)))
    assert np.array_equal(payload_to_frame_n(spec), np.zeros(10))


def test_identity_frame_is_plain_steiner():
    r = np.array([0.05, -0.02, 0.12])
    Ic = np.diag((0.01, 0.02, 0.015))
    m = 2.4
    spec = PayloadSpec(mass=m, com=r, inertia_com=Ic)
    pi = payload_to_frame_n(spec)
    I_expect = Ic + m * _skew(r).T @ _skew(r)
    assert pi[0] == m
    assert np.allclose(pi[1:4], m * r, atol=1e-15)
    assert np.allclose(pi[4:], [I_expect[0, 0], I_expect[0, 1], I_expect[0, 2],
                                I_expect[1, 1], I_expect[1, 2], I_expect[2, 2]],
                       atol=1e-15)


def test_rotated_hand_payload_oracle():
    # gripper-like payload mounted concentrically, rotated 45 degrees about z
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    spec = PayloadSpec(mass=0.73, com=(0.0, 0.010, 0.030),
                       inertia_com=np.diag((1.0e-3, 2.5e-3, 1.7e-3)),
                       R_l_n=R, t_l_n=(0.0, 0.0, 0.0))
    pi = payload_to_frame_n(spec)
    # frozen from an independent evaluation of the rotation + Steiner formulas
    expect = np.array([0.73,
                       -5.1618795026617962e-03, 5.1618795026617979e-03,
                       2.19e-02,
                       2.4434999999999995e-03, -7.1349999999999994e-04,
                       1.5485638507985389e-04, 2.4435000000000004e-03,
                       -1.5485638507985392e-04, 1.773e-03])
    assert np.allclose(pi, expect, atol=1e-15)


def test_frame_covariance():
    # the same physical payload described in two different body frames maps
    # to the same flange-frame parameter vector
    rng = np.random.default_rng(14)
    m = 3.1
    r1 = rng.uniform(-0.1, 0.1, 3)
    A = rng.uniform(-1, 1, (3, 3))
    I1 = A @ A.T * 1e-3 + np.eye(3) * 1e-3
    th = 0.7
    R1 = np.array([[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0],
                   [0, 0, 1.0]])
    t1 = np.array([0.01, -0.02, 0.04])
    spec1 = PayloadSpec(mass=m, com=r1, inertia_com=I1, R_l_n=R1, t_l_n=t1)

    ph = 0.4
    R12 = np.array([[1, 0, 0], [0, np.cos(ph), -np.sin(ph)],
                    [0, np.sin(ph), np.cos(ph)]])
    t12 = np.array([-0.03, 0.05, 0.02])
    # frame 2 = frame 1 shifted by (R12, t12); re-express everything there
    R2 = R1 @ R12
    t2 = R1 @ t12 + t1
    r2 = R12.T @ (r1 - t12)
    I2 = R12.T @ I1 @ R12
    spec2 = PayloadSpec(mass=m, com=r2, inertia_com=I2, R_l_n=R2, t_l_n=t2)
    assert np.allclose(payload_to_frame_n(spec1), payload_to_frame_n(spec2),
                       atol=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        PayloadSpec(mass=-1.0, com=(0, 0, 0), inertia_com=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PayloadSpec(mass=1.0, com=(0, 0, 0),
                    inertia_com=[[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        PayloadSpec(mass=1.0, com=(0, 0, 0), inertia_com=np.zeros((3, 3)),
                    R_l_n=np.eye(3) * 2.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        PayloadSpec(mass=1.0, com=(0, 0, 0), inertia_com=-np.eye(3))
    # a reflection is orthonormal, but would mirror the payload's COM
    with pytest.raises(ValueError, match="^R_l_n must be a rotation, not a "
                       "reflection"):
        PayloadSpec(mass=1.0, com=(0, 0, 0), inertia_com=np.zeros((3, 3)),
                    R_l_n=np.diag((1.0, 1.0, -1.0)))


@pytest.mark.parametrize("field, value", [
    ("com", (np.nan, 0.0, 0.0)),
    ("inertia_com", np.diag((np.nan, 0.01, 0.01))),
    ("R_l_n", np.where(np.eye(3) > 0, np.inf, 0.0)),
    ("t_l_n", (0.0, np.inf, 0.0)),
])
def test_spec_rejects_non_finite_field(field, value):
    # a NaN passes the symmetry test (NaN > tol is False), so each field
    # is checked for finiteness before payload_to_frame_n can spread it
    good = dict(mass=1.0, com=(0.0, 0.0, 0.0), inertia_com=np.eye(3) * 0.01)
    with pytest.raises(ValueError, match=f"payload {field} must be finite"):
        PayloadSpec(**{**good, field: value})


def test_apply_payload():
    rng = np.random.default_rng(15)
    tri = tuple((0.0, 0.0, 0.0) for _ in range(6))
    params = DynamicParameters(links=tuple(_random_links(6, rng)),
                               friction=tri)
    same = apply_payload(params, np.zeros(10))
    assert same.links[5].mass == params.links[5].mass
    assert np.array_equal(np.array(same.links[5].inertia_origin),
                          np.array(params.links[5].inertia_origin))

    spec = PayloadSpec(mass=0.73, com=(0.0, 0.01, 0.03),
                       inertia_com=np.diag((1e-3, 2.5e-3, 1.7e-3)))
    pi_L = payload_to_frame_n(spec)
    last = InertialParameters.from_com(2.0, (0.0, 0.0, 0.02), np.eye(3) * 1e-3)
    params2 = DynamicParameters(links=params.links[:5] + (last,), friction=tri)
    updated = apply_payload(params2, pi_L)
    assert updated.links[5].mass == pytest.approx(2.73)
    # combined COM follows the mass-weighted mixing rule
    com_expect = (2.0 * np.array(last.com) + pi_L[1:4]) / 2.73
    assert np.allclose(updated.links[5].com, com_expect, atol=1e-12)
    # links before the last are untouched
    for i in range(5):
        assert updated.links[i].mass == params.links[i].mass


def test_zero_payload_set_gives_zero_torque(chain):
    rng = np.random.default_rng(16)
    links = _random_links(6, rng)
    st = JointState(q=tuple(rng.uniform(-np.pi, np.pi, 6)),
                    qd=tuple(rng.uniform(-2, 2, 6)),
                    qdd=tuple(rng.uniform(-5, 5, 6)))
    tau_arm, tau_L = _arm_and_payload(chain, links, np.zeros(10), st)
    assert np.array_equal(tau_L, np.zeros(6))
    assert np.allclose(tau_arm, rnea(chain, links, st), atol=1e-12)


def test_superposition_identity(chain):
    rng = np.random.default_rng(17)
    links = _random_links(6, rng)
    params = DynamicParameters(links=tuple(links),
                               friction=tuple((0.0, 0.0, 0.0) for _ in range(6)))
    for _ in range(20):
        spec = PayloadSpec(mass=rng.uniform(0.1, 6.0),
                           com=rng.uniform(-0.1, 0.1, 3),
                           inertia_com=np.diag(rng.uniform(1e-3, 5e-2, 3)))
        pi_L = payload_to_frame_n(spec)
        st = JointState(q=tuple(rng.uniform(-np.pi, np.pi, 6)),
                        qd=tuple(rng.uniform(-3, 3, 6)),
                        qdd=tuple(rng.uniform(-10, 10, 6)))
        tau_arm, tau_L = _arm_and_payload(chain, links, pi_L, st)
        combined = rnea(chain, apply_payload(params, pi_L).links, st)
        assert np.max(np.abs(combined - (tau_arm + tau_L))) < 1e-9


def test_static_point_payload_moment_arm():
    # single horizontal link, gravity -y: a point payload of mass m with COM
    # at x = r on the last (only) link adds exactly m g r cos(q)
    pend = KinematicChain(rows=(DhRow(0.0, 0.0, 0.0),),
                          gravity=(0.0, -9.80665, 0.0))
    link = InertialParameters.from_com(1.5, (0.2, 0.0, 0.0), np.zeros((3, 3)))
    spec = PayloadSpec(mass=0.8, com=(0.35, 0.0, 0.0),
                       inertia_com=np.zeros((3, 3)))
    pi_L = payload_to_frame_n(spec)
    for qv in (0.0, 0.5, -1.1):
        st = JointState(q=(qv,), qd=(0.0,), qdd=(0.0,))
        _, tau_L = _arm_and_payload(pend, [link], pi_L, st)
        assert tau_L[0] == pytest.approx(0.8 * 9.80665 * 0.35 * np.cos(qv),
                                         abs=1e-12)


def test_payload_inertia_symmetric_psd():
    rng = np.random.default_rng(18)
    for _ in range(20):
        A = rng.uniform(-1, 1, (3, 3))
        spec = PayloadSpec(mass=rng.uniform(0.1, 5.0),
                           com=rng.uniform(-0.2, 0.2, 3),
                           inertia_com=A @ A.T * 1e-3 + np.eye(3) * 1e-4)
        pi = payload_to_frame_n(spec)
        I_L = np.array([[pi[4], pi[5], pi[6]],
                        [pi[5], pi[7], pi[8]],
                        [pi[6], pi[8], pi[9]]])
        assert np.all(np.linalg.eigvalsh(I_L) > -1e-12)
