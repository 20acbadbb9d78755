import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynid.kinematics import (DhRow, KinematicChain, dh_transform,
                              local_frames, local_frames_batch, ur10_chain)
from forward_kinematics import frame_chain, link_pose

joint_vectors = st.lists(st.floats(-np.pi, np.pi), min_size=6, max_size=6)


def test_ur10_chain_rows():
    chain = ur10_chain()
    assert chain.n == 6
    assert chain.rows[1].a == 0.612
    assert chain.rows[5].d == 0.0922
    assert all(row.offset == 0.0 for row in chain.rows)
    assert np.allclose(chain.gravity_vector, [0.0, 0.0, -9.80665])


def test_link_pose_identity_single_row():
    chain = KinematicChain(rows=(DhRow(0.0, 0.0, 0.0),))
    T = link_pose(chain, [0.0], 1)
    assert np.array_equal(T, np.eye(4))


def test_link_pose_ur10_zero_pose():
    chain = ur10_chain()
    T1 = link_pose(chain, np.zeros(6), 1)
    assert np.allclose(T1[:3, 3], [0.0, 0.0, 0.1273], atol=1e-15)
    # flange origin at the zero pose, chained by hand from the row constants:
    # x = 0.612 + 0.5723, y = 0.163941 + 0.0922, z = 0.1273 - 0.1157
    T6 = link_pose(chain, np.zeros(6), 6)
    assert np.allclose(T6[:3, 3], [1.1843, 0.256141, 0.0116], atol=1e-12)


def test_link_pose_index_range():
    chain = ur10_chain()
    with pytest.raises(ValueError):
        link_pose(chain, np.zeros(6), 7)
    with pytest.raises(ValueError):
        link_pose(chain, np.zeros(6), -1)
    assert np.array_equal(link_pose(chain, np.zeros(6), 0), np.eye(4))


def test_q_length_checked():
    chain = ur10_chain()
    with pytest.raises(ValueError):
        link_pose(chain, np.zeros(5), 3)


@settings(max_examples=40, deadline=None)
@given(joint_vectors)
def test_pose_composition(qs):
    chain = ur10_chain()
    q = np.asarray(qs)
    for i in range(1, 7):
        lhs = link_pose(chain, q, i)
        rhs = link_pose(chain, q, i - 1) @ dh_transform(chain.rows[i - 1], q[i - 1])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_rotation_orthonormality_bulk():
    chain = ur10_chain()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        q = rng.uniform(-np.pi, np.pi, 6)
        for T in frame_chain(chain, q)[1:]:
            R = T[:3, :3]
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_origin_continuity():
    # a 1e-6 joint perturbation moves any origin by at most L * 1e-6 with
    # L bounded by the total link length of the arm (~1.7 m)
    chain = ur10_chain()
    rng = np.random.default_rng(3)
    L = sum(abs(r.a) + abs(r.d) for r in chain.rows) + 0.5
    eps = 1e-6
    for _ in range(20):
        q = rng.uniform(-np.pi, np.pi, 6)
        p0 = link_pose(chain, q, 6)[:3, 3]
        for j in range(6):
            dq = np.zeros(6)
            dq[j] = eps
            p1 = link_pose(chain, q + dq, 6)[:3, 3]
            assert np.linalg.norm(p1 - p0) <= L * eps


def test_local_frames_batch_is_local_frames_rotations():
    # the batch holds each state's rotations and nothing else; the origin
    # offsets are the chain's constants (KinematicChain.dh)
    chain = ur10_chain()
    Q = np.random.default_rng(8).uniform(-np.pi, np.pi, (7, 6))
    R = local_frames_batch(chain, Q)
    assert R.shape == (7, 6, 3, 3)
    for q, Rq in zip(Q, R):
        assert np.max(np.abs(Rq - local_frames(chain, q)[0])) < 1e-15
