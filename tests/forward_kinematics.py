"""Forward kinematics by chained DH transforms.

The package never needs base-frame poses: the dynamics work in link
frames.  These are the reference poses for the kinematics tests and the
Lagrangian torque oracle in test_dynamics.py.
"""
import numpy as np

from dynid.kinematics import KinematicChain, dh_transform


def link_pose(chain: KinematicChain, q, i: int) -> np.ndarray:
    """Pose of frame i in the base frame; i ranges over 1..n (0 gives identity)."""
    q = chain.check_q(q)
    if not 0 <= i <= chain.n:
        raise ValueError(f"frame index {i} outside 0..{chain.n}")
    T = np.eye(4)
    for k in range(i):
        T = T @ dh_transform(chain.rows[k], q[k])
    return T


def frame_chain(chain: KinematicChain, q) -> list[np.ndarray]:
    """All cumulative poses [T_0, T_1, ..., T_n] with T_0 the identity."""
    q = chain.check_q(q)
    out = [np.eye(4)]
    for k in range(chain.n):
        out.append(out[-1] @ dh_transform(chain.rows[k], q[k]))
    return out
