"""Serial-chain kinematics in the standard Denavit-Hartenberg convention.

Joint i rotates about the z axis of frame i-1.  The transform from frame i
to frame i-1 is Rot_z(theta_i) Trans_z(d_i) Trans_x(a_i) Rot_x(alpha_i)
with theta_i = q_i + offset_i.  All joints are revolute.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

GRAVITY_DEFAULT = (0.0, 0.0, -9.80665)
# (cos, sin) entries of the first two rows of a DH rotation (DhConstants)
_TRIG_PICK = np.array([[0, 1, 1], [1, 0, 0]])


@dataclass(frozen=True)
class DhRow:
    """One standard-DH row.

    Attributes:
        a: link length [m].
        alpha: link twist [rad].
        d: link offset [m].
        offset: constant angle [rad] added to the joint variable.
    """

    a: float
    alpha: float
    d: float
    offset: float = 0.0

    def __post_init__(self):
        for name in ("a", "alpha", "d", "offset"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"DhRow.{name} must be finite")


class DhConstants(NamedTuple):
    """What a chain's DH rows fix for every q, built once per chain.

    offset is the (n,) column of the rows.  trig_rows (n, 2, 3) and
    last_row (n, 3) give each rotation's rows from the cosine ct and sine
    st of its angle: (ct, st, st) and (st, ct, ct) times trig_rows,
    (1, -ca, sa) and (1, ca, -sa), then (0, sa, ca), for ca and sa those
    of alpha.  X (n, 3, 3) and C (n, 9, 3) are cross products with r_i,
    each origin's offset from its parent in its own frame, R_i^T p_i =
    (a_i, d_i sin alpha_i, d_i cos alpha_i), as maps on row vectors:
    x @ X[i] = x x r_i, and [omd, om_a*om_b for a <= b] @ C[i] =
    omd x r_i + om x (om x r_i), the products in np.triu_indices(3) order.
    P (n, 6, 6) moves a screw [m, a] from origin i-1 to origin i, in frame
    i: [m, a] @ P[i] = [m + a x r_i, a].
    """

    offset: np.ndarray
    trig_rows: np.ndarray
    last_row: np.ndarray
    X: np.ndarray
    C: np.ndarray
    P: np.ndarray


def _dh_constants(rows) -> DhConstants:
    a, alpha, d, offset = np.array(
        [(row.a, row.alpha, row.d, row.offset) for row in rows]).T
    ca, sa = np.cos(alpha), np.sin(alpha)
    one, zero = np.ones_like(a), np.zeros_like(a)
    trig_rows = np.stack((np.stack((one, -ca, sa), axis=-1),
                          np.stack((one, ca, -sa), axis=-1)), axis=1)
    last_row = np.stack((zero, sa, ca), axis=-1)
    r = np.stack((a, d * sa, d * ca), axis=-1)
    E = np.eye(3)
    X = np.cross(E, r[:, None])  # X[i, j] = e_j x r_i
    T = np.cross(E[:, None], X[:, None])  # T[i, j, k] = e_j x (e_k x r_i)
    j, k = np.triu_indices(3)
    C = np.concatenate((X, T[:, j, k] + (j != k)[:, None] * T[:, k, j]),
                       axis=1)
    P = np.zeros((len(r), 6, 6))
    P[:, :3, :3] = P[:, 3:, 3:] = E
    P[:, 3:, :3] = X
    constants = DhConstants(offset, trig_rows, last_row, X, C, P)
    for x in constants:  # every pass on the chain shares them
        x.flags.writeable = False
    return constants


@dataclass(frozen=True)
class KinematicChain:
    """A serial chain of revolute joints with a base-frame gravity vector."""

    rows: tuple[DhRow, ...]
    gravity: tuple[float, float, float] = GRAVITY_DEFAULT

    def __post_init__(self):
        if len(self.rows) < 1:
            raise ValueError("chain needs at least one joint")
        g = np.asarray(self.gravity, dtype=float)
        if g.shape != (3,) or not np.all(np.isfinite(g)):
            raise ValueError("gravity must be a finite 3-vector")
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "gravity", tuple(float(x) for x in g))

    @property
    def n(self) -> int:
        return len(self.rows)

    @cached_property
    def dh(self) -> DhConstants:
        """The rows' constants, built on the first pass and kept."""
        return _dh_constants(self.rows)

    @property
    def gravity_vector(self) -> np.ndarray:
        return np.array(self.gravity, dtype=float)

    def check_q(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError(
                f"expected {self.n} joint values, got shape {q.shape}"
            )
        if not np.all(np.isfinite(q)):
            bad = int(np.flatnonzero(~np.isfinite(q))[0])
            raise ValueError(f"joint value at index {bad} is not finite")
        return q


def dh_transform(row: DhRow, q: float) -> np.ndarray:
    """Homogeneous transform of one DH row at joint angle q (frame i -> i-1)."""
    th = q + row.offset
    ct, st = np.cos(th), np.sin(th)
    ca, sa = np.cos(row.alpha), np.sin(row.alpha)
    return np.array([
        [ct, -st * ca, st * sa, row.a * ct],
        [st, ct * ca, -ct * sa, row.a * st],
        [0.0, sa, ca, row.d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def local_frames(chain: KinematicChain, q):
    """Per-joint rotations R_i (frame i axes in frame i-1) and origin
    offsets p_i (frame-i origin in frame i-1 coordinates)."""
    q = chain.check_q(q)
    R = np.empty((chain.n, 3, 3))
    p = np.empty((chain.n, 3))
    for k, row in enumerate(chain.rows):
        A = dh_transform(row, q[k])
        R[k] = A[:3, :3]
        p[k] = A[:3, 3]
    return R, p


def local_frames_batch(chain: KinematicChain, Q: np.ndarray) -> np.ndarray:
    """The rotations R (M, n, 3, 3) of local_frames for Q of shape (M, n),
    on the DH columns of chain.dh.  The origin offsets are left out: in
    its own frame each is a constant of the chain (DhConstants)."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[1] != chain.n:
        raise ValueError(f"expected joint array of shape (M, {chain.n})")
    dh = chain.dh
    th = Q + dh.offset
    cs = np.empty((2,) + Q.shape)
    np.cos(th, out=cs[0])
    np.sin(th, out=cs[1])
    R = np.empty(Q.shape + (3, 3))
    # rows (ct, -st ca, st sa) and (st, ct ca, -ct sa), one product
    np.multiply(cs[_TRIG_PICK].transpose(2, 3, 0, 1), dh.trig_rows,
                out=R[..., :2, :])
    R[..., 2, :] = dh.last_row  # (0, sa, ca)
    return R


def ur10_chain() -> KinematicChain:
    """Kinematic chain of a UR10-class 6-DOF arm (z0 up, lengths in meters)."""
    return KinematicChain(
        rows=(
            DhRow(a=0.0, alpha=-np.pi / 2, d=0.1273),
            DhRow(a=0.612, alpha=0.0, d=0.0),
            DhRow(a=0.5723, alpha=0.0, d=0.0),
            DhRow(a=0.0, alpha=-np.pi / 2, d=0.163941),
            DhRow(a=0.0, alpha=np.pi / 2, d=0.1157),
            DhRow(a=0.0, alpha=0.0, d=0.0922),
        ),
    )
