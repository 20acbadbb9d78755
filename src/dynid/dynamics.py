"""Torque-level rigid-body dynamics for serial chains.

Inverse dynamics is the recursive Newton-Euler algorithm written in
origin-referenced inertial coordinates: mass m, first moment m*r, and the
inertia tensor taken about the link-frame origin.  In these coordinates the
joint torques are linear in the parameters.  A link's wrenches are linear
in twelve numbers of its motion: its ten unit-parameter wrenches are one
product of them with a constant 0/+-1 basis K.  In standard DH each
link's origin offset in its own frame does not depend on q, so every
cross product with it is a constant map of the chain (KinematicChain.dh),
and the link's origin acceleration is linear in the same twelve numbers.
Both kernels fold that map and a wrench basis into one matrix per link:
the regressor K itself, the evaluator its known parameter sets, K Pi_i
(fold_sets).  So one product per link gives the origin acceleration
the next link needs and every wrench, which one shared pass projects onto
the joint screws, carried outward link by link.  That product is one
matrix product over every state and motion block of a block of states,
with at least two rows, so that a lone state rounds as it does in any
batch.  Joint j's torque comes from its own set, or from the one set
every joint shares: link i's fold keeps only the sets of the joints it
reaches, and each joint's screw meets its own set's wrench alone.
Gravity enters as an acceleration of the base frame.
Every torque of known parameters is one newton_euler call on a fold the
caller keeps.  The frames depend on q alone, so the evaluator runs a
tuple of motion blocks over one configuration, with gravity per block,
and each link's rotation meets the joint screws and every block's motion
in one product.  The regressor is read through one column request,
regressor_columns: each joint's listed inertial columns of the links its
row reaches, on the states a mask marks, written straight into the
caller's arrays, so no regressor block is built.  regressor_stack is
built around one such request on every state, with each joint's
friction triple (friction_regressor) and zeros.  Both passes run
in blocks of BLOCK_STATES states, so memory does not grow with the
batch.  A batch of more than one block runs its blocks on run_shared:
the calling thread and one helper thread, started for the call and
joined before it returns, where the process's affinity and CPU-time
quota allow a second CPU.  Each block writes only its own rows of the
result, so the bits do not depend on which thread runs it, and the pass
holds one block's buffers per thread.  numpy releases the interpreter
lock inside its matrix products and most elementwise loops, which is
what the two threads overlap.

Per-joint friction is modeled at two levels: a linear triple
f_o + f_v*qd + f_c*sgn(qd) that keeps the regressor linear, and a sigmoid
law f_o + f_v*qd + f_c/(1 + exp(-delta*(nu + qd))) that captures the
direction-change transition.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kinematics import KinematicChain, local_frames, local_frames_batch

N_INERTIAL = 10   # per-link inertial parameters
N_FRICTION = 3    # per-joint linear friction parameters
# sigmoid steepness (s/rad) of FrictionSet.from_linear's saturated transition
SATURATED_DELTA = 1e9
# states per block of a batched pass (newton_euler, and the regressor's
# regressor_columns): a block's temporaries stay cache-sized, and a
# batch's memory grows only with its inputs and result, and with one
# block per thread that runs the pass
BLOCK_STATES = 512
# most columns per matrix product of the pass (_link_screws): OpenBLAS
# (0.3.31, SkylakeX kernels) rounds a product's columns past 192 by its
# row count, so a wider link matrix (link 31 on, one set per joint) is
# met in products of at most this many columns, rounding alike per row
_PRODUCT_COLUMNS = 192
# a cgroup's CPU-time quota and period: one file in cgroup v2, two in v1
_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CFS_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CFS_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"

# symmetric basis order for the inertia tensor: xx, xy, xz, yy, yz, zz
_I_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_EZ = np.array([0.0, 0.0, 1.0])


def inertia_vector_to_matrix(v6: np.ndarray) -> np.ndarray:
    """(xx, xy, xz, yy, yz, zz) -> symmetric 3x3."""
    xx, xy, xz, yy, yz, zz = v6
    return np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])


def inertia_matrix_to_vector(I: np.ndarray) -> np.ndarray:
    return np.array([I[0, 0], I[0, 1], I[0, 2], I[1, 1], I[1, 2], I[2, 2]])


def steiner_shift(mass: float, r: np.ndarray) -> np.ndarray:
    """Inertia increment [r]x^T [r]x scaled by mass (COM -> origin shift)."""
    r = np.asarray(r, dtype=float)
    return mass * ((r @ r) * np.eye(3) - np.outer(r, r))


def check_com_inertia(I: np.ndarray, name: str) -> None:
    """Raise ValueError, naming the tensor, unless the 3x3 inertia I about
    a centre of mass is symmetric and positive semidefinite to rounding,
    as every body's is."""
    if np.max(np.abs(I - I.T)) > 1e-12 * max(1.0, np.max(np.abs(I))):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (I + I.T))
    if eigs[0] < -1e-12 * max(1.0, abs(eigs[-1])):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class InertialParameters:
    """Inertial parameters of one link in its own DH frame.

    Attributes:
        mass: link mass [kg].
        first_moment: mass times COM position, m*r [kg m].
        inertia_origin: inertia tensor about the frame origin [kg m^2].
    """

    mass: float
    first_moment: tuple[float, float, float]
    inertia_origin: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        h = np.asarray(self.first_moment, dtype=float)
        I = np.asarray(self.inertia_origin, dtype=float)
        if h.shape != (3,) or I.shape != (3, 3):
            raise ValueError("first_moment must be (3,), inertia_origin (3, 3)")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(I))
                and np.isfinite(self.mass)):
            raise ValueError("inertial parameters must be finite")
        if np.max(np.abs(I - I.T)) > 1e-12 * max(1.0, np.max(np.abs(I))):
            raise ValueError("inertia_origin must be symmetric")
        object.__setattr__(self, "first_moment", tuple(float(x) for x in h))
        object.__setattr__(
            self, "inertia_origin", tuple(tuple(float(x) for x in row) for row in I)
        )

    @classmethod
    def from_com(cls, mass: float, com, inertia_com) -> "InertialParameters":
        """Build from COM position and COM-referenced inertia; the COM tensor
        must be a body's (check_com_inertia) and the mass positive."""
        com = np.asarray(com, dtype=float)
        Ic = np.asarray(inertia_com, dtype=float)
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        check_com_inertia(Ic, "COM inertia")
        I0 = Ic + steiner_shift(mass, com)
        return cls(mass=float(mass), first_moment=tuple(mass * com),
                   inertia_origin=tuple(map(tuple, I0)))

    @property
    def com(self) -> np.ndarray:
        """first_moment / mass; zeros for a massless link with no first
        moment, and ValueError for one with a first moment."""
        h = np.array(self.first_moment)
        if self.mass == 0:
            if h.any():
                raise ValueError("a massless link with a nonzero first "
                                 "moment has no centre of mass")
            return h
        return h / self.mass

    @property
    def inertia_com(self) -> np.ndarray:
        I0 = np.array(self.inertia_origin)
        return I0 - steiner_shift(self.mass, self.com)

    def to_vector(self) -> np.ndarray:
        """[m, m*rx, m*ry, m*rz, Ixx, Ixy, Ixz, Iyy, Iyz, Izz]."""
        return np.concatenate((
            [self.mass], self.first_moment,
            inertia_matrix_to_vector(np.array(self.inertia_origin)),
        ))

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "InertialParameters":
        v = np.asarray(v, dtype=float)
        if v.shape != (N_INERTIAL,):
            raise ValueError(f"expected vector of length {N_INERTIAL}")
        return cls(mass=float(v[0]), first_moment=tuple(v[1:4]),
                   inertia_origin=tuple(map(tuple, inertia_vector_to_matrix(v[4:]))))


def _freeze_vectors(obj, names) -> None:
    """Store each named field of a frozen dataclass as a tuple of floats,
    checking in order that it is a finite 1-d array as long as the first."""
    width = None
    for name in names:
        a = np.asarray(getattr(obj, name), dtype=float)
        if a.ndim != 1 or not np.all(np.isfinite(a)):
            raise ValueError(f"{type(obj).__name__}.{name} must be a finite "
                             "1-d array")
        width = a.size if width is None else width
        if a.size != width:
            raise ValueError(f"{type(obj).__name__} fields must have equal "
                             "length")
        object.__setattr__(obj, name, tuple(float(x) for x in a))


@dataclass(frozen=True)
class FrictionSet:
    """Per-joint sigmoid friction parameters.

    f(qd) = f_o + f_v*qd + f_c / (1 + exp(-delta*(nu + qd)))

    delta is the transition steepness [s/rad] and nu the velocity shift
    [rad/s].  Values are at torque level [Nm] for plant models and at
    current level [A] for identified models.
    """

    f_o: tuple[float, ...]
    f_v: tuple[float, ...]
    f_c: tuple[float, ...]
    delta: tuple[float, ...]
    nu: tuple[float, ...]

    def __post_init__(self):
        names = ("f_o", "f_v", "f_c", "delta", "nu")
        _freeze_vectors(self, names)
        arrays = np.array([getattr(self, name) for name in names])
        arrays.flags.writeable = False  # its rows are shared by every call
        object.__setattr__(self, "_arrays", tuple(arrays))

    @property
    def n(self) -> int:
        return len(self.f_o)

    def as_arrays(self):
        """(f_o, f_v, f_c, delta, nu) as read-only arrays, built once."""
        return self._arrays

    @classmethod
    def from_linear(cls, f_o, f_v, f_c) -> "FrictionSet":
        """Sigmoid set that reproduces f_o + f_v*qd + f_c*sgn(qd) exactly,
        including the sgn(0) = 0 convention, via a saturated transition."""
        f_o = np.asarray(f_o, dtype=float)
        f_c = np.asarray(f_c, dtype=float)
        return cls(f_o=tuple(f_o - f_c), f_v=tuple(np.asarray(f_v, dtype=float)),
                   f_c=tuple(2.0 * f_c),
                   delta=tuple(np.full(f_o.size, SATURATED_DELTA)),
                   nu=tuple(np.zeros(f_o.size)))


@dataclass(frozen=True)
class DynamicParameters:
    """Full parameter set of a chain: per-link inertial parameters plus
    per-joint linear friction triples (f_o, f_v, f_c)."""

    links: tuple[InertialParameters, ...]
    friction: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        if len(self.links) != len(self.friction):
            raise ValueError("links and friction triples must match in length")
        object.__setattr__(self, "links", tuple(self.links))
        object.__setattr__(
            self, "friction",
            tuple(tuple(float(x) for x in tri) for tri in self.friction),
        )
        for tri in self.friction:
            if len(tri) != 3:
                raise ValueError("friction entries must be (f_o, f_v, f_c)")

    @property
    def n(self) -> int:
        return len(self.links)

    def to_vector(self) -> np.ndarray:
        """Layout: n blocks of 10 inertial entries, then n friction triples."""
        parts = [lk.to_vector() for lk in self.links]
        parts.append(np.array(self.friction, dtype=float).ravel())
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, v: np.ndarray, n: int) -> "DynamicParameters":
        v = np.asarray(v, dtype=float)
        if v.shape != (n * (N_INERTIAL + N_FRICTION),):
            raise ValueError(
                f"expected vector of length {n * (N_INERTIAL + N_FRICTION)}"
            )
        links = tuple(
            InertialParameters.from_vector(v[N_INERTIAL * i:N_INERTIAL * (i + 1)])
            for i in range(n)
        )
        fr = v[N_INERTIAL * n:].reshape(n, N_FRICTION)
        return cls(links=links, friction=tuple(map(tuple, fr)))


@dataclass(frozen=True)
class JointState:
    """One joint-space sample (positions, velocities, accelerations)."""

    q: tuple[float, ...]
    qd: tuple[float, ...]
    qdd: tuple[float, ...]

    def __post_init__(self):
        _freeze_vectors(self, ("q", "qd", "qdd"))

    def arrays(self):
        return (np.array(self.q), np.array(self.qd), np.array(self.qdd))


def rnea(chain: KinematicChain, links, state: JointState,
         gravity=None) -> np.ndarray:
    """Joint torques of the rigid-body model (no friction).

    Args:
        chain: kinematic chain.
        links: sequence of n InertialParameters.
        state: joint positions, velocities, accelerations.
        gravity: optional base-frame gravity override (3-vector).

    Returns:
        (n,) torque vector.
    """
    n = chain.n
    if len(links) != n:
        raise ValueError(f"expected {n} links, got {len(links)}")
    q, qd, qdd = state.arrays()
    g = chain.gravity_vector if gravity is None else np.asarray(gravity, dtype=float)

    R, p = local_frames(chain, q)
    # forward pass: angular velocity/acceleration and origin acceleration of
    # each link in its own frame; gravity folded into the base acceleration
    om = np.zeros((n, 3))
    omd = np.zeros((n, 3))
    acc = np.zeros((n, 3))
    om_prev = np.zeros(3)
    omd_prev = np.zeros(3)
    acc_prev = -g
    for i in range(n):
        Ri = R[i]
        om[i] = Ri.T @ (om_prev + qd[i] * _EZ)
        omd[i] = Ri.T @ (omd_prev + qdd[i] * _EZ
                         + qd[i] * np.cross(om_prev, _EZ))
        r = Ri.T @ p[i]
        acc[i] = Ri.T @ acc_prev + np.cross(omd[i], r) \
            + np.cross(om[i], np.cross(om[i], r))
        om_prev, omd_prev, acc_prev = om[i], omd[i], acc[i]

    # backward pass: net wrench per link about its own origin, transported
    # through each joint to the parent origin (a point on the joint axis);
    # the joint torque is the z component of that transported moment
    tau = np.zeros(n)
    carry_f = np.zeros(3)
    carry_n = np.zeros(3)
    for i in range(n - 1, -1, -1):
        m = links[i].mass
        h = np.array(links[i].first_moment)
        I0 = np.array(links[i].inertia_origin)
        F = m * acc[i] + np.cross(omd[i], h) \
            + np.cross(om[i], np.cross(om[i], h)) + carry_f
        N = I0 @ omd[i] + np.cross(om[i], I0 @ om[i]) \
            + np.cross(h, acc[i]) + carry_n
        carry_f = R[i] @ F
        carry_n = R[i] @ N + np.cross(p[i], carry_f)
        tau[i] = carry_n[2]
    return tau


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function computed as 0.5*(1 + tanh(x/2)); overflow-free."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def friction_linear(triples, qd) -> np.ndarray:
    """Per-joint f_o + f_v*qd + f_c*sgn(qd) with sgn(0) = 0.

    triples: (n, 3) array-like of (f_o, f_v, f_c); qd: (n,) or (M, n).
    """
    tri = np.asarray(triples, dtype=float)
    qd = np.asarray(qd, dtype=float)
    if qd.shape[-1:] != tri.shape[:1]:
        raise ValueError(f"expected {tri.shape[0]} joint velocities, got "
                         f"shape {qd.shape}")
    return tri[..., 0] + tri[..., 1] * qd + tri[..., 2] * np.sign(qd)


def friction_sigmoid(fs: FrictionSet, qd) -> np.ndarray:
    """Per-joint sigmoid friction; qd of shape (n,) or (M, n)."""
    f_o, f_v, f_c, delta, nu = fs.as_arrays()
    qd = np.asarray(qd, dtype=float)
    if qd.shape[-1:] != (fs.n,):
        raise ValueError(f"expected {fs.n} joint velocities, got shape "
                         f"{qd.shape}")
    return f_o + f_v * qd + f_c * sigmoid(delta * (nu + qd))


def _wrench_basis() -> np.ndarray:
    """K (12, 60): a link's unit-parameter wrenches, (10, 6) flattened, are
    F @ K for F = [acc, omd, om_a*om_b over _I_PAIRS].  About the origin:
    mass, f = acc; first moment e_j, f = omd x e_j + om x (om x e_j) and
    n = e_j x acc; inertia E_s, n = E_s omd + om x (E_s om)."""
    I3, X = np.eye(3), np.eye(12)
    acc, omd = X[:3], X[3:6]  # select acc and omd from F
    Q = np.zeros((3, 3, 12))  # Q[a, b] selects om_a*om_b
    for s, (a, b) in enumerate(_I_PAIRS):
        Q[a, b, 6 + s] = Q[b, a, 6 + s] = 1.0
    E = np.moveaxis(Q[:, :, 6:], 2, 0)  # symmetric basis E_s, (6, 3, 3)
    eps = np.moveaxis(np.cross(I3[:, None], I3), 2, 0)  # Levi-Civita
    K = np.zeros((12, N_INERTIAL, 6))
    K[:, 0, :3] = acc.T
    # om x (om x e_j) = om (om . e_j) - e_j |om|^2
    K[:, 1:4, :3] = (np.einsum("abj,bk->kja", eps, omd)
                     + np.einsum("ajk->kja", Q)
                     - np.einsum("aj,bbk->kja", I3, Q))
    K[:, 1:4, 3:] = np.einsum("ajb,bk->kja", eps, acc)
    K[:, 4:, 3:] = (np.einsum("sad,dk->ksa", E, omd)
                    + np.einsum("ade,sef,dfk->ksa", eps, E, Q))
    return K.reshape(12, N_INERTIAL * 6)


_WRENCH_BASIS = _wrench_basis()
# K regrouped by parameter, (10, 12*6): row p is unit parameter p's wrench
# as a function of F
_WRENCH_BASIS_BY_PARAMETER = np.ascontiguousarray(
    _WRENCH_BASIS.reshape(12, N_INERTIAL, 6).swapaxes(0, 1)).reshape(
        N_INERTIAL, 12 * 6)
# the two factors of every om_a*om_b over _I_PAIRS, first factors first
_PAIR_FACTORS = np.array(_I_PAIRS).T.ravel()
# where the motion numbers come from in V = [om, omd, acc]: acc, omd, the
# first factor of each pair, then its second factor
_MOTION_GATHER = np.concatenate(([6, 7, 8, 3, 4, 5], _PAIR_FACTORS))


def _motion_numbers(V, out=None):
    """F (..., 12) = [acc, omd, om_a*om_b over _I_PAIRS] of V (..., 9) =
    [om, omd, acc]: the twelve numbers of a link's motion that its unit
    wrenches are linear in.  They are written into out[..., :12], a
    C-contiguous (..., 18) array when given; its last six columns hold
    the pairs' second factors."""
    if out is None:
        out = np.empty(V.shape[:-1] + (18,))
    np.take(V, _MOTION_GATHER, axis=-1, out=out, mode="clip")
    out[..., 6:12] *= out[..., 12:]
    return out[..., :12]


def _link_maps(chain: KinematicChain, K):
    """B (n, 12, 3 + k) = T_i [I_12[:, :3] | K_i] for wrench bases K
    (n, 12, k), or one basis (12, k) for all links.  T_i is the identity
    with the chain's C[i] in rows 3: and columns :3, which adds omd x r_i +
    om x (om x r_i) to the parent's origin acceleration in motion numbers F,
    so F @ B[i] is link i's origin acceleration, then its wrench numbers."""
    B = np.zeros((chain.n, 12, 3 + K.shape[-1]))
    B[:, :3, :3] = np.eye(3)
    B[..., 3:] = K
    B[:, 3:] += chain.dh.C @ B[:, :3]
    return B


def fold_sets(chain: KinematicChain, Pi) -> tuple[np.ndarray, ...]:
    """Inertial parameter sets Pi folded into the wrench basis, K Pi_i, one
    matrix per link (_link_maps): the sets newton_euler evaluates.  Pi is
    (10n, n), set j for joint j, or (10n, 1), one set for all, in the
    DynamicParameters inertial layout, physical or not.  Link i keeps only
    the sets of joints 0..i, or the one, so its matrix is (12, 9 + 6i) or
    (12, 9); (F @ B[i])[..., 3:] is its wrench of each, [s*6:s*6+6] for
    set s.  One product folds all links."""
    Pi = np.asarray(Pi, dtype=float)
    n = chain.n
    if Pi.ndim != 2 or Pi.shape[0] != N_INERTIAL * n \
            or Pi.shape[1] not in (1, n):
        raise ValueError(f"Pi must be ({N_INERTIAL * n}, {n}), a set per "
                         f"joint, or ({N_INERTIAL * n}, 1); got {Pi.shape}")
    ns = Pi.shape[1]
    Pt = Pi.reshape(n, N_INERTIAL, ns).swapaxes(1, 2)  # (n, S, 10)
    KP = Pt @ _WRENCH_BASIS_BY_PARAMETER  # (n, S, 12*6)
    B = _link_maps(
        chain, KP.reshape(n, ns, 12, 6).swapaxes(1, 2).reshape(n, 12, ns * 6))
    return tuple(b[:, :9 + 6 * i].copy() for i, b in enumerate(B))


def _motion_blocks(chain: KinematicChain, Q, Qd, Qdd):
    """Q as (M, n) configurations and Qd, Qdd as equal tuples of (M, n)
    motion blocks over them: two arrays that are not tuples are one block
    each, and one state may come as (n,) vectors.  A wrong shape raises
    naming the shapes, and a non-finite entry its array, row and column.
    One state's arrays, as many as 2n + 1 for inertia, are checked in one
    call."""
    blocks = isinstance(Qd, tuple)
    if blocks != isinstance(Qdd, tuple) \
            or blocks and not 0 < len(Qd) == len(Qdd):
        counts = [len(x) if isinstance(x, tuple) else "an array"
                  for x in (Qd, Qdd)]
        raise ValueError("qd and qdd must be two arrays or two tuples of as "
                         f"many blocks, one or more; got {counts[0]} and "
                         f"{counts[1]}")
    if not blocks:
        Qd, Qdd = (Qd,), (Qdd,)

    def state(x):
        x = np.asarray(x, dtype=float)
        return x[None] if x.ndim == 1 else x

    Q = state(Q)
    if Q.ndim != 2:
        raise ValueError(f"q must be (M, n) or (n,); got {Q.shape}")
    Qd, Qdd = (tuple(map(state, x)) for x in (Qd, Qdd))
    for name, x in (("qd", Qd), ("qdd", Qdd)):
        for b in x:
            if b.shape != Q.shape:
                raise ValueError("q, qd and qdd must be states of one shape, "
                                 f"(M, n) or (n,); got q {Q.shape}, {name} "
                                 f"{b.shape}")
    if Q.shape[1] != chain.n:
        raise ValueError(f"expected {chain.n} joints, got {Q.shape[1]}")
    # one state's arrays are small, so one check clears them all at once;
    # the loop names the first that fails
    arrays = [("q", Q)] + [(name, b) for name, x in (("qd", Qd), ("qdd", Qdd))
                           for b in x]
    if len(Q) > 1 or not np.isfinite(
            np.concatenate([a for _, a in arrays])).all():
        for name, a in arrays:
            if not np.isfinite(a).all():
                row, col = np.argwhere(~np.isfinite(a))[0]
                raise ValueError(f"{name} is not finite at row {row}, "
                                 f"column {col}")
    return Q, Qd, Qdd


def _state_blocks(m: int) -> list[slice]:
    """Row slices of BLOCK_STATES states that cover a batch of m."""
    return [slice(start, start + BLOCK_STATES)
            for start in range(0, m, BLOCK_STATES)]


def _link_screws(chain: KinematicChain, Q, Qd, Qdd, gravity, B):
    """Yield (i, S_i, W_i) for links i = 0..n-1: the pass both kernels share.

    Joint k's torque from a wrench (f, m) about origin i is a.m + (a x d).f
    (Khalil & Dombre, Modeling, Identification and Control of Robots, 2002),
    where a is joint k's axis and d is origin i relative to origin k-1.
    S_i (M, i+1, 6) holds the screws [a x d, a] of joints 0..i in frame i
    and W_i (M, nb, k_i) link i's wrench numbers in each of nb motion
    blocks.  The motion numbers (_motion_numbers) of every state and block
    are the rows of one array, and one product of it with B[i] (12,
    3 + k_i; _link_maps) gives every row's wrench numbers and origin i's
    acceleration: one matrix product per link over the whole block, not
    one per state.  BLAS rounds each row of such a product alike at any
    row count, but a one-row product takes another kernel (gemv), so the
    array has at least two rows, and a lone state rounds exactly as it
    does inside any batch; a matrix wider than _PRODUCT_COLUMNS is met in
    products of that many columns.  The links' matrices may differ in
    width.  A wrench w_i (M, nb, 6) among them, unit or a parameter set's,
    gives link i's share of joint k <= i as the dot of S_i[:, k] with it.
    The next step overwrites S_i and W_i.

    The frames depend on Q (M, n) alone and are built once; the forward
    recursion runs on every block of Qd, Qdd (M, nb, n) and gravity, (3,)
    or one per block (nb, 3).  Each configuration's rotation into frame i
    meets, in one product, its blocks' angular velocity, angular
    acceleration and the parent's origin acceleration, as rows in the
    parent frame, and the screws of joints 0..i.  Moving the screws'
    reference point to origin i, [m, a] -> [m + a x r_i, a], is one
    product with P[i].
    """
    M, nb, n = Qd.shape
    R = local_frames_batch(chain, Q)
    P = chain.dh.P
    # per configuration, the rows each rotation meets: om, omd and the
    # origin acceleration of every block, then two per joint screw
    rotated = np.zeros((M, 3 * nb + 2 * n, 3))
    V = rotated[:, :3 * nb].reshape(M, nb, 9)  # views of rotated
    S = rotated[:, 3 * nb:].reshape(M, n, 6)
    # the motion numbers of every state and block, and each link's
    # product in turn in its leading columns, as rows: at least two, so
    # that a lone state's product is a gemm and rounds as in any batch;
    # a padding row stays zero
    rows = M * nb
    gathered = np.zeros((max(rows, 2), 18))
    numbers = gathered[:rows].reshape(M, nb, 18)  # a view
    F = gathered[:, :12]
    products = np.empty((len(F), max(b.shape[-1] for b in B)))
    V[..., 6:] = -gravity
    S[..., 5] = 1.0  # joint i's axis is z of frame i-1; d = 0 there
    # joint i's rates, added to om_z, omd_x, omd_y and omd_z before the
    # rotation: qd e_z, and qdd e_z + qd * (om x e_z), om x e_z being
    # (om_y, -om_x, 0); the middle two are qd and -qd until om is known
    qd = Qd.transpose(2, 0, 1)
    rates = np.empty((n, M, nb, 4))
    rates[..., 0] = rates[..., 1] = qd
    np.negative(qd, out=rates[..., 2])
    rates[..., 3] = Qdd.transpose(2, 0, 1)
    for i in range(n):
        rates[i, ..., 1:3] *= V[..., 1::-1]
        V[..., 2:6] += rates[i]
        # in place: numpy reads an overlapping input as if copied first
        moving = rotated[:, :3 * nb + 2 * i + 2]
        np.matmul(moving, R[:, i], out=moving)
        _motion_numbers(V, out=numbers)
        width = B[i].shape[-1]
        G = products[:, :width]
        # a matrix that fits is one product, unsliced: slicing it costs
        # about 0.6 us a link (numpy 2.4, one x86-64 core), 2-3 % of a
        # single-state UR10 torque
        if width <= _PRODUCT_COLUMNS:
            np.matmul(F, B[i], out=G)
        else:
            for c in range(0, width, _PRODUCT_COLUMNS):
                cols = slice(c, c + _PRODUCT_COLUMNS)
                np.matmul(F, B[i][:, cols], out=G[:, cols])
        G = G[:rows].reshape(M, nb, width)
        V[..., 6:] = G[..., :3]  # origin i's acceleration
        Si = S[:, :i + 1]
        np.matmul(Si, P[i], out=Si)
        yield i, Si, G[..., 3:]


def _cpu_quota() -> int | None:
    """Whole CPUs of time the process's cgroup allows, floor(quota /
    period): cgroup v2's cpu.max, else v1's cpu.cfs_quota_us and
    cpu.cfs_period_us.  None when no quota is set (-1 or max) or none can
    be read."""
    for paths in ((_CPU_MAX,), (_CFS_QUOTA, _CFS_PERIOD)):
        try:
            fields = []
            for path in paths:
                with open(path) as fh:
                    fields += fh.read().split()
        except OSError:
            continue
        try:
            quota, period = map(int, fields)
        except ValueError:  # max, or not two integers
            return None
        return quota // period if quota >= 0 and period > 0 else None
    return None


def _second_cpu() -> bool:
    """Whether the process may run on a second CPU: its affinity holds two
    or more, and its CPU-time quota (_cpu_quota) is none or two or more."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    if cpus < 2:
        return False
    quota = _cpu_quota()
    return quota is None or quota >= 2


def run_shared(work, items) -> None:
    """work(item) for every item of the list items, on the calling thread
    and, for more than one item where _second_cpu allows, on one helper
    thread started here and joined before this returns.  Both take the
    next item from one shared iterator until none is left.  An exception
    stops the taking, and the first one raised is raised here after the
    join."""
    # next on a list iterator is atomic under CPython's interpreter lock,
    # so each item is taken exactly once
    todo = iter(items)
    errors = []

    def take():
        try:
            for item in todo:
                if errors:
                    return
                work(item)
        except BaseException as exc:  # re-raised below, on the caller
            errors.append(exc)

    helper = None
    if len(items) > 1 and _second_cpu():
        helper = threading.Thread(target=take)
        helper.start()
    try:
        take()
    finally:
        if helper is not None:
            helper.join()
    if errors:
        raise errors[0]


def _block_torques(chain: KinematicChain, Q, Qd, Qdd, gravity, sets, tau,
                   rows: slice) -> None:
    """The pass over one block of states, rows of the batch: its torques
    go into tau[:, rows], and its buffers are freed on return."""
    nb, n = len(Qd), chain.n
    m = len(Q[rows])
    # the motion blocks beside their configuration, (m, nb, n); a lone
    # block is a view
    Qd_rows, Qdd_rows = (
        x[0][rows, None] if nb == 1 else np.concatenate(
            [b[rows] for b in x], axis=1).reshape(m, nb, n)
        for x in (Qd, Qdd))
    part = np.zeros((m, nb, n))
    for i, Si, W in _link_screws(chain, Q[rows], Qd_rows, Qdd_rows, gravity,
                                 sets):
        # each set's six wrench numbers in each block, a view of W; a
        # shared set broadcasts over the screws
        w = W.reshape(m, nb, W.shape[-1] // 6, 6)
        part[..., :i + 1] += np.vecdot(Si[:, None], w)
    tau[:, rows] = part.swapaxes(0, 1)


def newton_euler(chain: KinematicChain, Q, Qd, Qdd, sets,
                 gravity=None) -> np.ndarray:
    """Joint torques of folded inertial parameter sets, no friction.

    sets is fold_sets(chain, Pi): joint j's torque comes from set j of Pi,
    or from its one set, and equals rnea's on that set.  A caller that
    evaluates one Pi many times keeps its fold.  Q holds M configurations,
    (M, n), or one, (n,).  Qd and Qdd are arrays of Q's shape, and the
    torques are (M, n); or they are tuples of as many such motion blocks
    over the configurations, and the torques are (nb, M, n).  gravity is
    None (the chain's), a 3-vector, or one 3-vector per block, (nb, 3).

    Frames and joint screws are built once for all blocks (_link_screws).
    Link i's share of joint k's torque is one dot of screw k with the six
    wrench numbers of set k, or of the shared set: no other set's torque
    and no unit wrench is formed, and a state's torques do not depend on
    the batch around it.  The pass runs BLOCK_STATES states at a time
    (_state_blocks): each block of states stacks its own rows of the
    motion blocks, and its torques go straight into their rows of the
    result.  The batch is checked whole first (_motion_blocks), so an
    error names its row in the batch, and every block size gives the same
    bits.

    A batch of more than one block runs its blocks on the calling thread
    and, where the process may use a second CPU, on one helper thread,
    started for this call and joined before it returns (run_shared).
    Each block writes only its own rows, so the bits do not depend on
    which thread runs it, and the pass's temporaries take the memory of
    one block per thread.  A lone block, which every single-state call
    is, runs on the calling thread and starts no thread.
    """
    blocks = isinstance(Qd, tuple)
    Q, Qd, Qdd = _motion_blocks(chain, Q, Qd, Qdd)
    (M, n), nb = Q.shape, len(Qd)
    g = np.asarray(chain.gravity if gravity is None else gravity, dtype=float)
    if g.shape not in ((3,), (nb, 3)):
        raise ValueError(f"gravity must be (3,) or ({nb}, 3), one per "
                         f"motion block; got {g.shape}")
    tau = np.empty((nb, M, n))
    chain.dh  # the chain's cached constants, built before a helper reads
    run_shared(partial(_block_torques, chain, Q, Qd, Qdd, g, sets, tau),
               _state_blocks(M))
    return tau if blocks else tau[0]


def friction_regressor(qd) -> np.ndarray:
    """(m, 3) columns [1, qd, sgn(qd)] of one joint's linear friction
    triple over its velocities qd (m,): the one place they are formed."""
    qd = np.asarray(qd, dtype=float)
    return np.column_stack([np.ones_like(qd), qd, np.sign(qd)])


def _column_plan(n: int, cols):
    """Where the columns cols[j] of each joint j's row come from: per link
    i, (j, places, link columns) for every joint j <= i that reads link i.
    Places index the rows of out[j]."""
    links = [[] for _ in range(n)]
    for j, c in enumerate(cols):
        link, entry = np.divmod(c, N_INERTIAL)
        for i in set(link.tolist()):
            places = np.flatnonzero(link == i)
            links[i].append((j, places, entry[places]))
    return links


def _block_columns(chain: KinematicChain, Q, Qd, Qdd, B, links, out, rows,
                   block) -> None:
    """The regressor pass over one block of states: block is (states, at),
    the block's slice of the batch and, per joint j, the column of out[j]
    its first state in rows[:, j] goes to.  Link i's columns are one
    product of the joint screws with its unit wrenches (the pass on
    _link_maps of K), made only when some joint reads them; each joint's
    requested columns of it, on its requested states, go straight into
    out[j].  The block's buffers are freed on return."""
    states, at = block
    q, qd, qdd = Q[states], Qd[states], Qdd[states]
    m = len(q)
    picks = [np.flatnonzero(r) for r in rows[states].T]
    for i, Si, W in _link_screws(chain, q, qd[:, None], qdd[:, None],
                                 chain.gravity_vector, B):
        if links[i]:
            T = np.matmul(Si, W.reshape(m, N_INERTIAL, 6).swapaxes(1, 2))
            for j, places, c in links[i]:
                out[j][places, at[j]:at[j] + picks[j].size] = \
                    T[picks[j], j][:, c].T


def regressor_columns(chain: KinematicChain, Q, Qd, Qdd, cols, out,
                      rows) -> None:
    """Inertial columns of each joint's row, written to the caller's arrays.

    cols[j] lists columns of joint j's row in regressor_stack's layout,
    each an inertial column of a link the row reaches, 10j .. 10n - 1, in
    any order and with repeats.  out[j], (len(cols[j]), m_j), receives
    them: one row per listed column, one column per state, over the m_j
    states that rows[:, j] marks, rows an (M, n) boolean mask.  A request
    it cannot write in full raises ValueError, naming the joint or the
    shape expected, before anything is written.

    No regressor block is built.  The pass runs BLOCK_STATES states at a
    time on run_shared (_block_columns), and each block writes only its
    own states' columns, at places precomputed from the mask, so the
    bits depend neither on the block size nor on the thread.  The batch
    is checked whole first (_motion_blocks), so an error names its row in
    the batch.
    """
    Q, (Qd,), (Qdd,) = _motion_blocks(chain, Q, (Qd,), (Qdd,))
    M, n = Q.shape
    rows = np.asarray(rows)
    if rows.shape != (M, n) or rows.dtype != bool:
        raise ValueError(f"rows must be a boolean mask of shape ({M}, "
                         f"{n}); got {rows.dtype} {rows.shape}")
    if len(cols) != n or len(out) != n:
        raise ValueError(f"cols and out must list {n} joints; got "
                         f"{len(cols)} and {len(out)}")
    for j, (c, o, k) in enumerate(zip(cols, out, rows.sum(axis=0).tolist())):
        c = np.asarray(c)
        if c.ndim != 1 or c.size and (
                c.dtype.kind not in "iu" or c.min() < N_INERTIAL * j
                or c.max() >= N_INERTIAL * n):
            raise ValueError(f"joint {j}: columns must be integers in "
                             f"[{N_INERTIAL * j}, {N_INERTIAL * n}), the "
                             "inertial columns of the links its row reaches")
        if np.shape(o) != (c.size, k):
            raise ValueError(f"joint {j}: out must be ({c.size}, {k}), a row "
                             "per column and a column per marked state; got "
                             f"{np.shape(o)}")
    blocks = _state_blocks(M)
    if not blocks:
        return
    counts = np.add.reduceat(rows, [b.start for b in blocks], axis=0,
                             dtype=np.intp)
    at = (np.cumsum(counts, axis=0) - counts).tolist()
    run_shared(partial(_block_columns, chain, Q, Qd, Qdd,
                       _link_maps(chain, _WRENCH_BASIS),
                       _column_plan(n, cols), out, rows),
               list(zip(blocks, at)))


def regressor_stack(chain: KinematicChain, Q, Qd, Qdd) -> np.ndarray:
    """Regressor Y for a batch of states, shape (M, n, 13n).

    Columns follow the DynamicParameters layout: 10 inertial columns per
    link, then per-joint friction columns [1, qd_j, sgn(qd_j)] placed in
    row j.  Y @ pi equals rnea torques plus linear friction.  It is built
    for fitting; evaluate known parameters with newton_euler.  Row j's
    inertial columns of links j..n-1 are one column request
    (regressor_columns) on every state, and its friction triple is
    friction_regressor's; every other entry is exactly zero.
    """
    Q, (Qd,), (Qdd,) = _motion_blocks(chain, Q, (Qd,), (Qdd,))
    M, n = Q.shape
    Y = np.zeros((M, n, (N_INERTIAL + N_FRICTION) * n))
    inertial = N_INERTIAL * n
    regressor_columns(
        chain, Q, Qd, Qdd,
        [np.arange(N_INERTIAL * j, inertial) for j in range(n)],
        [Y[:, j, N_INERTIAL * j:inertial].T for j in range(n)],
        np.ones((M, n), dtype=bool))
    for j in range(n):
        fr = inertial + N_FRICTION * j
        Y[:, j, fr:fr + N_FRICTION] = friction_regressor(Qd[:, j])
    return Y


def regressor(chain: KinematicChain, state: JointState) -> np.ndarray:
    """Regressor of a single state, shape (n, 13n)."""
    q, qd, qdd = state.arrays()
    return regressor_stack(chain, q[None, :], qd[None, :], qdd[None, :])[0]
