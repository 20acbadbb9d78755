"""Torque-level rigid-body dynamics for serial chains.

Inverse dynamics is the recursive Newton-Euler algorithm written in
origin-referenced inertial coordinates: mass m, first moment m*r, and the
inertia tensor taken about the link-frame origin.  In these coordinates the
joint torques are linear in the parameters.  A link's wrenches are linear
in twelve numbers of its motion: its ten unit-parameter wrenches are one
product of them with a constant 0/+-1 basis K.  Only the regressor builds
those unit wrenches.  The evaluator folds its known parameter sets into
the basis once per call, K Pi_i per link, so each link's wrench of every
set is one product of the twelve numbers with that link's folded basis.
Both project their wrenches onto the joint screws, carried outward link by
link in one shared pass.  Gravity enters as an acceleration of the base
frame.  The pass splits into a configuration part (frames, origin offsets
and joint screws, from q alone) and a motion part (the forward recursion
and the twelve numbers), so the evaluator runs several motion blocks over
one configuration pass.

Per-joint friction is modeled at two levels: a linear triple
f_o + f_v*qd + f_c*sgn(qd) that keeps the regressor linear, and a sigmoid
law f_o + f_v*qd + f_c/(1 + exp(-delta*(nu + qd))) that captures the
direction-change transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kinematics import KinematicChain, local_frames, local_frames_batch

N_INERTIAL = 10   # per-link inertial parameters
N_FRICTION = 3    # per-joint linear friction parameters
# sigmoid steepness (s/rad) of FrictionSet.from_linear's saturated transition
SATURATED_DELTA = 1e9

# symmetric basis order for the inertia tensor: xx, xy, xz, yy, yz, zz
_I_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_EZ = np.array([0.0, 0.0, 1.0])

_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, with the same arithmetic and bits but
    without its axis bookkeeping, which dominates on single states."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


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
        must be symmetric positive semidefinite and the mass positive."""
        com = np.asarray(com, dtype=float)
        Ic = np.asarray(inertia_com, dtype=float)
        if mass <= 0.0:
            raise ValueError("mass must be positive")
        if np.max(np.abs(Ic - Ic.T)) > 1e-12 * max(1.0, np.max(np.abs(Ic))):
            raise ValueError("COM inertia must be symmetric")
        eigs = np.linalg.eigvalsh(0.5 * (Ic + Ic.T))
        if eigs[0] < -1e-12 * max(1.0, abs(eigs[-1])):
            raise ValueError("COM inertia must be positive semidefinite")
        I0 = Ic + steiner_shift(mass, com)
        return cls(mass=float(mass), first_moment=tuple(mass * com),
                   inertia_origin=tuple(map(tuple, I0)))

    @property
    def com(self) -> np.ndarray:
        return np.array(self.first_moment) / self.mass

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
        arrays = {}
        width = None
        for name in ("f_o", "f_v", "f_c", "delta", "nu"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1 or not np.all(np.isfinite(a)):
                raise ValueError(f"FrictionSet.{name} must be a finite 1-d array")
            if width is None:
                width = a.size
            elif a.size != width:
                raise ValueError("FrictionSet fields must have equal length")
            arrays[name] = tuple(float(x) for x in a)
        for name, val in arrays.items():
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return len(self.f_o)

    def as_arrays(self):
        return (np.array(self.f_o), np.array(self.f_v), np.array(self.f_c),
                np.array(self.delta), np.array(self.nu))

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
        qs = {}
        width = None
        for name in ("q", "qd", "qdd"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1 or not np.all(np.isfinite(a)):
                raise ValueError(f"JointState.{name} must be a finite 1-d array")
            if width is None:
                width = a.size
            elif a.size != width:
                raise ValueError("JointState fields must have equal length")
            qs[name] = tuple(float(x) for x in a)
        for name, val in qs.items():
            object.__setattr__(self, name, val)

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
    chain.check_q(q)
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


def _link_motion(R, r, Qd, Qdd, gravity):
    """Forward recursion of B motion blocks over M fixed configurations.

    R (M, n, 3, 3) are the configurations' local frames and r (M, n, 3)
    each origin's offset from its parent in its own coordinates (R_i^T
    p_i), Qd and Qdd (M, B, n) the blocks of each, and gravity broadcasts
    to (M, B, 3).  Yields, for links i = 0..n-1, angular velocity /
    angular acceleration / origin acceleration in link coordinates, each
    (M, B, 3).  Each configuration's rotation meets all of its blocks in
    one product.
    """
    M, nb, n = Qd.shape
    om = omd = np.zeros((M, nb, 3))
    acc = np.broadcast_to(-gravity, (M, nb, 3))
    # rows of V, in the parent frame: angular velocity and acceleration
    # before rotation, origin acceleration; V @ R[:, i] expresses all three
    # in frame i
    V = np.empty((M, nb, 3, 3))
    for i in range(n):
        qd = Qd[..., i]
        V[..., 0, :] = om
        V[..., 0, 2] += qd
        V[..., 1, :] = omd
        V[..., 1, 2] += Qdd[..., i]
        # qd * (om x e_z) = qd * (om_y, -om_x, 0)
        V[..., 1, 0] += qd * om[..., 1]
        V[..., 1, 1] -= qd * om[..., 0]
        V[..., 2, :] = acc
        W = (V.reshape(M, 3 * nb, 3) @ R[:, i]).reshape(M, nb, 3, 3)
        om, omd, ri = W[..., 0, :], W[..., 1, :], r[:, i, None]
        acc = W[..., 2, :] + _cross(omd, ri) + _cross(om, _cross(om, ri))
        yield om, omd, acc


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
_PAIR_A, _PAIR_B = np.array(_I_PAIRS).T


def _motion_numbers(om, omd, acc):
    """F (..., 12) = [acc, omd, om_a*om_b over _I_PAIRS]: the twelve numbers
    of a link's motion that its unit wrenches are linear in."""
    return np.concatenate((acc, omd, om[..., _PAIR_A] * om[..., _PAIR_B]),
                          axis=-1)


def _unit_wrenches(F):
    """Wrenches of a link's ten unit inertial parameters about its origin,
    in its own frame, (..., 10, 6) for motion numbers F (..., 12): force in
    [..., :3], moment in [..., 3:].  One product F @ K (_wrench_basis) per
    configuration, so that a state's bits do not depend on the batch
    around it."""
    return (F @ _WRENCH_BASIS).reshape(F.shape[:-1] + (N_INERTIAL, 6))


def _folded_basis(Pi, n):
    """KP (n, 12, S*6): the wrench basis folded with each link's S parameter
    sets, KP[i] = K Pi_i, so that F @ KP[i] is link i's wrench of every set,
    [s*6:s*6+6] for set s.  One broadcast product for all links."""
    ns = Pi.shape[1]
    Pt = Pi.reshape(n, N_INERTIAL, ns).swapaxes(1, 2)  # (n, S, 10)
    KP = Pt @ _WRENCH_BASIS_BY_PARAMETER  # (n, S, 12*6)
    return KP.reshape(n, ns, 12, 6).swapaxes(1, 2).reshape(n, 12, ns * 6)


def _batch_states(chain: KinematicChain, Q, Qd, Qdd):
    """Q as (M, n) configurations, Qd and Qdd as (..., M, n) motion blocks
    over them; one state may come as (n,) vectors.  A non-finite entry
    raises, naming its array, row and column."""
    Q, Qd, Qdd = (np.atleast_2d(np.asarray(x, dtype=float))
                  for x in (Q, Qd, Qdd))
    if Q.ndim != 2 or Qd.shape[-2:] != Q.shape or Qdd.shape[-2:] != Q.shape:
        raise ValueError(f"Q must be (M, n) and Qd, Qdd (..., M, n); got "
                         f"{Q.shape}, {Qd.shape}, {Qdd.shape}")
    if Q.shape[1] != chain.n:
        raise ValueError(f"expected {chain.n} joints, got {Q.shape[1]}")
    for name, x in (("q", Q), ("qd", Qd), ("qdd", Qdd)):
        if not np.isfinite(x).all():
            *block, row, col = np.argwhere(~np.isfinite(x))[0]
            at = f"block {tuple(map(int, block))}, " if block else ""
            raise ValueError(f"{name} is not finite at {at}row {row}, "
                             f"column {col}")
    return Q, Qd, Qdd


def _link_screws(chain: KinematicChain, Q, Qd, Qdd, gravity):
    """Yield (i, S_i, F_i) for links i = 0..n-1: the pass both kernels share.

    Joint k's torque from a wrench (f, m) about origin i is a.m + (a x d).f
    (Khalil & Dombre, Modeling, Identification and Control of Robots, 2002),
    where a is joint k's axis and d is origin i relative to origin k-1.
    S_i (M, i+1, 6) holds the screws [a x d, a] of joints 0..i in frame i
    and F_i (M, B, 12) link i's motion numbers (_motion_numbers) in each of
    B motion blocks.  A wrench w_i (M, B, 6) that is linear in F_i, unit
    wrenches or a parameter set's, gives link i's share of joints 0..i as
    S_i @ w_i^T.  The next step overwrites S_i.

    The configuration part, the frames, the origin offsets in link
    coordinates and the joint screws, depends on Q (M, n) alone and is
    built once.  The motion part, the forward recursion and F, runs on
    every block of Qd, Qdd (M, B, n) and gravity (see _link_motion).
    """
    M, n = Q.shape
    R, p = local_frames_batch(chain, Q)
    r = (p[..., None, :] @ R)[..., 0, :]  # R_i^T p_i, (M, n, 3)
    S = np.zeros((M, n, 6))
    S3 = S.reshape(M, 2 * n, 3)  # screws as row pairs, for one rotation
    for i, motion in enumerate(_link_motion(R, r, Qd, Qdd, gravity)):
        S[:, i, 5] = 1.0  # joint i's axis is z of frame i-1; d = 0 there
        Si = S[:, :i + 1]
        Si[..., :3] += _cross(Si[..., 3:], p[:, i, None, :])
        S3[:, :2 * i + 2] = S3[:, :2 * i + 2] @ R[:, i]
        yield i, Si, _motion_numbers(*motion)


def newton_euler(chain: KinematicChain, Q, Qd, Qdd, Pi,
                 gravity=None) -> np.ndarray:
    """Joint torques (..., M, n, S) of S inertial parameter sets, no friction.

    Column s of Pi (10n, S) is a set in the DynamicParameters inertial
    layout, physical or not; [..., s] equals rnea on it.  Q holds M
    configurations (M, n).  Qd and Qdd are (M, n) or add leading block
    axes, (..., M, n), and gravity is None (the chain's), a 3-vector, one
    per state (M, 3) or one per block and state (..., M, 3); the block
    axes broadcast.  Frames and joint screws are built once for all blocks,
    and each configuration meets its blocks in one product.  The sets are
    folded into the wrench basis once per call (_folded_basis), so each
    link's wrench of every set is one product of its twelve motion numbers
    with that link's folded basis; no unit wrench is built.  The wrenches
    are projected onto the joint screws, and the products are stacked per
    configuration, so a state's torques do not depend on the batch around
    it.
    """
    Q, Qd, Qdd = _batch_states(chain, Q, Qd, Qdd)
    Pi = np.asarray(Pi, dtype=float)
    M, n = Q.shape
    if Pi.ndim != 2 or Pi.shape[0] != N_INERTIAL * n:
        raise ValueError(f"Pi must be ({N_INERTIAL * n}, S)")
    g = np.asarray(chain.gravity if gravity is None else gravity, dtype=float)
    lead = np.broadcast_shapes(Qd.shape[:-2], Qdd.shape[:-2], g.shape[:-2])
    # blocks beside their configuration: (M, B, ...)
    Qd, Qdd, g = (np.broadcast_to(x, lead + (M, x.shape[-1]))
                  .reshape(-1, M, x.shape[-1]).swapaxes(0, 1)
                  for x in (Qd, Qdd, g))
    nb, ns = Qd.shape[1], Pi.shape[1]
    KP = _folded_basis(Pi, n)
    tau = np.zeros((M, n, nb * ns))
    for i, Si, F in _link_screws(chain, Q, Qd, Qdd, g):
        w = (F @ KP[i]).reshape(M, nb * ns, 6)
        tau[:, :i + 1] += Si @ w.swapaxes(1, 2)
    return tau.reshape(M, n, nb, ns).transpose(2, 0, 1, 3).reshape(
        lead + (M, n, ns))


def regressor_stack(chain: KinematicChain, Q, Qd, Qdd) -> np.ndarray:
    """Regressor Y for a batch of states, shape (M, n, 13n).

    Columns follow the DynamicParameters layout: 10 inertial columns per
    link, then per-joint friction columns [1, qd_j, sgn(qd_j)] placed in
    row j.  Y @ pi equals rnea torques plus linear friction.  It is built
    for fitting; evaluate known parameters with newton_euler.  Link i's
    block is one product of the joint screws with its unit wrenches, and
    exactly zero in rows past i.
    """
    Q, Qd, Qdd = _batch_states(chain, Q, Qd, Qdd)
    if Qd.ndim != 2 or Qdd.ndim != 2:
        raise ValueError("regressor_stack takes Q, Qd, Qdd of one shape")
    M, n = Q.shape
    Y = np.zeros((M, n, (N_INERTIAL + N_FRICTION) * n))
    for i, Si, F in _link_screws(chain, Q, Qd[:, None], Qdd[:, None],
                                 chain.gravity_vector):
        col = N_INERTIAL * i
        np.matmul(Si, _unit_wrenches(F)[:, 0].swapaxes(1, 2),
                  out=Y[:, :i + 1, col:col + N_INERTIAL])

    base = N_INERTIAL * n
    rows = np.arange(M)
    for j in range(n):
        Y[rows, j, base + 3 * j] = 1.0
        Y[:, j, base + 3 * j + 1] = Qd[:, j]
        Y[:, j, base + 3 * j + 2] = np.sign(Qd[:, j])
    return Y


def regressor(chain: KinematicChain, state: JointState) -> np.ndarray:
    """Regressor of a single state, shape (n, 13n)."""
    q, qd, qdd = state.arrays()
    return regressor_stack(chain, q[None, :], qd[None, :], qdd[None, :])[0]
