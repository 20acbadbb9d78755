"""Reduction of the full parameter set to an identifiable base set.

The full regressor has 13n columns but only a lower-dimensional column
space: some inertial parameters never influence joint torques and others
only act in fixed linear combinations.  Stacking the regressor over
seeded low-discrepancy probe states and rank-analyzing the inertial block
yields a basis of independent columns plus the recombination coefficients
of every remaining column.  Friction columns are structurally independent
per joint (each appears only in its own row) and are always kept, so the
sgn discontinuities never enter the rank decision.

Each choice of independent columns (the probe stack, every joint row, and
every coefficient solve of the estimation stages) is one greedy split in a
fixed column order (split_columns) from the R of an unpivoted QR, so it
depends on the chain alone, not on the probe seed or on rounding (Gautier,
J. Robotic Systems 1991).  A tall matrix is factored in blocks of
QR_BLOCK_ROWS rows, so the factorisation never copies all of it.
Offering columns last to first folds proximal parameters into distal
ones, the mirror image of Gautier & Khalil's rules (IEEE T-RA 1990).

A minimal regressor is the full regressor's selected inertial and
friction columns; no identification builds one.  A map is paired with a
chain of its joint count only (BaseParameterMap.check_chain).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (N_FRICTION, N_INERTIAL, DynamicParameters,
                       regressor_stack)
from .kinematics import KinematicChain

PROBE_COUNT_DEFAULT = 200
# |R_kk| over the largest column norm above which a column is independent
RANK_TOL = 1e-10
PROBE_Q_RANGE = np.pi
PROBE_QD_RANGE = 3.0
PROBE_QDD_RANGE = 10.0
# relative column-norm floor below which a column is structurally absent
# from a joint's regressor row
ACTIVE_COL_TOL = 1e-8
# rows per QR in _triangular_factor.  The estimation stages split stacks
# of 3700-10100 rows by 10-43 columns on c05's 7500 + 7500 states.  At
# 8501 x 40, blocks of 128, 256, 512 and 1024 rows took 5.9, 3.9, 3.5 and
# 3.7 ms, against 5.9 ms for one QR of the whole stack, and at 4385 x 34
# 2.3, 1.8, 1.5 and 1.6 ms against 1.8 ms (OpenBLAS on one thread,
# medians of 40 calls)
QR_BLOCK_ROWS = 512


@dataclass(frozen=True)
class BaseParameterMap:
    """Projection from full dynamic parameters onto the identifiable base set.

    A single joint row sees only a subset of the base columns, and within a
    row some of those columns are mutually dependent even though the full
    stacked regressor separates them.  The map therefore also stores, per
    joint, the identifiable inertial columns together with regrouping
    coefficients that fold the remaining active columns onto them.

    Attributes:
        n: joint count.
        inertial_columns: indices (ascending) of the independent inertial
            columns within the 10n-column inertial block.
        recombination: (c_in, 10n - c_in) coefficients expressing every
            non-selected inertial column in the selected basis.
        joint_masks: (n, c) bool; True where a base column is present in
            the given joint's regressor row.
        joint_idcols: per joint, ascending indices (into 0..c_in-1) of the
            inertial base columns identifiable from that row alone.
        joint_depcols: per joint, the active but row-dependent columns.
        joint_regroup: per joint, (len(idcols), len(depcols)) coefficients
            expressing each dependent column in the identifiable ones.

    The column sets depend on the chain alone (compute_base_map), so a
    model file stores the chain and not the map.
    """

    n: int
    inertial_columns: np.ndarray
    recombination: np.ndarray
    joint_masks: np.ndarray
    joint_idcols: tuple[np.ndarray, ...]
    joint_depcols: tuple[np.ndarray, ...]
    joint_regroup: tuple[np.ndarray, ...]

    @property
    def c_inertial(self) -> int:
        return len(self.inertial_columns)

    @property
    def c(self) -> int:
        """Total base parameter count including friction columns."""
        return self.c_inertial + N_FRICTION * self.n

    @property
    def excluded_columns(self) -> np.ndarray:
        """Inertial columns not selected, ascending; pairs with recombination."""
        all_cols = np.arange(N_INERTIAL * self.n)
        return np.setdiff1d(all_cols, self.inertial_columns)

    def check_chain(self, chain: KinematicChain) -> None:
        """Raise ValueError, naming both joint counts, unless chain has
        this map's joint count."""
        if chain.n != self.n:
            raise ValueError(f"map is for {self.n} joints, chain has "
                             f"{chain.n}")

    def friction_columns(self, j: int) -> np.ndarray:
        """Base-column indices of joint j's own friction triple."""
        return self.c_inertial + N_FRICTION * j + np.arange(N_FRICTION)

    def projection_matrix(self) -> np.ndarray:
        """(c, 13n) matrix P with base parameters = P @ full parameters."""
        n = self.n
        full = (N_INERTIAL + N_FRICTION) * n
        P = np.zeros((self.c, full))
        P[np.arange(self.c_inertial), self.inertial_columns] = 1.0
        P[:self.c_inertial, self.excluded_columns] = self.recombination
        fr0 = N_INERTIAL * n
        for k in range(N_FRICTION * n):
            P[self.c_inertial + k, fr0 + k] = 1.0
        return P

    def base_parameters(self, params: DynamicParameters) -> np.ndarray:
        if params.n != self.n:
            raise ValueError(f"map is for {self.n} joints, parameters have {params.n}")
        return self.projection_matrix() @ params.to_vector()

    def joint_sets(self, blocks) -> np.ndarray:
        """(10n, n) per-joint sets: column j holds the inertial entries of
        blocks[j] on the selected columns, so its torque at joint j is the
        minimal-regressor row times blocks[j], friction aside."""
        Pi = np.zeros((N_INERTIAL * self.n, self.n))
        Pi[self.inertial_columns] = np.asarray(blocks)[:, :self.c_inertial].T
        return Pi

    def regroup_for_joint(self, j: int, coeffs: np.ndarray) -> np.ndarray:
        """Fold a full base-coefficient vector onto joint j's identifiable
        coordinates: entries on row-dependent columns move onto the
        identifiable ones, which is the only combination row j can see."""
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.c,):
            raise ValueError(f"expected coefficient vector of length {self.c}")
        out = np.zeros(self.c)
        ident = self.joint_idcols[j]
        dep = self.joint_depcols[j]
        out[ident] = coeffs[ident] + self.joint_regroup[j] @ coeffs[dep]
        fr = self.friction_columns(j)
        out[fr] = coeffs[fr]
        return out


def probe_states(n: int, n_probe: int, seed: int):
    """Probe states spread evenly over the identification envelope: points
    k = seed * n_probe + 1 ... (seed + 1) * n_probe of Roberts' R_d
    sequence in d = 3n dimensions, frac(1/2 + k phi^-(1..d)) with
    phi^(d+1) = phi + 1, so each seed probes other states and none is
    drawn at random."""
    d = 3 * n
    phi = 2.0
    for _ in range(64):  # a contraction by about 1/(d + 1) per step
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alpha = phi ** -np.arange(1.0, d + 1)
    k = seed * n_probe + np.arange(1.0, n_probe + 1)
    z = (0.5 + np.outer(k, alpha)) % 1.0
    ranges = np.repeat([PROBE_Q_RANGE, PROBE_QD_RANGE, PROBE_QDD_RANGE], n)
    Q, Qd, Qdd = np.split(ranges * (2.0 * z - 1.0), 3, axis=1)
    return Q, Qd, Qdd


@dataclass(frozen=True)
class ColumnSplit:
    """The columns of a matrix A split greedily in the order given.

    Attributes:
        ind: independent columns, ascending; none is spanned by earlier ones.
        dep: dependent columns, ascending; every column not in ind.
        regroup: (len(ind), len(dep)) coefficients with
            A[:, dep] = A[:, ind] @ regroup.
        A: the matrix split, as given: the split holds no copy of it, so
            once A is written over (robust_weights writes its basis over
            its stack) only ind, dep, regroup and t still hold.
        t: upper triangular, a.T @ a = t.T @ t: the R of a's QR, so it
            has a's singular values.
    """

    ind: np.ndarray
    dep: np.ndarray
    regroup: np.ndarray
    A: np.ndarray
    t: np.ndarray

    @property
    def a(self) -> np.ndarray:
        """A[:, ind], a new array at each read."""
        return self.A[:, self.ind]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Least-squares x with A[:, ind] @ x ~ b, ordered like ind: the
        seminormal equations on t and one corrective step, which gives a
        QR solve's accuracy without Q (Bjorck, Linear Algebra Appl. 1987)."""
        a = self.a
        x = np.zeros(self.t.shape[0])
        for _ in range(2):
            y = a.T @ (b - a @ x)
            x = x + np.linalg.solve(self.t, np.linalg.solve(self.t.T, y))
        return x


def _triangular_factor(A: np.ndarray) -> np.ndarray:
    """The R of an unpivoted QR of A, upper triangular with min(m, p) rows.

    A stack of at most QR_BLOCK_ROWS rows is one numpy QR.  A taller one
    is factored a block of QR_BLOCK_ROWS rows at a time, and the stacked
    block factors once more: blocked Householder QR, backward stable like
    one QR of A, and equal to its R up to row signs and rounding (Demmel,
    Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1), 2012).  numpy
    copies each matrix it factors, twice (its own float copy and LAPACK's
    Fortran-ordered one), so the blocks keep those copies small.
    """
    m = A.shape[0]
    if m <= QR_BLOCK_ROWS:
        return np.linalg.qr(A, mode="r")
    return np.linalg.qr(np.vstack([
        np.linalg.qr(A[i:i + QR_BLOCK_ROWS], mode="r")
        for i in range(0, m, QR_BLOCK_ROWS)]), mode="r")


def split_columns(A: np.ndarray) -> ColumnSplit:
    """Split A's columns, in the order given, into independent and dependent.

    Only an R of A's unpivoted QR, A = Q R (_triangular_factor), whose
    columns have the lengths and angles of A's.  A greedy Gram-Schmidt
    pass over R's columns keeps column k when its part outside the span of
    the columns kept before it exceeds RANK_TOL times the largest column
    norm; a second projection reorthogonalises, so the part is accurate
    however many columns were kept.  A dependent column therefore never
    hides a later independent one.  Regroup and solve use a QR of
    R[:, ind], and LinAlgError is raised when a dependent column is not
    rebuilt from the kept ones.
    """
    R = _triangular_factor(A)
    scale = np.linalg.norm(R, axis=0).max(initial=0.0)
    basis = np.empty((R.shape[0], 0))  # orthonormal, spans the kept columns
    keep = np.zeros(A.shape[1], dtype=bool)
    for k in range(A.shape[1]):
        v = R[:, k] - basis @ (basis.T @ R[:, k])
        v -= basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > RANK_TOL * scale:
            keep[k] = True
            basis = np.column_stack([basis, v / norm])
    ind, dep = np.flatnonzero(keep), np.flatnonzero(~keep)
    q2, t = np.linalg.qr(R[:, ind])
    G = np.linalg.solve(t, q2.T @ R[:, dep])
    miss = np.linalg.norm(R[:, ind] @ G - R[:, dep], axis=0) > RANK_TOL * scale
    if miss.any():
        raise np.linalg.LinAlgError(
            f"columns {dep[miss].tolist()} are not rebuilt from the kept ones")
    return ColumnSplit(ind=ind, dep=dep, regroup=G, A=A, t=t)


def _split_descending(A: np.ndarray):
    """split_columns on A's columns last to first, indexed as in A and
    ascending: (independent, dependent, regroup)."""
    split, last = split_columns(A[:, ::-1]), A.shape[1] - 1
    return last - split.ind[::-1], last - split.dep[::-1], \
        split.regroup[::-1, ::-1]


def compute_base_map(chain: KinematicChain, n_probe: int = PROBE_COUNT_DEFAULT,
                     seed: int = 0) -> BaseParameterMap:
    """Rank-analyze the stacked inertial regressor and build the base map.

    One split of the probe stack's inertial block gives the base columns
    (ascending) and the recombination coefficients of the rest; one more
    on each joint's row, restricted to the base columns active in it,
    gives that joint's identifiable and regrouped columns.  Both offer the
    columns last to first, so a column is dropped exactly when the columns
    after it (distal links, and within a link the inertia) span it.
    """
    n = chain.n
    Q, Qd, Qdd = probe_states(n, n_probe, seed)
    Y = regressor_stack(chain, Q, Qd, Qdd)
    stack = Y.reshape(n_probe * n, -1)
    A = stack[:, :N_INERTIAL * n]

    selected, rest, recomb = _split_descending(A)
    rank = selected.size
    # structurally absent columns recombine to exactly nothing
    norms = np.linalg.norm(A, axis=0)
    recomb[:, norms[rest] <= RANK_TOL * norms.max()] = 0.0

    # per-joint presence of each base column, and the per-row identifiable
    # sub-basis with regrouping coefficients for the dependent columns
    c = rank + N_FRICTION * n
    masks = np.zeros((n, c), dtype=bool)
    idcols, depcols, regroups = [], [], []
    for j in range(n):
        rows = Y[:, j, :]
        b = rows[:, :N_INERTIAL * n][:, selected]
        norms = np.linalg.norm(b, axis=0)
        masks[j, :rank] = norms > ACTIVE_COL_TOL * max(norms.max(), 1e-300)
        fr = np.linalg.norm(rows[:, N_INERTIAL * n:], axis=0)
        masks[j, rank:] = fr > ACTIVE_COL_TOL * max(fr.max(), 1e-300)

        active = np.flatnonzero(masks[j, :rank])
        ind, dep, G = _split_descending(b[:, active])
        idcols.append(active[ind])
        depcols.append(active[dep])
        regroups.append(G)

    return BaseParameterMap(
        n=n, inertial_columns=selected, recombination=recomb,
        joint_masks=masks, joint_idcols=tuple(idcols),
        joint_depcols=tuple(depcols), joint_regroup=tuple(regroups))


def minimal_regressor_stack(map_: BaseParameterMap, chain: KinematicChain,
                            Q, Qd, Qdd) -> np.ndarray:
    """Minimal regressor for a batch of states, shape (M, n, c): the
    selected inertial columns of regressor_stack, then every friction
    column."""
    map_.check_chain(chain)
    n = map_.n
    cols = np.r_[map_.inertial_columns,
                 N_INERTIAL * n:(N_INERTIAL + N_FRICTION) * n]
    return regressor_stack(chain, Q, Qd, Qdd)[..., cols]
