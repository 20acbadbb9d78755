"""Three-stage identification at the motor-current level.

Stage 1 estimates the current-level dynamic coefficients (one block per
joint, since each joint divides the shared parameters by its own unknown
drive gain).  Stage 2 refines friction with a five-parameter sigmoid fitted
to low-velocity residual currents; the three parameters it is linear in are
projected out, which leaves one search over the transition's steepness and
offset per joint.  Stage 3 recovers the motor drive gains by comparing data
collected with and without a partially known payload.  Every joint's
system is split and solved once, in regrouped coordinates where it loses
rank; one error then names every joint whose gain is below GAIN_LOWER.
Stage 3 fits its joints last to first, and each fit in flight holds about
one joint's system: each joint's gathered rows go as its stack is built,
and robust_weights writes its basis over the stack.

Stages 1 and 3 are bisquare-weighted fits, robust_weights, and each
factors its stack once: the stack's split gives stage 1's condition guard
before any iterate, the orthonormal basis the iterates work in, and, at
the final weights, an r-row system whose split gives the coefficients.
Each stage builds its stacks as the transpose of a C-ordered (p, m)
buffer that robust_weights owns once called: it writes the basis over
the buffer's leading rows.

All three stages fit their joints on two threads where a second CPU is
allowed (_fit_each_joint on dynamics.run_shared), with the same bits as
on one: two robust fits in flight hold about two stacks, and two stage-2
searches about two start grids.

The regressor is read only by the fits, one way, _joint_columns: the
column request (dynamics.regressor_columns) writes each joint's
linearity-region rows on the inertial columns its fit uses, and nothing
else; the fits form their friction columns themselves
(dynamics.friction_regressor).  No identification holds an (M, n, c)
array: stage 1 keeps, for stage 3, each joint's regressor row on its
active inertial base columns over those rows, the only part of the
minimal regressor stage 3 reads again, and _kept_columns gathers the
same arrays for a chi fitted elsewhere.  Once fitted, chi is a set of
known parameters, one block per joint, and predict_currents and
friction_residual_currents evaluate its inertial part as every torque of
known parameters is evaluated: one dynamics.newton_euler call on the
fold of its per-joint sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (N_INERTIAL, SATURATED_DELTA, FrictionSet, fold_sets,
                       friction_linear, friction_regressor, friction_sigmoid,
                       newton_euler, regressor_columns, run_shared, sigmoid)
from .kinematics import KinematicChain
from .payload import PayloadSpec, payload_to_frame_n
from .reduction import RANK_TOL, BaseParameterMap, split_columns
from .dataio import SampleSet

BISQUARE_TUNING = 4.685
WEIGHT_TOL = 1e-6
WEIGHT_MAX_ITER = 50
CONDITION_LIMIT = 1e8
MIN_REGION_SAMPLES = 50
GAIN_LOWER = 10.0
# stack rows per chunk in which robust_weights writes its basis over its
# stack and sums each Gram, through buffers of this many columns.  On c05's
# 7500 + 7500 states (stage-3 stacks of 3700-10100 rows), estimate_gains
# took 127.0, 121.0, 116.4 and 116.6 ms with chunks of 512, 1024, 2048 and
# 4096 rows (medians of 20 alternating rounds, OpenBLAS on one thread, two
# fits in flight), and its traced peak read 11.41, 11.42, 11.62 and 12.04
# MB against the 12.38 MB bound of the memory test
GRAM_CHUNK_ROWS = 2048


class EstimationError(RuntimeError):
    """An identification stage could not produce a trustworthy estimate."""


class ExcitationError(EstimationError):
    """The data does not excite the parameters well enough to solve."""


class IdentifiabilityError(EstimationError):
    """The requested parameters are structurally not identifiable."""


# ---------------------------------------------------------------------------
# linear solvers

def _rank_deficient(dep, p: int) -> IdentifiabilityError:
    dep = np.asarray(dep).tolist()
    return IdentifiabilityError(
        f"rank-deficient stack (rank {p - len(dep)} of {p}); dependent "
        f"columns {dep}")


def _lstsq(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of a full-rank stack, decided and solved
    by split_columns, so every coefficient solve shares RANK_TOL."""
    split = split_columns(stack)
    if split.dep.size:
        raise _rank_deficient(split.dep, stack.shape[1])
    return split.solve(rhs)


def _linear_system(stack, rhs) -> tuple[np.ndarray, np.ndarray]:
    """A 2-D stack with rows and one finite rhs entry per row, as floats."""
    stack = np.asarray(stack, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ValueError(f"stack must be 2-D with at least one row, got "
                         f"shape {stack.shape}")
    if rhs.shape != (stack.shape[0],):
        raise ValueError(f"rhs must hold one entry per stack row: shape "
                         f"{rhs.shape} for {stack.shape[0]} rows")
    if not np.all(np.isfinite(stack)):
        raise ValueError("stack holds non-finite entries")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs holds non-finite entries")
    return stack, rhs


@dataclass(frozen=True)
class WeightMatrix:
    """Diagonal per-row weights, nonnegative and finite.

    Rows downweighted to exactly zero are dropped from the fit, which is
    how the bisquare function treats gross outliers.  robust_weights sets
    its fit at these weights: independent, the mask of the columns the
    weighted stack separates, and coef, zero on the others.
    """

    w: np.ndarray
    converged: bool = True
    iterations: int = 0
    coef: np.ndarray | None = None
    independent: np.ndarray | None = None

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a 1-D nonnegative finite vector")
        object.__setattr__(self, "w", w)


def _median(a: np.ndarray) -> float:
    """np.median(a), bit for bit, partitioning a in place."""
    h = a.size // 2
    if a.size % 2:
        a.partition(h)
        return a[h]
    a.partition((h - 1, h))
    return (a[h - 1] + a[h]) / 2.0


def _mad_scale(residual: np.ndarray) -> float:
    buf = residual.copy()
    med = _median(buf)
    np.abs(np.subtract(residual, med, out=buf), out=buf)
    return float(_median(buf) / 0.6745)


def _condition(split) -> float:
    """s_max/s_min of the split's stack, from its triangular factor, which
    has the stack's singular values; inf when a column is dependent."""
    sv = np.linalg.svd(split.t, compute_uv=False)
    return float(sv[0] / sv[-1]) if sv.size and not split.dep.size \
        else np.inf


def _basis_over(stack: np.ndarray, t: np.ndarray, ind, chunks) -> np.ndarray:
    """Q^T = inv(t)^T A[:, ind]^T, (r, m), written over stack.T's first r
    rows a chunk of stack rows at a time; each chunk's A[:, ind] is read
    before its basis is written, and ind[i] >= i."""
    At = stack.T
    Qt = At[:len(ind)]
    Ti = np.linalg.inv(t).T
    for c in chunks:
        np.matmul(Ti, At[ind, c], out=Qt[:, c])
    return Qt


def robust_weights(stack: np.ndarray, rhs: np.ndarray,
                   split=None) -> WeightMatrix:
    """Bisquare IRLS weights for a linear model, and the weighted fit.

    Iterates weighted solves until the weights settle to within
    WEIGHT_TOL.  A degenerate residual scale (all residuals essentially
    zero) returns unit weights, since there is nothing to downweight.

    The fit owns the stack it is given: it writes its basis over the
    stack's memory, so a caller that reads its stack after the call passes
    a copy.  The stages build each stack as the transpose of a C-ordered
    (p, m) buffer, whose leading rows the basis then fills.

    The stack is factored once, by split_columns (split, when the caller
    has made it, as stage 1 does for its condition guard, _condition): its
    kept columns are a = Q t with t triangular, so Q = a inv(t) is an
    orthonormal basis of the range.  Q^T is written over the stack
    (_basis_over), and the fit then keeps it and the split's t, ind, dep
    and regroup alone, so a fit holds about one stack.  IRLS needs only
    the residuals, which depend only on that range, so each iterate solves
    (Q^T W Q) y = Q^T W b and sets r = b - Q y; the Gram is summed over
    chunks of GRAM_CHUNK_ROWS rows through one small buffer.  Its
    eigenvalues lie in [0, 1] however ill-conditioned the stack is; eigh,
    cut as pinv cuts at eps*max(m, n) of the largest, gives the
    minimum-norm y where zero weights leave directions unobserved.  At the
    final weights, Q^T W Q = V L V^T makes W^(1/2) Q = U L^(1/2) V^T with
    U orthonormal, so the m weighted rows
    W^(1/2) Q Q^T A have the least-squares problem of the r rows
    L^(1/2) V^T Q^T A, rhs L^(-1/2) V^T Q^T W b (Q^T A is t, and t @ regroup
    on dependent columns).  Their split decides the weighted rank by
    RANK_TOL and gives coef.
    """
    stack, rhs = _linear_system(stack, rhs)
    stack = np.require(stack, requirements="W")
    if split is None:
        split = split_columns(stack)
    m, p = stack.shape
    floor = 1e-12 * max(1.0, float(np.sqrt(np.mean(rhs**2))))
    # the usual SVD rank cutoff; a Gram summed over m rows carries rounding
    # of the same relative size, so it serves the small solves as well
    rcond = np.finfo(float).eps * max(m, p)
    # the iterates read Qt alone and the final fit the split's factors
    t, ind, dep, regroup = split.t, split.ind, split.dep, split.regroup
    chunks = [slice(i, i + GRAM_CHUNK_ROWS)
              for i in range(0, m, GRAM_CHUNK_ROWS)]
    Qt = _basis_over(stack, t, ind, chunks)  # (r, m), over the stack
    # a chunk of Qt scaled by sqrt(w), for each Gram
    Qs = np.empty((len(ind), min(m, GRAM_CHUNK_ROWS)))

    def gram(w):
        # Q^T W Q's eigenpairs above pinv's cut, and Q^T W b
        root = np.sqrt(w)
        G = np.zeros((len(ind), len(ind)))
        for c in chunks:
            q = Qt[:, c]
            qs = np.multiply(q, root[c], out=Qs[:, :q.shape[1]])
            G += qs @ qs.T
        lam, V = np.linalg.eigh(G)
        keep = lam > rcond * lam.max(initial=0.0)
        return lam[keep], V[:, keep], Qt @ (w * rhs)

    def residual(w):
        lam, V, c = gram(w)
        return rhs - (V @ ((V.T @ c) / lam)) @ Qt

    def fitted(w, converged, iterations):
        lam, V, c = gram(w)
        R = np.empty((len(Qt), p))  # Q^T A
        R[:, ind] = t
        R[:, dep] = t @ regroup
        root = np.sqrt(lam)
        small = split_columns(root[:, None] * (V.T @ R))
        coef = np.zeros(p)
        coef[small.ind] = small.solve((V.T @ c) / root)
        return WeightMatrix(w, converged, iterations, coef,
                            np.isin(np.arange(p), small.ind))

    w = np.ones(m)
    res = rhs - (Qt @ rhs) @ Qt  # unit weights: the Gram is the identity
    for it in range(1, WEIGHT_MAX_ITER + 1):
        s = _mad_scale(res)
        if s <= floor:
            return fitted(np.ones_like(w), True, it)
        u = res / (BISQUARE_TUNING * s)
        w_new = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 2, 0.0)
        if np.max(np.abs(w_new - w)) < WEIGHT_TOL:
            return fitted(w_new, True, it)
        w = w_new
        res = residual(w)
    return fitted(w, False, WEIGHT_MAX_ITER)


# ---------------------------------------------------------------------------
# stage 1: current-level coefficients

@dataclass(frozen=True)
class CurrentCoefficients:
    """Per-joint current-level coefficient blocks.

    chi holds n blocks of length c; block j multiplies joint j's row of
    the minimal regressor.  Coordinates a joint's row cannot see (other
    joints' friction, its row-dependent columns) are stored as zero.
    irls_iterations and irls_converged record each joint's robust-weight
    iteration.

    identify_coefficients also keeps, with the samples, map and chain it
    fitted on, one (a_j, m_j) array per joint j in a field outside repr and
    ==: joint j's regressor row on its a_j active inertial base columns
    (_active_columns), one row per column, over its m_j linearity-region
    samples (samples.mask[:, j]), the only rows stages 1 and 3 fit.
    estimate_gains reads them when given those very objects, so one
    identification builds run a's regressor once.  They live as long as
    this object: 8 sum_j a_j m_j bytes, 5.0 MB at 7500 UR10 states, the
    largest arrays an identification holds.  dataclasses.replace gives a
    copy without them; coefficients built any other way, such as a chi
    loaded from a model file, hold none, and estimate_gains then gathers
    the same arrays from the samples' regressor (_kept_columns), which
    gives the same bits.
    """

    n: int
    chi: np.ndarray
    conditions: tuple[float, ...] = ()
    sample_counts: tuple[int, ...] = ()
    irls_iterations: tuple[int, ...] = ()
    irls_converged: tuple[bool, ...] = ()
    # (samples, map, chain, active columns per joint), set by
    # identify_coefficients
    _fitted_on: tuple | None = field(default=None, init=False, repr=False,
                                     compare=False)

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=float)
        if chi.ndim != 1 or chi.size % self.n:
            raise ValueError("chi must be a flat vector of n equal blocks")
        object.__setattr__(self, "chi", chi)

    @property
    def c(self) -> int:
        return self.chi.size // self.n

    def block(self, j: int) -> np.ndarray:
        return self.chi[j * self.c:(j + 1) * self.c]

    def as_matrix(self) -> np.ndarray:
        return self.chi.reshape(self.n, self.c)


def identify_coefficients(map_: BaseParameterMap, chain: KinematicChain,
                          samples: SampleSet) -> CurrentCoefficients:
    """Stage 1: robust weighted fit of each joint's coefficient block.

    Only samples in the joint's linearity region |qd_j| > threshold enter
    that joint's fit, where the three linear friction columns are valid
    (_fit_joint).  The joints are fitted in joint order on two threads
    where a second CPU is allowed (_fit_each_joint).  Each fit hands its
    stack and split to robust_weights, which writes its basis over the
    stack.
    """
    n = map_.n
    acols = _active_columns(map_)
    kept = _joint_columns(map_, chain, samples,
                          [map_.inertial_columns[a] for a in acols])
    mask = samples.mask
    cols, conds, counts, wms = zip(*_fit_each_joint(
        lambda j: _fit_joint(map_, samples, mask[:, j], j, kept[j], acols[j]),
        list(range(n))))
    chi = np.zeros((n, map_.c))
    for j, (c, wm) in enumerate(zip(cols, wms)):
        chi[j, c] = wm.coef
    coeffs = CurrentCoefficients(
        n=n, chi=chi.ravel(), conditions=conds, sample_counts=counts,
        irls_iterations=tuple(wm.iterations for wm in wms),
        irls_converged=tuple(wm.converged for wm in wms))
    object.__setattr__(coeffs, "_fitted_on", (samples, map_, chain, kept))
    return coeffs


def _fit_each_joint(fit, order) -> list:
    """fit(j) for every joint j of the list order, on dynamics.run_shared:
    the calling thread and, where a second CPU is allowed, one helper take
    joints from that list.  A joint that fails is kept and the other
    joints are still fitted; then the first failing joint in joint order
    raises, as a loop in joint order would.  Otherwise the fits, indexed
    by joint.  Each stage's joints are fitted through it: stages 1 and 2
    in joint order, stage 3 last to first."""
    fits = [None] * len(order)

    def one(j):
        try:
            fits[j] = fit(j)
        except Exception as err:  # raised below, in joint order
            fits[j] = err

    run_shared(one, order)
    for f in fits:
        if isinstance(f, Exception):
            raise f
    return fits


def _fit_joint(map_: BaseParameterMap, samples: SampleSet, rows, j: int,
               kept, active):
    """Joint j's stage-1 fit on its linearity-region rows: (its columns of
    chi, its stack's condition, its sample count, the robust fit).

    Its stack is the joint's identifiable columns, read from its kept
    active columns, and its friction columns (dynamics.friction_regressor),
    built as the transpose of a C-ordered (p, m) buffer.  The stack's split
    gives its condition, checked against CONDITION_LIMIT before
    robust_weights iterates on the same split; a column the final weights
    leave unseparated raises IdentifiabilityError.
    """
    cols = np.concatenate([map_.joint_idcols[j], map_.friction_columns(j)])
    count = int(rows.sum())
    if count < cols.size + 10:
        raise ExcitationError(
            f"joint {j+1}: only {count} linearity-region samples for "
            f"{cols.size} coefficients; lengthen or enrich the trajectory")
    ident = np.searchsorted(active, map_.joint_idcols[j])
    At = np.empty((cols.size, count))
    At[:ident.size] = kept[ident]
    At[ident.size:] = friction_regressor(samples.qd[rows, j]).T
    A = At.T
    del At
    split = split_columns(A)
    cond = _condition(split)
    if cond > CONDITION_LIMIT:
        raise ExcitationError(
            f"joint {j+1}: regressor condition {cond:.3g} exceeds "
            f"{CONDITION_LIMIT:.0e}; the trajectory is not persistently "
            "exciting for this joint")
    wm = robust_weights(A, samples.v[rows, j], split)
    if not wm.independent.all():
        raise _rank_deficient(np.flatnonzero(~wm.independent), cols.size)
    return cols, cond, count, wm


def _active_columns(map_: BaseParameterMap) -> list[np.ndarray]:
    """Per joint j, the inertial base columns present in its row
    (joint_masks), ascending; its identifiable columns are among them."""
    return [np.flatnonzero(m[:map_.c_inertial]) for m in map_.joint_masks]


def _joint_columns(map_: BaseParameterMap, chain: KinematicChain,
                   samples: SampleSet, cols) -> list[np.ndarray]:
    """Per joint j, its full-regressor row on columns cols[j], one row per
    column, over its linearity-region samples samples.mask[:, j], the
    only rows stages 1 and 3 fit: (len(cols[j]), m_j), written by the
    column request (dynamics.regressor_columns); the only reader of the
    regressor here."""
    map_.check_chain(chain)
    rows = samples.mask
    out = [np.empty((len(c), k)) for c, k in zip(cols, rows.sum(axis=0))]
    regressor_columns(chain, samples.q, samples.qd, samples.qdd, cols, out,
                      rows)
    return out


def _kept_columns(map_: BaseParameterMap, chain: KinematicChain, chi,
                  samples: SampleSet) -> list[np.ndarray]:
    """Per joint j, its regressor row on its active inertial base columns
    over its linearity-region samples, in a list of the caller's own: a
    copy of the list stage 1 kept when chi is its result on these very
    samples, map and chain, otherwise the same bits gathered again."""
    fitted_on = getattr(chi, "_fitted_on", None)
    if fitted_on is not None and all(
            a is b for a, b in zip(fitted_on, (samples, map_, chain))):
        return list(fitted_on[3])
    cols = [map_.inertial_columns[a] for a in _active_columns(map_)]
    return _joint_columns(map_, chain, samples, cols)


def _chi_matrix(chi, n: int) -> np.ndarray:
    if isinstance(chi, CurrentCoefficients):
        return chi.as_matrix()
    chi = np.asarray(chi, dtype=float)
    return chi.reshape(n, -1)


def predict_currents(map_: BaseParameterMap, chain: KinematicChain, chi,
                     q, qd, qdd) -> np.ndarray:
    """Currents from the stage-1 model: Newton-Euler on chi's inertial
    part, joint j's torque from block j alone (map_.joint_sets), which is
    joint j's minimal-regressor row times chi_j off the friction columns
    and what friction_residual_currents subtracts, plus chi_j's linear
    friction triple.  (M, n), or (n,) for a single state."""
    map_.check_chain(chain)
    C = _chi_matrix(chi, map_.n)
    v = newton_euler(chain, q, qd, qdd, fold_sets(chain, map_.joint_sets(C))) \
        + friction_linear([C[j, map_.friction_columns(j)]
                           for j in range(map_.n)], qd)
    return v[0] if np.ndim(q) == 1 else v


def friction_residual_currents(map_: BaseParameterMap, chain: KinematicChain,
                               chi, samples: SampleSet) -> np.ndarray:
    """Measured current minus the non-friction model part, all samples.

    The subtraction drops the three linear-friction columns per joint, so
    the result contains the joint's entire friction current plus noise.
    Joint j's non-friction part is Newton-Euler on chi_j's inertial
    entries (map_.joint_sets), as predict_currents evaluates it; no
    regressor is built.
    """
    map_.check_chain(chain)
    sets = fold_sets(chain, map_.joint_sets(_chi_matrix(chi, map_.n)))
    return samples.v - newton_euler(chain, samples.q, samples.qd,
                                    samples.qdd, sets)


# ---------------------------------------------------------------------------
# stage 2: sigmoid friction fit

LM_MAX_ITER = 200
STEP_TOL = 1e-10
# rises of the damping lam, 4x each, at one point before the search ends
LM_BOOSTS = 40
# accepted steps in a row, each lowering the objective by less than
# STALL_TOL relative, after which the search stops.  A converging search's
# decreases shrink geometrically, from STALL_TOL to rounding level in fewer
# steps than this on every fit the tests make; a transition steeper than
# any sample resolves lets delta creep up for LM_MAX_ITER steps at such
# gains
STALL_STEPS = 24
STALL_TOL = 1e-9
# start grid: steepness delta in s/rad, and nu as a share of the region's
# largest |qd|.  A start steeper than the samples resolve leaves the search
# blind to nu, so the grid stops at 1000 s/rad.
GRID_DELTA = np.geomspace(3.0, 1000.0, 7)
GRID_NU = np.linspace(-0.8, 0.8, 9)
# grid rows per chunk in which the grid is projected off [1, qd], through a
# temporary of this many rows.  On c05's draw-21 data (regions of 2400-3750
# samples, a 1.89 MB grid at most) stage 2's traced peak, one joint at a
# time, read 3.94 MB projecting the whole grid at once and 2.31 MB in
# chunks of 512 rows, with the same bits
GRID_CHUNK_ROWS = 512
_LOG_DELTA_MAX = float(np.log(SATURATED_DELTA))


def _fit_transition(x: np.ndarray, y: np.ndarray, label: str):
    """(delta, nu) of one joint's sigmoid by variable projection, the
    objective history of the search and why it stopped.

    For a fixed transition the model is linear in (f_o, f_v, f_c), so the
    objective is what is left of y outside span[1, qd, sigma]: Q spans
    [1, qd] and sigma's part outside it, sp, the rest.  The grid is built
    in one (m, 63) buffer and scored in one batched projection, written
    over the buffer a chunk of GRID_CHUNK_ROWS rows at a time; its best
    point starts a damped Gauss-Newton search on (log delta, nu) with
    Kaufman's projected Jacobian.  Only improving steps are accepted, so
    the history is non-increasing; a point past SATURATED_DELTA, or one
    where split_columns would find sigma dependent on [1, qd], does not
    improve.  The search stops, and the reason reads:

    - "step": a step below STEP_TOL relative to log delta, and to nu or,
      near nu = 0, the transition width 1/delta, accepted, or rejected
      (a larger damping only shrinks it further);
    - "stall": STALL_STEPS accepted steps in a row that each lower the
      objective by less than STALL_TOL relative;
    - "boosts": LM_BOOSTS rises of the damping at one point, none of which
      improves;
    - "iterations": LM_MAX_ITER accepted steps.
    """
    Q = np.linalg.qr(np.column_stack([np.ones_like(x), x]))[0]
    y0 = y - Q @ (Q.T @ y)
    # split_columns keeps sigma beside [1, qd] only above this part
    floor2 = (RANK_TOL * max(np.sqrt(x.size), float(np.linalg.norm(x))))**2

    deltas, nus = np.meshgrid(GRID_DELTA, GRID_NU * np.max(np.abs(x)),
                              indexing="ij")
    # sigmoid(deltas * (nus + x)) in one buffer, by sigmoid's operations
    S = np.add.outer(x, nus.ravel())
    S *= deltas.ravel()
    S *= 0.5
    np.tanh(S, out=S)
    S += 1.0
    S *= 0.5
    C = Q.T @ S
    for c in range(0, len(S), GRID_CHUNK_ROWS):
        S[c:c + GRID_CHUNK_ROWS] -= Q[c:c + GRID_CHUNK_ROWS] @ C
    nn = np.einsum("mg,mg->g", S, S)
    drop = np.where(nn > floor2, (S.T @ y0)**2 / np.maximum(nn, floor2),
                    -np.inf)
    del S  # the search holds vectors of the region only
    best = int(np.argmax(drop))
    if drop[best] == -np.inf:
        raise ExcitationError(
            f"{label}: its low-velocity samples hold {np.unique(x).size} "
            "distinct velocities; the sigmoid friction fit needs 3")

    def point(theta):
        if theta[0] > _LOG_DELTA_MAX:
            return None
        delta = np.exp(theta[0])
        s = sigmoid(delta * (theta[1] + x))
        sp = s - Q @ (Q.T @ s)
        nn = float(sp @ sp)
        if nn <= floor2:
            return None
        f_c = float(sp @ y0) / nn
        r = y0 - f_c * sp
        return float(r @ r), delta, s, sp, nn, f_c, r

    theta = np.array([np.log(deltas.flat[best]), nus.flat[best]])
    obj, delta, s, sp, nn, f_c, r = point(theta)
    history = [obj]
    lam = 1e-3
    stalled = 0
    for _ in range(LM_MAX_ITER):
        # d sigma / d(log delta, nu), projected off [1, qd, sigma]
        ds = s * (1.0 - s) * delta
        D = np.column_stack([ds * (theta[1] + x), ds])
        D -= Q @ (Q.T @ D)
        D -= np.outer(sp, (sp @ D) / nn)
        J = -f_c * D
        g = J.T @ r
        H = J.T @ J
        d = np.maximum(np.diag(H), 1e-12)
        scale = np.abs(theta) + (1.0, 1.0 / delta)
        for _boost in range(LM_BOOSTS):
            step = np.linalg.solve(H + lam * np.diag(d), -g)
            trial = point(theta + step)
            if trial is not None and trial[0] < obj:
                break
            # a larger lam only shrinks the step further
            if np.all(np.abs(step) <= STEP_TOL * scale):
                return delta, float(theta[1]), history, "step"
            lam *= 4.0
        else:
            return delta, float(theta[1]), history, "boosts"
        theta = theta + step
        stalled = stalled + 1 if obj - trial[0] < STALL_TOL * trial[0] else 0
        obj, delta, s, sp, nn, f_c, r = trial
        history.append(obj)
        lam = max(lam * 0.3, 1e-12)
        if np.all(np.abs(step) <= STEP_TOL * scale):
            return delta, float(theta[1]), history, "step"
        if stalled == STALL_STEPS:
            return delta, float(theta[1]), history, "stall"
    return delta, float(theta[1]), history, "iterations"


def _canonical(p: np.ndarray) -> np.ndarray:
    # the sigmoid model is invariant under this reflection of parameters
    q = np.array([p[0] + p[2], p[1], -p[2], -p[3], p[4]])
    return q if np.linalg.norm(q) < np.linalg.norm(p) else p


@dataclass(frozen=True)
class FrictionFit:
    """Stage-2 result: current-level sigmoid friction plus diagnostics.

    stops records why each joint's search ended (_fit_transition): "step",
    "stall", "boosts" or "iterations"."""

    friction: FrictionSet
    objectives: tuple[float, ...]
    iterations: tuple[int, ...]
    region_counts: tuple[int, ...]
    histories: tuple[tuple[float, ...], ...]
    stops: tuple[str, ...] = ()


def fit_friction(qd: np.ndarray, residual_currents: np.ndarray,
                 threshold: float) -> FrictionFit:
    """Stage 2: per-joint sigmoid fit on low-velocity residual currents.

    Uses only samples with |qd_j| < threshold, where the sigmoid shape is
    distinguishable.  One variable-projection search per joint finds the
    transition (delta > 0, nu) from a grid start (see _fit_transition), and
    (f_o, f_v, f_c) are then one linear solve.  delta > 0 loses nothing:
    the model is invariant under a sign-reflection of (f_c, delta) with a
    compensating offset, and the fit is reported in the smaller-norm form
    of that pair.  Against the eight-start Levenberg-Marquardt fit it
    replaced (tests/estimation_oracle.py) it reaches the same minimum or a
    lower one for steepness 30-400 s/rad, |nu| 0.005-0.03 rad/s and steps
    well above the noise; a slow transition near the region's edge can
    end in a higher local minimum.

    The joints are fitted in joint order on two threads where a second CPU
    is allowed (_fit_each_joint), and each fit in flight holds about one
    grid of its region's samples.
    """
    qd = np.asarray(qd, dtype=float)
    vf = np.asarray(residual_currents, dtype=float)
    if qd.shape != vf.shape or qd.ndim != 2:
        raise ValueError("qd and residual currents must both be (M, n)")

    def fit(j):
        region = np.abs(qd[:, j]) < threshold
        count = int(region.sum())
        if count < MIN_REGION_SAMPLES:
            raise ExcitationError(
                f"joint {j+1}: only {count} samples below {threshold} rad/s; "
                f"need at least {MIN_REGION_SAMPLES} for the friction fit")
        x = qd[region, j]
        y = vf[region, j]
        delta, nu, history, stop = _fit_transition(x, y, f"joint {j+1}")
        A = np.column_stack([np.ones_like(x), x, sigmoid(delta * (nu + x))])
        coef = _lstsq(A, y)
        r = y - A @ coef
        return (_canonical(np.array([*coef, delta, nu])), float(r @ r), count,
                tuple(history), stop)

    params, objs, counts, hists, stops = zip(*_fit_each_joint(
        fit, list(range(qd.shape[1]))))
    return FrictionFit(friction=FrictionSet(*np.array(params).T),
                       objectives=objs,
                       iterations=tuple(len(h) - 1 for h in hists),
                       region_counts=counts, histories=hists, stops=stops)


# ---------------------------------------------------------------------------
# stage 3: motor drive gains

_KNOWN_COORDS = {"mass": (0,), "com": (1, 2, 3), "inertia": (4, 5, 6, 7, 8, 9)}


@dataclass(frozen=True)
class KnownPayload:
    """A payload whose listed parameter groups are trusted as exact.

    known lists any of 'mass', 'com', 'inertia'.  The center of mass only
    enters the linear model through the first moment, so knowing it
    requires knowing the mass; likewise the flange-frame inertia depends
    on both.
    """

    spec: PayloadSpec
    known: tuple[str, ...]

    def __post_init__(self):
        known = tuple(self.known)
        for k in known:
            if k not in _KNOWN_COORDS:
                raise ValueError(f"unknown payload parameter group {k!r}")
        if "com" in known and "mass" not in known:
            raise ValueError("knowing the payload com requires its mass")
        if "inertia" in known and not {"mass", "com"} <= set(known):
            raise ValueError("knowing the payload inertia requires mass "
                             "and com")
        object.__setattr__(self, "known", known)

    @property
    def coord_mask(self) -> np.ndarray:
        mask = np.zeros(N_INERTIAL, dtype=bool)
        for k in self.known:
            mask[list(_KNOWN_COORDS[k])] = True
        return mask


@dataclass(frozen=True)
class GainEstimate:
    """Per-joint drive gains with the solve structure that produced them.

    zeta holds each joint's solution [arm coefficients on that joint's
    active base columns; unknown payload parameters over the gain; gain
    reciprocal], with zeros on coordinates the solve regrouped away;
    identifiable_mask marks the surviving coordinates, full_rank whether
    that is all of them.  bounds is (GAIN_LOWER, inf) per joint, and
    bounded, all False, stays for perfbench/spans.py.  irls_iterations and
    irls_converged record each joint's robust-weight iteration.
    """

    gains: np.ndarray
    zeta: tuple[np.ndarray, ...]
    identifiable_mask: tuple[np.ndarray, ...]
    n_unknown: int
    irls_iterations: tuple[int, ...] = ()
    irls_converged: tuple[bool, ...] = ()

    @property
    def full_rank(self) -> tuple[bool, ...]:
        return tuple(bool(mask.all()) for mask in self.identifiable_mask)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return ((GAIN_LOWER, np.inf),) * len(self.gains)

    @property
    def bounded(self) -> tuple[bool, ...]:
        return (False,) * len(self.gains)


def _gain_stack(Aa, Bb, kmask, pi_k, label) -> np.ndarray:
    """One joint's gain system, gain column last, built in place as the
    transpose of a C-ordered (p, m) buffer (robust_weights writes its basis
    over the buffer's leading rows).

    Aa is run a's rows on the joint's na active columns, (na, m_a); Bb is
    run b's on those and the payload columns, (na + 10, m_b).  The stack
    is [[Aa^T, 0, 0], [Bb[:na]^T, Pu, kcol]]: run a carries no payload,
    Pu is run b's unknown payload columns and kcol the known payload's
    contribution.  The joint is checked first: each run must have rows,
    the payload must excite an unknown parameter, and the rows must
    outnumber the unknowns by 10.
    """
    na, m_a, m_b = len(Aa), Aa.shape[1], Bb.shape[1]
    for run, count in (("a", m_a), ("b", m_b)):
        if not count:
            raise ExcitationError(
                f"{label}: run {run} has no linearity-region samples; "
                "the joint never moves faster than the velocity threshold")
    Pj = Bb[na:].T
    Pu = Pj[:, ~kmask]
    kcol = Pj[:, kmask] @ pi_k
    scale = max(float(np.max(np.abs(kcol))), 1.0)
    if Pu.size and np.max(np.abs(Pu)) < 1e-9 * scale:
        raise IdentifiabilityError(
            f"{label}: the payload does not excite any unknown "
            "parameter; attach it eccentrically or mark more "
            "parameters known")
    p = na + Pu.shape[1] + 1
    if m_a + m_b < p + 10:
        raise ExcitationError(
            f"{label}: {m_a + m_b} linearity-region samples for {p} "
            "unknowns; collect longer runs")
    St = np.empty((p, m_a + m_b))
    St[:na, :m_a] = Aa
    St[na:, :m_a] = 0.0
    St[:na, m_a:] = Bb[:na]
    St[na:-1, m_a:] = Pu.T
    St[-1, m_a:] = kcol
    return St.T


def _checked_gain_fit(wm: WeightMatrix, label) -> WeightMatrix:
    """A joint's robust fit of its gain system (_gain_stack), refused
    unless its gain column is identifiable.

    The fit's weighted split keeps the column order, so the gain column is
    independent exactly when the others do not span it, and no dependent
    column regroups onto it.  Its coef is zero on dependent columns.
    """
    if not wm.independent.any():
        raise ExcitationError(f"{label}: zero-rank gain system")
    if not wm.independent[-1]:
        raise IdentifiabilityError(
            f"{label}: the drive gain is not identifiable; the known "
            "payload parameters do not separate it from the arm model")
    return wm


def _checked_gains(reciprocals) -> np.ndarray:
    """The gains 1/reciprocals; one ExcitationError names, in joint order,
    every joint whose reciprocal is not positive (0 too, whose gain reads
    inf) or whose gain is below GAIN_LOWER."""
    broken = []
    for j, lam in enumerate(reciprocals):
        if not lam > 0:
            broken.append(f"joint {j+1}: drive gain reciprocal {lam:.6g} "
                          "A/Nm is not positive")
        elif 1.0 / lam < GAIN_LOWER:
            broken.append(f"joint {j+1}: drive gain {1.0 / lam:.6g} Nm/A "
                          f"is below its lower bound {GAIN_LOWER:g}")
    if broken:
        raise ExcitationError(
            "; ".join(broken) + "; run b was likely not recorded on run "
            "a's trajectory, or the joint is weakly excited")
    return 1.0 / np.asarray(reciprocals, dtype=float)


def estimate_gains(samples_a: SampleSet, samples_b: SampleSet,
                   known_payload: KnownPayload, map_: BaseParameterMap,
                   chain: KinematicChain, chi, psi: FrictionSet
                   ) -> GainEstimate:
    """Stage 3: drive gains from paired runs without/with a payload.

    Per joint the friction-compensated currents of both runs are stacked
    against the joint's active base columns, the unknown payload parameters
    scaled by the gain reciprocal, and a single column carrying the known
    payload contribution times that reciprocal.  Joints whose rows carry
    internal column dependencies (on the UR10, every joint does) come
    out rank-deficient and solve in regrouped coordinates; full-rank
    joints solve directly.  Each joint is checked and built
    (_gain_stack), then one robust fit (_checked_gain_fit), and every
    joint is solved before its gain is checked against the one floor,
    GAIN_LOWER (_checked_gains).

    Each joint's arm columns are re-fitted together with its gain on both
    runs, so chi's values are not read.  samples_a's rows are the
    linearity-region rows of the joint's active columns (_kept_columns:
    the ones stage 1 kept when chi is its result on these very samples,
    map and chain, otherwise gathered); samples_b's are gathered on the
    active columns and the payload (last link) columns (_joint_columns).

    The joints are fitted last to first on two threads where a second CPU
    is allowed (_fit_each_joint), and each fit in flight holds about one
    joint's system: the joint's gathered rows are released as its stack is
    built, and robust_weights writes the basis over the stack.  The first
    joints' rows reach the most columns, so their stacks, the largest, are
    built when most later joints' rows are gone.
    """
    n = map_.n
    kmask = known_payload.coord_mask
    if not kmask.any():
        raise IdentifiabilityError(
            "no payload parameters are marked known; the gain column of "
            "every joint's system is identically zero")
    pi_k = payload_to_frame_n(known_payload.spec)[kmask]
    n_unknown = int((~kmask).sum())

    acols = _active_columns(map_)
    rows_a = dict(enumerate(_kept_columns(map_, chain, chi, samples_a)))
    payload_cols = N_INERTIAL * (n - 1) + np.arange(N_INERTIAL)
    rows_b = dict(enumerate(_joint_columns(
        map_, chain, samples_b,
        [np.r_[map_.inertial_columns[a], payload_cols] for a in acols])))
    # friction-compensated currents
    ya = samples_a.v - friction_sigmoid(psi, samples_a.qd)
    yb = samples_b.v - friction_sigmoid(psi, samples_b.qd)
    mask_a, mask_b = samples_a.mask, samples_b.mask

    def fit(j):
        label = f"joint {j+1}"
        y = np.concatenate([ya[mask_a[:, j], j], yb[mask_b[:, j], j]])
        # the joint's rows live only while its stack is built, and the
        # stack only in the fit that writes its basis over it
        return _checked_gain_fit(robust_weights(
            _gain_stack(rows_a.pop(j), rows_b.pop(j), kmask, pi_k, label),
            y), label)

    fits = _fit_each_joint(fit, list(reversed(range(n))))
    return GainEstimate(gains=_checked_gains([f.coef[-1] for f in fits]),
                        zeta=tuple(f.coef for f in fits),
                        identifiable_mask=tuple(f.independent for f in fits),
                        n_unknown=n_unknown,
                        irls_iterations=tuple(f.iterations for f in fits),
                        irls_converged=tuple(f.converged for f in fits))
