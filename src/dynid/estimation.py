"""Three-stage identification at the motor-current level.

Stage 1 estimates the current-level dynamic coefficients (one block per
joint, since each joint divides the shared parameters by its own unknown
drive gain).  Stage 2 refines friction with a five-parameter sigmoid fitted
to low-velocity residual currents.  Stage 3 recovers the motor drive gains
by comparing data collected with and without a partially known payload,
falling back to a regrouped bounded solve where the per-joint systems lose
rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (N_INERTIAL, FrictionSet, friction_sigmoid,
                       regressor_stack, sigmoid)
from .kinematics import KinematicChain
from .payload import PayloadSpec, payload_to_frame_n
from .reduction import (BaseParameterMap, minimal_columns,
                        minimal_regressor_stack, split_columns)
from .dataio import SampleSet

BISQUARE_TUNING = 4.685
WEIGHT_TOL = 1e-6
WEIGHT_MAX_ITER = 50
CONDITION_LIMIT = 1e8
MIN_REGION_SAMPLES = 50
GAIN_LOWER_DEFAULT = 10.0


class EstimationError(RuntimeError):
    """An identification stage could not produce a trustworthy estimate."""


class ExcitationError(EstimationError):
    """The data does not excite the parameters well enough to solve."""


class IdentifiabilityError(EstimationError):
    """The requested parameters are structurally not identifiable."""


class ConvergenceError(EstimationError):
    """An iterative solve failed to converge from every starting point."""


# ---------------------------------------------------------------------------
# linear solvers

def _lstsq(stack: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of a full-rank stack, decided and solved
    by split_columns, so every coefficient solve shares RANK_TOL."""
    split = split_columns(stack)
    if split.dep.size:
        raise IdentifiabilityError(
            f"rank-deficient stack (rank {split.ind.size} of "
            f"{stack.shape[1]}); dependent columns {split.dep.tolist()}")
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
    how the bisquare function treats gross outliers.
    """

    w: np.ndarray
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1 or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValueError("weights must be a 1-D nonnegative finite vector")
        object.__setattr__(self, "w", w)


def wlse(stack: np.ndarray, rhs: np.ndarray,
         weights: WeightMatrix | np.ndarray) -> np.ndarray:
    """Weighted least squares; unit weights give the ordinary fit."""
    stack, rhs = _linear_system(stack, rhs)
    if not isinstance(weights, WeightMatrix):
        weights = WeightMatrix(weights)
    w = weights.w
    if w.shape != (stack.shape[0],):
        raise ValueError("one weight per stacked row required")
    sw = np.sqrt(w)
    return _lstsq(stack * sw[:, None], rhs * sw)


def _mad_scale(residual: np.ndarray) -> float:
    med = np.median(residual)
    return float(np.median(np.abs(residual - med)) / 0.6745)


def robust_weights(stack: np.ndarray, rhs: np.ndarray) -> WeightMatrix:
    """Bisquare IRLS weights for a linear model.

    Iterates weighted solves until the weights settle to within
    WEIGHT_TOL.  A degenerate residual scale (all residuals essentially
    zero) returns unit weights, since there is nothing to downweight.

    IRLS needs only the residuals, and those depend only on the stack's
    range.  One thin SVD gives an orthonormal basis Q of that range, cut
    at eps*max(m, n) of the largest singular value, so rank-deficient
    stacks need no special case.  Each iterate then solves the small
    weighted system in Q's coordinates, (Q^T W Q) y = Q^T W b, and sets
    r = b - Q y.  Q is orthonormal and the weights lie in [0, 1], so that
    Gram's eigenvalues lie in [0, 1] however ill-conditioned the stack is;
    its pseudo-inverse gives the minimum-norm y where zero weights leave
    directions of the range unobserved.
    """
    stack, rhs = _linear_system(stack, rhs)
    floor = 1e-12 * max(1.0, float(np.sqrt(np.mean(rhs**2))))
    # the usual SVD rank cutoff; a Gram summed over m rows carries rounding
    # of the same relative size, so it serves the small solves as well
    rcond = np.finfo(float).eps * max(stack.shape)
    U, sv, _ = np.linalg.svd(stack, full_matrices=False)
    Q = U[:, sv > rcond * sv.max(initial=0.0)]

    def residual(w):
        Qs = Q * np.sqrt(w)[:, None]
        y = np.linalg.pinv(Qs.T @ Qs, rcond=rcond, hermitian=True) @ (
            Q.T @ (w * rhs))
        return rhs - Q @ y

    w = np.ones(stack.shape[0])
    r = rhs - Q @ (Q.T @ rhs)  # unit weights: the Gram is the identity
    for it in range(1, WEIGHT_MAX_ITER + 1):
        s = _mad_scale(r)
        if s <= floor:
            return WeightMatrix(np.ones_like(w), converged=True, iterations=it)
        u = r / (BISQUARE_TUNING * s)
        w_new = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 2, 0.0)
        if np.max(np.abs(w_new - w)) < WEIGHT_TOL:
            return WeightMatrix(w_new, converged=True, iterations=it)
        w = w_new
        r = residual(w)
    return WeightMatrix(w, converged=False, iterations=WEIGHT_MAX_ITER)


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

    identify_coefficients also keeps the minimal regressor it fitted on,
    with the samples, map and chain it was built from, in a field outside
    repr and ==.  friction_residual_currents and estimate_gains read it
    when given those very objects, so one identification builds that
    regressor once.  It lives as long as this object: (M, n, c) floats,
    about 19 MB at 7500 UR10 states.  dataclasses.replace gives a copy
    without it; coefficients built any other way, such as a chi loaded
    from a model file, hold none, and those two functions build their own.
    """

    n: int
    chi: np.ndarray
    conditions: tuple[float, ...] = ()
    sample_counts: tuple[int, ...] = ()
    irls_iterations: tuple[int, ...] = ()
    irls_converged: tuple[bool, ...] = ()
    # (samples, map, chain, minimal regressor), set by identify_coefficients
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
    that joint's fit, where the three linear friction columns are valid.
    """
    n = map_.n
    U = minimal_regressor_stack(map_, chain, samples.q, samples.qd,
                                samples.qdd)
    mask = samples.mask
    chi = np.zeros((n, map_.c))
    conds, counts, iters, converged = [], [], [], []
    for j in range(n):
        cols = np.concatenate([map_.joint_idcols[j], map_.friction_columns(j)])
        rows = mask[:, j]
        count = int(rows.sum())
        if count < cols.size + 10:
            raise ExcitationError(
                f"joint {j+1}: only {count} linearity-region samples for "
                f"{cols.size} coefficients; lengthen or enrich the trajectory")
        A = U[rows, j][:, cols]
        b = samples.v[rows, j]
        cond = float(np.linalg.cond(A))
        if cond > CONDITION_LIMIT:
            raise ExcitationError(
                f"joint {j+1}: regressor condition {cond:.3g} exceeds "
                f"{CONDITION_LIMIT:.0e}; the trajectory is not persistently "
                "exciting for this joint")
        wm = robust_weights(A, b)
        x = wlse(A, b, wm)
        chi[j, cols] = x
        conds.append(cond)
        counts.append(count)
        iters.append(wm.iterations)
        converged.append(wm.converged)
    coeffs = CurrentCoefficients(n=n, chi=chi.ravel(),
                                 conditions=tuple(conds),
                                 sample_counts=tuple(counts),
                                 irls_iterations=tuple(iters),
                                 irls_converged=tuple(converged))
    object.__setattr__(coeffs, "_fitted_on", (samples, map_, chain, U))
    return coeffs


def _minimal_regressor(map_: BaseParameterMap, chain: KinematicChain, chi,
                       samples: SampleSet) -> np.ndarray:
    """The minimal regressor chi was fitted on when that was these very
    samples, map and chain; otherwise a new build of samples' own."""
    fitted_on = getattr(chi, "_fitted_on", None)
    if fitted_on is not None and all(
            a is b for a, b in zip(fitted_on, (samples, map_, chain))):
        return fitted_on[3]
    return minimal_regressor_stack(map_, chain, samples.q, samples.qd,
                                   samples.qdd)


def _chi_matrix(chi, n: int) -> np.ndarray:
    if isinstance(chi, CurrentCoefficients):
        return chi.as_matrix()
    chi = np.asarray(chi, dtype=float)
    return chi.reshape(n, -1)


def predict_currents(map_: BaseParameterMap, chain: KinematicChain, chi,
                     q, qd, qdd) -> np.ndarray:
    """Currents from the stage-1 model, linear friction included: joint
    j's minimal-regressor row times its block of chi, the model stage 1
    fitted.  (M, n), or (n,) for a single state."""
    U = minimal_regressor_stack(map_, chain, q, qd, qdd)
    v = np.einsum("mjc,jc->mj", U, _chi_matrix(chi, map_.n))
    return v[0] if np.ndim(q) == 1 else v


def friction_residual_currents(map_: BaseParameterMap, chain: KinematicChain,
                               chi, samples: SampleSet) -> np.ndarray:
    """Measured current minus the non-friction model part, all samples.

    The subtraction drops the three linear-friction columns per joint, so
    the result contains the joint's entire friction current plus noise.
    Joint j's non-friction part is its minimal-regressor row's inertial
    columns times chi_j's.  That regressor is the one stage 1 kept when
    chi is identify_coefficients' result on these samples, map and chain
    (see CurrentCoefficients); any other chi, such as one loaded from a
    model file, builds it here.
    """
    C = _chi_matrix(chi, map_.n)
    c_in = map_.c_inertial
    U = _minimal_regressor(map_, chain, chi, samples)
    return samples.v - np.einsum("mjc,jc->mj", U[:, :, :c_in], C[:, :c_in])


# ---------------------------------------------------------------------------
# stage 2: sigmoid friction fit

LM_MAX_ITER = 200
LM_FTOL = 1e-14
LM_GTOL = 1e-12


def _friction_model(p: np.ndarray, qd: np.ndarray):
    f_o, f_v, f_c, delta, nu = p
    s = sigmoid(delta * (nu + qd))
    return f_o + f_v * qd + f_c * s, s


def _lm_fit(qd: np.ndarray, y: np.ndarray, p0: np.ndarray):
    """Damped Gauss-Newton descent on the sigmoid friction residual.

    Only improving steps are accepted, so the objective history is
    non-increasing by construction.  The Jacobian is held transposed in
    one (5, m) buffer; its offset and viscous rows never change.
    """
    p = np.asarray(p0, dtype=float).copy()
    f, s = _friction_model(p, qd)
    r = f - y
    obj = float(r @ r)
    history = [obj]
    lam = 1e-3
    Jt = np.empty((5, qd.size))
    Jt[0] = 1.0
    Jt[1] = qd
    for _ in range(LM_MAX_ITER):
        f_c, delta, nu = p[2], p[3], p[4]
        # f_c times the sigmoid's derivative w.r.t. its argument
        fc_ds = f_c * (s * (1.0 - s))
        Jt[2] = s
        np.multiply(fc_ds, nu + qd, out=Jt[3])
        np.multiply(fc_ds, delta, out=Jt[4])
        g = Jt @ r
        if np.max(np.abs(g)) < LM_GTOL * (1.0 + obj):
            break
        H = Jt @ Jt.T
        d = np.diag(H).copy()
        d[d < 1e-12] = 1e-12
        D = d * np.eye(5)
        accepted = False
        for _boost in range(40):
            try:
                step = np.linalg.solve(H + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + step
            f_try, s_try = _friction_model(p_try, qd)
            r_try = f_try - y
            obj_try = float(r_try @ r_try)
            if np.isfinite(obj_try) and obj_try < obj:
                rel = (obj - obj_try) / max(obj, 1e-300)
                p, f, s, r, obj = p_try, f_try, s_try, r_try, obj_try
                history.append(obj)
                lam = max(lam * 0.3, 1e-12)
                accepted = True
                break
            lam *= 4.0
        if not accepted:
            break
        if rel < LM_FTOL:
            break
    return p, obj, history


def _mirror(p: np.ndarray) -> np.ndarray:
    # the sigmoid model is invariant under this reflection of parameters
    return np.array([p[0] + p[2], p[1], -p[2], -p[3], p[4]])


def _canonical(p: np.ndarray) -> np.ndarray:
    q = _mirror(p)
    return q if np.linalg.norm(q) < np.linalg.norm(p) else p


@dataclass(frozen=True)
class FrictionFit:
    """Stage-2 result: current-level sigmoid friction plus diagnostics."""

    friction: FrictionSet
    objectives: tuple[float, ...]
    iterations: tuple[int, ...]
    region_counts: tuple[int, ...]
    histories: tuple[tuple[float, ...], ...]


def fit_friction(qd: np.ndarray, residual_currents: np.ndarray,
                 threshold: float) -> FrictionFit:
    """Stage 2: per-joint sigmoid fit on low-velocity residual currents.

    Uses only samples with |qd_j| < threshold, where the sigmoid shape is
    distinguishable.  Eight deterministic starts cover the sign and scale
    ambiguity of (f_c, delta).  Starts whose objective is within a relative
    1e-9 of the best tie, and the earliest of them wins: starts that reach
    the same minimum differ only in rounding, which must not pick it.  The
    model is invariant under a sign-reflection of (f_c, delta) with a
    compensating offset, so the winner is reported in the smaller-norm
    form of that pair.
    """
    qd = np.asarray(qd, dtype=float)
    vf = np.asarray(residual_currents, dtype=float)
    if qd.shape != vf.shape or qd.ndim != 2:
        raise ValueError("qd and residual currents must both be (M, n)")
    n = qd.shape[1]
    params = np.zeros((n, 5))
    objs, iters, counts, hists = [], [], [], []
    for j in range(n):
        region = np.abs(qd[:, j]) < threshold
        count = int(region.sum())
        if count < MIN_REGION_SAMPLES:
            raise ExcitationError(
                f"joint {j+1}: only {count} samples below {threshold} rad/s; "
                f"need at least {MIN_REGION_SAMPLES} for the friction fit")
        x = qd[region, j]
        y = vf[region, j]
        # affine prefit anchors the offset and viscous slope
        A = np.column_stack([np.ones_like(x), x])
        ab = _lstsq(A, y)
        resid0 = y - A @ ab
        fc_mag = max(2.0 * float(np.std(resid0)), 1e-3)
        starts = []
        for fc0 in (fc_mag, -fc_mag):
            for d0 in (15.0, 150.0, -15.0, -150.0):
                starts.append(np.array([ab[0] - 0.5 * fc0, ab[1],
                                        fc0, d0, 0.0]))
        candidates = []
        for p0 in starts:
            p_hat, obj, history = _lm_fit(x, y, p0)
            if np.isfinite(obj):
                candidates.append((obj, _canonical(p_hat), history))
        if not candidates:
            raise ConvergenceError(
                f"joint {j+1}: no friction fit start converged "
                f"(starts: {[list(np.round(s, 3)) for s in starts]})")
        best_obj = min(c[0] for c in candidates)
        tol = 1e-9 * best_obj
        obj, p_hat, history = next(c for c in candidates
                                   if c[0] <= best_obj + tol)
        params[j] = p_hat
        objs.append(float(obj))
        iters.append(len(history) - 1)
        counts.append(count)
        hists.append(tuple(history))
    fs = FrictionSet(f_o=tuple(params[:, 0]), f_v=tuple(params[:, 1]),
                     f_c=tuple(params[:, 2]), delta=tuple(params[:, 3]),
                     nu=tuple(params[:, 4]))
    return FrictionFit(friction=fs, objectives=tuple(objs),
                       iterations=tuple(iters), region_counts=tuple(counts),
                       histories=tuple(hists))


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
    identifiable_mask marks the surviving coordinates.  irls_iterations and
    irls_converged record each joint's robust-weight iteration.
    """

    gains: np.ndarray
    zeta: tuple[np.ndarray, ...]
    identifiable_mask: tuple[np.ndarray, ...]
    bounds: tuple[tuple[float, float], ...]
    full_rank: tuple[bool, ...]
    bounded: tuple[bool, ...]
    n_unknown: int
    irls_iterations: tuple[int, ...] = ()
    irls_converged: tuple[bool, ...] = ()


def _gain_solve(S, y, w, lam_bounds, label):
    """Solve one joint's weighted gain system, gain column last.

    One split_columns of the weighted stack decides the rank and solves on
    the independent columns.  The split keeps the column order, so the
    gain column is independent exactly when the others do not span it,
    and no dependent column regroups onto it.  A rank-deficient joint
    whose gain reciprocal leaves lam_bounds is re-solved with it clamped
    to the nearer bound.
    """
    Sw, yw = S * np.sqrt(w)[:, None], y * np.sqrt(w)
    split = split_columns(Sw)
    p = S.shape[1]
    if split.ind.size == 0:
        raise ExcitationError(f"{label}: zero-rank gain system")
    if split.ind[-1] != p - 1:
        raise IdentifiabilityError(
            f"{label}: the drive gain is not identifiable; the known "
            "payload parameters do not separate it from the arm model")
    full_rank = split.dep.size == 0
    lam = split.solve(yw)
    lo, hi = lam_bounds
    bounded = not full_rank and not lo <= lam[-1] <= hi
    if bounded:
        lam[-1] = float(np.clip(lam[-1], lo, hi))
        lam[:-1] = _lstsq(Sw[:, split.ind[:-1]], yw - Sw[:, -1] * lam[-1])
    if lam[-1] <= 0:
        raise EstimationError(f"{label}: nonpositive gain coordinate; "
                              "the data contradicts a positive drive gain")
    zeta = np.zeros(p)
    zeta[split.ind] = lam
    mask = np.zeros(p, dtype=bool)
    mask[split.ind] = True
    return 1.0 / float(lam[-1]), zeta, mask, full_rank, bounded


def estimate_gains(samples_a: SampleSet, samples_b: SampleSet,
                   known_payload: KnownPayload, map_: BaseParameterMap,
                   chain: KinematicChain, chi, psi: FrictionSet,
                   bounds: tuple[float, float | None] = (
                       GAIN_LOWER_DEFAULT, None)) -> GainEstimate:
    """Stage 3: drive gains from paired runs without/with a payload.

    Per joint the friction-compensated currents of both runs are stacked
    against the joint's active base columns, the unknown payload parameters
    scaled by the gain reciprocal, and a single column carrying the known
    payload contribution times that reciprocal.  Joints whose rows carry
    internal column dependencies (on the UR10, every joint does) come
    out rank-deficient and solve in regrouped coordinates with the gain
    reciprocal bounded; full-rank joints solve directly.  A missing upper
    bound defaults per joint to the largest gain already identified
    upstream.

    Each joint's arm columns are re-fitted together with its gain on both
    runs, so chi's values are not read.  chi supplies samples_a's minimal
    regressor when it is identify_coefficients' result on these very
    samples, map and chain (see CurrentCoefficients); any other chi, such
    as one loaded from a model file, builds it here.
    """
    n = map_.n
    kmask = known_payload.coord_mask
    if not kmask.any():
        raise IdentifiabilityError(
            "no payload parameters are marked known; the gain column of "
            "every joint's system is identically zero")
    pi_L = payload_to_frame_n(known_payload.spec)
    pi_k = pi_L[kmask]
    n_unknown = int((~kmask).sum())

    U_a = _minimal_regressor(map_, chain, chi, samples_a)
    Y_b = regressor_stack(chain, samples_b.q, samples_b.qd, samples_b.qdd)
    U_b = minimal_columns(map_, Y_b)
    P_b = Y_b[:, :, N_INERTIAL * (n - 1):N_INERTIAL * n]
    vf_a = friction_sigmoid(psi, samples_a.qd)
    vf_b = friction_sigmoid(psi, samples_b.qd)

    c_in = map_.c_inertial
    K = np.zeros(n)
    zeta, masks, jbounds = [], [], []
    full_rank, bounded_flags, iters, converged = [], [], [], []
    for j in range(n):
        label = f"joint {j+1}"
        acols = np.flatnonzero(map_.joint_masks[j][:c_in])
        ra = samples_a.mask[:, j]
        rb = samples_b.mask[:, j]
        Aa = U_a[ra, j][:, acols]
        Ab = U_b[rb, j][:, acols]
        ya = samples_a.v[ra, j] - vf_a[ra, j]
        yb = samples_b.v[rb, j] - vf_b[rb, j]
        Pj = P_b[rb, j]
        Pu = Pj[:, ~kmask]
        kcol = Pj[:, kmask] @ pi_k
        scale = max(float(np.max(np.abs(kcol))), 1.0)
        if n_unknown and np.max(np.abs(Pu), initial=0.0) < 1e-9 * scale:
            raise IdentifiabilityError(
                f"{label}: the payload does not excite any unknown "
                "parameter; attach it eccentrically or mark more "
                "parameters known")
        p = acols.size + n_unknown + 1
        ma, mb = Aa.shape[0], Ab.shape[0]
        if ma + mb < p + 10:
            raise ExcitationError(
                f"{label}: {ma + mb} linearity-region samples for {p} "
                "unknowns; collect longer runs")
        S = np.zeros((ma + mb, p))
        S[:ma, :acols.size] = Aa
        S[ma:, :acols.size] = Ab
        S[ma:, acols.size:acols.size + n_unknown] = Pu
        S[ma:, -1] = kcol
        y = np.concatenate([ya, yb])

        k_lo = float(bounds[0])
        k_hi = bounds[1]
        if k_hi is None:
            k_hi = float(np.max(K[:j])) if j > 0 else np.inf
        else:
            k_hi = float(k_hi)
        if k_lo >= k_hi:
            raise EstimationError(
                f"{label}: infeasible gain bounds [{k_lo}, {k_hi}]")
        lam_bounds = (0.0 if np.isinf(k_hi) else 1.0 / k_hi, 1.0 / k_lo)

        wm = robust_weights(S, y)
        Kj, zj, mj, fr, bd = _gain_solve(S, y, wm.w, lam_bounds, label)
        K[j] = Kj
        zeta.append(zj)
        masks.append(mj)
        jbounds.append((k_lo, k_hi))
        full_rank.append(fr)
        bounded_flags.append(bd)
        iters.append(wm.iterations)
        converged.append(wm.converged)
    return GainEstimate(gains=K, zeta=tuple(zeta),
                        identifiable_mask=tuple(masks),
                        bounds=tuple(jbounds), full_rank=tuple(full_rank),
                        bounded=tuple(bounded_flags), n_unknown=n_unknown,
                        irls_iterations=tuple(iters),
                        irls_converged=tuple(converged))
