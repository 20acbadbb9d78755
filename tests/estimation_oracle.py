"""Stage-1 model and residual and the stage-2 fit in their direct forms,
the references for estimation.predict_currents,
estimation.friction_residual_currents and estimation.fit_friction.

The model here evaluates joint j's block of chi by Newton-Euler, reads it
at joint j and adds the joint's linear friction; the package takes the
same product from the minimal regressor.  The friction fit here runs
eight full five-parameter Levenberg-Marquardt starts per joint after an
affine prefit, and the earliest of the starts whose objectives tie within
a relative 1e-9 wins; the package runs one two-parameter search per joint
with (f_o, f_v, f_c) projected out.
"""
import numpy as np

from dynid import estimation
from dynid.dynamics import (fold_sets, friction_linear, newton_euler,
                            sigmoid)
from dynid.estimation import _canonical, _chi_matrix, _lstsq

LM_MAX_ITER = 200
LM_FTOL = 1e-14
LM_GTOL = 1e-12


def _own_joint_torques(map_, chain, chi, q, qd, qdd) -> np.ndarray:
    """Torque of joint j under its own block of chi, friction aside."""
    sets = map_.joint_sets(_chi_matrix(chi, map_.n))
    tau = newton_euler(chain, q, qd, qdd, fold_sets(chain, sets))
    return tau[0] if np.ndim(q) == 1 else tau


def predict_currents(map_, chain, chi, q, qd, qdd) -> np.ndarray:
    C = _chi_matrix(chi, map_.n)
    tri = [C[j, map_.friction_columns(j)] for j in range(map_.n)]
    return (_own_joint_torques(map_, chain, chi, q, qd, qdd)
            + friction_linear(tri, qd))


def friction_residual_currents(map_, chain, chi, samples) -> np.ndarray:
    return samples.v - _own_joint_torques(map_, chain, chi, samples.q,
                                          samples.qd, samples.qdd)


def _friction_model(p: np.ndarray, qd: np.ndarray):
    f_o, f_v, f_c, delta, nu = p
    s = sigmoid(delta * (nu + qd))
    return f_o + f_v * qd + f_c * s, s


def _friction_jacobian(p: np.ndarray, qd: np.ndarray,
                       s: np.ndarray) -> np.ndarray:
    f_c, delta, nu = p[2], p[3], p[4]
    ds = s * (1.0 - s)  # derivative of the sigmoid w.r.t. its argument
    J = np.empty((qd.size, 5))
    J[:, 0] = 1.0
    J[:, 1] = qd
    J[:, 2] = s
    J[:, 3] = f_c * ds * (nu + qd)
    J[:, 4] = f_c * ds * delta
    return J


def lm_fit(qd: np.ndarray, y: np.ndarray, p0: np.ndarray):
    p = np.asarray(p0, dtype=float).copy()
    f, s = _friction_model(p, qd)
    r = f - y
    obj = float(r @ r)
    history = [obj]
    lam = 1e-3
    for _ in range(LM_MAX_ITER):
        J = _friction_jacobian(p, qd, s)
        g = J.T @ r
        if np.max(np.abs(g)) < LM_GTOL * (1.0 + obj):
            break
        H = J.T @ J
        d = np.diag(H).copy()
        d[d < 1e-12] = 1e-12
        accepted = False
        for _boost in range(40):
            try:
                step = np.linalg.solve(H + lam * np.diag(d), -g)
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


def fit_friction(qd: np.ndarray, residual_currents: np.ndarray,
                 threshold: float):
    """(n, 5) parameters of the eight-start fit on the samples with
    |qd_j| < threshold."""
    params = []
    for j in range(qd.shape[1]):
        region = np.abs(qd[:, j]) < threshold
        x = qd[region, j]
        y = residual_currents[region, j]
        # affine prefit anchors the offset and viscous slope
        A = np.column_stack([np.ones_like(x), x])
        ab = _lstsq(A, y)
        fc_mag = max(2.0 * float(np.std(y - A @ ab)), 1e-3)
        candidates = []
        for fc0 in (fc_mag, -fc_mag):
            for d0 in (15.0, 150.0, -15.0, -150.0):
                p0 = np.array([ab[0] - 0.5 * fc0, ab[1], fc0, d0, 0.0])
                p_hat, obj, _ = lm_fit(x, y, p0)
                if np.isfinite(obj):
                    candidates.append((obj, _canonical(p_hat)))
        best_obj = min(obj for obj, _ in candidates)
        params.append(next(p for obj, p in candidates
                           if obj <= best_obj * (1.0 + 1e-9)))
    return np.array(params)


def assert_reaches_minimum(qd, residual_currents, threshold,
                           param_rtol=None):
    """estimation.fit_friction reaches the eight-start fit's minimum on every
    joint, or a lower one: its sum of squared residuals is at most the
    oracle's times 1 + 1e-9, give or take the rounding of each residual
    entry (four ulps of the data's largest entry), which decides where the
    residual nearly vanishes.  With param_rtol its parameters also agree
    with the oracle's to that relative tolerance."""
    fit = estimation.fit_friction(qd, residual_currents, threshold=threshold)
    P_ref = fit_friction(qd, residual_currents, threshold)
    P = np.column_stack(fit.friction.as_arrays())
    eps = np.finfo(float).eps
    for j in range(qd.shape[1]):
        region = np.abs(qd[:, j]) < threshold
        x, y = qd[region, j], residual_currents[region, j]
        sse, sse_ref = (float(np.sum((y - _friction_model(p, x)[0]) ** 2))
                        for p in (P[j], P_ref[j]))
        rounding = np.sqrt(y.size) * 4.0 * eps * np.max(np.abs(y))
        assert np.sqrt(sse) <= np.sqrt(sse_ref * (1.0 + 1e-9)) + rounding, \
            (j, sse, sse_ref)
        assert abs(np.sqrt(fit.objectives[j]) - np.sqrt(sse)) <= rounding
        h = fit.histories[j]
        assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
    if param_rtol is not None:
        assert np.all(np.abs(P - P_ref) <= param_rtol * np.abs(P_ref))
    return fit
