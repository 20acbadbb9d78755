"""Stage-1 model and residual and the stage-2 fit in their direct forms,
the references for estimation.predict_currents,
estimation.friction_residual_currents and estimation._lm_fit.

The model here evaluates joint j's block of chi by Newton-Euler, reads it
at joint j and adds the joint's linear friction; the package takes the
same product from the minimal regressor.  The Levenberg-Marquardt fit
here forms the Jacobian row by row and its normal matrix from that; the
package fills one transposed Jacobian buffer per fit.  Both fits read the
package's constants, so monkeypatching them moves both alike.
"""
import numpy as np

from dynid import estimation
from dynid.dynamics import friction_linear, newton_euler
from dynid.estimation import _chi_matrix, _friction_model


def _own_joint_torques(map_, chain, chi, q, qd, qdd) -> np.ndarray:
    """Torque of joint j under its own block of chi, friction aside."""
    sets = map_.joint_sets(_chi_matrix(chi, map_.n))
    tau = newton_euler(chain, q, qd, qdd, sets)
    j = np.arange(map_.n)
    return tau[0, j, j] if np.ndim(q) == 1 else tau[:, j, j]


def predict_currents(map_, chain, chi, q, qd, qdd) -> np.ndarray:
    C = _chi_matrix(chi, map_.n)
    tri = [C[j, map_.friction_columns(j)] for j in range(map_.n)]
    return (_own_joint_torques(map_, chain, chi, q, qd, qdd)
            + friction_linear(tri, qd))


def friction_residual_currents(map_, chain, chi, samples) -> np.ndarray:
    return samples.v - _own_joint_torques(map_, chain, chi, samples.q,
                                          samples.qd, samples.qdd)


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
    for _ in range(estimation.LM_MAX_ITER):
        J = _friction_jacobian(p, qd, s)
        g = J.T @ r
        if np.max(np.abs(g)) < estimation.LM_GTOL * (1.0 + obj):
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
        if rel < estimation.LM_FTOL:
            break
    return p, obj, history
