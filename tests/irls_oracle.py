"""Bisquare IRLS by a fresh weighted lstsq per iterate, the reference for
estimation.robust_weights.

Every iterate solves the full m x p weighted stack with a minimum-norm
lstsq and forms the residual from that solution.  The package iterates in
an orthonormal basis of the stack's range instead, factorising the stack
once; this slower, direct form is what the tests hold it against.  It
reads the package's constants, so monkeypatching them moves both alike.
"""
import numpy as np

from dynid import estimation
from dynid.estimation import WeightMatrix, _mad_scale


def robust_weights(stack: np.ndarray, rhs: np.ndarray) -> WeightMatrix:
    stack = np.asarray(stack, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    floor = 1e-12 * max(1.0, float(np.sqrt(np.mean(rhs**2))))

    def solve(w):
        # residuals are insensitive to which minimizer is picked, so a
        # minimum-norm solve keeps IRLS usable on rank-deficient stacks
        sw = np.sqrt(w)
        x, _, _, _ = np.linalg.lstsq(stack * sw[:, None], rhs * sw,
                                     rcond=None)
        return x

    w = np.ones(stack.shape[0])
    x = solve(w)
    for it in range(1, estimation.WEIGHT_MAX_ITER + 1):
        r = rhs - stack @ x
        s = _mad_scale(r)
        if s <= floor:
            return WeightMatrix(np.ones_like(w), converged=True, iterations=it)
        u = r / (estimation.BISQUARE_TUNING * s)
        w_new = np.where(np.abs(u) < 1.0, (1.0 - u**2) ** 2, 0.0)
        if np.max(np.abs(w_new - w)) < estimation.WEIGHT_TOL:
            return WeightMatrix(w_new, converged=True, iterations=it)
        w = w_new
        x = solve(w)
    return WeightMatrix(w, converged=False,
                        iterations=estimation.WEIGHT_MAX_ITER)
