"""References for estimation.robust_weights: bisquare IRLS by a fresh
weighted lstsq per iterate, and the weighted fit by split_columns on the
m-row weighted stack.

Every iterate solves the full m x p weighted stack with a minimum-norm
lstsq and forms the residual from that solution.  The package iterates in
an orthonormal basis of the stack's range instead, factorising the stack
once, and takes its weighted coefficients from r rows that carry the m-row
weighted system's least-squares problem; these slower, direct forms are
what the tests hold it against.  They read the package's constants, so
monkeypatching them moves both alike.
"""
import numpy as np

from dynid import estimation
from dynid.estimation import WeightMatrix, _mad_scale
from dynid.reduction import split_columns


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


def split_solve(stack, rhs, w):
    """split_columns of the m-row weighted stack, at weights w: the
    coefficients, zero on dependent columns, and the mask of independent
    ones."""
    sw = np.sqrt(w)
    split = split_columns(stack * sw[:, None])
    coef = np.zeros(stack.shape[1])
    coef[split.ind] = split.solve(rhs * sw)
    return coef, np.isin(np.arange(stack.shape[1]), split.ind)


def wlse(stack, rhs, weights) -> np.ndarray:
    """Weighted least squares of a stack the weights keep full rank, by
    split_solve; unit weights give the ordinary fit."""
    stack, rhs = estimation._linear_system(stack, rhs)
    if not isinstance(weights, WeightMatrix):
        weights = WeightMatrix(weights)
    if weights.w.shape != (stack.shape[0],):
        raise ValueError("one weight per stacked row required")
    coef, independent = split_solve(stack, rhs, weights.w)
    if not independent.all():
        raise estimation._rank_deficient(np.flatnonzero(~independent),
                                         stack.shape[1])
    return coef
