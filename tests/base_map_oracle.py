"""Base-map selection by three factorisations, the reference for
reduction.split_columns and reduction.compute_base_map.

The rank comes from the singular values (threshold tol * sigma_max), the
independent columns are the first rank-many pivots of a column-pivoted QR,
re-sorted ascending, and the coefficients of the other columns come from a
least-squares solve against them.  The package takes all three from one
pivoted QR; this slower form is what the tests hold it against.
"""
import numpy as np
import scipy.linalg

from dynid.dynamics import N_FRICTION, N_INERTIAL, regressor_stack
from dynid.reduction import (ACTIVE_COL_TOL, PROBE_COUNT_DEFAULT, RANK_TOL,
                             BaseParameterMap, probe_states)


def select_columns(A: np.ndarray, tol: float = RANK_TOL):
    """(independent, dependent, coefficients) with
    A[:, dependent] ~ A[:, independent] @ coefficients, plus sigma_max."""
    sing = scipy.linalg.svdvals(A)
    rank = int(np.sum(sing > tol * sing[0]))
    _, _, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
    ind = np.sort(piv[:rank])
    dep = np.setdiff1d(np.arange(A.shape[1]), ind)
    coef, _, _, _ = np.linalg.lstsq(A[:, ind], A[:, dep], rcond=None)
    return ind, dep, coef, sing[0]


def compute_base_map(chain, n_probe: int = PROBE_COUNT_DEFAULT, seed: int = 0,
                     tol: float = RANK_TOL) -> BaseParameterMap:
    n = chain.n
    Y = regressor_stack(chain, *probe_states(n, n_probe, seed))
    A = Y.reshape(n_probe * n, -1)[:, :N_INERTIAL * n]
    selected, rest, recomb, sigma = select_columns(A, tol)
    # structurally absent columns recombine to exactly nothing
    recomb[:, np.linalg.norm(A[:, rest], axis=0) <= tol * sigma] = 0.0

    rank = selected.size
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
        ind, dep, G, _ = select_columns(b[:, active], tol)
        idcols.append(active[ind])
        depcols.append(active[dep])
        regroups.append(G)
    return BaseParameterMap(
        n=n, inertial_columns=selected, recombination=recomb,
        joint_masks=masks, joint_idcols=tuple(idcols),
        joint_depcols=tuple(depcols), joint_regroup=tuple(regroups),
        seed=seed, n_probe=n_probe, tolerance=tol)
