"""Base-map selection by a slow greedy SVD rank, the reference for
reduction.split_columns and reduction.compute_base_map.

Columns are visited in a given order, and one joins the independent set
when it raises the SVD rank of the set (singular values above tol times
the matrix's largest column norm).  The coefficients of the other columns
come from a least-squares solve against the independent ones.  The package
takes all of this from one unpivoted QR; this form, one SVD per column, is
what the tests hold it against.
"""
import numpy as np

from dynid.dynamics import N_FRICTION, N_INERTIAL, regressor_stack
from dynid.reduction import (ACTIVE_COL_TOL, PROBE_COUNT_DEFAULT, RANK_TOL,
                             BaseParameterMap, probe_states)


def select_columns(A: np.ndarray, order=None, tol: float = RANK_TOL):
    """(independent, dependent, coefficients), both column sets ascending,
    with A[:, dependent] ~ A[:, independent] @ coefficients; the columns
    are visited in `order` (default: left to right)."""
    p = A.shape[1]
    order = range(p) if order is None else order
    cutoff = tol * np.linalg.norm(A, axis=0).max(initial=0.0)
    kept = []
    for k in order:
        if np.linalg.matrix_rank(A[:, kept + [k]], tol=cutoff) > len(kept):
            kept.append(k)
    ind = np.sort(np.asarray(kept, dtype=int))
    dep = np.setdiff1d(np.arange(p), ind)
    coef, _, _, _ = np.linalg.lstsq(A[:, ind], A[:, dep], rcond=None)
    return ind, dep, coef


def _descending(A: np.ndarray, tol: float):
    return select_columns(A, order=range(A.shape[1] - 1, -1, -1), tol=tol)


def compute_base_map(chain, n_probe: int = PROBE_COUNT_DEFAULT, seed: int = 0,
                     tol: float = RANK_TOL) -> BaseParameterMap:
    n = chain.n
    Y = regressor_stack(chain, *probe_states(n, n_probe, seed))
    A = Y.reshape(n_probe * n, -1)[:, :N_INERTIAL * n]
    selected, rest, recomb = _descending(A, tol)
    # structurally absent columns recombine to exactly nothing
    norms = np.linalg.norm(A, axis=0)
    recomb[:, norms[rest] <= tol * norms.max()] = 0.0

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
        ind, dep, G = _descending(b[:, active], tol)
        idcols.append(active[ind])
        depcols.append(active[dep])
        regroups.append(G)
    return BaseParameterMap(
        n=n, inertial_columns=selected, recombination=recomb,
        joint_masks=masks, joint_idcols=tuple(idcols),
        joint_depcols=tuple(depcols), joint_regroup=tuple(regroups))
