"""reduction.split_columns with one numpy QR of the whole matrix, the
reference for the package's split, which factors a matrix of more than
reduction.QR_BLOCK_ROWS rows a block of rows at a time.

Both take an R of an unpivoted QR of A, so their Rs agree up to row signs
and rounding; everything after the factorisation is the same greedy pass.
It reads the package's RANK_TOL, so monkeypatching it moves both alike.
"""
import numpy as np

from dynid import reduction
from dynid.reduction import ColumnSplit


def split_columns(A: np.ndarray) -> ColumnSplit:
    R = np.linalg.qr(A, mode="r")
    scale = np.linalg.norm(R, axis=0).max(initial=0.0)
    tol = reduction.RANK_TOL * scale
    basis = np.empty((R.shape[0], 0))  # orthonormal, spans the kept columns
    keep = np.zeros(A.shape[1], dtype=bool)
    for k in range(A.shape[1]):
        v = R[:, k] - basis @ (basis.T @ R[:, k])
        v -= basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > tol:
            keep[k] = True
            basis = np.column_stack([basis, v / norm])
    ind, dep = np.flatnonzero(keep), np.flatnonzero(~keep)
    q2, t = np.linalg.qr(R[:, ind])
    G = np.linalg.solve(t, q2.T @ R[:, dep])
    miss = np.linalg.norm(R[:, ind] @ G - R[:, dep], axis=0) > tol
    if miss.any():
        raise np.linalg.LinAlgError(
            f"columns {dep[miss].tolist()} are not rebuilt from the kept ones")
    return ColumnSplit(ind=ind, dep=dep, regroup=G, A=A, t=t)
