"""Regressor by unit-parameter sweeps, the reference for regressor_stack.

Each link's ten unit-parameter wrenches are transported joint by joint to
the base, n(n+1)/2 (link, joint) pairs in all; joint k's torque is the z
moment about origin k-1 in frame k-1.  The package builds the same matrix
by projecting onto the joint axes carried outward (dynamics.regressor_stack);
this slower, independent backward pass is what the tests hold it against.
The unit wrenches here come from skew matrices and the symmetric inertia
basis, not from the package's constant wrench basis, so they are also the
reference for dynamics._unit_wrenches.
"""
import numpy as np

from dynid.dynamics import (N_FRICTION, N_INERTIAL, _I_PAIRS, _batch_states,
                            _cross, _forward_batch)
from dynid.kinematics import KinematicChain


def _sym_basis() -> np.ndarray:
    E = np.zeros((6, 3, 3))
    for s, (a, b) in enumerate(_I_PAIRS):
        E[s, a, b] = 1.0
        E[s, b, a] = 1.0
    return E


_E_SYM = _sym_basis()


def _skew_batch(V: np.ndarray) -> np.ndarray:
    """Skew matrices for V of shape (..., 3) -> (..., 3, 3)."""
    out = np.zeros(V.shape + (3,))
    out[..., 0, 1] = -V[..., 2]
    out[..., 0, 2] = V[..., 1]
    out[..., 1, 0] = V[..., 2]
    out[..., 1, 2] = -V[..., 0]
    out[..., 2, 0] = -V[..., 1]
    out[..., 2, 1] = V[..., 0]
    return out


def unit_wrenches(om, omd, acc):
    """Wrenches of a link's ten unit inertial parameters about its origin,
    in its own frame, (M, 10, 6): force in [..., :3], moment in [..., 3:]."""
    B = np.zeros((om.shape[0], N_INERTIAL, 6))
    B[:, 0, :3] = acc
    W = _skew_batch(omd) + _skew_batch(om) @ _skew_batch(om)
    B[:, 1:4, :3] = np.swapaxes(W, 1, 2)
    B[:, 1:4, 3:] = -np.swapaxes(_skew_batch(acc), 1, 2)
    Ew = np.einsum("sab,mb->msa", _E_SYM, om)
    Ewd = np.einsum("sab,mb->msa", _E_SYM, omd)
    B[:, 4:10, 3:] = Ewd + np.cross(om[:, None, :], Ew)
    return B


def regressor_stack_sweep(chain: KinematicChain, Q, Qd, Qdd) -> np.ndarray:
    """Regressor (M, n, 13n) in the layout of dynamics.regressor_stack."""
    Q, Qd, Qdd = _batch_states(chain, Q, Qd, Qdd)
    M, n = Q.shape

    R, p, om, omd, acc = _forward_batch(chain, Q, Qd, Qdd)
    Y = np.zeros((M, n, (N_INERTIAL + N_FRICTION) * n))

    for i in range(n):
        B = unit_wrenches(om[:, i], omd[:, i], acc[:, i])
        f, nm = B[:, :, :3], B[:, :, 3:]
        col = N_INERTIAL * i
        for k in range(i, -1, -1):
            Rf = np.einsum("mab,mpb->mpa", R[:, k], f)
            Rn = np.einsum("mab,mpb->mpa", R[:, k], nm) \
                + _cross(p[:, k, None, :], Rf)
            Y[:, k, col:col + N_INERTIAL] = Rn[:, :, 2]
            f, nm = Rf, Rn

    base = N_INERTIAL * n
    rows = np.arange(M)
    for j in range(n):
        Y[rows, j, base + 3 * j] = 1.0
        Y[:, j, base + 3 * j + 1] = Qd[:, j]
        Y[:, j, base + 3 * j + 2] = np.sign(Qd[:, j])
    return Y
