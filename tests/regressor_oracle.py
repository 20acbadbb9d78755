"""Regressor by unit-parameter sweeps, the reference for regressor_stack.

Each link's ten unit-parameter wrenches are transported joint by joint to
the base, n(n+1)/2 (link, joint) pairs in all; joint k's torque is the z
moment about origin k-1 in frame k-1.  The package builds the same matrix
by projecting onto the joint axes carried outward (dynamics.regressor_stack);
this slower, independent backward pass is what the tests hold it against.
"""
import numpy as np

from dynid.dynamics import (N_FRICTION, N_INERTIAL, _batch_states, _cross,
                            _forward_batch, _unit_wrenches)
from dynid.kinematics import KinematicChain


def regressor_stack_sweep(chain: KinematicChain, Q, Qd, Qdd,
                          gravity=None) -> np.ndarray:
    """Regressor (M, n, 13n) in the layout of dynamics.regressor_stack."""
    Q, Qd, Qdd = _batch_states(chain, Q, Qd, Qdd)
    M, n = Q.shape

    R, p, om, omd, acc = _forward_batch(chain, Q, Qd, Qdd, gravity)
    Y = np.zeros((M, n, (N_INERTIAL + N_FRICTION) * n))

    for i in range(n):
        B = _unit_wrenches(om[:, i], omd[:, i], acc[:, i])
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
