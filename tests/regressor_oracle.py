"""Regressor by unit-parameter sweeps, the reference for regressor_stack.

Each link's ten unit-parameter wrenches are transported joint by joint to
the base, n(n+1)/2 (link, joint) pairs in all; joint k's torque is the z
moment about origin k-1 in frame k-1.  The package builds the same matrix
by projecting onto the joint axes carried outward (dynamics.regressor_stack);
this slower, independent backward pass is what the tests hold it against.
Its forward recursion is its own too: explicit cross products with each
origin's offset R_i^T p_i formed per state, where the package uses the
chain's constant maps.  The unit wrenches here come from skew matrices and
the symmetric inertia basis, not from the package's constant wrench basis,
so they are also the reference for the package's basis product.
newton_euler_unfolded is the evaluator from before the parameter sets were
folded into the wrench basis: it builds every link's unit wrenches, then
sums them per set, every set's torque at every joint; joint j's torque of
set j, or of a lone set, is the reference for dynamics.newton_euler.
"""
import numpy as np

from dynid.dynamics import (N_FRICTION, N_INERTIAL, _I_PAIRS, _WRENCH_BASIS,
                            _link_maps, _link_screws, _motion_blocks)
from dynid.kinematics import KinematicChain, local_frames

_EZ = np.array([0.0, 0.0, 1.0])


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


def _to_link(R, x):
    """R^T x for each state: x (M, 3) in the parent frame, in frame i."""
    return (x[:, None, :] @ R)[:, 0]


def forward_recursion(chain: KinematicChain, R, p, Qd, Qdd):
    """Yield (om, omd, acc), each (M, 3), for links i = 0..n-1 in their own
    frames: angular velocity and acceleration and the origin's linear
    acceleration with gravity folded in, from frames R (M, n, 3, 3) and
    offsets p (M, n, 3), by explicit cross products."""
    M, n = Qd.shape
    om, omd = np.zeros((M, 3)), np.zeros((M, 3))
    acc = np.broadcast_to(-chain.gravity_vector, (M, 3))
    for i in range(n):
        qd, qdd, Ri = Qd[:, i, None], Qdd[:, i, None], R[:, i]
        omd = _to_link(Ri, omd + qdd * _EZ + qd * np.cross(om, _EZ))
        om = _to_link(Ri, om + qd * _EZ)
        r = _to_link(Ri, p[:, i])
        acc = _to_link(Ri, acc) + np.cross(omd, r) \
            + np.cross(om, np.cross(om, r))
        yield om, omd, acc


def regressor_stack_sweep(chain: KinematicChain, Q, Qd, Qdd) -> np.ndarray:
    """Regressor (M, n, 13n) in the layout of dynamics.regressor_stack."""
    Q, (Qd,), (Qdd,) = _motion_blocks(chain, Q, (Qd,), (Qdd,))
    M, n = Q.shape

    # frames and origin offsets per state, from the scalar local_frames
    R, p = (np.stack(x) for x in zip(*(local_frames(chain, q) for q in Q)))
    Y = np.zeros((M, n, (N_INERTIAL + N_FRICTION) * n))

    for i, (om, omd, acc) in enumerate(forward_recursion(chain, R, p, Qd,
                                                         Qdd)):
        B = unit_wrenches(om, omd, acc)
        f, nm = B[:, :, :3], B[:, :, 3:]
        col = N_INERTIAL * i
        for k in range(i, -1, -1):
            Rf = np.einsum("mab,mpb->mpa", R[:, k], f)
            Rn = np.einsum("mab,mpb->mpa", R[:, k], nm) \
                + np.cross(p[:, k, None, :], Rf)
            Y[:, k, col:col + N_INERTIAL] = Rn[:, :, 2]
            f, nm = Rf, Rn

    base = N_INERTIAL * n
    rows = np.arange(M)
    for j in range(n):
        Y[rows, j, base + 3 * j] = 1.0
        Y[:, j, base + 3 * j + 1] = Qd[:, j]
        Y[:, j, base + 3 * j + 2] = np.sign(Qd[:, j])
    return Y


def newton_euler_unfolded(chain: KinematicChain, Q, Qd, Qdd, Pi,
                          gravity=None) -> np.ndarray:
    """Torques of every set at every joint, (M, n, S), or (nb, M, n, S)
    for tuples of nb motion blocks, from each link's unit wrenches
    (M, nb, 10, 6) summed per set, Pi_i^T @ B; the arguments are
    newton_euler's, with Pi unfolded."""
    blocks = isinstance(Qd, tuple)
    Q, Qd, Qdd = _motion_blocks(chain, Q, Qd, Qdd)
    Pi = np.asarray(Pi, dtype=float)
    M, n = Q.shape
    g = chain.gravity_vector if gravity is None else np.asarray(gravity)
    Qd, Qdd = (np.stack(x, axis=1) for x in (Qd, Qdd))
    nb, ns = Qd.shape[1], Pi.shape[1]
    tau = np.zeros((M, n, nb * ns))
    for i, Si, W in _link_screws(chain, Q, Qd, Qdd, g,
                                 _link_maps(chain, _WRENCH_BASIS)):
        unit = W.reshape(M, nb, N_INERTIAL, 6)
        w = Pi[N_INERTIAL * i:N_INERTIAL * (i + 1)].T @ unit
        tau[:, :i + 1] += Si @ w.reshape(M, nb * ns, 6).swapaxes(1, 2)
    tau = tau.reshape(M, n, nb, ns).transpose(2, 0, 1, 3)
    return tau if blocks else tau[0]
