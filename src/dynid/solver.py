"""Reconfigurable inverse-dynamics solver backed by an identified model.

The solver evaluates joint torques and the classical equation-of-motion
terms (inertia, Coriolis, friction, gravity) from current-level dynamic
coefficients, sigmoid friction, and drive gains, optionally augmented with
a payload whose torque contribution is kept separate from the identified
coefficients.  Every term is one newton_euler call on the fold of the
model's torque-level parameter sets, one per joint, that the model keeps
(IdentifiedModel.folded_sets): joint j's torque comes from set j alone,
never from the other sets' torques at joint j.  The terms of torque_terms
and the columns of inertia are tuples of motion blocks, with gravity per
block, over one pass of the configurations.  The model and its file
belong to dataio.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import dataio
from .dataio import IdentifiedModel
from .dynamics import friction_sigmoid, newton_euler
from .payload import PayloadSpec, payload_to_frame_n

_NO_GRAVITY = np.zeros(3)

# the model file is dataio's; perfbench/ reads these two names from here
save_identified_model = dataio.save_identified_model
load_identified_model = dataio.load_identified_model


def _require_complete(model: IdentifiedModel):
    """Refuse a model short of stage 'gains', naming its stage: _rigid,
    torque_terms and friction call it, and every evaluation passes through
    them."""
    if model.stage != "gains":
        raise ValueError(
            f"model is only identified through stage '{model.stage}'; "
            "the solver needs friction and gains")


def configure_payload(model: IdentifiedModel,
                      spec: PayloadSpec | None) -> IdentifiedModel:
    """Return a copy of the model with the payload set (or cleared).

    A spec whose dynamic parameters are identically zero clears the payload
    so that torques stay bitwise identical to the unconfigured model.
    """
    if spec is None:
        return replace(model, payload=None)
    pl = payload_to_frame_n(spec)
    if not np.any(pl):
        return replace(model, payload=None)
    return replace(model, payload=pl)


def _rigid(model: IdentifiedModel, q, qd, qdd, gravity=None) -> np.ndarray:
    """Torques of the rigid-body part (no friction): arm plus payload,
    joint j's from torque set j alone.  (M, n), or (n,) for one state q;
    qd and qdd may be tuples of motion blocks, with gravity per block
    (see newton_euler)."""
    _require_complete(model)
    tau = newton_euler(model.chain, q, qd, qdd, model.folded_sets, gravity)
    return tau[..., 0, :] if np.ndim(q) == 1 else tau


def torque(model: IdentifiedModel, q, qd, qdd) -> np.ndarray:
    """Joint torques for one state or a batch of states."""
    qd = np.asarray(qd, dtype=float)
    return _rigid(model, q, qd, np.asarray(qdd, dtype=float)) \
        + friction(model, qd)


def friction(model: IdentifiedModel, qd) -> np.ndarray:
    """Torque-level friction term."""
    _require_complete(model)
    return friction_sigmoid(model.psi, qd) * model.gains


def gravity(model: IdentifiedModel, q) -> np.ndarray:
    """Static torques at zero velocity and acceleration."""
    z = np.zeros(np.shape(q))
    return _rigid(model, q, z, z)


def inertia(model: IdentifiedModel, q) -> np.ndarray:
    """Joint-space inertia matrix at configuration q: n unit-acceleration
    blocks over one pass of q."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("inertia takes a single configuration")
    n = model.n
    # block k accelerates joint k alone, gravity off: column k of M
    return _rigid(model, q, (np.zeros(n),) * n, tuple(np.eye(n)),
                  _NO_GRAVITY).T


def coriolis_times_qd(model: IdentifiedModel, q, qd) -> np.ndarray:
    """Velocity-product torques C(q, qd) qd."""
    qd = np.asarray(qd, dtype=float)
    return _rigid(model, q, qd, np.zeros(qd.shape), _NO_GRAVITY)


def torque_terms(model: IdentifiedModel, q, qd, qdd):
    """Equation-of-motion terms for one state or a batch of states.

    Returns (inertia_term, coriolis_term, friction_term, gravity_term),
    each (M, n), or (n,) for one state; their sum reproduces torque() on
    the same states.  The three rigid terms are three motion blocks over
    one set of configurations, so frames and joint screws are built once.
    """
    if np.ndim(qd) > 2 or np.ndim(qdd) > 2:
        raise ValueError("torque_terms takes states (M, n) or (n,)")
    _require_complete(model)
    z = np.broadcast_to(0.0, np.shape(q))  # no memory of its own
    # gravity alone, then acceleration alone and velocity alone, gravity
    # off: motion blocks given one by one, so that each block of states
    # stacks its own rows of them
    g = np.array([model.chain.gravity_vector, _NO_GRAVITY, _NO_GRAVITY])
    grav, inert, cor = newton_euler(model.chain, q, (z, z, qd), (z, qdd, z),
                                    model.folded_sets, g)
    terms = inert, cor, friction(model, np.atleast_2d(qd)), grav
    return tuple(t[0] for t in terms) if np.ndim(q) == 1 else terms
