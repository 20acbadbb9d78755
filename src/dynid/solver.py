"""Reconfigurable inverse-dynamics solver backed by an identified model.

The solver evaluates joint torques and the classical equation-of-motion
terms (inertia, Coriolis, friction, gravity) from current-level dynamic
coefficients, sigmoid friction, and drive gains, optionally augmented with
a payload whose torque contribution is kept separate from the identified
coefficients.  Every term is one batched Newton-Euler pass over the
model's torque-level parameter sets, one per joint, on newton_euler's
contract: joint j's torque from set j alone, never the other sets'
torques at joint j.  The terms of torque_terms and the columns of inertia
are motion blocks over one pass of the configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .dynamics import (N_INERTIAL, FrictionSet, _batch_states,
                       _folded_basis, _folded_torques, friction_sigmoid)
from .kinematics import KinematicChain
from .payload import PayloadSpec, payload_to_frame_n
from .reduction import BaseParameterMap, compute_base_map
from .dataio import (_NONNEGATIVE, _POSITIVE, QD_THRESHOLD_DEFAULT,
                     SchemaError, _check_gains, _check_qd_threshold, _fmt,
                     _new_parser, _read_chain, _read_friction, _read_ini,
                     _vec, _vecstr, _write_chain, _write_friction)

_NO_GRAVITY = np.zeros(3)


@dataclass(frozen=True)
class IdentifiedModel:
    """Identification output, one stage at a time: chi (stage 'linear'),
    then psi ('friction'), then gains ('gains'), which need psi; the
    solver evaluates only a model at stage 'gains'.

    chi holds the per-joint current-level coefficient blocks (n, c); psi
    the current-level sigmoid friction; gains the per-joint drive gains.
    payload, when set, is the 10-vector of payload dynamic parameters
    expressed in the last link frame; its torque contribution is added on
    top of the identified arm model rather than folded into the
    coefficients.  The torque-level sets and their fold into one
    matrix per link, holding only the sets of the joints the link
    reaches, are derived once per model and read-only, so a solver call
    does only per-state work; a copy (configure_payload) derives its own.
    """

    name: str
    chain: KinematicChain
    map: BaseParameterMap
    chi: np.ndarray
    psi: FrictionSet | None = None
    gains: np.ndarray | None = None
    payload: np.ndarray | None = None
    qd_threshold: float = QD_THRESHOLD_DEFAULT

    def __post_init__(self):
        chi = np.asarray(self.chi, dtype=float)
        n, c = self.map.n, self.map.c
        if self.chain.n != n:
            raise ValueError(f"chain has {self.chain.n} joints, map {n}")
        if chi.shape != (n, c):
            raise ValueError(f"chi must be ({n}, {c})")
        if not np.all(np.isfinite(chi)):
            raise ValueError("chi must be finite")
        object.__setattr__(self, "chi", chi)
        _check_qd_threshold(self.qd_threshold)
        if self.psi is not None and self.psi.n != n:
            raise ValueError(f"friction must cover {n} joints")
        if self.gains is not None:
            if self.psi is None:
                raise ValueError("gains need friction: psi must be set "
                                 "when gains are")
            object.__setattr__(self, "gains", _check_gains(self.gains, n))
        if self.payload is not None:
            pl = np.asarray(self.payload, dtype=float)
            if pl.shape != (N_INERTIAL,) or not np.all(np.isfinite(pl)):
                raise ValueError("payload must be a finite 10-vector")
            object.__setattr__(self, "payload", pl)

    @property
    def n(self) -> int:
        return self.map.n

    @property
    def stage(self) -> str:
        if self.gains is not None:
            return "gains"
        return "friction" if self.psi is not None else "linear"

    @cached_property
    def torque_sets(self) -> np.ndarray:
        """(10n, n) torque-level parameter sets, derived once per model:
        joint j's torque comes from column j, K_j*chi_j placed by the base
        map, plus the payload on the last link."""
        Pi = self.map.joint_sets(self.chi * self.gains[:, None])
        if self.payload is not None:
            Pi[-N_INERTIAL:] += self.payload[:, None]
        Pi.flags.writeable = False  # shared by every call on this model
        return Pi

    @cached_property
    def folded_sets(self) -> tuple[np.ndarray, ...]:
        """torque_sets folded with the chain's origin maps, one read-only
        matrix per link (dynamics._folded_basis): link i feeds joints 0..i
        only, so its matrix holds sets 0..i, (12, 3 + 6(i+1))."""
        B = _folded_basis(self.chain, self.torque_sets)
        for b in B:
            b.flags.writeable = False
        return B


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
    qd, qdd and gravity may add leading block axes (see newton_euler)."""
    _require_complete(model)
    Q, Qd, Qdd = _batch_states(model.chain, q, qd, qdd)
    tau = _folded_torques(model.chain, Q, Qd, Qdd, model.folded_sets,
                          gravity)
    return tau[..., 0, :] if np.ndim(q) == 1 else tau


def torque(model: IdentifiedModel, q, qd, qdd) -> np.ndarray:
    """Joint torques for one state or a batch of states."""
    return _rigid(model, q, qd, qdd) + friction(model, qd)


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
    return _rigid(model, q, np.zeros(n), np.eye(n)[:, None], _NO_GRAVITY).T


def coriolis_times_qd(model: IdentifiedModel, q, qd) -> np.ndarray:
    """Velocity-product torques C(q, qd) qd."""
    return _rigid(model, q, qd, np.zeros(np.shape(qd)), _NO_GRAVITY)


def torque_terms(model: IdentifiedModel, q, qd, qdd):
    """Equation-of-motion terms for one state or a batch of states.

    Returns (inertia_term, coriolis_term, friction_term, gravity_term),
    each (M, n), or (n,) for one state; their sum reproduces torque() on
    the same states.  The three rigid terms are three motion blocks over
    one set of configurations, so frames and joint screws are built once.
    """
    Q, Qd, Qdd = _batch_states(model.chain, q, qd, qdd)
    if Qd.ndim != 2 or Qdd.ndim != 2:
        raise ValueError("torque_terms takes states (M, n) or (n,)")
    _require_complete(model)
    z = np.broadcast_to(0.0, Q.shape)  # no memory of its own
    # gravity alone, then acceleration alone and velocity alone, gravity
    # off: motion blocks given one by one, so that each block of states
    # stacks its own rows of them
    g = np.array([model.chain.gravity_vector, _NO_GRAVITY, _NO_GRAVITY])
    grav, inert, cor = _folded_torques(model.chain, Q, (z, z, Qd),
                                       (z, Qdd, z), model.folded_sets,
                                       g[:, None])
    terms = inert, cor, friction(model, Qd), grav
    return tuple(t[0] for t in terms) if np.ndim(q) == 1 else terms


# ---------------------------------------------------------------------------
# persistence: one INI file holding what identification estimated

def save_identified_model(model: IdentifiedModel, path) -> None:
    """Write the model to one INI file: the chain, chi, and the stages
    identified so far.  The base map is not stored; loading rebuilds it."""
    cfg = _new_parser()
    cfg["meta"] = {
        "name": model.name,
        "kind": "identified",
        "qd_threshold_rad_s": _fmt(model.qd_threshold),
    }
    _write_chain(cfg, model.chain)
    for j in range(model.n):
        cfg[f"coefficients.joint_{j+1}"] = {"chi": _vecstr(model.chi[j])}
    if model.psi is not None:
        _write_friction(cfg, model.psi, level="current")
    if model.gains is not None:
        cfg["gains"] = {"K_NmA": _vecstr(model.gains)}
    if model.payload is not None:
        cfg["payload_parameters"] = {"pi_L": _vecstr(model.payload)}
    with open(path, "w") as fh:
        cfg.write(fh)


def load_identified_model(path) -> IdentifiedModel:
    """Read a model file; the base map is rebuilt from its chain."""
    cfg = _read_ini(path)
    if cfg.get("meta", "kind", fallback="") != "identified":
        raise SchemaError(f"{path}: not an identified-model file")
    if "base_map" in cfg:
        # such a file stores chi in the columns its own map chose, which
        # need not be the ones the chain gives now
        raise SchemaError(f"{path}: has a [base_map] section, so chi may "
                          "sit in other base columns than the chain's; "
                          "run `identify linear` again")
    chain = _read_chain(cfg, path)
    n = chain.n
    map_ = compute_base_map(chain)
    chi = np.vstack([
        _vec(cfg, f"coefficients.joint_{j+1}", "chi", map_.c, path)
        for j in range(n)])
    psi = None
    if "friction.joint_1" in cfg:
        psi, level = _read_friction(cfg, n, path)
        if level != "current":
            raise SchemaError(f"{path}: identified friction must be "
                              "current-level")
    gains = None
    if "gains" in cfg:
        if psi is None:
            raise SchemaError(f"{path}: has [gains] but no friction "
                              "sections; drive gains need friction: run "
                              "`identify friction`, then `identify gains`")
        gains = _vec(cfg, "gains", "K_NmA", n, path, _POSITIVE)
    payload = None
    if "payload_parameters" in cfg:
        payload = _vec(cfg, "payload_parameters", "pi_L", N_INERTIAL, path)
    qd_threshold = QD_THRESHOLD_DEFAULT
    if cfg.has_option("meta", "qd_threshold_rad_s"):
        qd_threshold = float(_vec(cfg, "meta", "qd_threshold_rad_s", 1, path,
                                  _NONNEGATIVE)[0])
    return IdentifiedModel(
        name=cfg.get("meta", "name", fallback="unnamed"),
        chain=chain, map=map_, chi=chi, psi=psi, gains=gains,
        payload=payload, qd_threshold=qd_threshold)
