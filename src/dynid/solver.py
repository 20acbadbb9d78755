"""Reconfigurable inverse-dynamics solver backed by an identified model.

The solver evaluates joint torques and the classical equation-of-motion
terms (inertia, Coriolis, friction, gravity) from current-level dynamic
coefficients, sigmoid friction, and drive gains, optionally augmented with
a payload whose torque contribution is kept separate from the identified
coefficients.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import FrictionSet, friction_sigmoid
from .kinematics import KinematicChain
from .payload import PayloadSpec, payload_to_frame_n
from .reduction import BaseParameterMap, load_map, minimal_columns, save_map
from .dataio import (QD_THRESHOLD_DEFAULT, SchemaError, _fmt, _new_parser,
                     _read_chain, _read_friction, _vec, _vecstr, _write_chain,
                     _write_friction)
from .dynamics import N_INERTIAL, regressor_stack

STAGES = ("linear", "friction", "gains")


@dataclass(frozen=True)
class IdentifiedModel:
    """Identification output, complete after all three stages.

    chi holds the per-joint current-level coefficient blocks (n x c);
    psi the current-level sigmoid friction; gains the per-joint drive
    gains.  payload, when set, is the 10-vector of payload dynamic
    parameters expressed in the last link frame; its torque contribution
    is added on top of the identified arm model rather than folded into
    the coefficients.
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
        if chi.shape == (n * c,):
            chi = chi.reshape(n, c)
        if chi.shape != (n, c):
            raise ValueError(f"chi must be ({n}, {c}) or flat")
        object.__setattr__(self, "chi", chi)
        if self.psi is not None and self.psi.n != n:
            raise ValueError(f"friction must cover {n} joints")
        if self.gains is not None:
            g = np.asarray(self.gains, dtype=float)
            if g.shape != (n,) or np.any(g <= 0) or not np.all(np.isfinite(g)):
                raise ValueError("gains must be positive and finite")
            object.__setattr__(self, "gains", g)
        if self.payload is not None:
            pl = np.asarray(self.payload, dtype=float)
            if pl.shape != (N_INERTIAL,):
                raise ValueError("payload must be a 10-vector")
            object.__setattr__(self, "payload", pl)

    @property
    def n(self) -> int:
        return self.map.n

    @property
    def stage(self) -> str:
        if self.gains is not None:
            return "gains"
        return "friction" if self.psi is not None else "linear"

    @property
    def is_complete(self) -> bool:
        return self.psi is not None and self.gains is not None


def _require_complete(model: IdentifiedModel):
    if not model.is_complete:
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


def _states(q, qd, qdd):
    single = np.asarray(q).ndim == 1
    q = np.atleast_2d(np.asarray(q, dtype=float))
    qd = np.atleast_2d(np.asarray(qd, dtype=float))
    qdd = np.atleast_2d(np.asarray(qdd, dtype=float))
    return single, q, qd, qdd


def _torque_rigid(model: IdentifiedModel, q, qd, qdd) -> np.ndarray:
    """Torques from the rigid-body part (no friction): arm plus payload."""
    n = model.n
    c_in = model.map.c_inertial
    Y = regressor_stack(model.chain, q, qd, qdd)
    U = minimal_columns(model.map, Y)
    v = np.einsum("mjc,jc->mj", U[:, :, :c_in], model.chi[:, :c_in])
    tau = v * model.gains
    if model.payload is not None:
        tau = tau + Y[:, :, N_INERTIAL * (n - 1):N_INERTIAL * n] @ model.payload
    return tau


def torque(model: IdentifiedModel, q, qd, qdd) -> np.ndarray:
    """Joint torques for one state or a batch of states."""
    _require_complete(model)
    single, q, qd, qdd = _states(q, qd, qdd)
    tau = _torque_rigid(model, q, qd, qdd)
    tau = tau + friction(model, qd)
    return tau[0] if single else tau


def friction(model: IdentifiedModel, qd) -> np.ndarray:
    """Torque-level friction term."""
    _require_complete(model)
    qd = np.asarray(qd, dtype=float)
    return friction_sigmoid(model.psi, qd) * model.gains


def gravity(model: IdentifiedModel, q) -> np.ndarray:
    """Static torques at zero velocity and acceleration."""
    _require_complete(model)
    single = np.asarray(q).ndim == 1
    q = np.atleast_2d(np.asarray(q, dtype=float))
    z = np.zeros_like(q)
    g = _torque_rigid(model, q, z, z)
    return g[0] if single else g


def inertia(model: IdentifiedModel, q) -> np.ndarray:
    """Joint-space inertia matrix at configuration q."""
    _require_complete(model)
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("inertia takes a single configuration")
    n = model.n
    Q = np.tile(q, (n + 1, 1))
    Qd = np.zeros((n + 1, n))
    Qdd = np.zeros((n + 1, n))
    Qdd[:n] = np.eye(n)
    tau = _torque_rigid(model, Q, Qd, Qdd)
    return (tau[:n] - tau[n]).T


def coriolis_times_qd(model: IdentifiedModel, q, qd) -> np.ndarray:
    """Velocity-product torques C(q, qd) qd."""
    _require_complete(model)
    single, q, qd, _ = _states(q, qd, np.zeros_like(q))
    z = np.zeros_like(q)
    tau = _torque_rigid(model, q, qd, z) - _torque_rigid(model, q, z, z)
    return tau[0] if single else tau


def torque_terms(model: IdentifiedModel, q, qd, qdd):
    """Batched equation-of-motion terms.

    Returns (inertia_term, coriolis_term, friction_term, gravity_term),
    each (M, n); their sum reproduces torque() on the same states.
    """
    _require_complete(model)
    _, q, qd, qdd = _states(q, qd, qdd)
    z = np.zeros_like(q)
    grav = _torque_rigid(model, q, z, z)
    inert = _torque_rigid(model, q, z, qdd) - grav
    cor = _torque_rigid(model, q, qd, z) - grav
    fric = friction_sigmoid(model.psi, qd) * model.gains
    return inert, cor, fric, grav


# ---------------------------------------------------------------------------
# persistence: identified-model file plus a binary base-map beside it

def map_path_for(path) -> str:
    base, _ = os.path.splitext(str(path))
    return base + ".map.npz"


def save_identified_model(model: IdentifiedModel, path,
                          provenance: str = "identified") -> None:
    """Write the model file and its base map (same basename, .map.npz)."""
    mp = map_path_for(path)
    save_map(model.map, mp)
    cfg = _new_parser()
    cfg["meta"] = {
        "name": model.name,
        "kind": "identified",
        "stage": model.stage,
        "provenance": provenance,
        "qd_threshold_rad_s": _fmt(model.qd_threshold),
        "base_map": os.path.basename(mp),
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
    cfg = _new_parser()
    if not cfg.read(path):
        raise SchemaError(f"{path}: cannot read file")
    if cfg.get("meta", "kind", fallback="") != "identified":
        raise SchemaError(f"{path}: not an identified-model file")
    chain = _read_chain(cfg, path)
    n = chain.n
    mp = os.path.join(os.path.dirname(os.path.abspath(str(path))),
                      cfg.get("meta", "base_map", fallback=""))
    if not os.path.exists(mp):
        raise SchemaError(f"{path}: base map {mp} not found")
    map_ = load_map(mp)
    if map_.n != n:
        raise SchemaError(f"{path}: base map joint count mismatch")
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
        gains = _vec(cfg, "gains", "K_NmA", n, path)
    payload = None
    if "payload_parameters" in cfg:
        payload = _vec(cfg, "payload_parameters", "pi_L", N_INERTIAL, path)
    return IdentifiedModel(
        name=cfg.get("meta", "name", fallback="unnamed"),
        chain=chain, map=map_, chi=chi, psi=psi, gains=gains,
        payload=payload,
        qd_threshold=float(cfg.get("meta", "qd_threshold_rad_s",
                                   fallback=QD_THRESHOLD_DEFAULT)))
