"""Payload handling: map a tool described in its own frame onto the last
link as an increment of its inertial parameters.

A payload is given in a payload frame l rigidly attached to the flange
frame n: COM position r_l and the COM-referenced inertia tensor, plus the
mounting transform (R_l_n, t_l_n) of frame l in frame n.  Expressed in
frame n and referenced to the frame-n origin, the payload becomes a plain
10-vector of inertial parameters that adds onto the last link, so payload
torques superpose linearly on the arm model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    N_INERTIAL,
    DynamicParameters,
    InertialParameters,
    check_com_inertia,
    inertia_matrix_to_vector,
    steiner_shift,
)


def orthonormal(R) -> bool:
    """Whether R R^T = I to 1e-9; R is 3 x 3 or its 9 entries by rows."""
    R = np.reshape(R, (3, 3))
    return bool(np.max(np.abs(R @ R.T - np.eye(3))) <= 1e-9)


@dataclass(frozen=True)
class PayloadSpec:
    """Payload described in its own frame l.

    Attributes:
        mass: payload mass [kg].
        com: COM position in frame l [m].
        inertia_com: COM-referenced inertia tensor, frame-l axes [kg m^2].
        R_l_n: rotation of frame-l axes expressed in the flange frame n.
        t_l_n: position of the frame-l origin in frame n [m].
    """

    mass: float
    com: tuple[float, float, float]
    inertia_com: tuple[tuple[float, ...], ...]
    R_l_n: tuple[tuple[float, ...], ...] = ((1.0, 0.0, 0.0),
                                            (0.0, 1.0, 0.0),
                                            (0.0, 0.0, 1.0))
    t_l_n: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.mass < 0 or not np.isfinite(self.mass):
            raise ValueError("payload mass must be nonnegative and finite")
        com = np.asarray(self.com, dtype=float)
        I = np.asarray(self.inertia_com, dtype=float)
        R = np.asarray(self.R_l_n, dtype=float)
        t = np.asarray(self.t_l_n, dtype=float)
        if com.shape != (3,) or t.shape != (3,):
            raise ValueError("com and t_l_n must be 3-vectors")
        if I.shape != (3, 3) or R.shape != (3, 3):
            raise ValueError("inertia_com and R_l_n must be 3x3")
        for name, x in (("com", com), ("inertia_com", I), ("R_l_n", R),
                        ("t_l_n", t)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"payload {name} must be finite")
        check_com_inertia(I, "inertia_com")
        if not orthonormal(R):
            raise ValueError("R_l_n must be orthonormal")
        object.__setattr__(self, "com", tuple(map(float, com)))
        object.__setattr__(self, "inertia_com", tuple(map(tuple, I)))
        object.__setattr__(self, "R_l_n", tuple(map(tuple, R)))
        object.__setattr__(self, "t_l_n", tuple(map(float, t)))


def payload_to_frame_n(spec: PayloadSpec) -> np.ndarray:
    """Payload inertial parameters in the flange frame, referenced to its
    origin: [m, m*r, Ixx, Ixy, Ixz, Iyy, Iyz, Izz] (10,)."""
    R = np.asarray(spec.R_l_n)
    r_n = R @ np.asarray(spec.com) + np.asarray(spec.t_l_n)
    I_com_n = R @ np.asarray(spec.inertia_com) @ R.T
    I_n = I_com_n + steiner_shift(spec.mass, r_n)
    return np.concatenate(([spec.mass], spec.mass * r_n,
                           inertia_matrix_to_vector(I_n)))


def apply_payload(params: DynamicParameters, pi_L: np.ndarray) -> DynamicParameters:
    """Fold payload parameters into the last link; other blocks untouched."""
    pi_L = np.asarray(pi_L, dtype=float)
    if pi_L.shape != (N_INERTIAL,):
        raise ValueError(f"expected payload vector of length {N_INERTIAL}")
    last = params.links[-1].to_vector() + pi_L
    links = params.links[:-1] + (InertialParameters.from_vector(last),)
    return DynamicParameters(links=links, friction=params.friction)
