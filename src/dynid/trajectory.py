"""Periodic excitation trajectories for identification experiments.

Each joint follows a finite Fourier series around a base pose,

    q_j(t) = q0_j + sum_k a_jk sin(k w t) + b_jk cos(k w t),  w = 2 pi / T_f,

which is smooth, periodic, and analytically differentiable, and whose
coefficients can be scaled to respect excursion, velocity, and
acceleration limits.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

HARMONICS_DEFAULT = 5
PERIOD_DEFAULT = 20.0
RATE_DEFAULT = 125.0
LIMIT_MARGIN = 0.9  # random trajectories stay below this share of each limit


@dataclass(frozen=True)
class JointLimits:
    """Per-joint excursion [rad], velocity [rad/s], acceleration [rad/s^2]."""

    excursion: tuple[float, ...]
    velocity: tuple[float, ...]
    acceleration: tuple[float, ...]

    def __post_init__(self):
        for name in ("excursion", "velocity", "acceleration"):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.ndim != 1 or np.any(a <= 0) or not np.all(np.isfinite(a)):
                raise ValueError(f"JointLimits.{name} must be positive and finite")
            object.__setattr__(self, name, tuple(float(x) for x in a))
        if not len(self.excursion) == len(self.velocity) == len(self.acceleration):
            raise ValueError("JointLimits fields must have equal length")


def ur10_limits() -> JointLimits:
    """Conservative working limits for a UR10-class arm."""
    return JointLimits(
        excursion=(1.6, 1.3, 1.6, 2.2, 2.2, 2.2),
        velocity=(2.0, 2.0, 2.6, 3.1, 3.1, 3.1),
        acceleration=(8.0, 8.0, 8.0, 10.0, 10.0, 10.0),
    )


@dataclass(frozen=True)
class FourierTrajectory:
    """Fourier-series joint trajectory around a base pose."""

    q0: tuple[float, ...]
    a: tuple[tuple[float, ...], ...]  # (n, harmonics) sine coefficients
    b: tuple[tuple[float, ...], ...]  # (n, harmonics) cosine coefficients
    period: float = PERIOD_DEFAULT

    def __post_init__(self):
        q0 = np.asarray(self.q0, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if q0.ndim != 1:
            raise ValueError("q0 must be 1-d")
        n = q0.size
        if a.ndim != 2 or b.ndim != 2 or a.shape != b.shape or a.shape[0] != n:
            raise ValueError("a and b must have shape (n, harmonics)")
        if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(a))
                and np.all(np.isfinite(b))):
            raise ValueError("trajectory coefficients must be finite")
        if self.period <= 0:
            raise ValueError("period must be positive")
        object.__setattr__(self, "q0", tuple(map(float, q0)))
        object.__setattr__(self, "a", tuple(map(tuple, a)))
        object.__setattr__(self, "b", tuple(map(tuple, b)))

    @property
    def n(self) -> int:
        return len(self.q0)

    @property
    def harmonics(self) -> int:
        return len(self.a[0])


def evaluate(traj: FourierTrajectory, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities, accelerations at times t; each (len(t), n)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.asarray(traj.a)
    b = np.asarray(traj.b)
    k = np.arange(1, traj.harmonics + 1)
    w = 2.0 * np.pi / traj.period
    ph = np.outer(t, k * w)                      # (M, harmonics)
    s, co = np.sin(ph), np.cos(ph)
    q = np.asarray(traj.q0) + s @ a.T + co @ b.T
    kw = k * w
    qd = (co * kw) @ a.T - (s * kw) @ b.T
    qdd = -(s * kw ** 2) @ a.T - (co * kw ** 2) @ b.T
    return q, qd, qdd


def sample(traj: FourierTrajectory, rate: float = RATE_DEFAULT,
           duration: float | None = None):
    """Uniformly sampled trajectory: (t, q, qd, qdd) at the given rate."""
    duration = traj.period if duration is None else float(duration)
    for name, x in (("rate", rate), ("duration", duration)):
        if not 0 < x < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {x}")
    count = duration * rate
    if not 1.5 <= count < np.inf:  # round(count) >= 2, and finite
        raise ValueError(f"duration {duration:g} s at rate {rate:g} Hz gives "
                         f"{count:.3g} samples; need a finite count >= 2")
    m = round(count)
    t = np.arange(m) / rate
    q, qd, qdd = evaluate(traj, t)
    return t, q, qd, qdd


def check_seed(seed) -> None:
    """Raise ValueError, naming the value, unless seed is an integer >= 0."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def random_trajectory(n: int, seed: int) -> FourierTrajectory:
    """Seeded random trajectory around the zero pose, within joint limits.

    Coefficients of HARMONICS_DEFAULT harmonics over PERIOD_DEFAULT are
    drawn with a 1/k decay, and each joint's row is rescaled so the
    worst-case excursion, velocity, and acceleration stay below
    LIMIT_MARGIN times the limit: ur10_limits for six joints, uniform
    limits otherwise.
    """
    check_seed(seed)
    limits = ur10_limits() if n == 6 else JointLimits(
        excursion=(1.5,) * n, velocity=(2.5,) * n, acceleration=(8.0,) * n)
    harmonics, period = HARMONICS_DEFAULT, PERIOD_DEFAULT
    rng = np.random.default_rng(seed)
    k = np.arange(1, harmonics + 1)
    a = rng.uniform(-1.0, 1.0, (n, harmonics)) / k
    b = rng.uniform(-1.0, 1.0, (n, harmonics)) / k
    w = 2.0 * np.pi / period
    amp = np.abs(a) + np.abs(b)
    worst_q = amp @ np.ones(harmonics)
    worst_qd = amp @ (k * w)
    worst_qdd = amp @ (k * w) ** 2
    scale = LIMIT_MARGIN * np.min(
        np.stack([np.asarray(limits.excursion) / worst_q,
                  np.asarray(limits.velocity) / worst_qd,
                  np.asarray(limits.acceleration) / worst_qdd]), axis=0)
    a *= scale[:, None]
    b *= scale[:, None]
    return FourierTrajectory(q0=tuple(np.zeros(n)), a=tuple(map(tuple, a)),
                             b=tuple(map(tuple, b)), period=period)


_VALIDATION_SEEDS = {"A": 20101, "B": 20202}


def validation_trajectory(name: str) -> FourierTrajectory:
    """Built-in six-joint validation trajectories, from fixed seeds."""
    if name not in _VALIDATION_SEEDS:
        raise ValueError(f"unknown validation trajectory {name!r}; "
                         f"available: {sorted(_VALIDATION_SEEDS)}")
    return random_trajectory(6, seed=_VALIDATION_SEEDS[name])
