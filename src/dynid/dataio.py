"""Data exchange and the synthetic plant.

Owns every on-disk format (sample CSV, result tables, robot-model,
payload and identified-model files), the classes they hold and the
checks those share; each number is written with "%.17g" to read back.
A sample file is parsed by one numpy call with no Python object per
field, and row by row only when numpy refuses it.
Also the one differentiator that derives accelerations from velocities (a
cubic Savitzky-Golay first derivative), and a simulator that produces
current-level sample sets from a plant model so every identification
stage can be checked against known ground truth.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import (N_INERTIAL, FrictionSet, InertialParameters,
                       check_com_inertia, fold_sets, friction_sigmoid,
                       inertia_matrix_to_vector, inertia_vector_to_matrix,
                       newton_euler, steiner_shift)
from .kinematics import DhRow, KinematicChain
from .payload import PayloadSpec, check_rotation, payload_to_frame_n
from .reduction import BaseParameterMap, compute_base_map
from .trajectory import (FourierTrajectory, RATE_DEFAULT, check_seed,
                         sample as sample_trajectory)

QD_THRESHOLD_DEFAULT = 0.17  # rad/s; boundary of the low-velocity friction region
TIME_TOL = 1e-9
# derivative half-window [s]: the widest, in 10 ms steps, whose gain error
# at the band edge, HARMONICS_DEFAULT / PERIOD_DEFAULT = 0.25 Hz, stays
# below 1e-4 at rates of 25 Hz to 8 kHz.  At 125 Hz (73 samples) the error
# is 8.7e-5 at 0.25 Hz, 1.4e-3 at 0.5 Hz and 2.0e-2 at 1 Hz.
DIFF_HALF_WIDTH_S = 0.29


class SchemaError(ValueError):
    """A file does not conform to its documented schema."""


def _check_qd_threshold(value: float) -> None:
    """The linearity-region boundary of samples and models alike."""
    if not (np.isfinite(value) and value >= 0):
        raise SchemaError(f"qd_threshold must be finite and nonnegative, "
                          f"got {value}")


def _check_gains(gains, n: int) -> np.ndarray:
    """Drive gains of plants and models alike: n positive finite values."""
    g = np.asarray(gains, dtype=float)
    if g.shape != (n,) or np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise ValueError("gains must be positive and finite per joint")
    return g


@dataclass(frozen=True)
class SampleSet:
    """Uniformly sampled joint-space data with motor currents.

    Attributes:
        t: (M,) timestamps [s], uniformly spaced.
        q, qd, qdd: (M, n) positions, velocities, accelerations.
        v: (M, n) motor currents [A].
        scenario: 'a' (arm only) or 'b' (payload attached).
        qd_threshold: linearity-region boundary [rad/s].
    """

    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    qdd: np.ndarray
    v: np.ndarray
    scenario: str = "a"
    qd_threshold: float = QD_THRESHOLD_DEFAULT

    def __post_init__(self):
        # read-only copies: identification keeps regressor columns built
        # from these arrays, so no caller may change them afterwards
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("t", "q", "qd", "qdd", "v")}
        t = arrays.pop("t")
        if t.ndim != 1 or t.size < 2:
            raise SchemaError("need at least two samples")
        n = arrays["q"].shape[1] if arrays["q"].ndim == 2 else 0
        for name, a in arrays.items():
            if a.ndim != 2 or a.shape != (t.size, n):
                raise SchemaError(f"{name} must have shape ({t.size}, {n})")
            if not np.all(np.isfinite(a)):
                bad = np.argwhere(~np.isfinite(a))[0]
                raise SchemaError(
                    f"non-finite value in {name} at row {bad[0]}, column {bad[1]}")
        d = np.diff(t)
        if np.any(d <= 0):
            raise SchemaError("timestamps must be strictly increasing")
        if np.max(np.abs(d - d[0])) > TIME_TOL:
            raise SchemaError("timestamps must be uniformly spaced")
        if self.scenario not in ("a", "b"):
            raise SchemaError(f"scenario must be 'a' or 'b', got {self.scenario!r}")
        _check_qd_threshold(self.qd_threshold)
        for name, a in dict(arrays, t=t).items():
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.q.shape[1]

    @property
    def period(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def mask(self) -> np.ndarray:
        """(M, n) bool; True where |qd| exceeds the linearity threshold."""
        return np.abs(self.qd) > self.qd_threshold


def merge_sample_sets(sets) -> SampleSet:
    """Concatenate runs into one set for identification.

    A single excitation trajectory can leave some parameter directions
    nearly unexcited, and measurement noise blows up along them; merging
    independently generated runs fills those gaps.  Timestamps are
    regenerated as one uniform grid (identification never uses them), and
    accelerations are kept from each run so no seam artifacts appear.
    """
    sets = list(sets)
    if not sets:
        raise ValueError("need at least one sample set")
    first = sets[0]
    for s in sets[1:]:
        if s.n != first.n:
            raise SchemaError("sample sets disagree on joint count")
        if s.scenario != first.scenario:
            raise SchemaError("sample sets disagree on scenario tag")
        if abs(s.period - first.period) > TIME_TOL:
            raise SchemaError("sample sets disagree on sample period")
        if s.qd_threshold != first.qd_threshold:
            raise SchemaError("sample sets disagree on velocity threshold")
    if len(sets) == 1:
        return first
    m = sum(s.m for s in sets)
    return SampleSet(
        t=np.arange(m) * first.period,
        q=np.vstack([s.q for s in sets]),
        qd=np.vstack([s.qd for s in sets]),
        qdd=np.vstack([s.qdd for s in sets]),
        v=np.vstack([s.v for s in sets]),
        scenario=first.scenario,
        qd_threshold=first.qd_threshold,
    )


def differentiate(values: np.ndarray, period: float) -> np.ndarray:
    """Cubic Savitzky-Golay first derivative along axis 0 (Savitzky &
    Golay, Anal. Chem. 36(8), 1964).

    Row i takes the slope of the cubic fitted to rows i - h ... i + h,
    h = DIFF_HALF_WIDTH_S / period rounded; rows within h of an end take
    it from the first or last full window, so cubics are exact at every
    row.  A run shorter than one window is one fit of order min(3, m - 1).
    """
    values = np.asarray(values, dtype=float)
    if period <= 0:
        raise ValueError("period must be positive")
    m = values.shape[0]
    if m < 2:
        raise ValueError("need at least two samples")
    h = max(1, round(DIFF_HALF_WIDTH_S / period))
    size = min(2 * h + 1, m)
    # W @ y: the slope at each row of the least-squares polynomial fit
    u = np.linspace(-1.0, 1.0, size)  # the window's rows scaled onto [-1, 1]
    p = np.arange(min(3, size - 1) + 1)
    W = (p[1:] * u[:, None] ** p[:-1]) @ np.linalg.pinv(u[:, None] ** p)[1:]
    W /= (size - 1) / 2 * period
    y = values.reshape(m, -1)
    if size == m:
        return (W @ y).reshape(values.shape)
    out = np.empty(y.shape)
    out[:h] = W[:h] @ y[:size]
    out[m - h:] = W[h + 1:] @ y[m - size:]
    kernel = W[h, ::-1]  # np.convolve flips its second argument
    for j, column in enumerate(y.T):
        out[h:m - h, j] = np.convolve(column, kernel, "valid")
    return out.reshape(values.shape)


# ---------------------------------------------------------------------------
# sample CSV format: t,q1..qn,qd1..qdn,v1..vn,scenario

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _sample_header(n: int) -> list[str]:
    return (["t"] + [f"q{j+1}" for j in range(n)]
            + [f"qd{j+1}" for j in range(n)]
            + [f"v{j+1}" for j in range(n)] + ["scenario"])


def _format_rows(data: np.ndarray, suffix: str = "") -> str:
    """CSV lines of a 2-D float array, each value as _fmt writes it.

    One "%.17g" template per row formats exactly as per-value _fmt calls
    do; suffix (a trailing field, comma included, no '%') ends each line.
    """
    line = ",".join(["%.17g"] * data.shape[1]) + suffix + "\n"
    return "".join([line % tuple(row) for row in data.tolist()])


def write_samples(samples: SampleSet, path) -> None:
    data = np.column_stack((samples.t, samples.q, samples.qd, samples.v))
    with open(path, "w") as fh:
        fh.write(",".join(_sample_header(samples.n)) + "\n")
        fh.write(_format_rows(data, "," + samples.scenario))


def write_table(path, header, data) -> None:
    """Write a result CSV: the header's column names, then one line per row
    of the 2-D float array data, every value as "%.17g" writes it."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_format_rows(data))


def _not_utf8(path, e: UnicodeDecodeError) -> str:
    return (f"{path}: not UTF-8 text, byte 0x{e.object[e.start]:02x} "
            f"at offset {e.start}")


def _numeric_fields(rows: list[str], width: int):
    """(data, tag, None) as _parse_rows gives it for well-formed rows: the
    numeric fields as one float array, parsed by np.loadtxt with no Python
    object per field and rounded as float() rounds, and the rows' one
    scenario tag.  None when a row does not have width fields, when the
    rows do not share an 'a' or 'b' tag, or when numpy refuses a field."""
    if not rows:
        return None
    tag = rows[0][rows[0].rfind(",") + 1:]
    end = "," + tag
    # loadtxt skips blank rows and ignores fields past usecols, so each row
    # is checked here first
    if tag not in ("a", "b") or not all(
            row.count(",") == width - 1 and row.endswith(end) for row in rows):
        return None
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None,
                          usecols=range(width - 1), ndmin=2)
    except ValueError:
        return None
    return data, tag, None


def _parse_rows(rows: list[str], width: int):
    """(data, tag, error): sample rows, lines 2, 3, ... of the file,
    parsed one field at a time by float() up to the first malformed row,
    which error names (None when there is none)."""
    values = []
    scenario = None
    error = None
    for i, line in enumerate(rows, start=2):
        parts = line.split(",")
        if len(parts) != width:
            error = f"row {i} has {len(parts)} fields, expected {width}"
            break
        try:
            values.append([float(x) for x in parts[:-1]])
        except ValueError:
            error = f"row {i} has a non-numeric field"
            break
        tag = parts[-1]
        if scenario is None:
            if tag not in ("a", "b"):
                error = f"row {i} has scenario tag {tag!r}, not 'a' or 'b'"
                break
            scenario = tag
        elif tag != scenario:
            error = (f"row {i} changes scenario tag "
                     f"({scenario!r} -> {tag!r})")
            break
    data = np.array(values, dtype=float).reshape(len(values), width - 1)
    return data, scenario, error


def read_samples(path, qd_threshold: float = QD_THRESHOLD_DEFAULT) -> SampleSet:
    """Read a sample CSV; acceleration is always derived, never stored.

    One np.loadtxt call parses every numeric field (_numeric_fields).  A
    file it does not take, malformed or holding what float() alone
    accepts (such as 1_0), is read row by row instead (_parse_rows), which
    names the first malformed row.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise SchemaError(_not_utf8(path, e)) from None
    if not lines:
        raise SchemaError(f"{path}: empty file")
    header = lines[0].split(",")
    if len(header) < 5 or header[0] != "t" or header[-1] != "scenario":
        raise SchemaError(f"{path}: header must be t,q1..qn,qd1..qdn,v1..vn,scenario")
    n, rem = divmod(len(header) - 2, 3)
    if rem != 0 or header != _sample_header(n):
        raise SchemaError(f"{path}: header must be t,q1..qn,qd1..qdn,v1..vn,scenario")
    width = len(header)
    data, scenario, error = (_numeric_fields(lines[1:], width)
                             or _parse_rows(lines[1:], width))
    # a non-finite value in an earlier row, or in the row that changes the
    # tag, is reported first, as a row-by-row check would
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        raise SchemaError(f"{path}: row {bad[0][0] + 2}, column "
                          f"{header[bad[0][1]]} is not finite")
    if error is not None:
        raise SchemaError(f"{path}: {error}")
    t = data[:, 0]
    q = data[:, 1:1 + n]
    qd = data[:, 1 + n:1 + 2 * n]
    v = data[:, 1 + 2 * n:1 + 3 * n]
    if len(t) < 2:
        raise SchemaError(f"{path}: need at least two rows")
    d = np.diff(t)
    if np.any(d <= 0) or np.max(np.abs(d - d[0])) > TIME_TOL:
        raise SchemaError(f"{path}: timestamps not uniformly increasing")
    return SampleSet(t=t, q=q, qd=qd, qdd=differentiate(qd, float(d[0])),
                     v=v, scenario=scenario, qd_threshold=qd_threshold)


# ---------------------------------------------------------------------------
# robot-model file: [meta], [gravity], [dh], [inertial.link_i],
# [friction.joint_j], [gains]

@dataclass(frozen=True)
class RobotModel:
    """A plant description: kinematics plus, when known, full dynamics."""

    name: str
    chain: KinematicChain
    links: tuple[InertialParameters, ...] | None = None
    friction: FrictionSet | None = None
    gains: tuple[float, ...] | None = None

    def __post_init__(self):
        n = self.chain.n
        if self.links is not None and len(self.links) != n:
            raise ValueError(f"expected {n} links")
        if self.friction is not None and self.friction.n != n:
            raise ValueError(f"expected friction for {n} joints")
        if self.gains is not None:
            object.__setattr__(self, "gains", tuple(
                float(x) for x in _check_gains(self.gains, n)))

    @property
    def is_complete(self) -> bool:
        return (self.links is not None and self.friction is not None
                and self.gains is not None)


def _new_parser() -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cfg.optionxform = str  # keys carry units and are case-significant
    return cfg


def _read_ini(path) -> configparser.ConfigParser:
    """Parse an INI file; a missing or malformed one is a SchemaError."""
    cfg = _new_parser()
    try:
        read = cfg.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise SchemaError(f"{path}: not a valid INI file: {e}") from None
    except UnicodeDecodeError as e:
        raise SchemaError(_not_utf8(path, e)) from None
    if not read:
        raise SchemaError(f"{path}: cannot read file")
    return cfg


def _vec(cfg, section, key, length, path, need=None):
    """length finite values of key in [section], or any of the counts a
    tuple length gives; need, when given, is (test of the values, what
    they must be)."""
    try:
        raw = cfg[section][key]
    except KeyError:
        raise SchemaError(f"{path}: missing {key} in [{section}]") from None
    parts = raw.split()
    lengths = length if isinstance(length, tuple) else (length,)
    if len(parts) not in lengths:
        raise SchemaError(f"{path}: {key} in [{section}] must have "
                          f"{' or '.join(map(str, lengths))} values, got "
                          f"{len(parts)}")
    try:
        vals = np.array([float(x) for x in parts])
    except ValueError:
        raise SchemaError(f"{path}: {key} in [{section}] has a "
                          "non-numeric value") from None
    if not np.all(np.isfinite(vals)):
        raise SchemaError(f"{path}: {key} in [{section}] has a non-finite value")
    if need is not None and not need[0](vals):
        raise SchemaError(f"{path}: {key} in [{section}] must be {need[1]}, "
                          f"got {raw}")
    return vals


_POSITIVE = (lambda v: bool(np.all(v > 0)), "positive")
_NONNEGATIVE = (lambda v: bool(np.all(v >= 0)), "nonnegative")


def _vecstr(values) -> str:
    return " ".join(_fmt(x) for x in np.atleast_1d(values))


def _write_chain(cfg, chain: KinematicChain):
    cfg["gravity"] = {"g_mps2": _vecstr(chain.gravity_vector)}
    rows = chain.rows
    cfg["dh"] = {
        "a_m": _vecstr([r.a for r in rows]),
        "alpha_rad": _vecstr([r.alpha for r in rows]),
        "d_m": _vecstr([r.d for r in rows]),
        "offset_rad": _vecstr([r.offset for r in rows]),
    }


def _read_chain(cfg, path) -> KinematicChain:
    for section in ("dh", "gravity"):
        if section not in cfg:
            raise SchemaError(f"{path}: missing [{section}] section")
    n = len(cfg["dh"].get("a_m", "").split())
    if n < 1:
        raise SchemaError(f"{path}: [dh] a_m must list at least one joint")
    a = _vec(cfg, "dh", "a_m", n, path)
    alpha = _vec(cfg, "dh", "alpha_rad", n, path)
    d = _vec(cfg, "dh", "d_m", n, path)
    off = _vec(cfg, "dh", "offset_rad", n, path)
    g = _vec(cfg, "gravity", "g_mps2", 3, path)
    rows = tuple(DhRow(a=a[i], alpha=alpha[i], d=d[i], offset=off[i])
                 for i in range(n))
    return KinematicChain(rows=rows, gravity=tuple(g))


def _write_friction(cfg, fs: FrictionSet, level: str):
    for j in range(fs.n):
        cfg[f"friction.joint_{j+1}"] = {
            "f_o": _fmt(fs.f_o[j]),
            "f_v": _fmt(fs.f_v[j]),
            "f_c": _fmt(fs.f_c[j]),
            "delta_s_rad": _fmt(fs.delta[j]),
            "nu_rad_s": _fmt(fs.nu[j]),
            "level": level,
        }


def _read_friction(cfg, n, path) -> tuple[FrictionSet, str]:
    cols = {k: [] for k in ("f_o", "f_v", "f_c", "delta_s_rad", "nu_rad_s")}
    levels = set()
    for j in range(n):
        section = f"friction.joint_{j+1}"
        if section not in cfg:
            raise SchemaError(f"{path}: missing [{section}] section")
        for k in cols:
            cols[k].append(float(_vec(cfg, section, k, 1, path)[0]))
        levels.add(cfg[section].get("level", "torque"))
    if len(levels) != 1:
        raise SchemaError(f"{path}: friction sections disagree on level")
    fs = FrictionSet(f_o=tuple(cols["f_o"]), f_v=tuple(cols["f_v"]),
                     f_c=tuple(cols["f_c"]), delta=tuple(cols["delta_s_rad"]),
                     nu=tuple(cols["nu_rad_s"]))
    return fs, levels.pop()


def write_robot_model(model: RobotModel, path) -> None:
    cfg = _new_parser()
    cfg["meta"] = {"name": model.name, "kind": "plant"}
    _write_chain(cfg, model.chain)
    if model.links is not None:
        for i, lk in enumerate(model.links):
            try:
                com = lk.com
            except ValueError:
                raise ValueError(f"link {i+1}: mass_kg and com_m cannot "
                                 "hold a massless nonzero first moment"
                                 ) from None
            cfg[f"inertial.link_{i+1}"] = {
                "mass_kg": _fmt(lk.mass),
                "com_m": _vecstr(com),
                "inertia_origin_kgm2": _vecstr(
                    inertia_matrix_to_vector(np.array(lk.inertia_origin))),
            }
    if model.friction is not None:
        _write_friction(cfg, model.friction, level="torque")
    if model.gains is not None:
        cfg["gains"] = {"K_NmA": _vecstr(model.gains)}
    with open(path, "w") as fh:
        cfg.write(fh)


def read_robot_model(path) -> RobotModel:
    cfg = _read_ini(path)
    chain = _read_chain(cfg, path)
    n = chain.n
    name = cfg.get("meta", "name", fallback="unnamed")

    links = None
    if "inertial.link_1" in cfg:
        links = []
        for i in range(n):
            section = f"inertial.link_{i+1}"
            if section not in cfg:
                raise SchemaError(f"{path}: missing [{section}] section")
            mass = float(_vec(cfg, section, "mass_kg", 1, path,
                              _NONNEGATIVE)[0])
            com = _vec(cfg, section, "com_m", 3, path)
            I0 = inertia_vector_to_matrix(
                _vec(cfg, section, "inertia_origin_kgm2", 6, path))
            # a link's inertia about its COM must be a body's; sets built
            # in the program (identified, or test oracles) need not be
            try:
                check_com_inertia(I0 - steiner_shift(mass, com),
                                  f"the COM inertia of inertia_origin_kgm2 "
                                  f"in [{section}]")
            except ValueError as e:
                raise SchemaError(f"{path}: {e}") from None
            links.append(InertialParameters(
                mass=mass, first_moment=tuple(mass * com),
                inertia_origin=tuple(map(tuple, I0))))
        links = tuple(links)

    friction = None
    if "friction.joint_1" in cfg:
        friction, level = _read_friction(cfg, n, path)
        if level != "torque":
            raise SchemaError(f"{path}: plant friction must be torque-level")

    gains = None
    if "gains" in cfg:
        gains = tuple(_vec(cfg, "gains", "K_NmA", n, path, _POSITIVE))

    return RobotModel(name=name, chain=chain, links=links,
                      friction=friction, gains=gains)


# ---------------------------------------------------------------------------
# payload file

def write_payload(spec: PayloadSpec, path) -> None:
    cfg = _new_parser()
    cfg["payload"] = {
        "mass_kg": _fmt(spec.mass),
        "com_l_m": _vecstr(spec.com),
        "inertia_l_kgm2": _vecstr(
            inertia_matrix_to_vector(np.array(spec.inertia_com))),
        "R_l_n": _vecstr(np.array(spec.R_l_n).ravel()),
        "t_l_n_m": _vecstr(spec.t_l_n),
    }
    with open(path, "w") as fh:
        cfg.write(fh)


def read_payload(path) -> PayloadSpec:
    cfg = _read_ini(path)
    if "payload" not in cfg:
        raise SchemaError(f"{path}: missing [payload] section")
    mass = float(_vec(cfg, "payload", "mass_kg", 1, path, _NONNEGATIVE)[0])
    com = _vec(cfg, "payload", "com_l_m", 3, path)
    # off-diagonal inertia entries may be omitted (pure diagonal payload)
    iv = _vec(cfg, "payload", "inertia_l_kgm2", (3, 6), path)
    I = np.diag(iv) if iv.size == 3 else inertia_vector_to_matrix(iv)
    R = _vec(cfg, "payload", "R_l_n", 9, path).reshape(3, 3)
    try:
        check_com_inertia(I, "inertia_l_kgm2 in [payload]")
        check_rotation(R, "R_l_n in [payload]")
    except ValueError as e:
        raise SchemaError(f"{path}: {e}") from None
    t = _vec(cfg, "payload", "t_l_n_m", 3, path)
    return PayloadSpec(mass=mass, com=tuple(com), inertia_com=tuple(map(tuple, I)),
                       R_l_n=tuple(map(tuple, R)), t_l_n=tuple(t))


# ---------------------------------------------------------------------------
# identified-model file: [meta], [gravity], [dh], [coefficients.joint_j],
# and as stages run [friction.joint_j], [gains], [payload_parameters]

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
        self.map.check_chain(self.chain)
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
        """torque_sets folded for newton_euler, one read-only matrix per
        link (dynamics.fold_sets): link i feeds joints 0..i only, so its
        matrix holds sets 0..i, (12, 3 + 6(i+1))."""
        B = fold_sets(self.chain, self.torque_sets)
        for b in B:
            b.flags.writeable = False
        return B


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


# ---------------------------------------------------------------------------
# synthetic plant

def simulate(model: RobotModel, traj: FourierTrajectory | None = None, *,
             states: tuple | None = None, rate: float = RATE_DEFAULT,
             duration: float | None = None, noise_v: float = 0.0,
             noise_qd: float = 0.0, seed: int = 0,
             payload: PayloadSpec | None = None) -> SampleSet:
    """Run the plant over a trajectory and log current-level samples.

    Torques are evaluated on the acceleration differentiate derives from
    the clean velocities, exactly the signal identification later
    rebuilds, so noiseless runs are model-consistent with their own stored
    data.  Seeded Gaussian noise is then added to the current and velocity
    channels, current first, so noise_qd does not change the current
    noise a seed draws; only velocity noise re-derives the stored
    acceleration.

    Args:
        model: complete plant (links, friction, gains all present).
        traj: excitation trajectory; alternatively pass states=(t, q, qd).
        noise_v / noise_qd: noise standard deviations [A] and [rad/s],
            finite and nonnegative.
        seed: non-negative integer seeding the noise; the generator is
            made only when a standard deviation is positive.
        payload: optional payload attached to the flange (scenario 'b').
    """
    check_seed(seed)
    for name, std in (("noise_v", noise_v), ("noise_qd", noise_qd)):
        if not (np.isfinite(std) and std >= 0):
            raise ValueError(f"{name} must be a finite nonnegative standard "
                             f"deviation, got {std}")
    if not model.is_complete:
        raise ValueError("simulate needs a complete plant "
                         "(inertial, friction, and gain sections)")
    if (traj is None) == (states is None):
        raise ValueError("pass exactly one of traj or states")
    if traj is not None:
        t, q, qd, _ = sample_trajectory(traj, rate=rate, duration=duration)
    else:
        t, q, qd = (np.asarray(x, dtype=float) for x in states)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError(f"states=(t, q, qd) has t of shape {t.shape}; "
                             "need a count >= 2 of sample times")
    period = float(t[1] - t[0])
    qdd = differentiate(qd, period)

    pi_in = np.concatenate([lk.to_vector() for lk in model.links])
    if payload is not None:
        pi_in[-N_INERTIAL:] += payload_to_frame_n(payload)
    tau = newton_euler(model.chain, q, qd, qdd,
                       fold_sets(model.chain, pi_in[:, None])) \
        + friction_sigmoid(model.friction, qd)
    v = tau / np.asarray(model.gains)

    if noise_qd > 0 or noise_v > 0:
        rng = np.random.default_rng(seed)
        if noise_v > 0:
            v = v + rng.normal(0.0, noise_v, v.shape)
        if noise_qd > 0:
            qd = qd + rng.normal(0.0, noise_qd, qd.shape)
            qdd = differentiate(qd, period)

    return SampleSet(t=t, q=q, qd=qd, qdd=qdd, v=v,
                     scenario="b" if payload is not None else "a")


def ur10_default_model() -> RobotModel:
    """Complete UR10-class plant with representative dynamics.

    Inertial values are rounded workshop estimates for an arm of this size;
    friction and gain values are chosen at realistic magnitudes.  The model
    serves as the package's reference plant for synthetic experiments.
    """
    from .kinematics import ur10_chain

    com = [(0.021, 0.000, 0.027),
           (-0.306, 0.000, 0.160),
           (-0.286, 0.000, 0.068),
           (0.000, -0.002, 0.018),
           (0.000, 0.002, 0.018),
           (0.000, 0.000, -0.026)]
    mass = [7.10, 12.70, 4.27, 2.00, 2.00, 0.365]
    inertia_com = [
        (0.0341, 0.0353, 0.0216),
        (0.0778, 1.0700, 1.0900),
        (0.0311, 0.4450, 0.4520),
        (0.0040, 0.0041, 0.0034),
        (0.0040, 0.0041, 0.0034),
        (0.00031, 0.00031, 0.00041),
    ]
    links = tuple(
        InertialParameters.from_com(mass[i], com[i], np.diag(inertia_com[i]))
        for i in range(6)
    )
    friction = FrictionSet(
        f_o=(-1.40, 1.30, -0.90, -0.45, -0.40, -0.50),
        f_v=(14.80, 13.90, 9.50, 3.60, 2.60, 2.70),
        f_c=(2.90, -3.40, 2.30, 1.10, 1.05, 1.30),
        delta=(60.0, -85.0, 130.0, 150.0, 300.0, 420.0),
        nu=(-0.016, -0.002, -0.005, -0.019, -0.012, -0.013),
    )
    gains = (13.9557, 13.8669, 11.5049, 11.5438, 11.6143, 11.4149)
    return RobotModel(name="ur10-default", chain=ur10_chain(), links=links,
                      friction=friction, gains=gains)
