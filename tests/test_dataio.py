import dataclasses
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynid.dataio import (DIFF_HALF_WIDTH_S, RobotModel, SampleSet,
                          SchemaError, _fmt, _format_rows, differentiate,
                          merge_sample_sets, read_payload,
                          read_robot_model, read_samples, simulate,
                          ur10_default_model, write_payload,
                          write_robot_model, write_samples)
from dynid.dynamics import (FrictionSet, InertialParameters,
                            friction_sigmoid, regressor_stack)
from dynid.kinematics import DhRow, KinematicChain
from dynid.payload import PayloadSpec, payload_to_frame_n
from dynid.trajectory import random_trajectory


# ---------------------------------------------------------------------------
# preprocessing

def test_differentiate_constant_and_ramp():
    v = np.tile([0.4, -1.1], (300, 1))
    assert np.max(np.abs(differentiate(v, 0.008))) < 1e-9
    ramp = np.linspace(0, 1, 500)[:, None] * np.array([2.0, -3.0])
    dv = differentiate(ramp, 0.01)
    slope = (ramp[1] - ramp[0]) / 0.01
    # every row, the ends included
    assert np.allclose(dv, np.tile(slope, (500, 1)), rtol=1e-9, atol=0)


def test_differentiate_sine_oracle():
    # a sine at the band edge, 0.25 Hz: away from the ends the derivative
    # is the true one scaled by a gain within 1e-4 of one
    w = 2 * np.pi * 0.25
    for rate in (125.0, 1000.0):
        period = 1.0 / rate
        h = round(DIFF_HALF_WIDTH_S / period)
        t = np.arange(round(40.0 * rate)) * period
        for phase in (0.0, 0.7):
            qdd = differentiate(np.sin(w * t + phase)[:, None], period)
            expect = w * np.cos(w * t + phase)[:, None]
            assert np.max(np.abs(qdd - expect)[h:-h]) < 1e-4 * w


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 200), period=st.sampled_from([1e-3, 8e-3, 0.05]),
       seed=st.integers(0, 2**32 - 1))
def test_differentiate_exact_on_polynomials(m, period, seed):
    # a run shorter than one window is one fit of order min(3, m - 1); a
    # longer one is exact on cubics at every row, the ends included
    rng = np.random.default_rng(seed)
    order = min(3, m - 1)
    c = rng.standard_normal((order + 1, 2))
    u = (np.arange(m) / (m - 1))[:, None]  # time over the run's length
    y = sum(c[k] * u**k for k in range(order + 1))
    dy = sum(k * c[k] * u**(k - 1) for k in range(1, order + 1)) \
        / ((m - 1) * period)
    got = differentiate(y, period)
    assert np.max(np.abs(got - dy)) <= 1e-9 * np.max(np.abs(dy))


def test_differentiate_is_deterministic():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((700, 3))
    assert np.array_equal(differentiate(x, 0.008),
                          differentiate(x.copy(), 0.008))


def test_differentiate_rejects_bad_input():
    with pytest.raises(ValueError, match="period"):
        differentiate(np.zeros((10, 1)), 0.0)
    with pytest.raises(ValueError, match="two samples"):
        differentiate(np.zeros((1, 2)), 0.008)


# ---------------------------------------------------------------------------
# sample CSV schema

def _tiny_set():
    t = np.arange(8) / 125.0
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, (8, 2))
    qd = rng.uniform(-2, 2, (8, 2))
    v = rng.uniform(-3, 3, (8, 2))
    qdd = differentiate(qd, 1 / 125.0)
    return SampleSet(t=t, q=q, qd=qd, qdd=qdd, v=v, scenario="b")


def test_samples_round_trip(tmp_path):
    ds = _tiny_set()
    p = tmp_path / "run.csv"
    write_samples(ds, p)
    ds2 = read_samples(p)
    assert np.array_equal(ds2.t, ds.t)
    assert np.array_equal(ds2.q, ds.q)
    assert np.array_equal(ds2.qd, ds.qd)
    assert np.array_equal(ds2.v, ds.v)
    assert ds2.scenario == "b"
    # acceleration is re-derived on read, never ingested
    assert np.array_equal(ds2.qdd, differentiate(ds2.qd, ds2.period))


def test_samples_header_checked(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,q1,q2,qd1,qd2,v1,scenario\n0,0,0,0,0,0,a\n")
    with pytest.raises(SchemaError):
        read_samples(p)


def test_samples_ragged_row(tmp_path):
    ds = _tiny_set()
    p = tmp_path / "run.csv"
    write_samples(ds, p)
    lines = p.read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:-2])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="row"):
        read_samples(p)


def test_samples_nan_field(tmp_path):
    ds = _tiny_set()
    p = tmp_path / "run.csv"
    write_samples(ds, p)
    text = p.read_text().replace(f"{ds.v[4, 1]:.17g}", "nan", 1)
    p.write_text(text)
    with pytest.raises(SchemaError, match="v2"):
        read_samples(p)


def test_samples_one_row(tmp_path):
    p = tmp_path / "run.csv"
    write_samples(_tiny_set(), p)
    p.write_text("\n".join(p.read_text().splitlines()[:2]) + "\n")
    with pytest.raises(SchemaError,
                       match=re.escape(f"{p}: need at least two rows")):
        read_samples(p)


def test_samples_repeated_timestamp(tmp_path):
    p = tmp_path / "run.csv"
    ds = _tiny_set()
    write_samples(ds, p)
    _edit_rows(p, {4: _set_field(0, _fmt(ds.t[2]))})
    with pytest.raises(SchemaError, match=re.escape(
            f"{p}: timestamps not uniformly increasing")):
        read_samples(p)


def _edit_rows(path, edits):
    """Apply {line_index: fn(fields) -> fields} to a sample CSV in place."""
    lines = path.read_text().splitlines()
    for k, fn in edits.items():
        lines[k] = ",".join(fn(lines[k].split(",")))
    path.write_text("\n".join(lines) + "\n")


def _set_field(col, value):
    def fn(fields):
        fields[col] = value
        return fields
    return fn


def test_samples_non_numeric_field(tmp_path):
    p = tmp_path / "run.csv"
    write_samples(_tiny_set(), p)
    _edit_rows(p, {3: _set_field(2, "0.5x")})
    with pytest.raises(SchemaError,
                       match=re.escape(f"{p}: row 4 has a non-numeric field")):
        read_samples(p)


def test_samples_scenario_tag_change(tmp_path):
    p = tmp_path / "run.csv"
    write_samples(_tiny_set(), p)
    _edit_rows(p, {5: _set_field(-1, "a")})
    with pytest.raises(SchemaError, match=re.escape(
            f"{p}: row 6 changes scenario tag ('b' -> 'a')")):
        read_samples(p)


@pytest.mark.parametrize("edits, message", [
    # a non-finite value before a tag change is reported first
    ({2: _set_field(1, "inf"), 5: _set_field(-1, "a")},
     "row 3, column q1 is not finite"),
    # within one row the non-finite value wins over the tag change
    ({4: lambda f: _set_field(-1, "a")(_set_field(5, "-inf")(f))},
     "row 5, column v1 is not finite"),
    # an unparsable row before a non-finite value is reported first
    ({2: _set_field(3, "?"), 5: _set_field(1, "nan")},
     "row 3 has a non-numeric field"),
    ({2: lambda f: f[:-1], 5: _set_field(1, "nan")},
     "row 3 has 7 fields, expected 8"),
    # the first non-finite value in row-major order names the column
    ({4: lambda f: _set_field(2, "nan")(_set_field(5, "nan")(f)),
      6: _set_field(1, "nan")},
     "row 5, column q2 is not finite"),
])
def test_samples_first_error_wins(tmp_path, edits, message):
    p = tmp_path / "run.csv"
    write_samples(_tiny_set(), p)
    _edit_rows(p, edits)
    with pytest.raises(SchemaError, match=re.escape(f"{p}: {message}")):
        read_samples(p)


# ---------------------------------------------------------------------------
# bulk CSV formatting against the per-value writer

def _write_samples_per_float(samples, path):
    """Reference writer: one _fmt call per value, row by row."""
    n = samples.n
    header = (["t"] + [f"q{j+1}" for j in range(n)]
              + [f"qd{j+1}" for j in range(n)]
              + [f"v{j+1}" for j in range(n)] + ["scenario"])
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(samples.m):
            row = ([_fmt(samples.t[k])]
                   + [_fmt(x) for x in samples.q[k]]
                   + [_fmt(x) for x in samples.qd[k]]
                   + [_fmt(x) for x in samples.v[k]]
                   + [samples.scenario])
            fh.write(",".join(row) + "\n")


_EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                -2.225073858507201e-308, 1e300, -1e300, 1e-300, -1e-300,
                1.7976931348623157e308, 1e16, -1e16, 2.0**53 + 2.0, 1e22,
                123456789012345678.0, 0.1, -2.5)


def _doubles(bound=None):
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       min_value=None if bound is None else -bound,
                       max_value=bound)
    edges = [x for x in _EDGE_VALUES if bound is None or abs(x) <= bound]
    return st.one_of(st.sampled_from(edges), finite,
                     st.integers(-2**63, 2**63).map(float))


@st.composite
def _sample_sets(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 6))
    period = draw(st.sampled_from([0.008, 0.01, 0.5]))

    def block(bound=None):
        return np.array(draw(st.lists(_doubles(bound), min_size=m * n,
                                      max_size=m * n))).reshape(m, n)

    # velocities stay within 1e300 so the derived acceleration is finite
    # when the file is read back
    qd = block(1e300)
    return SampleSet(t=np.arange(m) * period, q=block(), qd=qd,
                     qdd=np.zeros((m, n)), v=block(),
                     scenario=draw(st.sampled_from("ab")))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None)
@given(_sample_sets())
def test_write_samples_matches_per_float_writer(csv_dir, samples):
    write_samples(samples, csv_dir / "bulk.csv")
    _write_samples_per_float(samples, csv_dir / "ref.csv")
    assert ((csv_dir / "bulk.csv").read_bytes()
            == (csv_dir / "ref.csv").read_bytes())


@settings(max_examples=150, deadline=None)
@given(_sample_sets())
def test_samples_round_trip_bit_exact(csv_dir, samples):
    p = csv_dir / "rt.csv"
    write_samples(samples, p)
    back = read_samples(p)
    for name in ("t", "q", "qd", "v"):
        a, b = getattr(samples, name), getattr(back, name)
        assert a.shape == b.shape
        # compares bit patterns, so -0.0 and 0.0 differ
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert back.scenario == samples.scenario


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_format_rows_matches_fmt(draws, width):
    rows = draws.draw(st.lists(st.lists(_doubles(), min_size=width,
                                       max_size=width), max_size=5))
    array = np.array(rows, dtype=float).reshape(len(rows), width)
    expect = "".join(",".join(_fmt(x) for x in row) + "\n" for row in array)
    assert _format_rows(array) == expect


def test_sampleset_validation():
    t = np.arange(5) / 10.0
    z = np.zeros((5, 2))
    with pytest.raises(SchemaError):
        SampleSet(t=t[::-1], q=z, qd=z, qdd=z, v=z)
    with pytest.raises(SchemaError):
        SampleSet(t=np.array([0.0, 0.1, 0.15, 0.2, 0.3]), q=z, qd=z, qdd=z, v=z)
    with pytest.raises(SchemaError):
        SampleSet(t=t, q=z, qd=z, qdd=z, v=np.zeros((5, 3)))
    with pytest.raises(SchemaError):
        SampleSet(t=t, q=z, qd=z, qdd=z, v=z, scenario="c")


def test_linearity_mask():
    t = np.arange(4) / 125.0
    qd = np.array([[0.0, 0.3], [0.18, -0.1], [-0.2, 0.17], [0.1, -0.5]])
    z = np.zeros((4, 2))
    ds = SampleSet(t=t, q=z, qd=qd, qdd=z, v=z, qd_threshold=0.17)
    assert np.array_equal(ds.mask, np.abs(qd) > 0.17)


def test_merge_sample_sets():
    a = _tiny_set()
    b = _tiny_set()
    merged = merge_sample_sets([a, b])
    assert merged.m == a.m + b.m
    assert merged.period == a.period
    assert np.array_equal(merged.q[:a.m], a.q)
    assert np.array_equal(merged.q[a.m:], b.q)
    # timestamps are re-laid on one uniform grid
    assert np.max(np.abs(np.diff(merged.t) - merged.period)) < 1e-12


# ---------------------------------------------------------------------------
# model and payload files

def test_robot_model_round_trip(tmp_path):
    model = ur10_default_model()
    p = tmp_path / "model.ini"
    write_robot_model(model, p)
    m2 = read_robot_model(p)
    assert m2.gains == model.gains
    assert m2.name == model.name
    for a, b in zip(m2.links, model.links):
        assert np.array_equal(np.array(a.first_moment), np.array(b.first_moment))
        assert np.array_equal(np.array(a.inertia_origin),
                              np.array(b.inertia_origin))
    for name in ("f_o", "f_v", "f_c", "delta", "nu"):
        assert getattr(m2.friction, name) == getattr(model.friction, name)
    assert np.array_equal(m2.chain.gravity_vector, model.chain.gravity_vector)
    # [meta] holds what the reader uses; an older file's provenance key
    # is ignored
    text = p.read_text()
    assert text.startswith("[meta]\nname = ur10-default\nkind = plant\n\n")
    old = tmp_path / "old.ini"
    old.write_text(text.replace("kind = plant\n",
                                "kind = plant\nprovenance = unspecified\n"))
    write_robot_model(read_robot_model(old), p)
    assert p.read_text() == text


def test_robot_model_partial_and_broken(tmp_path):
    model = ur10_default_model()
    p = tmp_path / "model.ini"
    # gains are an optional section: a staged model without them reads back
    # with gains=None rather than failing
    write_robot_model(dataclasses.replace(model, gains=None), p)
    m2 = read_robot_model(p)
    assert m2.gains is None and not m2.is_complete
    # the kinematic sections are mandatory
    write_robot_model(model, p)
    text = p.read_text().replace("[gravity]", "[gravty]")
    p.write_text(text)
    with pytest.raises(SchemaError, match="gravity"):
        read_robot_model(p)
    # friction sections must cover every joint once any is present
    write_robot_model(model, p)
    lines = [ln for ln in p.read_text().splitlines()]
    out, skip = [], False
    for ln in lines:
        if ln.startswith("[friction.joint_4]"):
            skip = True
        elif ln.startswith("["):
            skip = False
        if not skip:
            out.append(ln)
    p.write_text("\n".join(out) + "\n")
    with pytest.raises(SchemaError, match="friction.joint_4"):
        read_robot_model(p)


def test_massless_link_round_trip(tmp_path):
    # a massless link with no first moment writes a zero COM and reads
    # back as it was; one with a first moment has no mass_kg/com_m form,
    # and writing it raises before the file is touched
    model = ur10_default_model()
    bare = InertialParameters(mass=0.0, first_moment=(0.0, 0.0, 0.0),
                              inertia_origin=np.diag((0.01, 0.02, 0.03)))
    p = tmp_path / "massless.ini"
    write_robot_model(dataclasses.replace(
        model, links=model.links[:5] + (bare,)), p)
    assert "com_m = 0 0 0\n" in p.read_text()
    assert read_robot_model(p).links == model.links[:5] + (bare,)
    moved = dataclasses.replace(bare, first_moment=(0.0, 0.1, 0.0))
    with pytest.raises(ValueError, match=r"^link 6: mass_kg and com_m "
                       "cannot hold a massless nonzero first moment"):
        write_robot_model(dataclasses.replace(
            model, links=model.links[:5] + (moved,)), tmp_path / "x.ini")
    assert not (tmp_path / "x.ini").exists()


def test_readme_payload_example_reads(tmp_path):
    # README's payload file gives the inertia as three diagonal values
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```ini\n(\[payload\].*?)```", readme, re.S)
    p = tmp_path / "payload.ini"
    p.write_text(block.group(1))
    spec = read_payload(p)
    assert np.array_equal(spec.inertia_com, np.diag((0.030, 0.035, 0.030)))
    assert spec.mass == 4.8 and spec.com == (0.10, 0.06, 0.05)


def test_payload_round_trip(tmp_path):
    spec = PayloadSpec(mass=4.8, com=(0.1, 0.06, 0.05),
                       inertia_com=np.diag((0.03, 0.035, 0.03)))
    p = tmp_path / "payload.ini"
    write_payload(spec, p)
    s2 = read_payload(p)
    assert np.array_equal(payload_to_frame_n(s2), payload_to_frame_n(spec))


# ---------------------------------------------------------------------------
# simulator

def test_simulate_noiseless_consistency(plant, chain):
    traj = random_trajectory(6, seed=42)
    ds = simulate(plant, traj, duration=4.0)
    Y = regressor_stack(chain, ds.q, ds.qd, ds.qdd)
    pi_in = np.concatenate([lk.to_vector() for lk in plant.links])
    tau = Y[:, :, :60] @ pi_in + friction_sigmoid(plant.friction, ds.qd)
    assert np.max(np.abs(tau - ds.v * np.asarray(plant.gains))) < 1e-9
    assert ds.scenario == "a"


def test_simulate_payload_tagged(plant):
    traj = random_trajectory(6, seed=42)
    spec = PayloadSpec(mass=2.0, com=(0.05, 0.0, 0.02),
                       inertia_com=np.diag((0.01, 0.01, 0.008)))
    ds = simulate(plant, traj, duration=2.0, payload=spec)
    assert ds.scenario == "b"


def test_simulate_noise_is_seeded(plant):
    traj = random_trajectory(6, seed=8)
    d1 = simulate(plant, traj, duration=2.0, noise_v=0.01, noise_qd=0.002,
                  seed=5)
    d2 = simulate(plant, traj, duration=2.0, noise_v=0.01, noise_qd=0.002,
                  seed=5)
    d3 = simulate(plant, traj, duration=2.0, noise_v=0.01, noise_qd=0.002,
                  seed=6)
    assert np.array_equal(d1.v, d2.v) and np.array_equal(d1.qd, d2.qd)
    assert not np.array_equal(d1.v, d3.v)
    # q is noise-free; qd carries noise, and qdd is re-derived from noisy qd
    clean = simulate(plant, traj, duration=2.0)
    assert np.array_equal(d1.q, clean.q)
    assert np.array_equal(d1.qdd, differentiate(d1.qd, d1.period))


@pytest.mark.parametrize("noise_v", [0.0, 0.05])
def test_simulate_stores_the_plant_acceleration(plant, noise_v):
    # without velocity noise the stored qdd is the array the plant's
    # torques were evaluated on, bit for bit
    traj = random_trajectory(6, seed=8)
    ds = simulate(plant, traj, duration=2.0, noise_v=noise_v, seed=5)
    assert np.array_equal(ds.qdd, differentiate(ds.qd, ds.period))
    assert np.array_equal(ds.qdd, simulate(plant, traj, duration=2.0).qdd)


@pytest.mark.parametrize("noise_v", [0.0, 0.01])
def test_simulate_rejects_negative_seed(plant, noise_v):
    # checked before any draw, so also when no noise is drawn
    traj = random_trajectory(6, seed=8)
    with pytest.raises(ValueError, match="seed must be a non-negative "
                                         "integer, got -3"):
        simulate(plant, traj, duration=2.0, noise_v=noise_v, seed=-3)


def test_simulate_noiseless_ignores_seed(plant):
    traj = random_trajectory(6, seed=8)
    a = simulate(plant, traj, duration=2.0, seed=1)
    b = simulate(plant, traj, duration=2.0, seed=2)
    assert all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("q", "qd", "qdd", "v"))


def test_simulate_noise_level(plant):
    traj = random_trajectory(6, seed=8)
    clean = simulate(plant, traj, duration=8.0)
    noisy = simulate(plant, traj, duration=8.0, noise_v=0.05, seed=1)
    resid = noisy.v - clean.v
    assert abs(np.std(resid) - 0.05) < 0.005


def test_simulate_static_weightless_arm():
    # no gravity, no friction, no motion: the currents must vanish
    rows = (DhRow(0.3, 0.0, 0.1), DhRow(0.25, 0.0, 0.0))
    chain0 = KinematicChain(rows=rows, gravity=(0.0, 0.0, 0.0))
    from dynid.dynamics import InertialParameters
    links = tuple(InertialParameters.from_com(1.0, (0.1, 0.0, 0.0),
                                              np.eye(3) * 1e-3)
                  for _ in range(2))
    fric = FrictionSet(f_o=(0.0, 0.0), f_v=(0.0, 0.0), f_c=(0.0, 0.0),
                       delta=(50.0, 50.0), nu=(0.0, 0.0))
    model = RobotModel(name="toy", chain=chain0, links=links, friction=fric,
                       gains=(10.0, 10.0))
    from dynid.trajectory import FourierTrajectory
    still = FourierTrajectory(q0=(0.4, -0.2), a=np.zeros((2, 1)),
                              b=np.zeros((2, 1)), period=4.0)
    ds = simulate(model, still, duration=2.0)
    assert np.max(np.abs(ds.v)) < 1e-12


def test_simulate_requires_complete_model(plant):
    incomplete = dataclasses.replace(plant, gains=None)
    traj = random_trajectory(6, seed=1)
    with pytest.raises(ValueError, match="complete plant"):
        simulate(incomplete, traj, duration=2.0)


def test_simulate_exactly_one_source(plant):
    traj = random_trajectory(6, seed=1)
    t = np.arange(10) / 125.0
    states = (t, np.zeros((10, 6)), np.zeros((10, 6)))
    with pytest.raises(ValueError):
        simulate(plant, traj, states=states, duration=2.0)
    with pytest.raises(ValueError):
        simulate(plant)


@pytest.mark.parametrize("m", [0, 1])
def test_simulate_names_too_few_states(plant, m):
    # one sample has no sampling period: a ValueError naming t's shape,
    # not an IndexError from reading its second time
    states = (np.arange(m) / 125.0, np.zeros((m, 6)), np.zeros((m, 6)))
    with pytest.raises(ValueError, match=re.escape(
            f"t of shape ({m},); need a count >= 2")):
        simulate(plant, states=states)
