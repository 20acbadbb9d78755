import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import base_map_oracle
import dynid
from dynid.dataio import SampleSet
from dynid.dynamics import (N_INERTIAL, DynamicParameters, FrictionSet,
                            InertialParameters, JointState, regressor_stack)
from dynid.estimation import (KnownPayload, estimate_gains,
                              friction_residual_currents,
                              identify_coefficients, predict_currents)
from dynid.kinematics import DhRow, KinematicChain, ur10_chain
from dynid.payload import PayloadSpec
from dynid import reduction
from dynid.reduction import (RANK_TOL, compute_base_map,
                             minimal_regressor_stack, probe_states,
                             split_columns)

EPS = np.finfo(float).eps
TOY = KinematicChain(rows=(DhRow(0.3, 0.4, 0.1), DhRow(0.25, -1.2, 0.05)),
                     gravity=(0.0, -9.80665, 0.0))


def random_params(n, rng):
    links = []
    for _ in range(n):
        m = rng.uniform(0.5, 10.0)
        com = rng.uniform(-0.3, 0.3, size=3)
        A = rng.uniform(-1.0, 1.0, size=(3, 3))
        links.append(InertialParameters.from_com(m, com,
                                                 A @ A.T * 0.05 + np.eye(3) * 0.01))
    tri = rng.uniform(-2, 2, size=(n, 3))
    return DynamicParameters(links=tuple(links), friction=tuple(map(tuple, tri)))


def test_one_link_counts_by_hand():
    # rotation about z with gravity along -z: gravity exerts no joint torque,
    # so only the z-axis inertia survives, plus the three friction terms
    one = KinematicChain(rows=(DhRow(0.0, 0.0, 0.0),))
    bm = compute_base_map(one)
    assert bm.c_inertial == 1 and bm.c == 4
    assert list(bm.inertial_columns) == [9]  # the Izz coordinate
    # gravity along -y (a pendulum): the first-moment components mx, my enter
    # through the gravity torque, raising the count to three
    pend = KinematicChain(rows=(DhRow(0.0, 0.0, 0.0),),
                          gravity=(0.0, -9.80665, 0.0))
    bmp = compute_base_map(pend)
    assert bmp.c_inertial == 3 and bmp.c == 6
    assert list(bmp.inertial_columns) == [1, 2, 9]


def _check_split(A):
    """split_columns against the greedy oracle on one matrix: the same
    column sets, as many kept columns as the SVD rank, A[:, dep] rebuilt
    with the oracle's coefficients, exact zeros for exactly-zero columns,
    and the solve on the independent columns as accurate as a
    backward-stable least-squares solve."""
    got = split_columns(A)
    ind, dep, coef = base_map_oracle.select_columns(A)
    assert np.array_equal(got.ind, ind) and np.array_equal(got.dep, dep)
    sing = np.linalg.svd(A, compute_uv=False)
    assert got.ind.size == int(np.sum(sing > RANK_TOL * sing[0]))
    scale = np.max(np.abs(A))
    err = np.max(np.abs(A[:, got.ind] @ got.regroup - A[:, got.dep]),
                 initial=0.0)
    assert err <= 1e-9 * scale
    assert np.allclose(got.regroup, coef, rtol=1e-8, atol=1e-8)
    zero = ~np.any(A[:, got.dep], axis=0)
    assert np.all(got.regroup[:, zero] == 0.0)
    # what a backward-stable solve promises (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2002, ch. 20): on A x = b with a residual,
    # normal equations met to eps |A| (|A| |x| + |r|); on a consistent
    # b = A x_true, x within eps times the condition of x_true
    a = A[:, ind]
    sing = np.linalg.svd(a, compute_uv=False)
    rng = np.random.default_rng(A.shape[0])
    b = rng.standard_normal(A.shape[0])
    x = got.solve(b)
    r = b - a @ x
    assert np.linalg.norm(a.T @ r) <= 10 * EPS * sing[0] * (
        sing[0] * np.linalg.norm(x) + np.linalg.norm(r))
    x_true = rng.standard_normal(ind.size)
    assert np.linalg.norm(got.solve(a @ x_true) - x_true) \
        <= 10 * EPS * sing[0] / sing[-1] * np.linalg.norm(x_true)
    return got


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(12, 60),
       p=st.integers(1, 10), n_zero=st.integers(0, 2))
@example(seed=10, m=32, p=10, n_zero=0)  # condition 5.6e7
def test_split_columns_matches_oracle(seed, m, p, n_zero):
    # rank-r columns over four decades of scale, then exact combinations of
    # them (some with zero weights) and exactly-zero columns, shuffled
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, p + 1))
    B = rng.standard_normal((m, r)) * 10.0 ** rng.uniform(-2.0, 2.0, r)
    C = rng.standard_normal((r, p - r)) * (rng.random((r, p - r)) < 0.7)
    A = np.hstack([B, B @ C, np.zeros((m, n_zero))])
    A = A[:, rng.permutation(p + n_zero)]
    assert _check_split(A).ind.size == r


def test_split_columns_keeps_the_given_order():
    # the same two dependent columns split the other way when reversed:
    # a column is dropped only when the columns before it span it
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((2, 20))
    A = np.column_stack([a, 2.0 * a, b])
    assert split_columns(A).ind.tolist() == [0, 2]
    assert split_columns(A[:, ::-1]).ind.tolist() == [0, 1]


def test_split_columns_dependent_column_hides_no_later_one():
    # [e0, c * e0, e1]: the unpivoted QR finds nothing new in the second
    # column and carries on along a direction the third does not fill, so
    # its R_22 is zero although the third column is independent of the
    # first; the greedy pass over R's columns still keeps it
    e = np.eye(3)
    for c in (0.0, 1.0, 2.0):
        A = np.column_stack([e[0], c * e[0], e[1]])
        got = split_columns(A)
        assert got.ind.tolist() == [0, 2] and got.dep.tolist() == [1]
        assert got.regroup[:, 0].tolist() == [c, 0.0]
        assert base_map_oracle.select_columns(A)[0].tolist() == [0, 2]


def _selection(m):
    return ([m.inertial_columns, m.joint_masks] + list(m.joint_idcols)
            + list(m.joint_depcols))


@pytest.mark.parametrize("name", ["ur10", "toy"])
@pytest.mark.parametrize("seed", range(4))
def test_base_map_matches_oracle(name, seed):
    chain = ur10_chain() if name == "ur10" else TOY
    n = chain.n
    Y = regressor_stack(chain, *probe_states(n, 200, seed))
    _check_split(Y.reshape(-1, Y.shape[2])[:, :N_INERTIAL * n])
    got = compute_base_map(chain, seed=seed)
    want = base_map_oracle.compute_base_map(chain, seed=seed)
    assert np.array_equal(got.inertial_columns, want.inertial_columns)
    assert np.array_equal(got.joint_masks, want.joint_masks)
    assert np.max(np.abs(got.recombination - want.recombination)) < 1e-12
    for j in range(n):
        assert np.array_equal(got.joint_idcols[j], want.joint_idcols[j])
        assert np.array_equal(got.joint_depcols[j], want.joint_depcols[j])
        assert np.max(np.abs(got.joint_regroup[j] - want.joint_regroup[j]),
                      initial=0.0) < 1e-12
    # the selection is the chain's, not the probe seed's
    first = compute_base_map(chain, seed=0)
    for x, y in zip(_selection(got), _selection(first), strict=True):
        assert np.array_equal(x, y)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_base_map_selection_survives_rounding(bmap, seed):
    # a relative change of 1e-13 in every regressor entry, far above the
    # rounding that separates two builds of the same regressor, leaves
    # every column choice as it was
    rng = np.random.default_rng(seed)

    def perturbed(*args):
        Y = regressor_stack(*args)
        return Y * (1.0 + 1e-13 * rng.standard_normal(Y.shape))

    with mock.patch.object(reduction, "regressor_stack", perturbed):
        got = compute_base_map(ur10_chain())
    for x, y in zip(_selection(got), _selection(bmap), strict=True):
        assert np.array_equal(x, y)


def test_base_map_factorises_each_matrix_once(chain, monkeypatch):
    # one tall unpivoted numpy QR for the probe stack and one per joint
    # row; every other step works on the small R
    qr, rows = np.linalg.qr, []

    def counted(a, *args, **kwargs):
        rows.append(a.shape[0])
        return qr(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("second factorisation of a tall matrix")

    monkeypatch.setattr(np.linalg, "qr", counted)
    for name in ("svd", "lstsq", "pinv"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    compute_base_map(chain, n_probe=200)
    tall = [m for m in rows if m >= 200]
    assert tall == [1200] + [200] * 6
    assert max(m for m in rows if m < 200) <= 60  # R's own rows


def test_equivalence_on_fresh_states(bmap, chain):
    rng = np.random.default_rng(314)
    params = random_params(6, rng)
    pi = params.to_vector()
    base = bmap.base_parameters(params)
    Q, Qd, Qdd = probe_states(6, 200, seed=2718)
    from dynid.dynamics import regressor_stack
    Y = regressor_stack(chain, Q, Qd, Qdd)
    Yhat = minimal_regressor_stack(bmap, chain, Q, Qd, Qdd)
    full = Y @ pi
    red = Yhat @ base
    denom = 1.0 + np.abs(full)
    assert np.max(np.abs(red - full) / denom) < 1e-8


def test_projection_matrix_equivalence(bmap, chain):
    rng = np.random.default_rng(99)
    params = random_params(6, rng)
    P = bmap.projection_matrix()
    assert P.shape == (bmap.c, 78)
    assert np.allclose(P @ params.to_vector(), bmap.base_parameters(params),
                       atol=1e-12)
    assert np.linalg.matrix_rank(P) == bmap.c


def test_count_stable_under_more_probes(chain, bmap):
    # the selected basis may differ between probe sets; the count may not
    doubled = compute_base_map(chain, n_probe=400)
    assert doubled.c_inertial == bmap.c_inertial
    assert doubled.c == bmap.c


def test_count_stable_across_seeds(chain, bmap):
    other = compute_base_map(chain, seed=1)
    assert other.c_inertial == bmap.c_inertial
    assert other.c == bmap.c


def test_determinism(chain, bmap):
    again = compute_base_map(chain)
    assert np.array_equal(again.recombination, bmap.recombination)
    assert np.array_equal(again.inertial_columns, bmap.inertial_columns)
    for j in range(6):
        assert np.array_equal(again.joint_masks[j], bmap.joint_masks[j])
        assert np.array_equal(again.joint_regroup[j], bmap.joint_regroup[j])


def test_chain_mismatch_rejected(bmap):
    # a map pairs only with a chain of its joint count: every estimation
    # stage meets the check where it reads the regressor
    # (estimation._joint_columns), and minimal_regressor_stack meets the
    # same one, which names both counts
    z = np.zeros((2, 2))
    runs = [SampleSet(t=[0.0, 0.008], q=z, qd=z, qdd=z, v=z, scenario=tag)
            for tag in "ab"]
    chi = np.zeros((6, bmap.c))
    known = KnownPayload(spec=PayloadSpec(mass=1.0, com=(0.0, 0.0, 0.0),
                                          inertia_com=np.zeros((3, 3))),
                         known=("mass",))
    psi = FrictionSet.from_linear(np.zeros(2), np.zeros(2), np.zeros(2))
    calls = {
        "minimal_regressor_stack":
            lambda: minimal_regressor_stack(bmap, TOY, z, z, z),
        "identify_coefficients":
            lambda: identify_coefficients(bmap, TOY, runs[0]),
        "predict_currents":
            lambda: predict_currents(bmap, TOY, chi, z, z, z),
        "friction_residual_currents":
            lambda: friction_residual_currents(bmap, TOY, chi, runs[0]),
        "estimate_gains":
            lambda: estimate_gains(*runs, known, bmap, TOY, chi, psi),
    }
    raised = {}
    for name, call in calls.items():
        try:
            call()
        except ValueError as e:
            raised[name] = str(e)
    assert raised == dict.fromkeys(calls, "map is for 6 joints, chain has 2")


def test_zero_state_structure(bmap, chain):
    st = JointState(q=(0.0,) * 6, qd=(0.0,) * 6, qdd=(0.0,) * 6)
    z = np.zeros((1, 6))
    Yh = minimal_regressor_stack(bmap, chain, z, z, z)[0]
    c_in = bmap.c_inertial
    for j in range(6):
        # friction columns collapse to the offset indicator
        fcols = bmap.friction_columns(j)
        assert Yh[j, fcols[0]] == 1.0
        assert Yh[j, fcols[1]] == 0.0 and Yh[j, fcols[2]] == 0.0
        # other joints' friction columns are invisible to this row
        for k in range(6):
            if k != j:
                assert np.all(Yh[j, bmap.friction_columns(k)] == 0.0)
    # inertial part at rest carries gravity information only: the surviving
    # columns are exactly the static (gravity) regressor's selected columns
    from dynid.dynamics import regressor
    Y = regressor(chain, st)
    assert np.array_equal(Yh[:, :c_in], Y[:, :60][:, bmap.inertial_columns])


def test_regroup_preserves_joint_prediction(bmap, chain):
    rng = np.random.default_rng(7)
    Q, Qd, Qdd = probe_states(6, 40, seed=123)
    U = minimal_regressor_stack(bmap, chain, Q, Qd, Qdd)
    coeffs = rng.normal(size=bmap.c)
    for j in range(6):
        folded = bmap.regroup_for_joint(j, coeffs)
        assert np.all(folded[list(bmap.joint_depcols[j])] == 0.0)
        err = np.max(np.abs(U[:, j] @ coeffs - U[:, j] @ folded))
        assert err < 1e-10


def test_probe_states_seeded():
    a = probe_states(6, 50, seed=1)
    b = probe_states(6, 50, seed=1)
    c = probe_states(6, 50, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], c[0])
    assert a[0].shape == (50, 6)


def test_show_base_structure_script_runs(tmp_path):
    # the script imports regressor_stack and minimal_regressor_stack, and
    # no other test runs it
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynid.__file__)))
    script = os.path.join(os.path.dirname(src), "scripts",
                          "show_base_structure.py")
    out = subprocess.run([sys.executable, script], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "base parameters: c = 54   inertial: c_in = 36" in lines
    assert ("across probe seeds [0, 1, 2, 3]: counts stable, column "
            "selection identical") in lines
    assert sum(line.startswith("probe seed ") for line in lines) == 4
