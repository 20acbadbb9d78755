import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import estimation_oracle
import irls_oracle
from irls_oracle import wlse
from dynid import dynamics, estimation, reduction
from dynid.dataio import RobotModel, SampleSet, merge_sample_sets, simulate
from dynid.dynamics import (N_FRICTION, N_INERTIAL, FrictionSet,
                            InertialParameters, friction_linear,
                            friction_sigmoid, regressor_stack)
from dynid.estimation import (CurrentCoefficients, EstimationError,
                              ExcitationError, IdentifiabilityError,
                              KnownPayload, WeightMatrix, estimate_gains,
                              fit_friction, friction_residual_currents,
                              identify_coefficients, predict_currents,
                              robust_weights)
from dynid.kinematics import DhRow, KinematicChain
from dynid.payload import PayloadSpec
from dynid.reduction import (compute_base_map, minimal_columns,
                             minimal_regressor_stack, split_columns)
from dynid.solver import torque
from dynid.trajectory import FourierTrajectory, random_trajectory

TOY = KinematicChain(rows=(DhRow(0.3, 0.4, 0.1), DhRow(0.25, -1.2, 0.05)),
                     gravity=(0.0, -9.80665, 0.0))

REFERENCE_FRICTION = (
    (1.0640, -1.0066, 2.0506, 7.9467, -0.0185),
    (0.9944, 0.9563, -2.4017, -59.9536, -0.0019),
    (0.6796, -0.8120, 1.6478, 19.8251, -0.0053),
    (0.3159, -0.1767, 0.4688, 134.8982, -0.0186),
    (0.2244, -0.1924, 0.4760, 331.4421, -0.0118),
    (0.2358, -0.2453, 0.5980, 459.1933, -0.0130),
)


def _friction_from_rows(rows):
    cols = list(zip(*rows))
    return FrictionSet(f_o=cols[0], f_v=cols[1], f_c=cols[2], delta=cols[3],
                       nu=cols[4])


# ---------------------------------------------------------------------------
# least-squares core

def _llse(stack, rhs):
    """Linear least-squares estimate: the package's full-rank solve."""
    return estimation._lstsq(stack, rhs)


def test_llse_identity():
    assert np.array_equal(_llse(np.eye(3), np.array([1.0, 2.0, 3.0])),
                          np.array([1.0, 2.0, 3.0]))


def test_llse_hand_case():
    # normal equations: [[2,1],[1,2]] x = [3,4] -> x = (2/3, 5/3)
    A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0, 2.0])
    assert np.allclose(_llse(A, b), [2.0 / 3.0, 5.0 / 3.0], atol=1e-12)


def test_llse_recovers_construction():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 5))
    x = rng.standard_normal(5)
    assert np.max(np.abs(_llse(A, A @ x) - x)) < 1e-10


def test_llse_names_dependent_columns():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((30, 4))
    A[:, 3] = 2.0 * A[:, 1]  # exact dependency
    with pytest.raises(IdentifiabilityError, match="dependent columns"):
        _llse(A, rng.standard_normal(30))
    # two planted dependencies: the message names p - rank columns, and
    # the stack without them has full rank
    B = rng.standard_normal((30, 6))
    B[:, 2] = 2.0 * B[:, 4]
    B[:, 5] = B[:, 0] - 0.5 * B[:, 1]
    with pytest.raises(IdentifiabilityError) as info:
        _llse(B, rng.standard_normal(30))
    found = re.search(r"rank (\d+) of (\d+)\); dependent columns \[(.*)\]",
                      str(info.value))
    rank, p = int(found[1]), int(found[2])
    named = [int(k) for k in found[3].split(",")]
    assert (rank, p) == (4, 6) and len(named) == p - rank
    kept = np.delete(B, named, axis=1)
    assert np.linalg.matrix_rank(kept) == kept.shape[1] == rank


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(20, 300),
       p=st.integers(1, 15),
       log_cond=st.floats(0.0, np.log10(estimation.CONDITION_LIMIT)),
       tan=st.sampled_from([0.0, 0.01, 1.0, 10.0]))
def test_lstsq_within_perturbation_bound(seed, m, p, log_cond, tan):
    # A = U diag(s) V^T with singular values from 1 down to 1/cond, and
    # the rhs A x plus a residual orthogonal to A's range, tan times as
    # long as A x, so x is the exact least-squares solution.  A stable
    # solve lands within a small multiple of eps (cond + cond^2 tan) of it
    # (Golub & Van Loan, Matrix Computations, sec. 5.3).  Over 16000 such
    # draws the split reached 1.13 of that scale and np.linalg.lstsq 13.7.
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.standard_normal((m, p + 1)))
    V, _ = np.linalg.qr(rng.standard_normal((p, p)))
    s = np.geomspace(1.0, 10.0 ** -log_cond, p)
    A = (U[:, :p] * s) @ V.T
    x = rng.standard_normal(p)
    b = A @ x
    b = b + U[:, p] * (tan * np.linalg.norm(b))
    cond = s[0] / s[-1]
    bound = np.finfo(float).eps * (cond + cond**2 * tan)
    got = estimation._lstsq(A, b)
    assert np.linalg.norm(got - x) <= 4.0 * bound * np.linalg.norm(x)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(20, 120),
       p=st.integers(2, 15))
def test_lstsq_names_split_dependent_columns(seed, m, p):
    # d planted dependencies, anywhere: the error names the columns
    # split_columns finds dependent, p - rank of them
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, p)) * rng.uniform(0.1, 10.0, p)
    d = int(rng.integers(1, p))
    dep = rng.choice(p, size=d, replace=False)
    keep = np.setdiff1d(np.arange(p), dep)
    A[:, dep] = A[:, keep] @ rng.standard_normal((keep.size, d))
    split = split_columns(A)
    with pytest.raises(IdentifiabilityError) as info:
        estimation._lstsq(A, rng.standard_normal(m))
    assert split.dep.size == d
    assert str(info.value) == (f"rank-deficient stack (rank {p - d} of {p}); "
                               f"dependent columns {split.dep.tolist()}")


def test_wlse_unit_weights_match_llse():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((25, 4))
    b = rng.standard_normal(25)
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    assert np.allclose(wlse(A, b, np.ones(25)), ref, atol=1e-13)


def test_wlse_weight_two_equals_duplicated_row():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 3))
    b = rng.standard_normal(12)
    w = np.ones(12)
    w[4] = 2.0
    A2 = np.vstack([A, A[4:5]])
    b2 = np.concatenate([b, b[4:5]])
    assert np.allclose(wlse(A, b, w), _llse(A2, b2), atol=1e-12)


def test_wlse_inverse_variance_beats_ols():
    # alternating noise levels; weighting by 1/sigma^2 must lower the
    # estimator variance in every coordinate
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 3))
    x = np.array([1.0, -2.0, 0.5])
    sigma = np.where(np.arange(40) % 2 == 0, 0.05, 0.5)
    w = 1.0 / sigma**2
    ols, wls = [], []
    for _ in range(200):
        b = A @ x + sigma * rng.standard_normal(40)
        ols.append(_llse(A, b))
        wls.append(wlse(A, b, w))
    var_ols = np.var(np.array(ols), axis=0)
    var_wls = np.var(np.array(wls), axis=0)
    assert np.all(var_wls < var_ols)


def test_wlse_weight_shape_checked():
    with pytest.raises(ValueError, match="one weight per"):
        wlse(np.ones((4, 2)), np.ones(4), np.ones(3))


def test_wlse_rejects_negative_weights(capfd):
    # a negative weight has no real square root; it must be named, not
    # surface as LAPACK noise and "SVD did not converge"
    rng = np.random.default_rng(9)
    A = rng.standard_normal((8, 2))
    w = np.ones(8)
    w[3] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        wlse(A, rng.standard_normal(8), w)
    assert capfd.readouterr().err == ""


def test_wlse_rejects_nonfinite_rhs():
    b = np.ones(6)
    b[2] = np.nan
    with pytest.raises(ValueError, match="rhs holds non-finite"):
        wlse(np.ones((6, 2)) + np.eye(6, 2), b, np.ones(6))


def test_weight_matrix_validation():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        WeightMatrix(np.array([np.inf, 1.0]))
    wm = WeightMatrix(np.array([1.0, 0.0]))
    assert wm.converged and wm.iterations == 0


def test_condition_from_the_split():
    # s_max/s_min of the stack, from the triangular factor of its split,
    # within rounding of np.linalg.cond; a dependent column gives inf
    # without a warning (warnings fail the suite)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((40, 4)) * [1.0, 3.0, 1e-3, 1e2]
    got = estimation._condition(split_columns(A))
    assert abs(got - np.linalg.cond(A)) <= 1e-12 * got
    A[:, 2] = 0.0
    assert estimation._condition(split_columns(A)) == np.inf


def test_robust_weights_clean_data():
    # small clean sample: all weights stay near one
    rng = np.random.default_rng(8)
    A = np.column_stack([np.ones(20), np.linspace(0.0, 1.0, 20)])
    y = A @ np.array([1.0, 2.0]) + 0.01 * rng.standard_normal(20)
    wm = robust_weights(A, y)
    assert wm.converged
    assert np.all(wm.w >= 0.8) and np.all(wm.w <= 1.0)


def test_robust_weights_kill_gross_outlier():
    rng = np.random.default_rng(8)
    A = np.column_stack([np.ones(20), np.linspace(0.0, 1.0, 20)])
    y = A @ np.array([1.0, 2.0]) + 0.01 * rng.standard_normal(20)
    y[7] += 5.0  # several hundred sigma
    wm = robust_weights(A, y)
    assert wm.w[7] == 0.0  # bisquare drops the row entirely
    assert np.max(np.abs(wm.coef - [1.0, 2.0])) < 0.05
    assert np.allclose(wm.coef, wlse(A, y, wm), rtol=0, atol=1e-13)
    # the unweighted fit absorbs the outlier and lands far away
    assert np.max(np.abs(_llse(A, y) - [1.0, 2.0])) > 0.2


def test_robust_weights_degenerate_scale():
    A = np.column_stack([np.ones(10), np.arange(10.0)])
    y = A @ np.array([0.3, -0.2])  # exact fit, zero residual scale
    wm = robust_weights(A, y)
    assert wm.converged
    assert np.array_equal(wm.w, np.ones(10))


def test_robust_weights_rejects_nonfinite_rhs():
    # a NaN once came back as all-zero weights marked converged
    A = np.column_stack([np.ones(10), np.arange(10.0)])
    y = np.ones(10)
    y[4] = np.nan
    with pytest.raises(ValueError, match="rhs holds non-finite"):
        robust_weights(A, y)


def test_robust_weights_rejects_nonfinite_stack():
    A = np.column_stack([np.ones(10), np.arange(10.0)])
    A[2, 1] = np.inf
    with pytest.raises(ValueError, match="stack holds non-finite"):
        robust_weights(A, np.ones(10))


def test_robust_weights_rejects_1d_stack():
    with pytest.raises(ValueError, match="stack must be 2-D"):
        robust_weights(np.arange(10.0), np.ones(10))


def test_robust_weights_rejects_short_rhs():
    A = np.column_stack([np.ones(10), np.arange(10.0)])
    with pytest.raises(ValueError, match="one entry per stack row"):
        robust_weights(A, np.ones(9))


def _irls_case(seed, m, p, kind, heavy):
    """A random stack and rhs; for kind "dead", also the rows that alone
    support one column, each a gross outlier."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, p)) * rng.uniform(0.1, 10.0, p)
    noise = rng.standard_t(1.5, m) if heavy else rng.standard_normal(m)
    b = A @ rng.standard_normal(p) + 0.1 * noise
    rows = None
    if kind == "deficient":
        A[:, -1] = A[:, :-1] @ rng.standard_normal(p - 1)
    elif kind == "dead":
        k = int(rng.integers(p))
        rows = rng.choice(m, size=int(rng.integers(3, 7)), replace=False)
        A[rows] = 0.0
        A[:, k] = 0.0
        A[rows, k] = rng.uniform(0.5, 2.0, rows.size)
        b[rows] += 1e3 * (-1.0) ** np.arange(rows.size)
    return A, b, rows


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(20, 120),
       p=st.integers(2, 6), kind=st.sampled_from(["full", "deficient",
                                                   "dead"]),
       heavy=st.booleans())
def test_robust_weights_match_lstsq_oracle(seed, m, p, kind, heavy):
    A, b, rows = _irls_case(seed, m, p, kind, heavy)
    want = irls_oracle.robust_weights(A, b)
    got = robust_weights(A, b)
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    if rows is not None:
        # every row supporting the column ends zero-weighted, so the last
        # solves leave that direction of the range unobserved
        assert np.all(want.w[rows] == 0.0)
    # an IRLS still cycling after WEIGHT_MAX_ITER amplifies rounding, so
    # its last weights are not reproducible: on such draws (about 1 in 125)
    # the oracle's own weights move by up to 0.07 when the rows are merely
    # reversed.  Only settled weights are compared.
    if want.converged:
        assert np.max(np.abs(got.w - want.w)) < 1e-9


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(20, 120),
       p=st.integers(2, 6), kind=st.sampled_from(["full", "deficient",
                                                   "dead"]),
       heavy=st.booleans())
def test_robust_fit_matches_weighted_split_oracle(seed, m, p, kind, heavy):
    # the fit's r-row weighted system against split_columns of the m-row
    # weighted stack at the fit's own weights: the same independent
    # columns, and coefficients within rounding of the weighted condition
    A, b, rows = _irls_case(seed, m, p, kind, heavy)
    got = robust_weights(A, b)
    coef, independent = irls_oracle.split_solve(A, b, got.w)
    assert np.array_equal(got.independent, independent)
    if rows is not None:
        # its only support is zero-weighted: the weighted stack does not
        # see the dead column, which stage 1 refuses and stage 3 regroups
        dead = np.flatnonzero(np.all(A[np.setdiff1d(np.arange(m), rows)]
                                     == 0.0, axis=0))
        assert dead.size == 1 and not got.independent[dead[0]]
    assert np.all(got.coef[~independent] == 0.0)
    kept = A[:, independent] * np.sqrt(got.w)[:, None]
    cond = np.linalg.cond(kept) if kept.size else 1.0
    assert np.max(np.abs(got.coef - coef), initial=0.0) <= \
        1e-9 * cond * max(1.0, np.max(np.abs(coef)))


@pytest.mark.parametrize("m", [1, 2, 7, 8, 1001, 1002])
def test_mad_scale_median_is_np_median_bitwise(m):
    rng = np.random.default_rng(m)
    for x in (rng.standard_normal(m), rng.standard_t(1.5, m),
              np.round(rng.standard_normal(m), 1)):  # ties
        before = x.copy()
        buf = x.copy()
        assert estimation._median(buf) == np.median(x)
        want = np.median(np.abs(x - np.median(x))) / 0.6745
        assert estimation._mad_scale(x) == float(want)
        assert np.array_equal(x, before)  # the caller's residual is kept


# ---------------------------------------------------------------------------
# stage 1

def test_current_coefficients_container(stage1, bmap):
    C = stage1.as_matrix()
    assert C.shape == (6, bmap.c)
    for j in range(6):
        assert np.array_equal(stage1.block(j), C[j])
    assert stage1.c == bmap.c
    assert all(cond < 1e8 for cond in stage1.conditions)
    assert all(m > bmap.c for m in stage1.sample_counts)
    with pytest.raises(ValueError):
        CurrentCoefficients(n=6, chi=np.zeros(5), conditions=(1.0,) * 6,
                            sample_counts=(100,) * 6)


def test_identify_zero_currents_give_zero_model(bmap, chain, data_a):
    quiet = dataclasses.replace(data_a, v=np.zeros_like(data_a.v))
    chi = identify_coefficients(bmap, chain, quiet)
    assert np.array_equal(chi.as_matrix(), np.zeros((6, bmap.c)))


def test_identify_rejects_still_trajectory(bmap, chain, plant):
    still = FourierTrajectory(q0=(0.3, -0.5, 0.4, 0.1, 0.2, -0.1),
                              a=np.zeros((6, 1)), b=np.zeros((6, 1)),
                              period=10.0)
    ds = simulate(plant, still, duration=4.0)
    with pytest.raises(ExcitationError, match="linearity-region samples"):
        identify_coefficients(bmap, chain, ds)


def test_identify_is_idempotent_on_own_prediction(bmap, chain, stage1,
                                                  data_a):
    v_syn = predict_currents(bmap, chain, stage1, data_a.q, data_a.qd,
                             data_a.qdd)
    ds = dataclasses.replace(data_a, v=v_syn)
    chi2 = identify_coefficients(bmap, chain, ds)
    a = stage1.as_matrix()
    b = chi2.as_matrix()
    assert np.max(np.abs(a - b)) < 1e-8 * max(1.0, np.max(np.abs(a)))


def test_predict_currents_zero_and_single(bmap, chain, stage1, data_a):
    zeros = np.zeros((6, bmap.c))
    assert np.array_equal(
        predict_currents(bmap, chain, zeros.ravel(), data_a.q[:5],
                         data_a.qd[:5], data_a.qdd[:5]),
        np.zeros((5, 6)))
    batch = predict_currents(bmap, chain, stage1, data_a.q[:5], data_a.qd[:5],
                             data_a.qdd[:5])
    one = predict_currents(bmap, chain, stage1, data_a.q[2], data_a.qd[2],
                           data_a.qdd[2])
    assert one.shape == (6,)
    assert np.array_equal(one, batch[2])
    none = predict_currents(bmap, chain, stage1, data_a.q[:0], data_a.qd[:0],
                            data_a.qdd[:0])
    assert none.shape == (0, 6)


def test_friction_residual_decomposition(bmap, chain, stage1, data_a):
    # v - residual is the inertial part; adding each joint's own linear
    # friction columns back must reproduce the full stage-1 prediction
    resid = friction_residual_currents(bmap, chain, stage1, data_a)
    inertial = data_a.v - resid
    C = stage1.as_matrix()
    fric = np.empty_like(inertial)
    for j in range(6):
        tri = C[j, bmap.friction_columns(j)]
        fric[:, j] = friction_linear([tri], data_a.qd[:, j:j + 1])[:, 0]
    full = predict_currents(bmap, chain, stage1, data_a.q, data_a.qd,
                            data_a.qdd)
    assert np.max(np.abs(inertial + fric - full)) < 1e-9


def test_prediction_is_what_the_residual_subtracts(bmap, chain, stage1,
                                                   data_a):
    # one evaluator of the stage-1 model: with chi's linear friction
    # zeroed, predict_currents is bitwise the part friction_residual_currents
    # subtracts from the measured current, here from stage 1's kept columns
    C = stage1.as_matrix().copy()
    for j in range(6):
        C[j, bmap.friction_columns(j)] = 0.0
    model = predict_currents(bmap, chain, C, data_a.q, data_a.qd, data_a.qdd)
    resid = friction_residual_currents(bmap, chain, stage1, data_a)
    assert (data_a.v - model).tobytes() == resid.tobytes()


@pytest.fixture(scope="module")
def toy_map():
    return compute_base_map(TOY)


@pytest.fixture(scope="module")
def known():
    """The conftest payload, known as mass and com as stage3 has it."""
    return KnownPayload(spec=PayloadSpec(
        mass=4.8, com=(0.10, 0.06, 0.05),
        inertia_com=np.diag((0.030, 0.035, 0.030))), known=("mass", "com"))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 40),
       toy=st.booleans())
def test_friction_residual_matches_newton_euler_oracle(seed, m, toy, chain,
                                                       bmap, toy_map):
    # random chi blocks and states: the minimal regressor's inertial
    # columns times chi_j give what Newton-Euler gives for joint j's set
    ch, mp = (TOY, toy_map) if toy else (chain, bmap)
    rng = np.random.default_rng(seed)
    n = ch.n
    samples = SampleSet(t=np.arange(m) * 0.008,
                        q=rng.uniform(-np.pi, np.pi, (m, n)),
                        qd=rng.uniform(-3.0, 3.0, (m, n)),
                        qdd=rng.uniform(-10.0, 10.0, (m, n)),
                        v=rng.standard_normal((m, n)))
    chi = rng.standard_normal((n, mp.c)) * 10.0 ** rng.uniform(-2, 1, mp.c)
    got = friction_residual_currents(mp, ch, chi, samples)
    want = estimation_oracle.friction_residual_currents(mp, ch, chi, samples)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40),
       toy=st.booleans())
def test_predict_currents_matches_newton_euler_oracle(seed, m, toy, chain,
                                                      bmap, toy_map):
    # random chi over all c columns: each joint's minimal-regressor row
    # times its block gives Newton-Euler on that block plus the joint's
    # linear friction, sgn(0) = 0 included; one state is its batch row
    ch, mp = (TOY, toy_map) if toy else (chain, bmap)
    rng = np.random.default_rng(seed)
    n = ch.n
    q = rng.uniform(-np.pi, np.pi, (m, n))
    qd = rng.uniform(-3.0, 3.0, (m, n))
    qd[rng.random((m, n)) < 0.1] = 0.0
    qdd = rng.uniform(-10.0, 10.0, (m, n))
    chi = rng.standard_normal((n, mp.c)) * 10.0 ** rng.uniform(-2, 1, mp.c)
    got = predict_currents(mp, ch, chi, q, qd, qdd)
    want = estimation_oracle.predict_currents(mp, ch, chi, q, qd, qdd)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    k = int(rng.integers(m))
    one = predict_currents(mp, ch, chi, q[k], qd[k], qdd[k])
    assert one.shape == (n,) and np.array_equal(one, got[k])


def _count_regressor_builds(monkeypatch) -> list[int]:
    """Patch regressor_stack wherever a dynid module binds it; the list
    receives each call's state count."""
    real = dynamics.regressor_stack
    calls = []

    def counting(chain, Q, Qd, Qdd):
        calls.append(len(Q))
        return real(chain, Q, Qd, Qdd)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dynid.") and \
                getattr(mod, "regressor_stack", None) is real:
            monkeypatch.setattr(mod, "regressor_stack", counting)
    return calls


def _assert_built_once(calls, totals):
    """The calls build, one after another, each total's states once, in
    blocks of at most dynamics.BLOCK_STATES states."""
    assert all(0 < c <= dynamics.BLOCK_STATES for c in calls)
    rest = iter(calls)
    for total in totals:
        built = 0
        while built < total:
            built += next(rest)
        assert built == total
    assert next(rest, None) is None


def test_one_identification_builds_each_regressor_once(
        bmap, chain, data_a, data_b_pay, known, monkeypatch):
    # stage 1 builds run a's regressor and stage 3 run b's; the friction
    # residual and stage 3 read run a's from stage 1's result
    calls = _count_regressor_builds(monkeypatch)
    chi = identify_coefficients(bmap, chain, data_a)
    resid = friction_residual_currents(bmap, chain, chi, data_a)
    fit = fit_friction(data_a.qd, resid, threshold=data_a.qd_threshold)
    estimate_gains(data_a, data_b_pay, known, bmap, chain, chi, fit.friction)
    _assert_built_once(calls, [data_a.m, data_b_pay.m])


def test_unshared_regressor_gives_bitwise_the_same(
        bmap, chain, data_a, data_b_pay, known, stage1, stage2, stage3,
        monkeypatch):
    # coefficients without a kept regressor (as from a model file), on a
    # copy of the samples, build their own and give the same bits
    bare = dataclasses.replace(stage1)
    copy = dataclasses.replace(data_a)
    assert bare == stage1 and "_fitted_on" not in repr(stage1)
    calls = _count_regressor_builds(monkeypatch)
    resid = friction_residual_currents(bmap, chain, bare, copy)
    _assert_built_once(calls, [data_a.m])
    assert np.array_equal(
        resid, friction_residual_currents(bmap, chain, stage1, data_a))
    assert np.array_equal(
        resid, friction_residual_currents(bmap, chain, stage1.as_matrix(),
                                          data_a))
    est = estimate_gains(copy, data_b_pay, known, bmap, chain, bare,
                         stage2.friction)
    assert np.array_equal(est.gains, stage3.gains)
    assert all(np.array_equal(a, b) for a, b in zip(est.zeta, stage3.zeta))


def test_caller_arrays_changed_after_stage_1_leave_the_samples(bmap, chain,
                                                               data_a):
    # the samples hold read-only copies, so a caller changing its own
    # array after stage 1 changes neither them nor the residual that
    # stage 1's kept columns give: it matches a fresh gather bitwise
    q = np.array(data_a.q)
    samples = SampleSet(t=data_a.t, q=q, qd=data_a.qd, qdd=data_a.qdd,
                        v=data_a.v)
    chi = identify_coefficients(bmap, chain, samples)
    q += 0.01
    assert np.array_equal(samples.q, data_a.q)
    for name in ("t", "q", "qd", "qdd", "v"):
        assert not getattr(samples, name).flags.writeable
    assert np.array_equal(
        friction_residual_currents(bmap, chain, chi, samples),
        friction_residual_currents(bmap, chain, dataclasses.replace(chi),
                                   samples))


def test_each_identification_builds_its_own_regressor(bmap, chain, data_a,
                                                      monkeypatch):
    calls = _count_regressor_builds(monkeypatch)
    identify_coefficients(bmap, chain, data_a)
    identify_coefficients(bmap, chain, data_a)
    _assert_built_once(calls, [data_a.m, data_a.m])


def test_identification_builds_no_minimal_regressor(
        bmap, chain, data_a, data_b_pay, known, stage1, stage3, monkeypatch):
    # stages 1-3 and predict_currents read each joint's active columns
    # straight from the regressor blocks, kept or gathered; no minimal
    # regressor is sliced
    def forbidden(*args, **kwargs):
        raise AssertionError("an identification sliced a minimal regressor")

    for name in ("minimal_regressor_stack", "minimal_columns"):
        real = getattr(reduction, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("dynid") and \
                    getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, forbidden)
    chi = identify_coefficients(bmap, chain, data_a)
    for c in (chi, chi.as_matrix()):
        resid = friction_residual_currents(bmap, chain, c, data_a)
        fit = fit_friction(data_a.qd, resid, threshold=data_a.qd_threshold)
        est = estimate_gains(data_a, data_b_pay, known, bmap, chain, c,
                             fit.friction)
        assert np.array_equal(est.gains, stage3.gains)
        predict_currents(bmap, chain, c, data_a.q, data_a.qd, data_a.qdd)
    assert np.array_equal(chi.chi, stage1.chi)


def test_stage1_keeps_only_active_columns(bmap, chain, data_a, stage1):
    # one (a_j, M) array per joint, joint j's minimal-regressor row on its
    # a_j active inertial columns: 8 M sum_j a_j bytes, each its own buffer
    kept = stage1._fitted_on[3]
    active = [np.flatnonzero(m[:bmap.c_inertial]) for m in bmap.joint_masks]
    assert sum(K.nbytes for K in kept) == \
        8 * data_a.m * sum(a.size for a in active)
    assert all(K.base is None for K in kept)
    U = minimal_regressor_stack(bmap, chain, data_a.q, data_a.qd,
                                data_a.qdd)
    for j, (K, a) in enumerate(zip(kept, active)):
        assert K.tobytes() == np.ascontiguousarray(U[:, j, a].T).tobytes()


# ---------------------------------------------------------------------------
# the regressor streamed in blocks of states

def _every_fifth(samples: SampleSet) -> SampleSet:
    return dataclasses.replace(samples, **{
        k: getattr(samples, k)[::5] for k in ("t", "q", "qd", "qdd", "v")})


@pytest.fixture(scope="module")
def toy_runs(toy_map):
    """A noiseless TOY plant's runs without and with a payload (500 states
    each), the payload known as mass and com, and the current-level
    friction of the plant."""
    links = (InertialParameters.from_com(3.0, (0.12, 0.01, 0.02),
                                         np.diag((0.02, 0.03, 0.025))),
             InertialParameters.from_com(1.5, (0.1, -0.01, 0.03),
                                         np.diag((0.01, 0.012, 0.008))))
    fric = FrictionSet(f_o=(0.3, -0.2), f_v=(4.0, 2.5), f_c=(1.0, 0.7),
                       delta=(80.0, 120.0), nu=(-0.01, 0.005))
    plant = RobotModel(name="toy", chain=TOY, links=links, friction=fric,
                       gains=(14.0, 12.0))
    pay = PayloadSpec(mass=3.0, com=(0.05, 0.03, 0.02),
                      inertia_com=np.diag((0.004, 0.005, 0.003)))
    da = simulate(plant, random_trajectory(2, seed=5), duration=20.0)
    db = simulate(plant, random_trajectory(2, seed=6), duration=20.0,
                  payload=pay)
    K = np.asarray(plant.gains)
    psi = FrictionSet(f_o=np.asarray(fric.f_o) / K,
                      f_v=np.asarray(fric.f_v) / K,
                      f_c=np.asarray(fric.f_c) / K, delta=fric.delta,
                      nu=fric.nu)
    return (TOY, toy_map, _every_fifth(da), _every_fifth(db),
            KnownPayload(spec=pay, known=("mass", "com")), psi)


def _streamed_outputs(ch, mp, da, db, known, psi) -> dict:
    """Every output that streams or fills from regressor blocks, with a kept
    stage-1 regressor and without one."""
    chi = identify_coefficients(mp, ch, da)
    bare = chi.as_matrix()
    k = da.m // 3
    out = {"minimal": minimal_regressor_stack(mp, ch, da.q, da.qd, da.qdd),
           "chi": chi.chi,
           "residual": friction_residual_currents(mp, ch, chi, da),
           "residual_bare": friction_residual_currents(mp, ch, bare, da),
           "predict": predict_currents(mp, ch, chi, da.q, da.qd, da.qdd),
           "predict_one": predict_currents(mp, ch, chi, da.q[k], da.qd[k],
                                           da.qdd[k])}
    for tag, c in (("kept", chi), ("bare", bare)):
        est = estimate_gains(da, db, known, mp, ch, c, psi)
        out[f"gains_{tag}"] = est.gains
        out[f"zeta_{tag}"] = np.concatenate(est.zeta)
    return out


@pytest.fixture(scope="module", params=["ur10", "toy"])
def streamed_case(request, bmap, chain, data_a, data_b_pay, known, stage2):
    """(inputs, outputs with the whole batch in one block) of one chain."""
    if request.param == "ur10":
        case = (chain, bmap, _every_fifth(data_a), _every_fifth(data_b_pay),
                known, stage2.friction)
    else:
        case = request.getfixturevalue("toy_runs")
    da = case[2]
    assert case[3].m == da.m
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_STATES", da.m)
        whole = _streamed_outputs(*case)
    # one block is one build of the whole batch
    assert whole["minimal"].tobytes() == minimal_columns(
        case[1], regressor_stack(case[0], da.q, da.qd, da.qdd)).tobytes()
    return case, whole


@pytest.mark.parametrize("size", ["1", "7", "M-1", "M", "M+1"])
def test_block_size_changes_no_output_bit(streamed_case, size, monkeypatch):
    case, whole = streamed_case
    m = case[2].m
    block = {"1": 1, "7": 7, "M-1": m - 1, "M": m, "M+1": m + 1}[size]
    monkeypatch.setattr(dynamics, "BLOCK_STATES", block)
    got = _streamed_outputs(*case)
    assert [k for k in whole if got[k].tobytes() != whole[k].tobytes()] == []
    # a single state is its batch row; a kept regressor and a streamed
    # one give the same bits
    assert got["predict_one"].tobytes() == got["predict"][m // 3].tobytes()
    assert got["residual"].tobytes() == got["residual_bare"].tobytes()
    assert got["gains_kept"].tobytes() == got["gains_bare"].tobytes()
    assert got["zeta_kept"].tobytes() == got["zeta_bare"].tobytes()


def test_identification_peak_memory_below_one_full_regressor(bmap, chain,
                                                             noisy_runs):
    # at 7500 UR10 states each stage's traced peak, above what was held
    # when it started, stays below one full (M, n, 13n) regressor: only
    # the active columns stage 1 keeps and one block of states are ever
    # held, never a full regressor; stage 1 stays below one minimal
    # (M, n, c) regressor too
    da, db, known = noisy_runs
    full = da.m * chain.n * (N_INERTIAL + N_FRICTION) * chain.n * 8
    minimal = da.m * chain.n * bmap.c * 8

    def stages_2_3(chi):
        resid = friction_residual_currents(bmap, chain, chi, da)
        fit = fit_friction(da.qd, resid, threshold=da.qd_threshold)
        return estimate_gains(da, db, known, bmap, chain, chi, fit.friction)

    def peak_above_held(run):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - held

    tracemalloc.start()
    try:
        chi, stage1 = peak_above_held(
            lambda: identify_coefficients(bmap, chain, da))
        _, kept = peak_above_held(lambda: stages_2_3(chi))
        bare = chi.as_matrix()
        del chi
        _, streamed = peak_above_held(lambda: stages_2_3(bare))
    finally:
        tracemalloc.stop()
    peaks = {"stage 1": stage1, "stages 2-3": kept,
             "stages 2-3 without a kept regressor": streamed}
    assert {k: v for k, v in peaks.items() if v >= full} == {}
    assert stage1 < minimal


# ---------------------------------------------------------------------------
# stage 2

def test_fit_friction_needs_low_velocity_samples():
    rng = np.random.default_rng(0)
    qd = rng.uniform(0.5, 1.5, (300, 2))  # nothing below the threshold
    with pytest.raises(ExcitationError, match="need at least 50"):
        fit_friction(qd, np.zeros_like(qd), threshold=0.17)


def test_fit_friction_shape_guard():
    with pytest.raises(ValueError):
        fit_friction(np.zeros((10, 2)), np.zeros((10, 3)), threshold=0.17)


def test_fit_friction_affine_data_degrades_cleanly():
    # pure offset-plus-viscous data: the transition amplitude must vanish
    rng = np.random.default_rng(4)
    qd = rng.uniform(-0.3, 0.3, (600, 1))
    y = 0.4 - 0.9 * qd
    fit = fit_friction(qd, y, threshold=0.35)
    fs = fit.friction
    assert abs(fs.f_c[0]) < 1e-6
    assert abs(fs.f_o[0] + 0.5 * fs.f_c[0] - 0.4) < 1e-6
    assert abs(fs.f_v[0] + 0.9) < 1e-6


def test_fit_friction_reference_row_roundtrip():
    rng = np.random.default_rng(3)
    qd = rng.uniform(-0.4, 0.4, (2000, 1))
    gen = _friction_from_rows(REFERENCE_FRICTION[:1])
    fit = fit_friction(qd, friction_sigmoid(gen, qd), threshold=0.17)
    got = np.array([fit.friction.f_o[0], fit.friction.f_v[0],
                    fit.friction.f_c[0], fit.friction.delta[0],
                    fit.friction.nu[0]])
    want = np.array(REFERENCE_FRICTION[0])
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6


def test_fit_friction_canonicalizes_mirror_twin():
    # the sigmoid model is invariant under (f_o, f_c, delta) ->
    # (f_o + f_c, -f_c, -delta); the reported form is the smaller-norm twin
    twin = (0.7, 0.3, -0.5, -30.0, -0.01)
    canonical = (0.2, 0.3, 0.5, 30.0, -0.01)
    rng = np.random.default_rng(5)
    qd = rng.uniform(-0.4, 0.4, (1500, 1))
    gen = _friction_from_rows([twin])
    fit = fit_friction(qd, friction_sigmoid(gen, qd), threshold=0.17)
    got = np.array([fit.friction.f_o[0], fit.friction.f_v[0],
                    fit.friction.f_c[0], fit.friction.delta[0],
                    fit.friction.nu[0]])
    assert np.max(np.abs(got - np.array(canonical))) < 1e-6


def test_fit_friction_objective_non_increasing_and_beats_truth():
    rng = np.random.default_rng(6)
    qd = rng.uniform(-0.4, 0.4, (1200, 1))
    gen = _friction_from_rows(REFERENCE_FRICTION[2:3])
    y = friction_sigmoid(gen, qd) + 0.02 * rng.standard_normal((1200, 1))
    fit = fit_friction(qd, y, threshold=0.17)
    h = fit.histories[0]
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
    region = np.abs(qd[:, 0]) < 0.17
    sse_fit = np.sum((y[region, 0]
                      - friction_sigmoid(fit.friction, qd)[region, 0]) ** 2)
    sse_true = np.sum((y[region, 0]
                       - friction_sigmoid(gen, qd)[region, 0]) ** 2)
    assert sse_fit <= sse_true + 1e-12
    assert fit.region_counts[0] == int(region.sum())


def test_fit_friction_reaches_oracle_minimum_on_c04_data():
    rng = np.random.default_rng(3)
    qd = rng.uniform(-0.4, 0.4, (3000, 6))
    y = friction_sigmoid(_friction_from_rows(REFERENCE_FRICTION), qd)
    estimation_oracle.assert_reaches_minimum(qd, y, 0.17)


def test_fit_friction_reaches_oracle_minimum_on_stage2_data(
        bmap, chain, stage1, data_a, noisy_runs):
    # c05's inputs, noiseless and noisy; the parameters agree as well
    noisy = noisy_runs[0]
    for data, chi in ((data_a, stage1),
                      (noisy, identify_coefficients(bmap, chain, noisy))):
        resid = friction_residual_currents(bmap, chain, chi, data)
        estimation_oracle.assert_reaches_minimum(
            data.qd, resid, data.qd_threshold, param_rtol=1e-6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2),
       noise=st.floats(1e-3, 0.02))
@example(seed=2, n=2, noise=0.015625)  # a start steeper than 1000 s/rad
def test_fit_friction_reaches_oracle_minimum_on_drawn_sigmoids(seed, n,
                                                                noise):
    # a transition inside the region and a step well above the noise; a
    # slow transition near the region's edge can end in a higher minimum
    rng = np.random.default_rng(seed)

    def signed(lo, hi):
        return rng.choice([-1.0, 1.0], n) * rng.uniform(lo, hi, n)

    rows = np.column_stack([signed(0.1, 1.0), signed(0.1, 2.0),
                            signed(0.3, 2.0), signed(30.0, 400.0),
                            signed(0.005, 0.03)])
    qd = rng.uniform(-0.4, 0.4, (800, n))
    y = friction_sigmoid(_friction_from_rows(rows), qd) \
        + noise * rng.standard_normal(qd.shape)
    estimation_oracle.assert_reaches_minimum(qd, y, 0.17)


@pytest.mark.parametrize("row, noise", [
    # no sample resolves a 1e6 s/rad step, so the search climbs in delta:
    # past steps where sigma rounds to a constant on the region, and past
    # steps that would overflow exp(log delta)
    ((0.3, 0.5, 0.8, 1e6, 0.01), 1e-6),
    ((0.3, 0.5, 0.8, 1e6, 0.05), 1e-6),
    # transitions outside the region |qd| < 0.17
    ((0.3, 0.5, 0.8, 60.0, 0.3), 0.0),
    ((0.3, 0.5, 0.8, 8.0, 0.3), 0.0),
    ((0.3, 0.5, -0.8, -60.0, -0.5), 0.0),
])
def test_fit_friction_unresolved_transition_gives_finite_fit(row, noise):
    rng = np.random.default_rng(8)
    qd = rng.uniform(-0.4, 0.4, (1500, 1))
    y = friction_sigmoid(_friction_from_rows([row]), qd) \
        + noise * rng.standard_normal(qd.shape)
    fit = fit_friction(qd, y, threshold=0.17)
    assert np.all(np.isfinite(fit.friction.as_arrays()))
    assert np.isfinite(fit.objectives[0])
    h = fit.histories[0]
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))


def test_fit_friction_stops_when_the_objective_stalls():
    # no sample resolves a 1e6 s/rad step under 0.01 A noise: the search
    # creeps up in delta at rounding-level gains and stops on the stall,
    # 67 steps here, not at LM_MAX_ITER (it took all 200 before)
    rng = np.random.default_rng(8)
    qd = rng.uniform(-0.4, 0.4, (1500, 1))
    y = friction_sigmoid(_friction_from_rows([(0.3, 0.5, -0.8, -1e6,
                                               -0.05)]), qd) \
        + 0.01 * rng.standard_normal(qd.shape)
    fit = fit_friction(qd, y, threshold=0.17)
    h = fit.histories[0]
    assert fit.iterations[0] < 100
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))
    tail = np.array(h[-estimation.STALL_STEPS - 1:])
    assert np.all(tail[:-1] - tail[1:] < estimation.STALL_TOL * tail[1:])


@pytest.mark.parametrize("moving", [(), (0.05,)])
def test_fit_friction_names_joint_without_distinct_velocities(moving):
    # joint 2's low-velocity samples: 60 at rest, plus at most one more
    # velocity, on which any sigmoid is affine
    rng = np.random.default_rng(10)
    qd = rng.uniform(-0.3, 0.3, (300, 2))
    qd[:, 1] = np.resize(np.r_[0.0, 0.5, moving], 300)
    qd[:60, 1] = 0.0
    distinct = 1 + len(moving)
    with pytest.raises(ExcitationError, match=f"joint 2: its low-velocity "
                       f"samples hold {distinct} distinct velocities"):
        fit_friction(qd, np.zeros_like(qd), threshold=0.17)


# ---------------------------------------------------------------------------
# stage 3

def test_stage3_recovers_gains(stage3, plant, bmap):
    K_true = np.asarray(plant.gains)
    rel = np.abs(stage3.gains - K_true) / K_true
    assert np.all(rel < 0.005)
    # a joint solves directly exactly when its own row separates every
    # active base column; otherwise it takes the regrouped path
    assert stage3.full_rank == tuple(d.size == 0 for d in bmap.joint_depcols)
    assert stage3.n_unknown == 6  # inertia tensor of the payload stays free
    for j in range(6):
        lo, hi = stage3.bounds[j]
        assert lo <= stage3.gains[j] <= hi
        zj = stage3.zeta[j]
        assert zj.shape == stage3.identifiable_mask[j].shape
        assert np.all(zj[~stage3.identifiable_mask[j]] == 0.0)
        assert stage3.gains[j] == 1.0 / zj[-1]


def test_gain_solve_paths():
    # exact data: a zero residual scale leaves unit weights
    fit = estimation._gain_fit
    # full rank: a direct solve that keeps every column
    rng = np.random.default_rng(11)
    S = rng.standard_normal((60, 5))
    lam = np.array([0.3, -1.2, 0.5, 2.0, 0.05])
    wm = fit(S, S @ lam, "joint 1")
    assert wm.independent.all() and np.max(np.abs(wm.coef - lam)) < 1e-12
    # rank-deficient: a dependent arm column drops, and the gain solves
    # as it is
    S2 = np.column_stack([S[:, :1], 2.0 * S[:, 0], S[:, 1:]])
    wm = fit(S2, S @ lam, "joint 2")
    assert wm.independent.tolist() == [True, False] + [True] * 4
    assert wm.coef[1] == 0.0 and wm.coef[-1] == pytest.approx(0.05)
    # a gain column the arm columns span cannot give a gain
    S3 = np.column_stack([S[:, :4], 2.0 * S[:, 0]])
    with pytest.raises(IdentifiabilityError, match=r"^joint 3: the drive "
                       "gain is not identifiable"):
        fit(S3, S @ lam, "joint 3")
    with pytest.raises(ExcitationError, match=r"^joint 4: zero-rank gain "
                       "system$"):
        fit(np.zeros((60, 5)), S @ lam, "joint 4")


def test_checked_gains_names_every_failing_joint(monkeypatch):
    check = estimation._checked_gains
    advice = ("; run b was likely not recorded on run a's trajectory, or "
              "the joint is weakly excited")
    # a gain at the floor passes; every gain is the reciprocal's inverse
    assert check([0.05, 0.1]).tolist() == [20.0, 10.0]
    # one failure reads as it did when the first failing joint raised
    for lam, text in ((-0.05, "reciprocal -0.05 A/Nm is not positive"),
                      (0.0, "reciprocal 0 A/Nm is not positive"),
                      (np.nan, "reciprocal nan A/Nm is not positive"),
                      (1 / 9, "9 Nm/A is below its lower bound 10")):
        with pytest.raises(ExcitationError) as err:
            check([0.05, lam, 0.07])
        assert str(err.value) == f"joint 2: drive gain {text}{advice}"
    # several failures: one error, every failing joint in joint order
    with pytest.raises(ExcitationError) as err:
        check([0.0, 0.05, 0.2, -1.0, 0.08, 0.125])
    assert str(err.value) == (
        "joint 1: drive gain reciprocal 0 A/Nm is not positive; "
        "joint 3: drive gain 5 Nm/A is below its lower bound 10; "
        "joint 4: drive gain reciprocal -1 A/Nm is not positive; "
        "joint 6: drive gain 8 Nm/A is below its lower bound 10" + advice)
    # the floor is read when the check runs
    monkeypatch.setattr(estimation, "GAIN_LOWER", 25.0)
    with pytest.raises(ExcitationError, match=r"^joint 1: drive gain 20 "
                       r"Nm/A is below its lower bound 25;"):
        check([0.05, 0.02])


def test_stage3_floor_above_every_gain_names_every_joint(
        bmap, chain, stage1, stage2, stage3, data_a, data_b_pay, known,
        monkeypatch):
    def run():
        return estimate_gains(data_a, data_b_pay, known, bmap, chain, stage1,
                              stage2.friction)

    # a floor of zero is no floor at all, and the gains stand
    monkeypatch.setattr(estimation, "GAIN_LOWER", 0.0)
    assert np.array_equal(run().gains, stage3.gains)
    # a floor above every gain: every joint is solved, then all six named
    monkeypatch.setattr(estimation, "GAIN_LOWER", 1e6)
    below = "; ".join(rf"joint {j}: drive gain [\d.]+ Nm/A is below its "
                      r"lower bound 1e\+06" for j in range(1, 7))
    with pytest.raises(ExcitationError, match=f"^{below}; run b was likely"):
        run()


def test_stage3_sweep_seed_18_fails_loudly_unpaired(plant, bmap, chain,
                                                    known):
    # seed 18 of the single-run sweep: with run b on its own trajectory,
    # joint 2's gain comes out negative and must stop the stage, not be
    # moved into the bounds; with run b on run a's trajectory every gain
    # is within 3 %
    traj = random_trajectory(6, seed=18)
    da = simulate(plant, traj, duration=20.0, noise_v=0.05, seed=118)
    chi = identify_coefficients(bmap, chain, da)
    resid = friction_residual_currents(bmap, chain, chi, da)
    psi = fit_friction(da.qd, resid, threshold=da.qd_threshold).friction

    def gains(traj_b):
        db = simulate(plant, traj_b, duration=20.0, noise_v=0.05, seed=218,
                      payload=known.spec)
        return estimate_gains(da, db, known, bmap, chain, chi, psi).gains

    with pytest.raises(ExcitationError, match=r"^joint 2: drive gain "
                       r"reciprocal -[\d.]+ A/Nm is not positive"):
        gains(random_trajectory(6, seed=518))
    K = np.asarray(plant.gains)
    assert np.max(np.abs(gains(traj) - K) / K) <= 0.03


def test_stage3_mass_only_not_identifiable(bmap, chain, stage1, stage2,
                                           data_a, data_b_pay):
    known = KnownPayload(spec=PayloadSpec(
        mass=4.8, com=(0.10, 0.06, 0.05),
        inertia_com=np.diag((0.030, 0.035, 0.030))), known=("mass",))
    with pytest.raises(IdentifiabilityError, match="not identifiable"):
        estimate_gains(data_a, data_b_pay, known, bmap, chain, stage1,
                       stage2.friction)


def test_stage3_requires_known_parameters(bmap, chain, stage1, stage2,
                                          data_a, data_b_pay):
    known = KnownPayload(spec=PayloadSpec(
        mass=4.8, com=(0.10, 0.06, 0.05),
        inertia_com=np.diag((0.030, 0.035, 0.030))), known=())
    with pytest.raises(IdentifiabilityError, match="marked known"):
        estimate_gains(data_a, data_b_pay, known, bmap, chain, stage1,
                       stage2.friction)


def test_stage3_short_runs_rejected(bmap, chain, stage1, stage2, data_a,
                                    data_b_pay):
    def thin(ds, step):
        # a strided slice keeps the grid uniform and every joint moving,
        # but leaves too few rows for the per-joint unknown count
        return dataclasses.replace(ds, t=ds.t[::step] - ds.t[0],
                                   q=ds.q[::step], qd=ds.qd[::step],
                                   qdd=ds.qdd[::step], v=ds.v[::step])

    known = KnownPayload(spec=PayloadSpec(
        mass=4.8, com=(0.10, 0.06, 0.05),
        inertia_com=np.diag((0.030, 0.035, 0.030))), known=("mass", "com"))
    with pytest.raises(ExcitationError, match="linearity-region samples"):
        estimate_gains(thin(data_a, 150), thin(data_b_pay, 150), known, bmap,
                       chain, stage1, stage2.friction)


def test_known_payload_validation():
    spec = PayloadSpec(mass=1.0, com=(0.0, 0.0, 0.1),
                       inertia_com=np.eye(3) * 1e-3)
    with pytest.raises(ValueError, match="requires its mass"):
        KnownPayload(spec=spec, known=("com",))
    with pytest.raises(ValueError, match="requires mass"):
        KnownPayload(spec=spec, known=("mass", "inertia"))
    with pytest.raises(ValueError, match="unknown payload parameter"):
        KnownPayload(spec=spec, known=("weight",))
    kp = KnownPayload(spec=spec, known=("mass", "com"))
    assert kp.coord_mask.sum() == 4


def _robust_stages(bmap, chain, noisy_runs):
    da, db, known = noisy_runs
    chi = identify_coefficients(bmap, chain, da)
    resid = friction_residual_currents(bmap, chain, chi, da)
    fit = fit_friction(da.qd, resid, threshold=da.qd_threshold)
    return chi, estimate_gains(da, db, known, bmap, chain, chi, fit.friction)


def test_irls_records_converged_on_c05_data(bmap, chain, noisy_runs):
    for record in _robust_stages(bmap, chain, noisy_runs):
        assert record.irls_converged == (True,) * 6
        assert all(1 < it < estimation.WEIGHT_MAX_ITER
                   for it in record.irls_iterations)


def test_each_robust_fit_factors_its_stack_once(bmap, chain, noisy_runs,
                                               monkeypatch):
    # on c05's data each stage-1 and stage-3 fit makes one m-row QR, its
    # split, and no m-row SVD; the r-row splits of the weighted systems
    # and the SVDs of their triangular factors are all that is left.  Each
    # joint's condition still agrees with np.linalg.cond of its stack.
    da, db, known = noisy_runs
    chi = identify_coefficients(bmap, chain, da)
    resid = friction_residual_currents(bmap, chain, chi, da)
    psi = fit_friction(da.qd, resid, threshold=da.qd_threshold).friction
    counts = {"qr": 0, "svd": 0}

    def counted(name, fn):
        def call(a, *args, **kwargs):
            counts[name] += len(a) >= 1000  # the stacks have 4000+ rows
            return fn(a, *args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counted(name,
                                                     getattr(np.linalg, name)))
    chi = identify_coefficients(bmap, chain, da)
    assert counts == {"qr": 6, "svd": 0}
    estimate_gains(da, db, known, bmap, chain, chi, psi)
    assert counts == {"qr": 12, "svd": 0}
    monkeypatch.undo()
    U = minimal_regressor_stack(bmap, chain, da.q, da.qd, da.qdd)
    for j, got in enumerate(chi.conditions):
        cols = np.concatenate([bmap.joint_idcols[j],
                               bmap.friction_columns(j)])
        want = np.linalg.cond(U[:, j][np.ix_(da.mask[:, j], cols)])
        assert abs(got - want) <= 1e-10 * want


def test_stage1_condition_guard_runs_before_irls(bmap, chain, noisy_runs,
                                                 monkeypatch):
    # a stack the guard refuses raises its message from the split alone,
    # with no robust fit started
    da = noisy_runs[0]
    conds = identify_coefficients(bmap, chain, da).conditions

    def forbidden(*args, **kwargs):
        raise AssertionError("IRLS on a refused stack")

    monkeypatch.setattr(estimation, "robust_weights", forbidden)
    monkeypatch.setattr(estimation, "CONDITION_LIMIT", 10.0)
    with pytest.raises(ExcitationError) as err:
        identify_coefficients(bmap, chain, da)
    assert str(err.value) == (
        f"joint 1: regressor condition {conds[0]:.3g} exceeds 1e+01; the "
        "trajectory is not persistently exciting for this joint")


def test_stage1_refuses_a_column_its_weights_leave_unseparated(
        bmap, chain, data_a, monkeypatch):
    # the final weights can leave a column the stack separates unseparated;
    # stage 1 names it rather than fit a chi without it
    fit = estimation.robust_weights

    def one_dependent(stack, rhs, split=None):
        wm = fit(stack, rhs, split)
        independent = wm.independent.copy()
        independent[2] = False
        return dataclasses.replace(wm, independent=independent)

    monkeypatch.setattr(estimation, "robust_weights", one_dependent)
    p = bmap.joint_idcols[0].size + 3
    with pytest.raises(IdentifiabilityError, match="^" + re.escape(
            f"rank-deficient stack (rank {p - 1} of {p}); dependent "
            "columns [2]") + "$"):
        identify_coefficients(bmap, chain, data_a)


@pytest.mark.parametrize("noise_qd", [1e-3, 5e-3])
def test_velocity_noise_keeps_gains_within_3_percent(plant, bmap, chain,
                                                     traj_a, traj_b, known,
                                                     noise_qd):
    # c05's runs with velocity noise on top: accelerations come from the
    # noisy velocities through the one differentiator
    trains = [traj_a, random_trajectory(6, seed=313),
              random_trajectory(6, seed=707)]
    loads = [traj_b, random_trajectory(6, seed=909),
             random_trajectory(6, seed=1203)]
    da = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, noise_qd=noise_qd,
                 seed=21 + k) for k, tr in enumerate(trains))
    db = merge_sample_sets(
        simulate(plant, tr, duration=20.0, noise_v=0.05, noise_qd=noise_qd,
                 seed=31 + k, payload=known.spec)
        for k, tr in enumerate(loads))
    chi = identify_coefficients(bmap, chain, da)
    resid = friction_residual_currents(bmap, chain, chi, da)
    fit = fit_friction(da.qd, resid, threshold=da.qd_threshold)
    est = estimate_gains(da, db, known, bmap, chain, chi, fit.friction)
    K = np.asarray(plant.gains)
    assert np.max(np.abs(est.gains - K) / K) <= 0.03


def test_irls_records_iteration_cap(bmap, chain, noisy_runs, monkeypatch):
    monkeypatch.setattr(estimation, "WEIGHT_MAX_ITER", 1)
    for record in _robust_stages(bmap, chain, noisy_runs):
        assert record.irls_converged == (False,) * 6
        assert record.irls_iterations == (1,) * 6


def test_full_prediction_composes(ident, plant, data_b):
    # the solver over the three stages' estimates reproduces held-out torques
    tau_hat = torque(ident, data_b.q, data_b.qd, data_b.qdd)
    tau_true = data_b.v * np.asarray(plant.gains)
    for j in range(6):
        x = tau_true[:, j]
        mnae = 200.0 / x.size * np.sum(np.abs(x - tau_hat[:, j])) \
            / (x.max() - x.min())
        assert mnae < 1.0
