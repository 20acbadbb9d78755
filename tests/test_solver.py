import os
import re
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynid import dynamics, kinematics, solver
from dynid.cli import main
from dynid.dataio import (IdentifiedModel, SchemaError, _new_parser,
                          load_identified_model, save_identified_model,
                          write_robot_model, write_samples)
from dynid.dynamics import (JointState, friction_linear, friction_sigmoid,
                            rnea)
from dynid.kinematics import DhRow, KinematicChain
from dynid.payload import PayloadSpec
from dynid.reduction import compute_base_map
from dynid.solver import (_rigid, configure_payload, coriolis_times_qd,
                          friction, gravity, inertia, torque, torque_terms)
from regressor_oracle import newton_euler_unfolded

TWO_LINK = KinematicChain(rows=(DhRow(0.3, 0.4, 0.1), DhRow(0.25, -1.2, 0.05)),
                          gravity=(0.0, -9.80665, 0.0))
PAY = PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                  inertia_com=np.diag((0.030, 0.035, 0.030)))


def _random_states(rng, m):
    return (rng.uniform(-np.pi, np.pi, (m, 6)),
            rng.uniform(-2.0, 2.0, (m, 6)),
            rng.uniform(-5.0, 5.0, (m, 6)))


def test_torque_closes_on_plant(ident_true, plant, data_a):
    tau_plant = data_a.v * np.asarray(plant.gains)
    tau_hat = torque(ident_true, data_a.q, data_a.qd, data_a.qdd)
    rel = np.max(np.abs(tau_hat - tau_plant)) / np.max(np.abs(tau_plant))
    assert rel < 1e-9


def test_decomposition_identity(ident_true):
    rng = np.random.default_rng(42)
    for model in (ident_true, configure_payload(ident_true, PAY)):
        q, qd, qdd = _random_states(rng, 20)
        total = torque(model, q, qd, qdd)
        parts = np.empty_like(total)
        for k in range(20):
            parts[k] = (inertia(model, q[k]) @ qdd[k]
                        + coriolis_times_qd(model, q[k], qd[k])
                        + gravity(model, q[k]) + friction(model, qd[k]))
        assert np.max(np.abs(total - parts)) < 1e-9


def test_torque_terms_sum(ident_true):
    rng = np.random.default_rng(1)
    q, qd, qdd = _random_states(rng, 15)
    inert, cor, fric, grav = torque_terms(ident_true, q, qd, qdd)
    total = torque(ident_true, q, qd, qdd)
    assert np.max(np.abs(inert + cor + fric + grav - total)) < 1e-9


@pytest.mark.parametrize("m", [None, 4])
def test_torque_terms_shape_error_is_torque_s(ident_true, m):
    # a 5-joint qdd, for one state and for a batch
    q, qd, qdd = _random_states(np.random.default_rng(2), m or 1)
    if m is None:
        q, qd, qdd = q[0], qd[0], qdd[0]
    with pytest.raises(ValueError) as want:
        torque(ident_true, q, qd, qdd[..., :5])
    with pytest.raises(ValueError) as got:
        torque_terms(ident_true, q, qd, qdd[..., :5])
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError, match="takes states"):
        torque_terms(ident_true, q, np.stack([np.atleast_2d(qd)] * 2), qdd)


def test_torque_terms_single_state_is_vectors(ident_true):
    q, qd, qdd = (x[0] for x in _random_states(np.random.default_rng(3), 1))
    terms = torque_terms(ident_true, q, qd, qdd)
    assert [t.shape for t in terms] == [(6,)] * 4
    assert np.max(np.abs(sum(terms) - torque(ident_true, q, qd, qdd))) < 1e-9


def test_state_given_as_tuples_is_one_state(ident_true):
    # a tuple of floats is a state, as any array-like is; only
    # newton_euler reads tuples as motion blocks
    state = [x[0] for x in _random_states(np.random.default_rng(4), 1)]
    as_tuples = [tuple(map(float, x)) for x in state]
    for call in (torque, torque_terms, coriolis_times_qd, gravity, inertia):
        k = {coriolis_times_qd: 2, gravity: 1, inertia: 1}.get(call, 3)
        want = np.array(call(ident_true, *state[:k]))
        got = np.array(call(ident_true, *as_tuples[:k]))
        assert got.tobytes() == want.tobytes(), call.__name__


def test_one_configuration_pass_per_call(ident_true, monkeypatch):
    # torque_terms' three blocks and inertia's n columns share one frame
    # build; stacking copies of the configurations would show as more rows
    calls = []
    frames = dynamics.local_frames_batch

    def counted(chain, Q):
        calls.append(len(Q))
        return frames(chain, Q)

    monkeypatch.setattr(dynamics, "local_frames_batch", counted)
    q, qd, qdd = _random_states(np.random.default_rng(4), 5)
    torque_terms(ident_true, q, qd, qdd)
    assert calls == [5]
    inertia(ident_true, q[0])
    assert calls == [5, 1]


def test_chain_constants_built_once_per_chain(ident_true, monkeypatch):
    # the DH columns and origin maps are cached on the chain: many
    # single-state calls and the batched terms build them once
    calls = []
    build = kinematics._dh_constants

    def counted(rows):
        calls.append(len(rows))
        return build(rows)

    monkeypatch.setattr(kinematics, "_dh_constants", counted)
    chain = ident_true.chain
    model = replace(ident_true, chain=KinematicChain(chain.rows, chain.gravity))
    q, qd, qdd = _random_states(np.random.default_rng(5), 100)
    for k in range(100):
        torque(model, q[k], qd[k], qdd[k])
    torque_terms(model, q, qd, qdd)
    inertia(model, q[0])
    assert calls == [6]


def test_evaluator_builds_no_unit_wrenches(ident_true, monkeypatch):
    # newton_euler and the solver fold their sets into the wrench basis;
    # only the regressor's pass meets the unit basis itself
    calls = []
    maps = dynamics._link_maps

    def counted(chain, K):
        calls.append(K is dynamics._WRENCH_BASIS_BY_NUMBER)
        return maps(chain, K)

    monkeypatch.setattr(dynamics, "_link_maps", counted)
    model = replace(ident_true)  # no fold kept yet
    q, qd, qdd = _random_states(np.random.default_rng(6), 5)
    torque(model, q, qd, qdd)
    torque(model, q[0], qd[0], qdd[0])
    torque_terms(model, q, qd, qdd)
    inertia(model, q[0])
    dynamics.newton_euler(model.chain, q, qd, qdd,
                          dynamics.fold_sets(model.chain, model.torque_sets))
    assert calls == [False, False]  # the model's fold, newton_euler's
    dynamics.regressor_stack(model.chain, q, qd, qdd)
    assert calls == [False, False, True]


def test_model_keeps_one_read_only_fold(ident_true, monkeypatch):
    # the model folds its torque sets once and every call reuses the fold;
    # a configured copy folds its own sets
    calls = []
    fold = dynamics.fold_sets

    def counted(chain, Pi):
        calls.append(Pi.shape)
        return fold(chain, Pi)

    monkeypatch.setattr("dynid.dataio.fold_sets", counted)
    model = replace(ident_true)  # no fold kept yet
    q, qd, qdd = _random_states(np.random.default_rng(11), 5)
    for k in range(5):
        torque(model, q[k], qd[k], qdd[k])
    torque(model, q, qd, qdd)
    torque_terms(model, q, qd, qdd)
    inertia(model, q[0])
    gravity(model, q)
    coriolis_times_qd(model, q, qd)
    assert calls == [(60, 6)]
    B = model.folded_sets
    # per link i, the fold of the sets of joints 0..i, the ones it reaches
    assert [b.shape for b in B] == [(12, 3 + 6 * (i + 1)) for i in range(6)]
    assert not any(b.flags.writeable for b in B)
    with pytest.raises(ValueError):
        B[0][0, 0] = 1.0

    def raw(B):
        return b"".join(b.tobytes() for b in B)

    assert raw(B) == raw(fold(model.chain, model.torque_sets))
    loaded = configure_payload(model, PAY)
    torque(loaded, q, qd, qdd)
    assert calls == [(60, 6)] * 2
    assert raw(loaded.folded_sets) != raw(B)
    assert raw(loaded.folded_sets) \
        == raw(fold(loaded.chain, loaded.torque_sets))
    assert raw(configure_payload(loaded, None).folded_sets) == raw(B)


@pytest.mark.parametrize("m", [1, 5, dynamics.BLOCK_STATES + 3])
def test_gravity_vector_and_per_block_rows_give_the_same_bits(ident_true, m):
    # a 3-vector gravity enters the pass as one row, never broadcast; the
    # same gravity given per motion block, (nb, 3), gives the same bits
    q, qd, qdd = _random_states(np.random.default_rng(12), m)
    chain, sets = ident_true.chain, ident_true.folded_sets
    g = chain.gravity_vector
    for args in ((qd, qdd), ((qd, 2.0 * qd), (qdd, qdd))):
        nb = len(args[0]) if isinstance(args[0], tuple) else 1
        per_block = np.tile(g, (nb, 1))
        want = dynamics.newton_euler(chain, q, *args, sets,
                                     per_block).tobytes()
        for one_row in (None, g, tuple(g)):
            assert dynamics.newton_euler(chain, q, *args, sets,
                                         one_row).tobytes() == want
    z = np.zeros_like(q)
    assert gravity(ident_true, q).tobytes() \
        == _rigid(ident_true, q, z, z, g[None]).tobytes()
    assert coriolis_times_qd(ident_true, q, qd).tobytes() \
        == _rigid(ident_true, q, qd, z, np.zeros((1, 3))).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k, name", [(0, "q"), (1, "qd"), (2, "qdd")])
def test_non_finite_state_names_array_row_column(ident_true, bad, k, name):
    # a non-finite entry raises instead of giving NaN rows
    states = _random_states(np.random.default_rng(8), 3)
    states[k][1, 4] = bad
    chain, Pi = ident_true.chain, ident_true.torque_sets
    for call in (lambda: torque(ident_true, *states),
                 lambda: torque_terms(ident_true, *states),
                 lambda: dynamics.newton_euler(
                     chain, *states, dynamics.fold_sets(chain, Pi)),
                 lambda: dynamics.regressor_stack(chain, *states)):
        with pytest.raises(ValueError,
                           match=f"{name} is not finite at row 1, column 4"):
            call()
    one = [x[1] for x in states]
    with pytest.raises(ValueError,
                       match=f"{name} is not finite at row 0, column 4"):
        torque(ident_true, *one)
    if name == "q":
        with pytest.raises(ValueError,
                           match="q is not finite at row 0, column 4"):
            inertia(ident_true, one[0])


@pytest.mark.parametrize("shape", [(5,), (2, 5), (3, 7)])
def test_friction_names_joint_count(ident_true, plant, shape):
    qd = np.zeros(shape)
    with pytest.raises(ValueError, match="expected 6 joint velocities"):
        friction(ident_true, qd)
    with pytest.raises(ValueError, match="expected 6 joint velocities"):
        friction_sigmoid(plant.friction, qd)
    with pytest.raises(ValueError, match="expected 6 joint velocities"):
        friction_linear(np.zeros((6, 3)), qd)


def test_inertia_matches_plant(ident_true, chain, plant):
    rng = np.random.default_rng(7)
    q = rng.uniform(-np.pi, np.pi, 6)
    M_hat = inertia(ident_true, q)
    # column k is the rigid-body torque of a unit acceleration of joint k
    M_true = np.column_stack([
        rnea(chain, plant.links, JointState(q=q, qd=np.zeros(6), qdd=e),
             gravity=(0.0, 0.0, 0.0)) for e in np.eye(6)])
    assert np.max(np.abs(M_hat - M_true)) / np.max(np.abs(M_true)) < 1e-9
    assert np.max(np.abs(M_hat - M_hat.T)) < 1e-9
    with pytest.raises(ValueError):
        inertia(ident_true, np.zeros((3, 6)))


def test_friction_term_is_plant_friction(ident_true, plant):
    rng = np.random.default_rng(3)
    qd = rng.uniform(-2.0, 2.0, (50, 6))
    expect = friction_sigmoid(plant.friction, qd)
    assert np.max(np.abs(friction(ident_true, qd) - expect)) < 1e-12


def test_velocity_free_terms(ident_true):
    rng = np.random.default_rng(9)
    q = rng.uniform(-np.pi, np.pi, 6)
    assert np.array_equal(coriolis_times_qd(ident_true, q, np.zeros(6)),
                          np.zeros(6))
    z = np.zeros(6)
    assert np.allclose(gravity(ident_true, q),
                       torque(ident_true, q, z, z)
                       - friction(ident_true, z), atol=1e-12)


def test_single_state_matches_batch(ident_true):
    rng = np.random.default_rng(5)
    q, qd, qdd = _random_states(rng, 4)
    batch = torque(ident_true, q, qd, qdd)
    one = torque(ident_true, q[2], qd[2], qdd[2])
    assert one.shape == (6,)
    assert np.array_equal(one, batch[2])


def test_payload_single_state_is_its_batch_row(ident_true):
    # the payload set runs through the same per-state products as the arm
    model = configure_payload(ident_true, PAY)
    rng = np.random.default_rng(6)
    q, qd, qdd = _random_states(rng, 7)
    batch = torque(model, q, qd, qdd)
    terms = torque_terms(model, q, qd, qdd)
    for k in range(len(q)):
        assert torque(model, q[k], qd[k], qdd[k]).tobytes() \
            == batch[k].tobytes()
        for one, block in zip(torque_terms(model, q[k], qd[k], qdd[k]),
                              terms):
            assert one.tobytes() == block[k].tobytes()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 7, dynamics.BLOCK_STATES]),
       with_payload=st.booleans(), data=st.data())
def test_block_size_changes_no_solver_bit(ident_true, seed, block,
                                          with_payload, data):
    # at any block size, and for batches that end just before, at or just
    # after a block edge, every state's torque, terms, gravity and
    # velocity-product torques are bitwise its own call's
    model = configure_payload(ident_true, PAY) if with_payload else ident_true
    k = data.draw(st.integers(1, 1 if block == dynamics.BLOCK_STATES else 4))
    m = max(1, k * block + data.draw(st.integers(-1, 1)))
    q, qd, qdd = _random_states(np.random.default_rng(seed), m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_STATES", block)
        batch = {"torque": torque(model, q, qd, qdd),
                 "terms": np.stack(torque_terms(model, q, qd, qdd)),
                 "gravity": gravity(model, q),
                 "coriolis": coriolis_times_qd(model, q, qd)}
    for i in range(m):
        one = {"torque": torque(model, q[i], qd[i], qdd[i]),
               "terms": np.stack(torque_terms(model, q[i], qd[i], qdd[i])),
               "gravity": gravity(model, q[i]),
               "coriolis": coriolis_times_qd(model, q[i], qd[i])}
        assert [key for key in one if one[key].tobytes()
                != batch[key][..., i, :].tobytes()] == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       with_payload=st.booleans())
def test_own_sets_are_the_diagonal_of_every_set(ident_true, seed, m,
                                                with_payload):
    # the solver forms joint j's torque of set j alone; the unfolded
    # oracle forms every set's torque at every joint from unit wrenches,
    # and its diagonal is the same torque
    model = configure_payload(ident_true, PAY) if with_payload else ident_true
    chain, Pi, n = model.chain, model.torque_sets, model.n
    q, qd, qdd = _random_states(np.random.default_rng(seed), m)
    z, off = np.zeros_like(q), np.zeros(3)
    j = np.arange(n)

    def diagonal(qd, qdd, g=None, q=q):
        return newton_euler_unfolded(chain, q, qd, qdd, Pi, g)[..., j, j]

    inert, cor, _, grav = torque_terms(model, q, qd, qdd)
    pairs = {"torque": (torque(model, q, qd, qdd) - friction(model, qd),
                        diagonal(qd, qdd)),
             "inertia term": (inert, diagonal(z, qdd, off)),
             "coriolis term": (cor, diagonal(qd, z, off)),
             "gravity term": (grav, diagonal(z, z)),
             "gravity": (gravity(model, q), diagonal(z, z)),
             "coriolis_times_qd": (coriolis_times_qd(model, q, qd),
                                   diagonal(qd, z, off)),
             # block k accelerates joint k alone: column k of M
             "inertia": (inertia(model, q[0]),
                         diagonal((np.zeros(n),) * n, tuple(np.eye(n)),
                                  off, q[0])[:, 0].T)}
    for name, (got, want) in pairs.items():
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), \
            name


def test_empty_batch_gives_empty_torques(ident_true):
    z = np.zeros((0, 6))
    assert torque(ident_true, z, z, z).shape == (0, 6)
    assert [t.shape for t in torque_terms(ident_true, z, z, z)] == [(0, 6)] * 4
    assert gravity(ident_true, z).shape == (0, 6)
    assert coriolis_times_qd(ident_true, z, z).shape == (0, 6)


def test_non_finite_state_in_a_later_block_names_its_batch_row(
        ident_true, monkeypatch):
    monkeypatch.setattr(dynamics, "BLOCK_STATES", 7)
    q, qd, qdd = _random_states(np.random.default_rng(10), 20)
    qd[17, 2] = np.nan
    for call in (torque, torque_terms):
        with pytest.raises(ValueError,
                           match="qd is not finite at row 17, column 2"):
            call(ident_true, q, qd, qdd)


def test_torque_terms_peak_memory_is_bounded_per_block(ident_true):
    # on 20 000 states the traced peak stays below 8 arrays the size of one
    # (M, n) term: the (3, M, n) rigid torques, the friction term and its
    # temporaries, plus one block's buffers (7.0 such arrays, measured,
    # with one of margin).  Stacking the motion blocks of the whole batch
    # read 10.8, every joint's torque of every set, (3, M, n, n), 27 and
    # every temporary the size of the batch 91
    m = 20_000
    q, qd, qdd = _random_states(np.random.default_rng(11), m)
    term = m * ident_true.n * 8
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        torque_terms(ident_true, q, qd, qdd)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 8 * term


def test_torque_terms_keeps_one_block_of_buffers(ident_true):
    # 2500 states per thread the pass runs on, five blocks or more each, so
    # both threads run where there is a helper: torque_terms holds its
    # result and one 512-state block's buffers per thread, the block's
    # motion rows among them, 2.13 to 2.22 MiB traced per thread at 1 to 6
    # threads.  Keeping the previous block's buffers alive while the next
    # block makes its own reads 3.03 to 3.13 MiB per thread, and stacking
    # the motion blocks of the whole batch 2.67 to 2.76
    threads = 1 + dynamics._second_cpu()
    q, qd, qdd = _random_states(np.random.default_rng(11), 2500 * threads)
    torque_terms(ident_true, q, qd, qdd)  # model caches, once per model
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        torque_terms(ident_true, q, qd, qdd)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= threads * 2.4 * 2**20


def test_no_thread_outlives_a_call(ident_true):
    # a 2500-state torque runs its blocks on helper threads where the
    # process may use more than one CPU, and joins them before it returns
    q, qd, qdd = _random_states(np.random.default_rng(15), 2500)
    before = threading.active_count()
    torque(ident_true, q, qd, qdd)
    assert threading.active_count() == before


def test_configure_clear_is_bitwise(ident_true, data_a):
    with_pay = configure_payload(ident_true, PAY)
    cleared = configure_payload(with_pay, None)
    t_arm = torque(ident_true, data_a.q, data_a.qd, data_a.qdd)
    assert np.array_equal(torque(cleared, data_a.q, data_a.qd, data_a.qdd),
                          t_arm)
    # the payload must actually matter on a moving trajectory
    t_pay = torque(with_pay, data_a.q, data_a.qd, data_a.qdd)
    assert np.max(np.abs(t_pay - t_arm)) > 1.0
    # a zero payload configures to no payload at all
    zero = configure_payload(ident_true, PayloadSpec(
        mass=0.0, com=(0.0, 0.0, 0.0), inertia_com=np.zeros((3, 3))))
    assert zero.payload is None
    assert np.array_equal(torque(zero, data_a.q, data_a.qd, data_a.qdd),
                          t_arm)


def test_payload_gravity_monotonic(ident_true):
    q_flat = np.zeros(6)
    prev = abs(gravity(ident_true, q_flat)[1])
    for mass in (1.0, 2.0, 4.0, 8.0):
        model = configure_payload(ident_true, PayloadSpec(
            mass=mass, com=(0.0, 0.0, 0.05), inertia_com=np.zeros((3, 3))))
        cur = abs(gravity(model, q_flat)[1])
        assert cur > prev
        prev = cur


def test_persistence_round_trip(ident_true, data_a, tmp_path):
    with_pay = configure_payload(ident_true, PAY)
    for model, tag in ((ident_true, "arm"), (with_pay, "pay")):
        p = tmp_path / f"model_{tag}.ini"
        save_identified_model(model, p)
        m2 = load_identified_model(p)
        assert m2.stage == "gains"
        assert np.array_equal(torque(m2, data_a.q, data_a.qd, data_a.qdd),
                              torque(model, data_a.q, data_a.qd, data_a.qdd))


@pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
def test_qd_threshold_round_trip(ident_true, bad, tmp_path):
    # a model takes only a threshold its file can hold, as SampleSet does,
    # and every threshold it takes loads back
    with pytest.raises(ValueError, match=r"^qd_threshold must be finite "
                       "and nonnegative"):
        replace(ident_true, qd_threshold=bad)
    p = tmp_path / "model.ini"
    for ok in (0.0, 0.25):
        save_identified_model(replace(ident_true, qd_threshold=ok), p)
        assert load_identified_model(p).qd_threshold == ok


def test_persistence_stage_gating(ident_true, chain, bmap, tmp_path):
    m_lin = IdentifiedModel(name="s1", chain=chain, map=bmap,
                            chi=ident_true.chi)
    p = tmp_path / "lin.ini"
    save_identified_model(m_lin, p)
    m2 = load_identified_model(p)
    assert m2.stage == "linear" and m2.psi is None and m2.gains is None
    # every evaluation refuses a model short of its gains, naming the stage
    # the model holds
    z = np.zeros(6)
    for model in (m2, replace(m2, psi=ident_true.psi)):
        for call in (lambda: torque(model, z, z, z),
                     lambda: torque_terms(model, z, z, z),
                     lambda: gravity(model, z), lambda: inertia(model, z),
                     lambda: coriolis_times_qd(model, z, z),
                     lambda: friction(model, z)):
            with pytest.raises(ValueError, match=(
                    f"^model is only identified through stage "
                    f"'{model.stage}'; the solver needs friction and gains")):
                call()


def test_each_call_checks_completeness_in_its_funnels(ident_true,
                                                      monkeypatch):
    # _rigid, torque_terms and friction check the model; every public call
    # passes through them, so a single-state torque makes two checks
    seen = []
    check = solver._require_complete

    def counted(model):
        seen.append(model.stage)
        check(model)

    monkeypatch.setattr(solver, "_require_complete", counted)
    z = np.zeros(6)
    calls = {"torque": (lambda: torque(ident_true, z, z, z), 2),
             "torque_terms": (lambda: torque_terms(ident_true, z, z, z), 2),
             "friction": (lambda: friction(ident_true, z), 1),
             "gravity": (lambda: gravity(ident_true, z), 1),
             "inertia": (lambda: inertia(ident_true, z), 1),
             "coriolis_times_qd": (
                 lambda: coriolis_times_qd(ident_true, z, z), 1)}
    for name, (call, checks) in calls.items():
        seen.clear()
        call()
        assert seen == ["gains"] * checks, name


def test_gains_need_friction(ident_true, data_a, tmp_path, capsys):
    # chi, then psi, then gains: a model with gains but no friction
    # neither constructs nor loads
    with pytest.raises(ValueError, match="^gains need friction"):
        replace(ident_true, psi=None)
    good = tmp_path / "model.ini"
    save_identified_model(ident_true, good)
    cfg = _new_parser()
    cfg.read(good)
    for j in range(1, 7):
        cfg.remove_section(f"friction.joint_{j}")
    bad = tmp_path / "no_friction.ini"
    with open(bad, "w") as fh:
        cfg.write(fh)
    with pytest.raises(SchemaError, match=(
            f"^{re.escape(str(bad))}: has \\[gains\\] but no friction "
            "sections.*run `identify friction`, then `identify gains`$")):
        load_identified_model(bad)
    traj = tmp_path / "traj.csv"
    write_samples(data_a, traj)
    capsys.readouterr()
    rc = main(["solve", "--model", str(bad), "--traj", str(traj),
               "--out", str(tmp_path / "tau.csv")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1
    assert err[0].startswith(f"error=2 msg={bad}: has [gains]")
    assert not (tmp_path / "tau.csv").exists()


def test_load_refuses_plant_and_torque_level_files(ident_true, plant,
                                                   tmp_path):
    robot = tmp_path / "robot.ini"
    write_robot_model(plant, robot)
    with pytest.raises(SchemaError,
                       match=f"^{re.escape(str(robot))}: not an "
                       "identified-model file$"):
        load_identified_model(robot)
    p = tmp_path / "model.ini"
    save_identified_model(ident_true, p)
    torque_level = tmp_path / "torque_level.ini"
    torque_level.write_text(p.read_text().replace("level = current",
                                                  "level = torque"))
    with pytest.raises(SchemaError, match=(
            f"^{re.escape(str(torque_level))}: identified friction must "
            "be current-level$")):
        load_identified_model(torque_level)


def test_model_round_trips_on_rebuilt_map(ident_true, chain, data_a,
                                          tmp_path):
    # every UR10 joint row regroups; the two-link chain's first row does
    # not, so an empty depcols array makes the round trip too
    bmap = compute_base_map(TWO_LINK)
    assert any(d.size == 0 for d in bmap.joint_depcols)
    two_link = IdentifiedModel(name="two-link", chain=TWO_LINK, map=bmap,
                               chi=np.zeros((2, bmap.c)))
    # maps probed otherwise select the same columns, which is what lets
    # the file leave the map out
    ur10 = [replace(ident_true, map=compute_base_map(chain, **kw))
            for kw in ({"seed": 1}, {"n_probe": 400})]
    for k, model in enumerate([ident_true, two_link] + ur10):
        p = tmp_path / f"model{k}.ini"
        save_identified_model(model, p)
        loaded = load_identified_model(p)
        a, b = model.map, loaded.map
        assert np.array_equal(a.inertial_columns, b.inertial_columns)
        assert np.array_equal(a.joint_masks, b.joint_masks)
        for x, y in zip(a.joint_idcols + a.joint_depcols,
                        b.joint_idcols + b.joint_depcols, strict=True):
            assert x.dtype.kind == y.dtype.kind and np.array_equal(x, y)
        if model.stage == "gains":
            assert np.array_equal(
                torque(loaded, data_a.q, data_a.qd, data_a.qdd),
                torque(model, data_a.q, data_a.qd, data_a.qdd))
    # one file per model, no sidecar, and nothing in it the chain gives
    assert sorted(os.listdir(tmp_path)) == [f"model{k}.ini" for k in range(4)]
    p = tmp_path / "payload.ini"
    save_identified_model(configure_payload(ident_true, PAY), p)
    cfg = _new_parser()
    cfg.read(p)
    assert cfg.sections() == (
        ["meta", "gravity", "dh"]
        + [f"coefficients.joint_{j}" for j in range(1, 7)]
        + [f"friction.joint_{j}" for j in range(1, 7)]
        + ["gains", "payload_parameters"])


def test_meta_holds_only_what_load_reads(ident_true, data_a, tmp_path):
    # the stage follows from the sections present; a file that still
    # carries the stage and provenance keys loads as before, and an edited
    # stage changes nothing
    p = tmp_path / "model.ini"
    save_identified_model(ident_true, p)
    cfg = _new_parser()
    cfg.read(p)
    assert list(cfg["meta"]) == ["name", "kind", "qd_threshold_rad_s"]
    cfg["meta"]["stage"] = "linear"
    cfg["meta"]["provenance"] = "identified"
    old = tmp_path / "old.ini"
    with open(old, "w") as fh:
        cfg.write(fh)
    m2 = load_identified_model(old)
    assert m2.stage == "gains"
    assert np.array_equal(torque(m2, data_a.q, data_a.qd, data_a.qdd),
                          torque(ident_true, data_a.q, data_a.qd, data_a.qdd))


def test_model_file_is_byte_stable(ident_true, tmp_path):
    model = configure_payload(ident_true, PAY)
    paths = [tmp_path / f"m{k}.ini" for k in range(3)]
    save_identified_model(model, paths[0])
    save_identified_model(model, paths[1])
    save_identified_model(load_identified_model(paths[0]), paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes() \
        == paths[2].read_bytes()


def test_renamed_model_file_loads(ident_true, data_a, tmp_path):
    p = tmp_path / "model.ini"
    save_identified_model(ident_true, p)
    (tmp_path / "moved").mkdir()
    moved = tmp_path / "moved" / "renamed.ini"
    os.replace(p, moved)
    m2 = load_identified_model(moved)
    assert np.array_equal(torque(m2, data_a.q, data_a.qd, data_a.qdd),
                          torque(ident_true, data_a.q, data_a.qd, data_a.qdd))


def test_load_refuses_stored_base_map(ident_true, data_a, tmp_path, capsys):
    # a file that stores a map may hold chi in other columns than the
    # chain's; reading it against the rebuilt map would misplace chi
    good = tmp_path / "model.ini"
    save_identified_model(ident_true, good)
    traj = tmp_path / "traj.csv"
    write_samples(data_a, traj)
    cfg = _new_parser()
    cfg.read(good)
    cfg["base_map"] = {"inertial_columns": "0 1 2"}
    bad = tmp_path / "legacy.ini"
    with open(bad, "w") as fh:
        cfg.write(fh)
    with pytest.raises(SchemaError, match=r"base_map.*identify linear"):
        load_identified_model(bad)
    rc = main(["solve", "--model", str(bad), "--traj", str(traj),
               "--out", str(tmp_path / "tau.csv")])
    assert rc == 2
    assert "error=2" in capsys.readouterr().err


def test_model_validation(chain, bmap, ident_true):
    with pytest.raises(ValueError, match="chi"):
        IdentifiedModel(name="x", chain=chain, map=bmap,
                        chi=np.zeros((6, bmap.c + 1)))
    with pytest.raises(ValueError, match="gains"):
        IdentifiedModel(name="x", chain=chain, map=bmap, chi=ident_true.chi,
                        psi=ident_true.psi, gains=np.zeros(6))
    with pytest.raises(ValueError, match="payload"):
        IdentifiedModel(name="x", chain=chain, map=bmap, chi=ident_true.chi,
                        psi=ident_true.psi, gains=ident_true.gains,
                        payload=np.zeros(4))
    # only finite models construct: a NaN in chi or the payload would make
    # every torque NaN
    bad_chi = ident_true.chi.copy()
    bad_chi[2, 0] = np.nan
    with pytest.raises(ValueError, match="chi must be finite"):
        IdentifiedModel(name="x", chain=chain, map=bmap, chi=bad_chi)
    with pytest.raises(ValueError, match="payload must be a finite"):
        IdentifiedModel(name="x", chain=chain, map=bmap, chi=ident_true.chi,
                        payload=np.r_[1.0, np.inf, np.zeros(8)])
    # chi comes in one shape, (n, c); flat chi is refused
    with pytest.raises(ValueError, match=rf"^chi must be \(6, {bmap.c}\)$"):
        IdentifiedModel(name="x", chain=chain, map=bmap,
                        chi=ident_true.chi.ravel())
    # the stage says what the model holds
    m = IdentifiedModel(name="x", chain=chain, map=bmap, chi=ident_true.chi)
    assert m.stage == "linear"
    m2 = replace(m, psi=ident_true.psi)
    assert m2.stage == "friction"
    assert replace(m2, gains=ident_true.gains).stage == "gains"
    with pytest.raises(ValueError, match="^gains need friction"):
        replace(m, gains=ident_true.gains)


def test_model_rules_are_the_samples_and_plants(ident_true, plant, data_a):
    # one threshold rule for samples and models, one gain rule for plants
    # and models: the same input fails with the same message
    for bad in (-0.1, np.nan):
        with pytest.raises(ValueError) as want:
            replace(data_a, qd_threshold=bad)
        with pytest.raises(ValueError) as got:
            replace(ident_true, qd_threshold=bad)
        assert str(got.value) == str(want.value)
    for bad in (np.ones(5), -ident_true.gains, np.r_[np.inf, np.ones(5)]):
        with pytest.raises(ValueError) as want:
            replace(plant, gains=tuple(bad))
        with pytest.raises(ValueError) as got:
            replace(ident_true, gains=bad)
        assert str(got.value) == str(want.value) \
            == "gains must be positive and finite per joint"


def test_fitted_model_predicts_held_out(ident, plant, data_b):
    # the identified model, built purely from simulated runs, reproduces
    # held-out torques to under one percent normalized absolute error
    tau_true = data_b.v * np.asarray(plant.gains)
    tau_hat = torque(ident, data_b.q, data_b.qd, data_b.qdd)
    for j in range(6):
        x = tau_true[:, j]
        mnae = 200.0 / x.size * np.sum(np.abs(x - tau_hat[:, j])) \
            / (x.max() - x.min())
        assert mnae < 1.0


def test_payload_aware_beats_ignorant(ident_true, plant, traj_b):
    from dynid.dataio import simulate
    db = simulate(plant, traj_b, duration=10.0, noise_v=0.05, seed=5,
                  payload=PAY)
    K = np.asarray(plant.gains)

    def avg_mnae(model):
        v_hat = torque(model, db.q, db.qd, db.qdd) / K
        out = []
        for j in range(6):
            x = db.v[:, j]
            out.append(200.0 / x.size * np.sum(np.abs(x - v_hat[:, j]))
                       / (x.max() - x.min()))
        return float(np.mean(out))

    aware = avg_mnae(configure_payload(ident_true, PAY))
    ignorant = avg_mnae(ident_true)
    assert aware < ignorant
