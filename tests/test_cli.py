import dataclasses
import os
import re

import numpy as np
import pytest

import estimation_oracle
from dynid import cli, estimation
from dynid.cli import (main, mnae, mse, validation_metrics, write_report)
from dynid.dataio import (differentiate, load_identified_model,
                          merge_sample_sets, read_samples,
                          ur10_default_model, write_payload,
                          write_robot_model, write_samples)
from dynid.estimation import friction_residual_currents, identify_coefficients
from dynid.payload import PayloadSpec
from dynid.solver import torque

PAYLOAD = PayloadSpec(mass=4.8, com=(0.10, 0.06, 0.05),
                      inertia_com=np.diag((0.030, 0.035, 0.030)))


# ---------------------------------------------------------------------------
# metric functions

def test_mse_values():
    x = np.array([1.0, 2.0, 3.0])
    assert mse(x, x) == 0.0
    assert mse(np.zeros(2), np.ones(2)) == 1.0
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((2, 2)))


def test_mnae_units_exact():
    # mean |x - y| = 0.1 over range 2 -> 200 * 0.1 / 2 = 10 percent exactly
    x = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    y = x + 0.1
    assert mnae(x, y) == 10.0
    assert mnae(x, x) == 0.0
    # normalization makes the score scale-free
    assert abs(mnae(5.0 * x, 5.0 * y) - mnae(x, y)) < 1e-12


def test_mnae_zero_range_rejected():
    with pytest.raises(ValueError, match="zero-range"):
        mnae(np.ones(4), np.zeros(4))


def test_validation_metrics(data_a):
    perfect = validation_metrics(data_a, data_a.v)
    assert np.array_equal(perfect.mse, np.zeros(6))
    assert np.array_equal(perfect.mnae, np.zeros(6))
    assert perfect.eta is None
    # a slightly worse baseline gives eta > 1 on every joint
    rng = np.random.default_rng(0)
    pred = data_a.v + 0.01 * rng.standard_normal(data_a.v.shape)
    base = data_a.v + 0.05 * rng.standard_normal(data_a.v.shape)
    m = validation_metrics(data_a, pred, base)
    assert m.eta is not None and np.all(m.eta > 1.0)
    assert np.all(m.mse > 0.0) and np.all(np.isfinite(m.mnae_nonlinear))
    with pytest.raises(ValueError):
        validation_metrics(data_a, data_a.v[:, :3])


def test_report_schema(data_a, tmp_path):
    m = validation_metrics(data_a, data_a.v)
    p = tmp_path / "report.csv"
    write_report(m, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "joint,mse,mnae,mnae_nonlinear_region"
    assert len(lines) == 7
    assert lines[1].split(",")[0] == "1"
    m2 = validation_metrics(data_a, data_a.v, baseline=data_a.v * 1.01)
    write_report(m2, p)
    header = p.read_text().splitlines()[0]
    assert header == "joint,mse,mnae,mnae_nonlinear_region,eta"


# ---------------------------------------------------------------------------
# end-to-end pipeline on files

@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full command-line workflow in one directory, noiseless data."""
    d = tmp_path_factory.mktemp("cli")
    robot = str(d / "robot.ini")
    payload = str(d / "payload.ini")
    write_robot_model(ur10_default_model(), robot)
    write_payload(PAYLOAD, payload)

    paths = {
        "dir": d, "robot": robot, "payload": payload,
        "traj_a": str(d / "traj_a.csv"), "traj_a2": str(d / "traj_a2.csv"),
        "traj_b": str(d / "traj_b.csv"),
        "run_a": str(d / "run_a.csv"), "run_a2": str(d / "run_a2.csv"),
        "run_b": str(d / "run_b.csv"),
        "model_lin": str(d / "model_lin.ini"),
        "model_fric": str(d / "model_fric.ini"),
        "model": str(d / "model.ini"),
        "torques": str(d / "torques.csv"), "report": str(d / "report.csv"),
    }
    steps = [
        ["traj", "gen", "--robot", robot, "--seed", "1",
         "--duration", "10", "--out", paths["traj_a"]],
        ["traj", "gen", "--robot", robot, "--seed", "5",
         "--duration", "10", "--out", paths["traj_a2"]],
        ["traj", "gen", "--robot", robot, "--seed", "2",
         "--duration", "10", "--out", paths["traj_b"]],
        ["simulate", "--robot", robot, "--traj", paths["traj_a"],
         "--seed", "3", "--out", paths["run_a"]],
        ["simulate", "--robot", robot, "--traj", paths["traj_a2"],
         "--seed", "3", "--out", paths["run_a2"]],
        ["simulate", "--robot", robot, "--traj", paths["traj_b"],
         "--payload", payload, "--seed", "4", "--out", paths["run_b"]],
    ]
    for argv in steps + _stage_steps(paths):
        assert main(argv) == 0, f"step failed: {argv}"
    return paths


# the files each step after simulate writes
_STAGE_OUTPUTS = ("model_lin", "model_fric", "model", "torques", "report")


def _stage_steps(p):
    """identify linear, friction and gains, solve and validate on the
    pipeline's runs, writing the files p names."""
    return [
        # one run alone is not persistently exciting; the stages merge logs
        ["identify", "linear", "--robot", p["robot"],
         "--samples", p["run_a"], p["run_a2"], "--out", p["model_lin"]],
        ["identify", "friction", "--model", p["model_lin"],
         "--samples", p["run_a"], p["run_a2"], "--out", p["model_fric"]],
        ["identify", "gains", "--model", p["model_fric"],
         "--samples-a", p["run_a"], p["run_a2"], "--samples-b", p["run_b"],
         "--payload", p["payload"], "--known", "mass,com",
         "--out", p["model"]],
        ["solve", "--model", p["model"], "--traj", p["run_a"],
         "--out", p["torques"]],
        ["validate", "--model", p["model"], "--samples", p["run_a"],
         "--report", p["report"]],
    ]


def test_pipeline_report(pipeline):
    lines = open(pipeline["report"]).read().splitlines()
    assert lines[0] == "joint,mse,mnae,mnae_nonlinear_region"
    assert len(lines) == 7
    for row in lines[1:]:
        fields = row.split(",")
        # noiseless data: the identified model explains itself tightly
        assert float(fields[2]) < 1.0


def test_pipeline_solve_schema(pipeline):
    lines = open(pipeline["torques"]).read().splitlines()
    head = lines[0].split(",")
    assert head[0] == "t"
    for k, name in enumerate(("tau", "inertia", "coriolis", "friction",
                              "gravity")):
        block = head[1 + 6 * k:7 + 6 * k]
        assert block == [f"{name}{j}" for j in range(1, 7)]
    ds = read_samples(pipeline["run_a"])
    assert len(lines) == ds.m + 1
    # decomposition columns sum to the torque column on every row
    row = np.array([float(x) for x in lines[3].split(",")])
    tau = row[1:7]
    parts = row[7:13] + row[13:19] + row[19:25] + row[25:31]
    assert np.max(np.abs(tau - parts)) < 1e-9


def test_solve_tau_is_solver_torque(pipeline):
    # solve writes tau as the sum of the four term blocks, which must agree
    # with solver.torque on the same states
    data = np.loadtxt(pipeline["torques"], delimiter=",", skiprows=1)
    model = load_identified_model(pipeline["model"])
    s = read_samples(pipeline["run_a"], qd_threshold=model.qd_threshold)
    tau = torque(model, s.q, s.qd, s.qdd)
    assert np.max(np.abs(data[:, 1:7] - tau)) < 1e-9


def test_friction_fit_reaches_oracle_minimum(pipeline):
    # identify friction's input: the linear model's residual on its runs
    model = load_identified_model(pipeline["model_lin"])
    s = cli._read_runs([pipeline["run_a"], pipeline["run_a2"]], "--samples",
                       model.n, model.qd_threshold)
    resid = friction_residual_currents(model.map, model.chain, model.chi, s)
    estimation_oracle.assert_reaches_minimum(s.qd, resid, model.qd_threshold,
                                             param_rtol=1e-6)


def test_traj_gen_deterministic(pipeline):
    d, robot = pipeline["dir"], pipeline["robot"]
    again = str(d / "traj_a_again.csv")
    assert main(["traj", "gen", "--robot", robot, "--seed", "1",
                 "--duration", "10", "--out", again]) == 0
    assert open(again, "rb").read() == open(pipeline["traj_a"], "rb").read()
    other = str(d / "traj_other.csv")
    assert main(["traj", "gen", "--robot", robot, "--seed", "9",
                 "--duration", "10", "--out", other]) == 0
    assert open(other, "rb").read() != open(pipeline["traj_a"], "rb").read()


@pytest.mark.parametrize("flag,value", [("--duration", "inf"),
                                        ("--rate", "inf"),
                                        ("--duration", "0"),
                                        ("--duration", "-5"),
                                        ("--rate", "1e-9"),
                                        ("--rate", "nan"),
                                        ("--duration", "nan")])
def test_traj_gen_rejects_bad_sampling(pipeline, capsys, flag, value):
    # a non-finite or non-positive value, or fewer than two samples, is
    # named, not a traceback or a downstream symptom
    out = pipeline["dir"] / "bad_sampling.csv"
    rc = main(["traj", "gen", "--robot", pipeline["robot"], "--seed", "1",
               flag, value, "--out", str(out)])
    assert rc == 2
    assert flag[2:] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["traj", "simulate"])
def test_negative_seed_is_named(pipeline, capsys, command):
    # a negative seed is named with its value, not numpy's message
    out = pipeline["dir"] / "negative_seed.csv"
    if command == "traj":
        argv = ["traj", "gen", "--robot", pipeline["robot"], "--seed", "-1",
                "--duration", "1", "--out", str(out)]
    else:
        argv = ["simulate", "--robot", pipeline["robot"], "--traj",
                pipeline["traj_a"], "--seed", "-3", "--out", str(out)]
    assert main(argv) == 2
    value = argv[argv.index("--seed") + 1]
    assert (f"seed must be a non-negative integer, got {value}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_simulate_deterministic(pipeline):
    d = pipeline["dir"]
    again = str(d / "run_a_again.csv")
    assert main(["simulate", "--robot", pipeline["robot"], "--traj",
                 pipeline["traj_a"], "--seed", "3", "--out", again]) == 0
    assert open(again, "rb").read() == open(pipeline["run_a"], "rb").read()


def test_stages_solve_and_validate_deterministic(pipeline):
    # every step after simulate, rerun into fresh files, writes the same
    # bytes: the three model files, the torques and the report
    d = pipeline["dir"] / "rerun"
    d.mkdir()
    again = dict(pipeline, **{k: str(d / os.path.basename(pipeline[k]))
                              for k in _STAGE_OUTPUTS})
    for argv in _stage_steps(again):
        assert main(argv) == 0, f"step failed: {argv}"
    for k in _STAGE_OUTPUTS:
        assert open(again[k], "rb").read() \
            == open(pipeline[k], "rb").read(), k


def test_exit_codes_usage(pipeline, capsys):
    assert main(["frobnicate"]) == 1
    assert "error=1" in capsys.readouterr().err
    # gains before friction: stage order is enforced by name
    rc = main(["identify", "gains", "--model", pipeline["model_lin"],
               "--samples-a", pipeline["run_a"],
               "--samples-b", pipeline["run_b"],
               "--payload", pipeline["payload"]])
    assert rc == 1
    assert "missing stage: friction" in capsys.readouterr().err
    # solving needs the gain stage
    rc = main(["solve", "--model", pipeline["model_fric"],
               "--traj", pipeline["run_a"], "--out",
               str(pipeline["dir"] / "nope.csv")])
    assert rc == 1
    assert "missing stage: gains" in capsys.readouterr().err


def test_exit_code_scenario_mismatch(pipeline, capsys):
    rc = main(["identify", "gains", "--model", pipeline["model_fric"],
               "--samples-a", pipeline["run_a"],
               "--samples-b", pipeline["run_a"],  # wrong: scenario 'a'
               "--payload", pipeline["payload"], "--known", "mass,com"])
    assert rc == 1
    assert "scenario 'b'" in capsys.readouterr().err


def test_bare_arm_stages_refuse_payload_runs(pipeline, capsys):
    # stages 1 and 2 model the arm alone; a payload run would fold the
    # payload into chi and the friction residual
    out = str(pipeline["dir"] / "nope.ini")
    for argv in (["identify", "linear", "--robot", pipeline["robot"]],
                 ["identify", "friction", "--model", pipeline["model_lin"]]):
        rc = main([*argv, "--samples", pipeline["run_b"], "--out", out])
        assert rc == 1, argv
        assert "--samples must hold scenario 'a'" in capsys.readouterr().err
    assert not os.path.exists(out)


# each flag that reads sample files: (command with that flag's files f,
# scenario the flag needs or None); the other flags get the pipeline's
# own files
_SAMPLE_FLAGS = {
    "linear --samples": (lambda p, f, out: [
        "identify", "linear", "--robot", p["robot"], "--samples", *f,
        "--out", out], "a"),
    "friction --samples": (lambda p, f, out: [
        "identify", "friction", "--model", p["model_lin"], "--samples", *f,
        "--out", out], "a"),
    "gains --samples-a": (lambda p, f, out: [
        "identify", "gains", "--model", p["model_fric"], "--samples-a", *f,
        "--samples-b", p["run_b"], "--payload", p["payload"],
        "--known", "mass,com", "--out", out], "a"),
    "gains --samples-b": (lambda p, f, out: [
        "identify", "gains", "--model", p["model_fric"],
        "--samples-a", p["run_a"], "--samples-b", *f,
        "--payload", p["payload"], "--known", "mass,com", "--out", out], "b"),
    "simulate --traj": (lambda p, f, out: [
        "simulate", "--robot", p["robot"], "--traj", *f, "--seed", "3",
        "--out", out], None),
    "solve --traj": (lambda p, f, out: [
        "solve", "--model", p["model"], "--traj", *f, "--out", out], None),
    "validate --samples": (lambda p, f, out: [
        "validate", "--model", p["model"], "--samples", *f,
        "--report", out], None),
    "validate --baseline": (lambda p, f, out: [
        "validate", "--model", p["model"], "--samples", p["run_a"],
        "--baseline", *f, "--report", out], None),
}
_RUN_OF = {"a": "run_a", "b": "run_b", None: "run_a"}


@pytest.mark.parametrize("case", [k for k, (_, tag) in _SAMPLE_FLAGS.items()
                                  if tag is not None])
def test_mixed_scenario_list_names_file_and_flag(pipeline, capsys, case):
    # a good file first, then one of the other scenario: the message names
    # the second file, its tag and the flag
    command, tag = _SAMPLE_FLAGS[case]
    flag = case.split()[1]
    other = "b" if tag == "a" else "a"
    wrong = pipeline[_RUN_OF[other]]
    out = str(pipeline["dir"] / "nope.out")
    rc = main(command(pipeline, [pipeline[_RUN_OF[tag]], wrong], out))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{flag} must hold scenario '{tag}'" in err
    assert f"{wrong} holds scenario '{other}'" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", sorted(_SAMPLE_FLAGS))
def test_wrong_joint_count_names_file_and_flag(pipeline, capsys, case):
    command, tag = _SAMPLE_FLAGS[case]
    flag = case.split()[1]
    s = read_samples(pipeline[_RUN_OF[tag]])
    five = str(pipeline["dir"] / f"{_RUN_OF[tag]}_5_joints.csv")
    write_samples(dataclasses.replace(
        s, q=s.q[:, :5], qd=s.qd[:, :5], qdd=s.qdd[:, :5], v=s.v[:, :5]),
        five)
    out = str(pipeline["dir"] / "nope.out")
    assert main(command(pipeline, [five], out)) == 2
    err = capsys.readouterr().err
    assert f"{flag} file {five} covers 5 joints, expected 6" in err
    assert not os.path.exists(out)


def test_short_baseline_names_file(pipeline, capsys):
    s = read_samples(pipeline["run_a"])
    short = str(pipeline["dir"] / "baseline_short.csv")
    write_samples(dataclasses.replace(
        s, t=s.t[:100], q=s.q[:100], qd=s.qd[:100], qdd=s.qdd[:100],
        v=s.v[:100]), short)
    command, _ = _SAMPLE_FLAGS["validate --baseline"]
    assert main(command(pipeline, [short],
                        str(pipeline["dir"] / "nope.csv"))) == 2
    err = capsys.readouterr().err
    assert f"--baseline file {short} holds 100 samples" in err


def test_each_file_is_differentiated_on_its_own(pipeline):
    # accelerations are derived per file, then merged, so no derivative
    # window reaches across the seam between the two runs
    files = [pipeline["run_a"], pipeline["run_a2"]]
    model = load_identified_model(pipeline["model_lin"])

    def fit(s):
        return identify_coefficients(model.map, model.chain, s).as_matrix()

    merged = merge_sample_sets(read_samples(f) for f in files)
    assert np.array_equal(model.chi, fit(merged))
    across = dataclasses.replace(merged,
                                 qdd=differentiate(merged.qd, merged.period))
    assert not np.array_equal(model.chi, fit(across))


def test_velocity_noise_gains_within_3_percent_or_exit_3(tmp_path):
    # scripts/run_pipeline.py's five runs with 1e-3 rad/s velocity noise
    # on top of its current noise: the stages either recover every drive
    # gain within 3 % or stop with a numeric failure, never a wrong gain
    # with exit 0
    d = str(tmp_path)
    write_robot_model(ur10_default_model(), f"{d}/robot.ini")
    write_payload(PAYLOAD, f"{d}/payload.ini")
    runs = {"a": [], "b": []}
    for tag, seeds, noise_seed in (("a", (1, 5, 9), 21), ("b", (2, 7), 31)):
        for k, seed in enumerate(seeds):
            traj, run = f"{d}/traj_{tag}{seed}.csv", f"{d}/run_{tag}{seed}.csv"
            assert main(["traj", "gen", "--robot", f"{d}/robot.ini",
                         "--seed", str(seed), "--out", traj]) == 0
            pay = ["--payload", f"{d}/payload.ini"] if tag == "b" else []
            assert main(["simulate", "--robot", f"{d}/robot.ini", "--traj",
                         traj, *pay, "--noise-v", "0.05", "--noise-qd",
                         "0.001", "--seed", str(noise_seed + k),
                         "--out", run]) == 0
            runs[tag].append(run)
    model = f"{d}/model.ini"
    for argv in (["identify", "linear", "--robot", f"{d}/robot.ini",
                  "--samples", *runs["a"], "--out", model],
                 ["identify", "friction", "--model", model,
                  "--samples", *runs["a"]],
                 ["identify", "gains", "--model", model,
                  "--samples-a", *runs["a"], "--samples-b", *runs["b"],
                  "--payload", f"{d}/payload.ini", "--known", "mass,com"]):
        rc = main(argv)
        if rc:
            assert rc == 3, argv
            return
    K = np.asarray(ur10_default_model().gains)
    assert np.max(np.abs(load_identified_model(model).gains - K) / K) <= 0.03


def test_validate_refuses_payload_runs(pipeline, capsys):
    # the model is the bare arm's, so a payload run would be scored against
    # torques that leave the payload out
    out = str(pipeline["dir"] / "nope.csv")
    rc = main(["validate", "--model", pipeline["model"], "--samples",
               pipeline["run_b"], "--report", out])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--samples must hold scenario 'a' (payload-free) data" in err
    assert f"{pipeline['run_b']} holds scenario 'b'" in err
    assert not os.path.exists(out)


def test_exit_code_unknown_group(pipeline, capsys):
    # every --known the gain solve cannot use is one usage error, named
    out = pipeline["dir"] / "known.ini"
    capsys.readouterr()
    for known, cause in (
            ("", "no payload parameter group is named"),
            ("com", "knowing the payload com requires its mass"),
            ("mass,inertia",
             "knowing the payload inertia requires mass and com"),
            ("mass,weight", "unknown payload parameter group 'weight'")):
        rc = main(["identify", "gains", "--model", pipeline["model_fric"],
                   "--samples-a", pipeline["run_a"],
                   "--samples-b", pipeline["run_b"],
                   "--payload", pipeline["payload"], "--known", known,
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, known
        assert err.startswith(f"error=1 msg=--known {known!r}: {cause}; "), \
            err
        assert not os.path.exists(out), known


def test_exit_code_missing_file(pipeline, capsys):
    rc = main(["identify", "linear", "--robot", pipeline["robot"],
               "--samples", str(pipeline["dir"] / "absent.csv"),
               "--out", str(pipeline["dir"] / "nope.ini")])
    assert rc == 2
    assert "error=2" in capsys.readouterr().err
    # a missing model file is a usage error that names the fix
    rc = main(["solve", "--model", str(pipeline["dir"] / "absent.ini"),
               "--traj", pipeline["run_a"],
               "--out", str(pipeline["dir"] / "nope.csv")])
    assert rc == 1
    assert "identify linear" in capsys.readouterr().err


def test_linalg_error_exits_3(pipeline, capsys, monkeypatch):
    # a factorisation that fails inside a stage is a numeric failure
    def failing(stack):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(estimation, "split_columns", failing)
    out = pipeline["dir"] / "linalg.ini"
    capsys.readouterr()
    rc = main(["identify", "linear", "--robot", pipeline["robot"],
               "--samples", pipeline["run_a"], pipeline["run_a2"],
               "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == ("error=3 msg=SVD did not "
                                       "converge\n")
    assert not out.exists()


# each role's file is read by a command that needs it
_INI_ROLES = {
    "robot": lambda p, bad, out: ["traj", "gen", "--robot", bad, "--seed",
                                  "1", "--duration", "1", "--out", out],
    "payload": lambda p, bad, out: ["solve", "--model", p["model"],
                                    "--payload", bad, "--traj", p["run_a"],
                                    "--out", out],
    "model": lambda p, bad, out: ["solve", "--model", bad,
                                  "--traj", p["run_a"], "--out", out],
}


def _break_ini(text, defect):
    lines = text.splitlines(keepends=True)
    if defect == "no_section_header":  # e.g. a sample CSV in an INI's place
        return "t,q1,qd1,v1,scenario\n" + text
    if defect == "duplicate_section":
        return text + next(line for line in lines if line.startswith("["))
    k = next(i for i, line in enumerate(lines) if " = " in line)
    return "".join(lines[:k + 1] + lines[k:])  # duplicate key


@pytest.mark.parametrize("defect", ["no_section_header", "duplicate_section",
                                    "duplicate_key"])
@pytest.mark.parametrize("role", sorted(_INI_ROLES))
def test_malformed_ini_exits_2(pipeline, capsys, role, defect):
    bad = str(pipeline["dir"] / f"bad_{role}_{defect}.ini")
    with open(pipeline[role]) as fh:
        text = fh.read()
    with open(bad, "w") as fh:
        fh.write(_break_ini(text, defect))
    out = str(pipeline["dir"] / "nope.csv")
    assert main(_INI_ROLES[role](pipeline, bad, out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error=2 msg=") and err.count("\n") == 1
    assert bad in err


def _edit_key(text, section, key, value):
    """text with key in [section] set to value."""
    head, _, rest = text.partition(f"[{section}]\n")
    return head + f"[{section}]\n" + re.sub(
        rf"^{re.escape(key)} = .*$", f"{key} = {value}", rest, count=1,
        flags=re.M)


# a value that parses but lies out of range: (role, section, key, value)
_OUT_OF_RANGE = {
    "model gain": ("model", "gains", "K_NmA", "13 -1 11 11 11 11"),
    "robot gain": ("robot", "gains", "K_NmA", "13 -1 11 11 11 11"),
    "payload mass": ("payload", "payload", "mass_kg", "-1"),
    "link mass": ("robot", "inertial.link_2", "mass_kg", "-12.7"),
    "payload rotation": ("payload", "payload", "R_l_n",
                         "1 0 0 0 1 0 0 0 2"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_value_names_file_and_key(pipeline, capsys, case):
    role, section, key, value = _OUT_OF_RANGE[case]
    bad = str(pipeline["dir"] / f"bad_{case.replace(' ', '_')}.ini")
    with open(pipeline[role]) as fh:
        edited = _edit_key(fh.read(), section, key, value)
    assert f"{key} = {value}" in edited
    with open(bad, "w") as fh:
        fh.write(edited)
    out = bad[:-len(".ini")] + "_out.csv"
    assert main(_INI_ROLES[role](pipeline, bad, out)) == 2
    err = capsys.readouterr().err
    assert bad in err and f"{key} in [{section}]" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value, why", [
    ("-1 -1 -1", "must be positive semidefinite"),
    ("0.03 0.035 0.03 0", "must have 3 or 6 values, got 4")])
@pytest.mark.parametrize("command", ["solve", "identify gains"])
def test_payload_inertia_no_body_has_names_file(pipeline, capsys, command,
                                                value, why):
    # a payload inertia must be a body's, as InertialParameters.from_com
    # requires of a link's; the payload would otherwise fold a tensor no
    # body has into the solver's last link, or into stage 3's known part
    p = pipeline
    bad = str(p["dir"] / "bad_inertia.ini")
    with open(p["payload"]) as fh:
        text = _edit_key(fh.read(), "payload", "inertia_l_kgm2", value)
    with open(bad, "w") as fh:
        fh.write(text)
    out = str(p["dir"] / "bad_inertia_out")
    argv = {"solve": ["solve", "--model", p["model"], "--payload", bad,
                      "--traj", p["run_a"], "--out", out],
            "identify gains": ["identify", "gains", "--model",
                               p["model_fric"], "--samples-a", p["run_a"],
                               "--samples-b", p["run_b"], "--payload", bad,
                               "--known", "mass,com,inertia", "--out", out]}
    assert main(argv[command]) == 2
    err = capsys.readouterr().err
    assert f"{bad}: inertia_l_kgm2 in [payload] {why}" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("role", ["robot", "traj"])
def test_non_utf8_input_exits_2(pipeline, capsys, role):
    # a 0xff byte at the start of an INI, or inside a CSV data row
    d = pipeline["dir"]
    out = str(d / "nope.csv")
    if role == "robot":
        bad = str(d / "bad_robot_utf8.ini")
        with open(pipeline["robot"], "rb") as fh:
            data = b"\xff" + fh.read()
        argv = ["traj", "gen", "--robot", bad, "--seed", "1",
                "--duration", "1", "--out", out]
    else:
        bad = str(d / "bad_traj_utf8.csv")
        with open(pipeline["traj_a"], "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        data = b"".join(lines)
        argv = ["simulate", "--robot", pipeline["robot"], "--traj", bad,
                "--seed", "3", "--out", out]
    with open(bad, "wb") as fh:
        fh.write(data)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error=2 msg=") and err.count("\n") == 1
    assert bad in err and "UTF-8" in err


@pytest.mark.parametrize("flag,value", [("--noise-v", "-1"),
                                        ("--noise-qd", "-0.1"),
                                        ("--noise-v", "nan")])
def test_simulate_rejects_bad_noise(pipeline, capsys, flag, value):
    # a negative or non-finite std is an error, not a noise-free run
    out = pipeline["dir"] / "noisy.csv"
    rc = main(["simulate", "--robot", pipeline["robot"],
               "--traj", pipeline["traj_a"], flag, value, "--seed", "3",
               "--out", str(out)])
    assert rc == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not out.exists()


def _model_with_threshold(pipeline, value):
    bad = pipeline["dir"] / f"model_threshold_{value}.ini"
    text, count = re.subn(r"(?m)^qd_threshold_rad_s = .*$",
                          f"qd_threshold_rad_s = {value}",
                          open(pipeline["model_lin"]).read())
    assert count == 1
    bad.write_text(text)
    return str(bad)


def test_nonfinite_qd_threshold_exits_2(pipeline, capsys):
    # on the command line: the threshold itself is named, not a
    # disagreement between the merged files
    rc = main(["identify", "linear", "--robot", pipeline["robot"],
               "--samples", pipeline["run_a"], pipeline["run_a2"],
               pipeline["run_a"], "--qd-threshold", "nan",
               "--out", str(pipeline["dir"] / "nope.ini")])
    assert rc == 2
    assert "qd_threshold" in capsys.readouterr().err
    # in a model file, non-finite or negative: refused on load, before any
    # stage runs
    for value in ("nan", "-1"):
        bad = _model_with_threshold(pipeline, value)
        rc = main(["identify", "friction", "--model", bad,
                   "--samples", pipeline["run_a"],
                   "--out", str(pipeline["dir"] / "nope.ini")])
        assert rc == 2
        err = capsys.readouterr().err
        assert bad in err and "qd_threshold_rad_s" in err


def test_non_numeric_model_threshold_names_file(pipeline, capsys):
    bad = _model_with_threshold(pipeline, "abc")
    rc = main(["solve", "--model", bad, "--traj", pipeline["run_a"],
               "--out", str(pipeline["dir"] / "nope.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert bad in err and "qd_threshold_rad_s" in err


def test_unknown_scenario_tag_names_file_and_row(pipeline, capsys):
    bad = pipeline["dir"] / "traj_tag_c.csv"
    text = open(pipeline["traj_a"]).read()
    bad.write_text(text.replace(",a\n", ",c\n"))
    rc = main(["simulate", "--robot", pipeline["robot"], "--traj", str(bad),
               "--seed", "3", "--out", str(pipeline["dir"] / "nope.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "row 2" in err and "'c'" in err


def test_validate_with_baseline(pipeline):
    report2 = str(pipeline["dir"] / "report_eta.csv")
    rc = main(["validate", "--model", pipeline["model"],
               "--samples", pipeline["run_a"],
               "--baseline", pipeline["run_b"], "--report", report2])
    assert rc == 0
    lines = open(report2).read().splitlines()
    assert lines[0].endswith(",eta")
    assert len(lines[1].split(",")) == 5




def test_irls_cap_is_reported(pipeline, capsys, monkeypatch):
    # a noisy run converges and prints no IRLS line; with the cap at one
    # iteration, the joints still moving there are named on one line
    d, robot = pipeline["dir"], pipeline["robot"]
    noisy = []
    for key, seed in (("traj_a", "21"), ("traj_a2", "22")):
        noisy.append(str(d / f"noisy_{key}.csv"))
        assert main(["simulate", "--robot", robot, "--traj", pipeline[key],
                     "--noise-v", "0.05", "--seed", seed,
                     "--out", noisy[-1]]) == 0
    capsys.readouterr()
    linear = ["identify", "linear", "--robot", robot, "--samples", *noisy,
              "--out", str(d / "noisy_model.ini")]
    gains = ["identify", "gains", "--model", pipeline["model_fric"],
             "--samples-a", pipeline["run_a"], pipeline["run_a2"],
             "--samples-b", pipeline["run_b"],
             "--payload", pipeline["payload"], "--known", "mass,com",
             "--out", str(d / "capped_gains.ini")]
    assert main(linear) == 0
    assert [x.split()[0] for x in capsys.readouterr().out.splitlines()] \
        == ["linear", "wrote"]
    monkeypatch.setattr(estimation, "WEIGHT_MAX_ITER", 1)
    for argv, named in ((linear, "1, 2, 3, 4, 5, 6"), (gains, "1, 2, 3")):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2] == ("robust weights still moving at IRLS iteration "
                             f"cap 1 on joint(s) {named}; fitted with the "
                             "last iterate")
        assert sum("robust weights" in x for x in lines) == 1


def test_gain_below_its_bound_exits_3(pipeline, capsys, monkeypatch):
    # with the gain floor above the true gains of joints 3-6, every joint
    # is solved and one error line names those four, in joint order, each
    # with the floor; no model is written
    out = pipeline["dir"] / "bounded_gains.ini"
    argv = ["identify", "gains", "--model", pipeline["model_fric"],
            "--samples-a", pipeline["run_a"], pipeline["run_a2"],
            "--samples-b", pipeline["run_b"],
            "--payload", pipeline["payload"], "--known", "mass,com",
            "--out", str(out)]
    monkeypatch.setattr(estimation, "GAIN_LOWER", 12.0)
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    below = "; ".join(rf"joint {j}: drive gain [\d.]+ Nm/A is below its "
                      "lower bound 12" for j in (3, 4, 5, 6))
    assert re.fullmatch(f"error=3 msg={below}; run b was likely not "
                        "recorded on run a's trajectory, or the joint is "
                        "weakly excited\n", captured.err)
    assert not out.exists()


def test_run_b_without_rows_for_a_joint_exits_3(pipeline, capsys):
    # run b on a trajectory that holds joints 2, 3, 5 and 6 still leaves
    # them no linearity-region rows: one error names joint 2, the first
    # in joint order, and no model is written
    d = pipeline["dir"]
    traj = read_samples(pipeline["traj_b"])
    q, qd = np.array(traj.q), np.array(traj.qd)
    held = [1, 2, 4, 5]
    q[:, held], qd[:, held] = q[0, held], 0.0
    write_samples(dataclasses.replace(traj, q=q, qd=qd), d / "traj_held.csv")
    run_b = str(d / "run_b_held.csv")
    assert main(["simulate", "--robot", pipeline["robot"], "--traj",
                 str(d / "traj_held.csv"), "--payload", pipeline["payload"],
                 "--seed", "4", "--out", run_b]) == 0
    out = d / "unexcited_gains.ini"
    capsys.readouterr()
    assert main(["identify", "gains", "--model", pipeline["model_fric"],
                 "--samples-a", pipeline["run_a"], pipeline["run_a2"],
                 "--samples-b", run_b, "--payload", pipeline["payload"],
                 "--known", "mass,com", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error=3 msg=joint 2: run b has no linearity-region samples; the "
        "joint never moves faster than the velocity threshold\n")
    assert not out.exists()
