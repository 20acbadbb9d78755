"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for its minimum number of operations, untraced and
traced, and checks that each run reports every metric with its unit.  Then
feeds deliberately corrupted values to the benchmark's own correctness
checks and checks that each is counted as a failure, so the checks are shown
not to be vacuous.  Exits non-zero with a message on the first problem.
Takes about four minutes on two cores; it is not part of the repository's
test suite.
"""

import json
import os
import subprocess
import sys

import run  # pins BLAS threads and puts src/ on the path, before numpy

import numpy as np  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402

SHORT = ["--seconds", "0.1"]

# the end-to-end metrics each workload reports beside the guarded ones
NAMED = {
    "identify": {"identify_s": "s", "gain_err_max_pct": "%",
                 "heldout_mnae_max_pct": "%"},
    "cli_pipeline": {"pipeline_s": "s", "cli_cmd_p50_s": "s",
                     "gain_err_max_pct": "%", "heldout_mnae_max_pct": "%"},
    "solver": {"solve_states_per_s": "states/s", "torque_1_p50_us": "us",
               "torque_1_p99_us": "us"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
          "speed_factor": "ratio", "setup_wall_s": "s", "op_p50_wall_s": "s",
          "call_wall_ms": "ms"}


def require(ok, message):
    if not ok:
        sys.exit(f"selftest: {message}")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload",
         workload, "--trace", str(trace), *SHORT],
        cwd=run.ROOT, capture_output=True, text=True)
    require(proc.returncode == 0,
            f"{workload} trace={trace} exited {proc.returncode}: "
            f"{proc.stderr[-500:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    where = f"{workload} trace={trace}"
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            f"{where}: result keys {sorted(result)}")
    require(result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1, f"{where}: {result}")
    wanted = {m["name"]: m["unit"]
              for m in spec()["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    require(set(got) == set(wanted),
            f"{where}: metrics {sorted(set(got) ^ set(wanted))} differ")
    for name, unit in wanted.items():
        value = got[name]["value"]
        require(got[name]["unit"] == unit, f"{where}: {name} unit")
        require(isinstance(value, (int, float)) and np.isfinite(value),
                f"{where}: {name} = {value!r}")
    if not trace:
        path = os.path.join(run.OUT, f"{workload}-seed0-trace0.json")
        with open(path) as fh:
            named = json.load(fh)["metrics"]
        for name, unit in {**COMMON, **NAMED[workload]}.items():
            require(name in named and named[name]["unit"] == unit
                    and named[name]["value"] is not None,
                    f"{where}: {name} missing from {path}")
    print(f"ok   {where}: {len(got)} metrics, {result['attempted']} ops")


def check_checks():
    """Corrupted inputs to each correctness check count as failures."""
    tally = workloads.Tally()
    wl = workloads.Identify(0, tally, pace=speed.Pace(), run_duration=8.0)
    wl.op()
    require(tally.failed == 0, f"identify failed: {tally.reasons}")
    gains, tau = wl.ref
    wl.ref = (gains * 1.1, tau)
    wl.op()
    require((tally.attempted, tally.failed) == (2, 1),
            "identify: gains scaled by 1.1 not counted as a failure")
    require(workloads.Identify.check(gains * np.nan, tau, (None, None)),
            "identify: non-finite gains pass")
    require(workloads.Identify.check(-gains, tau, (None, None)),
            "identify: negative gains pass")

    tally = workloads.Tally()
    wl = workloads.Solver(0, tally, pace=speed.Pace(), run_duration=4.0)
    wl.op()
    require(tally.failed == 0, f"solver failed: {tally.reasons}")
    wl.ref["arm"] = wl.ref["arm"] * (1.0 + 1e-6)
    wl.op()
    require(tally.failed == 1,
            "solver: torques off rnea by 1e-6 not counted as a failure")
    tau = wl.ref["pay"]
    terms = (tau, np.zeros_like(tau), np.zeros_like(tau), np.zeros_like(tau))
    require(not workloads.check_terms(terms, tau), "terms: exact sum fails")
    require(workloads.check_terms(terms, tau + 1e-6), "terms: 1e-6 passes")
    require(workloads.check_single(tau[0] + 1e-12, tau[0]),
            "single state: a 1e-12 difference passes")

    digests = {"model.ini": "a", "report.csv": "b"}
    check = workloads.CliPipeline.check
    require(not check(gains, digests, dict(digests)), "cli: identical fails")
    require(check(gains, digests, {**digests, "report.csv": "c"}),
            "cli: a changed output file passes")
    require(check(gains, digests, {"model.ini": "a"}),
            "cli: a missing output file passes")
    require(check(gains * np.inf, digests, None), "cli: infinite gains pass")
    print("ok   corrupted inputs are counted as failures")


if __name__ == "__main__":
    os.makedirs(run.OUT, exist_ok=True)
    check_checks()
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace)
    print("selftest passed")
