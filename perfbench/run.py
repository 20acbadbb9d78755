"""Benchmark for dynid: three workloads, end-to-end metrics with the accuracy
of the same run, and a separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload identify|cli_pipeline|solver|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics; the lines before it
are a readable table.  With --trace 0 the metrics are the end-to-end metrics
of BENCHMARK.json, with --trace 1 its per-layer metrics.  Every result is
also written, with the environment it ran in, to .perfbench_out/.  See
perfbench/README.md for what each metric means.
"""

import os

# BLAS runs on one thread in the benchmark and in every child it starts.
# OpenBLAS reads these when it loads, so they are set before numpy is
# imported.  The library itself never sets them.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
UNPINNED_ENV = {k: v for k, v in os.environ.items() if k not in PINNED}
for _var in PINNED:
    os.environ[_var] = "1"

import argparse
import glob
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
# the cli_pipeline commands a user waits on interactively
QUICK_COMMANDS = ("traj_gen", "simulate", "validate", "solve")

if not os.path.isfile(os.path.join(SRC, "dynid", "__init__.py")):
    sys.exit(f"dynid sources not found under {SRC}; run from a full "
             "checkout of the repository")
sys.path.insert(0, SRC)
import numpy as np  # noqa: E402  (after the BLAS pinning above)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def child_env(base):
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, base.get("PYTHONPATH")) if p)
    return env


def run_child(args, env):
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args[1:3])} failed: "
                           f"{proc.stderr.strip()[-400:]}")
    return proc


def probe_setup(env):
    proc = run_child([sys.executable, os.path.join(BENCH, "probe_setup.py")],
                     env)
    return json.loads(proc.stdout.splitlines()[-1])


def scipy_signal_import_s(env) -> float:
    """Cumulative import time of scipy.signal under ``import dynid``; 0 when
    the package no longer imports it."""
    proc = run_child([sys.executable, "-X", "importtime", "-c",
                      "import dynid"], env)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "scipy.signal":
            return int(parts[1]) * 1e-6
    return 0.0


def median(values):
    return float(statistics.median(values)) if values else None


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__),
                                      os.pardir, "numpy.libs", "*openblas*")):
        import ctypes
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype = ctypes.c_int
            runtime = fn()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dynid", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + fh.read())
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"threads": {v: os.environ[v] for v in PINNED},
            "openblas_runtime_threads": runtime,
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": blas.get("version"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest()}


def peak_rss_mb(with_children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# metrics

def end_to_end(wl, records, setup_s, tally, setup_factor, factor):
    """The metrics of one workload: the generic ones BENCHMARK.json guards
    on every workload, then the ones named for this workload.

    The guarded timings are wall times scaled to the reference machine
    speed (speed.py) by the speed kernel's samples taken nearest to them:
    set-up by ``setup_factor``, a pipeline or a solver cycle by the samples
    taken during or right after it, identify's held-out calls by those right
    after them, and identify's operations, which are long, by ``factor``,
    from all of the run's samples.  Each is also reported unscaled as
    ``*_wall_*``, and so are the named timings.

    An operation's guarded time is the run's median, and so is a call's; on
    cli_pipeline the per-type medians of the quick commands are summed.
    """
    timed = [r for r in records if "op_s" in r]
    scored = [r for r in records if "gain_err_pct" in r]
    scale = [r.get("factor", factor) for r in timed]
    ops = [r["op_s"] for r in timed]
    if wl.name == "identify":
        calls = [t * 1e3 for r in timed for t in r["call_s"]]
        call_ms = median(calls)
        call_scaled = median([t * 1e3 * r["call_factor"] for r in timed
                              for t in r["call_s"]])
    elif wl.name == "cli_pipeline":
        by_cmd, by_cmd_scaled = {}, {}
        for r, f in zip(timed, scale):
            for label, t in r["cmd_times"]:
                if label in QUICK_COMMANDS:
                    by_cmd.setdefault(label, []).append(t * 1e3)
                    by_cmd_scaled.setdefault(label, []).append(t * 1e3 * f)
        calls = [t for times in by_cmd.values() for t in times]
        # every quick command type counts once, so a slower sample read or
        # model load in validate or solve moves it as much as one in traj gen
        call_ms = sum(median(t) for t in by_cmd.values()) if calls else None
        call_scaled = sum(median(t) for t in by_cmd_scaled.values()) \
            if calls else None
    else:
        calls = [t * 1e3 for r in timed for t in r["torque_1"]]
        call_ms = median(calls)
        call_scaled = median([t * 1e3 * f for r, f in zip(timed, scale)
                              for t in r["torque_1"]])
    op_p50, call_p50 = median(ops), median(calls)
    m = {"setup_s": (setup_s * setup_factor, "s"),
         "op_p50_s": (median([o * f for o, f in zip(ops, scale)]), "s"),
         "call_ms": (call_scaled, "ms"),
         "peak_rss_mb": (peak_rss_mb(wl.name == "cli_pipeline"), "MB"),
         "speed_factor": (median(scale), "ratio"),
         "setup_wall_s": (setup_s, "s"),
         "op_p50_wall_s": (op_p50, "s"),
         "call_wall_ms": (call_ms, "ms")}
    if wl.name == "identify":
        m["identify_s"] = (op_p50, "s")
    elif wl.name == "cli_pipeline":
        m["pipeline_s"] = (op_p50, "s")
        m["cli_cmd_p50_s"] = (call_p50 / 1e3 if calls else None, "s")
    else:
        total = sum(ops)
        m["solve_states_per_s"] = (
            sum(r["states"] for r in timed) / total if total else None,
            "states/s")
        m["torque_1_p50_us"] = (call_p50 * 1e3 if calls else None, "us")
        m["torque_1_p99_us"] = (
            float(np.percentile(calls, 99)) * 1e3 if calls else None, "us")
    if scored:
        # deterministic per seed; the first scored repeat stands for all
        m["gain_err_max_pct"] = (scored[0]["gain_err_pct"], "%")
        m["heldout_mnae_max_pct"] = (scored[0]["mnae_pct"], "%")
    m["fail_frac"] = (tally.failed / max(tally.attempted, 1), "ratio")
    counts = {"ops": len(ops), "calls": len(calls)}
    return m, counts


def per_layer(tracer, wl, setup, traced_walls, untraced_walls):
    roots = [i for i, sp in enumerate(tracer.spans)
             if sp[0] == "op" and sp[4] == -1]
    per = [spans.per_op(tracer.spans, r) for r in roots]

    def fn(s, name):
        return s["fn"].get(name, [0, 0.0, [], {}])

    def total(name, pred=None):
        return median([sum(d for d, a in fn(s, name)[2]
                           if pred is None or pred(a)) for s in per])

    def calls(name):
        return median([fn(s, name)[0] for s in per])

    def attr(name, key):
        return median([fn(s, name)[3].get(key, 0) for s in per])

    def per_call_us(name, pred):
        durs = [d for s in per for d, a in fn(s, name)[2] if pred(a)]
        return median(durs) * 1e6 if durs else 0.0

    def batch(payload):
        return lambda a: not a.get("single") and a.get("payload") == payload

    states = attr("dynamics.regressor_stack", "states")
    m = {
        "import.dynid_s": (setup["import_s"], "s"),
        "import.scipy_signal_s": (setup["scipy_signal_s"], "s"),
        "dataio.read_samples_s": (total("dataio.read_samples"), "s"),
        "dataio.read_rows": (attr("dataio.read_samples", "rows"), "count"),
        "dataio.write_samples_s": (total("dataio.write_samples"), "s"),
        "dataio.write_rows": (attr("dataio.write_samples", "rows"), "count"),
        "dataio.simulate_s": (total("dataio.simulate"), "s"),
        "dynamics.regressor_stack_s": (total("dynamics.regressor_stack"),
                                       "s"),
        "dynamics.regressor_stack_calls": (calls("dynamics.regressor_stack"),
                                           "count"),
        "dynamics.regressor_states": (states, "count"),
        "dynamics.regressor_rebuild_ratio": (states / wl.distinct_states,
                                             "ratio"),
        "reduction.compute_base_map_cold_s": (setup["cold_map_s"], "s"),
        "reduction.compute_base_map_warm_s": (setup["warm_map_s"], "s"),
        "reduction.compute_base_map_cold_unpinned_s": (
            setup["cold_map_unpinned_s"], "s"),
        "reduction.compute_base_map_calls": (
            calls("reduction.compute_base_map"), "count"),
        "reduction.minimal_regressor_stack_s": (
            total("reduction.minimal_regressor_stack"), "s"),
        "estimation.stage1_s": (total("estimation.identify_coefficients"),
                                "s"),
        "estimation.irls_calls": (calls("estimation.robust_weights"),
                                  "count"),
        "estimation.irls_iters": (attr("estimation.robust_weights",
                                       "iterations"), "count"),
        "estimation.irls_unconverged": (attr("estimation.robust_weights",
                                             "unconverged"), "count"),
        "estimation.friction_residual_s": (
            total("estimation.friction_residual_currents"), "s"),
        "estimation.stage2_s": (total("estimation.fit_friction"), "s"),
        "estimation.lm_iters": (attr("estimation.fit_friction", "lm_iters"),
                                "count"),
        "estimation.stage3_s": (total("estimation.estimate_gains"), "s"),
        "estimation.gain_bounded_joints": (
            attr("estimation.estimate_gains", "bounded"), "count"),
        "solver.torque_batch_s": (total("solver.torque", batch(False)), "s"),
        "solver.torque_payload_batch_s": (total("solver.torque", batch(True)),
                                          "s"),
        "solver.torque_terms_batch_s": (
            total("solver.torque_terms", lambda a: not a.get("single")), "s"),
        "solver.torque_1_us": (per_call_us("solver.torque",
                                           lambda a: a.get("single")), "us"),
        "solver.inertia_1_us": (per_call_us("solver.inertia",
                                            lambda a: True), "us"),
        "solver.load_model_s": (total("solver.load_identified_model"), "s"),
        "solver.save_model_s": (total("solver.save_identified_model"), "s"),
    }
    for cmd in ("traj_gen", "simulate", "identify_linear",
                "identify_friction", "identify_gains", "solve", "validate"):
        m[f"cli.{cmd}_s"] = (total(f"cli.cmd_{cmd}"), "s")
    for layer in spans.LAYERS:
        m[f"layer.{layer}.self_s"] = (
            median([s["layer"].get(layer, [0, 0.0])[1] for s in per]), "s")
        m[f"layer.{layer}.calls"] = (
            median([s["layer"].get(layer, [0, 0.0])[0] for s in per]),
            "count")
    m["trace.overhead_s"] = (median(traced_walls) - median(untraced_walls),
                             "s")
    m["trace.spans_per_op"] = (median([s["spans"] for s in per]), "count")
    return m


# ---------------------------------------------------------------------------
# main loop

def measure_setup(trace: bool):
    pinned = child_env(os.environ)
    probes = [probe_setup(pinned) for _ in range(SETUP_REPEATS)]
    setup = {key: median([p[key] for p in probes])
             for key in ("import_s", "cold_map_s", "warm_map_s")}
    setup["setup_s"] = median([p["import_s"] + p["cold_map_s"]
                               for p in probes])
    if trace:
        setup["cold_map_unpinned_s"] = \
            probe_setup(child_env(UNPINNED_ENV))["cold_map_s"]
        setup["scipy_signal_s"] = scipy_signal_import_s(pinned)
    return setup


def run_workload(name, seed, seconds, trace):
    tally = workloads.Tally()
    pace = speed.Pace()
    pace.sample()
    setup = measure_setup(trace)
    pace.sample()
    # set-up is scaled by the samples around it, the operations by all
    setup_factor = pace.factor()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    extra = {"pace": pace} if name in ("identify", "solver") else {}
    if name == "cli_pipeline":
        os.makedirs(workdir)
        extra = {"workdir": workdir, "env": child_env(os.environ),
                 "launcher": os.path.join(BENCH, "launch.py"), "pace": pace}
    try:
        wl = workloads.WORKLOADS[name](seed, tally, **extra)
        tracer = spans.Tracer() if trace else None
        records, traced_walls, untraced_walls = [], [], []
        start = time.perf_counter()
        while len(records) + len(traced_walls) < wl.min_ops \
                or time.perf_counter() - start < seconds:
            pace.sample()
            t0, spent = time.perf_counter(), pace.spent
            records.append(wl.op())
            untraced_walls.append(time.perf_counter() - t0
                                  - (pace.spent - spent))
            if trace:
                t0 = time.perf_counter()
                wl.op(tracer)
                traced_walls.append(time.perf_counter() - t0)
        pace.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = per_layer(tracer, wl, setup, traced_walls, untraced_walls)
        counts = {"traced_ops": len(traced_walls)}
        tracer.dump(os.path.join(OUT, f"spans-{name}-seed{seed}.json"))
    else:
        metrics, counts = end_to_end(wl, records, setup["setup_s"], tally,
                                     setup_factor, pace.factor())
    return metrics, counts, tally, records, pace.times


def guarded_names(trace: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                    help="workload seed; the default reproduces the "
                         "acceptance gate's data")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measuring time of the closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    metrics, counts, tally, records, kernel_s = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={tally.attempted} failed={tally.failed} "
          + " ".join(f"{k}={v}" for k, v in counts.items()))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {key:44s} {fmt(value):>14s} {unit}")
    for reason in tally.reasons:
        print(f"failure: {reason}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.reasons, "counts": counts, "env": env,
                   "metrics": {k: {"value": v, "unit": u}
                               for k, (v, u) in metrics.items()},
                   "records": records, "kernel_s": kernel_s},
                  fh, indent=1)
    guarded = {}
    for name in guarded_names(bool(args.trace)):
        value, unit = metrics[name]
        guarded[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": guarded}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
