"""In-memory span tracer and the wrappers that time dynid's public functions.

A span records name, layer, start, end, parent and a few attributes (row
counts, iteration counts).  Spans stay in memory and are written out when
the benchmark ends.  All times come from ``time.perf_counter``, which on
Linux is CLOCK_MONOTONIC and therefore comparable across processes; spans
recorded in CLI child processes are merged into the main process's timeline
unchanged.

Python binds names at import, so a wrapper installed only on the defining
module misses calls through ``from .dynamics import regressor_stack``.
``install`` therefore replaces the function in every loaded dynid module
that holds it.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np


def _rows(a):
    a = np.asarray(a)
    return int(a.shape[0]) if a.ndim == 2 else 1


def _states_arg(args, kwargs, pos, key="Q"):
    return {"states": _rows(args[pos] if len(args) > pos else kwargs[key])}


def _solver_kind(args, kwargs, result):
    model, q = args[0], args[1] if len(args) > 1 else kwargs["q"]
    return {"single": np.asarray(q).ndim == 1,
            "payload": getattr(model, "payload", None) is not None}


# (module, function, layer, attrs(args, kwargs, result) -> dict or None)
TRACED = (
    ("dynid.dynamics", "regressor_stack", "dynamics",
     lambda a, k, r: _states_arg(a, k, 1)),
    ("dynid.reduction", "compute_base_map", "reduction", None),
    ("dynid.reduction", "minimal_regressor_stack", "reduction",
     lambda a, k, r: _states_arg(a, k, 2)),
    ("dynid.dataio", "read_samples", "dataio",
     lambda a, k, r: {"rows": int(r.m)}),
    ("dynid.dataio", "write_samples", "dataio",
     lambda a, k, r: {"rows": int(a[0].m)}),
    ("dynid.dataio", "simulate", "dataio", None),
    ("dynid.dataio", "read_robot_model", "dataio", None),
    ("dynid.dataio", "write_robot_model", "dataio", None),
    ("dynid.dataio", "read_payload", "dataio", None),
    ("dynid.dataio", "write_payload", "dataio", None),
    ("dynid.estimation", "identify_coefficients", "estimation", None),
    ("dynid.estimation", "robust_weights", "estimation",
     lambda a, k, r: {"iterations": int(r.iterations),
                      "unconverged": int(not r.converged)}),
    ("dynid.estimation", "friction_residual_currents", "estimation", None),
    ("dynid.estimation", "fit_friction", "estimation",
     lambda a, k, r: {"lm_iters": int(sum(r.iterations))}),
    ("dynid.estimation", "estimate_gains", "estimation",
     lambda a, k, r: {"bounded": int(sum(r.bounded))}),
    ("dynid.solver", "torque", "solver", _solver_kind),
    ("dynid.solver", "torque_terms", "solver", _solver_kind),
    ("dynid.solver", "inertia", "solver", None),
    ("dynid.solver", "configure_payload", "solver", None),
    ("dynid.solver", "load_identified_model", "solver", None),
    ("dynid.solver", "save_identified_model", "solver", None),
    ("dynid.cli", "cmd_traj_gen", "cli", None),
    ("dynid.cli", "cmd_simulate", "cli", None),
    ("dynid.cli", "cmd_identify_linear", "cli", None),
    ("dynid.cli", "cmd_identify_friction", "cli", None),
    ("dynid.cli", "cmd_identify_gains", "cli", None),
    ("dynid.cli", "cmd_solve", "cli", None),
    ("dynid.cli", "cmd_validate", "cli", None),
)

LAYERS = ("import", "dataio", "dynamics", "reduction", "estimation",
          "solver", "cli", "bench")


class Tracer:
    """Spans as lists [name, layer, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def begin(self, name, layer) -> int:
        idx = len(self.spans)
        self.spans.append([name, layer, time.perf_counter(), None,
                           self._stack[-1], {}])
        self._stack.append(idx)
        return idx

    def end(self, idx, **attrs) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[5].update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name, layer):
        idx = self.begin(name, layer)
        try:
            yield idx
        finally:
            self.end(idx)

    def adopt(self, spans, parent: int) -> None:
        """Append spans recorded by another process under a parent span."""
        base = len(self.spans)
        for name, layer, start, end, par, attrs in spans:
            self.spans.append([name, layer, start, end,
                               parent if par < 0 else base + par, attrs])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _wrap(tracer, fn, name, layer, attrs_of):
    def traced(*args, **kwargs):
        idx = tracer.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
            # a count that cannot be read fails the call, and so the
            # operation, rather than reading 0
            attrs = attrs_of(args, kwargs, result) if attrs_of else {}
        except BaseException:
            tracer.end(idx, raised=1)
            raise
        tracer.end(idx, **attrs)
        return result
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer):
    """Wrap every traced function wherever it is bound; returns an undo list.

    A traced function or module that the package no longer has raises, so
    a renamed function fails the traced run instead of reading 0.
    """
    undo = []
    namespaces = [mod for name, mod in list(sys.modules.items())
                  if name == "dynid" or name.startswith("dynid.")]
    for modname, fname, layer, attrs_of in TRACED:
        orig = getattr(importlib.import_module(modname), fname)
        name = f"{modname.split('.')[-1]}.{fname}"
        wrapper = _wrap(tracer, orig, name, layer, attrs_of)
        for mod in namespaces:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, wrapper)
                    undo.append((mod, attr, orig))
    return undo


def uninstall(undo) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)


@contextmanager
def installed(tracer: Tracer):
    undo = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(undo)


@contextmanager
def traced_op(tracer):
    """Root span of one operation with the wrappers installed; without a
    tracer the operation runs untouched."""
    if tracer is None:
        yield
        return
    with installed(tracer), tracer.span("op", "bench"):
        yield


# ---------------------------------------------------------------------------
# aggregation

def per_op(spans, root: int) -> dict:
    """Totals over one operation's span tree.

    Returns {"fn": {name: [calls, inclusive_s, durations, attr sums]},
    "layer": {layer: [calls, self_s]}, "spans": count}.  A span's self time
    is its duration minus the time covered by its direct children.
    """
    children = {}
    for i, sp in enumerate(spans):
        children.setdefault(sp[4], []).append(i)
    fns, layers, count = {}, {}, 0
    todo = [root]
    while todo:
        i = todo.pop()
        name, layer, start, end, _, attrs = spans[i]
        kids = children.get(i, [])
        todo.extend(kids)
        dur = end - start
        self_s = dur - sum(spans[k][3] - spans[k][2] for k in kids)
        lay = layers.setdefault(layer, [0, 0.0])
        lay[0] += 1
        lay[1] += self_s
        count += 1
        rec = fns.setdefault(name, [0, 0.0, [], {}])
        rec[0] += 1
        rec[1] += dur
        rec[2].append((dur, attrs))
        for key, val in attrs.items():
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                rec[3][key] = rec[3].get(key, 0) + val
    return {"fn": fns, "layer": layers, "spans": count}
