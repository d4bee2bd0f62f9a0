"""Spans around the calls into mapgeom's layers, installed from outside.

A span records its name, start, end, parent span and the operation it
belongs to, plus up to two counts (rows and RK4 steps for kernels, bytes
for file I/O).  Spans live in memory and are written out once, at the end
of a traced run.  Installing the wrappers rebinds each function in every
mapgeom module that holds it, so names imported with ``from ... import``
are traced too; :func:`install` returns the undo.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, OP, COUNT, STEPS = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None  # id shared by the spans of one benchmark operation
        self.ops: list = []  # what each operation id stands for

    def start_op(self, label) -> int:
        self.op = len(self.ops)
        self.ops.append(label)
        return self.op

    def begin(self, name: str, count: int = 0, steps: int = 0) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, 0.0, 0.0, parent, self.op, count, steps])
        self.spans[idx][START] = perf_counter()
        return idx

    def end(self, idx: int):
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def record(self, name: str, start: float, end: float):
        """Add a finished top-level span."""
        self.spans.append([name, start, end, -1, self.op, 0, 0])

    def adopt(self, spans: list, parent: int):
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        for s in spans:
            s = list(s)
            s[PARENT] = parent if s[PARENT] < 0 else s[PARENT] + base
            s[OP] = self.op
            self.spans.append(s)


def self_times(spans) -> list[float]:
    """Each span's duration less the time its child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


# ---------------------------------------------------------------------------
# what is wrapped


def _rows(a) -> int:
    return int(np.prod(np.shape(a)[:-1], dtype=np.int64))


def _rows_of(i):
    return lambda args, kwargs: (_rows(args[i]), 0)


def _integrate_counts(args, kwargs):
    steps = args[3] if len(args) > 3 else kwargs["steps"]
    return _rows(args[1]), int(steps)


def _file_bytes(i):
    return lambda args, kwargs: os.path.getsize(args[i])


def _checks_kind(args, kwargs):
    return "chart" if hasattr(args[0], "christoffel") else "embedded"


# (module, function, span name, counts before the call, bytes after the call)
FUNCTIONS = [
    ("manifold", "integrate_spray", "manifold.integrate_spray", _integrate_counts, None),
    ("manifold", "spray_accel", "manifold.spray_accel", _rows_of(1), None),
    ("manifold", "transport_ode_rhs", "manifold.transport_ode_rhs", _rows_of(1), None),
    ("mapspace", "exp_field", "mapspace.exp_field", None, None),
    ("mapspace", "l2_inner", "mapspace.l2_inner", None, None),
    ("mapspace", "curvature_field", "mapspace.curvature_field", None, None),
    ("mapspace", "save_field", "io.save_field", None, _file_bytes(1)),
    ("mapspace", "load_field", "io.load_field", None, _file_bytes(0)),
    ("dynamics", "log_field", "dynamics.log_field", None, None),
    ("dynamics", "geodesic_distance", "dynamics.geodesic_distance", None, None),
    ("dynamics", "integrate_geodesic", "dynamics.integrate_geodesic", None, None),
    ("dynamics", "_diagnose", "dynamics.integrate_geodesic.diagnose", None, None),
    ("dynamics", "parallel_transport_field", "dynamics.parallel_transport_field", None, None),
    ("dynamics", "save_path", "io.save_path", None, _file_bytes(1)),
    ("dynamics", "save_report_json", "io.save_report_json", None, _file_bytes(1)),
    ("dynamics", "save_report_csv", "io.save_report_csv", None, _file_bytes(1)),
    ("verification", "standard_checks", "verification.standard_checks", None, None),
    ("verification", "run_axiom_sweep", "verification.run_axiom_sweep", None, None),
    ("verification", "oracle_curvature_commutator", "verification.oracle_curvature_commutator", None, None),
    ("transport", "wasserstein2_bruteforce", "transport.wasserstein2_bruteforce", None, None),
    ("transport", "wasserstein2_assignment", "transport.wasserstein2_assignment", None, None),
    ("transport", "submersion_check", "transport.submersion_check", None, None),
    ("transport", "load_measure", "io.load_measure", None, _file_bytes(0)),
    ("reparam", "check_equivariance", "reparam.check_equivariance", None, None),
    ("reparam", "load_permutation", "io.load_permutation", None, _file_bytes(0)),
    ("cli", "_write_json", "io.write_json", None, _file_bytes(1)),
]

# target callbacks, wrapped on a dataclasses.replace copy of each manifold
CALLBACKS = ("tangent_projector", "retraction", "christoffel")


def _traced(tracer: Tracer, fn, name: str, before=None, after=None, kind=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        label = f"{name}.{kind(args, kwargs)}" if kind else name
        count, steps = before(args, kwargs) if before else (0, 0)
        idx = tracer.begin(label, count, steps)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after:
            tracer.spans[idx][COUNT] = after(args, kwargs)
        return result

    return traced


def _traced_manifold(tracer: Tracer, man):
    changes = {}
    for attr in CALLBACKS:
        fn = getattr(man, attr, None)
        if fn is not None:
            changes[attr] = _traced(tracer, fn, f"manifold.{attr}", _rows_of(0))
    return dataclasses.replace(man, **changes)


def install(tracer: Tracer):
    """Wrap mapgeom's layer functions; returns a function that undoes it."""
    import mapgeom.cli  # noqa: F401  (load every module before rebinding)
    from mapgeom import manifold, mapspace

    modules = [m for n, m in list(sys.modules.items()) if n == "mapgeom" or n.startswith("mapgeom.")]
    undo = []

    def rebind(orig, new):
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)

    for module, func, name, before, after in FUNCTIONS:
        orig = getattr(sys.modules[f"mapgeom.{module}"], func)
        kind = _checks_kind if func == "standard_checks" else None
        rebind(orig, _traced(tracer, orig, name, before, after, kind))

    make = manifold.make_manifold
    rebind(make, functools.wraps(make)(lambda spec: _traced_manifold(tracer, make(spec))))

    for cls in (mapspace.MapField, mapspace.TangentField):
        orig = cls.__post_init__
        undo.append((cls, "__post_init__", orig))
        cls.__post_init__ = _traced(tracer, orig, "mapspace.field_validation")

    def uninstall():
        for obj, key, orig in reversed(undo):
            setattr(obj, key, orig)

    return uninstall
