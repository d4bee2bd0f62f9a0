"""The names the benchmark's traced run wraps must stay on the hot path.

``perfbench/tracer.py`` rebinds module functions and wraps the target
callbacks on copies of each registry manifold.  A refactor that computes
the spray, the transport equation or a target callback some other way
would make those per-layer counts read zero; this test catches that
without a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from mapgeom import dynamics, manifold, mapspace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# span name -> the span it must be called from, as the per-layer metrics read it
REQUIRED = {
    "manifold.spray_accel": "manifold.integrate_spray",
    "manifold.retraction": "manifold.integrate_spray",
    "manifold.christoffel": "manifold.spray_accel",
    "manifold.tangent_projector": "manifold.spray_accel",
    "manifold.transport_ode_rhs": "dynamics.parallel_transport_field",
}


@pytest.fixture()
def tracer_module():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracer


def test_traced_spans_cover_kernels_and_callbacks(tracer_module):
    trace = tracer_module.Tracer()
    uninstall = tracer_module.install(trace)
    try:
        rng = np.random.default_rng(0)
        for spec in ("halfplane", "paraboloid"):
            man = manifold.make_manifold(spec)
            x = man.random_points(rng, 4)
            q = mapspace.MapField(mapspace.circle_domain(4), man, x)
            h = mapspace.TangentField(q, man.project(x, rng.uniform(-0.2, 0.2, x.shape)))
            mapspace.exp_field(h, steps=20)
            path, _ = dynamics.integrate_geodesic(q, h, snapshots=3, steps_per_snapshot=10)
            dynamics.parallel_transport_field(path, h)
    finally:
        uninstall()
    NAME, PARENT, COUNT = tracer_module.NAME, tracer_module.PARENT, tracer_module.COUNT
    seen = {
        (s[NAME], trace.spans[s[PARENT]][NAME])
        for s in trace.spans
        if s[COUNT] > 0 and s[PARENT] >= 0
    }
    missing = [pair for pair in REQUIRED.items() if pair not in seen]
    assert not missing, f"no spans with rows for (name, caller) {missing}"
