"""The names the benchmark's traced run wraps must stay on the hot path.

``perfbench/tracer.py`` rebinds module functions and wraps the target
callbacks on copies of each registry manifold.  A refactor that computes
the spray, the transport equation or a target callback some other way
would make those per-layer counts read zero, a tangent projector built
inside the spray, the transport equation or an RK4 step would bring back
the cost that the closed-form level-set kernels removed, one file
function that calls another through a traced name would count the same
bytes twice, and a log map that integrates its Jacobian columns one call
at a time would pay the fixed per-step cost k times per Newton
iteration, and an RK4 step that evaluates the level-set callbacks more
often than it needs to pays for each extra call at every step; these
tests catch all five without a benchmark run.  A tangent projection that
builds the (..., n, n) projector again shows in its peak allocation.
"""

import collections
import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mapgeom import cli, dynamics, manifold, mapspace, reparam, transport, verification

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# (span name, the span it must be called from), as the per-layer metrics read them
REQUIRED = [
    ("manifold.spray_accel", "manifold.integrate_spray"),
    ("manifold.retraction", "manifold.integrate_spray"),
    ("manifold.christoffel", "manifold.spray_accel"),
    # transport re-projects X after every segment, and every tangent field
    # is checked by projecting it; the per-row projection metrics read
    # both sources
    ("manifold.tangent_projector", "dynamics.parallel_transport_field"),
    ("manifold.tangent_projector", "mapspace.field_validation"),
    ("manifold.transport_ode_rhs", "dynamics.parallel_transport_field"),
]


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
    missing = [pair for pair in REQUIRED if pair not in seen]
    assert not missing, f"no spans with rows for (name, caller) {missing}"
    # the level-set spray, the transport equation and the end-of-step pass
    # of an RK4 step build no projector
    for s in trace.spans:
        if s[NAME] == "manifold.tangent_projector":
            parent = s[PARENT]
            while parent >= 0:
                assert trace.spans[parent][NAME] not in (
                    "manifold.spray_accel", "manifold.transport_ode_rhs",
                    "manifold.integrate_spray",
                ), f"tangent_projector inside {trace.spans[parent][NAME]}"
                parent = trace.spans[parent][PARENT]


@pytest.mark.parametrize("spec", ["sphere", "paraboloid"])
def test_tangent_projection_builds_no_projector_matrix(spec):
    # the rank-one P v needs a few (m,) and (m, n) temporaries; an (m, n, n)
    # projector alone would take three times the input's bytes
    man = manifold.make_manifold(spec)
    rng = np.random.default_rng(0)
    x = man.random_points(rng, 4096)
    v = rng.normal(size=x.shape)
    man.project(x, v)  # first call outside the trace
    tracemalloc.start()
    try:
        man.project(x, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * v.nbytes, f"project peaked at {peak / v.nbytes:.2f} times its input"


IO_SPANS = {
    "io.save_field", "io.load_field", "io.save_path", "io.save_report_json",
    "io.save_report_csv", "io.load_measure", "io.load_permutation", "io.write_json",
}


def test_file_spans_count_bytes_and_never_nest(tracer_module, tmp_path):
    trace = tracer_module.Tracer()
    uninstall = tracer_module.install(trace)
    try:
        rng = np.random.default_rng(1)
        man = manifold.make_manifold("halfplane")
        x = man.random_points(rng, 4)
        q = mapspace.MapField(mapspace.circle_domain(4), man, x)
        h = mapspace.TangentField(q, rng.uniform(-0.2, 0.2, x.shape))
        for field, name in ((q, "q.json"), (h, "h.json")):
            mapspace.save_field(field, tmp_path / name)
            mapspace.load_field(tmp_path / name)
        path, report = dynamics.integrate_geodesic(q, h, snapshots=3, steps_per_snapshot=5)
        dynamics.save_path(path, tmp_path / "path.json")
        dynamics.load_path(tmp_path / "path.json")
        dynamics.save_report_json(report, tmp_path / "report.json")
        dynamics.save_report_csv(report, tmp_path / "report.csv")
        transport.save_measure(transport.DiscreteMeasure(x, np.full(4, 0.25)), tmp_path / "mu.json")
        transport.load_measure(tmp_path / "mu.json")
        reparam.save_permutation(reparam.random_diffeo(4, rng), tmp_path / "perm.json")
        reparam.load_permutation(tmp_path / "perm.json")
        code = cli.main(["distance", "--base", str(tmp_path / "q.json"), "--target",
                         str(tmp_path / "q.json"), "--steps", "10",
                         "--output", str(tmp_path / "d.json")])
    finally:
        uninstall()
    assert code == 0
    NAME, PARENT, COUNT = tracer_module.NAME, tracer_module.PARENT, tracer_module.COUNT
    spans = trace.spans
    io = [s for s in spans if s[NAME].startswith("io.")]
    assert {s[NAME] for s in io} == IO_SPANS
    for s in io:
        assert s[COUNT] > 0, f"{s[NAME]} counted no bytes"
        parent = s[PARENT]
        while parent >= 0:
            assert not spans[parent][NAME].startswith("io."), f"{s[NAME]} inside {spans[parent][NAME]}"
            parent = spans[parent][PARENT]


def _log_narrow_paraboloid():
    # a log_narrow-shaped field: m = 4 paraboloid samples, lengths in
    # [0.1, 0.25], shot at 200 steps
    man = manifold.make_manifold("paraboloid")
    rng = np.random.default_rng(0)
    xy = rng.uniform(-0.5, 0.5, (4, 2))
    x = np.concatenate([xy, np.sum(xy**2, axis=1, keepdims=True)], 1)
    d = man.project(x, rng.normal(size=x.shape))
    d *= (rng.uniform(0.1, 0.25, 4) / np.linalg.norm(d, axis=1))[:, None]
    q0 = mapspace.MapField(mapspace.circle_domain(4), man, x)
    return q0, mapspace.exp_field(mapspace.TangentField(q0, d), steps=200)


def _log_calls(tracer_module, q0, q1, steps):
    """(rows, steps) of each integrate_spray call under one log_field."""
    trace = tracer_module.Tracer()
    uninstall = tracer_module.install(trace)
    try:
        dynamics.log_field(q0, q1, steps=steps)
    finally:
        uninstall()
    NAME, PARENT, COUNT, STEPS = (tracer_module.NAME, tracer_module.PARENT,
                                  tracer_module.COUNT, tracer_module.STEPS)
    spans = trace.spans

    def under_log(s):
        while s[PARENT] >= 0:
            s = spans[s[PARENT]]
            if s[NAME] == "dynamics.log_field":
                return True
        return False

    return [(s[COUNT], s[STEPS]) for s in spans
            if s[NAME] == "manifold.integrate_spray" and under_log(s)]


def test_log_newton_integrates_each_jacobian_in_one_call(tracer_module):
    # the coarse Gauss-Newton call at 200 // 8 steps carries the k * 4 = 8
    # forward-difference rows of its Jacobian, the seed's call at 200 those
    # of the first Jacobian, and the first trial, where every sample
    # converges, those of the second: 425 sequential RK4 steps, not 600
    calls = _log_calls(tracer_module, *_log_narrow_paraboloid(), 200)
    assert calls == [(12, 25), (12, 200), (12, 200)]
    # the same rows x steps as 7 calls with one call per difference column
    assert sum(rows * steps for rows, steps in calls) == (25 + 2 * 200) * (4 + 4 * 2)


def test_certified_chord_log_carries_rows_only_on_the_first_trial(tracer_module):
    # the twin rungs at 64 and 32 steps in two calls of 32 (the 4 samples at
    # half velocity and the 4 of the carried 128-step run at a quarter
    # stacked on the 4 at full, then the first two blocks continued), the
    # first Jacobian's call (the iterate and its k * 4 = 8 rows), the first
    # trial with the 8 rows of the next Jacobian, the plain second trial,
    # and the re-estimate at N/2 of the samples Newton moved
    calls = _log_calls(tracer_module, *_log_narrow_paraboloid(), None)
    assert calls == [(12, 32), (8, 32), (12, 64), (12, 64), (4, 64), (4, 32)]


def test_closed_form_seed_carries_no_difference_rows(tracer_module):
    # a half-plane field that 4 steps leave one Newton iteration from the
    # closed-form seed: the seed, one Jacobian call of the 6 iterates and
    # their k * 6 = 12 difference rows, and one trial, as with no rows
    # carried at all
    man = manifold.make_manifold("halfplane")
    rng = np.random.default_rng(0)
    a = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(0.8, 1.5, 6)])
    b = a + rng.uniform(-0.3, 0.3, (6, 2))
    dom = mapspace.circle_domain(6)
    calls = _log_calls(tracer_module, mapspace.MapField(dom, man, a), mapspace.MapField(dom, man, b), 4)
    assert calls == [(6, 4), (18, 4), (6, 4)]


def test_certified_log_reuses_its_last_rung_as_the_newton_residual(tracer_module):
    # a closed-form seed that the 128-step rung certifies: the twin pair
    # (64, 32) takes two calls of 32 steps, which also take the carried
    # 128-step run to its step 64, the predicted rung 128 resumes that run
    # for its last 64 steps against the 64 in hand, and Newton, which has
    # nothing to polish, integrates nothing more: 128 sequential steps
    man = manifold.make_manifold("halfplane")
    a = np.array([[0.0, 1.0], [0.3, 1.5], [-0.4, 0.8], [0.6, 1.2]])
    b = a + np.array([[0.3, 0.2], [-0.35, 0.1], [0.2, -0.3], [0.1, 0.4]])
    dom = mapspace.circle_domain(4)
    trace = tracer_module.Tracer()
    uninstall = tracer_module.install(trace)
    try:
        dynamics.log_field(mapspace.MapField(dom, man, a), mapspace.MapField(dom, man, b))
    finally:
        uninstall()
    NAME, COUNT, STEPS = tracer_module.NAME, tracer_module.COUNT, tracer_module.STEPS
    calls = [(s[COUNT], s[STEPS]) for s in trace.spans if s[NAME] == "manifold.integrate_spray"]
    assert calls == [(12, 32), (8, 32), (4, 64)]


# the speed-drift oracle climbs the same ladder: the twin pair (64, 32) in
# two calls of 32 steps (its 20 samples at half velocity stacked on the 20 at
# full, then the first block continued), each later rung its 20 samples
# once, and the battery stops at the first rung that step doubling certifies
@pytest.mark.parametrize("spec, rungs", [
    ("halfplane", [(40, 32), (20, 32)]),
    ("sphere:r=1.0:rep=chart", [(40, 32), (20, 32), (20, 128)]),
])
def test_speed_drift_oracle_stops_at_its_certified_rung(tracer_module, spec, rungs):
    man = manifold.make_manifold(spec)
    trace = tracer_module.Tracer()
    uninstall = tracer_module.install(trace)
    try:
        verification.standard_checks(man, instances=100, seed=0)
    finally:
        uninstall()
    NAME, COUNT, STEPS = tracer_module.NAME, tracer_module.COUNT, tracer_module.STEPS
    calls = [(s[COUNT], s[STEPS]) for s in trace.spans if s[NAME] == "manifold.integrate_spray"]
    assert calls == rungs


# per RK4 step on a level set: four accels (grad f and (Hess f) w each), and
# one end-of-step pass that evaluates f and grad f once for both the validity
# test and the first Newton step, and f and grad f again at the first Newton
# iterate for both the second Newton step and the re-projection of v
LEVEL_SET_CALLS_PER_STEP = {"level_set": 2, "gradient": 6, "hessian_action": 4}


def test_level_set_callbacks_per_rk4_step():
    base = manifold.make_manifold("paraboloid")
    calls = collections.Counter()

    def counted(name):
        fn = getattr(base, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # the copy derives its projector and retraction from the counted callbacks
    man = dataclasses.replace(base, **{name: counted(name) for name in LEVEL_SET_CALLS_PER_STEP})
    rng = np.random.default_rng(0)
    x = base.random_points(rng, 4)
    v = base.project(x, rng.uniform(-0.2, 0.2, x.shape))
    totals = []
    for steps in (10, 20):
        calls.clear()
        end, _ = manifold.integrate_spray(man, x, v, steps)
        totals.append(dict(calls))
    per_step = {name: (totals[1][name] - totals[0][name]) / 10 for name in LEVEL_SET_CALLS_PER_STEP}
    assert per_step == LEVEL_SET_CALLS_PER_STEP
    assert np.array_equal(end, manifold.integrate_spray(base, x, v, 20)[0])
