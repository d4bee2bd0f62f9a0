import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgeom import (
    DomainExitError,
    FieldMismatchError,
    FieldPath,
    MapField,
    QuadratureDomain,
    ShootingError,
    TangentField,
    circle_domain,
    covariant_derivative_along_path,
    exp_field,
    geodesic_distance,
    integrate_geodesic,
    l2_inner,
    log_field,
    make_manifold,
    parallel_transport_field,
    path_energy,
    make_manifold as _mm,
)
from mapgeom import dynamics, manifold
from mapgeom.dynamics import (
    load_path,
    path_from_json,
    path_to_json,
    save_path,
    save_report_csv,
    save_report_json,
)

FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_EMB = make_manifold("sphere:r=1.0:rep=embedded")
PARABOLOID = make_manifold("paraboloid")


def flat_setup():
    dom = QuadratureDomain(np.array([0.5, 0.25, 0.25]))
    q0 = MapField(dom, FLAT2, np.array([[0.0, 0.0], [1.0, -1.0], [0.5, 0.25]]))
    h0 = TangentField(q0, np.array([[0.5, 0.25], [-0.75, 0.5], [1.0, -0.5]]))
    return q0, h0


def sphere_setup(m=8, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    dom = circle_domain(m)
    vals = SPHERE_EMB.random_points(rng, m)
    q0 = MapField(dom, SPHERE_EMB, vals)
    h0 = TangentField(q0, scale * SPHERE_EMB.project(vals, rng.uniform(-1, 1, (m, 3))))
    return q0, h0


# ---------------------------------------------------------------------------
# trajectory integration


def test_flat_trajectory_is_linear():
    q0, h0 = flat_setup()
    path, report = integrate_geodesic(q0, h0, snapshots=5, steps_per_snapshot=256)
    for j, t in enumerate(path.times):
        assert np.array_equal(path.maps[j].values, q0.values + t * h0.vecs)
        assert np.array_equal(path.velocities[j].vecs, h0.vecs)
    assert report.max_pointwise_geodesic_residual < 1e-9


def test_zero_velocity_constant_path():
    q0, h0 = sphere_setup()
    zero = TangentField(q0, np.zeros_like(h0.vecs))
    path, _ = integrate_geodesic(q0, zero, snapshots=4, steps_per_snapshot=10)
    for q in path.maps:
        assert np.array_equal(q.values, q0.values)


def test_endpoint_equals_exp_field_bitwise():
    q0, h0 = sphere_setup(seed=1)
    path, _ = integrate_geodesic(q0, h0, snapshots=11, steps_per_snapshot=25)
    end = exp_field(h0, steps=250)
    assert np.array_equal(path.maps[-1].values, end.values)


def test_sphere_trajectory_matches_great_circles():
    q0, h0 = sphere_setup(seed=2)
    path, _ = integrate_geodesic(q0, h0, snapshots=11, steps_per_snapshot=100)
    norms = np.linalg.norm(h0.vecs, axis=1, keepdims=True)
    for j, t in enumerate(path.times):
        closed = np.cos(norms * t) * q0.values + np.sin(norms * t) * h0.vecs / norms
        assert np.max(np.abs(path.maps[j].values - closed)) < 1e-8


def test_time_reversal_returns_to_start():
    q0, h0 = sphere_setup(seed=3)
    path, _ = integrate_geodesic(q0, h0, snapshots=3, steps_per_snapshot=500)
    q1 = path.maps[-1]
    v1 = TangentField(q1, -path.velocities[-1].vecs)
    back = exp_field(v1, steps=1000)
    assert np.max(np.abs(back.values - q0.values)) < 1e-7


def test_energy_conservation_along_geodesic():
    q0, h0 = sphere_setup(seed=4)
    path, report = integrate_geodesic(q0, h0, snapshots=11, steps_per_snapshot=100)
    e = report.energy_series
    e0 = 0.5 * l2_inner(q0, h0, h0)
    assert np.max(np.abs(e - e0)) / e0 < 1e-8


# ---------------------------------------------------------------------------
# energy functional


def test_path_energy_constant_path_zero():
    q0, h0 = sphere_setup(seed=5)
    zero = TangentField(q0, np.zeros_like(h0.vecs))
    path, _ = integrate_geodesic(q0, zero, snapshots=5, steps_per_snapshot=5)
    assert path_energy(path) == 0.0


def test_path_energy_straight_line_half_speed_squared():
    dom = QuadratureDomain(np.array([0.5, 0.5]))
    q0 = MapField(dom, FLAT2, np.zeros((2, 2)))
    c = 0.75
    h0 = TangentField(q0, np.array([[c, 0.0], [0.0, c]]))
    path, _ = integrate_geodesic(q0, h0, snapshots=9, steps_per_snapshot=16)
    assert abs(path_energy(path) - 0.5 * c * c) < 1e-14


def test_path_energy_matches_initial_kinetic_energy_on_sphere():
    q0, h0 = sphere_setup(seed=6)
    path, _ = integrate_geodesic(q0, h0, snapshots=21, steps_per_snapshot=50)
    assert abs(path_energy(path) - 0.5 * l2_inner(q0, h0, h0)) < 1e-8


def test_path_energy_requires_velocities():
    q0, h0 = sphere_setup(seed=7)
    path, _ = integrate_geodesic(q0, h0, snapshots=3, steps_per_snapshot=5)
    stripped = FieldPath(path.times, path.maps, None)
    with pytest.raises(ValueError, match="no velocities"):
        path_energy(stripped)


# ---------------------------------------------------------------------------
# covariant derivative along paths


def test_covariant_derivative_of_geodesic_velocity_vanishes():
    q0, h0 = sphere_setup(m=4, seed=8)
    path, _ = integrate_geodesic(q0, h0, snapshots=1001, steps_per_snapshot=1)
    series = covariant_derivative_along_path(path, list(path.velocities))
    worst = max(np.max(np.abs(s.vecs)) for s in series)
    assert worst < 1e-5


def test_covariant_derivative_on_a_two_snapshot_path():
    # FieldPath allows two snapshots, one too few for a second-order edge
    q0, h0 = flat_setup()
    path, _ = integrate_geodesic(q0, h0, snapshots=2, steps_per_snapshot=10)
    assert path.snapshots == 2
    for s in covariant_derivative_along_path(path, list(path.velocities)):
        assert np.all(s.vecs == 0.0)


def test_two_snapshot_geodesic_reports_no_residual(tmp_path):
    # the finite-difference residual needs three snapshots; two measure nothing,
    # which must not read as a perfect fit
    q0 = MapField(QuadratureDomain(np.array([1.0])), HALFPLANE, np.array([[0.0, 1.0]]))
    h0 = TangentField(q0, np.array([[1.0, 0.5]]))
    _, two = integrate_geodesic(q0, h0, snapshots=2, steps_per_snapshot=3)
    assert math.isnan(two.max_pointwise_geodesic_residual)
    assert np.all(np.isnan(two.residual_series))
    _, three = integrate_geodesic(q0, h0, snapshots=3, steps_per_snapshot=1)
    assert 0.1 < three.max_pointwise_geodesic_residual < 0.3
    save_report_json(two, tmp_path / "report.json")
    import json as _json

    doc = _json.loads((tmp_path / "report.json").read_text())
    assert math.isnan(doc["max_pointwise_geodesic_residual"])
    assert all(math.isnan(r) for r in doc["residual_series"])


def test_covariant_derivative_flat_linear_series():
    q0, h0 = flat_setup()
    zero = TangentField(q0, np.zeros_like(h0.vecs))
    path, _ = integrate_geodesic(q0, zero, snapshots=11, steps_per_snapshot=2)
    slope = np.array([[0.3, -0.1], [0.2, 0.4], [-0.5, 0.6]])
    series = [TangentField(path.maps[j], t * slope) for j, t in enumerate(path.times)]
    out = covariant_derivative_along_path(path, series)
    for s in out:
        np.testing.assert_allclose(s.vecs, slope, atol=1e-12)


def test_covariant_derivative_constant_series_constant_path():
    q0, h0 = sphere_setup(m=3, seed=9)
    zero = TangentField(q0, np.zeros_like(h0.vecs))
    path, _ = integrate_geodesic(q0, zero, snapshots=7, steps_per_snapshot=2)
    series = [TangentField(path.maps[j], h0.vecs) for j in range(path.snapshots)]
    out = covariant_derivative_along_path(path, series)
    for s in out:
        assert np.max(np.abs(s.vecs)) < 1e-12


def test_covariant_derivative_length_mismatch():
    q0, h0 = sphere_setup(m=3, seed=10)
    path, _ = integrate_geodesic(q0, h0, snapshots=5, steps_per_snapshot=5)
    with pytest.raises(FieldMismatchError, match="length"):
        covariant_derivative_along_path(path, list(path.velocities)[:-1])


def test_metric_compatibility_along_path():
    # d/dt G(Y, Z) = G(cov Y, Z) + G(Y, cov Z) by central differences
    q0, h0 = sphere_setup(m=4, seed=11)
    path, _ = integrate_geodesic(q0, h0, snapshots=201, steps_per_snapshot=5)
    rng = np.random.default_rng(12)
    a = rng.uniform(-1, 1, (4, 3))
    b = rng.uniform(-1, 1, (4, 3))
    Y = [TangentField(path.maps[j], SPHERE_EMB.project(path.maps[j].values, a * np.cos(t) + b))
         for j, t in enumerate(path.times)]
    Z = [TangentField(path.maps[j], SPHERE_EMB.project(path.maps[j].values, b * np.sin(t) - a))
         for j, t in enumerate(path.times)]
    covY = covariant_derivative_along_path(path, Y)
    covZ = covariant_derivative_along_path(path, Z)
    g = [l2_inner(path.maps[j], Y[j], Z[j]) for j in range(path.snapshots)]
    dt = path.times[1] - path.times[0]
    worst = 0.0
    for j in range(1, path.snapshots - 1):
        lhs = (g[j + 1] - g[j - 1]) / (2 * dt)
        rhs = l2_inner(path.maps[j], covY[j], Z[j]) + l2_inner(path.maps[j], Y[j], covZ[j])
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# parallel transport of fields


def test_parallel_transport_field_flat_identity():
    q0, h0 = flat_setup()
    path, _ = integrate_geodesic(q0, h0, snapshots=9, steps_per_snapshot=4)
    v0 = TangentField(q0, np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    out = parallel_transport_field(path, v0)
    assert np.array_equal(out.vecs, v0.vecs)


def test_parallel_transport_field_zero_length_path():
    q0, h0 = sphere_setup(m=3, seed=13)
    zero = TangentField(q0, np.zeros_like(h0.vecs))
    path, _ = integrate_geodesic(q0, zero, snapshots=3, steps_per_snapshot=2)
    out = parallel_transport_field(path, h0)
    assert np.array_equal(out.vecs, h0.vecs)


def test_parallel_transport_field_preserves_l2_norm():
    q0, h0 = sphere_setup(m=5, seed=14, scale=0.5)
    path, _ = integrate_geodesic(q0, h0, snapshots=501, steps_per_snapshot=2)
    rng = np.random.default_rng(15)
    v0 = TangentField(q0, SPHERE_EMB.project(q0.values, rng.uniform(-1, 1, (5, 3))))
    out = parallel_transport_field(path, v0)
    before = l2_inner(q0, v0, v0)
    after = l2_inner(path.maps[-1], out, out)
    assert abs(after - before) / before < 1e-8


def test_parallel_transport_field_sphere_triangle_rotation():
    # per-sample transport around the octant loop rotates by the enclosed
    # area pi/2 about the outward normal at the start
    def arc(p, q, n):
        theta = np.arccos(np.clip(p @ q, -1, 1))
        w = q - np.cos(theta) * p
        w /= np.linalg.norm(w)
        ts = np.linspace(0.0, theta, n)
        return np.cos(ts)[:, None] * p + np.sin(ts)[:, None] * w

    north = np.array([0.0, 0.0, 1.0])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    n = 3334
    loop = np.vstack([arc(north, a, n), arc(a, b, n)[1:], arc(b, north, n)[1:]])
    m = 2
    dom = circle_domain(m)
    times = np.linspace(0.0, 1.0, loop.shape[0])
    maps = tuple(
        MapField(dom, SPHERE_EMB, np.tile(pt, (m, 1))) for pt in loop
    )
    path = FieldPath(times, maps)
    v0 = TangentField(maps[0], np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    out = parallel_transport_field(path, v0)
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    assert np.max(np.abs(out.vecs - expected)) < 1e-4


# ---------------------------------------------------------------------------
# log map and distance


def test_log_flat_exact_difference():
    q0, _ = flat_setup()
    q1 = MapField(q0.domain, FLAT2, q0.values + np.array([[0.3, 0.1], [-0.2, 0.4], [0.0, 1.0]]))
    h = log_field(q0, q1)
    assert np.array_equal(h.vecs, q1.values - q0.values)


def test_log_same_field_zero():
    q0, _ = sphere_setup(m=5, seed=16)
    h = log_field(q0, q0)
    assert np.array_equal(h.vecs, np.zeros_like(q0.values))
    assert geodesic_distance(q0, q0) == 0.0


def test_log_sphere_recovers_angles():
    q0, h0 = sphere_setup(m=6, seed=17, scale=0.8)
    q1 = exp_field(h0, steps=1000)
    h = log_field(q0, q1)
    angles = np.arccos(np.clip(np.einsum("si,si->s", q0.values, q1.values), -1, 1))
    norms = np.linalg.norm(h.vecs, axis=1)
    assert np.max(np.abs(norms - angles)) < 1e-8
    assert np.max(np.abs(h.vecs - h0.vecs)) < 1e-7


def test_log_sphere_chart_representation_round_trip():
    sc = make_manifold("sphere:r=1.0:rep=chart")
    rng = np.random.default_rng(25)
    dom = circle_domain(5)
    q0 = MapField(dom, sc, sc.random_points(rng, 5))
    h0 = TangentField(q0, 0.3 * rng.uniform(-1, 1, (5, 2)))
    q1 = exp_field(h0, steps=500)
    h = log_field(q0, q1, steps=500)
    assert np.max(np.abs(h.vecs - h0.vecs)) < 1e-8


def test_log_halfplane_round_trip():
    rng = np.random.default_rng(18)
    m = 8
    dom = circle_domain(m)
    q0 = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, m))
    q1 = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, m))
    h = log_field(q0, q1)
    end = exp_field(h, steps=1000)
    assert np.max(np.abs(end.values - q1.values)) < 1e-8


def test_log_paraboloid_shooting_without_closed_form():
    rng = np.random.default_rng(19)
    m = 3
    dom = circle_domain(m)
    vals = PARABOLOID.random_points(rng, m)
    q0 = MapField(dom, PARABOLOID, vals)
    h0 = TangentField(q0, 0.4 * PARABOLOID.project(vals, rng.uniform(-1, 1, (m, 3))))
    q1 = exp_field(h0, steps=128)
    h = log_field(q0, q1, steps=128)
    assert np.max(np.abs(h.vecs - h0.vecs)) < 1e-6


def test_log_stuck_sample_does_not_stall_or_hide_behind_others():
    # sample 0 converges on its own; sample 1 cannot, and only it is named
    base = np.array([[-0.20100114739577413, 0.4350969891076264, 0.22971085118493967],
                     [0.20015274656746707, 0.6355420815513209, 0.4439748593810865]])
    vecs = np.array([[-0.5401274912111081, -0.3245553006471559, -0.06529357727412843],
                     [-0.9782316405717102, -3.2287275898284635, -4.495576005682775]])
    q0 = MapField(circle_domain(2), PARABOLOID, base)
    q1 = exp_field(TangentField(q0, vecs), steps=100)
    with pytest.raises(ShootingError) as err:
        log_field(q0, q1, steps=100)
    assert err.value.sample == 1
    assert "sample 0" not in str(err.value) and "sample 1 (residual" in str(err.value)
    alone = MapField(circle_domain(1), PARABOLOID, base[:1])
    log_field(alone, MapField(alone.domain, PARABOLOID, q1.values[:1]), steps=100)


def test_log_antipodal_reports_sample():
    # samples 1 and 2 end at the antipode of their start, on both sphere
    # representations; the closed-form seed names both
    dom = circle_domain(3)
    chart = make_manifold("sphere:r=1.0:rep=chart")
    a = np.array([[1.0, 0.0], [1.2, 0.3], [0.7, -0.9]])
    b = np.array([[1.0, 0.0], [np.pi - 1.2, 0.3 + np.pi], [np.pi - 0.7, -0.9 + np.pi]])
    for man, a, b in [(SPHERE_EMB, chart.embedding(a), chart.embedding(b)), (chart, a, b)]:
        with pytest.raises(ShootingError) as err:
            log_field(MapField(dom, man, a), MapField(dom, man, b))
        assert str(err.value) == "log undefined for antipodal sphere points at samples 1, 2"
        assert err.value.sample == 1
    # a point has no sample to name
    with pytest.raises(ShootingError) as err:
        chart.closed_form_log(a[1], b[1])
    assert (str(err.value), err.value.sample) == ("log undefined for antipodal sphere points", None)


def test_log_domain_exit_names_the_field_sample(monkeypatch):
    # sample 0 is stationary and converges at once; sample 1's geodesic from
    # its coarse Gauss-Newton iterate leaves the narrowed chart at 100 steps,
    # so every sample starts from the chord, as with no coarse step; that
    # seed call (each sample's row and its k difference rows) stays in the
    # chart, and the first trial, which integrates only sample 1's rows,
    # leaves it at row 0 of that call
    man = dataclasses.replace(make_manifold("halfplane"), closed_form_log=None, name=None,
                              chart_domain=lambda x: (x[..., 1] > 0.5) & (x[..., 1] < 2.0))
    dom = QuadratureDomain(np.array([0.5, 0.5]))
    q0 = MapField(dom, man, np.array([[0, 1], [-0.7701347334381896, 1.547719652199202]]))
    q1 = MapField(dom, man, np.array([[0, 1], [0.8548478572491198, 1.85830404690204]]))
    calls = _recorded_calls(monkeypatch)
    with pytest.raises(DomainExitError, match="sample 1 left domain") as err:
        log_field(q0, q1, steps=100)
    assert err.value.sample == 1
    assert err.value.time == 0.5
    # the coarse call, the call from its iterates that exits, the same call
    # from the chord, and the trial that exits: the fallback costs one call
    assert calls == [(6, 12), (6, 100), (6, 100), (3, 100)]


def _recorded_calls(monkeypatch):
    """(rows, steps) of every integrate_spray call of the log map, in order."""
    calls = []

    def recording(man, x, v, steps):
        calls.append((len(x), steps))
        return manifold.integrate_spray(man, x, v, steps)

    monkeypatch.setattr(dynamics, "integrate_spray", recording)
    return calls


@pytest.mark.parametrize("steps", [63, 64, 200])
def test_chord_log_takes_its_first_gauss_newton_step_on_an_eighth_of_the_steps(steps,
                                                                             monkeypatch):
    rng = np.random.default_rng(7)
    m = 4
    x = PARABOLOID.random_points(rng, m)
    d = PARABOLOID.project(x, rng.normal(size=x.shape))
    d *= (rng.uniform(0.1, 0.5, m) / np.sqrt(PARABOLOID.inner(x, d, d)))[:, None]
    q0 = MapField(circle_domain(m), PARABOLOID, x)
    q1 = exp_field(TangentField(q0, d), steps=1000)
    calls = _recorded_calls(monkeypatch)
    h = log_field(q0, q1, steps=steps)
    # the coarse call carries the k = 2 difference rows of each sample; below
    # 64 steps the chord seed's own call comes first
    assert calls[0] == ((3 * m, steps // 8) if steps >= 64 else (3 * m, steps))
    assert all(n == steps for _, n in calls[1:])
    end = exp_field(h, steps=steps).values
    assert np.max(np.abs(end - q1.values)) <= dynamics.LOG_TOL


def test_chord_log_whose_coarse_grid_leaves_the_domain_ends_as_from_the_chord(monkeypatch):
    # sample 1's chord geodesic tops out at y = 1.6931225 at 64 steps and
    # 1.6931249 at 8: a chart cut at 1.6931236 is left by its coarse call only
    man = dataclasses.replace(make_manifold("halfplane"), closed_form_log=None, name=None,
                              chart_domain=lambda x: (x[..., 1] > 0.5) & (x[..., 1] < 1.6931236))
    dom = QuadratureDomain(np.array([0.5, 0.5]))
    q0 = MapField(dom, man, np.array([[0.0, 1.0], [-0.26098407247425626, 0.891097703755002]]))
    q1 = MapField(dom, man, np.array([[0.0, 1.0], [-0.0864313815932709, 1.490966133068659]]))
    calls = _recorded_calls(monkeypatch)
    h = log_field(q0, q1, steps=64)
    # the coarse call exits, and the seed's call from the chord comes next
    assert calls[:3] == [(6, 8), (6, 64), (3, 64)]
    end = manifold.integrate_spray(man, q0.values, h.vecs, 64)[0]
    assert np.max(np.abs(end - q1.values)) <= dynamics.LOG_TOL
    # every sample starts from the chord: the solve is bit for bit the one
    # without a coarse step, one call of 8 steps later
    monkeypatch.setattr(dynamics, "COARSE_FLOOR", math.inf)
    calls.clear()
    assert np.array_equal(log_field(q0, q1, steps=64).vecs, h.vecs)
    assert calls[0] == (6, 64)


@pytest.mark.parametrize("kwargs", [
    {"tol": float("nan")}, {"tol": -1.0}, {"tol": 0.0}, {"tol": float("inf")}, {"steps": 0},
])
def test_log_rejects_bad_tolerance_and_steps(kwargs):
    name = next(iter(kwargs))
    q0 = MapField(circle_domain(2), PARABOLOID, np.array([[0.1, 0.2, 0.05], [0.3, -0.1, 0.1]]))
    q1 = MapField(q0.domain, PARABOLOID, np.array([[0.2, 0.2, 0.08], [0.3, 0.0, 0.09]]))
    with pytest.raises(ValueError, match=name):
        log_field(q0, q1, **{"steps": 100, **kwargs})
    with pytest.raises(ValueError, match=name):
        geodesic_distance(q0, q1, **{"steps": 100, **kwargs})


@pytest.mark.parametrize("call, name", [
    (lambda q0, q1, h: exp_field(h, steps=2.5), "steps"),
    (lambda q0, q1, h: exp_field(h, steps=True), "steps"),
    (lambda q0, q1, h: log_field(q0, q1, steps=2.5), "steps"),
    (lambda q0, q1, h: integrate_geodesic(q0, h, steps_per_snapshot=2.5), "steps_per_snapshot"),
    (lambda q0, q1, h: integrate_geodesic(q0, h, snapshots=2.5), "snapshots"),
], ids=["exp-steps", "exp-steps-bool", "log-steps", "geodesic-steps-per-snapshot",
        "geodesic-snapshots"])
def test_step_counts_must_be_integers(call, name):
    q0 = MapField(circle_domain(2), PARABOLOID, np.array([[0.1, 0.2, 0.05], [0.3, -0.1, 0.1]]))
    q1 = MapField(q0.domain, PARABOLOID, np.array([[0.2, 0.2, 0.08], [0.3, 0.0, 0.09]]))
    d = np.array([[0.1, 0.0, 0.0], [0.0, 0.1, 0.0]])
    h = TangentField(q0, PARABOLOID.project(q0.values, d))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(q0, q1, h)
    # a NumPy integer is a count like any other
    assert np.array_equal(exp_field(h, steps=np.int64(4)).values, exp_field(h, steps=4).values)


@settings(max_examples=2, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.floats(0.05, 0.4), min_size=2, max_size=4).map(np.array))
def test_log_paraboloid_round_trip_and_sample_independence(seed, speeds):
    rng = np.random.default_rng(seed)
    m = speeds.size
    q0 = MapField(circle_domain(m), PARABOLOID, PARABOLOID.random_points(rng, m))
    d = PARABOLOID.project(q0.values, rng.normal(size=(m, 3)))
    d *= (speeds / np.sqrt(PARABOLOID.inner(q0.values, d, d)))[:, None]
    q1 = exp_field(TangentField(q0, d), steps=64)
    h = log_field(q0, q1, steps=64)
    assert np.max(np.abs(exp_field(h, steps=64).values - q1.values)) < 1e-9
    # the batched Jacobian integrates rows independently: the field solve is
    # bit for bit the solves of its samples one at a time
    one = circle_domain(1)
    alone = [
        log_field(MapField(one, PARABOLOID, q0.values[i:i + 1]),
                  MapField(one, PARABOLOID, q1.values[i:i + 1]), steps=64).vecs
        for i in range(m)
    ]
    assert np.array_equal(h.vecs, np.concatenate(alone))


def test_log_mixed_convergence_keeps_sample_independence(monkeypatch):
    # after the coarse Gauss-Newton call, a short velocity converges at
    # its seed, wasting the difference rows that call carried; a long one
    # needs a second trial after its first, which carried its rows
    rng = np.random.default_rng(6)
    q0 = MapField(circle_domain(2), PARABOLOID, PARABOLOID.random_points(rng, 2))
    d = PARABOLOID.project(q0.values, rng.normal(size=(2, 3)))
    d *= (np.array([1e-3, 0.4]) / np.sqrt(PARABOLOID.inner(q0.values, d, d)))[:, None]
    q1 = exp_field(TangentField(q0, d), steps=64)
    rows = []

    def counted(man, x, v, steps):
        rows.append(x.shape[0])
        return manifold.integrate_spray(man, x, v, steps)

    monkeypatch.setattr(dynamics, "integrate_spray", counted)
    h = log_field(q0, q1, steps=64)
    # the coarse call and the seed with k = 2 rows per sample, then the long
    # sample's first trial with its k rows and its last trial
    assert rows == [6, 6, 3, 1]
    one = circle_domain(1)
    alone = [
        log_field(MapField(one, PARABOLOID, q0.values[i:i + 1]),
                  MapField(one, PARABOLOID, q1.values[i:i + 1]), steps=64).vecs
        for i in range(2)
    ]
    assert np.array_equal(h.vecs, np.concatenate(alone))


def test_geodesic_distance_flat_weighted():
    q0, _ = flat_setup()
    disp = np.array([[1.0, 0.0], [0.0, 2.0], [2.0, 1.0]])
    q1 = MapField(q0.domain, FLAT2, q0.values + disp)
    d = geodesic_distance(q0, q1)
    expected = math.sqrt(0.5 * 1.0 + 0.25 * 4.0 + 0.25 * 5.0)
    assert abs(d - expected) < 1e-12


def test_geodesic_distance_sphere_uniform_angle():
    m = 8
    dom = circle_domain(m)  # total weight 1
    rng = np.random.default_rng(20)
    vals = SPHERE_EMB.random_points(rng, m)
    q0 = MapField(dom, SPHERE_EMB, vals)
    dirs = SPHERE_EMB.project(vals, rng.uniform(-1, 1, (m, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    angle = np.pi / 3
    q1 = MapField(dom, SPHERE_EMB,
                  np.cos(angle) * vals + np.sin(angle) * dirs)
    assert abs(geodesic_distance(q0, q1) - angle) < 1e-8


def test_exp_log_round_trip_field_level():
    q0, h0 = sphere_setup(m=6, seed=21, scale=0.6)
    h = log_field(q0, exp_field(h0, steps=1000))
    assert np.max(np.abs(h.vecs - h0.vecs)) < 1e-7


# ---------------------------------------------------------------------------
# certified step counts of the log map


@pytest.fixture()
def step_counts(monkeypatch):
    """The step count of every ``integrate_spray`` call the log map makes, in
    order: a ladder rung with its twin shows as two calls of n/2 steps, a
    rung run alone as one of n, and a rung that resumes the carried run as
    one of n/2."""
    counts = []
    integrate = manifold.integrate_spray

    def recording(man, x, v, steps, *args):
        counts.append(steps)
        return integrate(man, x, v, steps, *args)

    for module in (dynamics, manifold):  # Newton's calls, and the ladder's
        monkeypatch.setattr(module, "integrate_spray", recording)
    return counts


# the integrate_spray step counts of the log of each field below: a
# Jacobian less accurate than Newton needs costs an iteration and shows here;
# a certified log starts with the twin pair (64, 32) in two calls of 32 and
# jumps to the rung that RK4's h^4 law predicts: a pair (n, n/2) in two calls
# of n/2, or n alone when its twin is the rung in hand, where 128 resumes the
# run that the first pair carried, in one call of 64
NEWTON_CALLS = {
    ("flat:n=2", 64): [64],
    ("flat:n=2", None): [32, 32],
    ("sphere:r=1.0:rep=chart", 64): [64, 64, 64],
    ("sphere:r=1.0:rep=chart", None): [32, 32, 128, 128],
    ("sphere:r=1.0:rep=embedded", 64): [64],
    ("sphere:r=1.0:rep=embedded", None): [32, 32, 64],
    ("halfplane", 64): [64, 64, 64],
    ("halfplane", None): [32, 32, 128, 128],
    ("paraboloid", 64): [8, 64, 64, 64],
    ("paraboloid", None): [32, 32, 64] + [128] * 5 + [64],
}
# the rung that each certified log above accepts
CERTIFIED_RUNG = {"flat:n=2": 64, "sphere:r=1.0:rep=chart": 256,
                  "sphere:r=1.0:rep=embedded": 128, "halfplane": 256, "paraboloid": 128}


@pytest.mark.parametrize("spec, steps", list(NEWTON_CALLS))
def test_log_newton_call_counts_per_target(spec, steps, step_counts):
    man = make_manifold(spec)
    rng = np.random.default_rng(0)
    x = man.random_points(rng, 8)
    d = man.project(x, rng.normal(size=x.shape))
    d *= (rng.uniform(0.2, 0.8, 8) / np.sqrt(man.inner(x, d, d)))[:, None]
    q0 = MapField(circle_domain(8), man, x)
    q1 = exp_field(TangentField(q0, d), steps=400)
    h = log_field(q0, q1, steps=steps)
    assert step_counts == NEWTON_CALLS[spec, steps]
    end = exp_field(h, steps=steps or CERTIFIED_RUNG[spec]).values
    assert np.max(np.abs(end - q1.values)) <= dynamics.LOG_TOL


def nearby_fields(spec, seed, m=4, spread=0.4):
    man = make_manifold(spec)
    rng = np.random.default_rng(seed)
    a = man.random_points(rng, m)
    b = a + rng.uniform(-spread, spread, a.shape)
    if spec.endswith("rep=embedded"):
        b /= np.linalg.norm(b, axis=1, keepdims=True)
    return MapField(circle_domain(m), man, a), MapField(circle_domain(m), man, b)


@pytest.mark.parametrize("spec", ["halfplane", "sphere:r=1.0:rep=chart",
                                  "sphere:r=1.0:rep=embedded", "flat:n=2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_certified_distance_is_the_1000_step_distance_bit_for_bit(spec, seed):
    # the closed-form seed passes at the chosen N and at 1000 steps alike
    q0, q1 = nearby_fields(spec, seed)
    assert geodesic_distance(q0, q1) == geodesic_distance(q0, q1, steps=1000)


def halfplane_distance(a, b):
    return np.arccosh(1.0 + np.sum((a - b) ** 2, axis=1) / (2.0 * a[:, 1] * b[:, 1]))


def sphere_chart_distance(a, b):
    def embed(x):
        th, ph = x[:, 0], x[:, 1]
        return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)

    return np.arccos(np.clip(np.sum(embed(a) * embed(b), axis=1), -1.0, 1.0))


# the twin pair (64, 32), then the pair (n, n/2) that the h^4 law predicts
# from it, each in two calls of half their n
CHOSEN_RUNGS = {"halfplane": [32, 32, 256, 256], "sphere:r=1.0:rep=chart": [32, 32, 128, 128]}


@pytest.mark.parametrize("spec, distance", [("halfplane", halfplane_distance),
                                            ("sphere:r=1.0:rep=chart", sphere_chart_distance)])
def test_certified_log_endpoint_error_at_the_chosen_steps_is_within_tol(spec, distance,
                                                                        step_counts):
    q0, q1 = nearby_fields(spec, 3, m=6, spread=0.8)
    h = log_field(q0, q1)
    n = 2 * step_counts[-1]
    assert step_counts == CHOSEN_RUNGS[spec] and n > 64
    man = q0.manifold
    speed = np.sqrt(man.inner(q0.values, h.vecs, h.vecs))
    assert np.max(np.abs(speed - distance(q0.values, q1.values))) < 1e-9
    # the true endpoint of the returned log, from 16 times the steps
    end = manifold.integrate_spray(man, q0.values, h.vecs, n)[0]
    exact = manifold.integrate_spray(man, q0.values, h.vecs, 16 * n)[0]
    assert np.max(np.abs(end - exact)) <= dynamics.LOG_TOL


def test_certified_log_paraboloid_certifies_the_velocity_newton_returns(step_counts):
    # no closed form: Newton moves every sample away from the chord seed
    rng = np.random.default_rng(4)
    x = PARABOLOID.random_points(rng, 4)
    d = PARABOLOID.project(x, rng.normal(size=x.shape))
    d *= (rng.uniform(0.1, 0.25, 4) / np.linalg.norm(d, axis=1))[:, None]
    q0 = MapField(circle_domain(4), PARABOLOID, x)
    q1 = exp_field(TangentField(q0, d), steps=1000)
    h = log_field(q0, q1)
    n = max(step_counts)
    assert step_counts[-1] == n // 2  # the re-estimate of the moved velocity
    assert not np.any(np.all(h.vecs == PARABOLOID.project(x, q1.values - x), axis=1))
    fine = manifold.integrate_spray(PARABOLOID, x, h.vecs, n)[0]
    coarse = manifold.integrate_spray(PARABOLOID, x, h.vecs, n // 2)[0]
    assert np.max(np.abs(fine - q1.values)) <= dynamics.LOG_TOL
    assert np.all(manifold.step_doubling_error(fine, coarse) <= dynamics.LOG_TOL)


def test_certified_log_goes_on_past_a_coarse_domain_exit(step_counts):
    # sample 1's geodesic passes near the south pole of the chart: its
    # 32-step integration enters the pole band, 64 steps and more stay out
    man = make_manifold("sphere:r=1.0:rep=chart")
    a = np.array([[1.0, 0.0], [2.49, 1.92]])
    b = np.array([[1.1, 0.2], [2.23, -1.17]])
    q0, q1 = MapField(circle_domain(2), man, a), MapField(circle_domain(2), man, b)
    with pytest.raises(DomainExitError, match="sample 1 left domain"):
        manifold.integrate_spray(man, a, man.closed_form_log(a, b), 32)
    step_counts.clear()
    h = log_field(q0, q1, tol=1e-5)
    # the pair (64, 32) exits in its first call, 128 vs 64 is the first
    # estimate, and the pair (1024, 512) that it predicts certifies
    assert step_counts == [32, 64, 64, 512, 512]
    n = 1024
    assert np.array_equal(h.vecs, log_field(q0, q1, steps=n, tol=1e-5).vecs)
    speed = np.sqrt(man.inner(a, h.vecs, h.vecs))
    assert np.max(np.abs(speed - sphere_chart_distance(a, b))) < 1e-9


# sample 1 moves at unit speed along the first axis, so the 64- and 32-step
# runs land on x = k/64 and k/32 and the carried 128-step run on k/128: a
# hole at an odd k/128 is met by the carried run alone, in the stacked call
# (3/128) or in its continuation (35/128)
@pytest.mark.parametrize("hole", [3 / 128, 35 / 128])
def test_certified_log_keeps_its_first_rung_when_only_the_carried_run_exits(hole,
                                                                           step_counts):
    man = dataclasses.replace(
        FLAT2, chart_domain=lambda x: np.abs(np.asarray(x)[..., 0] - hole) > 1e-9)
    q0 = MapField(circle_domain(2), man, np.array([[0.0, 0.0], [0.0, 0.5]]))
    q1 = MapField(circle_domain(2), man, np.array([[0.0, 1.0], [1.0, 0.5]]))
    with pytest.raises(DomainExitError, match="sample 1 left domain"):
        manifold.integrate_spray(man, q0.values, q1.values - q0.values, 128)
    step_counts.clear()
    h = log_field(q0, q1)
    # the call that the carried run left (the stacked call or its
    # continuation) is made again without its rows, and the pair (64, 32)
    # certifies the closed-form seed as with no carried run
    assert step_counts == [32, 32, 32]
    assert np.array_equal(h.vecs, q1.values - q0.values)
    assert np.array_equal(h.vecs, log_field(q0, q1, steps=64).vecs)


def test_certified_log_names_every_sample_it_cannot_certify_at_the_cap():
    q0, q1 = nearby_fields("halfplane", 5, m=3)
    tol = 1e-30  # below the rounding error of any step count
    with pytest.raises(ShootingError) as err:
        log_field(q0, q1, tol=tol)
    # no rung certified the closed-form seed, so Newton never moved it
    man, x = q0.manifold, q0.values
    v = man.closed_form_log(x, q1.values)
    est = manifold.step_doubling_error(manifold.integrate_spray(man, x, v, 1024)[0],
                                       manifold.integrate_spray(man, x, v, 512)[0])
    needs = [math.ceil(1024 * (e / tol) ** 0.25) for e in est]  # RK4's error goes as N^-4
    listing = ", ".join(f"{i} (estimate {est[i]:.3e}, needs ~{needs[i]} steps)" for i in range(3))
    assert str(err.value) == ("log shooting: step-doubling error above tolerance 1.0e-30 at "
                              f"the cap of 1024 steps at samples {listing}")
    assert err.value.sample == 0


# ---------------------------------------------------------------------------
# files


def test_path_json_round_trip(tmp_path):
    q0, h0 = sphere_setup(m=4, seed=22)
    path, report = integrate_geodesic(q0, h0, snapshots=5, steps_per_snapshot=10)
    f = tmp_path / "path.json"
    save_path(path, f)
    loaded = load_path(f)
    assert np.array_equal(loaded.times, path.times)
    for a, b in zip(loaded.maps, path.maps):
        assert np.array_equal(a.values, b.values)
    for a, b in zip(loaded.velocities, path.velocities):
        assert np.array_equal(a.vecs, b.vecs)


def test_path_json_malformed_names_nested_key():
    q0, h0 = sphere_setup(m=2, seed=25)
    path, _ = integrate_geodesic(q0, h0, snapshots=3, steps_per_snapshot=5)
    doc = path_to_json(path)
    doc["maps"][1]["values"] = [[0.0, 0.0, 1.0], [True, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"malformed path entry 'maps\[1\]\.values'"):
        path_from_json(doc)
    doc = path_to_json(path)
    doc["velocities"] = doc["velocities"][:2]
    with pytest.raises(ValueError, match="'velocities'"):
        path_from_json(doc)


def test_report_files(tmp_path):
    q0, h0 = sphere_setup(m=4, seed=23)
    _, report = integrate_geodesic(q0, h0, snapshots=6, steps_per_snapshot=10)
    jf = tmp_path / "report.json"
    cf = tmp_path / "report.csv"
    save_report_json(report, jf)
    save_report_csv(report, cf)
    lines = cf.read_text().splitlines()
    assert lines[0] == "time,energy,residual,drift"
    assert len(lines) == 7
    import json as _json

    doc = _json.loads(jf.read_text())
    assert doc["max_pointwise_geodesic_residual"] == report.max_pointwise_geodesic_residual


@pytest.mark.parametrize("swap", [False, True])
def test_fields_on_other_weights_are_a_mismatch(swap):
    flat1 = make_manifold("flat:n=1")
    a = MapField(QuadratureDomain(np.array([0.9, 0.1])), flat1, np.array([[0.0], [0.0]]))
    b = MapField(QuadratureDomain(np.array([0.1, 0.9])), flat1, np.array([[1.0], [3.0]]))
    q0, q1 = (b, a) if swap else (a, b)
    with pytest.raises(FieldMismatchError, match="quadrature domains"):
        geodesic_distance(q0, q1, steps=10)
    with pytest.raises(FieldMismatchError, match="quadrature domains"):
        FieldPath(np.array([0.0, 1.0]), (q0, q1))


def test_field_path_rejects_velocities_based_elsewhere():
    q = MapField(circle_domain(2), HALFPLANE, np.array([[0.0, 1.0], [0.0, 2.0]]))
    other = MapField(circle_domain(2), HALFPLANE, np.array([[0.0, 5.0], [1.0, 3.0]]))
    v = TangentField(other, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(FieldMismatchError, match="different map"):
        FieldPath(np.array([0.0, 0.5, 1.0]), (q, q, q), (v, v, v))


def test_field_path_invariants():
    q0, _ = sphere_setup(m=3, seed=24)
    with pytest.raises(ValueError):
        FieldPath(np.array([0.0]), (q0,))
    with pytest.raises(ValueError):
        FieldPath(np.array([0.5, 1.0]), (q0, q0))
    with pytest.raises(ValueError):
        FieldPath(np.array([0.0, 0.0]), (q0, q0))
