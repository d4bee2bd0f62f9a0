import warnings

import numpy as np
import pytest

from mapgeom import (
    ChartBoundaryError,
    ChartManifold,
    DegenerateMetricError,
    DomainExitError,
    EmbeddedManifold,
    OffManifoldError,
    christoffel_from_metric,
    from_pointwise,
    make_manifold,
    sectional_curvature,
    standard_checks,
)
from mapgeom.manifold import integrate_spray, spray_accel, transport_along_samples

FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")
SPHERE_EMB = make_manifold("sphere:r=1.0:rep=embedded")
PARABOLOID = make_manifold("paraboloid")


def great_circle(p, h, t):
    """Independent closed-form unit-sphere geodesic used as the oracle."""
    speed = np.linalg.norm(h)
    if speed == 0.0:
        return np.array(p, dtype=float)
    return np.cos(speed * t) * p + np.sin(speed * t) * h / speed


# ---------------------------------------------------------------------------
# Christoffel symbols


def test_flat_christoffel_zero():
    x = np.array([0.3, -0.8])
    assert np.all(christoffel_from_metric(FLAT2, x) == 0.0)
    assert np.all(FLAT2.christoffel_eval(x) == 0.0)


def test_halfplane_christoffel_analytic_values():
    G = HALFPLANE.christoffel_eval(np.array([0.0, 1.0]))
    assert G[0, 0, 1] == -1.0
    assert G[0, 1, 0] == -1.0
    assert G[1, 0, 0] == 1.0
    assert G[1, 1, 1] == -1.0


def test_halfplane_christoffel_from_metric_matches_analytic():
    metric_only = ChartManifold(dim=2, metric=HALFPLANE.metric, chart_domain=HALFPLANE.chart_domain)
    for y in (1.0, 0.7, 2.3):
        x = np.array([0.2, y])
        fd = christoffel_from_metric(metric_only, x)
        assert np.max(np.abs(fd - HALFPLANE.christoffel_eval(x))) < 1e-6


def test_sphere_chart_christoffel_equator_and_midlatitude():
    eq = SPHERE_CHART.christoffel_eval(np.array([np.pi / 2, 0.3]))
    assert abs(eq[0, 1, 1]) < 1e-12  # -sin(theta) cos(theta) vanishes on the equator
    mid = SPHERE_CHART.christoffel_eval(np.array([np.pi / 4, 0.3]))
    assert abs(mid[0, 1, 1] + 0.5) < 1e-12


def test_christoffel_symmetry_in_lower_indices():
    rng = np.random.default_rng(0)
    for man in (HALFPLANE, SPHERE_CHART):
        x = man.random_points(rng, 5)
        G = man.christoffel_eval(x)
        assert np.array_equal(G, np.swapaxes(G, -1, -2))


def test_christoffel_stencil_domain_guard():
    x = np.array([0.0, 1.001e-3])
    metric_only = ChartManifold(dim=2, metric=HALFPLANE.metric, chart_domain=HALFPLANE.chart_domain)
    with pytest.raises(ChartBoundaryError, match="chart boundary"):
        christoffel_from_metric(metric_only, x)


def test_degenerate_metric_detected():
    def singular(x):
        g = np.zeros(np.shape(x)[:-1] + (2, 2))
        g[..., 0, 0] = x[..., 0]
        return g

    man = ChartManifold(dim=2, metric=singular)
    with pytest.raises(DegenerateMetricError, match="degenerate metric"):
        christoffel_from_metric(man, np.array([0.5, 0.5]))


def test_from_pointwise_wrapper_batches():
    def point_metric(x):
        return np.eye(2) * (1.0 + x[0] ** 2)

    man = ChartManifold(dim=2, metric=from_pointwise(point_metric))
    xs = np.array([[0.5, 0.0], [1.0, 2.0]])
    g = man.metric(xs)
    assert g.shape == (2, 2, 2)
    assert g[1, 0, 0] == 2.0


# ---------------------------------------------------------------------------
# connector


def test_connector_flat_returns_dvec():
    out = FLAT2.connector(np.array([0.1, 0.2]), np.array([1.0, 2.0]),
                          np.array([3.0, 4.0]), np.array([5.0, 6.0]))
    assert np.array_equal(out, np.array([5.0, 6.0]))


@pytest.mark.parametrize("man", [FLAT2, HALFPLANE, SPHERE_CHART])
def test_connector_vertical_lift_identity(man):
    rng = np.random.default_rng(1)
    x = man.random_points(rng, 1)[0]
    h, k = rng.uniform(-1, 1, size=(2, 2))
    out = man.connector(x, h, np.zeros(2), k)
    assert np.array_equal(out, k)


def test_connector_halfplane_value():
    # K(x,h;k,l) = l + Gamma(k,h); at (0,1) with h=e_x, k=e_y, l=0 the
    # correction is Gamma^x_{yx} = -1/y, so the result is (-1, 0)
    out = HALFPLANE.connector(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                              np.array([0.0, 1.0]), np.array([0.0, 0.0]))
    np.testing.assert_allclose(out, [-1.0, 0.0], atol=1e-14)


def test_connector_embedded_projects_dvec():
    pole = np.array([0.0, 0.0, 1.0])
    tangent = np.array([1.0, 0.0, 0.0])
    out = SPHERE_EMB.connector(pole, tangent, tangent, np.array([0.0, 0.0, 5.0]))
    np.testing.assert_allclose(out, [0.0, 0.0, 0.0], atol=1e-15)
    out2 = SPHERE_EMB.connector(pole, tangent, tangent, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out2, [1.0, 2.0, 0.0], atol=1e-15)


def test_connector_embedded_paraboloid_origin():
    origin = np.array([0.0, 0.0, 0.0])
    l = np.array([0.7, -0.3, 0.9])
    e_x, e_y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    out = PARABOLOID.connector(origin, e_x, e_y, l)
    np.testing.assert_allclose(out, [0.7, -0.3, 0.0], atol=1e-15)


# ---------------------------------------------------------------------------
# spray and exp


def test_connector_rejects_chart_boundary():
    with pytest.raises(ChartBoundaryError, match="chart boundary"):
        HALFPLANE.require_valid(np.array([0.0, 5e-4]), "connector base point")


def test_connector_embedded_rejects_off_manifold_point():
    with pytest.raises(OffManifoldError, match="off manifold"):
        SPHERE_EMB.require_valid(np.array([0.0, 0.0, 1.5]), "connector base point")


def test_spray_flat():
    assert np.all(spray_accel(FLAT2, np.array([0.1, 0.2]), np.array([1.5, -2.0])) == 0.0)


def test_spray_zero_vector_is_zero():
    for man in (HALFPLANE, SPHERE_EMB):
        rng = np.random.default_rng(2)
        x = man.random_points(rng, 1)[0]
        assert np.all(spray_accel(man, x, np.zeros(x.shape)) == 0.0)


def test_spray_sphere_embedded_acceleration():
    p = np.array([0.0, 0.0, 1.0])
    h = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(spray_accel(SPHERE_EMB, p, h), -p, atol=1e-9)


def test_exp_flat_exact_for_dyadic_data():
    x = np.array([0.25, -1.5])
    h = np.array([0.5, 0.75])
    out = integrate_spray(FLAT2, x, h, 1024)[0]
    assert np.array_equal(out, x + h)


def test_exp_zero_vector_is_identity():
    p = SPHERE_EMB.random_points(np.random.default_rng(3), 1)[0]
    out = integrate_spray(SPHERE_EMB, p, np.zeros(3), 100)[0]
    assert np.array_equal(out, p)


def test_exp_sphere_quarter_circle():
    p = np.array([0.0, 0.0, 1.0])
    h = np.array([np.pi / 2, 0.0, 0.0])
    out = integrate_spray(SPHERE_EMB, p, h, 1000)[0]
    assert np.max(np.abs(out - great_circle(p, h, 1.0))) < 1e-8


def test_exp_homogeneity_in_time():
    rng = np.random.default_rng(4)
    p = SPHERE_EMB.random_points(rng, 1)[0]
    h = SPHERE_EMB.project(p, rng.uniform(-1, 1, 3))
    xs, _ = integrate_spray(SPHERE_EMB, p, h, 1000, record_every=250)
    for j, t in enumerate((0.25, 0.5, 0.75, 1.0), start=1):
        scaled = integrate_spray(SPHERE_EMB, p, t * h, 1000)[0]
        assert np.max(np.abs(scaled - xs[j])) < 1e-9


def test_exp_speed_conservation_chart():
    x = np.array([np.pi / 2, 0.0])
    v = np.array([0.3, 0.4])
    xs, vs = integrate_spray(SPHERE_CHART, x, v, 1000, record_every=100)
    g = SPHERE_CHART.metric(xs)
    speeds = np.einsum("tij,ti,tj->t", g, vs, vs)
    assert np.max(np.abs(speeds - speeds[0])) / speeds[0] < 1e-8


def test_exp_reports_domain_exit_with_time():
    x = np.array([0.3, 0.0])
    h = np.array([-0.5, 0.0])  # heads into the pole band at t ~ 0.6
    with pytest.raises(DomainExitError, match="geodesic left domain") as err:
        integrate_spray(SPHERE_CHART, x, h, 1000)[0]
    assert 0.55 < err.value.time < 0.65


def test_exp_reports_constraint_blowup_on_embedded_target():
    # one enormous step leaves the sphere far beyond tolerance before any
    # retraction can catch it
    p = np.array([0.0, 0.0, 1.0])
    h = np.array([50.0, 0.0, 0.0])
    with pytest.raises(DomainExitError, match="geodesic took a step too long"):
        integrate_spray(SPHERE_EMB, p, h, 1)[0]


def test_too_long_step_on_a_level_set_is_named_with_residual_and_step_count():
    # |v| = 400 over 1000 steps turns 0.4 rad per step: the RK4 endpoint of
    # the first step is off the sphere by more than ON_MANIFOLD_TOL before
    # any retraction; the sphere has no boundary, so this is no domain exit
    p = np.array([0.0, 0.0, 1.0])
    h = np.array([400.0, 0.0, 0.0])
    with pytest.raises(DomainExitError, match=r"geodesic took a step too long at t=0\.001 "
                       r"\(step 1 of 1000\): level-set residual (\S+) > 1e-06") as err:
        integrate_spray(SPHERE_EMB, p, h, 1000)
    assert "use more than 1000 steps" in str(err.value)
    assert "left domain" not in str(err.value)
    assert err.value.time == 0.001
    assert err.value.sample is None
    residual = float(str(err.value).split("residual ")[1].split()[0])
    assert 1e-6 < residual < 1e-3


def test_state_check_names_the_first_bad_sample_and_why():
    rng = np.random.default_rng(3)
    # a NaN velocity in row 1 of 2 makes that row's state NaN after one step
    x = PARABOLOID.random_points(rng, 2)
    v = PARABOLOID.project(x, rng.normal(size=x.shape))
    v[1] = np.nan
    with pytest.raises(DomainExitError, match=r"geodesic of sample 1 is not finite at t=0\.01 "
                       r"\(step 1 of 100\)") as err:
        integrate_spray(PARABOLOID, x, v, 100)
    assert err.value.sample == 1
    # a chart exit: sample 2 of 3 heads straight down, y(t) = 0.5 exp(-16 t),
    # and crosses the half-plane's boundary band y = 1e-3 at t = ln(500) / 16
    x = np.array([[0.0, 1.0], [0.5, 1.5], [0.0, 0.5]])
    v = np.array([[0.1, 0.0], [0.0, 0.2], [0.0, -8.0]])
    with pytest.raises(DomainExitError, match=r"geodesic of sample 2 left domain at t=0\.39 "
                       r"\(step 39 of 100\)$") as err:
        integrate_spray(HALFPLANE, x, v, 100)
    assert err.value.sample == 2
    assert np.log(500.0) / 16.0 < err.value.time < np.log(500.0) / 16.0 + 0.01
    # a step too long in row 1, between two rows that stay valid
    x = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    v = np.array([[0.1, 0.0, 0.0], [400.0, 0.0, 0.0], [0.0, 0.2, 0.0]])
    with pytest.raises(DomainExitError, match=r"geodesic of sample 1 took a step too long"
                       r" at t=0\.001 \(step 1 of 1000\)") as err:
        integrate_spray(SPHERE_EMB, x, v, 1000)
    assert err.value.sample == 1
    # a start off the level set, |f| / |grad f| = 0.21 / 2.2, is no step too long
    x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.1]])
    with pytest.raises(DomainExitError, match=r"geodesic of sample 1 starts off the level set "
                       r"at t=0 \(step 0 of 10\): residual 0\.0955 > 1e-06"):
        integrate_spray(SPHERE_EMB, x, np.zeros_like(x), 10)


@pytest.mark.parametrize("man", [SPHERE_EMB, SPHERE_CHART, HALFPLANE, PARABOLOID],
                         ids=lambda man: man.name)
def test_overflow_is_the_named_state_error_not_a_numpy_warning(man):
    # |v| = 1e200 overflows inside the first step's kernels; the step's end
    # check must name the sample before NumPy warns about the overflow
    rng = np.random.default_rng(4)
    x = man.random_points(rng, 3)
    v = man.project(x, rng.normal(size=x.shape))
    v *= (1e200 / np.sqrt(man.inner(x, v, v)))[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainExitError, match=r"geodesic of sample 0 is not finite at "
                           r"t=0\.1 \(step 1 of 10\)") as err:
            integrate_spray(man, x, v, 10)
    assert err.value.sample == 0


def _custom_sphere(**callbacks):
    return EmbeddedManifold(ambient_dim=3, level_set=SPHERE_EMB.level_set, **callbacks)


def test_custom_hypersurface_without_level_set_callbacks_is_rejected():
    # f alone no longer yields the spray; it must not silently give zero
    # acceleration
    with pytest.raises(ValueError, match="level_set, gradient and hessian_action"):
        _custom_sphere()
    with pytest.raises(ValueError, match="level_set, gradient and hessian_action"):
        _custom_sphere(gradient=SPHERE_EMB.gradient)
    with pytest.raises(ValueError, match="level_set, gradient and hessian_action"):
        EmbeddedManifold(ambient_dim=3, gradient=SPHERE_EMB.gradient,
                         hessian_action=SPHERE_EMB.hessian_action)


def test_custom_embedded_target_of_codimension_two_is_rejected():
    # the unit circle in the plane z = 0 as two equations: not a hypersurface
    def level_set(p):
        return np.stack([np.sum(p**2, axis=-1) - 1.0, p[..., 2]], axis=-1)

    man = EmbeddedManifold(ambient_dim=3, level_set=level_set,
                           gradient=SPHERE_EMB.gradient, hessian_action=SPHERE_EMB.hessian_action)
    with pytest.raises(ValueError, match="level_set must return one scalar per point"):
        man.valid(np.array([[1.0, 0.0, 0.0]]))


def test_custom_hypersurface_with_level_set_callbacks_has_sphere_spray():
    man = _custom_sphere(
        gradient=SPHERE_EMB.gradient, hessian_action=SPHERE_EMB.hessian_action
    )
    p = np.array([0.0, 0.0, 1.0])
    v = np.array([0.3, -0.4, 0.0])
    np.testing.assert_allclose(man.accel(p, v), -0.25 * p, atol=1e-15)
    assert man.intrinsic_dim == 2


def _ellipsoid(a=1.0, b=0.7, c=1.3) -> EmbeddedManifold:
    """x^2/a^2 + y^2/b^2 + z^2/c^2 = 1, declared by f, grad f and (Hess f) w only."""
    inv2 = 1.0 / np.array([a, b, c]) ** 2

    def sample(rng, m):
        u = rng.normal(size=(m, 3))
        return np.array([a, b, c]) * u / np.linalg.norm(u, axis=-1, keepdims=True)

    return EmbeddedManifold(
        ambient_dim=3,
        level_set=lambda p: np.sum(inv2 * p**2, axis=-1) - 1.0,
        gradient=lambda p: 2.0 * inv2 * p,
        hessian_action=lambda p, w: 2.0 * inv2 * w,
        sample_points=sample,
    )


def test_ellipsoid_from_level_set_alone_passes_standard_checks():
    reports = standard_checks(_ellipsoid(), instances=40, seed=3)
    assert {"retraction_fixpoint", "accel_vs_projector_derivative"} <= {r.check_name for r in reports}
    failed = [(r.check_name, r.max_abs_error) for r in reports if not r.passed]
    assert not failed


@pytest.mark.parametrize("r", [0.5, 1.0, 10.0])
def test_sphere_residual_is_distance_to_first_order(r):
    man = make_manifold(f"sphere:r={r}")
    rng = np.random.default_rng(11)
    u = man.random_points(rng, 20) / r
    delta = r * rng.uniform(-1e-3, 1e-3, size=20)
    p = (r + delta)[:, None] * u
    dist = np.abs(np.linalg.norm(p, axis=-1) - r)
    assert np.all(np.abs(man.residual(p) - dist) <= delta**2 / r)
    # the residual does not depend on the scale of f
    scaled = EmbeddedManifold(
        ambient_dim=3,
        level_set=lambda q: 7.0 * man.level_set(q),
        gradient=lambda q: 7.0 * man.gradient(q),
        hessian_action=lambda q, w: 7.0 * man.hessian_action(q, w),
    )
    np.testing.assert_allclose(scaled.residual(p), man.residual(p), rtol=1e-12)


def test_sphere_centre_is_invalid_without_warnings():
    p = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert SPHERE_EMB.residual(p)[0] == np.inf
        assert SPHERE_EMB.valid(p).tolist() == [False, True]
        with pytest.raises(OffManifoldError):
            SPHERE_EMB.require_valid(p, "test point")


def test_chart_and_embedded_sphere_geodesics_agree():
    x0 = np.array([np.pi / 2, 0.2])
    h = np.array([0.3, -0.4])
    xs, _ = integrate_spray(SPHERE_CHART, x0, h, 1000, record_every=100)
    p0 = SPHERE_CHART.embedding(x0)
    v0 = SPHERE_CHART.embedding_jacobian(x0) @ h
    ps, _ = integrate_spray(SPHERE_EMB, p0, v0, 1000, record_every=100)
    assert np.max(np.abs(SPHERE_CHART.embedding(xs) - ps)) < 1e-6


# ---------------------------------------------------------------------------
# curvature


def test_curvature_flat_zero():
    rng = np.random.default_rng(5)
    h, k, l = rng.uniform(-1, 1, size=(3, 2))
    out = FLAT2.curvature(np.array([0.1, 0.2]), h, k, l)
    assert np.all(out == 0.0)


def test_curvature_antisymmetry_exact():
    rng = np.random.default_rng(6)
    x = HALFPLANE.random_points(rng, 1)[0]
    h, k, l = rng.uniform(-1, 1, size=(3, 2))
    a = HALFPLANE.curvature(x, h, k, l)
    b = HALFPLANE.curvature(x, k, h, l)
    assert np.array_equal(a, -b)
    assert np.all(HALFPLANE.curvature(x, h, h, l) == 0.0)


def test_curvature_first_bianchi():
    rng = np.random.default_rng(7)
    for man in (HALFPLANE, SPHERE_CHART):
        x = man.random_points(rng, 1)[0]
        h, k, l = rng.uniform(-1, 1, size=(3, 2))
        total = (
            man.curvature(x, h, k, l)
            + man.curvature(x, k, l, h)
            + man.curvature(x, l, h, k)
        )
        assert np.max(np.abs(total)) < 1e-8


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_sphere_sectional_curvature(radius):
    man = make_manifold(f"sphere:r={radius}:rep=chart")
    rng = np.random.default_rng(8)
    x = man.random_points(rng, 4)
    h = rng.uniform(-1, 1, size=(4, 2))
    k = rng.uniform(-1, 1, size=(4, 2))
    sec = sectional_curvature(man, x, h, k)
    assert np.max(np.abs(sec - 1.0 / radius**2)) < 1e-6


def test_halfplane_sectional_curvature():
    rng = np.random.default_rng(9)
    x = HALFPLANE.random_points(rng, 4)
    h = rng.uniform(-1, 1, size=(4, 2))
    k = rng.uniform(-1, 1, size=(4, 2))
    sec = sectional_curvature(HALFPLANE, x, h, k)
    assert np.max(np.abs(sec + 1.0)) < 1e-6


def test_curvature_with_fd_jacobian_fallback():
    no_jac = ChartManifold(
        dim=2,
        metric=HALFPLANE.metric,
        christoffel=HALFPLANE.christoffel,
        chart_domain=HALFPLANE.chart_domain,
    )
    x = np.array([0.4, 1.3])
    h, k = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert abs(sectional_curvature(no_jac, x, h, k) + 1.0) < 1e-6


def _tangent_pairs(man, seed, m=50):
    rng = np.random.default_rng(seed)
    x = man.random_points(rng, m)
    h, k, l = (man.project(x, rng.uniform(-1, 1, x.shape)) for _ in range(3))
    return x, h, k, l


@pytest.mark.parametrize("r", [0.5, 1.0, 2.5])
def test_embedded_sphere_gauss_curvature_is_inverse_radius_squared(r):
    man = make_manifold(f"sphere:r={r}:rep=embedded")
    x, h, k, _ = _tangent_pairs(man, seed=21)
    assert np.max(np.abs(sectional_curvature(man, x, h, k) - 1.0 / r**2)) < 1e-10


def test_paraboloid_gauss_curvature():
    x, h, k, _ = _tangent_pairs(PARABOLOID, seed=22)
    K = 4.0 / (1.0 + 4.0 * x[:, 0] ** 2 + 4.0 * x[:, 1] ** 2) ** 2
    assert np.max(np.abs(sectional_curvature(PARABOLOID, x, h, k) - K)) < 1e-10


def test_flat_embedded_curvature_is_exact_zero():
    man = make_manifold("flat:n=3:rep=embedded")
    x, h, k, l = _tangent_pairs(man, seed=23)
    assert np.all(man.curvature(x, h, k, l) == 0.0)


def test_sectional_curvature_degenerate_plane_names_the_sample():
    with pytest.raises(ValueError, match="span no plane at sample 0"):
        sectional_curvature(HALFPLANE, [0.0, 1.0], [1.0, 0.0], [2.0, 0.0])
    x = np.array([[0.0, 1.0], [0.5, 2.0], [0.1, 1.5]])
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    k = np.array([[0.0, 1.0], [-3.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="span no plane at sample 1"):
        sectional_curvature(HALFPLANE, x, h, k)


# ---------------------------------------------------------------------------
# parallel transport


def test_transport_flat_is_identity():
    ts = np.linspace(0, 1, 50)
    curve = np.stack([ts, ts**2], axis=-1)
    v0 = np.array([0.3, -0.7])
    out = transport_along_samples(FLAT2, curve, v0)
    assert np.array_equal(out, v0)


def test_transport_zero_length_curve():
    p = np.array([0.0, 0.0, 1.0])
    v0 = np.array([0.5, 0.5, 0.0])
    assert np.array_equal(transport_along_samples(SPHERE_EMB, p[None, :], v0), v0)


def octant_loop(samples_per_arc):
    def arc(p, q, n):
        theta = np.arccos(np.clip(p @ q, -1, 1))
        w = q - np.cos(theta) * p
        w = w / np.linalg.norm(w)
        ts = np.linspace(0.0, theta, n)
        return np.cos(ts)[:, None] * p + np.sin(ts)[:, None] * w

    north = np.array([0.0, 0.0, 1.0])
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    n = samples_per_arc
    return np.vstack([arc(north, a, n), arc(a, b, n)[1:], arc(b, north, n)[1:]])


def test_transport_sphere_triangle_holonomy():
    # three right angles enclose area pi/2; the loop below turns the
    # transported vector by +pi/2 about the outward normal at the start
    loop = octant_loop(3334)  # ~1e4 steps in total
    v0 = np.array([1.0, 0.0, 0.0])
    out = transport_along_samples(SPHERE_EMB, loop, v0)
    assert np.max(np.abs(out - np.array([0.0, 1.0, 0.0]))) < 1e-4
    assert abs(np.linalg.norm(out) - 1.0) < 1e-8


def test_transport_preserves_metric_norm_halfplane():
    ts = np.linspace(0.0, 1.0, 2000)
    curve = np.stack([np.sin(ts), 1.0 + 0.5 * ts**2], axis=-1)
    v0 = np.array([0.4, 0.9])
    out = transport_along_samples(HALFPLANE, curve, v0)
    g0 = HALFPLANE.metric(curve[0])
    g1 = HALFPLANE.metric(curve[-1])
    assert abs(out @ g1 @ out - v0 @ g0 @ v0) < 1e-8


# ---------------------------------------------------------------------------
# registry


def test_registry_rejects_bad_parameters():
    with pytest.raises(ValueError, match="invalid parameter"):
        make_manifold("sphere:r=-1")
    with pytest.raises(ValueError, match="invalid parameter"):
        make_manifold("flat:n=0")
    with pytest.raises(ValueError, match="invalid parameter"):
        make_manifold("sphere:radius=2")
    with pytest.raises(ValueError, match="unknown manifold"):
        make_manifold("torus")
    with pytest.raises(ValueError, match="invalid parameter"):
        make_manifold("halfplane:r=1")


def test_registry_defaults_and_names():
    assert make_manifold("sphere").name == "sphere:r=1.0:rep=embedded"
    assert make_manifold("flat").name == "flat:n=2:rep=chart"
    assert make_manifold("sphere:rep=chart").dim == 2
    assert make_manifold("flat:n=3:rep=embedded").ambient_dim == 3


def test_sphere_chart_domain_excludes_pole_band():
    assert not SPHERE_CHART.valid(np.array([5e-4, 0.0]))
    assert SPHERE_CHART.valid(np.array([0.5, 0.0]))
