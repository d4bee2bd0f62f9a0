import dataclasses
import re
import warnings

import numpy as np
import pytest

from mapgeom import (
    ChartBoundaryError,
    ChartManifold,
    DomainExitError,
    EmbeddedManifold,
    OffManifoldError,
    make_manifold,
    sectional_curvature,
    standard_checks,
)
from mapgeom import manifold
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
    assert np.all(FLAT2.christoffel(x) == 0.0)


def test_halfplane_christoffel_analytic_values():
    G = HALFPLANE.christoffel(np.array([0.0, 1.0]))
    assert G[0, 0, 1] == -1.0
    assert G[0, 1, 0] == -1.0
    assert G[1, 0, 0] == 1.0
    assert G[1, 1, 1] == -1.0


def test_sphere_chart_christoffel_equator_and_midlatitude():
    eq = SPHERE_CHART.christoffel(np.array([np.pi / 2, 0.3]))
    assert abs(eq[0, 1, 1]) < 1e-12  # -sin(theta) cos(theta) vanishes on the equator
    mid = SPHERE_CHART.christoffel(np.array([np.pi / 4, 0.3]))
    assert abs(mid[0, 1, 1] + 0.5) < 1e-12


def test_christoffel_symmetry_in_lower_indices():
    rng = np.random.default_rng(0)
    for man in (HALFPLANE, SPHERE_CHART):
        x = man.random_points(rng, 5)
        G = man.christoffel(x)
        assert np.array_equal(G, np.swapaxes(G, -1, -2))


def test_chart_requires_christoffel_callbacks():
    with pytest.raises(TypeError, match="christoffel.*christoffel_jacobian"):
        ChartManifold(dim=2, metric=HALFPLANE.metric)
    with pytest.raises(TypeError, match="christoffel_jacobian"):
        ChartManifold(dim=2, metric=HALFPLANE.metric, christoffel=HALFPLANE.christoffel)


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


def test_require_valid_names_the_first_invalid_sample():
    x = np.array([[0.0, 1.0], [0.5, 2.0], [0.0, -1.0], [0.0, -2.0]])
    with pytest.raises(ChartBoundaryError,
                       match=r"^chart boundary: map values at sample 2 outside the chart domain$"):
        HALFPLANE.require_valid(x, "map values")
    p = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.1]])
    # |f| / |grad f| = 0.21 / 2.2 at (0, 0, 1.1)
    with pytest.raises(OffManifoldError, match=r"^point off manifold: map values at sample 2: "
                                               r"embedding residual 0\.0955 > 1e-06$"):
        SPHERE_EMB.require_valid(p, "map values")
    # a single point has no sample index
    with pytest.raises(OffManifoldError, match=r"^point off manifold: base point: embedding "
                                               r"residual 0\.0955 > 1e-06$"):
        SPHERE_EMB.require_valid(p[2], "base point")


def _interface_names():
    """The interface methods the module docstring lists as ``name(args)`` -- ...."""
    return set(re.findall(r"``([a-z]\w*)(?:\([^`]*\))?`` --", manifold.__doc__))


def _public_methods(cls):
    return {name for name, value in vars(cls).items()
            if not name.startswith("_") and (callable(value) or isinstance(value, property))}


def test_documented_interface_is_what_both_representations_define():
    shared = _public_methods(ChartManifold) & _public_methods(EmbeddedManifold)
    assert _interface_names() == shared


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


def observed_orders(errors):
    """log2 of the ratios of successive errors, each at half the step of the last."""
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("man, x, v", [
    (HALFPLANE, [[0.1, 1.0], [-0.3, 0.7]], [[1.0, 0.5], [-0.4, 0.8]]),
    (SPHERE_CHART, [[1.2, 0.3], [1.9, -1.0]], [[0.8, 1.1], [-0.6, 0.9]]),
    (SPHERE_EMB, [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]], [[1.0, 0.5, 0.0], [-0.8, 1.0, 0.6]]),
])
def test_spray_is_fourth_order(man, x, v):
    x, v = np.array(x), man.project(np.array(x), np.array(v))
    ref = integrate_spray(man, x, v, 2048)[0]
    errors = [np.max(np.abs(integrate_spray(man, x, v, n)[0] - ref)) for n in (8, 16, 32, 64)]
    assert min(observed_orders(errors)) >= 3.8


@pytest.mark.parametrize("record_every, match", [
    (0, r"record_every must be an integer >= 1, got 0"),
    (-1, r"record_every must be an integer >= 1, got -1"),
    (2.0, r"record_every must be an integer >= 1, got 2\.0"),
    (3, r"record_every=3 must divide steps=10"),
    (20, r"record_every=20 must divide steps=10"),
])
def test_record_every_must_be_a_count_that_divides_steps(record_every, match):
    # at 3 the t = 1 endpoint used to be dropped, and at 20 only t = 0 came back
    with pytest.raises(ValueError, match=match):
        integrate_spray(HALFPLANE, np.array([0.0, 1.0]), np.array([0.5, 0.2]), 10,
                        record_every=record_every)


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


RUNGS = [32, 64, 128, 256, 512, 1024]


def _fake_run(exits=(), power=1):
    """A run that integrates nothing: 1/n**power for two samples at n steps, and with
    twin 1/(n/2)**power too; a domain exit when either run is at a step count in
    exits.  ``run.calls`` lists each call's (n, twin)."""
    def run(n, twin):
        run.calls.append((n, twin))
        if set(exits) & ({n, n // 2} if twin else {n}):
            raise DomainExitError("geodesic left domain", time=0.5, sample=0, reason="left domain")
        return np.full((2, 3), n ** -power), np.full((2, 3), (n // 2) ** -power) if twin else None
    run.calls = []
    return run


# tol = 1: the h^4 law never predicts more than the next rung
def test_ladder_doubles_up_to_the_cap_and_estimates_against_the_rung_below():
    run = _fake_run()
    rungs = list(manifold.step_doubling_ladder(run, 1.0))
    assert [n for n, _, _ in rungs] == RUNGS[1:]
    # the first rung brings its twin; each later one runs alone
    assert run.calls == [(64, True)] + [(n, False) for n in RUNGS[2:]]
    for n, fine, est in rungs:
        np.testing.assert_array_equal(fine, np.full((2, 3), 1.0 / n))
        np.testing.assert_array_equal(est, manifold.step_doubling_error(fine, 2.0 * fine))


# RK4's error goes as n^-4, so from the pair (64, 32) the law predicts
# 2 (1 / tol)^(1/4) steps for the error 1/n^4, rounded up to the ladder
@pytest.mark.parametrize("root, calls", [
    (50.0, [(64, True), (128, False)]),  # 100 steps: the rung above, alone
    (150.0, [(64, True), (512, True)]),  # 300 steps: a pair
    (1000.0, [(64, True), (1024, True)]),  # 2000 steps: the cap
])
def test_ladder_jumps_to_the_rung_that_the_h4_law_predicts(root, calls):
    run, tol = _fake_run(power=4), root ** -4.0
    for n, fine, est in manifold.step_doubling_ladder(run, tol):
        if np.all(est <= tol) or n == manifold.LADDER_CAP:
            break
    assert run.calls == calls


# a rung whose run or twin exits is missing, and the climb goes on to a
# pair that brings its own estimate: the pair above a pair, two rungs up
# from a lone rung, whose pair above would rerun its exit
@pytest.mark.parametrize("exit_at", RUNGS[:4])
def test_ladder_goes_on_past_an_exit_while_two_rungs_remain(exit_at):
    rungs, missing = {32: ([64, 128, 256, 512, 1024], [64]),
                      64: ([64, 128, 256, 512, 1024], [64, 128]),
                      128: ([64, 128, 512, 1024], [128]),
                      256: ([64, 128, 256, 1024], [256])}[exit_at]
    run = _fake_run({exit_at})
    seen = list(manifold.step_doubling_ladder(run, 1.0))
    assert [n for n, _, _ in seen] == rungs
    assert [n for n, fine, _ in seen if fine is None] == missing
    assert [n for n, _, est in seen if est is None] == missing
    # the calls that meet the exit are the missing rungs, and no more
    assert [n for n, twin in run.calls if exit_at in ({n, n // 2} if twin else {n})] == missing


@pytest.mark.parametrize("exit_at", RUNGS[4:])
def test_ladder_raises_an_exit_on_its_last_two_rungs(exit_at):
    # a lone rung at 512 exits, and the pair at the cap would rerun it
    run, seen = _fake_run({exit_at}), []
    with pytest.raises(DomainExitError, match="left domain"):
        for n, _, _ in manifold.step_doubling_ladder(run, 1.0):
            seen.append(n)
    assert seen == [n for n in RUNGS[1:] if n < exit_at]
    assert run.calls[-1] == (exit_at, False)


def test_ladder_compares_the_next_rung_with_the_array_it_yielded():
    # as Newton writes the residual of the velocity it moved into the rung's array
    ladder = manifold.step_doubling_ladder(
        lambda n, twin: (np.zeros((2, 3)), np.zeros((2, 3)) if twin else None), 1.0)
    _, fine, _ = next(ladder)
    fine[1] = 3.0
    _, _, est = next(ladder)
    np.testing.assert_array_equal(est, [0.0, 3.0 * 16.0 / 15.0])


def test_spray_rungs_resume_the_carried_run_only_for_the_same_velocities(monkeypatch):
    man, rng = PARABOLOID, np.random.default_rng(5)
    x = man.random_points(rng, 3)
    v = 0.3 * man.project(x, rng.normal(size=x.shape))
    calls, integrate, velocity = [], manifold.integrate_spray, [v]

    def counted(man, x, v, steps, record_every=None):
        calls.append(steps)
        return integrate(man, x, v, steps, record_every)

    monkeypatch.setattr(manifold, "integrate_spray", counted)
    run = manifold.spray_rungs(man, x, lambda: velocity[0], lambda x, v: x)
    run(64, True)
    end, coarse = run(128, False)  # the carried run's last 64 steps
    assert calls == [32, 32, 64] and coarse is None
    assert np.array_equal(end, integrate(man, x, v, 128)[0])
    run(64, True)
    velocity[0] = 0.5 * v  # as Newton moves the velocities between rungs
    end, _ = run(128, False)
    assert calls[3:] == [32, 32, 128]
    assert np.array_equal(end, integrate(man, x, 0.5 * v, 128)[0])


# ---------------------------------------------------------------------------
# twin runs


TWIN_TARGETS = ["flat:n=2", "flat:n=3", "sphere:r=1.0:rep=chart", "sphere:r=1.0:rep=embedded",
                "halfplane", "paraboloid"]


@pytest.mark.parametrize("spec", TWIN_TARGETS)
@pytest.mark.parametrize("m, steps, record_every", [(4, 64, None), (20, 128, 16), (20, 64, 32),
                                                    (20, 64, 8)])
def test_twin_equals_the_two_separate_runs_bit_for_bit(spec, m, steps, record_every):
    man = make_manifold(spec)
    rng = np.random.default_rng(3)
    x = man.random_points(rng, m)
    v = man.project(x, rng.normal(size=x.shape))
    v *= (rng.uniform(0.05, 0.5, m) / np.sqrt(man.inner(x, v, v)))[:, None]
    v[1] = 0.0  # a zero-velocity row stays put in both runs
    fine, coarse = manifold.integrate_twin(man, x, v, steps, record_every)
    half = None if record_every is None else record_every // 2
    separate = (integrate_spray(man, x, v, steps, record_every)
                + integrate_spray(man, x, v, steps // 2, half))
    for got, want in zip(fine + coarse, separate):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(fine[0][..., 1, :], np.broadcast_to(x[1], fine[0][..., 1, :].shape))
    if record_every is not None and (steps // 2) % (2 * record_every):
        return  # the carried run records at twice the rate, so it needs 2 * record_every | steps / 2
    # the carried run at 2 * steps: the twin's bits unchanged, and resumed, a fresh run's
    fine, coarse, resume = manifold.integrate_twin(man, x, v, steps, record_every, carry=True)
    for got, want in zip(fine + coarse, separate):
        assert got.shape == want.shape and np.array_equal(got, want)
    double = None if record_every is None else 2 * record_every
    for got, want in zip(resume(), integrate_spray(man, x, v, 2 * steps, double)):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("steps, record_every, match", [
    (63, None, "steps=63 must be even"),
    (64, 12, r"record_every=12 must be even and divide steps // 2 = 32"),
    (64, 16, None),
])
def test_twin_needs_an_even_step_count_and_a_record_interval_for_both_runs(steps, record_every,
                                                                          match):
    x, v = np.array([[0.0, 1.0]]), np.array([[0.3, 0.1]])
    if match is None:
        (xs, _), (xc, _) = manifold.integrate_twin(HALFPLANE, x, v, steps, record_every)
        assert len(xs) == len(xc) == 5  # both runs recorded at t = 0, 1/4, ..., 1
    else:
        with pytest.raises(ValueError, match=match):
            manifold.integrate_twin(HALFPLANE, x, v, steps, record_every)


def test_carried_run_needs_twice_the_record_interval_to_divide_half_the_steps():
    x, v = np.array([[0.0, 1.0]]), np.array([[0.3, 0.1]])
    with pytest.raises(ValueError, match=r"carry needs 2 \* record_every = 64 to divide "
                                         r"steps // 2 = 32"):
        manifold.integrate_twin(HALFPLANE, x, v, 64, 32, carry=True)
    *_, resume = manifold.integrate_twin(HALFPLANE, x, v, 64, 16, carry=True)
    assert len(resume()[0]) == 5  # the 128-step run recorded at t = 0, 1/4, ..., 1


# at unit speed along the first axis the 8-step run lands on x = k/8, its
# 4-step twin on x = 2k/8 and the carried 16-step run on x = k/16; a hole is
# met first, in the calls' order, by the run named.  The twin keeps its
# result when only the carried run meets a hole, and resume() raises it
@pytest.mark.parametrize("hole, when", [
    (0.375, "t=0.375 (step 3 of 8)"),  # the 8-step run, inside the stacked call
    (0.625, "t=0.625 (step 5 of 8)"),  # the 8-step run, in its continuation
    (0.25, "t=0.25 (step 1 of 4)"),  # the 4-step twin
    (0.0625, "t=0.0625 (step 1 of 16)"),  # the carried run, inside the stacked call
    (0.3125, "t=0.3125 (step 5 of 16)"),  # the carried run, in the continuation
    (0.5625, "t=0.5625 (step 9 of 16)"),  # the carried run, resumed
])
def test_twin_exit_names_the_sample_the_run_and_its_own_time_and_step(hole, when):
    man = dataclasses.replace(
        FLAT2, chart_domain=lambda x: np.abs(np.asarray(x)[..., 0] - hole) > 1e-9)
    x = np.array([[0.0, 0.0], [0.0, 0.5]])
    v = np.array([[0.0, 1.0], [1.0, 0.0]])  # only sample 1 crosses the hole
    carried = when.endswith("of 16)")
    if carried:
        manifold.integrate_twin(man, x, v, 8)  # the pair alone never meets it
    for carry in (True,) if carried else (False, True):
        with pytest.raises(DomainExitError) as err:
            for resume in manifold.integrate_twin(man, x, v, 8, carry=carry)[2:]:
                assert carried
                resume()
        assert str(err.value) == f"geodesic of sample 1 left domain at {when}"
    assert err.value.sample == 1
    assert err.value.time == hole
    # the run named raises the same error on its own
    with pytest.raises(DomainExitError) as alone:
        integrate_spray(man, x, v, int(when.split(" of ")[1][:-1]))
    assert (str(alone.value), alone.value.time, alone.value.sample) == (
        str(err.value), err.value.time, err.value.sample)


def _custom_sphere(**callbacks):
    return EmbeddedManifold(ambient_dim=3, level_set=SPHERE_EMB.level_set, **callbacks)


def test_custom_hypersurface_without_level_set_callbacks_is_rejected():
    # f alone no longer yields the spray; it must not silently give zero
    # acceleration
    with pytest.raises(TypeError, match="gradient"):
        _custom_sphere()
    with pytest.raises(TypeError, match="hessian_action"):
        _custom_sphere(gradient=SPHERE_EMB.gradient)
    with pytest.raises(TypeError, match="level_set"):
        EmbeddedManifold(ambient_dim=3, gradient=SPHERE_EMB.gradient,
                         hessian_action=SPHERE_EMB.hessian_action)
    # leaving out all three is an error too, not the whole ambient space
    with pytest.raises(TypeError, match="level_set"):
        EmbeddedManifold(ambient_dim=3)


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
    np.testing.assert_allclose(spray_accel(man, p, v), -0.25 * p, atol=1e-15)
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


def _matrix_projector(man, x):
    """I - n n^T with n = grad f / |grad f|, formed here as a reference."""
    g = man.gradient(x)
    n = g / np.linalg.norm(g, axis=-1, keepdims=True)
    return np.eye(3) - n[..., :, None] * n[..., None, :]


LEVEL_SETS = [SPHERE_EMB, PARABOLOID, _ellipsoid()]
LEVEL_SET_IDS = ["sphere", "paraboloid", "ellipsoid"]


@pytest.mark.parametrize("man", LEVEL_SETS, ids=LEVEL_SET_IDS)
def test_project_is_the_matrix_projection(man):
    rng = np.random.default_rng(12)
    x = man.random_points(rng, 2048)
    v = rng.uniform(-1.0, 1.0, size=x.shape)
    P = _matrix_projector(man, x)
    Pv = man.project(x, v)
    assert np.abs(Pv - np.einsum("sij,sj->si", P, v)).max() <= 1e-15
    assert np.abs(man.project(x, Pv) - Pv).max() <= 1e-15
    g = man.gradient(x)
    normal = np.sum(g * Pv, axis=-1) / np.linalg.norm(g, axis=-1)
    assert np.abs(normal).max() <= 1e-15


@pytest.mark.parametrize("man", LEVEL_SETS, ids=LEVEL_SET_IDS)
def test_tangent_basis_is_an_orthonormal_basis_of_the_range_of_P(man):
    rng = np.random.default_rng(13)
    x = man.random_points(rng, 512)
    B = man.tangent_basis(x)
    assert B.shape == (512, 3, 2)
    assert np.abs(np.einsum("sik,sil->skl", B, B) - np.eye(2)).max() <= 1e-14
    assert np.abs(np.einsum("sik,sjk->sij", B, B) - _matrix_projector(man, x)).max() <= 1e-14


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


class _ProjectorPostStep:
    """A level-set target whose end-of-step pass re-projects v by the matrix I - n n^T."""

    def __init__(self, man):
        self.man = man

    def __getattr__(self, name):
        return getattr(self.man, name)

    def post_step(self, p_prev, p, v):
        q, _, ok = self.man.post_step(p_prev, p, v)
        return q, np.einsum("...ij,...j->...i", _matrix_projector(self.man, q), v), ok


@pytest.mark.parametrize("man", [SPHERE_EMB, PARABOLOID], ids=["sphere", "paraboloid"])
def test_end_of_step_pass_keeps_the_state_on_the_level_set(man):
    rng = np.random.default_rng(7)
    x = man.random_points(rng, 2048)
    v = man.project(x, rng.normal(size=x.shape))
    v *= (rng.uniform(0.05, 0.7, len(x)) / np.linalg.norm(v, axis=1))[:, None]
    v[::16] = 0.0
    end, vel = integrate_spray(man, x, v, 40)
    g = man.gradient(end)
    normal = np.abs(np.sum(g * vel, axis=1)) / np.linalg.norm(g, axis=1)
    assert np.all(normal <= 1e-14 * np.linalg.norm(vel, axis=1))
    assert man.residual(end).max() <= 4 * np.finfo(float).eps
    # zero-velocity rows are never retracted or re-projected
    assert np.array_equal(end[::16], x[::16]) and not vel[::16].any()
    # the rank-one re-projection is the matrix projector's up to round-off
    ref, ref_vel = integrate_spray(_ProjectorPostStep(man), x, v, 40)
    assert np.abs(end - ref).max() <= 1e-14
    assert np.abs(vel - ref_vel).max() <= 1e-14


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


def test_sectional_curvature_degenerate_plane_names_the_sample():
    x = np.array([[0.0, 1.0], [0.5, 2.0], [0.1, 1.5]])
    h = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    k = np.array([[0.0, 1.0], [-3.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="span no plane at sample 1"):
        sectional_curvature(HALFPLANE, x, h, k)


def test_sectional_curvature_degenerate_plane_at_a_point_names_no_sample():
    # a point is no batch, so there is no sample to name, as in require_valid
    with pytest.raises(ValueError, match="span no plane$"):
        sectional_curvature(HALFPLANE, [0.0, 1.0], [1.0, 0.0], [2.0, 0.0])


def test_sectional_curvature_degenerate_plane_in_a_two_row_batch_names_row_1():
    x = np.array([[0.0, 1.0], [0.5, 2.0]])
    h = np.array([[1.0, 0.0], [1.0, 0.0]])
    k = np.array([[0.0, 1.0], [-3.0, 0.0]])
    with pytest.raises(ValueError, match="span no plane at sample 1$"):
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


def halfplane_line(a, b, segments):
    t = np.linspace(0.0, 1.0, segments + 1)[:, None]
    return (1.0 - t) * np.array(a) + t * np.array(b)


def test_transport_along_a_horizontal_halfplane_line_is_fourth_order():
    # along y = 1 the transport equation is X' = L (X1, -X0): a rotation by L
    L, X0 = 2.0, np.array([0.3, -0.8])
    c, s = np.cos(L), np.sin(L)
    exact = np.array([c * X0[0] + s * X0[1], -s * X0[0] + c * X0[1]])
    errors = [np.max(np.abs(transport_along_samples(HALFPLANE, halfplane_line([0, 1], [L, 1], S),
                                                    X0) - exact)) for S in (4, 8, 16, 32)]
    assert errors[0] < 1e-3
    assert min(observed_orders(errors)) >= 3.8


def test_transport_along_a_slanted_halfplane_line_is_fourth_order():
    # the Christoffel symbols change along this line (they are constant
    # along y = 1), so each RK4 stage must evaluate them at its own point
    X0 = np.array([0.3, -0.8])
    a, b = [0.0, 1.0], [1.5, 0.5]
    ref = transport_along_samples(HALFPLANE, halfplane_line(a, b, 2048), X0)
    errors = [np.max(np.abs(transport_along_samples(HALFPLANE, halfplane_line(a, b, S), X0) - ref))
              for S in (4, 8, 16, 32)]
    assert min(observed_orders(errors)) >= 3.8


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


# r^2 enters the metric and the level set: at r = 1e-200 it underflows to
# 0, at 1e-160 to a subnormal, at 1e155 it overflows
@pytest.mark.parametrize("r, square", [("1e-200", "0.0"), ("1e-160", "1e-320"), ("1e155", "inf")])
@pytest.mark.parametrize("rep", ["chart", "embedded"])
def test_sphere_radius_whose_square_is_not_normal_is_rejected(r, square, rep):
    with pytest.raises(ValueError) as info:
        make_manifold(f"sphere:r={r}:rep={rep}")
    assert str(info.value) == (f"invalid parameter r={float(r)}: r^2 = {square}; r^2 must be a "
                               "finite, normal double: about 1.5e-154 <= r <= 1.3e154")


def test_sphere_entry_states_the_radius_bound():
    assert "about 1.5e-154 <= r <= 1.3e154" in dict(manifold.list_manifolds())["sphere"]
    for r in (1.5e-154, 1.3e154):
        assert make_manifold(f"sphere:r={r}").name == f"sphere:r={r}:rep=embedded"


def test_registry_defaults_and_names():
    assert make_manifold("sphere").name == "sphere:r=1.0:rep=embedded"
    assert make_manifold("flat").name == "flat:n=2"
    assert make_manifold("sphere:rep=chart").dim == 2


def test_sphere_chart_domain_excludes_pole_band():
    assert not SPHERE_CHART.valid(np.array([5e-4, 0.0]))
    assert SPHERE_CHART.valid(np.array([0.5, 0.0]))
