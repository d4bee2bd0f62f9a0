import dataclasses

import numpy as np
import pytest

from mapgeom import (
    ChartBoundaryError,
    DomainExitError,
    EmbeddedManifold,
    FieldMismatchError,
    MapField,
    OracleReport,
    QuadratureDomain,
    TangentField,
    accel_vs_projector_derivative,
    circle_domain,
    interval_domain,
    make_manifold,
    manifold,
    oracle_christoffel,
    oracle_curvature_commutator,
    oracle_first_variation,
    random_diffeo,
    run_axiom_sweep,
    standard_checks,
    verification,
)

FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")

REGISTRY = [
    "flat:n=2",
    "flat:n=3",
    "sphere:r=1.0:rep=chart",
    "sphere:r=1.0:rep=embedded",
    "halfplane",
    "paraboloid",
]


# ---------------------------------------------------------------------------
# Christoffel oracle


def test_oracle_christoffel_flat_zero():
    assert np.all(oracle_christoffel(FLAT2, np.array([0.2, -0.4])) == 0.0)


def test_oracle_christoffel_halfplane_value():
    G = oracle_christoffel(HALFPLANE, np.array([0.0, 2.0]))
    assert abs(G[1, 1, 1] + 0.5) < 1e-10


def test_oracle_christoffel_sphere_value():
    G = oracle_christoffel(SPHERE_CHART, np.array([np.pi / 4, 0.0]))
    assert abs(G[0, 1, 1] + 0.5) < 1e-10


def test_oracle_christoffel_agrees_with_analytic_on_registry():
    rng = np.random.default_rng(0)
    for man in (HALFPLANE, SPHERE_CHART):
        pts = man.random_points(rng, 10)
        diff = oracle_christoffel(man, pts) - man.christoffel(pts)
        assert np.max(np.abs(diff)) < 1e-5


def test_oracle_christoffel_domain_guard():
    with pytest.raises(ChartBoundaryError, match="chart boundary"):
        oracle_christoffel(HALFPLANE, np.array([0.0, 1.05e-3]))


# ---------------------------------------------------------------------------
# curvature commutator oracle


def test_commutator_flat_zero():
    rng = np.random.default_rng(1)
    h, k, l = rng.uniform(-1, 1, (3, 2))
    out = oracle_curvature_commutator(FLAT2, np.array([0.1, 0.2]), h, k, l)
    assert np.max(np.abs(out)) < 1e-12


@pytest.mark.parametrize("man", [SPHERE_CHART, HALFPLANE])
def test_commutator_matches_curvature_formula(man):
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = man.random_points(rng, 1)[0]
        h, k, l = rng.uniform(-1, 1, (3, 2))
        com = oracle_curvature_commutator(man, x, h, k, l)
        ref = man.curvature(x, h, k, l)
        assert np.max(np.abs(com - ref)) < 1e-3


@pytest.mark.parametrize("man", [SPHERE_CHART, HALFPLANE])
def test_commutator_batch_equals_one_point_calls(man):
    # each row keeps its own difference step, so a batch is bitwise the stacked points
    rng = np.random.default_rng(4)
    x = man.random_points(rng, 12)
    h, k, l = rng.uniform(-1, 1, (3,) + x.shape)
    rows = [oracle_curvature_commutator(man, x[i], h[i], k[i], l[i]) for i in range(12)]
    assert np.array_equal(oracle_curvature_commutator(man, x, h, k, l), np.stack(rows))


def test_commutator_antisymmetric_in_first_pair():
    rng = np.random.default_rng(3)
    x = SPHERE_CHART.random_points(rng, 1)[0]
    h, l = rng.uniform(-1, 1, (2, 2))
    out = oracle_curvature_commutator(SPHERE_CHART, x, h, h, l)
    assert np.max(np.abs(out)) < 1e-3


# ---------------------------------------------------------------------------
# first-variation oracle


def _halfplane_instance(rng, m=8):
    dom = QuadratureDomain(rng.uniform(0.1, 1.0, size=m))
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, m))
    h, k, w = (TangentField(q, rng.uniform(-1, 1, (m, 2))) for _ in range(3))
    return q, h, k, w


def test_first_variation_flat_both_zero():
    rng = np.random.default_rng(4)
    dom = QuadratureDomain(rng.uniform(0.1, 1.0, size=4))
    q = MapField(dom, FLAT2, rng.uniform(-1, 1, (4, 2)))
    h, k, w = (TangentField(q, rng.uniform(-1, 1, (4, 2))) for _ in range(3))
    lhs, rhs = oracle_first_variation(q, h, k, w)
    assert rhs == 0.0
    assert abs(lhs) < 1e-10


def test_first_variation_zero_direction():
    rng = np.random.default_rng(5)
    q, h, k, _ = _halfplane_instance(rng)
    zero = TangentField(q, np.zeros_like(h.vecs))
    lhs, rhs = oracle_first_variation(q, h, k, zero)
    assert rhs == 0.0
    assert abs(lhs) < 1e-9


def test_first_variation_identity_on_halfplane():
    rng = np.random.default_rng(6)
    for _ in range(10):
        q, h, k, w = _halfplane_instance(rng)
        lhs, rhs = oracle_first_variation(q, h, k, w)
        assert abs(lhs - rhs) < 1e-4


@pytest.mark.parametrize("elsewhere", [0, 1, 2])
def test_first_variation_needs_fields_based_at_q(elsewhere):
    # the same fields, one of them based at another map of the same shape
    rng = np.random.default_rng(6)
    q, h, k, w = _halfplane_instance(rng)
    other = MapField(q.domain, HALFPLANE, HALFPLANE.random_points(rng, 8))
    fields = [h, k, w]
    fields[elsewhere] = TangentField(other, fields[elsewhere].vecs)
    with pytest.raises(FieldMismatchError, match="based at a different map"):
        oracle_first_variation(q, *fields)


def _chart_exit_instance(y=1e-3 + 1e-7):
    # sample 1 sits just above the half-plane's pole band; the step along h
    # takes it down by delta * 0.5 = 3e-6, along k and m it stays level
    x = np.array([[0.0, 1.0], [0.2, y], [0.1, 0.5]])
    h = np.array([[0.1, 0.2], [0.3, -0.5], [0.2, 0.1]])
    k = np.array([[0.1, 0.2], [0.3, 0.0], [0.2, 0.1]])
    return np.ones(3), x, h, k, k.copy()


def test_first_variation_chart_exit_names_direction_and_sample():
    w, x, h, k, m = _chart_exit_instance()
    q = MapField(QuadratureDomain(w), HALFPLANE, x)
    with pytest.raises(ChartBoundaryError) as info:
        oracle_first_variation(q, *(TangentField(q, v) for v in (h, k, m)))
    assert str(info.value) == ("chart exit during perturbation: x + delta h at sample 1 "
                               "is outside the chart domain")


def test_first_variation_batch_chart_exit_names_the_instance():
    inside, exiting = _chart_exit_instance(1.0), _chart_exit_instance()
    batch = (np.stack(a) for a in zip(inside, exiting))
    with pytest.raises(ChartBoundaryError) as info:
        verification._first_variation(HALFPLANE, *batch)
    assert str(info.value) == ("chart exit during perturbation: x + delta h at instance 1, "
                               "sample 1 is outside the chart domain")


def _first_variation_draws(man, instances, seed):
    """The battery's first-variation inputs, replaying its draws in order."""
    rng = np.random.default_rng(seed + 1)
    xs = man.random_points(rng, min(instances, 50))
    verification._random_tangents(man, rng, xs, 3)
    man.random_points(rng, min(instances, 25))
    return [(rng.uniform(0.05, 1.0, size=8), man.random_points(rng, 8),
             *(rng.uniform(-1.0, 1.0, size=(8, man.dim)) for _ in range(3)))
            for _ in range(min(instances, 25))]


# the battery runs its instances in one batched pass; each instance keeps
# its own steps and exact sums, so it reads the bits of a call on it alone
@pytest.mark.parametrize("name", ["halfplane", "sphere:r=1.0:rep=chart",
                                  "sphere:r=2.5:rep=chart", "flat:n=3"])
def test_batched_first_variation_equals_single_calls_bitwise(name):
    man = make_manifold(name)
    draws = _first_variation_draws(man, 40, 2)
    lhs, rhs = verification._first_variation(man, *(np.stack(a) for a in zip(*draws)))
    errs = []
    for i, (w, x, h, k, m) in enumerate(draws):
        q = MapField(QuadratureDomain(w), man, x)
        one = oracle_first_variation(q, *(TangentField(q, v) for v in (h, k, m)))
        assert np.array([lhs[i], rhs[i]]).tobytes() == np.array(one).tobytes()
        errs.append(abs(one[0] - one[1]))
    report = {r.check_name: r for r in standard_checks(man, instances=40, seed=2)}
    assert report["first_variation_identity"].max_abs_error == max(errs)


# ---------------------------------------------------------------------------
# axiom sweep


@pytest.mark.parametrize("name", REGISTRY)
def test_axiom_sweep_passes_on_registry(name):
    man = make_manifold(name)
    reports = run_axiom_sweep(man, instances=100, seed=7)
    assert len(reports) == 4
    for r in reports:
        assert r.passed
        assert r.max_abs_error <= 1e-10
        assert r.instance_count == 100


def test_axiom_sweep_flat_errors_are_exactly_zero():
    for r in run_axiom_sweep(FLAT2, instances=50, seed=11):
        assert r.max_abs_error == 0.0


def test_axiom_sweep_single_instance():
    reports = run_axiom_sweep(HALFPLANE, instances=1, seed=0)
    assert all(r.instance_count == 1 for r in reports)


def test_axiom_sweep_reproducible_bitwise():
    a = run_axiom_sweep(SPHERE_CHART, instances=64, seed=42)
    b = run_axiom_sweep(SPHERE_CHART, instances=64, seed=42)
    assert a == b


def test_axiom_sweep_rejects_no_instances():
    with pytest.raises(ValueError):
        run_axiom_sweep(FLAT2, instances=0)


@pytest.mark.parametrize("value", [2.5, True, 0])
@pytest.mark.parametrize("name, call", [
    ("instances", lambda v: standard_checks(HALFPLANE, instances=v)),
    ("instances", lambda v: run_axiom_sweep(HALFPLANE, instances=v)),
    ("m", circle_domain),
    ("m", interval_domain),
    ("m", lambda v: random_diffeo(v, np.random.default_rng(0))),
], ids=["standard_checks", "run_axiom_sweep", "circle_domain", "interval_domain",
        "random_diffeo"])
def test_count_argument_errors_name_the_argument(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(value)


def test_oracle_report_passed_consistency():
    r = OracleReport.from_error("x", 2e-3, 1e-3, 5)
    assert not r.passed
    assert r.passed == (r.max_abs_error <= r.tolerance)


# ---------------------------------------------------------------------------
# full battery


@pytest.mark.parametrize(
    "name",
    [
        "halfplane",
        "sphere:r=1.0:rep=embedded",
        "sphere:r=2.0:rep=embedded",
        "paraboloid",
        "flat:n=3",
    ],
)
def test_standard_checks_pass(name):
    man = make_manifold(name)
    reports = standard_checks(man, instances=40, seed=2)
    assert "curvature_vs_commutator" in {r.check_name for r in reports}
    assert all(r.passed for r in reports), [
        (r.check_name, r.max_abs_error) for r in reports if not r.passed
    ]


# ---------------------------------------------------------------------------
# projector-derivative oracle


def _oracle_error(man, seed=3, count=200):
    rng = np.random.default_rng(seed)
    p = man.random_points(rng, count)
    raw = rng.uniform(-1.0, 1.0, size=p.shape)
    return accel_vs_projector_derivative(man, p, man.project(p, raw), raw)


@pytest.mark.parametrize("name", ["sphere:r=1.0:rep=embedded", "paraboloid"])
def test_commutator_oracle_catches_wrong_hessian(name):
    man = make_manifold(name)
    bad = dataclasses.replace(man, hessian_action=lambda p, w: 1.01 * man.hessian_action(p, w))
    report = {r.check_name: r for r in standard_checks(bad, instances=20, seed=0)}
    assert not report["curvature_vs_commutator"].passed


def _battery(man):
    return {r.check_name: r for r in standard_checks(man, instances=20, seed=0)}


# a chart's callbacks are its only source of Gamma and dGamma, so the
# battery must catch a 1 % error planted in either one, and only there; in
# Gamma the first-variation identity reads 5.1e-2 on the half-plane and
# 3.2e-3 on the sphere chart against its bound of 1e-4
@pytest.mark.parametrize("name", ["halfplane", "sphere:r=1.0:rep=chart"])
def test_christoffel_oracle_catches_wrong_christoffel(name):
    man = make_manifold(name)
    good = _battery(man)
    bad = _battery(dataclasses.replace(man, christoffel=lambda x: 1.01 * man.christoffel(x)))
    for check in ("christoffel_vs_metric_stencil", "first_variation_identity"):
        assert good[check].passed and not bad[check].passed, check


@pytest.mark.parametrize("name", ["halfplane", "sphere:r=1.0:rep=chart"])
def test_commutator_oracle_catches_wrong_christoffel_jacobian(name):
    man = make_manifold(name)
    assert _battery(man)["curvature_vs_commutator"].passed
    bad = dataclasses.replace(man, christoffel_jacobian=lambda x: 1.01 * man.christoffel_jacobian(x))
    report = _battery(bad)
    assert not report["curvature_vs_commutator"].passed
    assert report["christoffel_vs_metric_stencil"].passed


# a relative error of 1e-6 in the spray breaks g(v, v) conservation on a
# chart, where nothing corrects the step: the drift reads 4.0e-7 on the
# half-plane and 1.8e-7 on the sphere chart, against its bound of 1e-8
@pytest.mark.parametrize("name", ["halfplane", "sphere:r=1.0:rep=chart"])
def test_speed_drift_oracle_catches_a_planted_chart_spray_defect(name, monkeypatch):
    man = make_manifold(name)
    assert _battery(man)["geodesic_speed_drift"].passed
    accel = manifold.spray_accel
    monkeypatch.setattr(manifold, "spray_accel", lambda m, x, v: (1 + 1e-6) * accel(m, x, v))
    assert not _battery(man)["geodesic_speed_drift"].passed


# the drift oracle follows the ladder's exit rule: a rung below the cap that
# leaves the domain is left out, and an exit at the cap propagates; a twin
# call exits if either run does, so below every pair up to 512 is left out,
# and the one at 1024, two calls of 512 steps, is not.  The exits are planted
# in the integrator's calls: each geodesic starts at speed 0.2, so a row of a
# call of s steps at speed 0.2 / f is a row of the run of f * s steps (a
# twin's stacked call holds its fine run at half velocity)
@pytest.mark.parametrize("exits, rungs", [
    ({32, 64, 128, 256}, [512, 512]),
    ({32, 64, 128, 256, 512}, None),
])
def test_speed_drift_oracle_skips_a_rung_that_exits_below_512(exits, rungs, monkeypatch):
    finished, integrate = [], manifold.integrate_spray

    def exiting(man, x, v, steps, record_every=None):
        runs = np.rint(0.2 * steps / np.sqrt(man.inner(x, v, v)))
        hit = np.flatnonzero(np.isin(runs, list(exits)))
        if hit.size:
            raise DomainExitError([manifold.DomainExit(int(hit[0]), steps // 2, steps,
                                                       "left domain")])
        finished.append(steps)
        return integrate(man, x, v, steps, record_every)

    monkeypatch.setattr(manifold, "integrate_spray", exiting)
    if rungs is None:
        with pytest.raises(DomainExitError):
            standard_checks(HALFPLANE, instances=20, seed=0)
        assert finished == []
    else:
        report = {r.check_name: r for r in standard_checks(HALFPLANE, instances=20, seed=0)}
        assert report["geodesic_speed_drift"].passed
        assert finished == rungs


# on a level set the same defect goes through transport_rhs, and the
# retraction absorbs its normal part, so the drift oracle cannot see it
# (it reads 6e-10 there); the projector-difference oracle must
@pytest.mark.parametrize("name", ["sphere:r=1.0:rep=embedded", "paraboloid"])
def test_projector_difference_oracle_catches_a_planted_level_set_spray_defect(name, monkeypatch):
    man = make_manifold(name)
    assert _battery(man)["accel_vs_projector_derivative"].passed
    rhs = EmbeddedManifold.transport_rhs
    monkeypatch.setattr(EmbeddedManifold, "transport_rhs",
                        lambda self, p, v, X: (1 + 1e-6) * rhs(self, p, v, X))
    assert not _battery(man)["accel_vs_projector_derivative"].passed


def test_speed_drift_step_count_is_certified_not_guessed():
    # at a fixed 100 RK4 steps this drift reads 2.4e-8, above its bound of
    # 1e-8; the step-doubling ladder climbs until the estimate certifies it
    reports = standard_checks(make_manifold("sphere:r=0.5:rep=chart"), instances=20, seed=2)
    assert all(r.passed for r in reports), [
        (r.check_name, r.max_abs_error) for r in reports if not r.passed
    ]


def test_speed_drift_oracle_certifies_each_rung_at_the_cost_of_one_run(monkeypatch):
    # the same battery certifies its drift at 512 steps; restarting every
    # rung from t = 0 took 32 + 64 + ... + 512 = 992 sequential RK4 steps,
    # and the twin pair (64, 32) then the predicted pair (512, 256) take
    # 64 + 512, with the drift of the 512-step run bit for bit
    steps, integrate = [], manifold.integrate_spray

    def counted(man, x, v, n, *args, **kwargs):
        steps.append(n)
        return integrate(man, x, v, n, *args, **kwargs)

    monkeypatch.setattr(manifold, "integrate_spray", counted)  # every rung's calls
    reports = standard_checks(make_manifold("sphere:r=0.5:rep=chart"), instances=20, seed=2)
    drift = {r.check_name: r for r in reports}["geodesic_speed_drift"]
    assert drift.max_abs_error == 3.493264705278775e-11
    assert sum(steps) <= 576


def test_projector_difference_oracle_catches_wrong_hessian():
    man = make_manifold("paraboloid")
    bad = dataclasses.replace(man, hessian_action=lambda p, w: 1.01 * man.hessian_action(p, w))
    assert _oracle_error(bad) > 1e-7
    report = {r.check_name: r for r in standard_checks(bad, instances=20, seed=0)}
    assert not report["accel_vs_projector_derivative"].passed
