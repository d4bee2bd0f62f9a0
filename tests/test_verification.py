import dataclasses

import numpy as np
import pytest

from mapgeom import (
    ChartBoundaryError,
    MapField,
    OracleReport,
    QuadratureDomain,
    TangentField,
    accel_vs_projector_derivative,
    circle_domain,
    interval_domain,
    make_manifold,
    oracle_christoffel,
    oracle_curvature_commutator,
    oracle_first_variation,
    random_diffeo,
    run_axiom_sweep,
    standard_checks,
)

FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")

REGISTRY = [
    "flat:n=2",
    "flat:n=3:rep=embedded",
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
        diff = oracle_christoffel(man, pts) - man.christoffel_eval(pts)
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
        "flat:n=3:rep=embedded",
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


def test_projector_difference_oracle_catches_wrong_hessian():
    man = make_manifold("paraboloid")
    bad = dataclasses.replace(man, hessian_action=lambda p, w: 1.01 * man.hessian_action(p, w))
    assert _oracle_error(bad) > 1e-7
    report = {r.check_name: r for r in standard_checks(bad, instances=20, seed=0)}
    assert not report["accel_vs_projector_derivative"].passed
