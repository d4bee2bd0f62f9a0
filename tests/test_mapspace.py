import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgeom import (
    DiscreteDiffeo,
    DiscreteMeasure,
    FieldMismatchError,
    FieldPath,
    LiftError,
    MapField,
    NotVerticalError,
    QuadratureDomain,
    SecondTangentField,
    TangentField,
    canonical_flip_field,
    circle_domain,
    connector_field,
    curvature_field,
    embed_map_field,
    embed_tangent_field,
    exp_field,
    field_from_json,
    field_to_json,
    interval_domain,
    l2_inner,
    lift_left_composition,
    load_field,
    make_manifold,
    save_field,
    spray_field,
    vertical_lift_field,
    vertical_projection_field,
)
from mapgeom.manifold import ON_MANIFOLD_TOL, integrate_spray, spray_accel

FLAT1 = make_manifold("flat:n=1")
FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_EMB = make_manifold("sphere:r=1.0:rep=embedded")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")
PARABOLOID = make_manifold("paraboloid")


def flat_field(values, weights=None):
    values = np.asarray(values, dtype=float)
    dom = QuadratureDomain(np.asarray(weights, dtype=float) if weights is not None
                           else np.full(len(values), 1.0 / len(values)))
    return MapField(dom, make_manifold(f"flat:n={values.shape[1]}"), values)


def sphere_field(m, seed=0):
    rng = np.random.default_rng(seed)
    dom = circle_domain(m)
    vals = SPHERE_EMB.random_points(rng, m)
    q = MapField(dom, SPHERE_EMB, vals)
    h = TangentField(q, SPHERE_EMB.project(vals, rng.uniform(-1, 1, (m, 3))))
    return q, h


# ---------------------------------------------------------------------------
# domains and field containers


def test_domain_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        QuadratureDomain(np.array([]))
    with pytest.raises(ValueError):
        QuadratureDomain(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        QuadratureDomain(np.array([0.5, -0.1]))


def test_circle_domain_weights():
    dom = circle_domain(8, total_weight=2.0)
    assert np.all(dom.weights == 0.25)
    assert dom.total_weight == 2.0
    assert dom.points.shape == (8, 1)


def test_interval_domain_trapezoid_weights():
    dom = interval_domain(5, 0.0, 1.0)
    np.testing.assert_allclose(dom.weights, [0.125, 0.25, 0.25, 0.25, 0.125])
    assert abs(dom.total_weight - 1.0) < 1e-15


def test_map_field_validates_membership():
    dom = QuadratureDomain(np.array([1.0]))
    with pytest.raises(Exception, match="off manifold"):
        MapField(dom, SPHERE_EMB, np.array([[0.0, 0.0, 1.5]]))
    with pytest.raises(ValueError, match="chart domain"):
        MapField(dom, HALFPLANE, np.array([[0.0, -1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_map_field_rejects_nonfinite_values(bad):
    dom = QuadratureDomain(np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="values are not finite"):
        MapField(dom, make_manifold("flat:n=2"), np.array([[0.0, bad], [1.0, 2.0]]))


def test_tangent_field_validates_tangency():
    dom = QuadratureDomain(np.array([1.0]))
    q = MapField(dom, SPHERE_EMB, np.array([[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="tangent"):
        TangentField(q, np.array([[0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("speed, normal, accepted", [
    (10.0, 0.5e-6, True), (10.0, 2e-6, True), (10.0, 2e-5, False), (1.0, 2e-6, False)])
def test_tangency_bound_grows_with_the_row(speed, normal, accepted):
    # a row may leave the tangent space by 1e-6 * max(1, max|v_i|): 1e-5 at
    # |v| = 10 and 1e-6 at |v| = 1; only a normal part within 1e-6 passes
    # whatever the row
    q = MapField(QuadratureDomain(np.full(3, 1 / 3)), SPHERE_EMB, np.eye(3)[[2, 0, 1]])
    v = np.array([[speed, 0.0, normal], [0.0, 0.0, 10.0], [0.0, 0.0, -10.0]])
    if accepted:
        assert np.array_equal(TangentField(q, v).vecs, v)
    else:
        with pytest.raises(ValueError, match="not tangent"):
            TangentField(q, v)


def test_chart_fields_are_never_rejected_as_not_tangent():
    rng = np.random.default_rng(0)
    for man in (HALFPLANE, SPHERE_CHART):
        q = MapField(circle_domain(64), man, man.random_points(rng, 64))
        TangentField(q, rng.normal(scale=1e6, size=(64, 2)))


def _flat_map():
    return MapField(QuadratureDomain(np.array([0.5, 0.5])), make_manifold("flat:n=2"),
                    np.zeros((2, 2)))


NAN = float("nan")


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: DiscreteMeasure(np.array([[NAN], [1.0]]), np.array([0.5, 0.5])), "atoms"),
        (lambda: DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([NAN, 1.0])), "masses"),
        (lambda: DiscreteDiffeo(np.array([0, 1.5])), "perm"),
        (lambda: DiscreteDiffeo(np.array([True, False])), "perm"),
        (lambda: QuadratureDomain(np.ones(2), points=np.float64(5.0)), "points"),
        (lambda: QuadratureDomain(np.ones(2), points=np.array([[0.0], [NAN]])), "points"),
        (lambda: FieldPath(np.array([0.0, np.inf]), (_flat_map(), _flat_map())), "times"),
        (lambda: SecondTangentField(_flat_map().domain, make_manifold("flat:n=2"),
                                    np.zeros((2, 2)), np.zeros((2, 2)),
                                    np.full((2, 2), NAN), np.eye(2)), "dbase"),
    ],
    ids=["measure-nan-atoms", "measure-nan-masses", "perm-float", "perm-bools",
         "domain-scalar-points", "domain-nan-points",
         "path-infinite-time", "second-tangent-nan"],
)
def test_record_rejects_bad_array_entry(build, name):
    with pytest.raises(ValueError, match=name):
        build()


# ---------------------------------------------------------------------------
# the L2 metric


def test_l2_inner_two_sample_arithmetic():
    q = flat_field([[0.0], [0.0]], weights=[0.5, 0.5])
    h = TangentField(q, np.array([[1.0], [2.0]]))
    assert l2_inner(q, h, h) == 2.5


def test_l2_inner_zero_field():
    q, h = sphere_field(6)
    zero = TangentField(q, np.zeros_like(h.vecs))
    assert l2_inner(q, h, zero) == 0.0


def test_l2_inner_constant_unit_field_on_sphere():
    m = 4
    dom = circle_domain(m)  # total weight 1
    vals = np.tile([0.0, 0.0, 1.0], (m, 1))
    q = MapField(dom, SPHERE_EMB, vals)
    h = TangentField(q, np.tile([1.0, 0.0, 0.0], (m, 1)))
    assert l2_inner(q, h, h) == 1.0


def test_l2_inner_rejects_mismatched_fields():
    q1, h1 = sphere_field(5, seed=1)
    q2, h2 = sphere_field(5, seed=2)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        l2_inner(q1, h1, h2)
    other_dom = QuadratureDomain(np.full(5, 0.1))
    q3 = MapField(other_dom, SPHERE_EMB, q1.values)
    with pytest.raises(FieldMismatchError, match="field mismatch"):
        l2_inner(q3, h1, h1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=10_000),
)
def test_l2_inner_symmetric_bilinear_positive(m, seed):
    rng = np.random.default_rng(seed)
    dom = QuadratureDomain(rng.uniform(0.1, 2.0, size=m))
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, m))
    h = TangentField(q, rng.uniform(-1, 1, (m, 2)))
    k = TangentField(q, rng.uniform(-1, 1, (m, 2)))
    w = TangentField(q, rng.uniform(-1, 1, (m, 2)))
    a, b = rng.uniform(-2, 2, size=2)
    sym_lhs = l2_inner(q, h, k)
    sym_rhs = l2_inner(q, k, h)
    assert math.isclose(sym_lhs, sym_rhs, rel_tol=1e-12, abs_tol=1e-14)
    lin_lhs = l2_inner(q, TangentField(q, a * h.vecs + b * k.vecs), w)
    lin_rhs = a * l2_inner(q, h, w) + b * l2_inner(q, k, w)
    assert math.isclose(lin_lhs, lin_rhs, rel_tol=1e-10, abs_tol=1e-12)
    hnz = TangentField(q, h.vecs + np.sign(h.vecs + 0.5))  # bounded away from zero
    assert l2_inner(q, hnz, hnz) > 0.0


# ---------------------------------------------------------------------------
# functorial lift


def test_lift_identity():
    q, _ = sphere_field(5)
    out = lift_left_composition(lambda p: p, q)
    assert np.array_equal(out.values, q.values)


def test_lift_base_point_projection():
    # the pointwise projection (x, v) -> x realizes the bundle projection
    q, h = sphere_field(5)
    out = lift_left_composition(lambda x, v: x, h)
    assert isinstance(out, MapField)
    assert np.array_equal(out.values, q.values)


def test_lift_antipodal_map():
    m = 3
    dom = circle_domain(m)
    q = MapField(dom, SPHERE_EMB, np.tile([0.0, 0.0, 1.0], (m, 1)))
    out = lift_left_composition(lambda p: -p, q)
    assert np.array_equal(out.values, np.tile([0.0, 0.0, -1.0], (m, 1)))


def test_lift_tangent_map_through_embedding():
    # lifting (x, v) -> (F(x), dF(x) v) sends chart tangents to ambient ones
    rng = np.random.default_rng(4)
    dom = circle_domain(4)
    q = MapField(dom, SPHERE_CHART, SPHERE_CHART.random_points(rng, 4))
    h = TangentField(q, rng.uniform(-1, 1, (4, 2)))

    def tangent_map(x, v):
        return SPHERE_CHART.embedding(x), SPHERE_CHART.embedding_jacobian(x) @ v

    out = lift_left_composition(tangent_map, h, manifold=SPHERE_EMB)
    assert isinstance(out, TangentField)
    expected = embed_tangent_field(h, SPHERE_EMB)
    np.testing.assert_allclose(out.vecs, expected.vecs, atol=1e-14)


def test_lift_error_carries_sample_index():
    q, _ = sphere_field(5)

    def bad(p):
        if p[2] == q.values[2, 2]:
            raise RuntimeError("boom")
        return p

    with pytest.raises(LiftError) as err:
        lift_left_composition(bad, q)
    assert err.value.sample == 2


# ---------------------------------------------------------------------------
# lifted operators


def test_connector_field_vertical_lifts():
    # chart representation: l + Gamma(0, h) returns k bit for bit
    rng = np.random.default_rng(5)
    dom = circle_domain(6)
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, 6))
    h = TangentField(q, rng.uniform(-1, 1, (6, 2)))
    k = TangentField(q, rng.uniform(-1, 1, (6, 2)))
    out = connector_field(vertical_lift_field(h, k))
    assert np.array_equal(out.vecs, k.vecs)
    # embedded representation re-projects, exact up to roundoff
    qe, he = sphere_field(6, seed=5)
    ke = TangentField(qe, SPHERE_EMB.project(qe.values, rng.uniform(-1, 1, (6, 3))))
    oute = connector_field(vertical_lift_field(he, ke))
    assert np.max(np.abs(oute.vecs - ke.vecs)) < 1e-15


def test_connector_field_flat_returns_dvec():
    q = flat_field([[0.0, 0.0], [1.0, 1.0]])
    rng = np.random.default_rng(7)
    xi = SecondTangentField(q.domain, q.manifold, q.values,
                            rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                            rng.normal(size=(2, 2)))
    out = connector_field(xi)
    assert np.array_equal(out.vecs, xi.dvec)


def test_connector_field_single_sample_reduces_to_point_op():
    rng = np.random.default_rng(8)
    dom = QuadratureDomain(np.array([1.0]))
    x = HALFPLANE.random_points(rng, 1)
    arrays = rng.uniform(-1, 1, size=(3, 1, 2))
    xi = SecondTangentField(dom, HALFPLANE, x, arrays[0], arrays[1], arrays[2])
    out = connector_field(xi)
    HALFPLANE.require_valid(x[0], "connector base point")
    point = HALFPLANE.connector(x[0], arrays[0, 0], arrays[1, 0], arrays[2, 0])
    assert np.array_equal(out.vecs[0], point)


def test_spray_field_matches_point_op_and_zero():
    q, h = sphere_field(4, seed=9)
    xi = spray_field(h)
    assert np.array_equal(xi.dbase, h.vecs)
    point = spray_accel(SPHERE_EMB, q.values[0], h.vecs[0])
    assert np.array_equal(xi.dvec[0], point)
    zero = spray_field(TangentField(q, np.zeros_like(h.vecs)))
    assert np.all(zero.dbase == 0.0) and np.all(zero.dvec == 0.0)


def test_exp_field_flat_translation():
    q = flat_field([[0.25, 0.5], [-1.0, 2.0]])
    h = TangentField(q, np.array([[0.5, -0.25], [1.5, 0.75]]))
    out = exp_field(h, steps=1024)
    assert np.array_equal(out.values, q.values + h.vecs)


def test_exp_field_zero_is_base():
    q, h = sphere_field(5, seed=10)
    out = exp_field(TangentField(q, np.zeros_like(h.vecs)), steps=50)
    assert np.array_equal(out.values, q.values)


def test_exp_field_sphere_matches_great_circles():
    q, h = sphere_field(8, seed=11)
    out = exp_field(h, steps=1000)
    norms = np.linalg.norm(h.vecs, axis=1, keepdims=True)
    closed = np.cos(norms) * q.values + np.sin(norms) * h.vecs / norms
    assert np.max(np.abs(out.values - closed)) < 1e-8


def test_exp_field_single_sample_reduces_to_point_op():
    q, h = sphere_field(1, seed=12)
    out = exp_field(h, steps=200)
    point = integrate_spray(SPHERE_EMB, q.values[0], h.vecs[0], 200)[0]
    assert np.array_equal(out.values[0], point)


def test_exp_field_reports_sample_and_time_on_domain_exit():
    from mapgeom import DomainExitError

    dom = QuadratureDomain(np.array([0.5, 0.5]))
    q = MapField(dom, SPHERE_CHART, np.array([[1.2, 0.0], [0.3, 0.0]]))
    h = TangentField(q, np.array([[0.1, 0.1], [-0.5, 0.0]]))  # sample 1 exits
    with pytest.raises(DomainExitError) as err:
        exp_field(h, steps=1000)
    assert err.value.sample == 1
    assert 0.55 < err.value.time < 0.65


def _tangents_of_speed(man, rng, x, speeds):
    d = man.project(x, rng.normal(size=x.shape))
    return d * (speeds / np.sqrt(man.inner(x, d, d)))[:, None]


SPEEDS = st.lists(st.floats(0.05, 0.7), min_size=2, max_size=2).map(np.array)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), SPEEDS)
def test_exp_field_embedded_sphere_is_great_circle(seed, speeds):
    rng = np.random.default_rng(seed)
    q = MapField(circle_domain(2), SPHERE_EMB, SPHERE_EMB.random_points(rng, 2))
    h = TangentField(q, _tangents_of_speed(SPHERE_EMB, rng, q.values, speeds))
    out = exp_field(h, steps=100)
    s = speeds[:, None]
    closed = np.cos(s) * q.values + np.sin(s) * h.vecs / s
    assert np.max(np.abs(out.values - closed)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), SPEEDS)
def test_exp_field_sphere_chart_and_embedded_agree(seed, speeds):
    rng = np.random.default_rng(seed)
    # within 0.5 of the equator, so no geodesic comes near a pole
    theta = rng.uniform(np.pi / 2 - 0.5, np.pi / 2 + 0.5, 2)
    x = np.stack([theta, rng.uniform(-3.0, 3.0, 2)], axis=-1)
    h = TangentField(MapField(circle_domain(2), SPHERE_CHART, x),
                     _tangents_of_speed(SPHERE_CHART, rng, x, speeds))
    via_chart = embed_map_field(exp_field(h, steps=100), SPHERE_EMB)
    embedded = exp_field(embed_tangent_field(h, SPHERE_EMB), steps=100)
    assert np.max(np.abs(via_chart.values - embedded.values)) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), SPEEDS)
def test_exp_field_paraboloid_stays_on_level_set(seed, speeds):
    rng = np.random.default_rng(seed)
    q = MapField(circle_domain(2), PARABOLOID, PARABOLOID.random_points(rng, 2))
    h = TangentField(q, _tangents_of_speed(PARABOLOID, rng, q.values, speeds))
    p = exp_field(h, steps=100).values
    assert np.max(np.abs(p[:, 0] ** 2 + p[:, 1] ** 2 - p[:, 2])) <= ON_MANIFOLD_TOL


def test_connector_field_axioms_samplewise():
    # linearity in (dbase, dvec) and flip symmetry over a 100-sample field
    rng = np.random.default_rng(100)
    m = 100
    dom = circle_domain(m)
    x = HALFPLANE.random_points(rng, m)
    h, k1, l1, k2, l2 = rng.uniform(-1, 1, (5, m, 2))
    a, b = rng.uniform(-1, 1, (2, m, 1))
    mk = lambda kk, ll: SecondTangentField(dom, HALFPLANE, x, h, kk, ll)
    lhs = connector_field(mk(a * k1 + b * k2, a * l1 + b * l2)).vecs
    rhs = a * connector_field(mk(k1, l1)).vecs + b * connector_field(mk(k2, l2)).vecs
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    flip = connector_field(canonical_flip_field(mk(k1, l1))).vecs
    assert np.max(np.abs(flip - connector_field(mk(k1, l1)).vecs)) < 1e-10


def test_curvature_field_flat_and_antisymmetry():
    q = flat_field([[0.0, 0.0], [1.0, 0.5], [0.3, -0.2]])
    rng = np.random.default_rng(13)
    h, k, l = (TangentField(q, rng.normal(size=(3, 2))) for _ in range(3))
    assert np.all(curvature_field(q, h, k, l).vecs == 0.0)
    assert np.all(curvature_field(q, h, h, l).vecs == 0.0)


def test_curvature_field_sphere_sectional():
    rng = np.random.default_rng(14)
    dom = circle_domain(6)
    q = MapField(dom, SPHERE_CHART, SPHERE_CHART.random_points(rng, 6))
    h = TangentField(q, rng.uniform(-1, 1, (6, 2)))
    k = TangentField(q, rng.uniform(-1, 1, (6, 2)))
    R = curvature_field(q, h, k, k)
    g = SPHERE_CHART.metric(q.values)
    num = np.einsum("sij,si,sj->s", g, R.vecs, h.vecs)
    hh = np.einsum("sij,si,sj->s", g, h.vecs, h.vecs)
    kk = np.einsum("sij,si,sj->s", g, k.vecs, k.vecs)
    hk = np.einsum("sij,si,sj->s", g, h.vecs, k.vecs)
    sec = num / (hh * kk - hk**2)
    assert np.max(np.abs(sec - 1.0)) < 1e-6


def test_curvature_field_embedded_sphere_matches_chart():
    chart, emb = make_manifold("sphere:r=2.0:rep=chart"), make_manifold("sphere:r=2.0:rep=embedded")
    rng = np.random.default_rng(15)
    q = MapField(circle_domain(20), chart, chart.random_points(rng, 20))
    h, k, l = (TangentField(q, rng.uniform(-1, 1, (20, 2))) for _ in range(3))
    via_chart = embed_tangent_field(curvature_field(q, h, k, l), emb)
    qe = embed_map_field(q, emb)
    embedded = curvature_field(qe, *(embed_tangent_field(f, emb) for f in (h, k, l)))
    assert np.max(np.abs(embedded.vecs - via_chart.vecs)) <= 1e-12


def test_curvature_field_single_sample_reduces_to_point_op():
    rng = np.random.default_rng(101)
    dom = QuadratureDomain(np.array([1.0]))
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, 1))
    h, k, l = (TangentField(q, rng.uniform(-1, 1, (1, 2))) for _ in range(3))
    field = curvature_field(q, h, k, l)
    HALFPLANE.require_valid(q.values[0], "curvature base point")
    point = HALFPLANE.curvature(q.values[0], h.vecs[0], k.vecs[0], l.vecs[0])
    assert np.array_equal(field.vecs[0], point)


def test_vertical_structures():
    q, h = sphere_field(5, seed=15)
    rng = np.random.default_rng(16)
    k = TangentField(q, SPHERE_EMB.project(q.values, rng.uniform(-1, 1, (5, 3))))
    xi = vertical_lift_field(h, k)
    assert np.all(xi.dbase == 0.0)
    out = vertical_projection_field(xi)
    assert np.array_equal(out.vecs, k.vecs)
    flipped = canonical_flip_field(xi)
    assert np.array_equal(canonical_flip_field(flipped).vec, xi.vec)
    with pytest.raises(NotVerticalError, match="not vertical"):
        vertical_projection_field(canonical_flip_field(xi))


def test_connector_commutes_with_flip():
    rng = np.random.default_rng(17)
    dom = circle_domain(7)
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, 7))
    xi = SecondTangentField(dom, HALFPLANE, q.values,
                            rng.uniform(-1, 1, (7, 2)), rng.uniform(-1, 1, (7, 2)),
                            rng.uniform(-1, 1, (7, 2)))
    a = connector_field(xi)
    b = connector_field(canonical_flip_field(xi))
    assert np.max(np.abs(a.vecs - b.vecs)) < 1e-10


# ---------------------------------------------------------------------------
# conversion and files


def test_embedding_conversion_round_trip_values():
    rng = np.random.default_rng(18)
    dom = circle_domain(5)
    q = MapField(dom, SPHERE_CHART, SPHERE_CHART.random_points(rng, 5))
    h = TangentField(q, rng.uniform(-1, 1, (5, 2)))
    q_amb = embed_map_field(q, SPHERE_EMB)
    h_amb = embed_tangent_field(h, SPHERE_EMB)
    assert np.max(SPHERE_EMB.residual(q_amb.values)) < 1e-12
    assert np.max(np.abs(SPHERE_EMB.project(q_amb.values, h_amb.vecs) - h_amb.vecs)) < 1e-12


def test_field_json_round_trip(tmp_path):
    q, h = sphere_field(6, seed=19)
    path = tmp_path / "field.json"
    save_field(h, path)
    loaded = load_field(path)
    assert isinstance(loaded, TangentField)
    assert np.array_equal(loaded.vecs, h.vecs)
    assert np.array_equal(loaded.base.values, q.values)
    assert np.array_equal(loaded.domain.weights, q.domain.weights)
    assert loaded.manifold.name == SPHERE_EMB.name


def test_field_json_requires_registry_manifold():
    custom = make_manifold("flat:n=1")
    object.__setattr__(custom, "name", None)
    dom = QuadratureDomain(np.array([1.0]))
    q = MapField(dom, custom, np.array([[0.0]]))
    with pytest.raises(ValueError, match="registry"):
        field_to_json(q)


def test_field_json_malformed_document():
    with pytest.raises(ValueError, match="malformed"):
        field_from_json({"values": [[0.0]]})


def test_field_json_numbers_round_trip_exactly(tmp_path):
    vals = np.array([[1.0 / 3.0, np.pi], [np.e, 2.0 ** -52]])
    q = flat_field(vals)
    doc = json.loads(json.dumps(field_to_json(q)))
    again = field_from_json(doc)
    assert np.array_equal(again.values, vals)
