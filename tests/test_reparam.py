import numpy as np
import pytest

from mapgeom import (
    DiscreteDiffeo,
    MapField,
    QuadratureDomain,
    TangentField,
    act,
    check_equivariance,
    check_metric_invariance,
    circle_domain,
    geodesic_distance,
    identity_diffeo,
    l2_inner,
    make_manifold,
    random_diffeo,
    spray_field,
)
from mapgeom.reparam import load_permutation, save_permutation

FLAT2 = make_manifold("flat:n=2")
HALFPLANE = make_manifold("halfplane")
SPHERE_EMB = make_manifold("sphere:r=1.0:rep=embedded")


def sphere_pair(m, seed=0, weights=None):
    rng = np.random.default_rng(seed)
    dom = QuadratureDomain(weights) if weights is not None else circle_domain(m)
    vals = SPHERE_EMB.random_points(rng, m)
    q = MapField(dom, SPHERE_EMB, vals)
    h = TangentField(q, SPHERE_EMB.project(vals, rng.uniform(-1, 1, (m, 3))))
    return q, h


def test_diffeo_validation():
    with pytest.raises(ValueError):
        DiscreteDiffeo(np.array([0, 0, 1]))
    phi = DiscreteDiffeo(np.array([2, 0, 1]))
    assert phi.size == 3
    assert np.array_equal(phi.inverse().perm, np.argsort(phi.perm))


def test_identity_action_unchanged():
    q, h = sphere_pair(6, seed=1)
    ident = identity_diffeo(6)
    assert np.array_equal(act(ident, q).values, q.values)
    assert np.array_equal(act(ident, h).vecs, h.vecs)


def test_swap_exchanges_values():
    dom = QuadratureDomain(np.array([0.5, 0.5]))
    q = MapField(dom, FLAT2, np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = act(DiscreteDiffeo(np.array([1, 0])), q)
    assert np.array_equal(out.values, np.array([[3.0, 4.0], [1.0, 2.0]]))


def test_right_action_composition_law():
    rng = np.random.default_rng(2)
    q, h = sphere_pair(9, seed=3)
    phi = random_diffeo(9, rng)
    psi = random_diffeo(9, rng)
    # acting by phi then psi equals acting by the composition phi . psi
    combined = act(phi.compose(psi), q)
    stepwise = act(psi, act(phi, q))
    assert np.array_equal(combined.values, stepwise.values)


def test_action_preserves_base_compatibility():
    q, h = sphere_pair(7, seed=4)
    phi = random_diffeo(7, np.random.default_rng(5))
    acted = act(phi, h)
    assert np.array_equal(acted.base.values, act(phi, q).values)
    # the acted field lives on the same quadrature domain
    assert acted.domain is q.domain


def test_metric_invariance_two_sample_counterexample():
    # w = (1/4, 3/4), swap, per-sample squared norms (1, 0): the metric
    # changes from 1/4 to 3/4, two-term arithmetic, exactly
    dom = QuadratureDomain(np.array([0.25, 0.75]))
    q = MapField(dom, FLAT2, np.zeros((2, 2)))
    h = TangentField(q, np.array([[1.0, 0.0], [0.0, 0.0]]))
    phi = DiscreteDiffeo(np.array([1, 0])).bind(dom)
    res = check_metric_invariance(phi, q, h, h)
    assert res.lhs == 0.75
    assert res.rhs == 0.25
    assert not res.measure_preserving


def test_metric_invariance_identity_exact():
    q, h = sphere_pair(5, seed=6)
    res = check_metric_invariance(identity_diffeo(5), q, h, h)
    assert res.lhs == res.rhs
    assert res.measure_preserving


def test_metric_invariance_uniform_weights_any_permutation():
    rng = np.random.default_rng(7)
    for seed in range(20):
        q, h = sphere_pair(8, seed=seed)
        phi = random_diffeo(8, rng)
        res = check_metric_invariance(phi, q, h, h)
        assert res.measure_preserving
        assert abs(res.lhs - res.rhs) <= 1e-12


def test_metric_invariance_block_weights():
    # repeated weight blocks: permutations inside blocks preserve the measure
    weights = np.array([0.1, 0.1, 0.3, 0.3, 0.1, 0.1])
    q, h = sphere_pair(6, seed=8, weights=weights)
    phi = DiscreteDiffeo(np.array([1, 0, 3, 2, 5, 4])).bind(q.domain)
    res = check_metric_invariance(phi, q, h, h)
    assert res.measure_preserving
    assert res.lhs == res.rhs
    psi = DiscreteDiffeo(np.array([2, 1, 0, 3, 4, 5])).bind(q.domain)
    res2 = check_metric_invariance(psi, q, h, h)
    assert not res2.measure_preserving


def test_equivariance_bitwise_for_all_operators():
    rng = np.random.default_rng(9)
    q, h = sphere_pair(8, seed=10)
    # non-measure-preserving weights: equivariance must still be bitwise
    dom = QuadratureDomain(rng.uniform(0.05, 1.0, size=8))
    q = MapField(dom, SPHERE_EMB, q.values)
    h = TangentField(q, h.vecs)
    phi = random_diffeo(8, rng).bind(dom)
    assert not phi.is_measure_preserving(dom)
    assert check_equivariance(phi, "connector", xi=spray_field(h)).passed
    assert check_equivariance(phi, "spray", h=h).passed
    assert check_equivariance(phi, "exp", h=h, steps=50).passed
    rngc = np.random.default_rng(11)
    domc = circle_domain(6)
    qc = MapField(domc, HALFPLANE, HALFPLANE.random_points(rngc, 6))
    hc, kc, lc = (TangentField(qc, rngc.uniform(-1, 1, (6, 2))) for _ in range(3))
    phic = random_diffeo(6, rngc)
    assert check_equivariance(phic, "curvature", q=qc, h=hc, k=kc, l=lc).passed


@pytest.mark.parametrize("name", ["sphere:r=1.0:rep=embedded", "paraboloid"])
def test_curvature_equivariance_bitwise_on_embedded_targets(name):
    man = make_manifold(name)
    rng = np.random.default_rng(12)
    q = MapField(circle_domain(9), man, man.random_points(rng, 9))
    h, k, l = (TangentField(q, man.project(q.values, rng.uniform(-1, 1, (9, 3))))
               for _ in range(3))
    rep = check_equivariance(random_diffeo(9, rng), "curvature", q=q, h=h, k=k, l=l)
    assert rep.passed and rep.max_abs_error == 0.0


def test_equivariance_with_identity_permutation_trivial():
    rng = np.random.default_rng(30)
    dom = circle_domain(4)
    q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, 4))
    h, k, l = (TangentField(q, rng.uniform(-1, 1, (4, 2))) for _ in range(3))
    rep = check_equivariance(identity_diffeo(4), "curvature", q=q, h=h, k=k, l=l)
    assert rep.passed and rep.max_abs_error == 0.0


def test_equivariance_unknown_operator():
    q, h = sphere_pair(3, seed=12)
    with pytest.raises(ValueError, match="unknown operator"):
        check_equivariance(identity_diffeo(3), "log", h=h)


@pytest.mark.parametrize("op_name, extra", [
    ("spray", "xi"),
    ("spray", "q"),
    ("spray", "steps"),
    ("connector", "steps"),
    ("curvature", "steps"),
])
def test_equivariance_rejects_inputs_the_operator_does_not_take(op_name, extra):
    rng = np.random.default_rng(31)
    q = MapField(circle_domain(4), HALFPLANE, HALFPLANE.random_points(rng, 4))
    h, k, l = (TangentField(q, rng.uniform(-1, 1, (4, 2))) for _ in range(3))
    inputs = {"connector": dict(xi=spray_field(h)), "spray": dict(h=h),
              "curvature": dict(q=q, h=h, k=k, l=l)}[op_name]
    inputs[extra] = {"xi": spray_field(h), "q": q, "steps": 7}[extra]
    with pytest.raises(ValueError, match=f"{op_name} equivariance does not take {extra}"):
        check_equivariance(identity_diffeo(4), op_name, **inputs)


def test_distance_invariant_under_measure_preserving_action():
    rng = np.random.default_rng(13)
    m = 6
    dom = circle_domain(m)
    vals0 = SPHERE_EMB.random_points(rng, m)
    vals1 = SPHERE_EMB.random_points(rng, m)
    q0 = MapField(dom, SPHERE_EMB, vals0)
    q1 = MapField(dom, SPHERE_EMB, vals1)
    phi = random_diffeo(m, rng)
    d = geodesic_distance(q0, q1)
    d_acted = geodesic_distance(act(phi, q0), act(phi, q1))
    assert abs(d - d_acted) <= 1e-12


def test_second_tangent_action_matches_componentwise():
    q, h = sphere_pair(5, seed=14)
    xi = spray_field(h)
    phi = random_diffeo(5, np.random.default_rng(15))
    acted = act(phi, xi)
    assert np.array_equal(acted.base, xi.base[phi.perm])
    assert np.array_equal(acted.dvec, xi.dvec[phi.perm])


def test_permutation_json_round_trip(tmp_path):
    phi = DiscreteDiffeo(np.array([3, 1, 0, 2]))
    f = tmp_path / "perm.json"
    save_permutation(phi, f)
    again = load_permutation(f)
    assert np.array_equal(again.perm, phi.perm)


def test_size_mismatch_rejected():
    q, h = sphere_pair(4, seed=16)
    with pytest.raises(Exception, match="mismatch"):
        act(identity_diffeo(5), q)
