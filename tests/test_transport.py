import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapgeom import (
    DiscreteMeasure,
    GeometryError,
    MapField,
    MeasureError,
    QuadratureDomain,
    make_manifold,
    pushforward_measure,
    submersion_check,
    wasserstein2_assignment,
    wasserstein2_bruteforce,
)
from mapgeom.transport import _cost_matrix, assignment_cost, load_measure, save_measure

FLAT1 = make_manifold("flat:n=1")
FLAT2 = make_manifold("flat:n=2")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")


def uniform_measure(points):
    points = np.asarray(points, dtype=float)
    n = len(points)
    return DiscreteMeasure(points, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# measures and push-forwards


def test_measure_validation():
    with pytest.raises(MeasureError, match="not normalized"):
        DiscreteMeasure(np.zeros((2, 1)), np.array([0.5, 0.6]))
    with pytest.raises(MeasureError, match="not normalized"):
        DiscreteMeasure(np.zeros((2, 1)), np.array([1.1, -0.1]))


def test_pushforward_uniform():
    dom = QuadratureDomain(np.full(4, 0.25))
    q = MapField(dom, FLAT1, np.array([[0.0], [1.0], [2.0], [3.0]]))
    mu = pushforward_measure(q)
    assert np.array_equal(mu.atoms, q.values)
    assert np.all(mu.masses == 0.25)


def test_pushforward_constant_map_single_atom():
    dom = QuadratureDomain(np.full(5, 0.2))
    q = MapField(dom, FLAT2, np.tile([1.0, -1.0], (5, 1)))
    mu = pushforward_measure(q)
    assert mu.size == 1
    assert mu.masses[0] == 1.0


def test_pushforward_merges_equal_points():
    dom = QuadratureDomain(np.array([0.25, 0.25, 0.5]))
    q = MapField(dom, FLAT1, np.array([[2.0], [2.0], [5.0]]))
    mu = pushforward_measure(q)
    assert mu.size == 2
    assert np.array_equal(mu.atoms, np.array([[2.0], [5.0]]))
    assert np.array_equal(mu.masses, np.array([0.5, 0.5]))


def test_pushforward_requires_normalized_weights():
    dom = QuadratureDomain(np.full(3, 1.0))
    q = MapField(dom, FLAT1, np.array([[0.0], [1.0], [2.0]]))
    with pytest.raises(MeasureError, match="measure not normalized"):
        pushforward_measure(q)


# ---------------------------------------------------------------------------
# brute force


def test_bruteforce_single_atom():
    mu = uniform_measure([[0.0, 0.0]])
    nu = uniform_measure([[3.0, 4.0]])
    a = wasserstein2_bruteforce(mu, nu)
    assert a.cost == 25.0
    assert np.array_equal(a.perm, [0])


def test_bruteforce_identical_measures():
    mu = uniform_measure([[0.0], [1.0], [2.0]])
    a = wasserstein2_bruteforce(mu, mu)
    assert a.cost == 0.0
    assert np.array_equal(a.perm, [0, 1, 2])


def test_bruteforce_two_point_crossing():
    mu = uniform_measure([[0.0], [1.0]])
    nu = uniform_measure([[1.0], [0.0]])
    a = wasserstein2_bruteforce(mu, nu)
    assert a.cost == 0.0
    assert np.array_equal(a.perm, [1, 0])
    # the identity matching costs 1/2 (1 + 1) = 1
    assert assignment_cost(mu, nu, [0, 1]) == 1.0


def test_bruteforce_limit_and_monge_guards():
    mu9 = uniform_measure(np.arange(9, dtype=float)[:, None])
    with pytest.raises(MeasureError, match="use assignment solver"):
        wasserstein2_bruteforce(mu9, mu9)
    mu = DiscreteMeasure(np.zeros((2, 1)), np.array([0.3, 0.7]))
    nu = uniform_measure([[0.0], [1.0]])
    with pytest.raises(MeasureError, match="Monge regime required"):
        wasserstein2_bruteforce(mu, nu)
    with pytest.raises(MeasureError, match="Monge regime required"):
        wasserstein2_bruteforce(uniform_measure([[0.0]]), uniform_measure([[0.0], [1.0]]))


@pytest.mark.parametrize("perm", [[0, 0], [1.7, 0], [0, 1, 1], [5, 0], [True, False], [[1, 0]]])
def test_assignment_cost_rejects_non_permutations(perm):
    mu = uniform_measure([[0.0], [1.0]])
    nu = uniform_measure([[1.0], [0.0]])
    with pytest.raises(ValueError, match="perm"):
        assignment_cost(mu, nu, perm)


def test_assignment_cost_rejects_unequal_atom_counts():
    mu = uniform_measure([[0.0], [1.0]])
    nu = uniform_measure([[0.0], [1.0], [2.0]])
    with pytest.raises(MeasureError, match="Monge regime required: atom counts differ"):
        assignment_cost(mu, nu, [0, 1])
    with pytest.raises(MeasureError, match="Monge regime required: atom counts differ"):
        assignment_cost(nu, mu, [0, 1, 2])


def enumerated_matching(mu, nu, manifold=None):
    """Every permutation in lexicographic order, exactly summed; the first minimum wins."""
    n = mu.size
    C = _cost_matrix(mu, nu, manifold)
    rows = np.arange(n)
    best_perm, best_cost = None, math.inf
    for p in itertools.permutations(range(n)):
        c = math.fsum(((1.0 / n) * C[rows, p]).tolist())
        if c < best_cost:
            best_perm, best_cost = p, c
    return np.asarray(best_perm, dtype=int), best_cost


def random_atoms(kind, rng, n):
    if kind == "normal":
        return rng.normal(size=(n, 2))
    if kind == "lattice":  # points of {0, 1}^2: many exactly tied matchings
        return rng.integers(0, 2, size=(n, 2)).astype(float)
    if kind == "equal":  # one repeated point: every matching is tied
        return np.ones((n, 2))
    # (theta, phi) on the sphere chart, away from the poles and from antipodal pairs
    return np.column_stack([rng.uniform(0.3, np.pi - 0.3, n), rng.uniform(-1.5, 1.5, n)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.sampled_from(["normal", "lattice", "equal", "sphere"]),
       st.integers(min_value=0, max_value=2**31 - 1))
@example(8, "equal", 0)
def test_bruteforce_equals_plain_enumeration(n, kind, seed):
    rng = np.random.default_rng(seed)
    manifold = SPHERE_CHART if kind == "sphere" else None
    mu = uniform_measure(random_atoms(kind, rng, n))
    nu = uniform_measure(random_atoms(kind, rng, n))
    perm, cost = enumerated_matching(mu, nu, manifold)
    brute = wasserstein2_bruteforce(mu, nu, manifold)
    assert brute.perm.dtype == perm.dtype
    assert np.array_equal(brute.perm, perm)
    assert brute.cost == cost


# ---------------------------------------------------------------------------
# assignment solver vs brute force


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31 - 1))
def test_solver_matches_bruteforce_exactly(n, seed):
    rng = np.random.default_rng(seed)
    mu = uniform_measure(rng.normal(size=(n, 2)))
    nu = uniform_measure(rng.normal(size=(n, 2)))
    brute = wasserstein2_bruteforce(mu, nu)
    solved = wasserstein2_assignment(mu, nu)
    assert solved.cost == brute.cost


def test_solver_translation_cost():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(6, 3))
    shift = np.array([0.3, -0.2, 0.5])
    mu = uniform_measure(x)
    nu = uniform_measure(x + shift)
    solved = wasserstein2_assignment(mu, nu)
    assert abs(solved.cost - shift @ shift) < 1e-12
    brute = wasserstein2_bruteforce(mu, nu)
    assert solved.cost == brute.cost


def test_solver_single_atom():
    mu = uniform_measure([[1.0, 1.0]])
    nu = uniform_measure([[2.0, 3.0]])
    assert wasserstein2_assignment(mu, nu).cost == 5.0


def test_w2_metric_properties_on_random_triples():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = uniform_measure(rng.normal(size=(n, 2)))
        b = uniform_measure(rng.normal(size=(n, 2)))
        c = uniform_measure(rng.normal(size=(n, 2)))
        dab = math.sqrt(wasserstein2_bruteforce(a, b).cost)
        dba = math.sqrt(wasserstein2_bruteforce(b, a).cost)
        dac = math.sqrt(wasserstein2_bruteforce(a, c).cost)
        dcb = math.sqrt(wasserstein2_bruteforce(c, b).cost)
        assert abs(dab - dba) < 1e-10
        assert dab <= dac + dcb + 1e-10


def test_geodesic_cost_on_sphere_target():
    sphere = make_manifold("sphere:r=1.0:rep=embedded")
    p = np.array([[0.0, 0.0, 1.0]])
    q = np.array([[1.0, 0.0, 0.0]])
    mu = DiscreteMeasure(p, np.array([1.0]))
    nu = DiscreteMeasure(q, np.array([1.0]))
    a = wasserstein2_bruteforce(mu, nu, manifold=sphere)
    assert abs(a.cost - (np.pi / 2) ** 2) < 1e-12


# ---------------------------------------------------------------------------
# submersion inequality


def uniform_map(values):
    values = np.asarray(values, dtype=float)
    n = len(values)
    dom = QuadratureDomain(np.full(n, 1.0 / n))
    man = make_manifold(f"flat:n={values.shape[1]}")
    return MapField(dom, man, values)


def test_submersion_identity_both_zero():
    base = uniform_map([[0.0], [1.0], [2.0]])
    res = submersion_check(base, base)
    assert res.l2_cost == 0.0 and res.w2_cost == 0.0 and res.equality


def test_submersion_crossing_strictly_suboptimal():
    base = uniform_map([[0.0], [1.0], [2.0], [3.0]])
    crossed = uniform_map([[1.0], [0.0], [3.0], [2.0]])
    res = submersion_check(base, crossed)
    assert res.w2_cost == 0.0
    assert res.l2_cost > res.w2_cost
    assert not res.equality


def test_submersion_optimal_rearrangement_equality():
    # rearranging by the optimal matching makes the induced matching
    # optimal, so both costs coincide
    rng = np.random.default_rng(3)
    base = uniform_map(rng.normal(size=(6, 2)))
    target = rng.normal(size=(6, 2))
    best = wasserstein2_bruteforce(pushforward_measure(base), uniform_measure(target))
    res = submersion_check(base, uniform_map(target[best.perm]))
    assert res.equality
    assert abs(res.l2_cost - res.w2_cost) <= 1e-12


def test_submersion_requires_uniform_weights():
    dom = QuadratureDomain(np.array([0.3, 0.7]))
    base = MapField(dom, FLAT1, np.array([[0.0], [1.0]]))
    with pytest.raises(MeasureError, match="Monge regime required"):
        submersion_check(base, base)


def test_submersion_random_instances_never_violate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        base = uniform_map(rng.normal(size=(n, 2)))
        rearranged = uniform_map(rng.normal(size=(n, 2)))
        res = submersion_check(base, rearranged)
        assert res.l2_cost >= res.w2_cost - 1e-12


# ---------------------------------------------------------------------------
# files


def test_measure_json_round_trip(tmp_path):
    mu = uniform_measure(np.array([[0.1, 0.2], [0.3, 0.4]]))
    f = tmp_path / "mu.json"
    save_measure(mu, f)
    again = load_measure(f)
    assert np.array_equal(again.atoms, mu.atoms)
    assert np.array_equal(again.masses, mu.masses)


def test_measure_json_malformed():
    with pytest.raises(ValueError, match="malformed"):
        from mapgeom.transport import measure_from_json

        measure_from_json({"atoms": [[0.0]]})
