import itertools
import math
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapgeom import (
    ChartBoundaryError,
    DiscreteMeasure,
    FieldMismatchError,
    GeometryError,
    MapField,
    MeasureError,
    QuadratureDomain,
    integrate_geodesic,
    log_field,
    make_manifold,
    pushforward_measure,
    submersion_check,
    wasserstein2_assignment,
    wasserstein2_bruteforce,
)
from mapgeom import transport
from mapgeom.dynamics import LOG_TOL
from mapgeom.manifold import LADDER_CAP
from mapgeom.transport import (
    BRUTE_LIMIT,
    _certify,
    _cost_matrix,
    _solve_assignment,
    load_measure,
    save_measure,
)

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


def test_pushforward_merges_signed_zeros():
    # 0.0 and -0.0 are one point; the atom keeps the first sample's bits
    dom = QuadratureDomain(np.full(4, 0.25))
    q = MapField(dom, FLAT1, np.array([[0.0], [-0.0], [1.0], [0.0]]))
    mu = pushforward_measure(q)
    assert mu.atoms.tobytes() == np.array([[0.0], [1.0]]).tobytes()
    assert np.array_equal(mu.masses, [0.75, 0.25])


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
    assert exact_cost(mu, nu, [0, 1]) == 1.0


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


@pytest.mark.parametrize("solve", [wasserstein2_bruteforce, wasserstein2_assignment])
def test_solvers_reject_unequal_atom_counts(solve):
    mu = uniform_measure([[0.0], [1.0]])
    nu = uniform_measure([[0.0], [1.0], [2.0]])
    for a, b in ((mu, nu), (nu, mu)):
        with pytest.raises(MeasureError, match="Monge regime required: atom counts differ"):
            solve(a, b)


def exact_cost(mu, nu, perm):
    """The cost of matching atom i of mu to atom perm[i] of nu: its terms, exactly summed."""
    n = mu.size
    return math.fsum(((1.0 / n) * _cost_matrix(mu, nu, None)[np.arange(n), perm]).tolist())


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


def test_bruteforce_all_atoms_equal_is_the_identity():
    # all 8! matchings tie at cost 0, and they share one multiset of terms
    mu = uniform_measure(np.full((8, 2), 0.3))
    a = wasserstein2_bruteforce(mu, mu)
    assert a.cost == 0.0
    assert np.array_equal(a.perm, np.arange(8))


def test_bruteforce_tied_lattice_equals_plain_enumeration():
    # each point of the {0,1}^2 lattice twice, against a shuffled copy shifted
    # by one point: many tied optima, with terms shared across distinct costs
    square = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    mu = uniform_measure(np.concatenate([square, square]))
    nu = uniform_measure(np.concatenate([square, square])[[5, 2, 7, 0, 3, 6, 1, 4]] + [[0.0, 1.0]] * 8)
    perm, cost = enumerated_matching(mu, nu)
    brute = wasserstein2_bruteforce(mu, nu)
    assert np.array_equal(brute.perm, perm) and not np.array_equal(perm, np.arange(8))
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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euclidean_cost_adds_squares_in_coordinate_order(d):
    rng = np.random.default_rng(d)
    a, b = rng.normal(size=(2, 8, d))
    ref = np.zeros((8, 8))
    for k in range(d):
        ref = ref + (a[:, None, k] - b[None, :, k]) ** 2
    mu, nu = uniform_measure(a), uniform_measure(b)
    assert np.array_equal(_cost_matrix(mu, nu, None), ref)
    # both solvers read this one matrix
    assert wasserstein2_assignment(mu, nu).cost == wasserstein2_bruteforce(mu, nu).cost


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


# n = 8 and n = 4 make every term m_i C[i, j] of an integer cost exact, so
# tied matchings sum to the same double (at n = 5 or 7 they may not)
@pytest.mark.parametrize("a, b", [
    (np.full((8, 2), 0.7), np.full((8, 2), 0.7)),  # all 8 atoms at one point
    (np.full((8, 2), 0.7), np.full((8, 2), -1.3)),
    (np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]),  # the {0,1}^2 lattice
     np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])),
    (np.array([[0.0], [1.0], [1.0], [3.0], [3.0], [4.0], [6.0], [6.0]]),  # integer costs
     np.array([[1.0], [2.0], [2.0], [2.0], [5.0], [5.0], [6.0], [7.0]])),
    (np.array([[0, 0], [1, 2], [2, 1], [3, 3], [0, 2], [2, 0], [1, 1], [3, 0]], dtype=float),
     np.array([[1, 1], [0, 3], [3, 1], [2, 2], [1, 0], [0, 1], [2, 3], [3, 2]], dtype=float)),
], ids=["one-point", "two-points", "lattice", "integer-1d", "integer-2d"])
def test_solver_equals_bruteforce_on_tied_inputs(a, b):
    mu, nu = uniform_measure(a), uniform_measure(b)
    solved = wasserstein2_assignment(mu, nu)
    assert solved.cost == wasserstein2_bruteforce(mu, nu).cost
    assert solved.cost == exact_cost(mu, nu, solved.perm)


@pytest.mark.parametrize("n", [50, 300])
def test_solver_agrees_with_scipy(n):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(n)
    mu = uniform_measure(rng.normal(size=(n, 2)))
    nu = uniform_measure(rng.normal(size=(n, 2)))
    terms = (1.0 / n) * _cost_matrix(mu, nu, None)
    _, cols = scipy_optimize.linear_sum_assignment(terms)
    reference = math.fsum(terms[np.arange(n), cols].tolist())
    solved = wasserstein2_assignment(mu, nu)
    assert abs(solved.cost - reference) <= 1e-12 * reference
    perm, u, v = _solve_assignment(terms)
    assert np.array_equal(perm, solved.perm)
    slack = terms - u[:, None] - v
    assert slack.min() >= -1e-12 * terms.max()
    assert np.abs(slack[np.arange(n), perm]).max() <= 1e-12 * terms.max()


def test_corrupted_certificate_is_rejected():
    rng = np.random.default_rng(5)
    n = 20
    terms = (1.0 / n) * _cost_matrix(uniform_measure(rng.normal(size=(n, 2))),
                                     uniform_measure(rng.normal(size=(n, 2))), None)
    perm, u, v = _solve_assignment(terms)
    _certify(terms, perm, u, v)
    swapped = perm.copy()
    swapped[[3, 11]] = swapped[[11, 3]]
    with pytest.raises(GeometryError, match="not certified optimal: smallest reduced cost"):
        _certify(terms, swapped, u, v)
    raised = u.copy()
    raised[7] += 1e-6
    with pytest.raises(GeometryError, match="not certified optimal") as info:
        _certify(terms, perm, raised, v)
    worst = float(str(info.value).split("smallest reduced cost ")[1].split(",")[0])
    assert abs(worst + 1e-6) < 1e-12  # the raised row's matched slack is named


class _Stalled(Exception):
    pass


def _within_seconds(seconds, f, *args):
    """Call f(*args), raising _Stalled if it has not returned after ``seconds``."""
    def stalled(signum, frame):
        raise _Stalled(f"no result after {seconds} s")
    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(seconds)
    try:
        return f(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_overflowing_costs_raise_naming_the_atoms():
    far, near = uniform_measure([[1e200], [-1e200]]), uniform_measure([[0.0], [1.0]])
    for solve in (wasserstein2_assignment, wasserstein2_bruteforce):
        for mu, nu in ((far, near), (near, far), (far, far)):
            with pytest.raises(ValueError, match="atoms of mu and nu are too far apart"):
                _within_seconds(10, solve, mu, nu)


def test_nan_cost_neither_stalls_nor_certifies():
    terms = np.array([[np.nan, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, np.nan]])
    perm, u, v = _within_seconds(10, _solve_assignment, terms)
    with pytest.raises(GeometryError, match="not certified optimal"):
        _certify(terms, perm, u, v)


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


def test_submersion_equality_is_relative_to_the_scale_of_the_costs():
    # reversing the corners of a square of side 1e-7 costs 2e-14 where the
    # optimum is 0: no equality, as at side 1
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    for side in (1e-7, 1.0):
        res = submersion_check(uniform_map(side * square), uniform_map(side * square[::-1]))
        assert res.w2_cost == 0.0 and res.l2_cost == pytest.approx(2.0 * side**2)
        assert not res.equality
    # the identity of a cloud at scale 1e6 is optimal
    base = uniform_map(1e6 * np.random.default_rng(5).normal(size=(6, 2)))
    assert submersion_check(base, base).equality


def test_submersion_requires_uniform_weights():
    dom = QuadratureDomain(np.array([0.3, 0.7]))
    base = MapField(dom, FLAT1, np.array([[0.0], [1.0]]))
    with pytest.raises(MeasureError, match="Monge regime required"):
        submersion_check(base, base)


def test_submersion_requires_normalized_weights():
    base = MapField(QuadratureDomain(np.full(2, 1.0)), FLAT1, np.array([[0.0], [1.0]]))
    with pytest.raises(MeasureError, match="measure not normalized: masses must sum to 1"):
        submersion_check(base, base)


@pytest.mark.parametrize("rearranged, problem", [
    (MapField(QuadratureDomain(np.full(4, 0.25)), FLAT2, np.zeros((4, 2))),
     "different target manifolds"),
    (MapField(QuadratureDomain(np.array([0.1, 0.2, 0.3, 0.4])), make_manifold("halfplane"),
              np.ones((4, 2))), "different quadrature domains"),
    (MapField(QuadratureDomain(np.full(2, 0.5)), make_manifold("halfplane"), np.ones((2, 2))),
     "different quadrature domains"),
], ids=["other-target", "other-weights", "other-size"])
def test_submersion_rejects_a_map_on_another_space(rearranged, problem):
    # the rearranged map's own target and weights are read, not the base's
    base = MapField(QuadratureDomain(np.full(4, 0.25)), make_manifold("halfplane"),
                    np.array([[0.0, 1.0], [0.5, 1.0], [0.0, 2.0], [0.5, 2.0]]))
    with pytest.raises(FieldMismatchError, match=problem):
        submersion_check(base, rearranged)


HALFPLANE_BASE = [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0], [0.5, 2.0]]


def _halfplane_pair():
    man = make_manifold("halfplane")
    dom = QuadratureDomain(np.full(4, 0.25))
    values = np.array(HALFPLANE_BASE)
    return MapField(dom, man, values), MapField(dom, man, values[::-1].copy())


def test_submersion_cost_is_coordinate_unless_a_target_is_given():
    base, reversed_ = _halfplane_pair()
    assert submersion_check(base, reversed_).l2_cost == 1.25
    # the fields' own target, as the same object or by registry name
    for man in (base.manifold, make_manifold("halfplane")):
        res = submersion_check(base, reversed_, manifold=man)
        assert abs(res.l2_cost - 0.595) < 1e-3 and res.w2_cost <= res.l2_cost


@pytest.mark.parametrize("spec", ["sphere:r=1.0:rep=chart", "flat:n=2"])
def test_submersion_rejects_a_cost_manifold_that_is_not_the_fields_target(spec):
    base, reversed_ = _halfplane_pair()
    with pytest.raises(FieldMismatchError, match="not the fields' target"):
        submersion_check(base, reversed_, manifold=make_manifold(spec))


@pytest.mark.parametrize("solve", [wasserstein2_bruteforce, wasserstein2_assignment])
def test_geodesic_cost_rejects_atoms_off_the_target(solve):
    # theta = 0 lies on the chart's pole, where its log map is singular
    mu = uniform_measure(HALFPLANE_BASE)
    with pytest.raises(ChartBoundaryError, match="the atoms of mu"):
        solve(mu, mu, manifold=SPHERE_CHART)


def test_submersion_uses_the_certified_solver_at_every_size(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("submersion_check called the brute force")

    monkeypatch.setattr(transport, "wasserstein2_bruteforce", refuse)
    rng = np.random.default_rng(5)
    for n in range(1, BRUTE_LIMIT + 1):
        base = uniform_map(rng.normal(size=(n, 2)))
        moved = uniform_map(rng.normal(size=(n, 2)))
        res = submersion_check(base, moved)
        best = wasserstein2_assignment(pushforward_measure(base), pushforward_measure(moved))
        assert np.array_equal(res.assignment.perm, best.perm) and res.w2_cost == best.cost


def test_submersion_random_instances_never_violate():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        base = uniform_map(rng.normal(size=(n, 2)))
        rearranged = uniform_map(rng.normal(size=(n, 2)))
        res = submersion_check(base, rearranged)
        assert res.l2_cost >= res.w2_cost - 1e-12


# ---------------------------------------------------------------------------
# Otto's submersion: the push-forward q -> q_* mu takes L2 geodesics of maps
# to W2 geodesics of measures (Otto, Comm. PDE 26, 2001); discretely, the
# atoms of an L2 geodesic move along McCann's displacement interpolation
# (McCann, Adv. Math. 128, 1997; Villani, Optimal Transport, ch. 7).

OTTO_RADIUS = 0.4  # every atom lies within this geodesic distance of one point
OTTO_DIAMETER = 2 * OTTO_RADIUS
# A max-abs coordinate error e is at most ETA / LOG_TOL * e of geodesic
# distance on all four targets: sqrt(3) turns max-abs into Euclidean length
# in up to 3 coordinates, and a coordinate segment of Euclidean length e is
# at most (pi/2) e long: e on the plane and on the sphere chart, where
# g = diag(1, sin^2 theta) <= I; below e / 0.67 in the half-plane, where
# g = I / y^2 and the ball keeps y >= y0 exp(-0.4) >= 0.67 for y0 >= 1; and
# an ambient chord e of the unit sphere spans an arc of at most (pi/2) e.
ETA = math.sqrt(3) * (math.pi / 2) * LOG_TOL
# The log is shot until its RK4 endpoint is within LOG_TOL of q1, at a step
# count N whose RK4 error step doubling bounds by LOG_TOL, so the exact
# geodesic of the returned velocity ends within 2 LOG_TOL of q1: DELTA.
DELTA = 2 * ETA
# integrate_geodesic runs 4 x 128 = 512 steps, at least N / 2 for any N up
# to LADDER_CAP, where the estimate already bounds RK4's error by LOG_TOL;
# the error accumulates along the path, so every snapshot is within EPS.
OTTO_STEPS_PER_SNAPSHOT = 128
assert 4 * OTTO_STEPS_PER_SNAPSHOT >= LADDER_CAP // 2
EPS = ETA
# The certified solver may answer up to 2 n tol above the optimum, with tol
# 1e-12 times the largest term, which is below 1 / n here.
CERT = 2e-12


def _points_in_a_ball(spec, rng, k):
    """k points within geodesic distance OTTO_RADIUS of one random point of the target."""
    r, angle = np.sqrt(rng.uniform(size=k)), rng.uniform(0.0, 2 * np.pi, size=k)
    disc = np.column_stack([r * np.cos(angle), r * np.sin(angle)])  # the unit disc
    if spec == "flat:n=2":
        return rng.uniform(-1.0, 1.0, 2) + OTTO_RADIUS * disc
    if spec == "halfplane":
        # a coordinate offset rho from height y0 is at most rho / (y0 - rho) long
        center = np.array([rng.uniform(-1.0, 1.0), rng.uniform(1.0, 2.0)])
        return center + disc * (OTTO_RADIUS * center[1] / (1.0 + OTTO_RADIUS))
    # g = diag(1, sin^2 theta) <= I, so an offset of 0.4 in (theta, phi) is at
    # most 0.4 long; theta0 in [1, pi - 1] and |phi0| <= 1 keep the ball away
    # from the poles and from phi = +-pi, where the chart's phi is cut
    theta, phi = (np.array([rng.uniform(1.0, np.pi - 1.0), rng.uniform(-1.0, 1.0)])
                  + OTTO_RADIUS * disc).T
    if spec.endswith("chart"):
        return np.column_stack([theta, phi])
    return np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


@pytest.mark.parametrize("spec", ["flat:n=2", "halfplane", "sphere:r=1.0:rep=embedded",
                                  "sphere:r=1.0:rep=chart"])
def test_otto_submersion_takes_l2_geodesics_to_w2_geodesics(spec):
    # The theorem's precondition: pointwise geodesics are unique and
    # minimising.  They are in a geodesic ball of radius 0.4: the plane and
    # the half-plane have unique geodesics everywhere, and on the unit sphere
    # a ball of radius below pi / 2 is strongly convex, so each geodesic
    # between two of its points, and so each snapshot, stays inside it.
    man, n = make_manifold(spec), 6
    dom = QuadratureDomain(np.full(n, 1.0 / n))
    for seed in range(3):
        _check_otto_submersion(man, dom, _points_in_a_ball(spec, np.random.default_rng(seed), 2 * n))


def _check_otto_submersion(man, dom, points):
    """The identities of Otto's submersion on one base map and one target cloud."""
    n = dom.size
    x, y = np.split(points, 2)
    q0 = MapField(dom, man, x)
    mu0 = pushforward_measure(q0)
    best = wasserstein2_bruteforce(mu0, pushforward_measure(MapField(dom, man, y)), manifold=man)
    q1 = MapField(dom, man, y[best.perm])  # q1 = y o sigma*, the optimal rearrangement
    w2 = best.cost  # W2(mu0, mu1), squared

    path, report = integrate_geodesic(q0, log_field(q0, q1), snapshots=5,
                                      steps_per_snapshot=OTTO_STEPS_PER_SNAPSHOT)
    # d_L2(q0, q1)^2 = W2(mu0, mu1), where d_L2(q0, q1)^2 = G(h, h) is twice
    # the path's energy at t = 0.  The exact geodesic of h ends within DELTA
    # of q1, so each pointwise length is within DELTA of the distance it
    # stands for, which is at most OTTO_DIAMETER.
    assert abs(2.0 * report.energy_series[0] - w2) <= DELTA * (2 * OTTO_DIAMETER + DELTA)

    measures = [pushforward_measure(q) for q in path.maps]
    assert all(m.size == n for m in measures)
    for (s, qs, ms), (t, qt, mt) in itertools.combinations(zip(path.times, path.maps, measures), 2):
        # W2(mu_s, mu_t) = (t - s)^2 W2(mu0, mu1).  With a the length of the
        # exact path, the coupling along it gives W2 <= (t - s) a, the
        # triangle inequality through mu0, mu_s, mu_t, mu1 loses at most
        # 2 DELTA, |a - sqrt(W2(mu0, mu1))| <= DELTA, and the two snapshots
        # move each root by at most EPS: the roots differ by <= 3 DELTA + 2 EPS,
        # and their sum is at most 2 OTTO_DIAMETER.
        w2_st = wasserstein2_assignment(ms, mt, manifold=man).cost
        assert abs(w2_st - (t - s) ** 2 * w2) <= (3 * DELTA + 2 * EPS) * 2 * OTTO_DIAMETER + CERT
        # the identity coupling attains it: the paths never need to cross.
        # For A = (t - s) a <= OTTO_DIAMETER + DELTA its cost is at most
        # (A + 2 EPS)^2 and W2(mu_s, mu_t) at least (A - 2 DELTA - 2 EPS)^2,
        # and (A + p)^2 - (A - q)^2 = (p + q)(2 A + p - q).
        res = submersion_check(qs, qt, manifold=man)
        assert res.l2_cost - res.w2_cost <= (2 * DELTA + 4 * EPS) * 2 * OTTO_DIAMETER

    # a non-optimal rearrangement costs at least W2: both sides are exact
    # sums of the same terms, and the brute force took the least of them
    shifted = MapField(dom, man, q1.values[np.roll(np.arange(n), 1)])
    assert submersion_check(q0, shifted, manifold=man).l2_cost >= w2


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
