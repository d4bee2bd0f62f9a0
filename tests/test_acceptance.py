"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; runtime budgets are asserted with
wall-clock measurements of the computation itself.
"""

import math
import time

import numpy as np

from mapgeom import (
    DiscreteDiffeo,
    DiscreteMeasure,
    MapField,
    QuadratureDomain,
    TangentField,
    check_equivariance,
    check_metric_invariance,
    circle_domain,
    covariant_derivative_along_path,
    exp_field,
    geodesic_distance,
    integrate_geodesic,
    l2_inner,
    make_manifold,
    oracle_curvature_commutator,
    oracle_first_variation,
    pushforward_measure,
    run_axiom_sweep,
    sectional_curvature,
    spray_field,
    submersion_check,
    wasserstein2_assignment,
    wasserstein2_bruteforce,
)
from mapgeom.manifold import integrate_spray
from mapgeom.reparam import random_diffeo

SPHERE_EMB = make_manifold("sphere:r=1.0:rep=embedded")
SPHERE_CHART = make_manifold("sphere:r=1.0:rep=chart")
HALFPLANE = make_manifold("halfplane")
FLAT2 = make_manifold("flat:n=2")

REGISTRY = [
    "flat:n=2",
    "flat:n=3:rep=embedded",
    "sphere:r=1.0:rep=chart",
    "sphere:r=1.0:rep=embedded",
    "halfplane",
    "paraboloid",
]


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} ({detail}; {elapsed:.2f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} {name}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded runtime budget: {elapsed:.2f}s"


def sphere_field(m, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    dom = circle_domain(m)
    vals = SPHERE_EMB.random_points(rng, m)
    q = MapField(dom, SPHERE_EMB, vals)
    h = TangentField(q, scale * SPHERE_EMB.project(vals, rng.uniform(-1, 1, (m, 3))))
    return q, h


def test_criterion_01_pointwise_geodesy():
    t0 = time.perf_counter()
    q0, h0 = sphere_field(16, seed=101)
    path, rep = integrate_geodesic(q0, h0, snapshots=1001, steps_per_snapshot=1)
    elapsed = time.perf_counter() - t0
    worst = rep.max_pointwise_geodesic_residual
    report(1, "pointwise geodesy", worst < 1e-5,
           f"max finite-difference geodesic residual {worst:.3e} < 1e-5 "
           f"(16 samples, 1000 RK4 steps)", elapsed, 1.0)


def test_criterion_02_exponential_closed_form():
    t0 = time.perf_counter()
    pole = np.array([0.0, 0.0, 1.0])
    h = (np.pi / 2) * np.array([np.cos(0.3), np.sin(0.3), 0.0])
    end = integrate_spray(SPHERE_EMB, pole, h, 1000)[0]
    closed = np.cos(np.pi / 2) * pole + np.sin(np.pi / 2) * h / (np.pi / 2)
    err = float(np.max(np.abs(end - closed)))
    equator = abs(float(end[2]))
    x = np.array([0.25, -1.5])
    v = np.array([0.5, 0.75])
    flat_end = integrate_spray(FLAT2, x, v, 1024)[0]
    flat_exact = bool(np.array_equal(flat_end, x + v))
    elapsed = time.perf_counter() - t0
    report(2, "exponential map closed form",
           err < 1e-8 and equator < 1e-8 and flat_exact,
           f"sphere endpoint error {err:.3e} < 1e-8, |z| on equator {equator:.3e}, "
           f"flat exp exact={flat_exact}", elapsed, 1.0)


def test_criterion_03_levi_civita_identification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        m = 8
        dom = QuadratureDomain(rng.uniform(0.05, 1.0, size=m))
        q = MapField(dom, HALFPLANE, HALFPLANE.random_points(rng, m))
        h, k, w = (TangentField(q, rng.uniform(-1, 1, (m, 2))) for _ in range(3))
        lhs, rhs = oracle_first_variation(q, h, k, w)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    report(3, "Levi-Civita identification", worst < 1e-4,
           f"max |first variation - pointwise Christoffel quadrature| {worst:.3e} < 1e-4 "
           f"(50 hyperbolic instances, m=8)", elapsed, 5.0)


def test_criterion_04_connector_axiom_sweep():
    t0 = time.perf_counter()
    worst = 0.0
    all_pass = True
    for name in REGISTRY:
        for rep in run_axiom_sweep(make_manifold(name), instances=100, seed=104):
            worst = max(worst, rep.max_abs_error)
            all_pass = all_pass and rep.passed
    elapsed = time.perf_counter() - t0
    report(4, "connector axiom sweep", all_pass and worst <= 1e-10,
           f"four axioms on {len(REGISTRY)} registry manifolds, 100 instances each, "
           f"max error {worst:.3e} <= 1e-10", elapsed, 1.0)


def test_criterion_05_curvature_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_cross = 0.0
    for man in (SPHERE_CHART, HALFPLANE):
        for _ in range(50):
            x = man.random_points(rng, 1)[0]
            h, k, l = rng.uniform(-1, 1, (3, 2))
            com = oracle_curvature_commutator(man, x, h, k, l)
            ref = man.curvature(x, h, k, l)
            worst_cross = max(worst_cross, float(np.max(np.abs(com - ref))))
    worst_sec = 0.0
    for radius in (1.0, 1.7):
        man = make_manifold(f"sphere:r={radius}:rep=chart")
        x = man.random_points(rng, 8)
        h = rng.uniform(-1, 1, (8, 2))
        k = rng.uniform(-1, 1, (8, 2))
        sec = sectional_curvature(man, x, h, k)
        worst_sec = max(worst_sec, float(np.max(np.abs(sec - 1.0 / radius**2))))
    x = HALFPLANE.random_points(rng, 8)
    h = rng.uniform(-1, 1, (8, 2))
    k = rng.uniform(-1, 1, (8, 2))
    sec = sectional_curvature(HALFPLANE, x, h, k)
    worst_sec = max(worst_sec, float(np.max(np.abs(sec + 1.0))))
    elapsed = time.perf_counter() - t0
    report(5, "curvature cross-validation",
           worst_cross < 1e-3 and worst_sec < 1e-6,
           f"commutator vs formula {worst_cross:.3e} < 1e-3 (50 sphere + 50 hyperbolic), "
           f"sectional curvature error {worst_sec:.3e} < 1e-6", elapsed, 5.0)


def test_criterion_06_chart_embedded_consistency():
    t0 = time.perf_counter()
    x0 = np.array([np.pi / 2, 0.2])
    hc = np.array([0.3, -0.4])
    xs, _ = integrate_spray(SPHERE_CHART, x0, hc, 1000, record_every=50)
    p0 = SPHERE_CHART.embedding(x0)
    v0 = SPHERE_CHART.embedding_jacobian(x0) @ hc
    ps, _ = integrate_spray(SPHERE_EMB, p0, v0, 1000, record_every=50)
    worst = float(np.max(np.abs(SPHERE_CHART.embedding(xs) - ps)))
    elapsed = time.perf_counter() - t0
    report(6, "chart/embedded consistency", worst < 1e-6,
           f"geodesics agree through the embedding over t in [0,1], "
           f"max deviation {worst:.3e} < 1e-6", elapsed, 1.0)


def test_criterion_07_invariance_dichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(107)
    preserving = 0
    non_preserving = 0
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        style = rng.integers(0, 3)
        if style == 0:
            weights = np.full(m, 1.0 / m)
            perm = rng.permutation(m)
        elif style == 1:
            half = m // 2
            w = rng.uniform(0.1, 1.0, size=max(half, 1))
            weights = np.concatenate([w, w, rng.uniform(0.1, 1.0, size=m - 2 * half)])[:m]
            perm = np.arange(m)
            perm[:half], perm[half:2 * half] = (
                np.arange(half, 2 * half), np.arange(half),
            )
        else:
            weights = rng.uniform(0.1, 1.0, size=m)
            perm = rng.permutation(m)
        dom = QuadratureDomain(weights)
        q = MapField(dom, FLAT2, rng.uniform(-1, 1, (m, 2)))
        h = TangentField(q, rng.uniform(-1, 1, (m, 2)))
        k = TangentField(q, rng.uniform(-1, 1, (m, 2)))
        res = check_metric_invariance(DiscreteDiffeo(perm).bind(dom), q, h, k)
        if res.measure_preserving:
            preserving += 1
            worst = max(worst, abs(res.lhs - res.rhs))
        else:
            non_preserving += 1
    dom = QuadratureDomain(np.array([0.25, 0.75]))
    q = MapField(dom, FLAT2, np.zeros((2, 2)))
    h = TangentField(q, np.array([[1.0, 0.0], [0.0, 0.0]]))
    counter = check_metric_invariance(DiscreteDiffeo(np.array([1, 0])).bind(dom), q, h, h)
    counter_ok = counter.lhs == 0.75 and counter.rhs == 0.25 and not counter.measure_preserving
    elapsed = time.perf_counter() - t0
    report(7, "invariance dichotomy",
           worst <= 1e-12 and counter_ok and preserving >= 300 and non_preserving >= 100,
           f"{preserving} measure-preserving pairs invariant to {worst:.1e} <= 1e-12, "
           f"{non_preserving} non-preserving pairs, two-term counterexample exact "
           f"(0.25 -> 0.75)", elapsed, 2.0)


def test_criterion_08_equivariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    m = 6
    q, h = sphere_field(m, seed=108, scale=0.5)
    xi = spray_field(h)
    domc = circle_domain(m)
    qc = MapField(domc, HALFPLANE, HALFPLANE.random_points(rng, m))
    hc, kc, lc = (TangentField(qc, rng.uniform(-1, 1, (m, 2))) for _ in range(3))
    all_ok = True
    non_preserving_seen = 0
    for _ in range(100):
        phi = random_diffeo(m, rng)
        if not phi.is_measure_preserving(QuadratureDomain(rng.uniform(0.1, 1.0, m))):
            non_preserving_seen += 1
        all_ok = all_ok and check_equivariance(phi, "connector", xi=xi).passed
        all_ok = all_ok and check_equivariance(phi, "spray", h=h).passed
        all_ok = all_ok and check_equivariance(phi, "exp", h=h, steps=10).passed
        all_ok = all_ok and check_equivariance(phi, "curvature", q=qc, h=hc, k=kc, l=lc).passed
    elapsed = time.perf_counter() - t0
    report(8, "equivariance", all_ok and non_preserving_seen > 50,
           f"connector, spray, exp, curvature bitwise-equivariant under 100 random "
           f"permutations ({non_preserving_seen} non-measure-preserving)", elapsed, 2.0)


def test_criterion_09_energy_and_compatibility():
    t0 = time.perf_counter()
    q0, h0 = sphere_field(8, seed=109)
    path, rep = integrate_geodesic(q0, h0, snapshots=201, steps_per_snapshot=5)
    e0 = 0.5 * l2_inner(q0, h0, h0)
    drift = float(np.max(np.abs(rep.energy_series - e0)) / e0)
    rng = np.random.default_rng(109)
    a = rng.uniform(-1, 1, (8, 3))
    b = rng.uniform(-1, 1, (8, 3))
    Y = [TangentField(path.maps[j], SPHERE_EMB.project(path.maps[j].values,
                                                       a * np.cos(t) + b))
         for j, t in enumerate(path.times)]
    Z = [TangentField(path.maps[j], SPHERE_EMB.project(path.maps[j].values,
                                                       b * np.sin(t) - 0.5 * a))
         for j, t in enumerate(path.times)]
    covY = covariant_derivative_along_path(path, Y)
    covZ = covariant_derivative_along_path(path, Z)
    g = [l2_inner(path.maps[j], Y[j], Z[j]) for j in range(path.snapshots)]
    dt = path.times[1] - path.times[0]
    compat = 0.0
    for j in range(1, path.snapshots - 1):
        lhs = (g[j + 1] - g[j - 1]) / (2 * dt)
        rhs = (l2_inner(path.maps[j], covY[j], Z[j])
               + l2_inner(path.maps[j], Y[j], covZ[j]))
        compat = max(compat, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    report(9, "energy conservation and metric compatibility",
           drift < 1e-8 and compat < 1e-4,
           f"relative energy drift {drift:.3e} < 1e-8, "
           f"compatibility residual {compat:.3e} < 1e-4", elapsed, 2.0)


def test_criterion_10_wasserstein_corner():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    solver_matches = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        mu = DiscreteMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
        nu = DiscreteMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
        if wasserstein2_assignment(mu, nu).cost == wasserstein2_bruteforce(mu, nu).cost:
            solver_matches += 1
    violations = 0
    equalities = 0
    man1 = make_manifold("flat:n=1")
    man2 = make_manifold("flat:n=2")
    for i in range(1000):
        n = int(rng.integers(2, 7))
        man = man2 if n % 2 else man1
        d = 2 if n % 2 else 1
        dom = QuadratureDomain(np.full(n, 1.0 / n))
        base = MapField(dom, man, rng.normal(size=(n, d)))
        if i % 10 == 0:
            # certified equality case: rearrange by the optimal matching
            target = rng.normal(size=(n, d))
            best = wasserstein2_bruteforce(pushforward_measure(base),
                                           DiscreteMeasure(target, np.full(n, 1.0 / n)))
            rearranged = MapField(dom, man, target[best.perm])
            res = submersion_check(base, rearranged)
            if not res.equality:
                violations += 1
            equalities += res.equality
        else:
            rearranged = MapField(dom, man, rng.normal(size=(n, d)))
            res = submersion_check(base, rearranged)
            if res.l2_cost < res.w2_cost - 1e-12:
                violations += 1
    elapsed = time.perf_counter() - t0
    report(10, "Wasserstein corner",
           solver_matches == 200 and violations == 0 and equalities == 100,
           f"assignment solver equals brute force on 200/200 instances, "
           f"0 bound violations over 1000 rearrangements, "
           f"{equalities} certified equality cases", elapsed, 10.0)


def test_criterion_11_resolution_refinement():
    t0 = time.perf_counter()

    def fields(m):
        dom = circle_domain(m)
        s = dom.points[:, 0]
        a0 = 0.8 * np.sin(s) + 0.4 * np.sin(3 * s)
        b0 = 0.7 * np.cos(s) + 0.3 * np.cos(2 * s)
        a1 = a0 + 0.5 * np.cos(2 * s) + 0.25 * np.sin(5 * s)
        b1 = b0 - 0.4 * np.sin(4 * s) + 0.2 * np.cos(3 * s)

        def mk(a, b):
            raw = np.stack(
                [np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), np.sin(a)], axis=-1
            )
            return MapField(dom, SPHERE_EMB, raw)

        return mk(a0, b0), mk(a1, b1)

    distances = []
    for m in (8, 16, 32, 64, 128):
        q0, q1 = fields(m)
        distances.append(geodesic_distance(q0, q1))
    deltas = [abs(distances[i + 1] - distances[i]) for i in range(4)]
    orders = [math.log2(deltas[i] / deltas[i + 1]) for i in range(3)]
    elapsed = time.perf_counter() - t0
    report(11, "resolution refinement", min(orders) >= 1.9,
           "doubling m changes the distance at observed orders "
           + ", ".join(f"{o:.2f}" for o in orders) + " (all >= 1.9)", elapsed, 5.0)
