"""The optimal-transport corner at desk scale.

Push quadrature weights forward under a map, compute Wasserstein-2
matchings by factorial brute force and by the assignment solver,
exhibit the transport bound: moving every sample along the map costs at
least the optimal rearrangement of the resulting point cloud, and watch
an L2 geodesic of maps push forward to a W2 geodesic of measures (Otto's
submersion) on the half-plane.
"""

import math

import numpy as np

from mapgeom import (
    DiscreteMeasure,
    MapField,
    QuadratureDomain,
    integrate_geodesic,
    log_field,
    make_manifold,
    pushforward_measure,
    submersion_check,
    wasserstein2_assignment,
    wasserstein2_bruteforce,
)

flat1 = make_manifold("flat:n=1")
rng = np.random.default_rng(3)

# --- push-forward measures ----------------------------------------------------
n = 6
domain = QuadratureDomain(np.full(n, 1.0 / n))
q = MapField(domain, flat1, np.array([[0.0], [0.5], [0.5], [1.5], [2.0], [3.0]]))
mu = pushforward_measure(q)
print("push-forward of uniform weights under a map with a collision:")
print(f"  atoms  {mu.atoms.ravel()}")
print(f"  masses {mu.masses}   (two samples merged)")

# --- brute force certifies the assignment solver --------------------------------
print("\nsolver vs factorial brute force on random equal-mass clouds:")
for trial in range(3):
    k = int(rng.integers(4, 9))
    a = DiscreteMeasure(rng.normal(size=(k, 2)), np.full(k, 1.0 / k))
    b = DiscreteMeasure(rng.normal(size=(k, 2)), np.full(k, 1.0 / k))
    brute = wasserstein2_bruteforce(a, b)
    solved = wasserstein2_assignment(a, b)
    print(f"  n={k}: brute {brute.cost:.12f}  solver {solved.cost:.12f}  "
          f"equal: {solved.cost == brute.cost}")

# --- translation moves mass rigidly --------------------------------------------
x = rng.normal(size=(5, 2))
shift = np.array([0.6, -0.3])
a = DiscreteMeasure(x, np.full(5, 0.2))
b = DiscreteMeasure(x + shift, np.full(5, 0.2))
print(f"\ntranslation by t = {shift}: W2^2 = "
      f"{wasserstein2_assignment(a, b).cost:.12f}  (|t|^2 = {shift @ shift:.12f})")

# --- the transport bound --------------------------------------------------------
print("\nsquared L2 displacement vs optimal transport cost:")
base = MapField(domain, flat1, np.arange(n, dtype=float)[:, None])
crossed = MapField(domain, flat1, base.values[rng.permutation(n)])
res = submersion_check(base, crossed)
print(f"  shuffled rearrangement: l2 {res.l2_cost:.6f} >= w2 {res.w2_cost:.6f} "
      f"(equality: {res.equality})")

target = np.sort(rng.normal(size=n))[:, None]
best = wasserstein2_bruteforce(pushforward_measure(base),
                               DiscreteMeasure(target, np.full(n, 1.0 / n)))
optimal = MapField(domain, flat1, target[best.perm])
res2 = submersion_check(base, optimal)
print(f"  optimal rearrangement:  l2 {res2.l2_cost:.6f} == w2 {res2.w2_cost:.6f} "
      f"(equality: {res2.equality})")

# --- Otto's submersion on the half-plane ----------------------------------------
# Twelve atoms within geodesic distance 0.4 of (0, 1.5), where geodesics are
# unique and minimising: q0 takes the first six, and q1 the other six in the
# optimal order for the geodesic cost.  The L2 geodesic from q0 to q1 moves
# the push-forward along the W2 geodesic between the two measures.
halfplane = make_manifold("halfplane")
points = np.array([0.0, 1.5]) + rng.uniform(-0.25, 0.25, size=(2 * n, 2))
q0 = MapField(domain, halfplane, points[:n])
best = wasserstein2_bruteforce(pushforward_measure(q0),
                               DiscreteMeasure(points[n:], np.full(n, 1.0 / n)),
                               manifold=halfplane)
q1 = MapField(domain, halfplane, points[n:][best.perm])
path, report = integrate_geodesic(q0, log_field(q0, q1), snapshots=5, steps_per_snapshot=128)
print("\nOtto's submersion on the half-plane (geodesic cost):")
print(f"  d_L2(q0, q1)^2 = {2.0 * report.energy_series[0]:.12f}   "
      f"W2(mu0, mu1)^2 = {best.cost:.12f}")
measures = [pushforward_measure(q) for q in path.maps]
for i, j in [(0, 1), (1, 3), (2, 4), (0, 4)]:
    s, t = path.times[i], path.times[j]
    w2 = wasserstein2_assignment(measures[i], measures[j], manifold=halfplane).cost
    print(f"  s={s:.2f} t={t:.2f}: W2(mu_s, mu_t) = {math.sqrt(w2):.12f}   "
          f"|t - s| W2(mu0, mu1) = {(t - s) * math.sqrt(best.cost):.12f}")
