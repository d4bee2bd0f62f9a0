"""The discrete reparametrization action and its two-sided story.

Permutations of the quadrature samples model diffeomorphisms of the
source.  The metric only survives the action when the permutation
preserves the weights; the connector, spray, exponential map, and
curvature commute with every permutation bit for bit, because they act
sample by sample and never touch the weights.
"""

import numpy as np

from mapgeom import (
    DiscreteDiffeo,
    MapField,
    QuadratureDomain,
    TangentField,
    check_equivariance,
    check_metric_invariance,
    circle_domain,
    make_manifold,
    spray_field,
)
from mapgeom.reparam import random_diffeo

sphere = make_manifold("sphere:r=1.0:rep=embedded")
flat = make_manifold("flat:n=2")
rng = np.random.default_rng(7)

# --- invariance holds exactly for measure-preserving permutations ------------
m = 10
domain = circle_domain(m)  # uniform weights: every permutation preserves them
values = sphere.random_points(rng, m)
q = MapField(domain, sphere, values)
h = TangentField(q, sphere.project(values, rng.uniform(-1, 1, (m, 3))))
phi = random_diffeo(m, rng)
res = check_metric_invariance(phi, q, h, h)
print("uniform weights, random permutation:")
print(f"  measure preserving: {res.measure_preserving}")
print(f"  G before {res.rhs!r}")
print(f"  G after  {res.lhs!r}   (bit-identical: {res.lhs == res.rhs})")

# --- and fails by exactly the predicted amount otherwise ---------------------
dom2 = QuadratureDomain(np.array([0.25, 0.75]))
q2 = MapField(dom2, flat, np.zeros((2, 2)))
h2 = TangentField(q2, np.array([[1.0, 0.0], [0.0, 0.0]]))
swap = DiscreteDiffeo(np.array([1, 0]))
res2 = check_metric_invariance(swap, q2, h2, h2)
print("\nweights (1/4, 3/4), swapped samples with squared norms (1, 0):")
print(f"  measure preserving: {res2.measure_preserving}")
print(f"  G before {res2.rhs}  (= 1/4)")
print(f"  G after  {res2.lhs}  (= 3/4): the weight under the moving sample changed")

# --- the geometric operators do not care about weights at all ----------------
print("\nequivariance under a non-measure-preserving permutation:")
dom3 = QuadratureDomain(rng.uniform(0.05, 1.0, size=m))
q3 = MapField(dom3, sphere, values)
h3 = TangentField(q3, h.vecs)
phi3 = random_diffeo(m, rng)
print(f"  measure preserving: {phi3.is_measure_preserving(dom3)}")
for op, kwargs in [
    ("connector", dict(xi=spray_field(h3))),
    ("spray", dict(h=h3)),
    ("exp", dict(h=h3, steps=100)),
]:
    rep = check_equivariance(phi3, op, **kwargs)
    print(f"  {op:<9} op(inputs . phi) == op(inputs) . phi bitwise: {rep.passed}")

halfplane = make_manifold("halfplane")
domc = circle_domain(6)
qc = MapField(domc, halfplane, halfplane.random_points(rng, 6))
hc, kc, lc = (TangentField(qc, rng.uniform(-1, 1, (6, 2))) for _ in range(3))
rep = check_equivariance(random_diffeo(6, rng), "curvature", q=qc, h=hc, k=kc, l=lc)
print(f"  curvature op(inputs . phi) == op(inputs) . phi bitwise: {rep.passed}")

print("\nnote: every permutation preserves uniform weights, so the discrete")
print("measure-preserving subgroup is never trivial.")
