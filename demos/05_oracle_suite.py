"""Run the independent numerical oracles over the whole registry.

Everything the package computes twice, it computes differently: analytic
Christoffel callbacks against a five-point metric stencil, the curvature
formula against nested connector differences, the metric's first
variation against the pointwise Christoffel quadrature, and the connector
axioms on seeded random data.
"""

from mapgeom import make_manifold, standard_checks
from mapgeom.verification import format_report_table

REGISTRY = [
    "flat:n=2",
    "flat:n=3",
    "sphere:r=1.0:rep=chart",
    "sphere:r=1.0:rep=embedded",
    "halfplane",
    "paraboloid",
]

failures = 0
for name in REGISTRY:
    man = make_manifold(name)
    reports = standard_checks(man, instances=100, seed=0)
    failures += sum(not r.passed for r in reports)
    print(f"\n=== {name} ===")
    print(format_report_table(reports))

print(f"\n{failures} failing checks across {len(REGISTRY)} registry manifolds")
