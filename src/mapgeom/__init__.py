"""Numerical Riemannian geometry of the L2 metric on discretized mapping spaces.

The geometry of a space of maps into a Riemannian target is pointwise:
connector, spray, exponential map, parallel transport, and curvature of
the target lift sample-by-sample to fields over a quadrature domain.
This package implements the finite-dimensional target geometry, the
lifted field operators, geodesic dynamics with log maps and distances,
independent numerical oracles, the discrete reparametrization action,
and a desk-scale optimal-transport corner.
"""

from .errors import (
    ChartBoundaryError,
    DomainExitError,
    FieldMismatchError,
    GeometryError,
    LiftError,
    MeasureError,
    NotVerticalError,
    OffManifoldError,
    ShootingError,
)
from .manifold import (
    ChartManifold,
    EmbeddedManifold,
    list_manifolds,
    make_manifold,
    sectional_curvature,
)
from .mapspace import (
    MapField,
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
    l2_norm,
    lift_left_composition,
    load_field,
    save_field,
    spray_field,
    vertical_lift_field,
    vertical_projection_field,
)
from .dynamics import (
    FieldPath,
    GeodesicReport,
    covariant_derivative_along_path,
    geodesic_distance,
    integrate_geodesic,
    load_path,
    log_field,
    parallel_transport_field,
    path_energy,
    save_path,
)
from .verification import (
    OracleReport,
    accel_vs_projector_derivative,
    oracle_christoffel,
    oracle_curvature_commutator,
    oracle_first_variation,
    run_axiom_sweep,
    standard_checks,
)
from .reparam import (
    DiscreteDiffeo,
    act,
    check_equivariance,
    check_metric_invariance,
    identity_diffeo,
    random_diffeo,
)
from .transport import (
    Assignment,
    DiscreteMeasure,
    pushforward_measure,
    submersion_check,
    wasserstein2_assignment,
    wasserstein2_bruteforce,
)

__version__ = "0.1.0"
