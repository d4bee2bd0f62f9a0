"""Independent numerical oracles for the lifted geometry.

Each oracle re-derives a quantity through a code path separate from the
primary formulas: Christoffel symbols from a five-point metric stencil,
curvature from nested finite differences of the connector on chart and
embedded targets alike (it never calls the Christoffel jacobian or the
Hessian action that the chart formula and the Gauss equation use), the
Levi-Civita identification from first variations of the metric, and the
embedded spray and transport equations from a central difference of the
tangent projection P v (which needs grad f only, never the Hessian
action).  Nothing here shares caches or stencils with
:mod:`mapgeom.manifold`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import ChartBoundaryError
from .manifold import (
    ChartManifold,
    EmbeddedManifold,
    Manifold,
    _gamma_pair,
    require_count,
    spray_rungs,
    step_doubling_ladder,
)
from .mapspace import MapField, TangentField, require_based

_ORACLE_STEP = 1e-4  # five-point stencil step, fixed
_SPEED_DRIFT_TOL = 1e-8  # bound of the geodesic_speed_drift report


@dataclass(frozen=True)
class OracleReport:
    """Result of one oracle check; ``passed`` iff the error is in tolerance."""

    check_name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    instance_count: int

    @staticmethod
    def from_error(name: str, err: float, tol: float, count: int) -> "OracleReport":
        err = float(err)
        return OracleReport(name, err, float(tol), err <= tol, int(count))

    def to_json(self) -> dict:
        return files.as_json(self)


def format_report_table(reports) -> str:
    """Fixed-width pass/fail table for terminal output."""
    name_w = max(len(r.check_name) for r in reports)
    lines = []
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.check_name:<{name_w}}  {status}  max_err={r.max_abs_error:.3e}"
            f"  tol={r.tolerance:.1e}  n={r.instance_count}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Christoffel oracle


def oracle_christoffel(man: ChartManifold, x) -> np.ndarray:
    """Levi-Civita symbols from a five-point stencil of the metric.

    Independent of the chart's own ``christoffel`` callback: it reads only
    ``metric`` (five-point stencil, fixed step 1e-4), so it checks a
    hand-written Gamma against the metric it claims to come from.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(man.valid(x)):
        raise ChartBoundaryError("chart boundary: oracle point outside chart domain")
    n = x.shape[-1]
    step = _ORACLE_STEP
    cols = []
    for m in range(n):
        vals = []
        for mult in (-2.0, -1.0, 1.0, 2.0):
            xs = x.copy()
            xs[..., m] += mult * step
            if not np.all(man.valid(xs)):
                raise ChartBoundaryError("chart boundary: oracle stencil leaves chart domain")
            vals.append(np.asarray(man.metric(xs)))
        gm2, gm1, gp1, gp2 = vals
        cols.append((-gp2 + 8.0 * gp1 - 8.0 * gm1 + gm2) / (12.0 * step))
    dg = np.stack(cols, axis=-1)  # (..., a, b, m) = d_m g_ab
    ginv = np.linalg.inv(np.asarray(man.metric(x)))
    t1 = np.einsum("...lkj->...ljk", dg)
    t3 = np.einsum("...jkl->...ljk", dg)
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, t1 + dg - t3)


# ---------------------------------------------------------------------------
# curvature commutator oracle


def oracle_curvature_commutator(man: Manifold, x, h, k, l) -> np.ndarray:
    """R(h, k) l from nested covariant derivatives, batched over ``(..., n)`` rows.

    Extends h and k to constant-coefficient vector fields and l to the
    tangent field L(y) = P(y) l, P the tangent projector, and evaluates
    nabla_h nabla_k L - nabla_k nabla_h L with central finite differences
    of L and of the connector, each row with its own step.  The bracket of
    the constant fields h and k vanishes.  On a chart P is the identity and
    L is constant; on a level set the second derivative of P along h and k
    enters both terms alike and cancels.
    """
    x, h, k, l = (np.asarray(a, dtype=float) for a in (x, h, k, l))

    def covd(y, direction, field):
        # nabla_direction W at y for the vector field W = field
        man.require_valid(y, "connector base point")
        return man.connector(y, field(y), direction, _central_difference(field, y, direction))

    L = lambda y: man.project(y, l)
    inner_k = lambda y: covd(y, k, L)
    inner_h = lambda y: covd(y, h, L)
    return covd(x, h, inner_k) - covd(x, k, inner_h)


def _row_scale(a: np.ndarray) -> np.ndarray:
    """max(1, max_i |a_i|) of each row, keeping a length-1 last axis."""
    return np.maximum(1.0, np.max(np.abs(a), axis=-1, keepdims=True))


def _central_difference(field, y, direction) -> np.ndarray:
    """(field(y + delta d) - field(y - delta d)) / (2 delta) along d = direction.

    Each row has its own step, delta = cbrt(eps) max(1, |y|) / max(1, |d|).
    """
    delta = np.cbrt(np.finfo(float).eps) * _row_scale(y) / _row_scale(direction)
    return (field(y + delta * direction) - field(y - delta * direction)) / (2.0 * delta)


# ---------------------------------------------------------------------------
# first-variation oracle


def oracle_first_variation(q: MapField, h: TangentField, k: TangentField, m: TangentField):
    """Both sides of the Levi-Civita identification of the L2 metric.

    The left side is the first-variation combination
    ``(D_m G(h,k) - D_h G(k,m) - D_k G(m,h)) / 2`` computed by central
    differences of the metric under base-field perturbations; the right
    side is the quadrature of the pointwise Christoffel action on (h, k)
    paired with m, with the sign matching the connector convention.
    Returns ``(lhs, rhs)``; h, k and m must be based at q, else
    ``FieldMismatchError``.  This is :func:`_first_variation` on a batch of
    one; :func:`standard_checks` runs all its instances in one batched pass
    of it, each with its own steps and exact sums, so each instance there
    gives the bits this call gives on it alone.
    """
    man = q.manifold
    if not isinstance(man, ChartManifold):
        raise TypeError("the first-variation oracle needs a chart representation")
    for field in (h, k, m):
        require_based(q, field)
    lhs, rhs = _first_variation(man, q.domain.weights[None],
                                *(a[None] for a in (q.values, h.vecs, k.vecs, m.vecs)))
    return lhs[0], float(rhs[0])


def _exact_sums(a: np.ndarray) -> np.ndarray:
    """``math.fsum`` along the last axis: correctly rounded, so order-free."""
    return np.array([math.fsum(row) for row in a.reshape(-1, a.shape[-1]).tolist()]
                    ).reshape(a.shape[:-1])


def _first_variation(man: ChartManifold, weights, x, h, k, m):
    """Both sides of the first-variation identity for B instances at once.

    ``weights`` is ``(B, mq)``; ``x``, ``h``, ``k`` and ``m`` are
    ``(B, mq, n)``.  Returns ``(lhs, rhs)``, one entry per instance.  Each
    instance and direction d has its own central-difference step
    delta = cbrt(eps) max(1, |x|) / max(1, |d|), and every quadrature is an
    exact sum, so no instance's result depends on the others.  A perturbed
    point outside the chart raises ``ChartBoundaryError`` naming the
    direction, the sample and, when B > 1, the instance.
    """
    dirs = np.stack([m, h, k], axis=1)  # D_m G(h, k), D_h G(k, m), D_k G(m, h)
    delta = (np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.max(np.abs(x), axis=(1, 2)))[:, None]
             / np.maximum(1.0, np.max(np.abs(dirs), axis=(2, 3))))  # (B, 3)
    step = delta[..., None, None] * dirs
    pts = x[:, None, None] + np.stack([step, -step], axis=2)  # (B, 3, +/-, mq, n)
    ok = np.all(np.isfinite(pts), axis=-1) & man.valid(pts)
    if not ok.all():
        b, d, sign, s = np.unravel_index(np.argmin(ok), ok.shape)
        where = f"instance {b}, sample {s}" if len(x) > 1 else f"sample {s}"
        raise ChartBoundaryError(f"chart exit during perturbation: x {'+-'[sign]} delta {'mhk'[d]} "
                                 f"at {where} is outside the chart domain")
    pairs = (np.stack(p, axis=1)[:, :, None] for p in ((h, k, m), (k, m, h)))
    g = _exact_sums(weights[:, None, None] * man.inner(pts, *pairs))
    dg = (g[..., 0] - g[..., 1]) / (2.0 * delta)
    lhs = 0.5 * (dg[:, 0] - dg[:, 1] - dg[:, 2])
    rhs = -_exact_sums(weights * man.inner(x, _gamma_pair(man.christoffel(x), h, k), m))
    return lhs, rhs


# ---------------------------------------------------------------------------
# projector-derivative oracle


def accel_vs_projector_derivative(man: EmbeddedManifold, p, v, X) -> float:
    """Largest deviation of the closed-form spray and transport equations.

    Compares ``man.transport_rhs(p, v, Y)`` with DP(p)[v] Y for Y = v
    (the spray) and Y = X, where DP(p)[v] Y is the central difference
    (P(p + delta v) Y - P(p - delta v) Y) / (2 delta) of the rank-one
    projection ``man.tangent_projector(p, Y)``: no projector matrix is
    built and the Hessian action is never called.  X need not be tangent.
    """
    p, v, X = (np.asarray(a, dtype=float) for a in (p, v, X))
    return max(_max_rows(man.transport_rhs(p, v, Y)
                         - _central_difference(lambda q: man.tangent_projector(q, Y), p, v))
               for Y in (v, X))


# ---------------------------------------------------------------------------
# connector axiom sweep


def _random_tangents(man: Manifold, rng, points: np.ndarray, count: int) -> np.ndarray:
    raw = rng.uniform(-1.0, 1.0, size=(count,) + points.shape)
    return np.stack([man.project(points, r) for r in raw])


def _max_rows(err: np.ndarray) -> float:
    return float(np.max(np.abs(err))) if err.size else 0.0


def run_axiom_sweep(man: Manifold, instances: int = 100, seed: int = 0):
    """Evaluate the four connector axioms on seeded random valid inputs.

    Returns one :class:`OracleReport` per axiom (vertical-lift projection,
    linearity for each vector bundle structure, flip symmetry), each at
    tolerance 1e-10.  Identical seeds give bit-identical reports: inputs
    are drawn once in a fixed order and the evaluation is pure.
    """
    require_count("instances", instances)
    rng = np.random.default_rng(seed)
    x = man.random_points(rng, instances)
    man.require_valid(x, "connector base point")
    h, k, l, h2, k2, l2 = (_random_tangents(man, rng, x, 1)[0] for _ in range(6))
    a = rng.uniform(-1.0, 1.0, size=(instances, 1))
    b = rng.uniform(-1.0, 1.0, size=(instances, 1))

    e1 = man.connector(x, h, np.zeros_like(h), k) - k
    lhs2 = man.connector(x, h, a * k + b * k2, a * l + b * l2)
    rhs2 = a * man.connector(x, h, k, l) + b * man.connector(x, h, k2, l2)
    lhs3 = man.connector(x, a * h + b * h2, k, a * l + b * l2)
    rhs3 = a * man.connector(x, h, k, l) + b * man.connector(x, h2, k, l2)
    e4 = man.connector(x, k, h, l) - man.connector(x, h, k, l)
    errs = [_max_rows(e1), _max_rows(lhs2 - rhs2), _max_rows(lhs3 - rhs3), _max_rows(e4)]
    names = [
        "connector_vertical_lift",
        "connector_linear_first_structure",
        "connector_linear_second_structure",
        "connector_flip_symmetry",
    ]
    return [
        OracleReport.from_error(names[i], errs[i], 1e-10, instances) for i in range(4)
    ]


# ---------------------------------------------------------------------------
# full check battery (used by the verify subcommand)


def _speed_drift(man: Manifold, rng, count: int) -> float:
    """Largest relative drift of g(v, v) along ``count`` random unit-time geodesics.

    Each rung of :func:`mapgeom.manifold.step_doubling_ladder` integrates
    every sample once at N, with its twin at N/2 in the same run unless
    that twin is the rung in hand (:func:`mapgeom.manifold.spray_rungs`),
    and records 9 snapshots, at the same times on every rung, so the drift
    series at N and N/2 give each sample's step-doubling estimate.  The
    ladder jumps to the rung that RK4's h^4 law predicts.  Returns the
    drift at the first rung where every estimate is at most a tenth of the
    report's bound, or at the cap.
    """
    x = man.random_points(rng, count)
    v = _random_tangents(man, rng, x, 1)[0]
    speed = np.sqrt(man.inner(x, v, v))
    v = 0.2 * v / np.maximum(speed, 1e-9)[:, None]

    def drift(xs, vs):
        energies = man.inner(xs, vs, vs)
        return ((energies - energies[0]) / energies[0]).T  # (sample, snapshot)

    bound = 0.1 * _SPEED_DRIFT_TOL
    for _, fine, est in step_doubling_ladder(spray_rungs(man, x, lambda: v, drift, 8), bound):
        if est is not None and np.all(est <= bound):
            break
    return float(np.max(np.abs(fine)))


def standard_checks(man: Manifold, instances: int = 100, seed: int = 0):
    """The full oracle battery for one registry manifold.

    ``instances`` is checked by :func:`run_axiom_sweep`, which runs first
    and gives the four ``connector_*`` reports.  Then, on every target,
    ``curvature_vs_commutator`` compares ``man.curvature`` with
    :func:`oracle_curvature_commutator`.  A chart adds
    ``christoffel_vs_metric_stencil`` (:func:`oracle_christoffel`) and
    ``first_variation_identity`` (:func:`oracle_first_variation`), whose
    up to 25 instances of 8 samples run in one batched pass, each with its
    own difference steps and exact sums, so each reads as a single call
    would on it alone; a level set adds ``projector_idempotent``,
    ``projector_symmetric``, ``projector_tangency``, ``retraction_fixpoint``
    and ``accel_vs_projector_derivative``.  Last, ``geodesic_speed_drift``
    integrates up to 20 random geodesics and reports the largest relative
    change of g(v, v), which the spray conserves.  Its RK4 step count N
    climbs :func:`mapgeom.manifold.step_doubling_ladder`: the first rung of
    64, 128, ... 1024 it reaches, jumping as RK4's h^4 law predicts, where
    the step-doubling estimate of every sample's drift is at most a tenth
    of its 1e-8 bound, or the cap.  On a chart the drift
    oracle guards the spray; on a level set the retraction absorbs a spray
    error's normal part, so ``accel_vs_projector_derivative`` is the check
    that catches it.
    """
    reports = list(run_axiom_sweep(man, instances, seed))
    rng = np.random.default_rng(seed + 1)
    xs = man.random_points(rng, min(instances, 50))
    hs, ks, ls = _random_tangents(man, rng, xs, 3)
    man.require_valid(xs, "curvature base point")
    err = _max_rows(oracle_curvature_commutator(man, xs, hs, ks, ls)
                    - man.curvature(xs, hs, ks, ls))
    reports.append(OracleReport.from_error("curvature_vs_commutator", err, 1e-3, len(xs)))
    if isinstance(man, ChartManifold):
        pts = man.random_points(rng, min(instances, 25))
        err = _max_rows(oracle_christoffel(man, pts) - man.christoffel(pts))
        reports.append(OracleReport.from_error("christoffel_vs_metric_stencil", err, 1e-5, len(pts)))
        count = min(instances, 25)
        # per instance, in this order: the weights, the points, h, k and m
        draws = [(rng.uniform(0.05, 1.0, size=8), man.random_points(rng, 8),
                  *(rng.uniform(-1.0, 1.0, size=(8, man.dim)) for _ in range(3)))
                 for _ in range(count)]
        lhs, rhs = _first_variation(man, *(np.stack(a) for a in zip(*draws)))
        err = _max_rows(lhs - rhs)
        reports.append(OracleReport.from_error("first_variation_identity", err, 1e-4, count))
    else:
        pts = man.random_points(rng, min(instances, 50))
        # row j is P e_j, so this is P transposed; the two checks hold for either
        P = man.tangent_projector(pts[:, None, :], np.eye(man.ambient_dim))
        err = _max_rows(np.einsum("sij,sjk->sik", P, P) - P)
        reports.append(OracleReport.from_error("projector_idempotent", err, 1e-10, len(pts)))
        err = _max_rows(P - np.swapaxes(P, -1, -2))
        reports.append(OracleReport.from_error("projector_symmetric", err, 1e-10, len(pts)))
        raw = rng.uniform(-1.0, 1.0, size=pts.shape)
        vs = man.project(pts, raw)
        delta = 1e-6
        resid = (man.residual(pts + delta * vs) - man.residual(pts - delta * vs)) / (2 * delta)
        reports.append(
            OracleReport.from_error("projector_tangency", _max_rows(resid), 1e-4, len(pts))
        )
        err = _max_rows(man.retraction(pts) - pts)
        reports.append(OracleReport.from_error("retraction_fixpoint", err, 1e-9, len(pts)))
        # measured at most 9.3e-10 on 2,000 paraboloid points, non-tangent X included
        err = accel_vs_projector_derivative(man, pts, vs, raw)
        reports.append(OracleReport.from_error("accel_vs_projector_derivative", err, 1e-7, len(pts)))
    reports.append(
        OracleReport.from_error(
            "geodesic_speed_drift", _speed_drift(man, rng, min(instances, 20)),
            _SPEED_DRIFT_TOL, min(instances, 20),
        )
    )
    return reports
