"""Independent numerical oracles for the lifted geometry.

Each oracle re-derives a quantity through a code path separate from the
primary formulas: Christoffel symbols from a five-point metric stencil,
curvature from nested finite differences of the connector on chart and
embedded targets alike (it never calls the Christoffel jacobian or the
Hessian action that the chart formula and the Gauss equation use), the
Levi-Civita identification from first variations of the metric, and the
embedded spray and transport equations from a central difference of the
tangent projector.  Nothing here shares caches or stencils with
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
    integrate_spray,
    require_count,
)
from .mapspace import MapField, QuadratureDomain, TangentField, l2_inner

_ORACLE_STEP = 1e-4  # five-point stencil step, fixed


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

    Independent of :func:`mapgeom.manifold.christoffel_from_metric`:
    different stencil (five-point, fixed step 1e-4) and no shared
    intermediate values.
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
        delta = np.cbrt(np.finfo(float).eps) * _row_scale(y) / _row_scale(direction)
        dW = (field(y + delta * direction) - field(y - delta * direction)) / (2.0 * delta)
        return man.connector(y, field(y), direction, dW)

    L = lambda y: man.project(y, l)
    inner_k = lambda y: covd(y, k, L)
    inner_h = lambda y: covd(y, h, L)
    return covd(x, h, inner_k) - covd(x, k, inner_h)


def _row_scale(a: np.ndarray) -> np.ndarray:
    """max(1, max_i |a_i|) of each row, keeping a length-1 last axis."""
    return np.maximum(1.0, np.max(np.abs(a), axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# first-variation oracle


def oracle_first_variation(q: MapField, h: TangentField, k: TangentField, m: TangentField):
    """Both sides of the Levi-Civita identification of the L2 metric.

    The left side is the first-variation combination
    ``(D_m G(h,k) - D_h G(k,m) - D_k G(m,h)) / 2`` computed by central
    differences of the metric under base-field perturbations; the right
    side is the quadrature of the pointwise Christoffel action on (h, k)
    paired with m, with the sign matching the connector convention.
    Returns ``(lhs, rhs)``.
    """
    man = q.manifold
    if not isinstance(man, ChartManifold):
        raise TypeError("the first-variation oracle needs a chart representation")

    def directional(direction: TangentField, a: TangentField, b: TangentField) -> float:
        scale = np.maximum(1.0, np.max(np.abs(q.values)))
        dscale = np.maximum(1.0, np.max(np.abs(direction.vecs)))
        delta = np.cbrt(np.finfo(float).eps) * scale / dscale
        try:
            qp = MapField(q.domain, man, q.values + delta * direction.vecs)
            qm = MapField(q.domain, man, q.values - delta * direction.vecs)
        except ValueError as exc:
            raise ChartBoundaryError(f"chart exit during perturbation: {exc}") from exc
        gp = l2_inner(qp, TangentField(qp, a.vecs), TangentField(qp, b.vecs))
        gm = l2_inner(qm, TangentField(qm, a.vecs), TangentField(qm, b.vecs))
        return (gp - gm) / (2.0 * delta)

    lhs = 0.5 * (directional(m, h, k) - directional(h, k, m) - directional(k, m, h))
    gamma = man.christoffel_eval(q.values)
    corr = _gamma_pair(gamma, h.vecs, k.vecs)
    g = np.asarray(man.metric(q.values))
    terms = q.domain.weights * np.einsum("sij,si,sj->s", g, corr, m.vecs)
    rhs = -math.fsum(terms.tolist())
    return lhs, rhs


# ---------------------------------------------------------------------------
# projector-derivative oracle


def _projector_derivative(man: EmbeddedManifold, p, w, X) -> np.ndarray:
    """(DP(p)[w]) X from a central difference of the tangent projector along w."""
    delta = np.cbrt(np.finfo(float).eps) * np.maximum(1.0, np.max(np.abs(p), axis=-1))
    delta /= np.maximum(1.0, np.max(np.abs(w), axis=-1))
    step = delta[..., None] * w
    dP = np.asarray(man.tangent_projector(p + step)) - np.asarray(man.tangent_projector(p - step))
    return np.einsum("...ij,...j->...i", dP / (2.0 * delta[..., None, None]), X)


def accel_vs_projector_derivative(man: EmbeddedManifold, p, v, X) -> float:
    """Largest deviation of the closed-form spray and transport equations.

    Compares ``man.accel(p, v)`` with DP(p)[v] v and
    ``man.transport_rhs(p, v, X)`` with DP(p)[v] X, where DP is the
    central difference of ``man.tangent_projector`` along v.  X need not
    be tangent.
    """
    p, v, X = (np.asarray(a, dtype=float) for a in (p, v, X))
    accel_err = man.accel(p, v) - _projector_derivative(man, p, v, v)
    transport_err = man.transport_rhs(p, v, X) - _projector_derivative(man, p, v, X)
    return max(_max_rows(accel_err), _max_rows(transport_err))


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


def _speed_drift(man: Manifold, rng, count: int, steps: int = 500) -> float:
    x = man.random_points(rng, count)
    v = _random_tangents(man, rng, x, 1)[0]
    speed = np.sqrt(man.inner(x, v, v))
    v = 0.2 * v / np.maximum(speed, 1e-9)[:, None]
    xs, vs = integrate_spray(man, x, v, steps, record_every=steps // 10)
    energies = man.inner(xs, vs, vs)
    e0 = energies[0]
    return float(np.max(np.abs(energies - e0) / e0))


def standard_checks(man: Manifold, instances: int = 100, seed: int = 0):
    """The full oracle battery for one registry manifold.

    ``instances`` is checked by :func:`run_axiom_sweep`, which runs first.
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
        err = _max_rows(oracle_christoffel(man, pts) - man.christoffel_eval(pts))
        reports.append(OracleReport.from_error("christoffel_vs_metric_stencil", err, 1e-5, len(pts)))
        count = min(instances, 25)
        err = 0.0
        for _ in range(count):
            mq = 8
            dom = QuadratureDomain(rng.uniform(0.05, 1.0, size=mq))
            q = MapField(dom, man, man.random_points(rng, mq))
            fields = [
                TangentField(q, rng.uniform(-1.0, 1.0, size=(mq, man.dim))) for _ in range(3)
            ]
            lhs, rhs = oracle_first_variation(q, *fields)
            err = max(err, abs(lhs - rhs))
        reports.append(OracleReport.from_error("first_variation_identity", err, 1e-4, count))
    else:
        pts = man.random_points(rng, min(instances, 50))
        P = np.asarray(man.tangent_projector(pts))
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
            "geodesic_speed_drift", _speed_drift(man, rng, min(instances, 20)), 1e-8,
            min(instances, 20),
        )
    )
    return reports
