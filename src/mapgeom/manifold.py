"""Finite-dimensional Riemannian targets and their pointwise geometry.

Two representations of a target manifold are supported:

* :class:`ChartManifold` works in local coordinates with a metric callback
  and (optionally analytic) Christoffel symbols.
* :class:`EmbeddedManifold` works with ambient coordinates, an orthogonal
  tangent projector, and a retraction for drift control.  Each embedded
  target is a level set f(p) = 0 of a function on the ambient space,
  given by its gradient and Hessian action (or by neither, for an open
  subset of the ambient space).

Both classes offer the same pointwise interface, and every operator in
this package reaches the target only through it.  Each method is batched
over leading axes of ``(..., n)`` point arrays:

* ``point_dim`` -- length n of a point's coordinate vector;
* ``valid(x)`` -- per-point membership (chart domain, or the embedding
  constraint within tolerance); ``require_valid(x, what)`` raises
  :class:`ChartBoundaryError` or :class:`OffManifoldError` instead;
* ``residual(x)`` -- embedding-constraint residual (zero for charts);
* ``inner(x, h, k)`` -- the metric g_x(h, k);
* ``project(x, v)`` -- orthogonal projection onto the tangent space (the
  identity for charts); ``tangent_basis(x)`` -- an orthonormal basis of it
  (the coordinate basis for charts);
* ``accel(x, v)`` -- the vertical part of the geodesic spray;
* ``connector(x, h, k, l)`` -- the connector of (x, h; k, l);
* ``transport_rhs(x, xdot, X)`` -- the parallel transport equation;
* ``post_step(x_prev, x, v)`` -- drift control after an integrator step:
  retract the rows of x that moved and re-project v there (a no-op for
  charts).

Sign conventions: ``christoffel`` callbacks return the classical
Levi-Civita symbols of the metric, the covariant derivative acts as
``DY.X + Gamma(X, Y)`` in coordinates, geodesics solve
``q'' + Gamma(q', q') = 0``, and the connector maps ``(x, h; k, l)`` to
``(x, l + Gamma(k, h))``.  On an embedded target the connector is the
tangent projection of l, and the spray and transport equations use the
derivative of the tangent projector P = I - n n^T, n = grad f / |grad f|,
in closed form: with Dn[w] = (H w - n <n, H w>) / |grad f| and H the
Hessian of f, DP[w] X = -(Dn[w] <n, X> + n <Dn[w], X>).  The central
difference of P that this replaces is kept as an independent oracle in
:mod:`mapgeom.verification`.

All manifold callbacks are vectorized: a point argument has shape
``(..., n)`` and results carry the same leading axes.  Use
:func:`from_pointwise` to wrap a plain single-point callback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ChartBoundaryError,
    DegenerateMetricError,
    DomainExitError,
    OffManifoldError,
    ShootingError,
)

_EPS = float(np.finfo(float).eps)
_FD_REL_STEP = float(np.cbrt(_EPS))

POLE_BAND = 1e-3  # excluded band around chart singularities
ON_MANIFOLD_TOL = 1e-6  # largest embedding residual of a point on the manifold


# ---------------------------------------------------------------------------
# tangent containers


@dataclass(frozen=True)
class TangentVector:
    """A tangent vector: base point and vector, in matching coordinates."""

    base: np.ndarray
    vec: np.ndarray


@dataclass(frozen=True)
class SecondTangentVector:
    """An element (x, h; k, l) of the second tangent bundle.

    ``base`` is the point x, ``vec`` the tangent h at x, ``dbase`` the
    variation k of the point, ``dvec`` the variation l of the tangent.
    """

    base: np.ndarray
    vec: np.ndarray
    dbase: np.ndarray
    dvec: np.ndarray


# ---------------------------------------------------------------------------
# manifold representations


@dataclass(frozen=True)
class ChartManifold:
    """Target manifold in a single chart.

    Parameters
    ----------
    dim:
        Coordinate dimension n.
    metric:
        Callback ``x (..., n) -> (..., n, n)``, symmetric positive definite
        on the chart domain.
    christoffel:
        Optional callback ``x -> (..., n, n, n)`` with ``G[..., i, j, k]``
        the classical symbols, symmetric in (j, k).  Derived from ``metric``
        by central differences when omitted.
    christoffel_jacobian:
        Optional callback ``x -> (..., n, n, n, n)``, derivative index last.
        Derived from ``christoffel`` by central differences when omitted.
    chart_domain:
        Optional predicate ``x -> (...) bool``; defaults to all-true.
    embedding / embedding_jacobian:
        Optional maps into an ambient space, used for explicit conversion
        to an embedded representation.
    closed_form_log:
        Optional exact log map ``(x0, x1) -> v`` used to seed shooting.
    sample_box:
        Optional (lo, hi) arrays bounding a safe region for random sweeps.
    name:
        Canonical registry string when built from the registry.
    """

    dim: int
    metric: Callable
    christoffel: Optional[Callable] = None
    christoffel_jacobian: Optional[Callable] = None
    chart_domain: Optional[Callable] = None
    embedding: Optional[Callable] = None
    embedding_jacobian: Optional[Callable] = None
    closed_form_log: Optional[Callable] = None
    sample_box: Optional[tuple] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def in_domain(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart_domain is None:
            return np.ones(x.shape[:-1], dtype=bool)
        return np.asarray(self.chart_domain(x), dtype=bool)

    def christoffel_eval(self, x) -> np.ndarray:
        if self.christoffel is not None:
            return np.asarray(self.christoffel(np.asarray(x, dtype=float)))
        return christoffel_from_metric(self, x)

    def christoffel_jacobian_eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.christoffel_jacobian is not None:
            return np.asarray(self.christoffel_jacobian(x))
        return _central_diff(self.christoffel_eval, x)

    @property
    def point_dim(self) -> int:
        return self.dim

    valid = in_domain

    def require_valid(self, x, what: str):
        if not np.all(self.in_domain(x)):
            raise ChartBoundaryError(f"chart boundary: {what} outside the chart domain")

    def residual(self, x) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1])

    def inner(self, x, h, k) -> np.ndarray:
        return np.einsum("...ij,...i,...j->...", np.asarray(self.metric(x)), h, k)

    def project(self, x, v) -> np.ndarray:
        return np.asarray(v, dtype=float)

    def tangent_basis(self, x) -> np.ndarray:
        return np.broadcast_to(np.eye(self.dim), np.shape(x)[:-1] + (self.dim, self.dim))

    def accel(self, x, v) -> np.ndarray:
        return -_gamma_pair(self.christoffel_eval(x), v, v)

    def connector(self, x, h, k, l) -> np.ndarray:
        return np.asarray(l, dtype=float) + _gamma_pair(self.christoffel_eval(x), k, h)

    def transport_rhs(self, x, xdot, X) -> np.ndarray:
        return -_gamma_pair(self.christoffel_eval(x), xdot, X)

    def post_step(self, x_prev, x, v):
        return x, v

    def random_points(self, rng, m: int) -> np.ndarray:
        if self.sample_box is None:
            raise ValueError("manifold has no sample_box for random sweeps")
        lo, hi = self.sample_box
        return rng.uniform(lo, hi, size=(m, self.dim))


@dataclass(frozen=True)
class EmbeddedManifold:
    """Target manifold given by an embedding into Euclidean space.

    ``embed_check`` returns the residual of the defining constraint
    (scalar or vector per point), ``tangent_projector`` the orthogonal
    projector onto the tangent space, and ``retraction(p, v)`` the closest
    point on the manifold to ``p + v`` (used only to control drift).
    ``gradient(p)`` and ``hessian_action(p, w)`` give grad f and
    (Hess f) w of the defining function f of a hypersurface f(p) = 0.
    A custom embedded target must be such a hypersurface (codimension 1,
    both callbacks given) or an open subset of the ambient space
    (``intrinsic_dim == ambient_dim``), where P = I and neither is needed;
    anything else raises ValueError.
    """

    ambient_dim: int
    intrinsic_dim: int
    embed_check: Callable
    tangent_projector: Callable
    retraction: Callable
    gradient: Optional[Callable] = None
    hessian_action: Optional[Callable] = None
    sample_points: Optional[Callable] = None
    closed_form_log: Optional[Callable] = None
    name: Optional[str] = None

    def __post_init__(self):
        codim = self.ambient_dim - self.intrinsic_dim
        if codim == 1 and (self.gradient is None or self.hessian_action is None):
            raise ValueError(
                "an embedded hypersurface needs both gradient and hessian_action"
            )
        if codim not in (0, 1):
            raise ValueError(
                f"embedded targets must have codimension 0 or 1, not {codim}"
            )

    def residual(self, p) -> np.ndarray:
        """Max-abs constraint residual per point, shape (...)."""
        r = np.asarray(self.embed_check(np.asarray(p, dtype=float)))
        if r.ndim > np.asarray(p).ndim - 1:
            r = np.max(np.abs(r), axis=-1)
        else:
            r = np.abs(r)
        return r

    def on_manifold(self, p) -> np.ndarray:
        return self.residual(p) <= ON_MANIFOLD_TOL

    @property
    def point_dim(self) -> int:
        return self.ambient_dim

    valid = on_manifold

    def require_valid(self, p, what: str):
        if not np.all(self.on_manifold(p)):
            raise OffManifoldError(
                f"point off manifold: embedding residual of {what} above tolerance"
            )

    def inner(self, p, h, k) -> np.ndarray:
        return np.einsum("...i,...i->...", h, k)

    def project(self, p, v) -> np.ndarray:
        P = np.asarray(self.tangent_projector(np.asarray(p, dtype=float)))
        return np.einsum("...ij,...j->...i", P, np.asarray(v, dtype=float))

    def tangent_basis(self, p) -> np.ndarray:
        """Orthonormal tangent bases, shape (..., ambient_dim, intrinsic_dim)."""
        u, _, _ = np.linalg.svd(np.asarray(self.tangent_projector(np.asarray(p, dtype=float))))
        return u[..., :, : self.intrinsic_dim]

    def accel(self, p, v) -> np.ndarray:
        return self._dP(p, v, v)

    def connector(self, p, h, k, l) -> np.ndarray:
        return self.project(p, l)

    def transport_rhs(self, p, pdot, X) -> np.ndarray:
        return self._dP(p, pdot, X)

    def _dP(self, p, w, X) -> np.ndarray:
        """(DP(p)[w]) X in closed form from the level-set description."""
        X = np.asarray(X, dtype=float)
        if self.intrinsic_dim == self.ambient_dim:
            return np.zeros(X.shape)
        p = np.asarray(p, dtype=float)
        g = self.gradient(p)
        gnorm = np.sqrt(np.einsum("...i,...i->...", g, g))[..., None]
        n = g / gnorm
        Hw = self.hessian_action(p, np.asarray(w, dtype=float))
        dn = (Hw - n * np.einsum("...i,...i->...", n, Hw)[..., None]) / gnorm
        return -(
            dn * np.einsum("...i,...i->...", n, X)[..., None]
            + n * np.einsum("...i,...i->...", dn, X)[..., None]
        )

    def post_step(self, p_prev, p, v):
        # retract only rows that moved, so zero-velocity samples stay
        # bitwise fixed
        moved = np.any(p != p_prev, axis=-1)[..., None]
        p = np.where(moved, self.retract(p), p)
        return p, np.where(moved, self.project(p, v), v)

    def retract(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return np.asarray(self.retraction(p, np.zeros_like(p)))

    def random_points(self, rng, m: int) -> np.ndarray:
        if self.sample_points is None:
            raise ValueError("manifold has no point sampler for random sweeps")
        return self.sample_points(rng, m)


Manifold = ChartManifold | EmbeddedManifold


def from_pointwise(fn: Callable) -> Callable:
    """Wrap a single-point callback so it accepts (..., n) batches."""

    def batched(x, *extra):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.asarray(fn(x, *extra))
        lead = x.shape[:-1]
        flat = x.reshape(-1, x.shape[-1])
        out = np.stack([np.asarray(fn(row, *extra)) for row in flat])
        return out.reshape(lead + out.shape[1:])

    return batched


# ---------------------------------------------------------------------------
# finite differences and Christoffel symbols


def _fd_scale(x) -> np.ndarray:
    """Per-point FD step cbrt(eps) * max(1, |x|_inf), shape (...)."""
    x = np.asarray(x, dtype=float)
    return _FD_REL_STEP * np.maximum(1.0, np.max(np.abs(x), axis=-1))


def _central_diff(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Central difference of a batched callback; derivative index appended."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    delta = _fd_scale(x)
    cols = []
    for m in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[..., m] += delta
        xm[..., m] -= delta
        df = (np.asarray(fn(xp)) - np.asarray(fn(xm)))
        cols.append(df / (2.0 * delta[(...,) + (None,) * (df.ndim - delta.ndim)]))
    return np.stack(cols, axis=-1)


def christoffel_from_metric(man: ChartManifold, x) -> np.ndarray:
    """Classical Levi-Civita symbols from metric derivatives.

    Returns ``G[..., i, j, k] = 1/2 g^{il} (d_j g_lk + d_k g_lj - d_l g_jk)``
    using central differences with step ``cbrt(eps) * max(1, |x|)``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(man.in_domain(x)):
        raise ChartBoundaryError("chart boundary: point outside chart domain")
    n = x.shape[-1]
    delta = _fd_scale(x)
    for m in range(n):
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[..., m] += sign * delta
            if not np.all(man.in_domain(xs)):
                raise ChartBoundaryError(
                    "chart boundary: finite-difference stencil leaves chart domain"
                )
    g = np.asarray(man.metric(x))
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError(f"degenerate metric: {exc}") from exc
    dg = _central_diff(man.metric, x)  # (..., a, b, m) = d_m g_ab
    t1 = np.einsum("...lkj->...ljk", dg)  # d_j g_lk
    t2 = dg  # d_k g_lj
    t3 = np.einsum("...jkl->...ljk", dg)  # d_l g_jk
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, t1 + t2 - t3)


def _gamma_pair(gamma, a, b) -> np.ndarray:
    """Contract Christoffel symbols with two vectors: Gamma(a, b)."""
    return np.einsum("...ijk,...j,...k->...i", gamma, a, b)


def _normal_projector(gradient: Callable) -> Callable:
    """Tangent projector I - n n^T of a level set, n = grad f / |grad f|."""

    def projector(p):
        g = gradient(np.asarray(p, dtype=float))
        gg = np.einsum("...i,...i->...", g, g)[..., None]
        return np.eye(g.shape[-1]) - g[..., :, None] * (g / gg)[..., None, :]

    return projector


# ---------------------------------------------------------------------------
# connector


def connector(man: Manifold, xi: SecondTangentVector) -> TangentVector:
    """Connector of the Levi-Civita derivative at one point of the target.

    Maps (x, h; k, l) to the tangent vector l + Gamma(k, h) at x in a chart,
    and to the tangent projection of l on an embedded target.  A base point
    off the target raises ChartBoundaryError or OffManifoldError.
    """
    x = np.asarray(xi.base, dtype=float)
    man.require_valid(x, "connector base point")
    return TangentVector(x, man.connector(x, xi.vec, xi.dbase, xi.dvec))


# ---------------------------------------------------------------------------
# geodesic spray and exponential map


def spray_accel(man: Manifold, x, v) -> np.ndarray:
    """Vertical part of the geodesic spray at (x, v)."""
    return man.accel(x, v)


def spray_eval(man: Manifold, v: TangentVector) -> SecondTangentVector:
    """Geodesic spray (x, h; h, a) with a the geodesic acceleration."""
    x = np.asarray(v.base, dtype=float)
    h = np.asarray(v.vec, dtype=float)
    return SecondTangentVector(x, h, h.copy(), spray_accel(man, x, h))


def _first_bad_index(ok: np.ndarray):
    """Index of the first False entry, or None for scalar/empty data."""
    if ok.ndim == 0:
        return None
    bad = np.argwhere(~ok)
    return None if bad.size == 0 else int(bad[0][0])


def _check_state(man: Manifold, x, t: float):
    ok = np.all(np.isfinite(x), axis=-1) & man.valid(x)
    if not np.all(ok):
        raise DomainExitError(
            f"geodesic left domain at t={t:.6g}", time=t, sample=_first_bad_index(ok)
        )


def require_count(name: str, value, least: int = 1):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``least``.

    Python and NumPy integers count; floats and bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def integrate_spray(man: Manifold, x0, v0, steps: int, record_every: Optional[int] = None):
    """Classical fixed-step RK4 integration of the spray over unit time.

    Returns ``(x, v)`` at t = 1, or the stacked snapshot arrays
    ``(xs, vs)`` (leading time axis) when ``record_every`` is given.
    After every step the target's ``post_step`` controls drift: embedded
    targets are retracted and the velocity is re-projected onto the
    tangent space.
    """
    require_count("steps", steps)
    x = np.array(x0, dtype=float)
    v = np.array(v0, dtype=float)
    _check_state(man, x, 0.0)
    dt = 1.0 / steps
    snaps = None
    if record_every is not None:
        snaps = ([x.copy()], [v.copy()])
    for s in range(steps):
        k1x = v
        k1v = spray_accel(man, x, v)
        k2x = v + (0.5 * dt) * k1v
        k2v = spray_accel(man, x + (0.5 * dt) * k1x, k2x)
        k3x = v + (0.5 * dt) * k2v
        k3v = spray_accel(man, x + (0.5 * dt) * k2x, k3x)
        k4x = v + dt * k3v
        k4v = spray_accel(man, x + dt * k3x, k4x)
        x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = (s + 1) * dt
        _check_state(man, x_new, t)
        x, v = man.post_step(x, x_new, v)
        if snaps is not None and (s + 1) % record_every == 0:
            snaps[0].append(x.copy())
            snaps[1].append(v.copy())
    if snaps is not None:
        return np.stack(snaps[0]), np.stack(snaps[1])
    return x, v


def exp_point(man: Manifold, v: TangentVector, steps: int = 1000) -> np.ndarray:
    """Endpoint of the unit-time geodesic with initial data (x, h)."""
    x, _ = integrate_spray(man, v.base, v.vec, steps)
    return x


# ---------------------------------------------------------------------------
# curvature


def curvature_point(man: ChartManifold, x, h, k, l) -> np.ndarray:
    """Curvature tensor R(h, k) l in chart coordinates.

    Computed from the Christoffel symbols and their derivatives; with the
    classical symbols this is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y
    nabla_X Z - nabla_[X,Y] Z, so the unit sphere has sectional
    curvature +1.
    """
    x = np.asarray(x, dtype=float)
    man.require_valid(x, "curvature base point")
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    l = np.asarray(l, dtype=float)
    gamma = man.christoffel_eval(x)
    dgamma = man.christoffel_jacobian_eval(x)  # (..., i, j, k, m)
    quad = _gamma_pair(gamma, h, _gamma_pair(gamma, k, l)) - _gamma_pair(
        gamma, k, _gamma_pair(gamma, h, l)
    )
    deriv = np.einsum("...ijkm,...m,...j,...k->...i", dgamma, h, k, l) - np.einsum(
        "...ijkm,...m,...j,...k->...i", dgamma, k, h, l
    )
    return quad + deriv


def sectional_curvature(man: ChartManifold, x, h, k) -> np.ndarray:
    """g(R(h,k)k, h) / (|h|^2 |k|^2 - g(h,k)^2)."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    g = np.asarray(man.metric(x))
    R = curvature_point(man, x, h, k, k)
    num = np.einsum("...ij,...i,...j->...", g, R, h)
    hh = np.einsum("...ij,...i,...j->...", g, h, h)
    kk = np.einsum("...ij,...i,...j->...", g, k, k)
    hk = np.einsum("...ij,...i,...j->...", g, h, k)
    return num / (hh * kk - hk**2)


# ---------------------------------------------------------------------------
# parallel transport


def transport_ode_rhs(man: Manifold, x, xdot, X) -> np.ndarray:
    """Right-hand side of the parallel transport equation d X / ds."""
    return man.transport_rhs(x, xdot, X)


def transport_along_samples(man: Manifold, points: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Parallel transport along a sampled curve, one RK4 step per segment.

    ``points`` has shape (S, ..., n) with the time axis first; accuracy is
    controlled by the sampling density.  Transport does not depend on the
    time parametrization, only on the path.
    """
    points = np.asarray(points, dtype=float)
    X = np.array(v0, dtype=float)
    for i in range(points.shape[0] - 1):
        p0 = points[i]
        chord = points[i + 1] - p0

        def rhs(s, Y):
            return transport_ode_rhs(man, p0 + s * chord, chord, Y)

        k1 = rhs(0.0, X)
        k2 = rhs(0.5, X + 0.5 * k1)
        k3 = rhs(0.5, X + 0.5 * k2)
        k4 = rhs(1.0, X + k3)
        X = X + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        # re-project only rows that moved, keeping stationary samples
        # bitwise fixed; the path points are given, so nothing is retracted
        moved = np.any(chord != 0.0, axis=-1)
        X = np.where(moved[..., None], man.project(points[i + 1], X), X)
    return X


def parallel_transport_point(man: Manifold, curve: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Transport v0 along a time-sampled curve in the target manifold.

    ``curve`` is an (S, n) array of points; a zero-length curve (S = 1 or
    all samples equal) returns v0 unchanged.
    """
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 2:
        raise ValueError("curve must be a (S, n) array of points")
    if not np.all(man.valid(curve)):
        raise DomainExitError("curve left domain", sample=None)
    return transport_along_samples(man, curve, np.asarray(v0, dtype=float))


# ---------------------------------------------------------------------------
# registry of built-in targets


def _flat_chart(n: int, name: str) -> ChartManifold:
    eye = np.eye(n)

    def metric(x):
        return np.broadcast_to(eye, np.shape(x)[:-1] + (n, n)).copy()

    def christoffel(x):
        return np.zeros(np.shape(x)[:-1] + (n, n, n))

    def jacobian(x):
        return np.zeros(np.shape(x)[:-1] + (n, n, n, n))

    return ChartManifold(
        dim=n,
        metric=metric,
        christoffel=christoffel,
        christoffel_jacobian=jacobian,
        closed_form_log=lambda x0, x1: np.asarray(x1, dtype=float) - np.asarray(x0, dtype=float),
        sample_box=(-np.ones(n), np.ones(n)),
        name=name,
    )


def _flat_embedded(n: int, name: str) -> EmbeddedManifold:
    eye = np.eye(n)

    def embed_check(p):
        return np.zeros(np.shape(p)[:-1])

    def projector(p):
        return np.broadcast_to(eye, np.shape(p)[:-1] + (n, n)).copy()

    return EmbeddedManifold(
        ambient_dim=n,
        intrinsic_dim=n,
        embed_check=embed_check,
        tangent_projector=projector,
        retraction=lambda p, v: np.asarray(p, dtype=float) + np.asarray(v, dtype=float),
        sample_points=lambda rng, m: rng.uniform(-1.0, 1.0, size=(m, n)),
        closed_form_log=lambda p0, p1: np.asarray(p1, dtype=float) - np.asarray(p0, dtype=float),
        name=name,
    )


def _sphere_embedded(radius: float, name: str) -> EmbeddedManifold:
    def embed_check(p):
        return np.linalg.norm(p, axis=-1) - radius

    # f(p) = |p|^2 - r^2
    def gradient(p):
        return 2.0 * p

    def hessian_action(p, w):
        return 2.0 * w

    def retraction(p, v):
        q = np.asarray(p, dtype=float) + np.asarray(v, dtype=float)
        return radius * q / np.linalg.norm(q, axis=-1, keepdims=True)

    def log(p0, p1):
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        u0 = p0 / radius
        u1 = p1 / radius
        c = np.clip(np.einsum("...i,...i->...", u0, u1), -1.0, 1.0)
        w = u1 - c[..., None] * u0
        s = np.linalg.norm(w, axis=-1)
        antipodal = (s < 1e-12) & (c < 0.0)
        if np.any(antipodal):
            raise ShootingError(
                "log undefined for antipodal sphere points",
                sample=_first_bad_index(~antipodal),
            )
        theta = np.arctan2(s, c)
        factor = np.where(s > 1e-12, theta / np.where(s > 1e-12, s, 1.0), 1.0)
        return radius * factor[..., None] * w

    def sample(rng, m):
        g = rng.normal(size=(m, 3))
        return radius * g / np.linalg.norm(g, axis=-1, keepdims=True)

    return EmbeddedManifold(
        ambient_dim=3,
        intrinsic_dim=2,
        embed_check=embed_check,
        tangent_projector=_normal_projector(gradient),
        retraction=retraction,
        gradient=gradient,
        hessian_action=hessian_action,
        sample_points=sample,
        closed_form_log=log,
        name=name,
    )


def _sphere_chart(radius: float, name: str) -> ChartManifold:
    r2 = radius * radius

    def metric(x):
        th = np.asarray(x, dtype=float)[..., 0]
        g = np.zeros(np.shape(x)[:-1] + (2, 2))
        g[..., 0, 0] = r2
        g[..., 1, 1] = r2 * np.sin(th) ** 2
        return g

    def christoffel(x):
        th = np.asarray(x, dtype=float)[..., 0]
        G = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        G[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = 1.0 / np.tan(th)
        return G

    def jacobian(x):
        th = np.asarray(x, dtype=float)[..., 0]
        J = np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2))
        J[..., 0, 1, 1, 0] = -np.cos(2.0 * th)
        J[..., 1, 0, 1, 0] = J[..., 1, 1, 0, 0] = -1.0 / np.sin(th) ** 2
        return J

    def domain(x):
        th = np.asarray(x, dtype=float)[..., 0]
        return (th > POLE_BAND) & (th < np.pi - POLE_BAND)

    def embedding(x):
        x = np.asarray(x, dtype=float)
        th, ph = x[..., 0], x[..., 1]
        return radius * np.stack(
            [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1
        )

    def embedding_jacobian(x):
        x = np.asarray(x, dtype=float)
        th, ph = x[..., 0], x[..., 1]
        J = np.empty(x.shape[:-1] + (3, 2))
        J[..., 0, 0] = np.cos(th) * np.cos(ph)
        J[..., 0, 1] = -np.sin(th) * np.sin(ph)
        J[..., 1, 0] = np.cos(th) * np.sin(ph)
        J[..., 1, 1] = np.sin(th) * np.cos(ph)
        J[..., 2, 0] = -np.sin(th)
        J[..., 2, 1] = 0.0
        return radius * J

    ambient = _sphere_embedded(radius, name="")

    def log(x0, x1):
        p0 = embedding(x0)
        p1 = embedding(x1)
        va = ambient.closed_form_log(p0, p1)
        J = embedding_jacobian(x0)
        JtJ = np.einsum("...ia,...ib->...ab", J, J)
        Jtv = np.einsum("...ia,...i->...a", J, va)
        return np.linalg.solve(JtJ, Jtv[..., None])[..., 0]

    return ChartManifold(
        dim=2,
        metric=metric,
        christoffel=christoffel,
        christoffel_jacobian=jacobian,
        chart_domain=domain,
        embedding=embedding,
        embedding_jacobian=embedding_jacobian,
        closed_form_log=log,
        sample_box=(np.array([0.5, -2.5]), np.array([np.pi - 0.5, 2.5])),
        name=name,
    )


def _halfplane(name: str) -> ChartManifold:
    def metric(x):
        y = np.asarray(x, dtype=float)[..., 1]
        g = np.zeros(np.shape(x)[:-1] + (2, 2))
        g[..., 0, 0] = 1.0 / y**2
        g[..., 1, 1] = 1.0 / y**2
        return g

    def christoffel(x):
        y = np.asarray(x, dtype=float)[..., 1]
        G = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        G[..., 0, 0, 1] = G[..., 0, 1, 0] = -1.0 / y
        G[..., 1, 0, 0] = 1.0 / y
        G[..., 1, 1, 1] = -1.0 / y
        return G

    def jacobian(x):
        y = np.asarray(x, dtype=float)[..., 1]
        J = np.zeros(np.shape(x)[:-1] + (2, 2, 2, 2))
        J[..., 0, 0, 1, 1] = J[..., 0, 1, 0, 1] = 1.0 / y**2
        J[..., 1, 0, 0, 1] = -1.0 / y**2
        J[..., 1, 1, 1, 1] = 1.0 / y**2
        return J

    def domain(x):
        return np.asarray(x, dtype=float)[..., 1] > POLE_BAND

    def log(a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        a1, a2 = a[..., 0], a[..., 1]
        b1, b2 = b[..., 0], b[..., 1]
        sq = (a1 - b1) ** 2 + (a2 - b2) ** 2
        dist = np.arccosh(1.0 + sq / (2.0 * a2 * b2))
        dx = b1 - a1
        vertical = np.abs(dx) < 1e-14 * np.maximum(1.0, np.abs(a1))
        safe_dx = np.where(vertical, 1.0, dx)
        center = ((b1**2 + b2**2) - (a1**2 + a2**2)) / (2.0 * safe_dx)
        rad = np.hypot(a1 - center, a2)
        alpha_a = np.arctan2(a2, a1 - center)
        alpha_b = np.arctan2(b2, b1 - center)
        sgn = np.sign(alpha_b - alpha_a)
        circ = (dist * sgn * a2 / rad)[..., None] * np.stack([-a2, a1 - center], axis=-1)
        vert = np.stack([np.zeros_like(a2), a2 * np.log(b2 / a2)], axis=-1)
        return np.where(vertical[..., None], vert, circ)

    return ChartManifold(
        dim=2,
        metric=metric,
        christoffel=christoffel,
        christoffel_jacobian=jacobian,
        chart_domain=domain,
        closed_form_log=log,
        sample_box=(np.array([-1.0, 0.5]), np.array([1.0, 2.0])),
        name=name,
    )


def _paraboloid(name: str) -> EmbeddedManifold:
    def embed_check(p):
        p = np.asarray(p, dtype=float)
        return p[..., 2] - p[..., 0] ** 2 - p[..., 1] ** 2

    # f(p) = x^2 + y^2 - z
    def gradient(p):
        return np.stack([2.0 * p[..., 0], 2.0 * p[..., 1], -np.ones_like(p[..., 0])], axis=-1)

    def hessian_action(p, w):
        return np.stack([2.0 * w[..., 0], 2.0 * w[..., 1], np.zeros_like(w[..., 0])], axis=-1)

    def retraction(p, v):
        # closest point on z = x^2 + y^2; Newton on the 2-variable stationarity
        # system.  The iteration count is fixed for determinism; three reach
        # round-off from the O(dt^5) drift an RK4 step leaves to post_step.
        q = np.asarray(p, dtype=float) + np.asarray(v, dtype=float)
        a, b, c = q[..., 0], q[..., 1], q[..., 2]
        u, w = a.copy(), b.copy()
        for _ in range(3):
            s = u * u + w * w - c
            f1 = (u - a) + 2.0 * u * s
            f2 = (w - b) + 2.0 * w * s
            j11 = 1.0 + 2.0 * s + 4.0 * u * u
            j22 = 1.0 + 2.0 * s + 4.0 * w * w
            j12 = 4.0 * u * w
            det = j11 * j22 - j12 * j12
            u = u - (j22 * f1 - j12 * f2) / det
            w = w - (j11 * f2 - j12 * f1) / det
        return np.stack([u, w, u * u + w * w], axis=-1)

    def sample(rng, m):
        xy = rng.uniform(-0.8, 0.8, size=(m, 2))
        z = np.sum(xy**2, axis=-1, keepdims=True)
        return np.concatenate([xy, z], axis=-1)

    return EmbeddedManifold(
        ambient_dim=3,
        intrinsic_dim=2,
        embed_check=embed_check,
        tangent_projector=_normal_projector(gradient),
        retraction=retraction,
        gradient=gradient,
        hessian_action=hessian_action,
        sample_points=sample,
        name=name,
    )


def _positive(kind, noun: str) -> Callable:
    """Parser of a registry key that holds a positive, finite ``kind`` value."""

    def parse(key: str, text: str):
        try:
            value = kind(text)
        except ValueError:
            raise ValueError(f"invalid parameter {key}={text!r}: expected {noun}") from None
        if not math.isfinite(value):
            raise ValueError(f"invalid parameter {key}={value}: must be finite")
        if not value > 0:
            raise ValueError(f"invalid parameter {key}={value}: must be positive")
        return value

    return parse


def _rep(key: str, text: str) -> str:
    if text not in ("chart", "embedded"):
        raise ValueError(f"invalid parameter {key}={text!r}: expected chart or embedded")
    return text


def _flat(name: str, n: int, rep: str) -> Manifold:
    return _flat_chart(n, name) if rep == "chart" else _flat_embedded(n, name)


def _sphere(name: str, r: float, rep: str) -> Manifold:
    return _sphere_chart(r, name) if rep == "chart" else _sphere_embedded(r, name)


# name -> (description, {key: (parser, default text)}, builder(canonical name, **values))
_REGISTRY = {
    "flat": ("Euclidean R^n; keys: n (default 2), rep = chart | embedded (default chart)",
             {"n": (_positive(int, "an integer"), "2"), "rep": (_rep, "chart")}, _flat),
    "sphere": ("round sphere in R^3; keys: r > 0 (default 1.0), rep = chart | embedded "
               "(default embedded)",
               {"r": (_positive(float, "a number"), "1.0"), "rep": (_rep, "embedded")}, _sphere),
    "halfplane": ("hyperbolic upper half-plane, curvature -1; no keys", {}, _halfplane),
    "paraboloid": ("z = x^2 + y^2 embedded in R^3; no keys", {}, _paraboloid),
}


def list_manifolds():
    """Registry entries as (name, description) pairs."""
    return [(name, entry[0]) for name, entry in _REGISTRY.items()]


def _parse_kv(parts, allowed):
    kv = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"invalid parameter {part!r}: expected key=value")
        key, _, value = part.partition("=")
        if key not in allowed:
            raise ValueError(f"invalid parameter {key!r}: allowed keys are {sorted(allowed)}")
        if key in kv:
            raise ValueError(f"invalid parameter {key!r}: given twice")
        kv[key] = value
    return kv


def make_manifold(spec: str) -> Manifold:
    """Build a registry manifold from a string like ``sphere:r=1.0:rep=embedded``.

    The grammar is the registry name followed by colon-separated key=value
    pairs; see :func:`list_manifolds` for the available names and keys.
    The canonical name lists every key of the entry, defaults included.
    """
    parts = [p for p in str(spec).split(":") if p != ""]
    if not parts:
        raise ValueError("empty manifold string")
    if parts[0] not in _REGISTRY:
        raise ValueError(f"unknown manifold {parts[0]!r}; known: {', '.join(_REGISTRY)}")
    _, keys, build = _REGISTRY[parts[0]]
    kv = _parse_kv(parts[1:], keys)
    values = {key: parse(key, kv.get(key, default)) for key, (parse, default) in keys.items()}
    name = ":".join([parts[0]] + [f"{key}={value}" for key, value in values.items()])
    return build(name, **values)
