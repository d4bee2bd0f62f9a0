"""Finite-dimensional Riemannian targets and their pointwise geometry.

Two representations of a target manifold are supported:

* :class:`ChartManifold` works in local coordinates with a metric callback
  and (optionally analytic) Christoffel symbols.
* :class:`EmbeddedManifold` works with ambient coordinates.  Each
  embedded target is a level set f(p) = 0 of a function on the ambient
  space, declared only by f, its gradient and its Hessian action (or by
  none of them, for the whole ambient space).  The residual, the tangent
  projector, the retraction used for drift control and the dimension are
  all derived from these three.

Both classes offer the same pointwise interface, and every operator in
this package reaches the target only through it.  Each method is batched
over leading axes of ``(..., n)`` point arrays:

* ``point_dim`` -- length n of a point's coordinate vector;
* ``valid(x)`` -- per-point membership (chart domain, or a residual
  within ``ON_MANIFOLD_TOL``); ``require_valid(x, what)`` raises
  :class:`ChartBoundaryError` or :class:`OffManifoldError` instead;
* ``residual(x)`` -- distance to the level set to first order,
  |f| / |grad f| (zero for charts);
* ``inner(x, h, k)`` -- the metric g_x(h, k);
* ``project(x, v)`` -- orthogonal projection onto the tangent space (the
  identity for charts); ``tangent_basis(x)`` -- an orthonormal basis of it
  (the coordinate basis for charts);
* ``accel(x, v)`` -- the vertical part of the geodesic spray;
* ``connector(x, h, k, l)`` -- the connector of (x, h; k, l);
* ``transport_rhs(x, xdot, X)`` -- the parallel transport equation;
* ``curvature(x, h, k, l)`` -- the curvature tensor R(h, k) l, from the
  Christoffel symbols on a chart and by the Gauss equation on a level set;
* ``post_step(x_prev, x, v)`` -- the end of an integrator step: returns
  ``(x, v, ok)``.  ``ok`` is False when a row of x is not finite or not
  valid, and x and v then come back as given; otherwise the rows of x that
  moved are retracted and v is re-projected there (drift control, a no-op
  for charts).

This interface is also the API for single points: a point is an ``(n,)``
array, and its results are bitwise those of a one-row batch.  The
connector at a point is ``man.require_valid(x, what)`` then
``man.connector(x, h, k, l)``, and likewise for ``man.curvature``; the
spray is :func:`spray_accel`, the exponential map
``integrate_spray(man, x, h, steps)[0]`` and parallel transport along an
``(S, n)`` curve :func:`transport_along_samples`.  Fields of points go
through :mod:`mapgeom.mapspace`.  Two caveats:

* A chart's ``accel`` and ``transport_rhs`` give the same bits on
  C-ordered ``(m, n)`` vectors, but run on a slow path that mixes layouts
  with the sample-fastest Christoffel tensor (335 -> 581 us on the
  half-plane at m = 2048).  :func:`sample_fastest` converts; the
  integrator, the transport and the field operators already do.
* :func:`transport_along_samples` does not check that its points are
  valid; the field layer (:class:`mapgeom.mapspace.MapField`) does.

Sign conventions: ``christoffel`` callbacks return the classical
Levi-Civita symbols of the metric, the covariant derivative acts as
``DY.X + Gamma(X, Y)`` in coordinates, geodesics solve
``q'' + Gamma(q', q') = 0``, the connector maps ``(x, h; k, l)`` to
``(x, l + Gamma(k, h))``, and the curvature is
``R(X, Y) Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z``, so
the unit sphere has sectional curvature +1 in either representation.  On
an embedded target the connector is the tangent projection of l, and the
spray and transport equations use the derivative of the tangent projector
P = I - n n^T, n = grad f / |grad f|, in closed form: with g = grad f, H
the Hessian of f and a, b, c the products <g, X>, <g, H w> and <H w, X>,
each divided by <g, g>, DP[w] X = -(a H w + (c - 2 a b) g).  The
central difference of P that this replaces is kept as an independent
oracle in :mod:`mapgeom.verification`.

All manifold callbacks are vectorized: a point argument has shape
``(..., n)`` and results carry the same leading axes.  Use
:func:`from_pointwise` to wrap a plain single-point callback.  The
integrator, the transport and the registry charts lay their per-sample
arrays out with the samples fastest in memory (:func:`sample_fastest`);
a callback may return either layout, and results do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

    def valid(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.chart_domain is None:
            return np.ones(x.shape[:-1], dtype=bool)
        return np.asarray(self.chart_domain(x), dtype=bool)

    def require_valid(self, x, what: str):
        if not np.all(self.valid(x)):
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
        gamma = self.christoffel_eval(x)
        return np.asarray(l, dtype=float) + _gamma_pair(gamma, sample_fastest(k), sample_fastest(h))

    def transport_rhs(self, x, xdot, X) -> np.ndarray:
        return -_gamma_pair(self.christoffel_eval(x), xdot, X)

    def curvature(self, x, h, k, l) -> np.ndarray:
        """R(h, k) l from the Christoffel symbols and their derivatives."""
        h, k, l = (sample_fastest(a) for a in (h, k, l))
        gamma = self.christoffel_eval(x)
        dgamma = self.christoffel_jacobian_eval(x)  # (..., i, j, k, m)
        quad = _gamma_pair(gamma, h, _gamma_pair(gamma, k, l)) - _gamma_pair(
            gamma, k, _gamma_pair(gamma, h, l)
        )
        deriv = np.einsum("...ijkm,...m,...j,...k->...i", dgamma, h, k, l) - np.einsum(
            "...ijkm,...m,...j,...k->...i", dgamma, k, h, l
        )
        return quad + deriv

    def post_step(self, x_prev, x, v):
        return x, v, _all_valid(self, x)

    def random_points(self, rng, m: int) -> np.ndarray:
        if self.sample_box is None:
            raise ValueError("manifold has no sample_box for random sweeps")
        lo, hi = self.sample_box
        return rng.uniform(lo, hi, size=(m, self.dim))


@dataclass(frozen=True)
class EmbeddedManifold:
    """Target manifold given as a level set f(p) = 0 in Euclidean space.

    A target gives ``level_set`` (f, one scalar per point), ``gradient``
    (grad f) and ``hessian_action`` ((Hess f) w), or none of the three, in
    which case it is the whole ambient space and P = I.  Everything else is
    derived from them once:

    * ``residual(p) = |f(p)| / |grad f(p)|``, the first-order distance to
      the level set; it does not change when f is rescaled, and a point
      where grad f = 0 reads as infinitely far;
    * ``tangent_projector`` -- P = I - n n^T with n = grad f / |grad f|;
    * ``retraction(p, f=None, g=None)`` -- two Newton steps along grad f
      back onto f = 0, a retraction in the sense of Absil, Mahony &
      Sepulchre, *Optimization Algorithms on Matrix Manifolds* (2008),
      ch. 4; used only to control drift.  A caller that has f and grad f
      at p passes them as ``f`` and ``g`` for the first step.

    ``tangent_projector`` and ``retraction`` are fields only so that they
    can be instrumented (wrapped and passed back through
    ``dataclasses.replace``): leave them out and they are filled in from
    the level set.  A ``dataclasses.replace`` copy derives its own, from
    its own level set, unless a wrapped callable is passed for them.
    """

    ambient_dim: int
    level_set: Optional[Callable] = None
    gradient: Optional[Callable] = None
    hessian_action: Optional[Callable] = None
    sample_points: Optional[Callable] = None
    closed_form_log: Optional[Callable] = None
    name: Optional[str] = None
    tangent_projector: Optional[Callable] = field(default=None, repr=False, compare=False)
    retraction: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        given = [f is not None for f in (self.level_set, self.gradient, self.hessian_action)]
        if any(given) and not all(given):
            raise ValueError(
                "a level-set target needs all of level_set, gradient and hessian_action"
            )
        for name, derived in (("tangent_projector", self._projector),
                              ("retraction", self._newton_retraction)):
            given = getattr(self, name)
            if given is None or getattr(given, "__func__", None) is derived.__func__:
                object.__setattr__(self, name, derived)

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - (self.level_set is not None)

    @property
    def point_dim(self) -> int:
        return self.ambient_dim

    def _level(self, p) -> np.ndarray:
        f = np.asarray(self.level_set(p))
        if f.shape != p.shape[:-1]:
            raise ValueError(
                f"level_set must return one scalar per point: got shape {f.shape} "
                f"for points of shape {p.shape}"
            )
        return f

    def residual(self, p) -> np.ndarray:
        """First-order distance |f| / |grad f| to the level set, shape (...)."""
        p = np.asarray(p, dtype=float)
        if self.level_set is None:
            return np.zeros(p.shape[:-1])
        return _residual(self._level(p), self.gradient(p))

    def valid(self, p) -> np.ndarray:
        return self.residual(p) <= ON_MANIFOLD_TOL

    def require_valid(self, p, what: str):
        if not np.all(self.valid(p)):
            raise OffManifoldError(
                f"point off manifold: embedding residual of {what} above tolerance"
            )

    def inner(self, p, h, k) -> np.ndarray:
        return _dot(h, k)

    def _projector(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        eye = np.eye(self.ambient_dim)
        if self.level_set is None:
            return np.broadcast_to(eye, p.shape[:-1] + eye.shape).copy()
        g = self.gradient(p)
        return eye - g[..., :, None] * (g / _dot(g, g)[..., None])[..., None, :]

    def _newton_retraction(self, p, f=None, g=None) -> np.ndarray:
        q = np.asarray(p, dtype=float)
        if self.level_set is None:
            return q
        # Newton converges quadratically, so from a drift of at most
        # ON_MANIFOLD_TOL two steps reach round-off.  The count is fixed
        # rather than tested for convergence so that a row's result never
        # depends on the other rows of its batch.
        if f is None:
            f, g = self._level(q), self.gradient(q)
        q = q - (f / _dot(g, g))[..., None] * g
        g = self.gradient(q)
        return q - (self._level(q) / _dot(g, g))[..., None] * g

    def project(self, p, v) -> np.ndarray:
        P = np.asarray(self.tangent_projector(np.asarray(p, dtype=float)))
        return _dot(P, np.asarray(v, dtype=float)[..., None, :])

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
        """(DP(p)[w]) X = -(a H w + (c - 2 a b) g) from four dot products."""
        X = np.asarray(X, dtype=float)
        if self.level_set is None:
            return sample_fastest(X.shape)
        p = np.asarray(p, dtype=float)
        g = self.gradient(p)
        Hw = self.hessian_action(p, np.asarray(w, dtype=float))
        gg = _dot(g, g)
        a = _dot(g, X) / gg
        b = _dot(g, Hw) / gg
        c = _dot(Hw, X) / gg
        return (2.0 * a * b - c)[..., None] * g - a[..., None] * Hw

    def curvature(self, p, h, k, l) -> np.ndarray:
        """R(h, k) l = <Sk, l> Sh - <Sh, l> Sk by the Gauss equation.

        S w = P (Hess f) P w / |grad f| is the shape operator of the level
        set (do Carmo, *Riemannian Geometry*, ch. 6).  Without a level set
        the target is the flat ambient space and R = 0.
        """
        if self.level_set is None:
            return np.zeros(np.shape(l))
        P = np.asarray(self.tangent_projector(p))
        g = self.gradient(p)
        gnorm = np.sqrt(_dot(g, g))[..., None]

        def shape_op(w):
            Pw = np.einsum("...ij,...j->...i", P, w)
            return np.einsum("...ij,...j->...i", P, self.hessian_action(p, Pw)) / gnorm

        Sh, Sk = shape_op(h), shape_op(k)
        return _dot(Sk, l)[..., None] * Sh - _dot(Sh, l)[..., None] * Sk

    def post_step(self, p_prev, p, v):
        if not np.isfinite(p).all():
            return p, v, False
        if self.level_set is None:
            return p, v, True
        # f and grad f at p serve both the test and the first Newton step
        f, g = self._level(p), self.gradient(p)
        if not (_residual(f, g) <= ON_MANIFOLD_TOL).all():
            return p, v, False
        q = self.retraction(p, f, g)
        moved = (p != p_prev).any(axis=-1)
        if moved.all():
            return q, self.project(q, v), True
        # retract only rows that moved, so zero-velocity samples stay
        # bitwise fixed
        moved = moved[..., None]
        q = np.where(moved, q, p)
        return q, np.where(moved, self.project(q, v), v), True

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
    out = None
    for m in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[..., m] += delta
        xm[..., m] -= delta
        df = (np.asarray(fn(xp)) - np.asarray(fn(xm)))
        if out is None:
            out = sample_fastest(df.shape + (n,))
        out[..., m] = df / (2.0 * delta[(...,) + (None,) * (df.ndim - delta.ndim)])
    return out


def christoffel_from_metric(man: ChartManifold, x) -> np.ndarray:
    """Classical Levi-Civita symbols from metric derivatives.

    Returns ``G[..., i, j, k] = 1/2 g^{il} (d_j g_lk + d_k g_lj - d_l g_jk)``
    using central differences with step ``cbrt(eps) * max(1, |x|)``.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(man.valid(x)):
        raise ChartBoundaryError("chart boundary: point outside chart domain")
    n = x.shape[-1]
    delta = _fd_scale(x)
    for m in range(n):
        for sign in (+1.0, -1.0):
            xs = x.copy()
            xs[..., m] += sign * delta
            if not np.all(man.valid(xs)):
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
    return sample_fastest(0.5 * np.einsum("...il,...ljk->...ijk", ginv, t1 + t2 - t3))


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products of (..., n) arrays, shape (...).

    The products are added in index order, one component at a time, so a
    row's result does not depend on the layout of its batch: NumPy's own
    reductions sum a contiguous axis pairwise from n = 8 on, and einsum's
    order depends on the layout at any n.
    """
    p = a * b
    out = p[..., 0]
    for i in range(1, p.shape[-1]):
        out = out + p[..., i]
    return out


def _residual(f, g) -> np.ndarray:
    """|f| / |g| per point, +inf where g = 0: such a point is never valid."""
    gnorm = np.sqrt(_dot(g, g))
    return np.divide(np.abs(f), gnorm, out=np.full(gnorm.shape, np.inf), where=gnorm > 0.0)


def _gamma_pair(gamma, a, b) -> np.ndarray:
    """Contract Christoffel symbols with two vectors: Gamma(a, b)."""
    return np.einsum("...ijk,...j,...k->...i", gamma, a, b)


def sample_fastest(a, axis: int = 0, copy: bool = False) -> np.ndarray:
    """``a`` as a float array laid out with its samples fastest in memory.

    This is the layout of every per-sample array that the RK4 loop and the
    pointwise kernels touch: axis ``axis`` (the samples) has a stride of
    one element and the other axes follow it in Fortran order.  An
    ``(m, ...)`` array is thus Fortran-ordered, and each ``[j]`` of a
    ``(T, m, n)`` stack laid out with ``axis=1`` is an ``(m, n)`` array of
    this layout.  NumPy's innermost loop then runs over the long sample
    axis, not over the n = 2 or 3 components of a point.

    ``a`` is returned itself when it is laid out so already, unless
    ``copy`` is set.  A tuple ``a`` is a shape, and gives zeros.
    """
    if axis:  # move the samples to the front, lay that out, move them back
        if isinstance(a, tuple):
            front = a[axis:axis + 1] + a[:axis] + a[axis + 1:]
        else:
            front = np.moveaxis(np.asarray(a, dtype=float), axis, 0)
        return np.moveaxis(sample_fastest(front, copy=copy), 0, axis)
    if isinstance(a, tuple):
        return np.zeros(a, order="F")
    a = np.asarray(a, dtype=float)
    return np.array(a, order="F") if copy else np.asfortranarray(a)


# ---------------------------------------------------------------------------
# geodesic spray and exponential map


# not inlined: perfbench traces it by name as the span manifold.spray_accel,
# which its per-layer metrics and REQUIRED in tests/test_trace_contract.py read
def spray_accel(man: Manifold, x, v) -> np.ndarray:
    """Vertical part of the geodesic spray at (x, v)."""
    return man.accel(x, v)


def _first_bad_index(ok: np.ndarray):
    """Index of the first False entry, or None for scalar/empty data."""
    if ok.ndim == 0:
        return None
    bad = np.argwhere(~ok)
    return None if bad.size == 0 else int(bad[0][0])


def _all_valid(man: Manifold, x) -> bool:
    """Whether every row of x is finite and valid, reduced to one flag."""
    return bool(np.isfinite(x).all() and man.valid(x).all())


def _exit_error(man: Manifold, x, t: float, step: int, steps: int) -> DomainExitError:
    """The error for a state x with a row that is not finite or not valid.

    It names the first such row and why it failed: a non-finite state, a
    level-set residual above ``ON_MANIFOLD_TOL`` (after a step, a step too
    long for the drift control to undo), or a point outside the chart.
    """
    finite = np.all(np.isfinite(x), axis=-1)
    safe = np.where(finite[..., None], x, 0.0)  # keep inf and NaN out of the callbacks
    ok = finite & man.valid(safe)
    sample = _first_bad_index(ok)
    row = () if sample is None else (sample,)
    residual = man.residual(safe)[row]
    when = f"t={t:.6g} (step {step} of {steps})"
    if not finite[row]:
        reason = f"is not finite at {when}"
    elif residual > ON_MANIFOLD_TOL and step == 0:
        reason = (f"starts off the level set at {when}: residual {residual:.3g} > "
                  f"{ON_MANIFOLD_TOL:g}")
    elif residual > ON_MANIFOLD_TOL:
        reason = (f"took a step too long at {when}: level-set residual {residual:.3g} > "
                  f"{ON_MANIFOLD_TOL:g} before retraction; use more than {steps} steps")
    else:
        reason = f"left domain at {when}"
    of = "" if sample is None else f" of sample {sample}"
    return DomainExitError(f"geodesic{of} {reason}", time=t, sample=sample, reason=reason)


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
    After every step the target's ``post_step`` checks the new state and
    controls drift: embedded targets are retracted and the velocity is
    re-projected onto the tangent space.  A state that is not finite or
    not valid raises :class:`DomainExitError` naming the first such sample
    and why.
    """
    require_count("steps", steps)
    x = sample_fastest(x0)
    v = sample_fastest(v0)
    if not _all_valid(man, x):
        raise _exit_error(man, x, 0.0, 0, steps)
    dt = 1.0 / steps
    xs = vs = None
    if record_every is not None:
        # (snapshot, sample, component) stacks whose [j] are sample-fastest
        snaps = steps // record_every + 1
        xs = sample_fastest((snaps,) + x.shape, axis=1)
        vs = sample_fastest((snaps,) + v.shape, axis=1)
        xs[0], vs[0] = x, v
    # an overflow or a NaN shows as a state that post_step finds not finite,
    # and the error then names the sample; NumPy's warnings would come first
    with np.errstate(all="ignore"):
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
            x, v, ok = man.post_step(x, x_new, v)
            if not ok:
                raise _exit_error(man, x_new, (s + 1) * dt, s + 1, steps)
            if xs is not None and (s + 1) % record_every == 0:
                j = (s + 1) // record_every
                xs[j], vs[j] = x, v
    if xs is not None:
        return xs, vs
    return x, v


# ---------------------------------------------------------------------------
# curvature


def sectional_curvature(man: Manifold, x, h, k) -> np.ndarray:
    """g(R(h,k)k, h) / (|h|^2 |k|^2 - g(h,k)^2).

    Raises ``ValueError`` naming the first sample where h and k span no
    plane (the denominator is 0 or not finite).
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    man.require_valid(x, "curvature base point")
    R = man.curvature(x, h, k, k)
    den = man.inner(x, h, h) * man.inner(x, k, k) - man.inner(x, h, k) ** 2
    ok = np.atleast_1d(np.isfinite(den) & (den != 0.0))
    if not np.all(ok):
        raise ValueError(f"sectional curvature: h and k span no plane at sample "
                         f"{_first_bad_index(ok)}")
    return man.inner(x, R, h) / den


# ---------------------------------------------------------------------------
# parallel transport


# not inlined: perfbench traces it by name as the span manifold.transport_ode_rhs,
# which its per-layer metrics and REQUIRED in tests/test_trace_contract.py read
def transport_ode_rhs(man: Manifold, x, xdot, X) -> np.ndarray:
    """Right-hand side of the parallel transport equation d X / ds."""
    return man.transport_rhs(x, xdot, X)


def transport_along_samples(man: Manifold, points: np.ndarray, v0: np.ndarray) -> np.ndarray:
    """Parallel transport along a sampled curve, one RK4 step per segment.

    ``points`` has shape (S, ..., n) with the time axis first; accuracy is
    controlled by the sampling density.  Transport does not depend on the
    time parametrization, only on the path.
    """
    points = sample_fastest(points, axis=1)  # one conversion, so each points[i] is a view
    X = sample_fastest(v0, copy=True)
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


# ---------------------------------------------------------------------------
# registry of built-in targets


def _flat_chart(n: int, name: str) -> ChartManifold:
    eye = np.eye(n)

    def metric(x):
        return np.broadcast_to(eye, np.shape(x)[:-1] + (n, n)).copy()

    def christoffel(x):
        return sample_fastest(np.shape(x)[:-1] + (n, n, n))

    def jacobian(x):
        return sample_fastest(np.shape(x)[:-1] + (n, n, n, n))

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
    return EmbeddedManifold(
        ambient_dim=n,
        sample_points=lambda rng, m: rng.uniform(-1.0, 1.0, size=(m, n)),
        closed_form_log=lambda p0, p1: np.asarray(p1, dtype=float) - np.asarray(p0, dtype=float),
        name=name,
    )


def _sphere_embedded(radius: float, name: str) -> EmbeddedManifold:
    # f(p) = |p|^2 - r^2
    def level_set(p):
        return _dot(p, p) - radius * radius

    def gradient(p):
        return 2.0 * p

    def hessian_action(p, w):
        return 2.0 * w

    def log(p0, p1):
        p0 = np.asarray(p0, dtype=float)
        p1 = np.asarray(p1, dtype=float)
        u0 = p0 / radius
        u1 = p1 / radius
        c = np.clip(_dot(u0, u1), -1.0, 1.0)
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
        level_set=level_set,
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
        s, c = np.sin(th), np.cos(th)
        G = sample_fastest(np.shape(x)[:-1] + (2, 2, 2))
        G[..., 0, 1, 1] = -s * c
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = c / s
        return G

    def jacobian(x):
        th = np.asarray(x, dtype=float)[..., 0]
        s = np.sin(th)
        J = sample_fastest(np.shape(x)[:-1] + (2, 2, 2, 2))
        J[..., 0, 1, 1, 0] = -np.cos(2.0 * th)
        J[..., 1, 0, 1, 0] = J[..., 1, 1, 0, 0] = -1.0 / (s * s)
        return J

    def domain(x):
        th = np.asarray(x, dtype=float)[..., 0]
        return (th > POLE_BAND) & (th < np.pi - POLE_BAND)

    def trig(x):
        x = np.asarray(x, dtype=float)
        th, ph = x[..., 0], x[..., 1]
        return np.sin(th), np.cos(th), np.sin(ph), np.cos(ph)

    def embedding(x):
        st, ct, sp, cp = trig(x)
        return radius * np.stack([st * cp, st * sp, ct], axis=-1)

    def embedding_jacobian(x):
        st, ct, sp, cp = trig(x)
        J = np.empty(np.shape(x)[:-1] + (3, 2))
        J[..., 0, 0] = ct * cp
        J[..., 0, 1] = -st * sp
        J[..., 1, 0] = ct * sp
        J[..., 1, 1] = st * cp
        J[..., 2, 0] = -st
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
        inv2 = 1.0 / np.asarray(x, dtype=float)[..., 1] ** 2
        g = np.zeros(np.shape(x)[:-1] + (2, 2))
        g[..., 0, 0] = g[..., 1, 1] = inv2
        return g

    def christoffel(x):
        inv = 1.0 / np.asarray(x, dtype=float)[..., 1]
        G = sample_fastest(np.shape(x)[:-1] + (2, 2, 2))
        G[..., 1, 0, 0] = inv
        G[..., 0, 0, 1] = G[..., 0, 1, 0] = G[..., 1, 1, 1] = -inv
        return G

    def jacobian(x):
        inv2 = 1.0 / np.asarray(x, dtype=float)[..., 1] ** 2
        J = sample_fastest(np.shape(x)[:-1] + (2, 2, 2, 2))
        J[..., 0, 0, 1, 1] = J[..., 0, 1, 0, 1] = J[..., 1, 1, 1, 1] = inv2
        J[..., 1, 0, 0, 1] = -inv2
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
    # f(p) = x^2 + y^2 - z
    def level_set(p):
        return p[..., 0] ** 2 + p[..., 1] ** 2 - p[..., 2]

    def gradient(p):
        g = 2.0 * p
        g[..., 2] = -1.0
        return g

    def hessian_action(p, w):
        hw = 2.0 * w
        hw[..., 2] = 0.0
        return hw

    def sample(rng, m):
        xy = rng.uniform(-0.8, 0.8, size=(m, 2))
        z = np.sum(xy**2, axis=-1, keepdims=True)
        return np.concatenate([xy, z], axis=-1)

    return EmbeddedManifold(
        ambient_dim=3,
        level_set=level_set,
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
