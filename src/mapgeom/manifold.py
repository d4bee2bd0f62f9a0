"""Finite-dimensional Riemannian targets and their pointwise geometry.

Two representations of a target manifold are supported:

* :class:`ChartManifold` works in local coordinates.  Each chart target
  declares three callbacks, all in closed form: the metric, its
  Christoffel symbols Gamma and their derivatives dGamma.  The spray,
  connector, transport and curvature read only Gamma and dGamma; the
  metric serves the inner product, and
  :func:`mapgeom.verification.oracle_christoffel` checks a hand-written
  Gamma against a five-point stencil of it.
* :class:`EmbeddedManifold` works with ambient coordinates.  Each
  embedded target is a level set f(p) = 0 of a function on the ambient
  space, a hypersurface declared only by f, its gradient and its Hessian
  action; flat space is a chart target.  The residual, the tangent
  projection, the retraction used for drift control and the dimension
  (one less than the ambient one) are all derived from these three.  The
  tangent projection is the rank-one P v = v - (<g, v> / <g, g>) g,
  g = grad f, written once (``_tangent_part``); no (..., n, n) projector
  matrix is built except in ``tangent_basis``.

Both classes offer the same pointwise interface, and every operator in
this package reaches the target only through it.  Each method is batched
over leading axes of ``(..., n)`` point arrays:

* ``point_dim`` -- length n of a point's coordinate vector;
* ``valid(x)`` -- per-point membership (chart domain, or a residual
  within ``ON_MANIFOLD_TOL``); ``require_valid(x, what)`` -- raises
  :class:`ChartBoundaryError` or :class:`OffManifoldError` instead, naming
  the first invalid sample and, on a level set, its residual;
* ``residual(x)`` -- distance to the level set to first order,
  |f| / |grad f| (zero for charts);
* ``inner(x, h, k)`` -- the metric g_x(h, k);
* ``project(x, v)`` -- orthogonal projection onto the tangent space (the
  identity for charts); ``tangent_basis(x)`` -- an orthonormal basis of it
  (the coordinate basis for charts);
* ``connector(x, h, k, l)`` -- the connector of (x, h; k, l);
* ``transport_rhs(x, xdot, X)`` -- the parallel transport equation, the
  one Christoffel action of a target: at X = xdot it is the vertical part
  of the geodesic spray, as a geodesic is a curve whose velocity is
  parallel along itself;
* ``curvature(x, h, k, l)`` -- the curvature tensor R(h, k) l, from the
  Christoffel symbols on a chart and by the Gauss equation on a level set;
* ``post_step(x_prev, x, v)`` -- the end of an integrator step: returns
  ``(x, v, ok)``.  ``ok`` is False when a row of x is not finite or not
  valid, and x and v then come back as given; otherwise the rows of x that
  moved are retracted by two Newton steps, and v is re-projected by the
  rank-one P v with grad f at the last Newton iterate (drift control, a
  no-op for charts);
* ``random_points(rng, m)`` -- m points of the target for random sweeps,
  drawn from the chart's ``sample_box`` or the level set's
  ``sample_points``.

This interface is also the API for single points: a point is an ``(n,)``
array, and its results are bitwise those of a one-row batch.  The
connector at a point is ``man.require_valid(x, what)`` then
``man.connector(x, h, k, l)``, and likewise for ``man.curvature``; the
spray is :func:`spray_accel`, the exponential map
``integrate_spray(man, x, h, steps)[0]`` and parallel transport along an
``(S, n)`` curve :func:`transport_along_samples`.  Both ODEs step through
the one RK4 formula, :func:`rk4_step`, over a pair state (x, v); each
caller ends its own step.  A certified step count climbs
:func:`step_doubling_ladder`, whose rungs get their twins at half the
steps from :func:`integrate_twin`: the spray is quadratic in the velocity,
so one run of N steps gives the runs at N and N/2 bit for bit, and, in
:func:`spray_rungs`, the first half of the run at 2N as well.  Fields of
points go through :mod:`mapgeom.mapspace`.  Two caveats:

* A chart's ``transport_rhs`` (and so the spray) gives the same bits on
  C-ordered ``(m, n)`` vectors, but runs on a slow path that mixes layouts
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
``(..., n)`` and results carry the same leading axes.  They are called on
their arguments as given and their results are used as returned, so a
callback that may see lists converts them itself.  The integrator, the
transport and the registry charts lay their per-sample arrays out with
the samples fastest in memory (:func:`sample_fastest`); a callback may
return either layout, and results do not depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    ChartBoundaryError,
    DomainExitError,
    OffManifoldError,
    ShootingError,
)

POLE_BAND = 1e-3  # excluded band around chart singularities
ON_MANIFOLD_TOL = 1e-6  # largest embedding residual of a point on the manifold
# a certified RK4 step count doubles from LADDER_START up to LADDER_CAP
LADDER_START, LADDER_CAP = 32, 1024
# the most samples whose first ladder rung carries the run at twice its steps:
# up to 3 * 8 rows an RK4 step costs about what it costs at 8, so the carried
# rows are nearly free, while from 40 to 60 rows a step costs 2-7 % more
CARRY_SAMPLES = 8


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
        Callback ``x -> (..., n, n, n)`` with ``G[..., i, j, k]`` the
        classical symbols of ``metric``, symmetric in (j, k).  The oracle
        :func:`mapgeom.verification.oracle_christoffel` (``standard_checks``'
        ``christoffel_vs_metric_stencil``) checks it against the metric.
    christoffel_jacobian:
        Callback ``x -> (..., n, n, n, n)``, the derivative of
        ``christoffel``, derivative index last.  ``standard_checks``'
        ``curvature_vs_commutator`` checks the curvature built from it.
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
    christoffel: Callable
    christoffel_jacobian: Callable
    chart_domain: Optional[Callable] = None
    embedding: Optional[Callable] = None
    embedding_jacobian: Optional[Callable] = None
    closed_form_log: Optional[Callable] = None
    sample_box: Optional[tuple] = None
    name: Optional[str] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    @property
    def point_dim(self) -> int:
        return self.dim

    def valid(self, x) -> np.ndarray:
        if self.chart_domain is None:
            return np.ones(np.shape(x)[:-1], dtype=bool)
        return np.asarray(self.chart_domain(x), dtype=bool)

    def require_valid(self, x, what: str):
        ok = self.valid(x)
        if not np.all(ok):
            raise ChartBoundaryError(
                f"chart boundary: {what}{_of_sample(ok)} outside the chart domain")

    def residual(self, x) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1])

    def inner(self, x, h, k) -> np.ndarray:
        return np.einsum("...ij,...i,...j->...", np.asarray(self.metric(x)), h, k)

    def project(self, x, v) -> np.ndarray:
        return np.asarray(v, dtype=float)

    def tangent_basis(self, x) -> np.ndarray:
        return np.broadcast_to(np.eye(self.dim), np.shape(x)[:-1] + (self.dim, self.dim))

    def connector(self, x, h, k, l) -> np.ndarray:
        gamma = self.christoffel(x)
        return np.asarray(l, dtype=float) + _gamma_pair(gamma, sample_fastest(k), sample_fastest(h))

    def transport_rhs(self, x, xdot, X) -> np.ndarray:
        return -_gamma_pair(self.christoffel(x), xdot, X)

    def curvature(self, x, h, k, l) -> np.ndarray:
        """R(h, k) l from the Christoffel symbols and their derivatives."""
        h, k, l = (sample_fastest(a) for a in (h, k, l))
        gamma = self.christoffel(x)
        dgamma = self.christoffel_jacobian(x)  # (..., i, j, k, m)
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
    (grad f) and ``hessian_action`` ((Hess f) w), all three required; the
    target is a hypersurface, of dimension ``ambient_dim - 1``.  Everything
    else is derived from them once:

    * ``residual(p) = |f(p)| / |grad f(p)|``, the first-order distance to
      the level set; it does not change when f is rescaled, and a point
      where grad f = 0 reads as infinitely far;
    * ``tangent_projector(p, v)`` -- the tangent projection
      P v = v - (<g, v> / <g, g>) g with g = grad f(p), the rank-one form
      of P = I - n n^T, n = g / |g|; it evaluates grad f once and builds
      no (..., n, n) matrix.  ``project`` (and so the connector),
      ``post_step`` and ``curvature`` use the same formula; only
      ``tangent_basis`` forms P, once per call, to take its SVD;
    * ``retraction(p, f=None, g=None, gg=None)`` -- one Newton step along
      grad f towards f = 0, p - (f / <g, g>) g; ``post_step`` applies it
      twice, a retraction in the sense of Absil, Mahony & Sepulchre,
      *Optimization Algorithms on Matrix Manifolds* (2008), ch. 4, used
      only to control drift.  A caller that has f, g = grad f and <g, g>
      at p passes them as ``f``, ``g`` and ``gg``.

    ``tangent_projector`` and ``retraction`` are fields only so that they
    can be instrumented (wrapped and passed back through
    ``dataclasses.replace``): leave them out and they are filled in from
    the level set.  A ``dataclasses.replace`` copy derives its own, from
    its own level set, unless a wrapped callable is passed for them.
    """

    ambient_dim: int
    level_set: Callable
    gradient: Callable
    hessian_action: Callable
    sample_points: Optional[Callable] = None
    closed_form_log: Optional[Callable] = None
    name: Optional[str] = None
    tangent_projector: Optional[Callable] = field(default=None, repr=False, compare=False)
    retraction: Optional[Callable] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name, derived in (("tangent_projector", self._projection),
                              ("retraction", self._newton_step)):
            given = getattr(self, name)
            if given is None or getattr(given, "__func__", None) is derived.__func__:
                object.__setattr__(self, name, derived)

    @property
    def intrinsic_dim(self) -> int:
        return self.ambient_dim - 1

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
        f, g = self._level(p), self.gradient(p)
        return _residual(f, _dot(g, g))

    def valid(self, p) -> np.ndarray:
        return self.residual(p) <= ON_MANIFOLD_TOL

    def require_valid(self, p, what: str):
        r = self.residual(p)
        ok = r <= ON_MANIFOLD_TOL
        if not np.all(ok):
            first = r.flat[np.argmin(ok)]  # the residual at the first False of ok
            raise OffManifoldError(f"point off manifold: {what}{_of_sample(ok)}: embedding "
                                   f"residual {first:.3g} > {ON_MANIFOLD_TOL:g}")

    def inner(self, p, h, k) -> np.ndarray:
        return _dot(h, k)

    def _projection(self, p, v) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        return _tangent_part(self.gradient(p), v)

    def _newton_step(self, p, f=None, g=None, gg=None) -> np.ndarray:
        """The derived ``retraction``: one Newton step p - (f / <g, g>) g towards f = 0."""
        p = np.asarray(p, dtype=float)
        if f is None:
            f, g = self._level(p), self.gradient(p)
            gg = _dot(g, g)
        return p - (f / gg)[..., None] * g

    def project(self, p, v) -> np.ndarray:
        return self.tangent_projector(p, v)

    def tangent_basis(self, p) -> np.ndarray:
        """Orthonormal tangent bases, shape (..., ambient_dim, intrinsic_dim).

        The left singular vectors of P, whose rows P e_j are projected all
        at once; the one place where the package forms the matrix.
        """
        P = self.project(np.asarray(p, dtype=float)[..., None, :], np.eye(self.ambient_dim))
        u, _, _ = np.linalg.svd(P)
        return u[..., :, : self.intrinsic_dim]

    def connector(self, p, h, k, l) -> np.ndarray:
        return self.project(p, l)

    def transport_rhs(self, p, pdot, X) -> np.ndarray:
        """(DP(p)[w]) X = -(a H w + (c - 2 a b) g), w = pdot, from four dot products.

        b and c share one divide: (2 a b - c) = (2 a <g, H w> - <H w, X>) / <g, g>.
        """
        X = np.asarray(X, dtype=float)
        p = np.asarray(p, dtype=float)
        g = self.gradient(p)
        Hw = self.hessian_action(p, np.asarray(pdot, dtype=float))
        gg = _dot(g, g)
        a = _dot(g, X) / gg
        return ((2.0 * a * _dot(g, Hw) - _dot(Hw, X)) / gg)[..., None] * g - a[..., None] * Hw

    def curvature(self, p, h, k, l) -> np.ndarray:
        """R(h, k) l = <Sk, l> Sh - <Sh, l> Sk by the Gauss equation.

        S w = P (Hess f) P w / |grad f| is the shape operator of the level
        set (do Carmo, *Riemannian Geometry*, ch. 6).
        """
        g = self.gradient(p)
        gnorm = np.sqrt(_dot(g, g))[..., None]

        def shape_op(w):  # index-order row dots, so the input layout leaves no trace
            return _tangent_part(g, self.hessian_action(p, _tangent_part(g, w))) / gnorm

        Sh, Sk = shape_op(h), shape_op(k)
        return _dot(Sk, l)[..., None] * Sh - _dot(Sh, l)[..., None] * Sk

    def post_step(self, p_prev, p, v):
        if not _all(np.isfinite(p)):
            return p, v, False
        # f, grad f and <grad f, grad f> at p serve both the test and the
        # first Newton step.  The test is valid()'s, residual <= tol: inside
        # the integrator's errstate a zero gradient gives inf or NaN for
        # _residual's inf, and fails it all the same
        f, g = self._level(p), self.gradient(p)
        gg = _dot(g, g)
        if not _all(np.abs(f) / np.sqrt(gg) <= ON_MANIFOLD_TOL):
            return p, v, False
        # Newton converges quadratically, so from a drift of at most
        # ON_MANIFOLD_TOL two steps reach round-off.  The count is fixed
        # rather than tested for convergence so that a row's result never
        # depends on the other rows of its batch.
        q = self.retraction(p, f, g, gg)
        g = self.gradient(q)
        gg = _dot(g, g)
        q = self.retraction(q, self._level(q), g, gg)
        # P v with grad f at the last Newton iterate, by the helper, not the
        # hook, so an RK4 step makes no tangent_projector call
        w = _tangent_part(g, v, gg)
        changed = p != p_prev
        if _all(changed):  # every row moved, in every coordinate
            return q, w, True
        # retract and re-project only rows that moved, so zero-velocity
        # samples stay bitwise fixed
        moved = changed.any(axis=-1)[..., None]
        return np.where(moved, q, p), np.where(moved, w, v), True

    def random_points(self, rng, m: int) -> np.ndarray:
        if self.sample_points is None:
            raise ValueError("manifold has no point sampler for random sweeps")
        return self.sample_points(rng, m)


Manifold = ChartManifold | EmbeddedManifold


# ---------------------------------------------------------------------------
# row-wise kernels


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products of (..., n) arrays, shape (...).

    The products are added in index order, so a row's result does not
    depend on the layout of its batch.  NumPy's own reduction adds fewer
    than 8 terms in index order in any layout, and sums a contiguous axis
    pairwise from n = 8 on, so there the components are added one at a
    time; einsum's order depends on the layout at any n.  They are added
    one at a time on a contiguous component axis of rows too (C-ordered
    fields), which NumPy reduces one short row at a time, 5-8x slower
    than a column at a time; the reduction serves sample-fastest rows.
    """
    p = a * b
    if p.shape[-1] < 8 and (p.ndim == 1 or p.strides[-1] != p.itemsize):
        return np.add.reduce(p, axis=-1)
    out = p[..., 0]
    for i in range(1, p.shape[-1]):
        out = out + p[..., i]
    return out


def _all(ok) -> bool:
    """Whether every entry of the boolean array ``ok`` is True: ``ok.all()``
    at a third of its cost on the few-row arrays of a narrow RK4 step."""
    return np.count_nonzero(ok) == ok.size


def _tangent_part(g, v, gg=None) -> np.ndarray:
    """P v = v - (<g, v> / <g, g>) g: v without its component along g, row by row.

    ``gg`` is <g, g> when the caller has it.
    """
    return v - (_dot(g, v) / (_dot(g, g) if gg is None else gg))[..., None] * g


def _residual(f, gg) -> np.ndarray:
    """|f| / |g| per point from gg = <g, g>, +inf where g = 0: such a point is never valid."""
    gnorm = np.sqrt(gg)
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
    """Vertical part of the geodesic spray at (x, v): the transport equation at X = v."""
    return man.transport_rhs(x, v, v)


def _first_bad_index(ok: np.ndarray):
    """Index of the first False entry, or None for scalar/empty data.

    A 0-d ``ok`` has no index: ``np.argwhere`` gives it an empty row.
    """
    bad = np.argwhere(~ok)
    return None if bad.size == 0 else int(bad[0][0])


def _of_sample(ok: np.ndarray) -> str:
    """The text " at sample i" for the first False entry i of ``ok``; empty for a point."""
    sample = _first_bad_index(ok)
    return "" if sample is None else f" at sample {sample}"


def _all_valid(man: Manifold, x) -> bool:
    """Whether every row of x is finite and valid, reduced to one flag."""
    return _all(np.isfinite(x)) and _all(man.valid(x))


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
    when = _when(t, step, steps)
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


def _when(t: float, step: int, steps: int) -> str:
    """The time and step of a state in an exit message."""
    return f"t={t:.6g} (step {step} of {steps})"


def _exit_in_run(exc: DomainExitError, calls: int, sample: int, steps: int,
                 first: int) -> DomainExitError:
    """``exc``, raised by a call of ``calls`` steps, told for the run of ``steps`` steps
    that began that call at its step ``first``: the field sample, and that run's own
    time and step (see :func:`integrate_twin`)."""
    was = round(exc.time * calls)  # the call's step; its time is that times 1 / calls
    step = first + was
    t = step * (1.0 / steps)
    reason = exc.reason.replace(_when(exc.time, was, calls), _when(t, step, steps)).replace(
        f"use more than {calls} steps", f"use more than {steps} steps")
    return DomainExitError(f"geodesic of sample {sample} {reason}", time=t, sample=sample,
                           reason=reason)


def require_count(name: str, value, least: int = 1):
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``least``.

    Python and NumPy integers count; floats and bools do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def rk4_step(f: Callable, x, v, dt: float):
    """One classical RK4 step of the system (x, v)' = f(x, v) over dt.

    ``f(x, v)`` returns the pair ``(x', v')``.  The stage states are
    ``x + h kx`` and ``v + h kv``, with h = dt / 2 at the two middle stages
    and h = dt at the last, and the step returns ``x + (dt/6)(k1x + 2 k2x + 2 k3x + k4x)`` and the
    same in v (Hairer, Norsett & Wanner, *Solving ODEs I*, II.1).  It is
    the one RK4 formula of the package: :func:`integrate_spray` steps the
    geodesic spray through it and :func:`transport_along_samples` the
    parallel transport equation.  Each caller ends its own step.
    """
    h = 0.5 * dt
    k1x, k1v = f(x, v)
    k2x, k2v = f(x + h * k1x, v + h * k1v)
    k3x, k3v = f(x + h * k2x, v + h * k2v)
    k4x, k4v = f(x + dt * k3x, v + dt * k3v)
    return (x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))


def step_doubling_error(fine, coarse) -> np.ndarray:
    """Per-sample RK4 error estimate from one integration at two step counts.

    ``fine`` and ``coarse`` are the ``(m, n)`` results at N and N/2 steps
    (or any two quantities that differ from them by the same offset, such
    as endpoint residuals against one target).  Returns
    ``max_i |fine - coarse| * 16/15`` per sample: Richardson's estimate of
    the N/2-step error, which bounds the N-step error while the h^4 term
    dominates (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4).
    """
    return np.max(np.abs(fine - coarse), axis=1) * (16.0 / 15.0)


def steps_needed(n: int, est, tol: float):
    """n (est / tol)^(1/4): the step count at which RK4's h^4 law brings an
    estimate ``est`` at n steps down to ``tol``."""
    return n * (est / tol) ** 0.25


def step_doubling_ladder(run, tol: float):
    """Yield ``(n, fine, est)`` on rungs n of 64, 128, ... ``LADDER_CAP``, as RK4 predicts them.

    ``run(n, twin)`` is the caller's own integration at n steps: it returns
    ``(fine, coarse)``, a per-sample quantity at n steps, one row per
    sample (a shooting residual, a drift series), and with ``twin`` the
    same at n/2 steps from :func:`integrate_twin`, else None.  ``est`` is
    the :func:`step_doubling_error` of ``fine`` against the result at n/2.
    :func:`spray_rungs` builds ``run`` for geodesics; for at most
    ``CARRY_SAMPLES`` samples its first rung's run also carries the rung
    above halfway, so a climb that goes on to 128 alone pays 64 more
    sequential RK4 steps, not 128.

    The climb starts at the pair (64, 32).  From a rung's ``est`` it jumps
    to the rung that RK4's h^4 law predicts for ``tol``,
    :func:`steps_needed` of the largest estimate rounded up to the ladder:
    at least twice n and at most the cap.  That rung runs alone when its
    twin is the rung in hand, and as a pair otherwise.  A rung that raises
    :class:`DomainExitError` is missing (``fine`` and ``est`` None), and
    the climb goes on to a pair, which brings its own estimate: the pair
    above a pair that exited, and two rungs up from a rung that exited
    alone, as the pair above that rung would rerun its exit.  Where that
    pair would be past the cap, the exit propagates.  The arrays yielded
    are the ones the prediction and the next rung read, so an in-place
    edit of them (Newton polishing a residual from the velocity it moved,
    and its re-estimate) carries to both.  The caller stops the climb by
    leaving the loop.
    """
    n, held = 2 * LADDER_START, None
    while True:
        try:
            fine, coarse = run(n, held is None)
        except DomainExitError:
            # the next pair up; above a lone rung, that pair's twin would
            # rerun the run that exited, so the climb skips it
            up = 2 * n if held is None else 4 * n
            if up > LADDER_CAP:
                raise
            yield n, None, None
            held, n = None, up
            continue
        est = step_doubling_error(fine, held if coarse is None else coarse)
        yield n, fine, est
        if n >= LADDER_CAP:
            return
        # the smallest rung at or above the prediction; a NaN predicts nothing
        need = steps_needed(n, np.max(est), tol)
        up = 2 * n
        while up < min(need, LADDER_CAP):
            up *= 2
        held, n = (fine if up == 2 * n else None), up


def spray_rungs(man: Manifold, x0, velocity: Callable, measure: Callable,
                snapshots: Optional[int] = None) -> Callable:
    """The ``run(n, twin)`` of :func:`step_doubling_ladder` for geodesics from the points x0.

    A rung integrates ``(x0, velocity())`` at n steps with
    :func:`integrate_spray`, and with ``twin`` also at n/2 steps, in one
    run of :func:`integrate_twin`; ``run`` returns ``measure(x, v)`` of
    each, the coarse one None without ``twin``.  ``velocity`` is called at
    each rung, so a caller may move the velocities between rungs.  With
    ``snapshots`` every run records that many steps of its own (n //
    snapshots steps each), and ``measure`` gets the stacks.

    For at most ``CARRY_SAMPLES`` samples, the first rung's twin carries
    the run of twice its steps to its midpoint.  When the climb asks next
    for that rung alone from the same velocities, the run is resumed, and
    its rung costs n/2 sequential steps instead of n: a field certified at
    128 steps costs 128 instead of 192.  Either way the result is bit for bit that of a fresh run, and
    a carried run that left the domain raises its exit when resumed, as a
    fresh run would; it never costs the first rung its result.
    """
    carried = None  # (steps, v0, resume) of the run that the first rung's twin carries

    def run(n, twin):
        nonlocal carried
        v0 = velocity()
        every = None if snapshots is None else n // snapshots
        if twin:
            carry = n == 2 * LADDER_START and len(x0) <= CARRY_SAMPLES
            fine, coarse, *resume = integrate_twin(man, x0, v0, n, every, carry)
            carried = (2 * n, v0.copy(), *resume) if carry else None
            return measure(*fine), measure(*coarse)
        if carried and carried[0] == n and np.array_equal(carried[1], v0):
            states = carried[2]()
        else:
            states = integrate_spray(man, x0, v0, n, every)
        carried = None
        return measure(*states), None

    return run


def _stacked(parts):
    """The (xs, vs) stacks of one run from its pieces ``(xs, vs, factor)`` in time order:
    each piece's velocities times ``factor``, and each piece's first snapshot, which is
    the previous piece's last, dropped."""
    xs = np.concatenate([xs[i > 0:] for i, (xs, _, _) in enumerate(parts)])
    vs = np.concatenate([f * vs[i > 0:] for i, (_, vs, f) in enumerate(parts)])
    return sample_fastest(xs, axis=1), sample_fastest(vs, axis=1)


def integrate_twin(man: Manifold, x0, v0, steps: int, record_every: Optional[int] = None,
                   carry: bool = False):
    """``integrate_spray`` at ``steps`` and at ``steps // 2`` steps, bit for bit, as one run.

    Returns ``(fine, coarse)``: what ``integrate_spray(man, x0, v0, steps,
    record_every)`` and ``integrate_spray(man, x0, v0, steps // 2,
    record_every // 2)`` return, for ``(m, n)`` arrays and an even
    ``steps``; with ``record_every``, which must be even and divide
    ``steps // 2``, both record the same times.

    The spray is quadratic in the velocity, so the geodesic of v/2 over
    unit time is the geodesic of v over half of it.  In RK4 the state
    (x, v/2) stepped by 2/N is the state (x, v) stepped by 1/N with its
    velocity halved: every stage and every ``post_step`` operation scales
    by an exact power of two (barring underflow).  So one call of
    ``steps // 2`` steps on the stacked rows [(x0, v0/2); (x0, v0)] gives
    the coarse run whole and the fine run's first half, and a second call
    continues that half; its velocity is doubled at the end.

    With ``carry`` the stacked call also holds the rows (x0, v0/4), which
    the second call continues too: that leaves the run of ``2 * steps``
    steps at its step ``steps``.  A third item, ``resume()``, integrates
    its second half in one call of ``steps`` steps, with the velocity
    doubled, and returns what ``integrate_spray(man, x0, v0, 2 * steps,
    2 * record_every)`` returns; ``2 * record_every`` must then divide
    ``steps // 2``.  All calls go through :func:`integrate_spray`.  A
    domain exit in any of them names the field sample, the run it was in
    by its step count, and that run's own time and step.  The carried run
    never costs the twin its result: where it leaves the domain, the call
    is made again without its rows, and ``resume()`` raises its exit, the
    error its run raises on its own.
    """
    require_count("steps", steps, 2)
    if steps % 2:
        raise ValueError(f"steps={steps} must be even")
    half, rec = steps // 2, None
    if record_every is not None:
        require_count("record_every", record_every, 2)
        if record_every % 2 or half % record_every:
            raise ValueError(f"record_every={record_every} must be even and divide "
                             f"steps // 2 = {half}")
        if carry and half % (2 * record_every):
            raise ValueError(f"carry needs 2 * record_every = {2 * record_every} to divide "
                             f"steps // 2 = {half}")
        rec = record_every // 2
    x0, v0 = sample_fastest(x0), sample_fastest(v0)
    m = len(x0)
    held = []  # the carried run's own exit, which resume() raises

    def stepped(runs, x, v, first, every):
        """``integrate_spray`` for ``half`` steps of the stacked rows (x, v) of the
        runs of step counts ``runs``, at their step ``first``, and the runs kept: a
        carried run that leaves the domain is held, and the call made without it."""
        try:
            return integrate_spray(man, x, v, half, every), runs
        except DomainExitError as exc:
            i = exc.sample // m
            err = _exit_in_run(exc, half, exc.sample % m, runs[i], first)
            if runs[i] != 2 * steps:
                raise err from exc
        held.append(err)
        keep = np.arange(len(x)) // m != i
        return stepped(runs[:i] + runs[i + 1:], x[keep], v[keep], first, every)

    # the stacked rows' runs and velocity scales: the fine run, the carried
    # one, and last the coarse run, which the first call finishes
    runs, scales = ((steps, 2 * steps, half), (0.5, 0.25, 1.0)) if carry else \
        ((steps, half), (0.5, 1.0))
    (xb, vb), runs = stepped(runs, np.concatenate([x0] * len(runs)),
                             np.concatenate([s * v0 for s in scales]), 0, rec)
    go_on = (len(runs) - 1) * m  # the rows the second call continues from their step `half`
    x_mid, w_mid = (xb, vb) if rec is None else (xb[-1], vb[-1])
    (xc, wc), _ = stepped(runs[:-1], x_mid[:go_on], w_mid[:go_on], half, record_every)

    def resume():
        if held:
            raise held[0]
        x, w = (xc, wc) if rec is None else (xc[-1], wc[-1])
        try:
            xr, wr = integrate_spray(man, x[m:], 2.0 * w[m:], steps,
                                     None if rec is None else 2 * record_every)
        except DomainExitError as exc:
            raise _exit_in_run(exc, steps, exc.sample, 2 * steps, steps) from exc
        if rec is None:
            return xr, 2.0 * wr
        # the carried rows were recorded at 4 and 2 times its rate, with v/4
        return _stacked([(xb[::4, m:go_on], vb[::4, m:go_on], 4.0),
                         (xc[::2, m:], wc[::2, m:], 4.0), (xr, wr, 2.0)])

    if rec is None:
        fine = sample_fastest(xc[:m]), 2.0 * sample_fastest(wc[:m])
        coarse = sample_fastest(xb[go_on:]), sample_fastest(vb[go_on:])
    else:  # the stacked call's first block is the fine run, recorded at twice its rate
        fine = _stacked([(xb[::2, :m], vb[::2, :m], 2.0), (xc[:, :m], wc[:, :m], 2.0)])
        coarse = sample_fastest(xb[:, go_on:], axis=1), sample_fastest(vb[:, go_on:], axis=1)
    return (fine, coarse, resume) if carry else (fine, coarse)


def integrate_spray(man: Manifold, x0, v0, steps: int, record_every: Optional[int] = None):
    """Classical fixed-step RK4 integration of the spray over unit time.

    Each step is :func:`rk4_step` on (x, v)' = (v, spray_accel(x, v)).
    Returns ``(x, v)`` at t = 1, or the stacked snapshot arrays
    ``(xs, vs)`` (leading time axis, t = 0 first and t = 1 last) every
    ``record_every`` steps, which must divide ``steps``.
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

    def spray(x, v):  # looks spray_accel up at each call, so a rebinding wraps it
        return v, spray_accel(man, x, v)

    xs = vs = None
    if record_every is not None:
        require_count("record_every", record_every)
        if steps % record_every:
            raise ValueError(f"record_every={record_every} must divide steps={steps}")
        # (snapshot, sample, component) stacks whose [j] are sample-fastest
        snaps = steps // record_every + 1
        xs = sample_fastest((snaps,) + x.shape, axis=1)
        vs = sample_fastest((snaps,) + v.shape, axis=1)
        xs[0], vs[0] = x, v
    # an overflow or a NaN shows as a state that post_step finds not finite,
    # and the error then names the sample; NumPy's warnings would come first
    with np.errstate(all="ignore"):
        for s in range(steps):
            # post_step hands a state it rejects back as given, unretracted
            x, v, ok = man.post_step(x, *rk4_step(spray, x, v, dt))
            if not ok:
                raise _exit_error(man, x, (s + 1) * dt, s + 1, steps)
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

    Raises ``ValueError`` when h and k span no plane (the denominator is 0
    or not finite), naming the first such sample of a batch; a single
    point has no sample to name.
    """
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    k = np.asarray(k, dtype=float)
    man.require_valid(x, "curvature base point")
    R = man.curvature(x, h, k, k)
    den = man.inner(x, h, h) * man.inner(x, k, k) - man.inner(x, h, k) ** 2
    ok = np.isfinite(den) & (den != 0.0)
    if not np.all(ok):
        raise ValueError(f"sectional curvature: h and k span no plane{_of_sample(ok)}")
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
    time parametrization, only on the path.  Each segment p0 -> p1 is one
    :func:`rk4_step` of (s, X)' = (1, transport_ode_rhs(p0 + s chord, chord,
    X)) from s = 0 with dt = 1; the rows that moved are then projected onto
    the tangent space at p1 (the path points are given, so nothing is
    retracted).
    """
    points = sample_fastest(points, axis=1)  # one conversion, so each points[i] is a view
    X = sample_fastest(v0, copy=True)
    for p0, p1 in zip(points[:-1], points[1:]):
        chord = p1 - p0
        # the chord parameter s, with s' = 1, is the first half of the state
        _, X = rk4_step(lambda s, Y: (1.0, transport_ode_rhs(man, p0 + s * chord, chord, Y)),
                        0.0, X, 1.0)
        # re-project only rows that moved, keeping stationary samples
        # bitwise fixed; the path points are given, so nothing is retracted
        moved = np.any(chord != 0.0, axis=-1)
        X = np.where(moved[..., None], man.project(p1, X), X)
    return X


# ---------------------------------------------------------------------------
# registry of built-in targets


def _flat_chart(name: str, n: int) -> ChartManifold:
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


# r^2 enters the metric and the level set, so it must neither overflow nor underflow
_RADIUS_BOUND = "r^2 must be a finite, normal double: about 1.5e-154 <= r <= 1.3e154"


def _sphere(name: str, r: float, rep: str) -> Manifold:
    if not np.finfo(float).tiny <= r * r < math.inf:
        raise ValueError(f"invalid parameter r={r}: r^2 = {r * r}; {_RADIUS_BOUND}")
    return _sphere_chart(r, name) if rep == "chart" else _sphere_embedded(r, name)


# name -> (description, {key: (parser, default text)}, builder(canonical name, **values))
_REGISTRY = {
    "flat": ("Euclidean R^n in Cartesian coordinates; keys: n (default 2)",
             {"n": (_positive(int, "an integer"), "2")}, _flat_chart),
    "sphere": (f"round sphere in R^3; keys: r (default 1.0; {_RADIUS_BOUND}), "
               "rep = chart | embedded (default embedded)",
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
