"""Discretized mapping spaces: quadrature domains, fields, and lifted geometry.

The source manifold enters only through quadrature: a
:class:`QuadratureDomain` is a list of sample labels with positive weights.
Maps into the target, tangent vectors along them, and second tangents are
stored as per-sample arrays, and every geometric operator of
:mod:`mapgeom.manifold` lifts sample-by-sample.  The layout of each field
kind is written down once, in :func:`sample_arrays` and
:func:`field_from_arrays`; the pointwise lift and the permutation action
of :mod:`mapgeom.reparam` reach the samples only through these two.

Field operations are pure; per-sample work is batched and row-independent,
and the quadrature reduction in :func:`l2_inner` always runs in the fixed
index order with exact (error-free) summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import files
from .errors import ChartBoundaryError, FieldMismatchError, LiftError, NotVerticalError
from .manifold import (
    ChartManifold,
    EmbeddedManifold,
    Manifold,
    integrate_spray,
    make_manifold,
    require_count,
    sample_fastest,
    spray_accel,
)

_TANGENCY_TOL = 1e-6


# ---------------------------------------------------------------------------
# domains and fields


def checked_array(value, name: str, dtype=float, ndim=None) -> np.ndarray:
    """Convert ``value`` to a checked, read-only array; errors name ``name``.

    The value must convert to an array of rank ``ndim`` (of any rank from 1
    if None).  A float array must be finite; an int array must hold exact
    integers and not booleans.  A failed check raises ``ValueError``.
    """
    try:
        raw = np.asarray(value)
        arr = np.array(raw, dtype=float, order="C")
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if arr.ndim == 0 or ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be an array of rank {ndim or '>= 1'}, got rank {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} are not finite")
    if dtype is int:
        if raw.dtype == bool or np.any(arr != np.round(arr)):
            raise ValueError(f"{name} must hold exact integers")
        arr = raw.astype(int)
    arr.setflags(write=False)
    return arr


def checked_permutation(value, size=None) -> np.ndarray:
    """``checked_array`` of a permutation ``perm`` of 0..size-1 (of 0..len-1 if None)."""
    perm = checked_array(value, "perm", int, ndim=1)
    m = perm.size if size is None else size
    if not np.array_equal(np.sort(perm), np.arange(m)):
        raise ValueError(f"perm must be a permutation of 0..{m - 1}")
    return perm


def own(record, name: str, dtype=float, ndim=None) -> np.ndarray:
    """Check the array entry ``name`` of a frozen record and store it read-only.

    The checks are those of ``checked_array``.  The record keeps, and this
    returns, a read-only copy.
    """
    arr = checked_array(getattr(record, name), name, dtype, ndim)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True)
class QuadratureDomain:
    """Discretized source: m sample labels with positive weights.

    ``points`` optionally records source coordinates, one entry per sample,
    for provenance; they never enter any computation.
    """

    weights: np.ndarray
    points: Optional[np.ndarray] = None

    def __post_init__(self):
        w = own(self, "weights", ndim=1)
        if w.size < 1 or np.any(w <= 0.0):
            raise ValueError("weights must be non-empty and positive")
        if self.points is not None and own(self, "points").shape[0] != w.size:
            raise ValueError("points and weights must have equal length")

    @property
    def size(self) -> int:
        return int(self.weights.size)

    @property
    def total_weight(self) -> float:
        return math.fsum(self.weights.tolist())


def circle_domain(m: int, total_weight: float = 1.0) -> QuadratureDomain:
    """Uniform grid on the circle.

    Trapezoid weights on a closed loop reduce to the uniform rule, so every
    sample carries ``total_weight / m``.  Sample angles are recorded as
    provenance coordinates.
    """
    require_count("m", m)
    angles = 2.0 * np.pi * np.arange(m) / m
    return QuadratureDomain(np.full(m, total_weight / m), points=angles[:, None])


def interval_domain(
    m: int, a: float = 0.0, b: float = 1.0, total_weight: Optional[float] = None
) -> QuadratureDomain:
    """Uniform grid on [a, b] with trapezoid weights (endpoints half-weight)."""
    require_count("m", m, 2)
    if not b > a:
        raise ValueError("need b > a")
    h = (b - a) / (m - 1)
    w = np.full(m, h)
    w[0] = w[-1] = 0.5 * h
    if total_weight is not None:
        w *= total_weight / (b - a)
    xs = np.linspace(a, b, m)
    return QuadratureDomain(w, points=xs[:, None])


@dataclass(frozen=True)
class MapField:
    """A discretized map: one target point per quadrature sample."""

    domain: QuadratureDomain
    manifold: Manifold
    values: np.ndarray

    def __post_init__(self):
        vals = own(self, "values", ndim=2)
        man = self.manifold
        if vals.shape != (self.domain.size, man.point_dim):
            raise ValueError(f"values must be an (m, n) = {(self.domain.size, man.point_dim)} "
                             f"array matching the domain and the manifold, got {vals.shape}")
        try:
            man.require_valid(vals, "map values")
        except ChartBoundaryError as exc:
            # values outside the chart are bad input, not a failed computation
            raise ValueError(str(exc)) from None

    @property
    def size(self) -> int:
        return self.domain.size


@dataclass(frozen=True)
class TangentField:
    """A tangent vector along a map field: one vector per sample."""

    base: MapField
    vecs: np.ndarray

    def __post_init__(self):
        v = own(self, "vecs", ndim=2)
        if v.shape != self.base.values.shape:
            raise ValueError("vecs must match the shape of the base values")
        resid = np.max(np.abs(self.base.manifold.project(self.base.values, v) - v), axis=-1)
        if np.any(resid > _TANGENCY_TOL * np.maximum(1.0, np.max(np.abs(v), axis=-1))):
            raise ValueError("vecs are not tangent to the embedded manifold")

    @property
    def domain(self) -> QuadratureDomain:
        return self.base.domain

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold

    @property
    def size(self) -> int:
        return self.base.size


@dataclass(frozen=True)
class SecondTangentField:
    """A field of second tangents (x, h; k, l), stored as four arrays."""

    domain: QuadratureDomain
    manifold: Manifold
    base: np.ndarray
    vec: np.ndarray
    dbase: np.ndarray
    dvec: np.ndarray

    def __post_init__(self):
        shapes = {own(self, attr, ndim=2).shape for attr in ("base", "vec", "dbase", "dvec")}
        if len(shapes) != 1 or shapes.pop()[0] != self.domain.size:
            raise ValueError("base, vec, dbase and dvec must be (m, n) arrays of one shape "
                             "matching the domain")

    @property
    def size(self) -> int:
        return self.domain.size


# ---------------------------------------------------------------------------
# the L2 metric


def require_same_space(a, b):
    """Raise ``FieldMismatchError`` unless two fields share target and domain.

    Targets match by identity or registry name, domains by identity or
    equal weights.
    """
    ma, mb = a.manifold, b.manifold
    if not (ma is mb or ma.name is not None and ma.name == mb.name):
        raise FieldMismatchError("field mismatch: different target manifolds")
    if not (a.domain is b.domain or np.array_equal(a.domain.weights, b.domain.weights)):
        raise FieldMismatchError("field mismatch: different quadrature domains")


def require_based(q: MapField, h: TangentField):
    """Raise ``FieldMismatchError`` unless ``h`` is a tangent field along ``q``."""
    require_same_space(q, h)
    if not np.array_equal(q.values, h.base.values):
        raise FieldMismatchError("field mismatch: tangent field based at a different map")


def l2_inner(q: MapField, h: TangentField, k: TangentField) -> float:
    """Quadrature of the pointwise metric: sum_i w_i g(h_i, k_i).

    The reduction runs in the fixed index order with exact summation, so
    permutation arguments can assert equalities at machine precision.
    """
    require_based(q, h)
    require_based(q, k)
    terms = q.domain.weights * q.manifold.inner(q.values, h.vecs, k.vecs)
    return math.fsum(terms.tolist())


def l2_norm(q: MapField, h: TangentField) -> float:
    return math.sqrt(l2_inner(q, h, h))


# ---------------------------------------------------------------------------
# functorial lift


def sample_arrays(field) -> tuple:
    """The per-sample arrays of a field, each with the samples along axis 0.

    ``(values,)`` for a map field, ``(values, vecs)`` for a tangent field
    and ``(base, vec, dbase, dvec)`` for a second tangent field.  This and
    :func:`field_from_arrays` are the only places that know these layouts.
    """
    if isinstance(field, MapField):
        return (field.values,)
    if isinstance(field, TangentField):
        return (field.base.values, field.vecs)
    if isinstance(field, SecondTangentField):
        return (field.base, field.vec, field.dbase, field.dvec)
    raise TypeError(f"cannot lift over {type(field).__name__}")


def field_from_arrays(field, arrays, manifold: Optional[Manifold] = None):
    """A field of the kind and domain of ``field`` with the given per-sample arrays.

    ``arrays`` follow the layout of :func:`sample_arrays`; the new field
    lives on ``manifold`` (default: the field's own).
    """
    target = manifold if manifold is not None else field.manifold
    if isinstance(field, SecondTangentField):
        return SecondTangentField(field.domain, target, *arrays)
    base = MapField(field.domain, target, arrays[0])
    return base if isinstance(field, MapField) else TangentField(base, arrays[1])


def lift_left_composition(fn: Callable, field, manifold: Optional[Manifold] = None):
    """Apply a pointwise map to every sample of a field.

    ``fn`` receives the per-sample data of the field (see
    :func:`sample_arrays`): a point for a map field, ``(point, vector)``
    for a tangent field, and ``(x, h, k, l)`` for a second tangent field.
    It returns either a single point, which yields a :class:`MapField` over
    ``manifold`` (default: the field's own), or a tuple of the same arity
    as its input, which yields a field of the input's kind.  A callback
    failure at sample i raises ``LiftError`` carrying i.
    """
    target = manifold if manifold is not None else field.manifold
    arrays = sample_arrays(field)
    outs = []
    for i, args in enumerate(zip(*arrays)):
        try:
            outs.append(fn(*args))
        except Exception as exc:
            raise LiftError(f"pointwise map failed at sample {i}: {exc}", sample=i) from exc
    arity = len(arrays)
    # over a map field a returned tuple is read as a point's coordinates
    if arity > 1 and all(isinstance(o, tuple) and len(o) == arity for o in outs):
        comps = [np.asarray([o[j] for o in outs], dtype=float) for j in range(arity)]
        return field_from_arrays(field, comps, target)
    return MapField(field.domain, target, np.asarray(outs, dtype=float))


# ---------------------------------------------------------------------------
# lifted geometric operators


def connector_field(xi: SecondTangentField) -> TangentField:
    """Samplewise connector: (x, h; k, l) -> l + Gamma(k, h) at x in a chart."""
    base = MapField(xi.domain, xi.manifold, xi.base)
    return TangentField(base, xi.manifold.connector(xi.base, xi.vec, xi.dbase, xi.dvec))


def spray_field(h: TangentField) -> SecondTangentField:
    """Samplewise geodesic spray (x, h; h, a)."""
    accel = spray_accel(h.manifold, h.base.values, sample_fastest(h.vecs))
    return SecondTangentField(h.domain, h.manifold, h.base.values, h.vecs, h.vecs.copy(), accel)


def exp_field(h: TangentField, steps: int = 1000) -> MapField:
    """Samplewise exponential map: unit-time geodesic endpoints."""
    x, _ = integrate_spray(h.manifold, h.base.values, h.vecs, steps)
    return MapField(h.domain, h.manifold, x)


def curvature_field(q: MapField, h: TangentField, k: TangentField, l: TangentField) -> TangentField:
    """Samplewise curvature tensor R(h, k) l along q, on any target.

    The fields are already validated, so the target's ``curvature`` runs on
    their arrays directly: Christoffel symbols on a chart, the Gauss
    equation on a level set.
    """
    for f in (h, k, l):
        require_based(q, f)
    return TangentField(q, q.manifold.curvature(q.values, h.vecs, k.vecs, l.vecs))


def vertical_lift_field(h: TangentField, k: TangentField) -> SecondTangentField:
    """vl(h, k) = (x, h; 0, k), samplewise."""
    require_based(h.base, k)
    return SecondTangentField(
        h.domain, h.manifold, h.base.values, h.vecs, np.zeros_like(h.vecs), k.vecs
    )


def vertical_projection_field(xi: SecondTangentField) -> TangentField:
    """vpr(x, h; 0, k) = (x, k); rejects non-vertical input."""
    if np.any(xi.dbase != 0.0):
        raise NotVerticalError("not vertical: dbase component is nonzero")
    return TangentField(MapField(xi.domain, xi.manifold, xi.base), xi.dvec)


def canonical_flip_field(xi: SecondTangentField) -> SecondTangentField:
    """kappa(x, h; k, l) = (x, k; h, l), samplewise."""
    return SecondTangentField(xi.domain, xi.manifold, xi.base, xi.dbase, xi.vec, xi.dvec)


# ---------------------------------------------------------------------------
# representation conversion through an embedding


def embed_map_field(q: MapField, target: EmbeddedManifold) -> MapField:
    """Push a chart-representation map field through the chart's embedding."""
    man = q.manifold
    if not isinstance(man, ChartManifold) or man.embedding is None:
        raise TypeError("source manifold has no embedding")
    return MapField(q.domain, target, man.embedding(q.values))


def embed_tangent_field(h: TangentField, target: EmbeddedManifold) -> TangentField:
    """Push a chart-representation tangent field through the embedding differential."""
    man = h.manifold
    if not isinstance(man, ChartManifold) or man.embedding_jacobian is None:
        raise TypeError("source manifold has no embedding jacobian")
    base = embed_map_field(h.base, target)
    J = np.asarray(man.embedding_jacobian(h.base.values))
    return TangentField(base, np.einsum("sia,sa->si", J, h.vecs))


# ---------------------------------------------------------------------------
# JSON field files


def field_to_json(field) -> dict:
    """Serializable dict for a map or tangent field (registry manifolds only)."""
    if not isinstance(field, (MapField, TangentField)):
        raise TypeError("only map and tangent fields have a file format")
    base = field.base if isinstance(field, TangentField) else field
    if base.manifold.name is None:
        raise ValueError("only registry manifolds can be serialized")
    domain = {"weights": base.domain.weights.tolist()}
    if base.domain.points is not None:
        domain["points"] = base.domain.points.tolist()
    doc = {"domain": domain, "manifold": base.manifold.name, "values": base.values.tolist()}
    if isinstance(field, TangentField):
        doc["vecs"] = field.vecs.tolist()
    return doc


def field_from_json(doc, manifold: Optional[Manifold] = None):
    """Rebuild a map or tangent field from its JSON dict.

    ``doc`` may also be a :class:`files.Document`, for a field held inside
    another document.
    """
    if not isinstance(doc, files.Document):
        doc = files.Document(doc, "field")
    domain = QuadratureDomain(
        doc.get("domain.weights", float, 1),
        points=doc.get("domain.points", float, None, optional=True),
    )
    name = doc.get("manifold", str)
    man = manifold if manifold is not None else make_manifold(name)
    q = MapField(domain, man, doc.get("values", float, 2))
    vecs = doc.get("vecs", float, 2, optional=True)
    return q if vecs is None else TangentField(q, vecs)


def save_field(field, path):
    files.write_json(field_to_json(field), path)


def load_field(path, manifold: Optional[Manifold] = None):
    return files.read_json(path, field_from_json, manifold=manifold)
