"""Discrete reparametrization: permutations acting on fields by composition.

A discrete diffeomorphism of the quadrature domain is a permutation of the
sample indices.  Acting on a field composes the map with the permutation;
the quadrature weights of the domain are untouched, because the measure
lives on the source and does not move with the map.  The permutation is
measure preserving exactly when the weight vector is invariant under it,
and the metric is invariant exactly in that case.  The lifted geometric
operators are pointwise and deterministic, so they commute with every
permutation bit for bit, measure preserving or not.

One action, :func:`act`, serves every field kind: it reindexes the
per-sample arrays that :mod:`mapgeom.mapspace` lists for the field's kind,
so nothing here knows how a kind lays out its samples.
:func:`check_equivariance` reads from one table which lifted operator to
check and which inputs it takes, and rejects an input it does not take.

Note: every permutation preserves the uniform weight vector, so the
discrete measure-preserving subgroup is never trivial; this is a
disanalogy with the smooth setting, where it is unsettled whether each
reparametrization preserves some volume form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import files, mapspace
from .errors import FieldMismatchError
from .manifold import require_count
from .mapspace import (
    MapField,
    QuadratureDomain,
    SecondTangentField,
    TangentField,
    checked_permutation,
    field_from_arrays,
    l2_inner,
    own,
    sample_arrays,
)
from .verification import OracleReport


@dataclass(frozen=True)
class DiscreteDiffeo:
    """A permutation of sample indices with the weights it transports.

    ``perm[i]`` is the index whose data the acted field takes at slot i.
    ``pulled_weights`` records the reparametrized measure (``w[perm]``
    when built against a domain); the permutation is measure preserving
    iff ``pulled_weights`` equals the domain weights entrywise.
    """

    perm: np.ndarray
    pulled_weights: Optional[np.ndarray] = None

    def __post_init__(self):
        p = checked_permutation(self.perm)
        object.__setattr__(self, "perm", p)
        if self.pulled_weights is not None and own(self, "pulled_weights").shape != p.shape:
            raise ValueError("pulled_weights must match the permutation length")

    @property
    def size(self) -> int:
        return int(self.perm.size)

    def bind(self, domain: QuadratureDomain) -> "DiscreteDiffeo":
        """Attach the transported weights ``w[perm]`` of a domain."""
        if domain.size != self.size:
            raise FieldMismatchError("field mismatch: permutation length differs from domain")
        return DiscreteDiffeo(self.perm, domain.weights[self.perm])

    def is_measure_preserving(self, domain: QuadratureDomain) -> bool:
        if domain.size != self.size:
            raise FieldMismatchError("field mismatch: permutation length differs from domain")
        return bool(np.array_equal(domain.weights[self.perm], domain.weights))

    def inverse(self) -> "DiscreteDiffeo":
        return DiscreteDiffeo(np.argsort(self.perm))

    def compose(self, other: "DiscreteDiffeo") -> "DiscreteDiffeo":
        """self after other: (self . other)(i) = self.perm[other.perm[i]]."""
        if other.size != self.size:
            raise FieldMismatchError("field mismatch: permutation sizes differ")
        return DiscreteDiffeo(self.perm[other.perm])


def identity_diffeo(m: int) -> DiscreteDiffeo:
    return DiscreteDiffeo(np.arange(m))


def random_diffeo(m: int, rng) -> DiscreteDiffeo:
    require_count("m", m)
    return DiscreteDiffeo(rng.permutation(m))


def act(phi: DiscreteDiffeo, field):
    """Right composition field . phi: reindex every per-sample array.

    The same action on map, tangent and second tangent fields; the result
    is a field of the same kind on the same domain and target.
    """
    if phi.size != field.size:
        raise FieldMismatchError("field mismatch: permutation length differs from field")
    return field_from_arrays(field, [a[phi.perm] for a in sample_arrays(field)])


class InvarianceResult(NamedTuple):
    lhs: float
    rhs: float
    measure_preserving: bool


def check_metric_invariance(
    phi: DiscreteDiffeo, q: MapField, h: TangentField, k: TangentField
) -> InvarianceResult:
    """Metric before and after the action.

    ``lhs`` integrates the reindexed fields against the original weights
    (the measure does not move with the map), ``rhs`` is the metric before
    the action.  They agree, exactly up to one correctly rounded sum, iff
    the permutation preserves the weights; otherwise both values are
    reported with no equality claim.
    """
    rhs = l2_inner(q, h, k)
    lhs = l2_inner(act(phi, q), act(phi, h), act(phi, k))
    return InvarianceResult(lhs, rhs, phi.is_measure_preserving(q.domain))


# operator -> (name of its lifted operator in mapgeom.mapspace, the fields
# it takes, its options with their defaults).  The lifted operator is looked
# up by name at call time, so a rebound module function is the one called.
_EQUIVARIANT_OPS = {
    "connector": ("connector_field", ("xi",), {}),
    "spray": ("spray_field", ("h",), {}),
    "exp": ("exp_field", ("h",), {"steps": 1000}),
    "curvature": ("curvature_field", ("q", "h", "k", "l"), {}),
}


def check_equivariance(
    phi: DiscreteDiffeo,
    op_name: str,
    *,
    xi: Optional[SecondTangentField] = None,
    h: Optional[TangentField] = None,
    q: Optional[MapField] = None,
    k: Optional[TangentField] = None,
    l: Optional[TangentField] = None,
    steps: Optional[int] = None,
) -> OracleReport:
    """Bitwise equivariance of one lifted operator under a permutation.

    Computes op(inputs . phi) and op(inputs) . phi and requires exact
    equality of every per-sample array.  Because the lifted operators act
    sample by sample with row-independent arithmetic, this holds for every
    permutation, not only measure-preserving ones.  ``steps`` (default
    1000) is an option of ``exp`` only; an input or option the operator
    does not take raises ``ValueError``.
    """
    if op_name not in _EQUIVARIANT_OPS:
        raise ValueError(f"unknown operator {op_name!r}; choose from {tuple(_EQUIVARIANT_OPS)}")
    op_fn, names, defaults = _EQUIVARIANT_OPS[op_name]
    given = {key: value for key, value in dict(xi=xi, h=h, q=q, k=k, l=l, steps=steps).items()
             if value is not None}
    options = {key: given.pop(key, default) for key, default in defaults.items()}
    if any(name not in given for name in names):
        raise ValueError(f"{op_name} equivariance needs {', '.join(names)}")
    extra = sorted(set(given) - set(names))
    if extra:
        raise ValueError(f"{op_name} equivariance does not take {', '.join(extra)}")
    op = getattr(mapspace, op_fn)
    before = op(**{name: act(phi, f) for name, f in given.items()}, **options)
    after = act(phi, op(**given, **options))
    pairs = list(zip(sample_arrays(before), sample_arrays(after)))
    max_err = max(float(np.max(np.abs(a - b))) if a.size else 0.0 for a, b in pairs)
    exact = all(np.array_equal(a, b) for a, b in pairs)
    err = max_err if exact or max_err > 0.0 else float("inf")
    return OracleReport.from_error(f"equivariance_{op_name}", err, 0.0, 1)


def load_permutation(path) -> DiscreteDiffeo:
    """Read a permutation from a JSON array of integer indices."""
    return files.read_json(
        path, lambda doc: DiscreteDiffeo(files.Document(doc, "permutation").get(None, int, 1))
    )


def save_permutation(phi: DiscreteDiffeo, path):
    files.write_json(phi.perm.tolist(), path)
