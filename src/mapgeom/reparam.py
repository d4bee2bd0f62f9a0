"""Discrete reparametrization: permutations acting on fields by composition.

A discrete diffeomorphism of the quadrature domain is a permutation of the
sample indices.  Acting on a field composes the map with the permutation;
the quadrature weights of the domain are untouched, because the measure
lives on the source and does not move with the map.  The permutation is
measure preserving exactly when the weight vector is invariant under it,
and the metric is invariant exactly in that case.  The lifted geometric
operators are pointwise and deterministic, so they commute with every
permutation bit for bit, measure preserving or not.

Note: every permutation preserves the uniform weight vector, so the
discrete measure-preserving subgroup is never trivial; this is a
disanalogy with the smooth setting, where it is unsettled whether each
reparametrization preserves some volume form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import files
from .errors import FieldMismatchError
from .mapspace import (
    MapField,
    QuadratureDomain,
    SecondTangentField,
    TangentField,
    connector_field,
    curvature_field,
    exp_field,
    l2_inner,
    own,
    spray_field,
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
        p = own(self, "perm", int, ndim=1)
        if not np.array_equal(np.sort(p), np.arange(p.size)):
            raise ValueError("perm must be a permutation of 0..m-1")
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
    return DiscreteDiffeo(rng.permutation(m))


def act_on_map(phi: DiscreteDiffeo, q: MapField) -> MapField:
    """Right composition q . phi: reindex the sample values."""
    if phi.size != q.size:
        raise FieldMismatchError("field mismatch: permutation length differs from field")
    return MapField(q.domain, q.manifold, q.values[phi.perm])


def act_on_tangent(phi: DiscreteDiffeo, h: TangentField) -> TangentField:
    if phi.size != h.size:
        raise FieldMismatchError("field mismatch: permutation length differs from field")
    return TangentField(act_on_map(phi, h.base), h.vecs[phi.perm])


def act_on_second_tangent(phi: DiscreteDiffeo, xi: SecondTangentField) -> SecondTangentField:
    if phi.size != xi.size:
        raise FieldMismatchError("field mismatch: permutation length differs from field")
    p = phi.perm
    return SecondTangentField(
        xi.domain, xi.manifold, xi.base[p], xi.vec[p], xi.dbase[p], xi.dvec[p]
    )


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
    lhs = l2_inner(act_on_map(phi, q), act_on_tangent(phi, h), act_on_tangent(phi, k))
    return InvarianceResult(lhs, rhs, phi.is_measure_preserving(q.domain))


_EQUIVARIANT_OPS = ("connector", "spray", "exp", "curvature")


def check_equivariance(
    phi: DiscreteDiffeo,
    op_name: str,
    *,
    xi: Optional[SecondTangentField] = None,
    h: Optional[TangentField] = None,
    q: Optional[MapField] = None,
    k: Optional[TangentField] = None,
    l: Optional[TangentField] = None,
    steps: int = 1000,
) -> OracleReport:
    """Bitwise equivariance of one lifted operator under a permutation.

    Computes op(inputs . phi) and op(inputs) . phi and requires exact
    array equality.  Because the lifted operators act sample by sample
    with row-independent arithmetic, this holds for every permutation,
    not only measure-preserving ones.
    """
    if op_name == "connector":
        if xi is None:
            raise ValueError("connector equivariance needs xi")
        before = connector_field(act_on_second_tangent(phi, xi))
        after = act_on_tangent(phi, connector_field(xi))
        pairs = [(before.vecs, after.vecs), (before.base.values, after.base.values)]
    elif op_name == "spray":
        if h is None:
            raise ValueError("spray equivariance needs h")
        before = spray_field(act_on_tangent(phi, h))
        after = act_on_second_tangent(phi, spray_field(h))
        pairs = [
            (before.base, after.base),
            (before.vec, after.vec),
            (before.dbase, after.dbase),
            (before.dvec, after.dvec),
        ]
    elif op_name == "exp":
        if h is None:
            raise ValueError("exp equivariance needs h")
        before = exp_field(act_on_tangent(phi, h), steps=steps)
        after = act_on_map(phi, exp_field(h, steps=steps))
        pairs = [(before.values, after.values)]
    elif op_name == "curvature":
        if q is None or h is None or k is None or l is None:
            raise ValueError("curvature equivariance needs q, h, k, l")
        before = curvature_field(
            act_on_map(phi, q), act_on_tangent(phi, h), act_on_tangent(phi, k),
            act_on_tangent(phi, l),
        )
        after = act_on_tangent(phi, curvature_field(q, h, k, l))
        pairs = [(before.vecs, after.vecs)]
    else:
        raise ValueError(f"unknown operator {op_name!r}; choose from {_EQUIVARIANT_OPS}")
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
