"""Optimal transport at desk scale: push-forwards and Wasserstein-2 distance.

Only the Monge regime is handled: equal atom counts with equal masses, so
an optimal plan is a permutation.  Small instances admit an exact
factorial brute force, which certifies the polynomial assignment solver;
both report costs through one shared evaluation (``math.fsum`` of the
terms ``m_i C[i, perm(i)]``) so agreement can be asserted exactly.  The
brute force scores every permutation at once over a table of all n!
permutations in lexicographic order, built on first use for each n and
cached as ``uint8`` (322 KB at n = 8); only the near-minimal candidates
are re-summed exactly.  The cost is squared Euclidean distance; squared
geodesic distance on a registry target is available on request.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import files
from .errors import GeometryError, MeasureError
from .manifold import Manifold
from .mapspace import MapField, checked_permutation, own

BRUTE_LIMIT = 8  # largest n the factorial brute force accepts
_MASS_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms with total mass one."""

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        if own(self, "atoms", ndim=2).shape[0] != own(self, "masses", ndim=1).size:
            raise ValueError("atoms must be (n, d) with one mass per atom")
        if np.any(self.masses <= 0.0):
            raise MeasureError("measure not normalized: masses must be positive")
        if abs(math.fsum(self.masses.tolist()) - 1.0) > _MASS_TOL:
            raise MeasureError("measure not normalized: masses must sum to 1")

    @property
    def size(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True)
class Assignment:
    """An optimal matching: permutation and its transport cost."""

    perm: np.ndarray
    cost: float


def pushforward_measure(q: MapField) -> DiscreteMeasure:
    """Image measure of the quadrature weights under a map field.

    Samples landing on exactly equal points are merged with added mass,
    in first-occurrence order.
    """
    w = q.domain.weights
    if abs(math.fsum(w.tolist()) - 1.0) > _MASS_TOL:
        raise MeasureError("measure not normalized: domain weights must sum to 1")
    atoms = []
    masses = []
    index = {}
    for value, weight in zip(q.values, w):
        key = value.tobytes()
        if key in index:
            masses[index[key]] += weight
        else:
            index[key] = len(atoms)
            atoms.append(value)
            masses.append(float(weight))
    return DiscreteMeasure(np.asarray(atoms), np.asarray(masses))


def _same_size(mu: DiscreteMeasure, nu: DiscreteMeasure) -> int:
    if mu.size != nu.size:
        raise MeasureError("Monge regime required: atom counts differ")
    return mu.size


def _monge_pair(mu: DiscreteMeasure, nu: DiscreteMeasure) -> int:
    n = _same_size(mu, nu)
    uniform = np.full(n, 1.0 / n)
    if np.max(np.abs(mu.masses - uniform)) > _MASS_TOL or np.max(
        np.abs(nu.masses - uniform)
    ) > _MASS_TOL:
        raise MeasureError("Monge regime required: masses must all equal 1/n")
    return n


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, manifold: Optional[Manifold]):
    if manifold is None:
        diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
        return np.einsum("ijk,ijk->ij", diff, diff)
    if manifold.closed_form_log is None:
        raise ValueError("geodesic cost needs a target with a closed-form log")
    n = mu.size
    x = np.repeat(mu.atoms, n, axis=0)
    y = np.tile(nu.atoms, (n, 1))
    v = np.asarray(manifold.closed_form_log(x, y))
    return manifold.inner(x, v, v).reshape(n, n)


def assignment_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, perm,
                    manifold: Optional[Manifold] = None) -> float:
    """Cost of one matching: sum_i m_i d(x_i, y_perm(i))^2, exactly summed.

    ``perm`` must be a permutation of 0..n-1; anything else raises
    ``ValueError`` naming it.  Atom counts that differ raise MeasureError.
    """
    perm = checked_permutation(perm, size=_same_size(mu, nu))
    C = _cost_matrix(mu, nu, manifold)
    terms = mu.masses * C[np.arange(mu.size), perm]
    return math.fsum(terms.tolist())


@functools.cache
def _permutation_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row, in lexicographic order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    table = np.fromiter(flat, np.uint8, count=math.factorial(n) * n).reshape(-1, n)
    table.setflags(write=False)
    return table


def wasserstein2_bruteforce(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            manifold: Optional[Manifold] = None) -> Assignment:
    """Exact squared Wasserstein-2 matching by factorial enumeration.

    Requires n <= 8 equal-mass atoms on both sides.  Every permutation of
    the cached lexicographic table is scored with a plain float sum, one
    column pass at a time; the candidates within 1e-12 relative of the
    smallest score are then re-summed with ``math.fsum`` in table order.
    The costs are finite and non-negative, so a plain sum of at most 8
    terms is within ~1e-15 relative of the exact one and every exact
    minimiser is a candidate.  Ties are broken by the lexicographically
    smallest permutation.
    """
    n = _monge_pair(mu, nu)
    if n > BRUTE_LIMIT:
        raise MeasureError(f"use assignment solver: n={n} exceeds the brute-force limit")
    terms = (1.0 / n) * _cost_matrix(mu, nu, manifold)
    table = _permutation_table(n)
    approx = np.zeros(len(table))
    for i in range(n):
        approx += terms[i, table[:, i]]
    lo = approx.min()
    rows = np.arange(n)
    best_perm, best_cost = None, np.inf
    for k in np.flatnonzero(approx <= lo + 1e-12 * abs(lo)):  # ascending, so ties keep the first
        c = math.fsum(terms[rows, table[k]].tolist())
        if c < best_cost:
            best_perm, best_cost = table[k], c
    return Assignment(best_perm.astype(int), best_cost)


def wasserstein2_assignment(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            manifold: Optional[Manifold] = None) -> Assignment:
    """Squared Wasserstein-2 matching via an augmenting-path assignment solver."""
    from scipy.optimize import linear_sum_assignment  # imported here: it is slow to import

    n = _monge_pair(mu, nu)
    C = _cost_matrix(mu, nu, manifold)
    _, cols = linear_sum_assignment(C)
    perm = np.asarray(cols, dtype=int)
    terms = (1.0 / n) * C[np.arange(n), perm]
    return Assignment(perm, math.fsum(terms.tolist()))


@dataclass(frozen=True)
class SubmersionResult:
    """Both sides of the transport bound for one rearrangement."""

    l2_cost: float
    w2_cost: float
    equality: bool
    assignment: Assignment


def submersion_check(base: MapField, rearranged: MapField,
                     manifold: Optional[Manifold] = None) -> SubmersionResult:
    """Compare the squared L2 displacement cost with the transport cost.

    ``base`` plays the role of the identity configuration; the rearranged
    field induces the matching i -> i, whose cost can only exceed the
    optimal assignment between the two atom clouds:
    w2_cost <= l2_cost, with equality iff that matching is optimal.
    """
    if base.size != rearranged.size:
        raise MeasureError("Monge regime required: configurations differ in size")
    w = base.domain.weights
    n = base.size
    if np.max(np.abs(w - 1.0 / n)) > _MASS_TOL:
        raise MeasureError("Monge regime required: weights must all equal 1/n")
    mu = DiscreteMeasure(base.values, w)
    nu = DiscreteMeasure(rearranged.values, w)
    l2_cost = assignment_cost(mu, nu, np.arange(n), manifold)
    best = (
        wasserstein2_bruteforce(mu, nu, manifold)
        if n <= BRUTE_LIMIT
        else wasserstein2_assignment(mu, nu, manifold)
    )
    if l2_cost < best.cost - 1e-12:
        raise GeometryError(f"transport bound violated: l2={l2_cost!r} < w2={best.cost!r}")
    return SubmersionResult(l2_cost, best.cost, abs(l2_cost - best.cost) <= 1e-12, best)


# ---------------------------------------------------------------------------
# measure files


def measure_from_json(doc) -> DiscreteMeasure:
    doc = files.Document(doc, "measure")
    return DiscreteMeasure(doc.get("atoms", float, 2), doc.get("masses", float, 1))


def save_measure(mu: DiscreteMeasure, path):
    files.write_json(files.as_json(mu), path)


def load_measure(path) -> DiscreteMeasure:
    return files.read_json(path, measure_from_json)
