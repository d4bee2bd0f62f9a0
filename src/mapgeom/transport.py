"""Optimal transport at desk scale: push-forwards and Wasserstein-2 distance.

Only the Monge regime is handled: equal atom counts with equal masses, so
an optimal plan is a permutation.  Every cost comes from one evaluation:
``_terms`` checks the regime once and builds the terms (1/n) C[i, j], and
``_matching_cost`` sums a matching's terms exactly (``math.fsum`` in row
order).  The two solvers below and the identity matching of
:func:`submersion_check` are all scored by it, so their agreement can be
asserted exactly:

- the factorial brute force (n <= 8) scores every permutation at once over
  a table of all n! permutations in lexicographic order, built on first
  use for each n and cached as ``uint8`` (322 KB at n = 8), and re-sums
  only the near-minimal candidates exactly;
- the assignment solver, for any n, is a shortest-augmenting-path method
  in NumPy after Jonker & Volgenant (Computing 38, 1987): column
  reduction, then one Dijkstra search per unmatched row, vectorised over
  the columns; O(n^3) in the worst case.  It returns dual potentials and
  checks them before it answers, so every matching carries an O(n^2)
  certificate of optimality (McConnell, Mehlhorn, Naeher & Schweitzer,
  "Certifying algorithms", Comput. Sci. Rev. 5, 2011).

The cost is squared Euclidean distance; squared geodesic distance on a
registry target is available on request, for atoms that the target
accepts (``require_valid``).  A cost that overflows raises ``ValueError``
naming the atoms of mu and nu.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import files
from .errors import FieldMismatchError, GeometryError, MeasureError
from .manifold import Manifold
from .mapspace import MapField, own, require_same_space, same_target

BRUTE_LIMIT = 8  # largest n the factorial brute force accepts
_MASS_TOL = 1e-12
_CERT_RTOL = 1e-12  # round-off allowed in the assignment certificate, relative to the largest cost


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

    Samples landing on equal points are merged with added mass, in
    first-occurrence order; points are compared as numbers, so 0.0 and
    -0.0 are one point.  Each atom's masses are added in sample order.
    The one normalisation gate is :class:`DiscreteMeasure`: weights that
    do not sum to 1 raise ``MeasureError`` ("measure not normalized:
    masses must sum to 1").
    """
    _, first, which = np.unique(q.values, axis=0, return_index=True, return_inverse=True)
    # np.unique sorts the distinct points; order lists them by first
    # occurrence, and its inverse numbers each sample's atom
    order = np.argsort(first)
    masses = np.bincount(np.argsort(order)[which.ravel()], weights=q.domain.weights)
    return DiscreteMeasure(q.values[first[order]], masses)


def _terms(mu: DiscreteMeasure, nu: DiscreteMeasure, manifold: Optional[Manifold]) -> np.ndarray:
    """The terms (1/n) C[i, j] of every matching's cost, in the Monge regime only."""
    if mu.size != nu.size:
        raise MeasureError("Monge regime required: atom counts differ")
    n = mu.size
    uniform = np.full(n, 1.0 / n)
    if max(np.max(np.abs(m.masses - uniform)) for m in (mu, nu)) > _MASS_TOL:
        raise MeasureError("Monge regime required: masses must all equal 1/n")
    return (1.0 / n) * _cost_matrix(mu, nu, manifold)


def _matching_cost(terms: np.ndarray, perm) -> float:
    """The cost of matching row i to column perm[i]: its terms, exactly summed in row order."""
    return math.fsum(terms[np.arange(len(terms)), perm].tolist())


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, manifold: Optional[Manifold]):
    if manifold is None:
        # squares added in coordinate order, without an (n, n, d) difference
        # array; an overflow shows as a cost that is not finite, named below
        C = np.zeros((mu.size, nu.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in zip(mu.atoms.T, nu.atoms.T):
                t = a[:, None] - b[None, :]
                C += t * t
    elif manifold.closed_form_log is None:
        raise ValueError("geodesic cost needs a target with a closed-form log")
    else:
        manifold.require_valid(mu.atoms, "the atoms of mu")
        manifold.require_valid(nu.atoms, "the atoms of nu")
        x, y = np.repeat(mu.atoms, mu.size, axis=0), np.tile(nu.atoms, (mu.size, 1))
        v = np.asarray(manifold.closed_form_log(x, y))
        C = manifold.inner(x, v, v).reshape(mu.size, mu.size)
    if not np.all(np.isfinite(C)):
        raise ValueError("the atoms of mu and nu are too far apart: squared distances overflow")
    return C


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
    smallest score are then summed exactly with ``math.fsum``, once per
    distinct multiset of terms, since tied candidates often share one.
    The costs are finite and non-negative, so a plain sum of at most 8
    terms is within ~1e-15 relative of the exact one and every exact
    minimiser is a candidate.  Ties are broken by the lexicographically
    smallest permutation.
    """
    n = mu.size
    if n > BRUTE_LIMIT:  # before an n x n cost matrix is built
        raise MeasureError(f"use assignment solver: n={n} exceeds the brute-force limit")
    terms = _terms(mu, nu, manifold)
    table = _permutation_table(n)
    approx = np.zeros(len(table))
    for i in range(n):
        approx += terms[i, table[:, i]]
    lo = approx.min()
    near = table[approx <= lo + 1e-12 * abs(lo)]  # in table order
    # an exact sum depends only on the multiset of its terms: number the
    # distinct terms (bit for bit), key each candidate by its sorted numbers
    # (n digits in base n^2 <= 64), and sum each key once, by its first
    _, label = np.unique(terms.view(np.int64), return_inverse=True)
    labels = np.sort(label.reshape(n, n)[np.arange(n), near], axis=1)
    _, first, which = np.unique(labels @ (n * n) ** np.arange(n), return_index=True,
                                return_inverse=True)
    costs = np.array([_matching_cost(terms, near[i]) for i in first])[which]
    best = int(np.argmin(costs))  # the first minimiser in table order: the lexicographic tie rule
    return Assignment(near[best].astype(int), float(costs[best]))


def _solve_assignment(C: np.ndarray):
    """Minimum-cost perfect matching of a square, finite cost matrix.

    Returns ``(perm, u, v)``: row i is matched to column ``perm[i]``, and
    the dual potentials keep every reduced cost C[i, j] - u[i] - v[j] >= 0,
    with equality on the matching (both up to round-off; see
    :func:`_certify`).  Column reduction (v = column minima, each column to
    its lowest minimising row while that row is free) starts the matching.
    Then, for each free row in index order, a Dijkstra search over all
    columns at once finds a shortest augmenting path; a scanned column
    reads +inf through a -inf in that search's copy of v.  The search
    scans the lowest-index column among equally near ones, and the path
    runs back through the first-scanned row that reached each column.
    """
    n = len(C)
    u, v = np.zeros(n), C.min(axis=0)
    col_of, row_of = [-1] * n, [-1] * n  # each row's column, each column's row
    for j, i in enumerate(C.argmin(axis=0).tolist()):
        if col_of[i] < 0:
            col_of[i], row_of[j] = j, i
    columns = C.T.copy()  # the path lookups read one column at a time
    for free in [i for i in range(n) if col_of[i] < 0]:
        dist, final, reduced = np.full(n, np.inf), np.zeros(n), np.empty(n)
        v_open, rows, cols, u_row = v.copy(), [free], [], u.tolist()
        i, d = free, 0.0
        for _ in range(n):  # one column per pass, so n passes reach a free one
            np.subtract(C[i], v_open, out=reduced)
            reduced += d - u_row[i]
            np.minimum(dist, reduced, out=dist)
            j = int(dist.argmin())
            d = final[j] = float(dist[j])
            dist[j], v_open[j] = np.inf, -np.inf
            cols.append(j)
            i = row_of[j]
            if i < 0:
                break
            rows.append(i)
        rows = np.array(rows)
        # u of each scanned row minus the distance the search reached it at
        gap = u[rows] - np.append(0.0, final[cols[:-1]])
        k = len(cols)  # the rows scanned before column j, which is cols[k - 1]
        while k:  # flip the path back to the free row, recomputing each step's distances
            k = int((columns[j][rows[:k]] - v[j] - gap[:k]).argmin())
            row_of[j] = i = int(rows[k])
            col_of[i], j = j, col_of[i]
        v[cols] -= d - final[cols]
        u[rows] = d + gap
    return np.array(col_of), u, v


def _certify(C: np.ndarray, perm: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Check that the duals (u, v) prove ``perm`` a minimum-cost matching of C.

    ``perm`` must be a permutation, every reduced cost C[i, j] - u[i] - v[j]
    at least -tol, and the reduced costs on the matching within tol of
    zero, where tol is ``_CERT_RTOL`` times the largest |C[i, j]|.  Then no
    matching costs less than that of ``perm`` minus 2 n tol.  A failure
    (a NaN included) raises ``GeometryError`` naming the worst slack.
    """
    n = len(C)
    slack = C - u[:, None] - v
    tol = _CERT_RTOL * float(np.abs(C).max())
    lowest = float(slack.min())
    matched = float(np.abs(slack[np.arange(n), perm]).max())
    is_perm = np.array_equal(np.sort(perm), np.arange(n))
    if not (is_perm and lowest >= -tol and matched <= tol):
        raise GeometryError(f"assignment not certified optimal: smallest reduced cost {lowest!r}, "
                            f"largest |reduced cost| on the matching {matched!r}, "
                            f"tolerance {tol!r}, permutation {is_perm}")


def wasserstein2_assignment(mu: DiscreteMeasure, nu: DiscreteMeasure,
                            manifold: Optional[Manifold] = None) -> Assignment:
    """Squared Wasserstein-2 matching by a certified shortest-augmenting-path solver.

    Solves the n x n assignment problem on the terms (1/n) C[i, j], the
    numbers :func:`wasserstein2_bruteforce` scores.  The solver (see
    :func:`_solve_assignment`) starts from column reduction and runs one
    Dijkstra search per unmatched row over all columns at once; it skips
    JV's augmenting row reduction.  The worst case is O(n^3); n = 300 takes
    tens of milliseconds.  Before returning, the dual potentials (u, v)
    are checked: every reduced cost C[i, j] - u[i] - v[j] must be at least
    -tol and those on the matching within tol of zero, for tol = 1e-12
    times the largest term; a failed check raises ``GeometryError`` naming
    the worst slack.  Ties go to the lowest index: a column goes to its
    lowest minimising row in the reduction, free rows are served in index
    order, and a search scans the lowest-index column among equally near
    ones.  So among tied optimal matchings the solver's need not be the
    brute force's lexicographically smallest.  Their costs are equal
    whenever the terms of tied matchings sum to the same double, as with
    distinct random atoms or integer costs at n = 2, 4 or 8; at other n,
    rounding (1/n) C[i, j] can leave tied matchings one ulp apart, and the
    brute force reports the smaller.  A cost matrix that overflows raises
    ``ValueError`` naming the atoms of mu and nu.
    """
    return _certified_matching(_terms(mu, nu, manifold))


def _certified_matching(terms: np.ndarray) -> Assignment:
    """The certified optimal matching of the terms, with its exact cost."""
    perm, u, v = _solve_assignment(terms)
    _certify(terms, perm, u, v)
    return Assignment(perm, _matching_cost(terms, perm))


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

    The cost is squared coordinate distance unless ``manifold`` is given;
    then it is squared geodesic distance on that target, which must be the
    fields' own (the same object or registry name), else
    ``FieldMismatchError``.  ``l2_cost`` and ``w2_cost`` come from the
    same terms (1/n) C[i, j], built once: ``w2_cost`` is the matching of
    the certified solver of :func:`wasserstein2_assignment`, at every n,
    and ``l2_cost`` the identity matching, each exactly summed in row
    order.  Among tied optimal matchings the solver's choice follows its
    lowest-index rule, which need not be the brute force's
    lexicographically smallest.  ``equality`` allows, and the bound
    check forgives, the slack of the solver's certificate: 2 n
    ``_CERT_RTOL`` times the largest term, so both scale with the costs.

    Each precondition has one gate.  Fields on different targets or
    domains (sizes included) raise ``FieldMismatchError`` from
    :func:`~mapgeom.mapspace.require_same_space`; each field with its own
    weights becomes a :class:`DiscreteMeasure`, which raises
    ``MeasureError`` unless they sum to 1; and building the terms raises
    ``MeasureError`` ("Monge regime required: masses must all equal 1/n")
    unless they are uniform.
    """
    require_same_space(base, rearranged)
    if manifold is not None and not same_target(manifold, base.manifold):
        raise FieldMismatchError("field mismatch: the cost's manifold is not the fields' target")
    mu = DiscreteMeasure(base.values, base.domain.weights)
    nu = DiscreteMeasure(rearranged.values, rearranged.domain.weights)
    terms = _terms(mu, nu, manifold)  # one matrix serves both sides
    best = _certified_matching(terms)
    l2_cost = _matching_cost(terms, np.arange(len(terms)))
    tol = 2 * len(terms) * _CERT_RTOL * float(np.abs(terms).max())  # the certificate's slack
    if l2_cost < best.cost - tol:
        raise GeometryError(f"transport bound violated: l2={l2_cost!r} < w2={best.cost!r}")
    return SubmersionResult(l2_cost, best.cost, abs(l2_cost - best.cost) <= tol, best)


# ---------------------------------------------------------------------------
# measure files


def measure_from_json(doc) -> DiscreteMeasure:
    doc = files.Document(doc, "measure")
    return DiscreteMeasure(doc.get("atoms", float, 2), doc.get("masses", float, 1))


def save_measure(mu: DiscreteMeasure, path):
    files.write_json(files.as_json(mu), path)


def load_measure(path) -> DiscreteMeasure:
    return files.read_json(path, measure_from_json)
