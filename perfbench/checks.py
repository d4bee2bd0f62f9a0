"""Output checks made apart from mapgeom.

Every check here uses plain NumPy and closed-form geometry written out
below (great circles, the hyperbolic distance, constant-curvature tensors,
an enumeration of matchings), or a property the numerical method must have
(a point stays on its surface, speed is conserved, parallel transport is an
isometry).  Nothing is imported from mapgeom, so a fault in the program
cannot hide in its own check.  A failing check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with its independent reference."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def within(name: str, err: float, tol: float):
    require(bool(np.isfinite(err)) and err <= tol, f"{name}: error {err:.3e} > tolerance {tol:.1e}")


# ---------------------------------------------------------------------------
# closed-form geometry of the registry targets (unit sphere, half-plane,
# paraboloid z = x^2 + y^2)


def sphere_chart_metric(x: np.ndarray) -> np.ndarray:
    """Round metric in polar coordinates (theta, phi): diag(1, sin^2 theta)."""
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(x[..., 0]) ** 2
    return g


def halfplane_metric(x: np.ndarray) -> np.ndarray:
    """Poincare half-plane metric I / y^2."""
    g = np.zeros(x.shape[:-1] + (2, 2))
    g[..., 0, 0] = g[..., 1, 1] = 1.0 / x[..., 1] ** 2
    return g


CHART_METRICS = {"sphere:r=1.0:rep=chart": sphere_chart_metric, "halfplane": halfplane_metric}
CHART_CURVATURE = {"sphere:r=1.0:rep=chart": 1.0, "halfplane": -1.0}


def inner(g, a, b) -> np.ndarray:
    """Per-sample g(a, b); ``g`` None means the ambient Euclidean product."""
    if g is None:
        return np.einsum("si,si->s", a, b)
    return np.einsum("sij,si,sj->s", g, a, b)


def sphere_embed(x: np.ndarray) -> np.ndarray:
    th, ph = x[..., 0], x[..., 1]
    return np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)


def sphere_push(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Differential of the polar embedding applied to chart vectors."""
    th, ph = x[..., 0], x[..., 1]
    dth = np.stack([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)], axis=-1)
    dph = np.stack([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), np.zeros_like(th)], axis=-1)
    return v[..., 0:1] * dth + v[..., 1:2] * dph


def great_circle(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """exp_p(u) on the unit sphere: cos|u| p + sin|u| u / |u|."""
    n = np.linalg.norm(u, axis=-1, keepdims=True)
    safe = np.where(n > 0.0, n, 1.0)
    return np.cos(n) * p + np.where(n > 0.0, np.sin(n) / safe, 1.0) * u


def sphere_chart_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    pa, pb = sphere_embed(a), sphere_embed(b)
    return np.arctan2(np.linalg.norm(np.cross(pa, pb), axis=-1), np.einsum("si,si->s", pa, pb))


def halfplane_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum((a - b) ** 2, axis=-1)
    return np.arccosh(1.0 + sq / (2.0 * a[..., 1] * b[..., 1]))


CHART_DISTANCE = {"sphere:r=1.0:rep=chart": sphere_chart_distance, "halfplane": halfplane_distance}


def paraboloid_residual(p: np.ndarray) -> np.ndarray:
    return np.abs(p[..., 2] - p[..., 0] ** 2 - p[..., 1] ** 2)


def l2_distance(weights: np.ndarray, pointwise: np.ndarray) -> float:
    """sqrt(sum_i w_i d_i^2): the L2 distance of fields of pointwise geodesics."""
    return math.sqrt(math.fsum((weights * pointwise**2).tolist()))


# ---------------------------------------------------------------------------
# exp_wide


def check_exp_endpoints(spec: str, x, v, end, tol: float):
    """Endpoints of exp against the closed form of each target.

    The sphere targets are checked against the great circle, the
    half-plane by d(x, exp v) = |v|_g, the paraboloid by lying on its
    surface (its other properties are checked on the geodesic path).
    """
    x, v, end = (np.asarray(a, dtype=float) for a in (x, v, end))
    require(end.shape == x.shape, f"{spec}: endpoint shape {end.shape} != {x.shape}")
    require(bool(np.all(np.isfinite(end))), f"{spec}: non-finite endpoints")
    if spec == "sphere:r=1.0:rep=embedded":
        err = np.max(np.abs(great_circle(x, v) - end))
    elif spec == "sphere:r=1.0:rep=chart":
        err = np.max(np.abs(great_circle(sphere_embed(x), sphere_push(x, v)) - sphere_embed(end)))
    elif spec == "halfplane":
        speed = np.sqrt(inner(halfplane_metric(x), v, v))
        err = np.max(np.abs(halfplane_distance(x, end) - speed))
    elif spec == "paraboloid":
        err = np.max(paraboloid_residual(end))
    else:
        raise ValueError(f"no closed form for {spec}")
    within(f"{spec} exp endpoints", float(err), tol)


def check_geodesic(spec: str, x, v, exp_end, xs, vs, energies, back, tol: float):
    """A geodesic path: it starts at (x, v), ends bitwise at exp_field's
    endpoint, keeps its speed and its energy, and on the paraboloid stays
    on the surface and retraces itself when integrated back from -v_end
    (``back`` is that endpoint; None on other targets)."""
    xs, vs = np.asarray(xs, dtype=float), np.asarray(vs, dtype=float)
    require(np.array_equal(xs[0], x) and np.array_equal(vs[0], v), f"{spec}: path does not start at (x, v)")
    require(np.array_equal(xs[-1], exp_end), f"{spec}: path endpoint differs from exp_field endpoint")
    metric = CHART_METRICS.get(spec)
    g0 = None if metric is None else metric(xs[0])
    g1 = None if metric is None else metric(xs[-1])
    speed0 = inner(g0, vs[0], vs[0])
    within(f"{spec} speed conservation", float(np.max(np.abs(inner(g1, vs[-1], vs[-1]) - speed0))), tol)
    energies = np.asarray(energies, dtype=float)
    rel = float(np.max(np.abs(energies - energies[0])) / energies[0])
    within(f"{spec} energy conservation", rel, tol)
    if spec == "paraboloid":
        within(f"{spec} on surface", float(np.max(paraboloid_residual(xs))), tol)
        within(f"{spec} reversibility", float(np.max(np.abs(np.asarray(back) - x))), tol)


def check_transport(spec: str, x, v, w, x_end, v_end, w_end, tol: float):
    """Parallel transport is an isometry that keeps the geodesic's own
    velocity parallel: |w| and g(w, v) are the same at both ends."""
    metric = CHART_METRICS.get(spec)
    g0 = None if metric is None else metric(np.asarray(x))
    g1 = None if metric is None else metric(np.asarray(x_end))
    w_end = np.asarray(w_end, dtype=float)
    require(w_end.shape == np.shape(w), f"{spec}: transported field has shape {w_end.shape}")
    err_norm = np.max(np.abs(inner(g1, w_end, w_end) - inner(g0, w, w)))
    err_inner = np.max(np.abs(inner(g1, w_end, v_end) - inner(g0, w, v)))
    within(f"{spec} transport keeps norms", float(err_norm), tol)
    within(f"{spec} transport keeps angles with the velocity", float(err_inner), tol)


# ---------------------------------------------------------------------------
# log_narrow


def check_roundtrip(name: str, target, exp_of_log, tol: float):
    """exp(log(q0, q1)) reproduces q1."""
    err = np.max(np.abs(np.asarray(exp_of_log, dtype=float) - np.asarray(target, dtype=float)))
    within(f"{name} exp(log) round trip", float(err), tol)


def check_distance(spec: str, weights, a, b, got: float, tol: float):
    """The L2 distance against the closed-form pointwise distance."""
    ref = l2_distance(np.asarray(weights, dtype=float), CHART_DISTANCE[spec](np.asarray(a), np.asarray(b)))
    within(f"{spec} distance", abs(float(got) - ref), tol)


# ---------------------------------------------------------------------------
# verify_transport and curvature


def check_curvature(spec: str, x, h, k, l, R, tol: float):
    """R(h, k) l = K (g(k, l) h - g(h, l) k) for constant curvature K."""
    x = np.asarray(x, dtype=float)
    g = CHART_METRICS[spec](x)
    K = CHART_CURVATURE[spec]
    ref = K * (inner(g, k, l)[:, None] * h - inner(g, h, l)[:, None] * k)
    within(f"{spec} curvature", float(np.max(np.abs(np.asarray(R) - ref))), tol)


def check_reports(name: str, reports):
    """Every oracle report (a dict with check_name/passed) passed."""
    require(len(reports) > 0, f"{name}: no reports")
    failed = [r["check_name"] for r in reports if r["passed"] is not True]
    require(not failed, f"{name}: failed oracle checks {failed}")


def enumerate_w2(a, b):
    """Exact squared W2 between two uniform clouds of equal size, by trying
    every matching; ties keep the lexicographically smallest permutation."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    cost = [[float(np.sum((a[i] - b[j]) ** 2)) for j in range(n)] for i in range(n)]
    best, best_perm = math.inf, None
    for perm in itertools.permutations(range(n)):
        c = math.fsum(cost[i][perm[i]] / n for i in range(n))
        if c < best:
            best, best_perm = c, perm
    return best, list(best_perm)


def _check_permutation(name: str, perm, n: int):
    require(sorted(int(p) for p in perm) == list(range(n)), f"{name}: {list(perm)} is not a permutation of 0..{n - 1}")


def check_w2_bruteforce(a, b, perm, cost: float, ref=None, rel_tol: float = 1e-12):
    """The brute-force matching equals the enumeration above."""
    ref_cost, ref_perm = enumerate_w2(a, b) if ref is None else ref
    _check_permutation("w2 brute force", perm, len(a))
    require(list(map(int, perm)) == ref_perm, f"w2 brute force: permutation {list(perm)} != {ref_perm}")
    within("w2 brute force cost", abs(float(cost) - ref_cost), rel_tol * max(ref_cost, 1e-300))


def check_no_improving_swap(a, b, perm, cost: float, rel_tol: float = 1e-12):
    """No exchange of two partners lowers the cost of the matching, and the
    reported cost is the cost of the reported matching."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = len(a)
    perm = np.asarray(perm, dtype=int)
    _check_permutation("w2 assignment", perm, n)
    C = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    matched = C[np.arange(n), perm]
    within("w2 assignment cost", abs(float(cost) - math.fsum((matched / n).tolist())), rel_tol * max(cost, 1e-300))
    kept = matched[:, None] + matched[None, :]
    swapped = C[:, perm] + C[:, perm].T
    gain = float(np.max(kept - swapped))
    within("w2 assignment pairwise swap gain", gain, rel_tol * float(np.max(C)))


def check_submersion(l2: float, w2: float, equality: bool, identity: bool):
    """w2 <= l2 for any rearrangement, with equality for the identity."""
    require(w2 <= l2 + 1e-12, f"submersion: w2 {w2!r} > l2 {l2!r}")
    if identity:
        require(equality and abs(l2 - w2) <= 1e-12, f"submersion: identity gives l2 {l2!r} != w2 {w2!r}")
