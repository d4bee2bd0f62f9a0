"""Geodesic machinery on the discretized mapping space.

Trajectories are integrated with the same fixed-step RK4 core as the
pointwise exponential map, so the endpoint of a unit-time trajectory is
bit-for-bit the value of :func:`mapgeom.mapspace.exp_field` at matching
step counts.  The log map is computed per sample by shooting: damped
Newton on the initial velocity with a finite-difference Jacobian, seeded
by a closed form where the registry target provides one.  The 2k
central-difference integrations behind the k Jacobian columns of every
unconverged sample run as one stacked call, so a Newton iteration costs
two integrations: one for the Jacobian and one for the first line-search
trial.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import files
from .errors import DomainExitError, FieldMismatchError, ShootingError
from .manifold import (
    Manifold,
    integrate_spray,
    require_count,
    sample_fastest,
    spray_accel,
    transport_along_samples,
)
from .mapspace import (
    MapField,
    QuadratureDomain,
    TangentField,
    field_from_json,
    field_to_json,
    l2_inner,
    own,
    require_based,
    require_same_space,
)

LOG_TOL = 1e-10  # default shooting endpoint tolerance of the log map
_NEWTON_ITERS = 50  # Newton iterations the log map's shooting may take


@dataclass(frozen=True)
class FieldPath:
    """A time-sampled path of map fields, optionally with velocities."""

    times: np.ndarray
    maps: tuple
    velocities: Optional[tuple] = None

    def __post_init__(self):
        t = own(self, "times", ndim=1)
        if t.size < 2 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must start at 0 and increase strictly, two samples or more")
        maps = tuple(self.maps)
        if len(maps) != t.size:
            raise ValueError("number of map snapshots must match times")
        for q in maps[1:]:
            require_same_space(maps[0], q)
        object.__setattr__(self, "maps", maps)
        if self.velocities is not None:
            vels = tuple(self.velocities)
            if len(vels) != t.size:
                raise ValueError("number of velocity snapshots must match times")
            for q, v in zip(maps, vels):
                require_based(q, v)
            object.__setattr__(self, "velocities", vels)

    @property
    def snapshots(self) -> int:
        return int(self.times.size)

    @property
    def manifold(self) -> Manifold:
        return self.maps[0].manifold

    @property
    def domain(self) -> QuadratureDomain:
        return self.maps[0].domain


@dataclass(frozen=True)
class GeodesicReport:
    """Per-snapshot diagnostics of an integrated geodesic.

    ``energy_series`` holds the kinetic energy G(qdot, qdot) / 2 per
    snapshot; ``residual_series`` the max-abs finite-difference geodesic
    residual per snapshot (edge entries padded from their neighbours);
    ``drift_series`` the embedding-constraint residual (zero for charts).
    """

    times: np.ndarray
    energy_series: np.ndarray
    residual_series: np.ndarray
    drift_series: np.ndarray
    max_pointwise_geodesic_residual: float
    constraint_drift: float


def integrate_geodesic(
    q0: MapField, h0: TangentField, snapshots: int = 11, steps_per_snapshot: int = 100
):
    """Integrate the lifted spray over unit time.

    Returns a :class:`FieldPath` with velocities and a
    :class:`GeodesicReport`.  The trajectory endpoint equals
    ``exp_field(h0, steps=(snapshots - 1) * steps_per_snapshot)``
    bit for bit.
    """
    require_count("snapshots", snapshots, 2)
    require_count("steps_per_snapshot", steps_per_snapshot)
    require_based(q0, h0)
    man = q0.manifold
    total = (snapshots - 1) * steps_per_snapshot
    xs, vs = integrate_spray(man, q0.values, h0.vecs, total, record_every=steps_per_snapshot)
    times = np.linspace(0.0, 1.0, snapshots)
    maps = tuple(MapField(q0.domain, man, xs[j]) for j in range(snapshots))
    vels = tuple(TangentField(maps[j], vs[j]) for j in range(snapshots))
    path = FieldPath(times, maps, vels)
    return path, _diagnose(path, xs, vs)


def _diagnose(path: FieldPath, xs: np.ndarray, vs: np.ndarray) -> GeodesicReport:
    man = path.manifold
    T = path.snapshots
    energy = np.array(
        [0.5 * l2_inner(path.maps[j], path.velocities[j], path.velocities[j]) for j in range(T)]
    )
    dt = float(path.times[1] - path.times[0])
    residual = np.zeros(T)
    if T >= 3:
        # one snapshot at a time, so the kernels' temporaries stay (m, n)
        for j in range(1, T - 1):
            fd2 = (xs[j + 1] - 2.0 * xs[j] + xs[j - 1]) / dt**2
            residual[j] = np.abs(fd2 - spray_accel(man, xs[j], vs[j])).max()
        residual[0] = residual[1]
        residual[-1] = residual[-2]
    drift = np.array([float(np.max(man.residual(x))) for x in xs])
    interior_max = float(residual[1:-1].max()) if T >= 3 else 0.0
    return GeodesicReport(
        times=path.times,
        energy_series=energy,
        residual_series=residual,
        drift_series=drift,
        max_pointwise_geodesic_residual=interior_max,
        constraint_drift=float(drift.max()),
    )


def path_energy(path: FieldPath) -> float:
    """Trapezoid-in-time energy: 1/2 integral of G(qdot, qdot) dt."""
    if path.velocities is None:
        raise ValueError("no velocities: path carries no velocity snapshots")
    t = path.times
    tau = np.empty_like(t)
    tau[0] = 0.5 * (t[1] - t[0])
    tau[-1] = 0.5 * (t[-1] - t[-2])
    if t.size > 2:
        tau[1:-1] = 0.5 * (t[2:] - t[:-2])
    terms = [
        0.5 * tau[j] * l2_inner(path.maps[j], path.velocities[j], path.velocities[j])
        for j in range(t.size)
    ]
    return math.fsum(terms)


def covariant_derivative_along_path(
    path: FieldPath, series: Sequence[TangentField]
) -> list[TangentField]:
    """Covariant time derivative of a tangent-field series along a path.

    Differentiates the series in t (central differences inside, one-sided
    second order at the ends, or the one difference quotient of a
    two-snapshot path) and applies the connector samplewise.
    """
    series = list(series)
    if len(series) != path.snapshots:
        raise FieldMismatchError("field mismatch: series length differs from path length")
    if path.velocities is None:
        raise ValueError("no velocities: path carries no velocity snapshots")
    for q, s in zip(path.maps, series):
        require_based(q, s)
    man = path.manifold
    stack = np.stack([s.vecs for s in series])  # (T, m, n)
    # a second-order edge needs three snapshots; FieldPath allows two
    dstack = np.gradient(stack, path.times, axis=0, edge_order=min(2, path.snapshots - 1))
    out = []
    for j in range(path.snapshots):
        vec = man.connector(path.maps[j].values, stack[j], path.velocities[j].vecs, dstack[j])
        out.append(TangentField(path.maps[j], vec))
    return out


def parallel_transport_field(path: FieldPath, v0: TangentField) -> TangentField:
    """Transport a tangent field along a path, sample by sample."""
    require_based(path.maps[0], v0)
    points = sample_fastest((path.snapshots,) + v0.vecs.shape, axis=1)  # (T, m, n)
    for j, q in enumerate(path.maps):
        points[j] = q.values
    X = transport_along_samples(path.manifold, points, v0.vecs)
    return TangentField(path.maps[-1], X)


# ---------------------------------------------------------------------------
# log map by shooting


def _shoot(man: Manifold, x0: np.ndarray, target: np.ndarray, v_init: np.ndarray,
           steps: int, tol: float):
    """Damped Newton on initial velocities, batched over samples.

    The Jacobian is a central difference in each of the k tangent-basis
    coordinates.  The ±delta rows of all k columns of every active sample
    (2k rows per sample) go through one ``integrate_spray`` call; each
    row's arithmetic is the same as if it were integrated alone, because
    the integrator is row-independent.  Each iteration thus costs two
    integrations: the Jacobian and the first line-search trial.

    Each sample accepts its own line-search step: halving continues only
    for the samples whose residual did not improve.  A sample is frozen
    once it converges or its line search fails, so one stuck sample
    neither stalls the others nor is blamed for them.  A domain exit
    names the field sample whose geodesic left.
    """
    basis = man.tangent_basis(x0)  # (m, n, k)
    z = np.einsum("sik,si->sk", basis, v_init)
    k = z.shape[1]

    def residual(rows, zz):
        try:
            end, _ = integrate_spray(man, x0[rows], np.einsum("sik,sk->si", basis[rows], zz), steps)
        except DomainExitError as exc:
            sample = int(rows[exc.sample])  # exc.sample indexes the integrated rows
            raise DomainExitError(
                f"log shooting: geodesic of sample {sample} {exc.reason}",
                time=exc.time, sample=sample, reason=exc.reason,
            ) from exc
        return end - target[rows]

    r = residual(np.arange(x0.shape[0]), z)
    rmax = np.max(np.abs(r), axis=1)
    stuck = np.zeros(x0.shape[0], dtype=bool)
    for _ in range(_NEWTON_ITERS):
        active = np.flatnonzero((rmax > tol) & ~stuck)
        if active.size == 0:
            break
        za = z[active]
        delta = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.max(np.abs(za), axis=1))
        cols = np.arange(k)
        zs = np.repeat(za[None], 2 * k, axis=0)  # rows (+delta e_c, then -delta e_c, sample)
        zs[cols, :, cols] += delta
        zs[k + cols, :, cols] -= delta
        rs = residual(np.tile(active, 2 * k), zs.reshape(-1, k)).reshape(2 * k, active.size, -1)
        # (active, n, k) in C order: einsum's summation order depends on the layout
        J = np.ascontiguousarray(np.moveaxis((rs[:k] - rs[k:]) / (2.0 * delta[:, None]), 0, 2))
        JtJ = np.einsum("sic,sid->scd", J, J)
        Jtr = np.einsum("sic,si->sc", J, r[active])
        try:
            step = np.linalg.solve(JtJ, Jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            JtJ = JtJ + 1e-12 * np.eye(k)
            step = np.linalg.solve(JtJ, Jtr[..., None])[..., 0]
        alpha = 1.0
        pending = np.ones(active.size, dtype=bool)  # over active: not yet improved
        for _ in range(20):
            idx = np.flatnonzero(pending)
            rows = active[idx]
            z_try = za[idx] - alpha * step[idx]
            r_try = residual(rows, z_try)
            r_try_max = np.max(np.abs(r_try), axis=1)
            better = r_try_max < rmax[rows]
            z[rows[better]] = z_try[better]
            r[rows[better]] = r_try[better]
            rmax[rows[better]] = r_try_max[better]
            pending[idx[better]] = False
            if not pending.any():
                break
            alpha *= 0.5
        stuck[active[pending]] = True
    bad = np.flatnonzero(rmax > tol)
    if bad.size:
        listing = ", ".join(f"{i} (residual {rmax[i]:.3e})" for i in bad)
        raise ShootingError(
            f"log shooting did not converge at sample{'s' if bad.size > 1 else ''} "
            f"{listing}; tolerance {tol:.1e}",
            sample=int(bad[0]),
        )
    return np.einsum("sik,sk->si", basis, z)


def log_field(q0: MapField, q1: MapField, steps: int = 1000,
              tol: float = LOG_TOL) -> TangentField:
    """Inverse of exp_field by per-sample shooting.

    Seeds with the target's closed-form log when available, otherwise with
    the coordinate (or projected ambient) chord, and polishes with damped
    Newton until the integrated endpoint matches q1 within ``tol``.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    require_count("steps", steps)
    require_same_space(q0, q1)
    man = q0.manifold
    if man.closed_form_log is not None:
        v = np.asarray(man.closed_form_log(q0.values, q1.values), dtype=float)
    else:
        v = man.project(q0.values, q1.values - q0.values)
    v[np.all(q0.values == q1.values, axis=1)] = 0.0
    v = _shoot(man, q0.values, q1.values, v, steps, tol)
    return TangentField(q0, v)


def geodesic_distance(q0: MapField, q1: MapField, steps: int = 1000,
                      tol: float = LOG_TOL) -> float:
    """L2 geodesic distance sqrt(G(log, log)), the log shot to ``tol``.

    Equals the square root of the weighted sum of squared pointwise
    target-manifold distances.
    """
    h = log_field(q0, q1, steps=steps, tol=tol)
    return math.sqrt(l2_inner(q0, h, h))


# ---------------------------------------------------------------------------
# file formats


def path_to_json(path: FieldPath) -> dict:
    doc = {
        "times": path.times.tolist(),
        "maps": [field_to_json(q) for q in path.maps],
    }
    if path.velocities is not None:
        doc["velocities"] = [v.vecs.tolist() for v in path.velocities]
    return doc


def path_from_json(doc) -> FieldPath:
    doc = files.Document(doc, "path")
    times = doc.get("times", float, 1)
    maps = tuple(field_from_json(d) for d in doc.each("maps"))
    vels = doc.get("velocities", float, 3, optional=True)
    if vels is not None:
        if len(vels) != len(maps):
            raise ValueError("malformed path entry 'velocities': one snapshot per map needed")
        vels = tuple(TangentField(q, v) for q, v in zip(maps, vels))
    return FieldPath(times, maps, vels)


def save_path(path: FieldPath, filename):
    files.write_json(path_to_json(path), filename)


def load_path(filename) -> FieldPath:
    return files.read_json(filename, path_from_json)


def save_report_json(report: GeodesicReport, filename):
    files.write_json(files.as_json(report), filename)


def save_report_csv(report: GeodesicReport, filename):
    with open(filename, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "energy", "residual", "drift"])
        series = (report.times, report.energy_series, report.residual_series, report.drift_series)
        for row in zip(*series):
            writer.writerow([repr(float(v)) for v in row])
