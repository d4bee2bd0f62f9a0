"""Geodesic machinery on the discretized mapping space.

Trajectories are integrated with the same fixed-step RK4 core as the
pointwise exponential map, :func:`mapgeom.manifold.integrate_spray`, so
the endpoint of a unit-time trajectory is bit-for-bit the value of
:func:`mapgeom.mapspace.exp_field` at matching step counts.  Field
transport (:func:`parallel_transport_field`) steps through the same RK4
formula, :func:`mapgeom.manifold.rk4_step`.  The log map is computed
per sample by shooting: damped Newton on the initial velocity with a
finite-difference Jacobian, seeded by a closed form where the registry
target provides one.  The Jacobian is a forward difference: its k
columns cost a sample k rows, one per coordinate, which ride in one
stacked call with the sample's own row as their base.  From a
closed-form seed a Newton iteration costs two integrations: one for the
Jacobians and one for the first line-search trial.  From the projected
chord, the seed's integration at a fixed step count and the first
iteration's full trial also carry the difference rows of their samples,
so the iteration after each costs one.

The log map's step count is certified unless a caller fixes it: shooting
climbs the step-doubling ladder :func:`mapgeom.manifold.step_doubling_ladder`
(64, 128, ..., 1024 steps, each rung with its twin at half the steps in
one run of :func:`mapgeom.manifold.integrate_twin`, or against the rung in
hand, through :func:`mapgeom.manifold.spray_rungs`, whose first rung also
carries the run at 128 halfway for at most 8 samples) and runs Newton at the first rung N it
reaches, jumping as RK4's h^4 law predicts, where the estimate of every
sample's RK4 error from the runs at N and N/2 is at most the tolerance,
and checks that estimate again for a velocity Newton moved.  Nearby
samples settle at 64 to 256 steps.  An explicit ``steps`` fixes the
count that Newton shoots at and that the returned velocity solves; from
the chord, at 64 steps or more, a first Gauss-Newton step at ``steps //
8`` precedes it, so not every shot is integrated at ``steps``.  The
exponential map and trajectories always integrate with the steps given.
"""

from __future__ import annotations

import contextlib
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
    spray_rungs,
    step_doubling_error,
    step_doubling_ladder,
    steps_needed,
    transport_along_samples,
)
from .mapspace import (
    MapField,
    TangentField,
    field_from_json,
    field_to_json,
    l2_inner,
    l2_norm,
    own,
    require_based,
    require_same_space,
)

LOG_TOL = 1e-10  # default shooting endpoint tolerance of the log map
_NEWTON_ITERS = 50  # Newton iterations the log map's shooting may take
# the least fixed step count whose chord-seeded log starts with a Gauss-Newton step
# at steps // 8: below 8 coarse steps that step fails more often than it helps
COARSE_FLOOR = 64


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


@dataclass(frozen=True)
class GeodesicReport:
    """Per-snapshot diagnostics of an integrated geodesic.

    ``energy_series`` holds the kinetic energy G(qdot, qdot) / 2 per
    snapshot; ``residual_series`` the max-abs finite-difference geodesic
    residual per snapshot (edge entries padded from their neighbours);
    ``drift_series`` the embedding-constraint residual (zero for charts).
    The residual needs three snapshots: with two, ``residual_series`` and
    ``max_pointwise_geodesic_residual`` are NaN, as nothing was measured.
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
    residual = np.full(T, np.nan)  # the second difference needs three snapshots
    if T >= 3:
        # one snapshot at a time, so the kernels' temporaries stay (m, n)
        for j in range(1, T - 1):
            fd2 = (xs[j + 1] - 2.0 * xs[j] + xs[j - 1]) / dt**2
            residual[j] = np.abs(fd2 - spray_accel(man, xs[j], vs[j])).max()
        residual[0] = residual[1]
        residual[-1] = residual[-2]
    drift = np.array([float(np.max(man.residual(x))) for x in xs])
    interior_max = float(residual[1:-1].max()) if T >= 3 else math.nan
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
           steps: Optional[int], tol: float):
    """Damped Newton on initial velocities, batched over samples.

    The Jacobian is a forward difference in each of the k tangent-basis
    coordinates, taken from the residual of the call's own row: a call
    asked for Jacobians integrates k difference rows per sample along with
    its plain rows, and each row's arithmetic is the same as if it were
    integrated alone, because the integrator is row-independent.  Each
    sample keeps the Jacobian at its accepted iterate.  A Newton iteration
    integrates one call for the active samples that have none (the iterate
    again, bit for bit its stored residual, plus k rows per sample), then
    its line-search trials.

    When the seed is the projected chord (the target has no closed-form
    log), two integrations also carry the difference rows of their
    samples: the seed's, at a fixed step count (a certified count reuses
    its last rung instead), and the first iteration's full trial.  A sample
    that accepts that trial has its Jacobian for the next iteration, which
    then costs one integration.  Later trials carry none: the last one's
    Jacobian would go unused.

    From the chord at a fixed count of at least ``COARSE_FLOOR`` steps,
    every sample first takes one Gauss-Newton step from its residual and
    Jacobian at ``steps // 8`` steps, in one call: by Newton's
    mesh-independence principle (Allgower, Boehmer, Potra & Rheinboldt,
    SIAM J. Numer. Anal. 23, 1986) the coarse grid's step is nearly the
    fine grid's, at an eighth of its sequential RK4 steps.  Newton then
    runs at ``steps`` from the iterates, so not every shot is integrated
    at ``steps``.  If the coarse call leaves the domain, or the first call
    at ``steps`` from the iterates does, every sample starts from the
    chord instead, at the cost of that one call: the solve then goes on
    as it would with no coarse step.

    Each sample accepts its own line-search step: halving continues only
    for the samples whose residual did not improve.  A sample is frozen
    once it converges or its line search fails, so one stuck sample
    neither stalls the others nor is blamed for them.  A domain exit
    names every field sample whose geodesic left in that integration,
    each once.

    With ``steps=None`` the step count is certified instead of fixed; see
    :func:`_certified_newton`.
    """
    basis = man.tangent_basis(x0)  # (m, n, k)
    z = np.einsum("sik,si->sk", basis, v_init)
    m, k = z.shape
    everyone = np.arange(m)
    chord = man.closed_form_log is None  # the seed is the projected chord

    def velocity(rows, zz):
        return np.einsum("sik,sk->si", basis[rows], zz)

    def residual(rows, zz, n, jac=False):
        """(r, J): end minus target of samples rows shot with zz at n steps,
        and with ``jac`` their forward-difference Jacobians, from k more rows
        per sample, zz + delta e_c, in the same call; else None."""
        plain = len(rows)
        if jac:
            delta = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.max(np.abs(zz), axis=1))
            zs = np.repeat(zz[None], k, axis=0)  # rows (zz + delta e_c, sample)
            zs[np.arange(k), :, np.arange(k)] += delta
            rows = np.concatenate([rows, np.tile(rows, k)])
            zz = np.concatenate([zz, zs.reshape(-1, k)])
        try:
            end, _ = integrate_spray(man, x0[rows], velocity(rows, zz), n)
        except DomainExitError as exc:  # told by field sample
            exits = [e._replace(sample=int(rows[e.sample])) for e in exc.exits]
            raise DomainExitError(exits) from exc
        r = end - target[rows]
        if not jac:
            return r, None
        rs = r[plain:].reshape(k, plain, r.shape[1])
        # (samples, n, k) in C order: einsum's summation order depends on the layout
        J = np.ascontiguousarray(np.moveaxis((rs - r[:plain]) / delta[:, None], 0, 2))
        return r[:plain], J

    def gauss_newton(J, r):
        """The Gauss-Newton step (J^T J)^-1 J^T r of each sample."""
        JtJ = np.einsum("sic,sid->scd", J, J)
        Jtr = np.einsum("sic,si->sc", J, r)
        try:
            return np.linalg.solve(JtJ, Jtr[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return np.linalg.solve(JtJ + 1e-12 * np.eye(k), Jtr[..., None])[..., 0]

    def newton(r, n, jac=None):
        """Polish z in place from residuals r at n steps, given the Jacobians
        jac at z of every sample or None; returns max |r| per sample."""
        rmax = np.max(np.abs(r), axis=1)
        stuck = np.zeros(m, dtype=bool)
        has_jac = np.full(m, jac is not None)  # whether jac holds the Jacobian at z of a sample
        jac = np.empty(r.shape + (k,)) if jac is None else jac
        for it in range(_NEWTON_ITERS):
            active = np.flatnonzero((rmax > tol) & ~stuck)
            if active.size == 0:
                break
            need = active[~has_jac[active]]
            if need.size:
                _, jac[need] = residual(need, z[need], n, True)
            za = z[active]
            step = gauss_newton(jac[active], r[active])
            alpha = 1.0
            pending = np.ones(active.size, dtype=bool)  # over active: not yet improved
            for _ in range(20):
                idx = np.flatnonzero(pending)
                rows = active[idx]
                z_try = za[idx] - alpha * step[idx]
                carry = chord and it == 0 and alpha == 1.0
                r_try, J_try = residual(rows, z_try, n, carry)
                r_try_max = np.max(np.abs(r_try), axis=1)
                better = r_try_max < rmax[rows]
                z[rows[better]] = z_try[better]
                r[rows[better]] = r_try[better]
                rmax[rows[better]] = r_try_max[better]
                has_jac[rows[better]] = carry
                if carry:
                    jac[rows[better]] = J_try[better]
                pending[idx[better]] = False
                if not pending.any():
                    break
                alpha *= 0.5
            stuck[active[pending]] = True
        return rmax

    if steps is None:
        rung = spray_rungs(man, x0, lambda: velocity(everyone, z), lambda x, v: x - target)
        rmax = _certified_newton(rung, residual, newton, z, tol)
    else:
        r = None
        # the coarse Gauss-Newton step, kept if neither of its calls leaves the domain
        if chord and steps >= COARSE_FLOOR:
            with contextlib.suppress(DomainExitError):
                coarse, J = residual(everyone, z, steps // 8, True)
                moved = z - gauss_newton(J, coarse)
                r, J = residual(everyone, moved, steps, chord)
                z[:] = moved
        if r is None:  # from the seed; the chord's call carries rows
            r, J = residual(everyone, z, steps, chord)
        rmax = newton(r, steps, J)
    bad = np.flatnonzero(rmax > tol)
    if bad.size:
        raise ShootingError("log shooting did not converge", bad,
                            [f"residual {rmax[i]:.3e}" for i in bad], f"; tolerance {tol:.1e}")
    return np.einsum("sik,sk->si", basis, z)


def _certified_newton(run, residual, newton, z, tol):
    """Newton at the first rung N of the ladder that step doubling certifies.

    Each rung of :func:`mapgeom.manifold.step_doubling_ladder` integrates
    every sample once at N through ``run``, a :func:`mapgeom.manifold.spray_rungs`
    of the current iterate, with its twin at N/2 in the same run unless
    that twin is the rung in hand, and the next rung is the one RK4's h^4
    law predicts from the estimates.  The first rung where every sample's
    estimate is at most ``tol`` hands its residual to Newton, so the chosen
    N costs no extra integration.  Samples that Newton moves are integrated
    once more at N/2, so the certificate covers the velocity returned, not
    only the seed; if it fails there, the ladder goes on from the current
    iterate, whose residual Newton wrote into the rung's array, and
    predicts the next rung from the re-estimate, written into the rung's
    estimate.  The re-estimate raises a domain exit; so does the ladder
    when no pair is left to climb to.  Past the cap a
    :class:`ShootingError` names each uncertified sample.  Returns
    Newton's max |r| per sample.
    """
    for n, r, est in step_doubling_ladder(run, tol):
        if est is not None and np.all(est <= tol):
            seed = z.copy()
            rmax = newton(r, n)
            moved = np.flatnonzero(np.any(z != seed, axis=1))
            if moved.size == 0 or np.any(rmax > tol):
                return rmax
            est[moved] = step_doubling_error(r[moved], residual(moved, z[moved], n // 2)[0])
            if np.all(est <= tol):
                return rmax
    bad = np.flatnonzero(est > tol)
    needs = [math.ceil(steps_needed(n, est[i], tol)) for i in bad]
    raise ShootingError(
        f"log shooting: step-doubling error above tolerance {tol:.1e} at the cap of {n} steps",
        bad, [f"estimate {est[i]:.3e}, needs ~{need} steps" for i, need in zip(bad, needs)])


def log_field(q0: MapField, q1: MapField, steps: Optional[int] = None,
              tol: float = LOG_TOL) -> TangentField:
    """Inverse of exp_field by per-sample shooting.

    Seeds with the target's closed-form log when available, otherwise with
    the coordinate (or projected ambient) chord, and polishes with damped
    Newton until the integrated endpoint matches q1 within ``tol``.

    With ``steps=None`` (the default) the step count is the first rung of
    64, 128, ..., 1024, climbed as RK4's h^4 law predicts, at which the
    step-doubling estimate of the RK4 error is at most ``tol`` for every
    sample, checked again for the velocity returned; past 1024 steps a
    :class:`ShootingError` names each sample with its estimate and the
    step count it would need.  An explicit ``steps`` is the count that
    Newton shoots at and that the velocity returned solves to ``tol``;
    from the chord seed at 64 steps or more, a first Gauss-Newton step is
    taken at ``steps // 8`` (see :func:`_shoot`), so not every shot is
    integrated with ``steps``.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")
    if steps is not None:
        require_count("steps", steps)
    require_same_space(q0, q1)
    man = q0.manifold
    if man.closed_form_log is not None:
        v = np.asarray(man.closed_form_log(q0.values, q1.values), dtype=float)
    else:
        v = man.project(q0.values, q1.values - q0.values)
    v[np.all(q0.values == q1.values, axis=1)] = 0.0
    try:
        v = _shoot(man, q0.values, q1.values, v, steps, tol)
    except DomainExitError as exc:
        raise DomainExitError(exc.exits, "log shooting: ") from exc
    return TangentField(q0, v)


def geodesic_distance(q0: MapField, q1: MapField, steps: Optional[int] = None,
                      tol: float = LOG_TOL) -> float:
    """L2 geodesic distance sqrt(G(log, log)), the log shot to ``tol``.

    Equals the square root of the weighted sum of squared pointwise
    target-manifold distances.  ``steps`` is that of :func:`log_field`:
    certified by step doubling when None; otherwise the count the log is
    shot to, after a first Gauss-Newton step at ``steps // 8`` from a
    chord seed at 64 steps or more.
    """
    return l2_norm(q0, log_field(q0, q1, steps=steps, tol=tol))


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
