"""The benchmark's four workloads: their inputs, operations and checks.

``build(name, seed, workdir, trace)`` makes a workload's inputs from the
seed alone and returns its operations as a :class:`Round` of :class:`Part`.  One
round runs every part once, in the listed order, which interleaves the
targets and operation kinds of the mix.  The program only ever sees the
generated inputs.  mapgeom is always reached through module attributes
(``mapspace.exp_field``), so the wrappers of :mod:`tracer` see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mapgeom import dynamics, manifold, mapspace, reparam, transport, verification
from mapgeom.errors import GeometryError

import checks

WORKLOADS = ("exp_wide", "log_narrow", "cli_batch", "verify_transport")

SPHERE = "sphere:r=1.0:rep=embedded"
SPHERE_CHART = "sphere:r=1.0:rep=chart"
HALFPLANE = "halfplane"
PARABOLOID = "paraboloid"
TARGETS = (SPHERE, SPHERE_CHART, HALFPLANE, PARABOLOID)

# exp_wide: wide fields, so per-sample kernels dominate each RK4 step
WIDE_M = 2048
SNAPSHOTS, STEPS_PER_SNAPSHOT = 21, 2
WIDE_STEPS = (SNAPSHOTS - 1) * STEPS_PER_SNAPSHOT
# at least 20x the largest error seen over 60 seeds (RK4 with 40 steps;
# transport by one RK4 step per chord of the 21-snapshot path)
WIDE_TOL, TRANSPORT_TOL = 1e-6, 2e-3
# log_narrow: a handful of samples, so the fixed cost per RK4 step dominates
NARROW_M = 4
PARABOLOID_LOG_STEPS = 200
DISTANCE_FIELDS = 4  # per closed-form target and round

BOOT = Path(__file__).with_name("cli_boot.py")


class OperationFailed(Exception):
    """An operation of the program failed (an exception or a non-zero exit)."""


FAILURES = (GeometryError, OperationFailed)


@dataclass
class Part:
    """One operation of a round: ``work`` units, a full output check, and a
    digest that later rounds must reproduce bit for bit."""

    name: str
    work: int
    run: Callable
    check: Callable
    digest: Callable


@dataclass
class Round:
    """The parts of one round, the work units it completes, and for the CLI
    the largest resident set of any child process so far."""

    parts: list
    work: float
    child_rss_kb: dict | None = None


def child_env(src: Path) -> dict:
    """This process's environment (with its BLAS pool size) and ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("MAPGEOM_THREADS", None)  # the CLI's own thread default applies
    return env


def _rng(seed: int, workload: str):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _digest(*arrays) -> bytes:
    h = hashlib.sha1()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.digest()


def _domain(m: int):
    return mapspace.QuadratureDomain(np.full(m, 1.0 / m))


# ---------------------------------------------------------------------------
# input generation, written apart from mapgeom's own samplers


def _points(spec: str, rng, m: int, half_width: float = 0.8) -> np.ndarray:
    """Random points; ``half_width`` bounds x and y on the paraboloid."""
    if spec == SPHERE:
        g = rng.normal(size=(m, 3))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    if spec == SPHERE_CHART:  # a band around the equator keeps geodesics off the poles
        return np.stack([rng.uniform(np.pi / 2 - 0.5, np.pi / 2 + 0.5, m), rng.uniform(-2.5, 2.5, m)], 1)
    if spec == HALFPLANE:
        return np.stack([rng.uniform(-1.0, 1.0, m), rng.uniform(0.5, 2.0, m)], 1)
    xy = rng.uniform(-half_width, half_width, size=(m, 2))
    return np.concatenate([xy, np.sum(xy**2, axis=1, keepdims=True)], 1)


def _normal(spec: str, p: np.ndarray) -> np.ndarray:
    if spec == SPHERE:
        return p
    n = np.stack([-2.0 * p[:, 0], -2.0 * p[:, 1], np.ones(len(p))], 1)
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _tangents(spec: str, rng, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Random tangent vectors with lengths uniform in [lo, hi]."""
    d = rng.normal(size=x.shape)
    if spec in (SPHERE, PARABOLOID):
        n = _normal(spec, x)
        d -= np.einsum("si,si->s", d, n)[:, None] * n
        length = np.linalg.norm(d, axis=1)
    else:
        length = np.sqrt(checks.inner(checks.CHART_METRICS[spec](x), d, d))
    return d * (rng.uniform(lo, hi, len(x)) / length)[:, None]


def _map(spec: str, x):
    return mapspace.MapField(_domain(len(x)), manifold.make_manifold(spec), x)


# ---------------------------------------------------------------------------
# exp_wide


def _build_exp_wide(rng, workdir, trace):
    fields = {}
    for spec in TARGETS:
        x = _points(spec, rng, WIDE_M)
        q = _map(spec, x)
        fields[spec] = (
            q,
            mapspace.TangentField(q, _tangents(spec, rng, x, 0.05, 0.7)),
            mapspace.TangentField(q, _tangents(spec, rng, x, 0.05, 1.0)),
        )
    latest = {}  # newest output of each part; the geodesic check and transport use it

    def exp_part(spec):
        q, h, _ = fields[spec]

        def run():
            latest["exp", spec] = out = mapspace.exp_field(h, steps=WIDE_STEPS)
            return out

        def check(out):
            checks.check_exp_endpoints(spec, q.values, h.vecs, out.values, WIDE_TOL)

        return Part(f"exp.{spec}", WIDE_M * WIDE_STEPS, run, check, lambda out: _digest(out.values))

    def geodesic_part(spec):
        q, h, _ = fields[spec]

        def run():
            latest["geodesic", spec] = out = dynamics.integrate_geodesic(
                q, h, snapshots=SNAPSHOTS, steps_per_snapshot=STEPS_PER_SNAPSHOT
            )
            return out

        def check(out):
            path, report = out
            xs = np.stack([m.values for m in path.maps])
            vs = np.stack([v.vecs for v in path.velocities])
            back = None
            if spec == PARABOLOID:
                back, _ = manifold.integrate_spray(q.manifold, xs[-1], -vs[-1], WIDE_STEPS)
            exp_end = latest["exp", spec].values
            checks.check_geodesic(spec, q.values, h.vecs, exp_end, xs, vs, report.energy_series, back, WIDE_TOL)

        def digest(out):
            path, report = out
            return _digest(path.maps[-1].values, path.velocities[-1].vecs, report.energy_series,
                           report.residual_series, report.drift_series)

        return Part(f"geodesic.{spec}", WIDE_M * WIDE_STEPS, run, check, digest)

    def transport_part(spec):
        q, h, w = fields[spec]

        def run():
            if ("geodesic", spec) not in latest:
                raise OperationFailed(f"no geodesic path on {spec} to transport along")
            return dynamics.parallel_transport_field(latest["geodesic", spec][0], w)

        def check(out):
            path = latest["geodesic", spec][0]
            checks.check_transport(spec, q.values, h.vecs, w.vecs, path.maps[-1].values,
                                   path.velocities[-1].vecs, out.vecs, TRANSPORT_TOL)

        return Part(f"transport.{spec}", WIDE_M * (SNAPSHOTS - 1), run, check, lambda out: _digest(out.vecs))

    parts = ([exp_part(s) for s in TARGETS] + [geodesic_part(s) for s in TARGETS]
             + [transport_part(s) for s in TARGETS])
    return Round(parts, sum(p.work for p in parts))


# ---------------------------------------------------------------------------
# log_narrow


def _build_log_narrow(rng, workdir, trace):
    # The paraboloid has no closed-form log: shooting runs damped Newton from
    # the projected chord.  Lengths in [0.1, 0.25] converge in two Newton
    # iterations on every seed tried, so each round does the same work.
    x = _points(PARABOLOID, rng, NARROW_M, half_width=0.5)
    q0 = _map(PARABOLOID, x)
    h = mapspace.TangentField(q0, _tangents(PARABOLOID, rng, x, 0.1, 0.25))
    q1 = mapspace.exp_field(h, steps=PARABOLOID_LOG_STEPS)

    def check_paraboloid(out):
        back = mapspace.exp_field(out, steps=PARABOLOID_LOG_STEPS)
        checks.check_roundtrip(PARABOLOID, q1.values, back.values, 1e-9)

    parts = [Part(
        f"log.{PARABOLOID}", NARROW_M,
        lambda: dynamics.log_field(q0, q1, steps=PARABOLOID_LOG_STEPS),
        check_paraboloid, lambda out: _digest(out.vecs),
    )]

    def distance_part(spec, i):
        # nearby points: the closed-form seed is within tolerance after a
        # single integration of 1000 steps
        a = _points(spec, rng, NARROW_M)
        b = a + rng.uniform(-0.4, 0.4, size=a.shape)
        p0, p1 = _map(spec, a), _map(spec, b)

        def check(out):
            checks.check_distance(spec, p0.domain.weights, a, b, out, 1e-8)

        return Part(f"distance.{spec}.{i}", NARROW_M, lambda: dynamics.geodesic_distance(p0, p1),
                    check, lambda out: np.float64(out).tobytes())

    for i in range(DISTANCE_FIELDS):
        parts += [distance_part(HALFPLANE, i), distance_part(SPHERE_CHART, i)]
    return Round(parts, sum(p.work for p in parts))


# ---------------------------------------------------------------------------
# verify_transport


def _reports(reports):
    return [r.to_json() for r in reports]


def _build_verify_transport(rng, workdir, trace):
    seed = int(rng.integers(2**31))

    def battery_part(spec):
        man = manifold.make_manifold(spec)
        return Part(
            f"standard_checks.{spec}", 0,
            lambda: _reports(verification.standard_checks(man, instances=100, seed=seed)),
            lambda out: checks.check_reports(f"standard_checks {spec}", out),
            lambda out: json.dumps(out, sort_keys=True).encode(),
        )

    def curvature_part(spec):
        x = _points(spec, rng, 4096)
        q = _map(spec, x)
        h, k, l = (mapspace.TangentField(q, rng.uniform(-1.0, 1.0, size=x.shape)) for _ in range(3))
        return Part(
            f"curvature.{spec}", 0,
            lambda: mapspace.curvature_field(q, h, k, l),
            lambda out: checks.check_curvature(spec, x, h.vecs, k.vecs, l.vecs, out.vecs, 1e-10),
            lambda out: _digest(out.vecs),
        )

    def measure(n):
        return transport.DiscreteMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))

    mu8, nu8 = measure(8), measure(8)
    brute = Part(
        "w2_bruteforce.n8", 0,
        lambda: transport.wasserstein2_bruteforce(mu8, nu8),
        lambda out: checks.check_w2_bruteforce(mu8.atoms, nu8.atoms, out.perm, out.cost),
        lambda out: _digest(out.perm, np.float64(out.cost)),
    )
    mu300, nu300 = measure(300), measure(300)
    assignment = Part(
        "w2_assignment.n300", 0,
        lambda: transport.wasserstein2_assignment(mu300, nu300),
        lambda out: checks.check_no_improving_swap(mu300.atoms, nu300.atoms, out.perm, out.cost),
        lambda out: _digest(out.perm, np.float64(out.cost)),
    )

    # the permutation action on a half-plane field; every operator commutes with it bit for bit
    xe = _points(HALFPLANE, rng, 512)
    qe = _map(HALFPLANE, xe)
    he, ke, le = (mapspace.TangentField(qe, rng.uniform(-0.3, 0.3, size=xe.shape)) for _ in range(3))
    phi = reparam.DiscreteDiffeo(rng.permutation(512))

    def equivariance():
        return _reports([
            reparam.check_equivariance(phi, "connector", xi=mapspace.spray_field(he)),
            reparam.check_equivariance(phi, "spray", h=he),
            reparam.check_equivariance(phi, "exp", h=he, steps=50),
            reparam.check_equivariance(phi, "curvature", q=qe, h=he, k=ke, l=le),
        ])

    equi = Part("equivariance.halfplane", 0, equivariance,
                lambda out: checks.check_reports("equivariance", out),
                lambda out: json.dumps(out, sort_keys=True).encode())

    # the transport bound for a displaced configuration and for the identity
    xs = _points(HALFPLANE, rng, 8)
    base = _map(HALFPLANE, xs)
    moved = _map(HALFPLANE, xs + rng.uniform(-0.3, 0.3, size=xs.shape))

    def submersion():
        return transport.submersion_check(base, moved), transport.submersion_check(base, base)

    def check_submersion(out):
        displaced, identity = out
        checks.check_submersion(displaced.l2_cost, displaced.w2_cost, displaced.equality, identity=False)
        checks.check_submersion(identity.l2_cost, identity.w2_cost, identity.equality, identity=True)
        checks.check_w2_bruteforce(xs, moved.values, displaced.assignment.perm, displaced.w2_cost)

    sub = Part("submersion.n8", 0, submersion, check_submersion,
               lambda out: np.array([r.l2_cost for r in out] + [r.w2_cost for r in out]).tobytes())

    parts = [
        battery_part(SPHERE), curvature_part(SPHERE_CHART), battery_part(SPHERE_CHART), brute,
        battery_part(HALFPLANE), equi, battery_part(PARABOLOID), assignment,
        curvature_part(HALFPLANE), sub,
    ]
    return Round(parts, 1)


# ---------------------------------------------------------------------------
# cli_batch


def _save(field, path: Path):
    mapspace.save_field(field, str(path))


def _build_cli_batch(rng, workdir, trace):
    """Input files for one call of each of the nine subcommands, on chart
    targets only; the CLI runs as a child process, one at a time."""
    workdir = Path(workdir)
    src = Path(sys.modules["mapgeom"].__file__).parents[1]
    env = child_env(src)
    seed = int(rng.integers(2**31))

    x_exp = _points(SPHERE_CHART, rng, 64)
    q_exp = _map(SPHERE_CHART, x_exp)
    h_exp = mapspace.TangentField(q_exp, _tangents(SPHERE_CHART, rng, x_exp, 0.05, 0.7))
    _save(h_exp, workdir / "sphere_h.json")

    x_geo = _points(HALFPLANE, rng, 64)
    q_geo = _map(HALFPLANE, x_geo)
    h_geo = mapspace.TangentField(q_geo, _tangents(HALFPLANE, rng, x_geo, 0.05, 0.7))
    _save(h_geo, workdir / "halfplane_h.json")

    pairs = {}
    for spec, stem in ((HALFPLANE, "halfplane"), (SPHERE_CHART, "sphere")):
        a = _points(spec, rng, 8)
        b = a + rng.uniform(-0.4, 0.4, size=a.shape)
        _save(_map(spec, a), workdir / f"{stem}_q0.json")
        _save(_map(spec, b), workdir / f"{stem}_q1.json")
        pairs[spec] = (a, b)

    x_curv = _points(SPHERE_CHART, rng, 256)
    q_curv = _map(SPHERE_CHART, x_curv)
    hkl = [rng.uniform(-1.0, 1.0, size=x_curv.shape) for _ in range(3)]
    _save(q_curv, workdir / "curv_q.json")
    for name, vecs in zip("hkl", hkl):
        _save(mapspace.TangentField(q_curv, vecs), workdir / f"curv_{name}.json")

    (workdir / "perm.json").write_text(json.dumps(rng.permutation(64).tolist()) + "\n")
    mu, nu = rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
    for name, atoms in (("mu", mu), ("nu", nu)):
        doc = {"atoms": atoms.tolist(), "masses": [1.0 / 8] * 8}
        (workdir / f"{name}.json").write_text(json.dumps(doc) + "\n")

    def load(name):
        return json.loads((workdir / name).read_text())

    def check_exp(out):
        checks.check_exp_endpoints(SPHERE_CHART, x_exp, h_exp.vecs, np.array(load("exp_out.json")["values"]), 1e-7)

    def check_geodesic(out):
        path = load("geodesic_path.json")
        xs = np.array([m["values"] for m in path["maps"]])
        vs = np.array(path["velocities"])
        energies = np.array(load("geodesic_report.json")["energy_series"])
        csv_rows = (workdir / "geodesic_report.csv").read_text().splitlines()
        checks.require(len(csv_rows) == 1 + len(xs), "geodesic: CSV report rows do not match snapshots")
        checks.check_exp_endpoints(HALFPLANE, x_geo, h_geo.vecs, xs[-1], 1e-7)
        checks.check_geodesic(HALFPLANE, x_geo, h_geo.vecs, xs[-1], xs, vs, energies, None, 1e-7)

    def check_log(out):
        a, b = pairs[HALFPLANE]
        doc = load("log_out.json")
        v = np.array(doc["vecs"])
        checks.require(np.array_equal(np.array(doc["values"]), a), "log: output not based at --base")
        speed = np.sqrt(checks.inner(checks.halfplane_metric(a), v, v))
        checks.within("halfplane log length", float(np.max(np.abs(speed - checks.halfplane_distance(a, b)))), 1e-8)

    def check_distance(out):
        a, b = pairs[SPHERE_CHART]
        checks.check_distance(SPHERE_CHART, np.full(8, 1.0 / 8), a, b, load("distance_out.json")["distance"], 1e-8)

    def check_curvature(out):
        R = np.array(load("curv_out.json")["vecs"])
        checks.check_curvature(SPHERE_CHART, x_curv, *hkl, R, 1e-10)

    def check_verify(out):
        checks.check_reports("verify halfplane", load("verify_out.json"))

    def check_reparam(out):
        doc = load("reparam_out.json")
        inv = doc["invariance"]
        checks.require(inv["measure_preserving"] and inv["lhs"] == inv["rhs"], f"reparam: invariance {inv}")
        checks.check_reports("reparam equivariance", doc["equivariance"])

    def check_transport(out):
        doc = load("transport_out.json")
        ref = checks.enumerate_w2(mu, nu)
        checks.check_w2_bruteforce(mu, nu, doc["permutation"], doc["w2_cost"], ref)
        checks.require(doc["w2_cost_bruteforce"] == doc["w2_cost"], "transport: brute force and assignment costs differ")

    def check_list(out):
        names = [line.split()[0] for line in out.splitlines() if line.strip()]
        checks.require(names == ["flat", "sphere", "halfplane", "paraboloid"], f"list-manifolds: {names}")

    calls = [
        ("list-manifolds", [], [], check_list),
        ("exp", ["--field", "sphere_h.json", "--steps", "200", "--output", "exp_out.json"],
         ["exp_out.json"], check_exp),
        ("geodesic", ["--field", "halfplane_h.json", "--snapshots", "11", "--steps-per-snapshot", "20",
                      "--output", "geodesic_path.json", "--report", "geodesic_report.json",
                      "--report-csv", "geodesic_report.csv"],
         ["geodesic_path.json", "geodesic_report.json", "geodesic_report.csv"], check_geodesic),
        ("log", ["--base", "halfplane_q0.json", "--target", "halfplane_q1.json", "--output", "log_out.json"],
         ["log_out.json"], check_log),
        ("distance", ["--base", "sphere_q0.json", "--target", "sphere_q1.json", "--output", "distance_out.json"],
         ["distance_out.json"], check_distance),
        ("curvature", ["--base", "curv_q.json", "--h", "curv_h.json", "--k", "curv_k.json", "--l", "curv_l.json",
                       "--output", "curv_out.json"], ["curv_out.json"], check_curvature),
        ("verify", ["--manifold", HALFPLANE, "--instances", "50", "--seed", str(seed), "--output", "verify_out.json"],
         ["verify_out.json"], check_verify),
        ("reparam", ["--field", "halfplane_h.json", "--perm", "perm.json", "--steps", "100", "--seed", str(seed),
                     "--output", "reparam_out.json"], ["reparam_out.json"], check_reparam),
        ("transport", ["--mu", "mu.json", "--nu", "nu.json", "--output", "transport_out.json"],
         ["transport_out.json"], check_transport),
    ]
    stats = {"max_rss_kb": 0}

    def cli_part(sub, argv, outputs, check):
        def run():
            spans_file = workdir / f"spans-{sub}.json"
            for path in [spans_file] + [workdir / n for n in outputs]:
                path.unlink(missing_ok=True)  # a file left from an earlier call must not pass for this one
            if trace is None:
                cmd = [sys.executable, "-m", "mapgeom.cli", sub, *argv]
            else:
                cmd = [sys.executable, str(BOOT), str(spans_file), sub, *argv]
                span = trace.begin(f"cli.{sub}")
            with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
                proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            if trace is not None:
                trace.end(span)
                if spans_file.exists():
                    trace.adopt(json.loads(spans_file.read_text()), span)
            stats["max_rss_kb"] = max(stats["max_rss_kb"], usage.ru_maxrss)
            if proc.returncode != 0:
                raise OperationFailed(f"mapgeom {sub} exited with {proc.returncode}: "
                                      f"{(workdir / 'stderr.txt').read_text().strip()[-300:]}")
            return (workdir / "stdout.txt").read_text()

        def digest(out):
            return _digest(np.frombuffer(out.encode(), np.uint8),
                           *(np.frombuffer((workdir / n).read_bytes(), np.uint8) for n in outputs))

        return Part(f"cli.{sub}", 1, run, check, digest)

    return Round([cli_part(*c) for c in calls], len(calls), stats)


BUILDERS = {
    "exp_wide": _build_exp_wide,
    "log_narrow": _build_log_narrow,
    "cli_batch": _build_cli_batch,
    "verify_transport": _build_verify_transport,
}

WORK_UNIT = {
    "exp_wide": "sample-steps",
    "log_narrow": "samples solved",
    "cli_batch": "CLI calls",
    "verify_transport": "battery rounds",
}


def build(name: str, seed: int, workdir, trace=None) -> Round:
    """One round of workload ``name``, with inputs made from ``seed``.

    With a tracer, the CLI runs through the tracing bootstrap and its spans
    are adopted into ``trace``.
    """
    return BUILDERS[name](_rng(seed, name), workdir, trace)
