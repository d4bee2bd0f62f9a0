"""Batch command-line front end.

One executable with subcommands wrapping every module; JSON in, JSON/CSV
out, deterministic for a fixed configuration (including seeds).  Exit
codes: 0 success, 1 a computation or check failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

import numpy as np

from . import dynamics, files, mapspace, reparam, transport, verification
from .errors import (
    FieldMismatchError,
    GeometryError,
    MeasureError,
    NotVerticalError,
    OffManifoldError,
)
from .manifold import ChartManifold, make_manifold, list_manifolds
from .mapspace import MapField, TangentField, load_field, save_field

SUBCOMMANDS = (
    "list-manifolds",
    "geodesic",
    "exp",
    "log",
    "distance",
    "curvature",
    "verify",
    "reparam",
    "transport",
)


@dataclass
class RunConfig:
    subcommand: str
    manifold: Optional[str] = None
    field: Optional[str] = None
    base: Optional[str] = None
    target: Optional[str] = None
    h: Optional[str] = None
    k: Optional[str] = None
    l: Optional[str] = None
    perm: Optional[str] = None
    mu: Optional[str] = None
    nu: Optional[str] = None
    map: Optional[str] = None
    output: Optional[str] = None
    report: Optional[str] = None
    report_csv: Optional[str] = None
    steps: int = 1000
    snapshots: int = 11
    steps_per_snapshot: int = 100
    instances: int = 100
    seed: int = 0
    tolerance: float = dynamics.LOG_TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapgeom",
        description="Numerical geometry of the L2 metric on discretized mapping spaces.",
    )
    parser.add_argument("--config", help="JSON file with default option values; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, help_text, **options):
        p = sub.add_parser(name, help=help_text)
        for flag, kw in options.items():
            p.add_argument(f"--{flag.replace('_', '-')}", dest=flag, default=None, **kw)
        return p

    add("list-manifolds", "list the manifold registry")
    add(
        "exp",
        "pointwise exponential map of a tangent field",
        field={"help": "tangent field JSON (values + vecs)"},
        steps={"type": int, "help": "RK4 steps (default 1000)"},
        output={"help": "output map-field JSON"},
    )
    add(
        "log",
        "inverse of exp by per-sample shooting",
        base={"help": "base map-field JSON"},
        target={"help": "target map-field JSON"},
        steps={"type": int},
        tolerance={
            "type": float, "help": f"shooting endpoint tolerance (default {dynamics.LOG_TOL})"
        },
        output={"help": "output tangent-field JSON"},
    )
    add(
        "distance",
        "L2 geodesic distance between two map fields",
        base={"help": "base map-field JSON"},
        target={"help": "target map-field JSON"},
        steps={"type": int},
        tolerance={"type": float},
        output={"help": "optional JSON with the distance"},
    )
    add(
        "geodesic",
        "integrate a geodesic trajectory with diagnostics",
        field={"help": "initial tangent field JSON"},
        snapshots={"type": int},
        steps_per_snapshot={"type": int},
        output={"help": "trajectory JSON"},
        report={"help": "diagnostics JSON"},
        report_csv={"help": "diagnostics CSV (time, energy, residual, drift)"},
    )
    add(
        "curvature",
        "curvature tensor field R(h, k) l along a map",
        base={"help": "base map-field JSON"},
        h={"help": "tangent field JSON"},
        k={"help": "tangent field JSON"},
        l={"help": "tangent field JSON"},
        output={"help": "output tangent-field JSON"},
    )
    add(
        "verify",
        "run the oracle battery for a registry manifold",
        manifold={"help": "registry string, e.g. sphere:r=1.0:rep=embedded"},
        instances={"type": int},
        seed={"type": int},
        output={"help": "oracle report JSON"},
    )
    add(
        "reparam",
        "invariance and equivariance report for a permutation action",
        field={"help": "tangent field JSON (vecs used as h = k)"},
        perm={"help": "permutation JSON array"},
        steps={"type": int},
        seed={"type": int},
        output={"help": "report JSON"},
    )
    add(
        "transport",
        "Wasserstein-2 costs (measure pair) or the submersion bound (map pair)",
        mu={"help": "source measure JSON"},
        nu={"help": "target measure JSON"},
        base={"help": "base map-field JSON (submersion mode)"},
        map={"help": "rearranged map-field JSON (submersion mode)"},
        output={"help": "report JSON"},
    )
    return parser


def _config_from_json(doc) -> dict:
    """RunConfig values from a config document, each checked against its field's type."""
    doc = files.Document(doc, "config")
    types = typing.get_type_hints(RunConfig)
    values = {}
    for key in doc.get():
        attr = key.replace("-", "_")
        if attr not in types or attr == "subcommand":
            raise ValueError(f"unknown config entry {key!r}")
        allowed = typing.get_args(types[attr]) or (types[attr],)  # Optional[X] -> (X, NoneType)
        values[attr] = doc.get(key, allowed[0], optional=type(None) in allowed)
    return values


def parse_config(argv, config_file: Optional[str] = None) -> RunConfig:
    """Parse argv, then fill unset options from a JSON config file.

    Flags always override file values; unknown config keys are rejected.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    cfg_path = config_file if config_file is not None else ns.config
    config = RunConfig(subcommand=ns.subcommand)
    if cfg_path:
        for attr, value in files.read_json(cfg_path, _config_from_json).items():
            setattr(config, attr, value)
    for f in dataclass_fields(RunConfig):
        if f.name == "subcommand":
            continue
        cli_value = getattr(ns, f.name, None)
        if cli_value is not None:
            setattr(config, f.name, cli_value)
    for attr in ("steps", "snapshots", "steps_per_snapshot", "instances"):
        value = getattr(config, attr)
        if value < 1:
            raise ValueError(f"option {attr} must be positive, got {value}")
    if not config.tolerance > 0.0:
        raise ValueError(f"option tolerance must be positive, got {config.tolerance}")
    return config


def _load_tangent(path) -> TangentField:
    f = load_field(path)
    if not isinstance(f, TangentField):
        raise ValueError(f"field file {path} lacks vecs (a tangent field is required)")
    return f


def _load_map(path) -> MapField:
    f = load_field(path)
    if isinstance(f, TangentField):
        return f.base
    return f


def _require(config: RunConfig, *names):
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"subcommand {config.subcommand!r} needs --{name.replace('_', '-')}")


def _write_json(doc, path):
    """Write a CLI output document (distance, verify, reparam, transport)."""
    files.write_json(doc, path)


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the exit code."""
    cmd = config.subcommand
    if cmd == "list-manifolds":
        for name, description in list_manifolds():
            print(f"{name:<12} {description}")
        return 0

    if cmd == "exp":
        _require(config, "field", "output")
        h = _load_tangent(config.field)
        out = mapspace.exp_field(h, steps=config.steps)
        save_field(out, config.output)
        print(f"exp: wrote {out.size} samples to {config.output}")
        return 0

    if cmd == "log":
        _require(config, "base", "target", "output")
        q0 = _load_map(config.base)
        q1 = _load_map(config.target)
        h = dynamics.log_field(q0, q1, steps=config.steps, tol=config.tolerance)
        save_field(h, config.output)
        print(f"log: wrote {h.size} samples to {config.output}")
        return 0

    if cmd == "distance":
        _require(config, "base", "target")
        q0 = _load_map(config.base)
        q1 = _load_map(config.target)
        dist = dynamics.geodesic_distance(q0, q1, steps=config.steps, tol=config.tolerance)
        print(repr(dist))
        if config.output:
            _write_json({"distance": dist}, config.output)
        return 0

    if cmd == "geodesic":
        _require(config, "field")
        h = _load_tangent(config.field)
        path, report = dynamics.integrate_geodesic(
            h.base, h, snapshots=config.snapshots, steps_per_snapshot=config.steps_per_snapshot
        )
        if config.output:
            dynamics.save_path(path, config.output)
        if config.report:
            dynamics.save_report_json(report, config.report)
        if config.report_csv:
            dynamics.save_report_csv(report, config.report_csv)
        e = report.energy_series
        drift = float((e.max() - e.min()) / e[0]) if e[0] != 0.0 else 0.0
        print(
            f"geodesic: {path.snapshots} snapshots, energy drift {drift:.3e}, "
            f"max residual {report.max_pointwise_geodesic_residual:.3e}, "
            f"constraint drift {report.constraint_drift:.3e}"
        )
        return 0

    if cmd == "curvature":
        _require(config, "base", "h", "k", "l", "output")
        q = _load_map(config.base)
        tangents = []
        for name in ("h", "k", "l"):
            tf = _load_tangent(getattr(config, name))
            try:
                mapspace.require_based(q, tf)
            except FieldMismatchError as exc:
                raise FieldMismatchError(
                    f"tangent field --{name} is not based at --base: {exc}"
                ) from None
            tangents.append(tf)
        out = mapspace.curvature_field(q, *tangents)
        save_field(out, config.output)
        print(f"curvature: wrote {out.size} samples to {config.output}")
        return 0

    if cmd == "verify":
        _require(config, "manifold")
        man = make_manifold(config.manifold)
        reports = verification.standard_checks(man, instances=config.instances, seed=config.seed)
        print(verification.format_report_table(reports))
        if config.output:
            _write_json([r.to_json() for r in reports], config.output)
        return 0 if all(r.passed for r in reports) else 1

    if cmd == "reparam":
        _require(config, "field", "perm")
        h = _load_tangent(config.field)
        phi = reparam.load_permutation(config.perm).bind(h.domain)
        inv = reparam.check_metric_invariance(phi, h.base, h, h)
        reports = [
            reparam.check_equivariance(phi, "connector", xi=mapspace.spray_field(h)),
            reparam.check_equivariance(phi, "spray", h=h),
            reparam.check_equivariance(phi, "exp", h=h, steps=config.steps),
        ]
        if isinstance(h.manifold, ChartManifold):
            rng = np.random.default_rng(config.seed)
            kf = TangentField(h.base, rng.uniform(-1.0, 1.0, size=h.vecs.shape))
            lf = TangentField(h.base, rng.uniform(-1.0, 1.0, size=h.vecs.shape))
            reports.append(
                reparam.check_equivariance(phi, "curvature", q=h.base, h=h, k=kf, l=lf)
            )
        ok = all(r.passed for r in reports)
        invariance_ok = (not inv.measure_preserving) or abs(inv.lhs - inv.rhs) <= 1e-12
        print(
            f"metric: lhs={inv.lhs!r} rhs={inv.rhs!r} "
            f"measure_preserving={inv.measure_preserving}"
        )
        print(verification.format_report_table(reports))
        if config.output:
            _write_json(
                {"invariance": files.as_json(inv), "equivariance": [r.to_json() for r in reports]},
                config.output,
            )
        return 0 if ok and invariance_ok else 1

    if cmd == "transport":
        measure_mode = config.mu is not None or config.nu is not None
        map_mode = config.base is not None or config.map is not None
        if measure_mode == map_mode:
            raise ValueError("transport needs either --mu/--nu or --base/--map")
        if measure_mode:
            _require(config, "mu", "nu")
            mu = transport.load_measure(config.mu)
            nu = transport.load_measure(config.nu)
            solved = transport.wasserstein2_assignment(mu, nu)
            doc = {"w2_cost": solved.cost, "permutation": solved.perm.tolist()}
            print(f"w2 cost (assignment solver): {solved.cost!r}")
            if mu.size <= transport.BRUTE_LIMIT:
                brute = transport.wasserstein2_bruteforce(mu, nu)
                doc["w2_cost_bruteforce"] = brute.cost
                print(f"w2 cost (brute force):       {brute.cost!r}")
            print(f"optimal permutation: {solved.perm.tolist()}")
        else:
            _require(config, "base", "map")
            base = _load_map(config.base)
            rearranged = _load_map(config.map)
            result = transport.submersion_check(base, rearranged)
            doc = {
                "l2_cost": result.l2_cost,
                "w2_cost": result.w2_cost,
                "equality": result.equality,
                "permutation": result.assignment.perm.tolist(),
            }
            print(f"l2 cost: {result.l2_cost!r}")
            print(f"w2 cost: {result.w2_cost!r}")
            print(f"equality: {result.equality}")
            print(f"optimal permutation: {result.assignment.perm.tolist()}")
        if config.output:
            _write_json(doc, config.output)
        return 0

    raise ValueError(f"unknown subcommand {cmd!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (
        ValueError,
        OSError,
        MeasureError,
        FieldMismatchError,
        OffManifoldError,
        NotVerticalError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
