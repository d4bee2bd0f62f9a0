"""Batch command-line front end.

One executable with subcommands wrapping every module; JSON in, JSON/CSV
out, deterministic for a fixed configuration (including seeds).  Exit
codes: 0 success, 1 a computation or check failed, 2 bad input.

Each subcommand is declared once, as one :class:`Command` in the
``COMMANDS`` table: its help text, its handler, the options it cannot run
without and its options, each with its help text.  ``build_parser`` makes
every subparser from the table and takes each option's type from the
``RunConfig`` field of the same name.  ``parse_config`` rejects a config
entry that is not an option of the chosen subcommand.  ``run`` looks the
subcommand up, checks its required options and calls its handler, which
returns the exit code.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import dynamics, files, mapspace, reparam, transport, verification
from .errors import (
    FieldMismatchError,
    GeometryError,
    MeasureError,
    NotVerticalError,
    OffManifoldError,
)
from .manifold import make_manifold, list_manifolds
from .mapspace import MapField, TangentField, load_field, save_field


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


# the types a RunConfig field accepts: Optional[X] -> (X, NoneType), X -> (X,)
_TYPES = {name: typing.get_args(hint) or (hint,)
          for name, hint in typing.get_type_hints(RunConfig).items()}


class Command(NamedTuple):
    """One subcommand: its help text, its handler and its options.

    ``required`` names the options the subcommand cannot run without.
    ``options`` maps each option's RunConfig field to its help text (None
    for none), in the order ``--help`` lists them.  The handler takes the
    RunConfig and returns the exit code.
    """

    help: str
    handler: Callable[[RunConfig], int]
    required: tuple
    options: dict


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


def _write_field(config: RunConfig, out) -> int:
    """Save the field a subcommand computed to --output and say so."""
    save_field(out, config.output)
    print(f"{config.subcommand}: wrote {out.size} samples to {config.output}")
    return 0


def _write_report(config: RunConfig, doc, code: int = 0) -> int:
    """Write a subcommand's JSON document to --output, if given; returns ``code``."""
    if config.output:
        _write_json(doc, config.output)
    return code


def _list_manifolds(config: RunConfig) -> int:
    for name, description in list_manifolds():
        print(f"{name:<12} {description}")
    return 0


def _exp(config: RunConfig) -> int:
    h = _load_tangent(config.field)
    return _write_field(config, mapspace.exp_field(h, steps=config.steps))


def _log(config: RunConfig) -> int:
    q0 = _load_map(config.base)
    q1 = _load_map(config.target)
    h = dynamics.log_field(q0, q1, steps=config.steps, tol=config.tolerance)
    return _write_field(config, h)


def _distance(config: RunConfig) -> int:
    q0 = _load_map(config.base)
    q1 = _load_map(config.target)
    dist = dynamics.geodesic_distance(q0, q1, steps=config.steps, tol=config.tolerance)
    print(repr(dist))
    return _write_report(config, {"distance": dist})


def _geodesic(config: RunConfig) -> int:
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


def _curvature(config: RunConfig) -> int:
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
    return _write_field(config, mapspace.curvature_field(q, *tangents))


def _verify(config: RunConfig) -> int:
    man = make_manifold(config.manifold)
    reports = verification.standard_checks(man, instances=config.instances, seed=config.seed)
    print(verification.format_report_table(reports))
    code = 0 if all(r.passed for r in reports) else 1
    return _write_report(config, [r.to_json() for r in reports], code)


def _reparam(config: RunConfig) -> int:
    h = _load_tangent(config.field)
    phi = reparam.load_permutation(config.perm).bind(h.domain)
    inv = reparam.check_metric_invariance(phi, h.base, h, h)
    reports = [
        reparam.check_equivariance(phi, "connector", xi=mapspace.spray_field(h)),
        reparam.check_equivariance(phi, "spray", h=h),
        reparam.check_equivariance(phi, "exp", h=h, steps=config.steps),
    ]
    rng = np.random.default_rng(config.seed)
    kf, lf = (TangentField(h.base, h.manifold.project(h.base.values, r))
              for r in rng.uniform(-1.0, 1.0, size=(2,) + h.vecs.shape))
    reports.append(reparam.check_equivariance(phi, "curvature", q=h.base, h=h, k=kf, l=lf))
    ok = all(r.passed for r in reports)
    invariance_ok = (not inv.measure_preserving) or abs(inv.lhs - inv.rhs) <= 1e-12
    print(
        f"metric: lhs={inv.lhs!r} rhs={inv.rhs!r} "
        f"measure_preserving={inv.measure_preserving}"
    )
    print(verification.format_report_table(reports))
    doc = {"invariance": files.as_json(inv), "equivariance": [r.to_json() for r in reports]}
    return _write_report(config, doc, 0 if ok and invariance_ok else 1)


def _transport(config: RunConfig) -> int:
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
    print(f"optimal permutation: {doc['permutation']}")
    return _write_report(config, doc)


COMMANDS = {
    "list-manifolds": Command("list the manifold registry", _list_manifolds, (), {}),
    "exp": Command("pointwise exponential map of a tangent field", _exp, ("field", "output"),
                   {"field": "tangent field JSON (values + vecs)",
                    "steps": "RK4 steps (default 1000)",
                    "output": "output map-field JSON"}),
    "log": Command("inverse of exp by per-sample shooting", _log, ("base", "target", "output"),
                   {"base": "base map-field JSON",
                    "target": "target map-field JSON",
                    "steps": None,
                    "tolerance": f"shooting endpoint tolerance (default {dynamics.LOG_TOL})",
                    "output": "output tangent-field JSON"}),
    "distance": Command("L2 geodesic distance between two map fields", _distance,
                        ("base", "target"),
                        {"base": "base map-field JSON",
                         "target": "target map-field JSON",
                         "steps": None,
                         "tolerance": None,
                         "output": "optional JSON with the distance"}),
    "geodesic": Command("integrate a geodesic trajectory with diagnostics", _geodesic,
                        ("field",),
                        {"field": "initial tangent field JSON",
                         "snapshots": None,
                         "steps_per_snapshot": None,
                         "output": "trajectory JSON",
                         "report": "diagnostics JSON",
                         "report_csv": "diagnostics CSV (time, energy, residual, drift)"}),
    "curvature": Command("curvature tensor field R(h, k) l along a map", _curvature,
                         ("base", "h", "k", "l", "output"),
                         {"base": "base map-field JSON",
                          "h": "tangent field JSON",
                          "k": "tangent field JSON",
                          "l": "tangent field JSON",
                          "output": "output tangent-field JSON"}),
    "verify": Command("run the oracle battery for a registry manifold", _verify, ("manifold",),
                      {"manifold": "registry string, e.g. sphere:r=1.0:rep=embedded",
                       "instances": None,
                       "seed": None,
                       "output": "oracle report JSON"}),
    "reparam": Command("invariance and equivariance report for a permutation action", _reparam,
                       ("field", "perm"),
                       {"field": "tangent field JSON (vecs used as h = k)",
                        "perm": "permutation JSON array",
                        "steps": None,
                        "seed": None,
                        "output": "report JSON"}),
    # transport requires --mu/--nu or --base/--map, whichever mode it runs in
    "transport": Command(
        "Wasserstein-2 costs (measure pair) or the submersion bound (map pair)", _transport, (),
        {"mu": "source measure JSON",
         "nu": "target measure JSON",
         "base": "base map-field JSON (submersion mode)",
         "map": "rearranged map-field JSON (submersion mode)",
         "output": "report JSON"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapgeom",
        description="Numerical geometry of the L2 metric on discretized mapping spaces.",
    )
    parser.add_argument("--config", help="JSON file with default option values; flags win")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option, help_text in command.options.items():
            p.add_argument(f"--{option.replace('_', '-')}", dest=option, default=None,
                           type=_TYPES[option][0], help=help_text)
    return parser


def _config_from_json(doc, subcommand: str) -> dict:
    """RunConfig values from a config document for ``subcommand``.

    Every entry is checked against its field's type first, and only then
    against the options of ``subcommand``.
    """
    doc = files.Document(doc, "config")
    values = {}
    for key in doc.get():
        attr = key.replace("-", "_")
        if attr not in _TYPES or attr == "subcommand":
            raise ValueError(f"unknown config entry {key!r}")
        allowed = _TYPES[attr]
        values[attr] = doc.get(key, allowed[0], optional=type(None) in allowed)
    options = COMMANDS[subcommand].options
    for key in doc.get():
        if key.replace("-", "_") not in options:
            raise ValueError(f"config entry {key!r} is not an option of subcommand {subcommand!r}")
    return values


def parse_config(argv) -> RunConfig:
    """Parse argv, then fill unset options from the ``--config`` JSON file.

    Flags always override file values; a config entry that is not an
    option of the subcommand is rejected.
    """
    parser = build_parser()
    ns = parser.parse_args(argv)
    config = RunConfig(subcommand=ns.subcommand)
    if ns.config:
        values = files.read_json(ns.config, _config_from_json, subcommand=ns.subcommand)
        for attr, value in values.items():
            setattr(config, attr, value)
    for attr in COMMANDS[ns.subcommand].options:
        if getattr(ns, attr) is not None:
            setattr(config, attr, getattr(ns, attr))
    for attr in ("steps", "snapshots", "steps_per_snapshot", "instances", "tolerance"):
        value = getattr(config, attr)
        if not value > 0:
            raise ValueError(f"option {attr} must be positive, got {value}")
    if config.seed < 0:
        raise ValueError(f"option seed must be non-negative, got {config.seed}")
    return config


def run(config: RunConfig) -> int:
    """Execute a parsed configuration; returns the exit code."""
    command = COMMANDS[config.subcommand]
    _require(config, *command.required)
    return command.handler(config)


def main(argv=None) -> int:
    try:
        return run(parse_config(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
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
