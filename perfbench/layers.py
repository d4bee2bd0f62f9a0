"""Per-layer metrics, read from the spans of a traced run.

Each metric is read on the workload where its layer matters; README.md
lists the end-to-end metric each one should move.  Values are per round of
that workload unless the name says per call, per row or per solve.
"""

from __future__ import annotations

from tracer import COUNT, END, NAME, OP, PARENT, START, STEPS

CLI_SUBCOMMANDS = ("list-manifolds", "geodesic", "exp", "log", "distance", "curvature", "verify",
                   "reparam", "transport")


def _seconds(spans) -> float:
    return sum(s[END] - s[START] for s in spans)


def _row_steps(spans) -> int:
    return sum(s[COUNT] * s[STEPS] for s in spans)


class WorkloadSpans:
    """The spans of one workload's traced rounds, grouped by name."""

    def __init__(self, trace, workload: str, rounds: int):
        self.trace, self.rounds = trace, rounds
        self.by_name: dict[str, list] = {}
        for s in trace.spans:
            if s[OP] is not None and trace.ops[s[OP]][0] == workload:
                self.by_name.setdefault(s[NAME], []).append(s)

    def named(self, name) -> list:
        return self.by_name.get(name, [])

    def prefixed(self, prefix) -> list:
        return [s for name, spans in self.by_name.items() if name.startswith(prefix) for s in spans]

    def calls(self, name) -> float:
        return len(self.named(name)) / self.rounds

    def seconds(self, name) -> float:
        return _seconds(self.named(name)) / self.rounds

    def per_call(self, name) -> float:
        return _seconds(self.named(name)) / len(self.named(name))

    def ns_per_row(self, name) -> float:
        spans = self.named(name)
        return 1e9 * _seconds(spans) / sum(s[COUNT] for s in spans)

    def under(self, name, ancestor) -> list:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        spans = self.trace.spans
        found = []
        for s in self.named(name):
            p = s[PARENT]
            while p >= 0 and spans[p][NAME] != ancestor:
                p = spans[p][PARENT]
            if p >= 0:
                found.append(s)
        return found


def _integrations_per_solve(v: WorkloadSpans) -> float:
    return len(v.under("manifold.integrate_spray", "dynamics.log_field")) / len(v.named("dynamics.log_field"))


def _row_steps_per_solve(v: WorkloadSpans) -> float:
    return _row_steps(v.under("manifold.integrate_spray", "dynamics.log_field")) / len(v.named("dynamics.log_field"))


def _us_per_step(v: WorkloadSpans) -> float:
    spans = v.named("manifold.integrate_spray")
    return 1e6 * _seconds(spans) / sum(s[STEPS] for s in spans)


def _ns_per_row_step(v: WorkloadSpans) -> float:
    spans = v.named("manifold.integrate_spray")
    return 1e9 * _seconds(spans) / _row_steps(spans)


def _calls(name):
    return lambda v: v.calls(name)


def _seconds_of(name):
    return lambda v: v.seconds(name)


def _ns_per_row(name):
    return lambda v: v.ns_per_row(name)


# (name, unit, workload it is read on, value from that workload's spans)
LAYERS = [
    ("manifold.integrate_spray.calls", "count", "log_narrow", _calls("manifold.integrate_spray")),
    ("manifold.integrate_spray.row_steps", "count", "log_narrow",
     lambda v: _row_steps(v.named("manifold.integrate_spray")) / v.rounds),
    ("manifold.integrate_spray.us_per_step", "us", "log_narrow", _us_per_step),
    ("manifold.integrate_spray.ns_per_row_step", "ns", "exp_wide", _ns_per_row_step),
    ("manifold.spray_accel.calls", "count", "exp_wide", _calls("manifold.spray_accel")),
    ("manifold.spray_accel.ns_per_row", "ns", "exp_wide", _ns_per_row("manifold.spray_accel")),
    ("manifold.tangent_projector.calls", "count", "exp_wide", _calls("manifold.tangent_projector")),
    ("manifold.tangent_projector.ns_per_row", "ns", "exp_wide", _ns_per_row("manifold.tangent_projector")),
    ("manifold.retraction.ns_per_row", "ns", "exp_wide", _ns_per_row("manifold.retraction")),
    ("manifold.christoffel.calls", "count", "exp_wide", _calls("manifold.christoffel")),
    ("manifold.christoffel.ns_per_row", "ns", "exp_wide", _ns_per_row("manifold.christoffel")),
    ("manifold.transport_ode_rhs.ns_per_row", "ns", "exp_wide", _ns_per_row("manifold.transport_ode_rhs")),
    ("mapspace.exp_field.s", "s", "exp_wide", _seconds_of("mapspace.exp_field")),
    ("mapspace.field_validation.s", "s", "exp_wide", _seconds_of("mapspace.field_validation")),
    ("mapspace.l2_inner.calls", "count", "exp_wide", _calls("mapspace.l2_inner")),
    ("mapspace.l2_inner.s", "s", "exp_wide", _seconds_of("mapspace.l2_inner")),
    ("mapspace.curvature_field.s", "s", "verify_transport", _seconds_of("mapspace.curvature_field")),
    ("mapspace.json_io.s", "s", "cli_batch", lambda v: _seconds(v.prefixed("io.")) / v.rounds),
    ("mapspace.json_io.bytes", "B", "cli_batch", lambda v: sum(s[COUNT] for s in v.prefixed("io.")) / v.rounds),
    ("dynamics.log_field.s_per_solve", "s", "log_narrow", lambda v: v.per_call("dynamics.log_field")),
    ("dynamics.log_field.integrations_per_solve", "count", "log_narrow", _integrations_per_solve),
    ("dynamics.log_field.row_steps_per_solve", "count", "log_narrow", _row_steps_per_solve),
    ("dynamics.integrate_geodesic.diagnose_s", "s", "exp_wide", _seconds_of("dynamics.integrate_geodesic.diagnose")),
    ("dynamics.parallel_transport_field.s", "s", "exp_wide", _seconds_of("dynamics.parallel_transport_field")),
    ("verification.standard_checks.chart_s", "s", "verify_transport",
     _seconds_of("verification.standard_checks.chart")),
    ("verification.standard_checks.embedded_s", "s", "verify_transport",
     _seconds_of("verification.standard_checks.embedded")),
    ("verification.run_axiom_sweep.s", "s", "verify_transport", _seconds_of("verification.run_axiom_sweep")),
    ("verification.oracle_curvature_commutator.calls", "count", "verify_transport",
     _calls("verification.oracle_curvature_commutator")),
    ("verification.oracle_curvature_commutator.s", "s", "verify_transport",
     _seconds_of("verification.oracle_curvature_commutator")),
    ("transport.wasserstein2_bruteforce.s", "s", "verify_transport", _seconds_of("transport.wasserstein2_bruteforce")),
    ("transport.wasserstein2_assignment.s", "s", "verify_transport", _seconds_of("transport.wasserstein2_assignment")),
    ("transport.submersion_check.s", "s", "verify_transport", _seconds_of("transport.submersion_check")),
    ("reparam.check_equivariance.s", "s", "verify_transport", _seconds_of("reparam.check_equivariance")),
    ("cli.import_s", "s", "cli_batch", lambda v: v.per_call("cli.import")),
    *((f"cli.{sub}.s", "s", "cli_batch", lambda v, sub=sub: v.per_call(f"cli.{sub}")) for sub in CLI_SUBCOMMANDS),
    ("cli.run_s", "s", "cli_batch", lambda v: v.per_call("cli.main")),
]


def layer_metrics(trace, traced_rounds: dict) -> dict:
    """{metric: (value, unit)} from the spans of every workload's traced rounds."""
    views = {w: WorkloadSpans(trace, w, rounds) for w, rounds in traced_rounds.items()}
    return {name: (value(views[workload]), unit) for name, unit, workload, value in LAYERS}


def summary(trace, own) -> dict:
    """Per span name: count, total and self seconds."""
    rows = {}
    for s, self_s in zip(trace.spans, own):
        row = rows.setdefault(s[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
    return rows
