"""Benchmark for mapgeom: run one workload and print its metrics.

    python3 perfbench/run.py --workload exp_wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src``
there, for this process and for every process it starts.  The last line
of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of the workload (``setup_s``, ``work_per_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, read
from spans around the calls into each module, and the spans are written
to ``.perfbench/traces``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A shared 2-CPU virtual machine was measured changing speed by up to 1.6x
# for seconds to minutes at a time, in wall and in CPU time alike.  So each
# timed interval is divided by the time of the reference loop below, taken
# just before and just after it, and multiplied by REF_SECONDS, the loop's
# time on that machine at its usual speed.  End-to-end times are thus
# seconds of a machine on which the reference takes REF_SECONDS; wall-clock
# figures are printed beside them.
REF_SECONDS = 0.0045


def machine_ref() -> float:
    """Seconds for a fixed loop of small NumPy calls and plain Python that
    calls no mapgeom code."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 64)
    total = 0.0
    start = perf_counter()
    for i in range(1000):
        a = np.sin(a) * 0.5 + 0.25
        total += math.fsum(a[:16].tolist()) + i
    return perf_counter() - start


def _normalised(wall: float, before: float, after: float) -> float:
    return wall * REF_SECONDS / (0.5 * (before + after))


class Runner:
    """Runs whole rounds of a workload, times each part, checks every output.

    The first round that produces a part's output runs the part's full
    check; every later output must reproduce its digest bit for bit.
    """

    def __init__(self, workload: str, rnd, refs=None, trace=None):
        self.workload = workload
        self.round = rnd
        self.refs = {} if refs is None else refs
        self.trace = trace
        self.wall = {p.name: [] for p in rnd.parts}
        self.norm = {p.name: [] for p in rnd.parts}
        self.machine: list[float] = []
        self.attempted = self.failed = self.rounds = 0
        self.errors: list[str] = []

    def run_round(self, timed: bool = True):
        from workloads import FAILURES

        for part in self.round.parts:
            self.attempted += 1
            if self.trace is not None:
                self.trace.start_op([self.workload, self.rounds, part.name])
                root = self.trace.begin(f"op.{part.name}")
            start = perf_counter()
            try:
                out = part.run()
            except FAILURES as exc:
                self.failed += 1
                self.errors.append(f"{part.name} failed: {exc}")
                continue
            finally:
                if self.trace is not None:
                    self.trace.end(root)
                    self.trace.op = None  # checks and set-up are no operation's spans
            if timed:
                wall = perf_counter() - start
                self.machine.append(machine_ref())
                self.wall[part.name].append(wall)
                self.norm[part.name].append(_normalised(wall, *self.machine[-2:]))
            self._verify(part, out)
        self.rounds += 1

    def _verify(self, part, out):
        from checks import CheckFailed

        ref = self.refs.get(part.name)
        if ref is None:
            try:
                part.check(out)
            except CheckFailed as exc:
                self.errors.append(f"{part.name}: {exc}")
                return
            self.refs[part.name] = part.digest(out)
        elif part.digest(out) != ref:
            self.errors.append(f"{part.name}: output differs from the first checked one")

    def measure(self, seconds: float):
        """Timed whole rounds until ``seconds`` have passed."""
        start = perf_counter()
        self.machine.append(machine_ref())
        while True:
            self.run_round()
            if perf_counter() - start >= seconds:
                return

    def round_seconds(self, times=None) -> float:
        """One round's time: the sum over parts of each part's median time."""
        return sum(statistics.median(t) for t in (times or self.norm).values() if t)

    def work_per_s(self) -> float:
        return self.round.work / self.round_seconds()


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _setup_seconds(workload: str, seed: int, workdir: Path, env: dict) -> tuple[float, float]:
    """Process start to inputs ready, in a fresh process: (wall, normalised)."""
    workdir.mkdir()
    before = machine_ref()
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(workdir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup of {workload} failed: {proc.stderr.strip()[-500:]}")
    wall = float(proc.stdout.split()[-1]) - start
    return wall, _normalised(wall, before, machine_ref())


def timed_run(args, workdir: Path, src: Path) -> dict:
    import workloads

    env = workloads.child_env(src)
    setups = [_setup_seconds(args.workload, args.seed, workdir / f"probe{i}", env) for i in range(SETUP_PROBES)]
    runner = Runner(args.workload, workloads.build(args.workload, args.seed, workdir))
    runner.run_round(timed=False)  # warm-up: caches, lazy imports, full output checks
    runner.measure(args.seconds)
    child_rss = runner.round.child_rss_kb
    rss_kb = child_rss["max_rss_kb"] if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _report(runner, "setup wall s " + " ".join(f"{w:.3f}" for w, _ in setups))
    return {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            "setup_s": _metric(statistics.median(n for _, n in setups), "s"),
            "work_per_s": _metric(runner.work_per_s(), "1/s"),
            "peak_rss_mb": _metric(rss_kb * 1024 / 1e6, "MB"),
        },
    }


def _report(runner: Runner, extra: str = ""):
    """Human-readable lines before the result: wall-clock figures, and the
    machine reference, which tells drift of the machine from a change in
    the program."""
    import workloads

    m = runner.machine
    wall = runner.round_seconds(runner.wall)
    print(f"# {runner.workload}: {runner.rounds} rounds of {runner.round.work:g} "
          f"{workloads.WORK_UNIT[runner.workload]}; per round {runner.round_seconds():.4f} s normalised, "
          f"{wall:.4f} s wall ({runner.round.work / wall:.6g}/s wall); reference loop ms median "
          f"{1e3 * statistics.median(m):.3f} min {1e3 * min(m):.3f} max {1e3 * max(m):.3f}; {extra}")
    print(f"# {runner.workload} part wall medians ms: "
          + " ".join(f"{n}={1e3 * statistics.median(t):.2f}" for n, t in runner.wall.items() if t))
    for err in runner.errors[:20]:
        print(f"# {runner.workload}: {err}")


# ---------------------------------------------------------------------------
# traced run


def traced_run(args, workdir: Path, src: Path) -> dict:
    """Every workload, untraced and then traced, for ``seconds / 8`` each.

    Each layer metric is read on the workload where that layer matters, so
    one traced run covers all four; ``--workload`` only picks which goes
    first.  Outputs of traced rounds must match the untraced ones bit for bit.
    """
    import layers
    import workloads
    from tracer import Tracer, install, self_times

    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    budget = args.seconds / (2 * len(order))
    trace = Tracer()
    runners = {}
    metrics = {}
    for name in order:
        wd = workdir / name
        wd.mkdir()
        plain = Runner(name, workloads.build(name, args.seed, wd))
        plain.run_round(timed=False)
        plain.measure(budget)
        uninstall = install(trace)
        try:
            traced = Runner(name, workloads.build(name, args.seed, wd, trace), plain.refs, trace)
            traced.measure(budget)
        finally:
            uninstall()
        _report(plain, "untraced")
        _report(traced, "traced")
        runners[name] = (plain, traced)
        overhead = 100.0 * (1.0 - traced.work_per_s() / plain.work_per_s())
        metrics[f"trace.{name}.overhead_pct"] = _metric(overhead, "%")
    traced_rounds = {name: traced.rounds for name, (_, traced) in runners.items()}
    for metric, (value, unit) in layers.layer_metrics(trace, traced_rounds).items():
        metrics[metric] = _metric(value, unit)
    own = self_times(trace.spans)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "span_fields": ["name", "start", "end", "parent", "op", "count", "steps"],
        "ops": trace.ops,
        "spans": trace.spans,
        "self_s": own,
        "summary": layers.summary(trace, own),
        "machine_ref_s": {n: {"untraced": p.machine, "traced": t.machine} for n, (p, t) in runners.items()},
        "metrics": metrics,
    }
    out = Path.cwd() / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json.gz"
    out.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(out, "wt") as fh:
        json.dump(doc, fh)
    print(f"# trace written to {out.relative_to(Path.cwd())} ({len(trace.spans)} spans)")
    every = [r for pair in runners.values() for r in pair]
    return {
        "correct": not any(r.errors for r in every),
        "attempted": sum(r.attempted for r in every),
        "failed": sum(r.failed for r in every),
        "metrics": dict(sorted(metrics.items())),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("exp_wide", "log_narrow", "cli_batch", "verify_transport"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "mapgeom" / "__init__.py").is_file():
        print(f"error: {src / 'mapgeom'} not found; run from the root of a mapgeom checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before NumPy loads
    sys.path.insert(0, str(src))

    workdir = Path.cwd() / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the work directory is removed
    try:
        result = (traced_run if args.trace else timed_run)(args, workdir, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
