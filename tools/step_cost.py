"""Cost of one RK4 step of ``integrate_spray``, per registry target.

Usage::

    python3 tools/step_cost.py [CHECKOUT_A [CHECKOUT_B]] [--pairs N] [--targets SPEC ...]

A checkout is the root of a mapgeom source tree (default: this one).  Each
checkout's ``src/mapgeom`` is imported into this process under its own
package name, so two trees are timed side by side.  For every target, at
m = 4 and m = 2048 samples, the two trees' ``integrate_spray`` calls
alternate (A then B, B then A, ...) on the same inputs, ``--pairs`` times.
A machine whose speed drifts by tens of percent over seconds shifts both
calls of a pair alike, so the ratio of a pair is steadier than either time.

Printed per target, m and tree: the median microseconds per step, the
median nanoseconds per row-step, and at m = 4 the split of one step into
its four ``accel`` calls, ``post_step`` and the rest (the RK4 arithmetic,
and in trees whose ``post_step`` does not check the state, that check),
each the best of repeats that also alternate between the trees.  With two
trees, the median time ratio A/B (above 1: B is faster) and its quartiles
follow.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path
from time import perf_counter

import numpy as np

TARGETS = ("flat:n=3", "flat:n=3:rep=embedded", "sphere:rep=chart", "sphere", "halfplane",
           "paraboloid")
# (samples, RK4 steps per call): each call takes ~5-50 ms
SIZES = ((4, 200), (2048, 5))


def load(checkout: Path, tag: int):
    """Import ``checkout/src/mapgeom`` as package ``mapgeom_<tag>``; returns its manifold module."""
    pkg = checkout.resolve() / "src" / "mapgeom"
    name = f"mapgeom_{tag}"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.manifold"]


def inputs(man, m: int):
    """m points of the target and tangent velocities of speed 0.1-0.3."""
    rng = np.random.default_rng(0)
    x = man.random_points(rng, m)
    v = man.project(x, rng.normal(size=x.shape))
    v *= (rng.uniform(0.1, 0.3, m) / np.sqrt(man.inner(x, v, v)))[:, None]
    return x, v


def laid_out(mod, man, m: int):
    """``inputs`` in the layout the tree's integrator keeps its state in.

    A tree with ``manifold.sample_fastest`` lays its state out so; older
    trees keep the callers' C order.  The parts of a step are timed on
    these, so that the split times the kernels as the integrator runs them.
    """
    return tuple(map(getattr(mod, "sample_fastest", np.asarray), inputs(man, m)))


def rk4_state(man, x, v, dt):
    """The state before ``post_step`` after one RK4 step, as ``integrate_spray`` forms it."""
    k1v = man.accel(x, v)
    k2x = v + (0.5 * dt) * k1v
    k2v = man.accel(x + (0.5 * dt) * v, k2x)
    k3x = v + (0.5 * dt) * k2v
    k3v = man.accel(x + (0.5 * dt) * k2x, k3x)
    k4x = v + dt * k3v
    k4v = man.accel(x + dt * k3x, k4x)
    x_new = x + (dt / 6.0) * (v + 2.0 * k2x + 2.0 * k3x + k4x)
    return x_new, v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)


def us(fn, number: int) -> float:
    return timeit.timeit(fn, number=number) / number * 1e6


def parts_of(mod, spec: str, m: int, steps: int) -> dict:
    """Timers, in microseconds, of one step and of its parts at the inputs."""
    man = mod.make_manifold(spec)
    x, v = laid_out(mod, man, m)
    x_new, v_new = rk4_state(man, x, v, 1.0 / steps)
    return {
        "step": lambda: us(lambda: mod.integrate_spray(man, x, v, steps), 1) / steps,
        "accel": lambda: 4 * us(lambda: man.accel(x, v), 200),
        "post_step": lambda: us(lambda: man.post_step(x, x_new, v_new), 200),
    }


def split(mods, spec: str, m: int, steps: int, repeat: int = 7) -> list:
    """Per tree, the best microseconds of the parts of one step at the inputs."""
    timers = [parts_of(mod, spec, m, steps) for mod in mods]
    best = [dict.fromkeys(t, float("inf")) for t in timers]
    for _ in range(repeat):
        for t, b in zip(timers, best):
            for key, fn in t.items():
                b[key] = min(b[key], fn())
    for b in best:
        b["rest"] = b["step"] - b["accel"] - b["post_step"]
    return best


def quartiles(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).parents[1]])
    parser.add_argument("--pairs", type=int, default=11)
    parser.add_argument("--targets", nargs="+", default=TARGETS)
    args = parser.parse_args(argv)
    if not 1 <= len(args.checkouts) <= 2:
        parser.error("give one or two checkouts")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    mods = [load(path, i) for i, path in enumerate(args.checkouts)]
    labels = "AB"
    for path, label in zip(args.checkouts, labels):
        print(f"# {label}: {path}")
    print("target                  m      tree  us/step  ns/row-step  accel x4  post_step  rest")
    for spec in args.targets:
        for m, steps in SIZES:
            mans = [mod.make_manifold(spec) for mod in mods]
            x, v = inputs(mans[0], m)
            times = [[] for _ in mods]
            for i in range(args.pairs):
                order = range(len(mods)) if i % 2 == 0 else reversed(range(len(mods)))
                for j in order:
                    gc.collect()
                    start = perf_counter()
                    mods[j].integrate_spray(mans[j], x, v, steps)
                    times[j].append((perf_counter() - start) / steps)
            parts = split(mods, spec, m, steps) if m == 4 else None
            for j, label in enumerate(labels[:len(mods)]):
                step = statistics.median(times[j]) * 1e6
                line = f"{spec:22s}  {m:<5d}  {label:4s}  {step:7.1f}  {step * 1e3 / m:11.1f}"
                if parts:
                    line += "".join(f"  {parts[j][k]:8.1f}" for k in ("accel", "post_step", "rest"))
                print(line)
            if len(mods) == 2:
                q1, med, q3 = quartiles([a / b for a, b in zip(*times)])
                print(f"{'':22s}  {m:<5d}  A/B   {med:.3f}  [IQR {q1:.3f}-{q3:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
