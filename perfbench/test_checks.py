"""Tests of the benchmark itself: every output check accepts the program's
real output and rejects a perturbed copy of it.

    python3 -m pytest perfbench/test_checks.py -q

(run from the root of a checkout; takes about 20 seconds).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from mapgeom import mapspace  # noqa: E402


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One round of every workload: {workload: [(part, output)]} plus workdirs."""
    done = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        rnd = workloads.build(name, 7, workdir)
        done[name] = (workdir, [(part, part.run()) for part in rnd.parts])
    return done


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _scaled(a, factor):
    return (np.asarray(a) * factor).tolist()


def _bad_report(reports):
    return [dict(r, passed=False) if i == 0 else r for i, r in enumerate(reports)]


# How each part's output is perturbed: in memory, or in its output file.
def _perturb(name: str, out, workdir: Path):
    kind, _, target = name.partition(".")
    if kind == "exp":
        values = np.array(out.values)
        values[:, -1] += 1e-5
        return SimpleNamespace(values=values)
    if kind == "geodesic":
        path, report = out
        vels = [SimpleNamespace(vecs=v.vecs) for v in path.velocities]
        vels[-1] = SimpleNamespace(vecs=path.velocities[-1].vecs * (1 + 1e-5))
        return SimpleNamespace(maps=path.maps, velocities=vels), report
    if kind == "transport":
        return SimpleNamespace(vecs=out.vecs * (1 + 1e-2))
    if kind == "log":  # stays tangent: the check integrates it again
        return mapspace.TangentField(out.base, out.vecs * (1 + 1e-6))
    if kind == "distance":
        return out + 1e-6
    if kind in ("standard_checks", "equivariance"):
        return _bad_report(out)
    if kind == "curvature":
        return SimpleNamespace(vecs=out.vecs + 1e-8)
    if kind == "w2_bruteforce":
        return SimpleNamespace(perm=out.perm, cost=out.cost * (1 + 1e-9))
    if kind == "w2_assignment":
        perm = np.array(out.perm)
        perm[[0, 1]] = perm[[1, 0]]
        return SimpleNamespace(perm=perm, cost=out.cost)
    if kind == "submersion":
        displaced, identity = out
        return SimpleNamespace(l2_cost=displaced.l2_cost, w2_cost=displaced.l2_cost * 1.01,
                               equality=False, assignment=displaced.assignment), identity
    if kind == "cli":
        edits = {
            "list-manifolds": None,
            "exp": ("exp_out.json", lambda d: d.update(values=_scaled(d["values"], 1 + 1e-5))),
            "geodesic": ("geodesic_path.json",
                         lambda d: d["velocities"].__setitem__(-1, _scaled(d["velocities"][-1], 1 + 1e-5))),
            "log": ("log_out.json", lambda d: d.update(vecs=_scaled(d["vecs"], 1 + 1e-6))),
            "distance": ("distance_out.json", lambda d: d.update(distance=d["distance"] + 1e-6)),
            "curvature": ("curv_out.json", lambda d: d.update(vecs=(np.array(d["vecs"]) + 1e-8).tolist())),
            "verify": ("verify_out.json", lambda d: d[0].update(passed=False)),
            "reparam": ("reparam_out.json", lambda d: d["invariance"].update(lhs=d["invariance"]["lhs"] * (1 + 1e-15))),
            "transport": ("transport_out.json", lambda d: d.update(w2_cost_bruteforce=d["w2_cost"] * (1 + 1e-9))),
        }[target]
        if edits is None:
            return "\n".join(out.splitlines()[1:])
        _edit_json(workdir / edits[0], edits[1])
        return out
    raise AssertionError(f"no perturbation for {name}")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_program_outputs(outputs, workload):
    for part, out in outputs[workload][1]:
        part.check(out)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_check_rejects_a_perturbed_output(outputs, workload):
    workdir, done = outputs[workload]
    for part, out in done:
        bad = _perturb(part.name, out, workdir)
        with pytest.raises(checks.CheckFailed):
            part.check(bad)


def test_swap_check_rejects_a_worse_matching_with_its_own_cost():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 2))
    b = a + 0.01 * rng.normal(size=a.shape)  # the identity is the optimal matching
    C = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    perm = np.array([1, 0, 2, 3, 4, 5])
    checks.check_no_improving_swap(a, b, np.arange(6), float(np.trace(C)) / 6)
    with pytest.raises(checks.CheckFailed):
        checks.check_no_improving_swap(a, b, perm, float(np.mean(C[np.arange(6), perm])))


def test_enumeration_matches_a_known_matching():
    a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cost, perm = checks.enumerate_w2(a, a[[2, 0, 1]])
    assert perm == [1, 2, 0] and cost == 0.0


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {name for name, *_ in layers.LAYERS} | {f"trace.{w}.overhead_pct" for w in workloads.WORKLOADS}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "work_per_s", "peak_rss_mb"}
