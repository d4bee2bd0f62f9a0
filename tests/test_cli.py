import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

from mapgeom import (
    MapField,
    QuadratureDomain,
    TangentField,
    circle_domain,
    load_field,
    make_manifold,
    save_field,
)
from mapgeom import dynamics, manifold, mapspace
from mapgeom.cli import COMMANDS, RunConfig, build_parser, main, parse_config
from mapgeom.reparam import DiscreteDiffeo, save_permutation
from mapgeom.transport import save_measure, DiscreteMeasure

SPHERE = make_manifold("sphere:r=1.0:rep=embedded")


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mapgeom.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def sphere_files(tmp_path):
    rng = np.random.default_rng(0)
    dom = circle_domain(5)
    vals = SPHERE.random_points(rng, 5)
    q = MapField(dom, SPHERE, vals)
    h = TangentField(q, 0.5 * SPHERE.project(vals, rng.uniform(-1, 1, (5, 3))))
    qf = tmp_path / "q.json"
    hf = tmp_path / "h.json"
    save_field(q, qf)
    save_field(h, hf)
    return q, h, qf, hf, tmp_path


def test_empty_argv_usage_exit_2():
    code, _, err = run_cli()
    assert code == 2
    assert "usage" in err.lower()


def test_unknown_flag_exit_2():
    code, _, _ = run_cli("exp", "--nope", "x")
    assert code == 2


def test_bad_manifold_string_exit_2():
    code, _, err = run_cli("verify", "--manifold", "sphere:r=-1")
    assert code == 2
    assert "invalid parameter" in err


@pytest.mark.parametrize("rep", ["embedded", "chart"])
def test_flat_takes_no_rep_exit_2(rep):
    # flat space has one representation, the chart; rep is a key of sphere only
    code, _, err = run_cli("verify", "--manifold", f"flat:n=3:rep={rep}")
    assert code == 2
    assert err.strip() == "error: invalid parameter 'rep': allowed keys are ['n']"


@pytest.mark.parametrize("rep", ["embedded", "chart"])
def test_infinite_radius_exit_2_naming_r(rep):
    code, _, err = run_cli("verify", "--manifold", f"sphere:r=inf:rep={rep}", "--instances", "3")
    assert code == 2
    assert err.strip() == "error: invalid parameter r=inf: must be finite"


# each radius once failed inside the battery, with a message that named no
# r (or, under -W error, with a RuntimeWarning traceback)
@pytest.mark.parametrize("r, rep", [("1e-200", "chart"), ("1e-160", "embedded"), ("1e155", "chart")])
def test_sphere_radius_whose_square_is_not_normal_exit_2_naming_r(r, rep):
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "mapgeom.cli", "verify",
                           "--manifold", f"sphere:r={r}:rep={rep}", "--instances", "20"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: invalid parameter r={float(r)}: r^2 = ")
    assert proc.stderr.strip().endswith("r^2 must be a finite, normal double: "
                                        "about 1.5e-154 <= r <= 1.3e154")


def test_cli_import_leaves_scipy_and_permutation_tables_unloaded():
    # both are paid on first use, not by every CLI call
    probe = ("import sys, mapgeom.cli, mapgeom.transport as t; "
             "print('scipy.optimize' in sys.modules, t._permutation_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "0"]


def test_transport_call_leaves_scipy_unloaded(tmp_path):
    # the assignment solver is in-repo: a whole transport run never imports scipy
    for name, atoms in (("mu", [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
                        ("nu", [[1.0, 1.0], [0.0, 0.5], [2.0, 0.0]])):
        measure = DiscreteMeasure(np.array(atoms), np.full(3, 1.0 / 3.0))
        save_measure(measure, tmp_path / f"{name}.json")
    probe = ("import sys\nfrom mapgeom import cli\n"
             f"code = cli.main(['transport', '--mu', {str(tmp_path / 'mu.json')!r}, "
             f"'--nu', {str(tmp_path / 'nu.json')!r}])\n"
             "print(code, 'scipy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stderr.split() == ["0", "False"]
    assert "optimal permutation: [1, 2, 0]" in proc.stdout


def test_transport_overflowing_costs_exit_2_naming_mu_and_nu(tmp_path):
    # +-1e200 atoms square to inf; a NaN there once could stall the solver, hence the timeout
    save_measure(DiscreteMeasure(np.array([[1e200], [-1e200]]), np.array([0.5, 0.5])),
                 tmp_path / "mu.json")
    save_measure(DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5])),
                 tmp_path / "nu.json")
    proc = subprocess.run(
        [sys.executable, "-m", "mapgeom.cli", "transport",
         "--mu", str(tmp_path / "mu.json"), "--nu", str(tmp_path / "nu.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "error: the atoms of mu and nu are too far apart" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_list_manifolds():
    code, out, _ = run_cli("list-manifolds")
    assert code == 0
    for name in ("flat", "sphere", "halfplane", "paraboloid"):
        assert name in out


def test_every_option_has_help_stating_its_default():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for name, command in COMMANDS.items():
        actions = {a.dest: a for a in subparsers.choices[name]._actions if a.dest != "help"}
        assert actions.keys() == command.options.keys(), name
        for option, action in actions.items():
            assert action.help, f"{name} --{option} has no help"
            default = getattr(RunConfig, option)
            if default is not None:
                assert f"(default {default})" in action.help, f"{name} --{option}"


def test_exp_zero_field_returns_base(sphere_files, tmp_path):
    q, h, qf, hf, d = sphere_files
    zf = d / "zero.json"
    save_field(TangentField(q, np.zeros_like(h.vecs)), zf)
    out = d / "out.json"
    code, _, _ = run_cli("exp", "--field", str(zf), "--output", str(out), "--steps", "50")
    assert code == 0
    result = load_field(out)
    assert np.array_equal(result.values, q.values)


def test_exp_step_too_long_exit_1_naming_sample_and_reason(tmp_path, capsys):
    q = MapField(circle_domain(2), SPHERE, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    save_field(TangentField(q, np.array([[0.1, 0.0, 0.0], [400.0, 0.0, 0.0]])), tmp_path / "h.json")
    code = main(["exp", "--field", str(tmp_path / "h.json"), "--output", str(tmp_path / "o.json"),
                 "--steps", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert "failure: geodesic of sample 1 took a step too long at t=0.001 (step 1 of 1000)" in err
    assert "use more than 1000 steps" in err
    # two samples that take steps too long exit once, naming both
    q = MapField(circle_domain(3), SPHERE, np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                                     [1.0, 0.0, 0.0]]))
    save_field(TangentField(q, np.array([[500.0, 0.0, 0.0], [0.1, 0.0, 0.0],
                                         [0.0, 400.0, 0.0]])), tmp_path / "h.json")
    code = main(["exp", "--field", str(tmp_path / "h.json"), "--output", str(tmp_path / "o.json"),
                 "--steps", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: geodesics of samples 0 (took a step too long at t=0.001 "
                          "(step 1 of 1000): level-set residual ")
    assert "), 2 (took a step too long at t=0.001 (step 1 of 1000): level-set residual " in err
    assert err.count("use more than 1000 steps") == 2 and "sample 1" not in err


def test_exp_requires_tangent_field(sphere_files):
    q, h, qf, hf, d = sphere_files
    out = d / "out.json"
    code, _, err = run_cli("exp", "--field", str(qf), "--output", str(out))
    assert code == 2
    assert "lacks vecs" in err


def test_exp_log_distance_round_trip(sphere_files):
    q, h, qf, hf, d = sphere_files
    end = d / "end.json"
    back = d / "back.json"
    assert run_cli("exp", "--field", str(hf), "--output", str(end), "--steps", "500")[0] == 0
    assert run_cli(
        "log", "--base", str(qf), "--target", str(end), "--output", str(back), "--steps", "500"
    )[0] == 0
    recovered = load_field(back)
    assert np.max(np.abs(recovered.vecs - h.vecs)) < 1e-9
    code, out, _ = run_cli("distance", "--base", str(qf), "--target", str(qf))
    assert code == 0
    assert float(out.strip()) == 0.0


def test_geodesic_writes_reports(sphere_files):
    q, h, qf, hf, d = sphere_files
    pathf, repf, csvf = d / "path.json", d / "rep.json", d / "rep.csv"
    code, out, _ = run_cli(
        "geodesic", "--field", str(hf), "--snapshots", "6", "--steps-per-snapshot", "10",
        "--output", str(pathf), "--report", str(repf), "--report-csv", str(csvf),
    )
    assert code == 0
    lines = csvf.read_text().splitlines()
    assert lines[0] == "time,energy,residual,drift"
    assert len(lines) == 7
    doc = json.loads(repf.read_text())
    assert doc["max_pointwise_geodesic_residual"] < 1e-2


def test_curvature_subcommand(tmp_path):
    halfplane = make_manifold("halfplane")
    rng = np.random.default_rng(1)
    dom = circle_domain(4)
    q = MapField(dom, halfplane, halfplane.random_points(rng, 4))
    qf = tmp_path / "q.json"
    save_field(q, qf)
    paths = {}
    for name in ("h", "k", "l"):
        tf = TangentField(q, rng.uniform(-1, 1, (4, 2)))
        paths[name] = tmp_path / f"{name}.json"
        save_field(tf, paths[name])
    out = tmp_path / "r.json"
    code, _, _ = run_cli(
        "curvature", "--base", str(qf), "--h", str(paths["h"]), "--k", str(paths["k"]),
        "--l", str(paths["l"]), "--output", str(out),
    )
    assert code == 0
    assert load_field(out).vecs.shape == (4, 2)
    # a tangent file based elsewhere is an input error
    other = MapField(dom, halfplane, halfplane.random_points(rng, 4))
    stray = tmp_path / "stray.json"
    save_field(TangentField(other, rng.uniform(-1, 1, (4, 2))), stray)
    code, _, err = run_cli(
        "curvature", "--base", str(qf), "--h", str(stray), "--k", str(paths["k"]),
        "--l", str(paths["l"]), "--output", str(out),
    )
    assert code == 2
    assert "not based at" in err


def test_verify_pass_and_determinism(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    code1, out1, _ = run_cli(
        "verify", "--manifold", "sphere:r=1", "--seed", "7", "--instances", "100",
        "--output", str(r1),
    )
    code2, out2, _ = run_cli(
        "verify", "--manifold", "sphere:r=1", "--seed", "7", "--instances", "100",
        "--output", str(r2),
    )
    assert code1 == code2 == 0
    assert out1 == out2
    assert r1.read_bytes() == r2.read_bytes()


def test_reparam_report(sphere_files):
    q, h, qf, hf, d = sphere_files
    pf = d / "perm.json"
    save_permutation(DiscreteDiffeo(np.array([4, 3, 2, 1, 0])), pf)
    rf = d / "rep.json"
    code, out, _ = run_cli(
        "reparam", "--field", str(hf), "--perm", str(pf), "--steps", "50",
        "--output", str(rf),
    )
    assert code == 0
    doc = json.loads(rf.read_text())
    assert doc["invariance"]["measure_preserving"] is True
    assert doc["invariance"]["lhs"] == doc["invariance"]["rhs"]
    assert all(r["passed"] for r in doc["equivariance"])


def test_transport_measure_mode(tmp_path):
    mu = tmp_path / "mu.json"
    nu = tmp_path / "nu.json"
    save_measure(DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5])), mu)
    save_measure(DiscreteMeasure(np.array([[1.0], [0.0]]), np.array([0.5, 0.5])), nu)
    code, out, _ = run_cli("transport", "--mu", str(mu), "--nu", str(nu))
    assert code == 0
    assert "0.0" in out
    assert "[1, 0]" in out


def test_transport_submersion_mode(tmp_path):
    man = make_manifold("flat:n=1")
    dom = QuadratureDomain(np.full(3, 1.0 / 3.0))
    base = MapField(dom, man, np.array([[0.0], [1.0], [2.0]]))
    rearr = MapField(dom, man, np.array([[1.0], [0.0], [2.0]]))
    bf, rf = tmp_path / "b.json", tmp_path / "r.json"
    save_field(base, bf)
    save_field(rearr, rf)
    code, out, _ = run_cli("transport", "--base", str(bf), "--map", str(rf))
    assert code == 0
    assert "w2 cost: 0.0" in out
    assert "l2 cost:" in out


@pytest.mark.parametrize("spec, weights, problem", [
    ("flat:n=2", [0.25] * 4, "different target manifolds"),
    ("halfplane", [0.1, 0.2, 0.3, 0.4], "different quadrature domains"),
], ids=["other-target", "other-weights"])
def test_transport_submersion_map_on_another_space_exit_2(tmp_path, capsys, spec, weights,
                                                           problem):
    values = [[0.0, 1.0], [0.5, 1.0], [0.0, 2.0], [0.5, 2.0]]
    base, rearranged = tmp_path / "base.json", tmp_path / "map.json"
    base.write_text(json.dumps({"domain": {"weights": [0.25] * 4}, "manifold": "halfplane",
                                "values": values}))
    rearranged.write_text(json.dumps({"domain": {"weights": weights}, "manifold": spec,
                                      "values": values[::-1]}))
    assert main(["transport", "--base", str(base), "--map", str(rearranged)]) == 2
    assert problem in capsys.readouterr().err


def test_reparam_permutation_of_another_length_exit_2(sphere_files, capsys):
    q, h, qf, hf, d = sphere_files
    pf = d / "perm.json"
    save_permutation(DiscreteDiffeo(np.array([1, 0])), pf)
    assert main(["reparam", "--field", str(hf), "--perm", str(pf), "--steps", "5"]) == 2
    assert "permutation length differs from field" in capsys.readouterr().err


def test_transport_needs_exactly_one_mode(tmp_path):
    code, _, err = run_cli("transport")
    assert code == 2


def test_config_file_flags_override(tmp_path, sphere_files):
    q, h, qf, hf, d = sphere_files
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": str(hf), "steps": 50, "output": str(out_a)}))
    code, _, _ = run_cli("--config", str(cfg), "exp")
    assert code == 0 and out_a.exists()
    code, _, _ = run_cli("--config", str(cfg), "exp", "--output", str(out_b))
    assert code == 0 and out_b.exists()
    assert load_field(out_b).values.shape == (5, 3)


def test_config_rejects_unknown_keys(tmp_path, sphere_files):
    q, h, qf, hf, d = sphere_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field": str(hf), "bogus": 1}))
    code, _, err = run_cli("--config", str(cfg), "exp", "--output", str(d / "x.json"))
    assert code == 2
    assert "unknown config entry" in err


@pytest.mark.parametrize(
    "entry", [{"seed": "abc"}, {"steps": 2.7}, {"instances": True}, {"field": 7}]
)
def test_config_value_of_wrong_type_exit_2(tmp_path, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code, _, err = run_cli("--config", str(cfg), "exp", "--output", str(tmp_path / "x.json"))
    assert code == 2
    (key,) = entry
    assert f"config entry {key!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("entry, argv", [
    ({"field": "nope.json"}, ["verify", "--manifold", "flat:n=2"]),
    ({"snapshots": 0}, ["verify", "--manifold", "flat:n=2"]),
    ({"tolerance": 1e-8}, ["exp", "--field", "h.json", "--output", "end.json"]),
], ids=["verify-field", "verify-snapshots", "exp-tolerance"])
def test_config_entry_not_an_option_of_the_subcommand_exit_2(tmp_path, capsys, entry, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    code = main(["--config", str(cfg), *argv])
    err = capsys.readouterr().err
    assert code == 2
    (key,) = entry
    assert str(cfg) in err and f"config entry {key!r}" in err and f"subcommand {argv[0]!r}" in err


def test_curvature_on_the_embedded_sphere(tmp_path):
    rng = np.random.default_rng(2)
    q = MapField(circle_domain(3), SPHERE, SPHERE.random_points(rng, 3))
    qf = tmp_path / "q.json"
    save_field(q, qf)
    vecs = {}
    for name in ("h", "k", "l"):
        vecs[name] = SPHERE.project(q.values, rng.uniform(-1, 1, (3, 3)))
        save_field(TangentField(q, vecs[name]), tmp_path / f"{name}.json")
    out = tmp_path / "r.json"
    code = main(["curvature", "--base", str(qf), *(f"--{n}={tmp_path / n}.json" for n in "hkl"),
                 "--output", str(out)])
    assert code == 0
    h, k, l = vecs["h"], vecs["k"], vecs["l"]
    dot = lambda a, b: np.sum(a * b, axis=-1, keepdims=True)
    # constant curvature 1: R(h, k) l = <k, l> h - <h, l> k
    assert np.max(np.abs(load_field(out).vecs - (dot(k, l) * h - dot(h, l) * k))) < 1e-12


def test_reparam_on_an_embedded_field_checks_curvature(tmp_path):
    paraboloid = make_manifold("paraboloid")
    rng = np.random.default_rng(3)
    q = MapField(circle_domain(4), paraboloid, paraboloid.random_points(rng, 4))
    hf, pf, rf = tmp_path / "h.json", tmp_path / "perm.json", tmp_path / "rep.json"
    save_field(TangentField(q, paraboloid.project(q.values, rng.uniform(-1, 1, (4, 3)))), hf)
    save_permutation(DiscreteDiffeo(np.array([2, 0, 3, 1])), pf)
    code = main(["reparam", "--field", str(hf), "--perm", str(pf), "--steps", "20",
                 "--output", str(rf)])
    assert code == 0
    reports = {r["check_name"]: r for r in json.loads(rf.read_text())["equivariance"]}
    assert reports["equivariance_curvature"]["passed"]


def test_nonfinite_vecs_exit_2(tmp_path, capsys):
    doc = {"domain": {"weights": [0.5, 0.5]}, "manifold": "halfplane",
           "values": [[0.0, 1.0], [0.5, 1.5]], "vecs": [[0.1, 0.2], [float("nan"), 0.0]]}
    hf = tmp_path / "h.json"
    hf.write_text(json.dumps(doc))
    code = main(["exp", "--field", str(hf), "--output", str(tmp_path / "o.json")])
    assert code == 2
    assert "vecs are not finite" in capsys.readouterr().err


FLAT_FIELD = {"domain": {"weights": [0.5, 0.5]}, "manifold": "flat:n=2",
              "values": [[0.0, 1.0], [0.5, 1.5]], "vecs": [[0.1, 0.2], [0.0, 0.3]]}
MEASURE = {"atoms": [[0.0], [1.0]], "masses": [0.5, 0.5]}


@pytest.mark.parametrize(
    "flag, text, key",
    [
        ("--perm", '{"a": 1}', "permutation document"),
        ("--perm", "[0, 1.5]", "permutation document"),
        ("--perm", "[true, false]", "permutation document"),
        ("--mu", json.dumps({**MEASURE, "masses": "x"}), "'masses'"),
        ("--field", json.dumps({**FLAT_FIELD, "domain": [0.5, 0.5]}), "'domain'"),
        ("--field", json.dumps({**FLAT_FIELD, "domain": {"weights": [0.5, 0.5], "points": "ab"}}),
         "'domain.points'"),
        ("--field", "not json", "line 1"),
        ("--field", json.dumps({**FLAT_FIELD, "values": [[0.0, float("nan")], [0.5, 1.5]]}),
         "values are not finite"),
        ("--field", json.dumps({**FLAT_FIELD, "manifold": "sphere:r=1.0:rep=embedded",
                                "values": [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]}),
         "map values at sample 0: embedding residual 0.75 > 1e-06"),
        ("--field", json.dumps({**FLAT_FIELD, "manifold": "halfplane",
                                "values": [[0.0, 1.0], [0.5, -1.5]]}),
         "map values at sample 1 outside the chart domain"),
        ("--mu", json.dumps({**MEASURE, "masses": [0.5, 0.4]}), "masses"),
        ("--config", '["exp"]', "config document"),
        ("--mu", json.dumps({**MEASURE, "masses": [float("nan"), 1.0]}), "masses"),
        ("--mu", json.dumps({**MEASURE, "atoms": [[float("nan")], [1.0]]}), "atoms"),
    ],
    ids=["perm-object", "perm-float-index", "perm-bools", "measure-masses-string",
         "field-domain-array", "field-points-string", "field-not-json", "field-nan-values",
         "field-off-manifold", "field-outside-chart", "measure-not-normalized",
         "config-not-object", "measure-nan-masses", "measure-nan-atoms"],
)
def test_malformed_file_exit_2(tmp_path, capsys, flag, text, key):
    field, mu, bad = tmp_path / "field.json", tmp_path / "mu.json", tmp_path / "bad.json"
    field.write_text(json.dumps(FLAT_FIELD))
    mu.write_text(json.dumps(MEASURE))
    bad.write_text(text)
    out = str(tmp_path / "out.json")
    argv = {
        "--perm": ["reparam", "--field", str(field), "--perm", str(bad)],
        "--mu": ["transport", "--mu", str(bad), "--nu", str(mu)],
        "--field": ["exp", "--field", str(bad), "--output", out],
        "--config": ["--config", str(bad), "exp", "--field", str(field), "--output", out],
    }[flag]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert str(bad) in err and key in err and "Traceback" not in err


def test_nonpositive_numeric_option_rejected(sphere_files):
    q, h, qf, hf, d = sphere_files
    code, _, err = run_cli("exp", "--field", str(hf), "--output", str(d / "x.json"),
                           "--steps", "0")
    assert code == 2
    assert "positive" in err


@pytest.fixture()
def step_counts(monkeypatch):
    """The step count of every ``integrate_spray`` call the CLI makes, in
    order: a ladder rung with its twin shows as two calls of n/2 steps, and
    a rung that resumes the carried run as one of n/2."""
    counts = []
    integrate = manifold.integrate_spray

    def recording(man, x, v, steps, *args, **kwargs):
        counts.append(steps)
        return integrate(man, x, v, steps, *args, **kwargs)

    for module in (dynamics, mapspace, manifold):
        monkeypatch.setattr(module, "integrate_spray", recording)
    return counts


def is_ladder(counts):
    # the twin pair (64, 32) in two calls of 32, then the rung 128 alone
    # against the 64 in hand, resumed from the run that the pair carried
    return counts == [32, 32, 64]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_log_and_distance_certify_their_steps_unless_given(sphere_files, step_counts, source):
    q, h, qf, hf, d = sphere_files
    end = d / "end.json"
    assert main(["exp", "--field", str(hf), "--output", str(end), "--steps", "500"]) == 0
    files = ["--base", str(qf), "--target", str(end)]

    def fixed(cmd, steps):
        if source == "flag":
            return [cmd, *files, "--steps", str(steps)]
        cfg = d / "cfg.json"
        cfg.write_text(json.dumps({"steps": steps}))
        return ["--config", str(cfg), cmd, *files]

    for argv, certified in [(["log", *files, "--output", str(d / "a.json")], True),
                            (fixed("log", 500) + ["--output", str(d / "b.json")], False),
                            (["distance", *files], True),
                            (fixed("distance", 500), False)]:
        step_counts.clear()
        assert main(argv) == 0
        assert is_ladder(step_counts) if certified else set(step_counts) == {500}
    target = load_field(end)
    assert np.array_equal(load_field(d / "a.json").vecs, dynamics.log_field(q, target).vecs)
    assert np.array_equal(load_field(d / "b.json").vecs,
                          dynamics.log_field(q, target, steps=500).vecs)


def test_exp_and_reparam_without_steps_take_1000(sphere_files, step_counts):
    q, h, qf, hf, d = sphere_files
    assert parse_config(["exp", "--field", str(hf), "--output", "o.json"]).steps is None
    assert main(["exp", "--field", str(hf), "--output", str(d / "o.json")]) == 0
    assert step_counts == [1000]
    step_counts.clear()
    pf = d / "perm.json"
    save_permutation(DiscreteDiffeo(np.array([1, 2, 3, 4, 0])), pf)
    assert main(["reparam", "--field", str(hf), "--perm", str(pf)]) == 0
    assert step_counts and set(step_counts) == {1000}


def test_log_steps_zero_in_config_exit_2(sphere_files, capsys):
    q, h, qf, hf, d = sphere_files
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({"steps": 0}))
    code = main(["--config", str(cfg), "log", "--base", str(qf), "--target", str(qf),
                 "--output", str(d / "o.json")])
    assert code == 2
    assert "option steps must be positive, got 0" in capsys.readouterr().err


def test_distance_infinite_tolerance_exit_2(sphere_files, capsys):
    # an infinite tolerance would skip shooting and print the seed's distance
    q, h, qf, hf, d = sphere_files
    code = main(["distance", "--base", str(qf), "--target", str(qf), "--tolerance", "inf"])
    assert code == 2
    assert "option tolerance must be finite, got inf" in capsys.readouterr().err


def test_distance_uncertified_at_the_cap_exit_1(sphere_files, capsys):
    q, h, qf, hf, d = sphere_files
    end = d / "end.json"
    assert main(["exp", "--field", str(hf), "--output", str(end), "--steps", "100"]) == 0
    capsys.readouterr()
    code = main(["distance", "--base", str(qf), "--target", str(end), "--tolerance", "1e-30"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: log shooting: step-doubling error above tolerance 1.0e-30 "
                          "at the cap of 1024 steps at samples 0 (estimate ")
    assert all(f"{i} (estimate " in err for i in range(5))


def test_log_antipodal_exit_1_naming_every_sample(tmp_path, capsys):
    dom = circle_domain(3)
    a = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    save_field(MapField(dom, SPHERE, a), tmp_path / "a.json")
    save_field(MapField(dom, SPHERE, a * [[1.0], [-1.0], [-1.0]]), tmp_path / "b.json")
    code = main(["log", "--base", str(tmp_path / "a.json"), "--target", str(tmp_path / "b.json"),
                 "--output", str(tmp_path / "o.json")])
    assert code == 1
    assert capsys.readouterr().err == ("failure: log undefined for antipodal sphere points at "
                                       "samples 1, 2\n")


@pytest.mark.parametrize("cmd", ["verify", "reparam"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_exit_2_naming_seed(tmp_path, capsys, cmd, source):
    field, perm = tmp_path / "h.json", tmp_path / "perm.json"
    field.write_text(json.dumps({"domain": {"weights": [0.5, 0.5]}, "manifold": "flat:n=2",
                                 "values": [[0.0, 0.0], [1.0, 0.0]],
                                 "vecs": [[0.1, 0.0], [0.0, 0.1]]}))
    perm.write_text("[1, 0]")
    args = {"verify": ["verify", "--manifold", "flat:n=2", "--instances", "2"],
            "reparam": ["reparam", "--field", str(field), "--perm", str(perm), "--steps", "5"]}[cmd]
    if source == "flag":
        args += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        args = ["--config", str(cfg), *args]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "option seed must be non-negative, got -1" in err


def test_missing_file_exit_2(tmp_path):
    code, _, _ = run_cli("exp", "--field", str(tmp_path / "nope.json"),
                         "--output", str(tmp_path / "o.json"))
    assert code == 2


def test_emitted_field_files_reparse_equal(sphere_files):
    q, h, qf, hf, d = sphere_files
    end = d / "end.json"
    run_cli("exp", "--field", str(hf), "--output", str(end), "--steps", "100")
    first = load_field(end)
    run_cli("exp", "--field", str(hf), "--output", str(end), "--steps", "100")
    second = load_field(end)
    assert np.array_equal(first.values, second.values)


def test_parse_config_in_process():
    cfg = parse_config(["exp", "--field", "f.json", "--output", "o.json", "--steps", "7"])
    assert cfg.subcommand == "exp" and cfg.steps == 7


def test_main_in_process_distance(sphere_files, capsys):
    q, h, qf, hf, d = sphere_files
    code = main(["distance", "--base", str(qf), "--target", str(qf)])
    assert code == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


@pytest.mark.parametrize("cmd", ["distance", "log"])
def test_maps_on_other_weights_exit_2(tmp_path, capsys, cmd):
    base, target = tmp_path / "base.json", tmp_path / "target.json"
    base.write_text(json.dumps({"domain": {"weights": [0.9, 0.1]}, "manifold": "flat:n=1",
                                "values": [[0.0], [0.0]]}))
    target.write_text(json.dumps({"domain": {"weights": [0.1, 0.9]}, "manifold": "flat:n=1",
                                  "values": [[1.0], [3.0]]}))
    code = main([cmd, "--base", str(base), "--target", str(target),
                 "--output", str(tmp_path / "out.json")])
    assert code == 2
    assert "different quadrature domains" in capsys.readouterr().err


def test_curvature_tangents_on_other_weights_exit_2(tmp_path, capsys):
    values = [[0.0, 1.0], [0.5, 2.0]]
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"domain": {"weights": [0.9, 0.1]}, "manifold": "halfplane",
                                "values": values}))
    args = ["curvature", "--base", str(base), "--output", str(tmp_path / "out.json")]
    for name in ("h", "k", "l"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"domain": {"weights": [0.1, 0.9]}, "manifold": "halfplane",
                                    "values": values, "vecs": [[1.0, 0.0], [0.0, 1.0]]}))
        args += [f"--{name}", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "--h is not based at --base" in err
    assert "different quadrature domains" in err
