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
from mapgeom.cli import main, parse_config
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
def test_infinite_radius_exit_2_naming_r(rep):
    code, _, err = run_cli("verify", "--manifold", f"sphere:r=inf:rep={rep}", "--instances", "3")
    assert code == 2
    assert err.strip() == "error: invalid parameter r=inf: must be finite"


def test_cli_import_leaves_scipy_and_permutation_tables_unloaded():
    # both are paid on first use, not by every CLI call
    probe = ("import sys, mapgeom.cli, mapgeom.transport as t; "
             "print('scipy.optimize' in sys.modules, t._permutation_table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "0"]


def test_list_manifolds():
    code, out, _ = run_cli("list-manifolds")
    assert code == 0
    for name in ("flat", "sphere", "halfplane", "paraboloid"):
        assert name in out


def test_exp_zero_field_returns_base(sphere_files, tmp_path):
    q, h, qf, hf, d = sphere_files
    zf = d / "zero.json"
    save_field(TangentField(q, np.zeros_like(h.vecs)), zf)
    out = d / "out.json"
    code, _, _ = run_cli("exp", "--field", str(zf), "--output", str(out), "--steps", "50")
    assert code == 0
    result = load_field(out)
    assert np.array_equal(result.values, q.values)


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
                                "values": [[0.0, 0.0, 2.0], [0.0, 0.0, 1.0]]}), "values"),
        ("--mu", json.dumps({**MEASURE, "masses": [0.5, 0.4]}), "masses"),
        ("--config", '["exp"]', "config document"),
        ("--mu", json.dumps({**MEASURE, "masses": [float("nan"), 1.0]}), "masses"),
        ("--mu", json.dumps({**MEASURE, "atoms": [[float("nan")], [1.0]]}), "atoms"),
    ],
    ids=["perm-object", "perm-float-index", "perm-bools", "measure-masses-string",
         "field-domain-array", "field-points-string", "field-not-json", "field-nan-values",
         "field-off-manifold", "measure-not-normalized", "config-not-object",
         "measure-nan-masses", "measure-nan-atoms"],
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
