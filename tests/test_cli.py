"""Scene loading, command dispatch, reports, exit codes."""

import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import oracles
import pytest

from gencourant import cli, gconn, streff
from gencourant import expr as ex
from gencourant import gtb
from gencourant import riemann as rm
from gencourant import tensors as tn
from gencourant.cli import main, run_command
from gencourant.errors import CommandError, SceneError
from gencourant.scene import SceneValidationError, load_scene, scene_from_dict

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def minimal_doc(**overrides):
    doc = {
        "schema_version": 1,
        "chart": {"dim": 2, "coords": ["x", "y"], "domain": [-1, 1], "seed": 0, "points": 8},
        "background": {"g": {"11": "1", "22": "1"}, "B": {}, "phi": "0"},
        "options": {"policy": "reject"},
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# scene loading
# ---------------------------------------------------------------------------


def test_minimal_scene_loads():
    scene = scene_from_dict(minimal_doc())
    assert scene.chart.dim == 2
    assert scene.background.phi is not None
    assert scene.tol("sym") == 1e-9


def test_scene_parse_error_carries_location():
    doc = minimal_doc()
    doc["background"]["g"]["12"] = "x^"
    with pytest.raises(SceneError) as err:
        scene_from_dict(doc)
    assert "background.g.12" in str(err.value)


def test_scene_not_positive_definite_rejected():
    doc = minimal_doc()
    doc["background"]["g"] = {"11": "1", "22": "-1"}
    with pytest.raises(SceneValidationError):
        scene_from_dict(doc)


def test_scene_lower_triangle_keys_rejected():
    doc = minimal_doc()
    doc["background"]["g"]["21"] = "0"
    with pytest.raises(SceneValidationError):
        scene_from_dict(doc)
    doc = minimal_doc()
    doc["background"]["B"] = {"11": "1"}
    with pytest.raises(SceneValidationError):
        scene_from_dict(doc)


def test_scene_h_and_potential_conflict():
    doc = minimal_doc()
    doc["chart"] = {"dim": 3, "coords": ["x", "y", "z"], "seed": 0, "points": 8}
    doc["background"] = {
        "g": {"11": "1", "22": "1", "33": "1"},
        "phi": "0",
        "H": {"123": "1"},
        "B0": {"12": "x"},
    }
    with pytest.raises(SceneValidationError):
        scene_from_dict(doc)


def test_scene_direct_h_entry():
    doc = minimal_doc()
    doc["chart"] = {"dim": 3, "coords": ["x", "y", "z"], "seed": 1, "points": 8}
    doc["background"] = {
        "g": {"11": "1", "22": "1", "33": "1"},
        "phi": "0",
        "H": {"123": "2"},
    }
    scene = scene_from_dict(doc)
    pts = scene.chart.sample_points()
    assert ex.max_abs_on_points(tn.values_at(scene.background.H, pts), pts)[0] == 2.0
    # a non-closed H is rejected (needs dim 4: every 3-form on dim 3 is closed)
    doc4 = minimal_doc()
    doc4["chart"] = {"dim": 4, "coords": ["x", "y", "z", "w"], "seed": 1, "points": 8}
    doc4["background"] = {
        "g": {"11": "1", "22": "1", "33": "1", "44": "1"},
        "phi": "0",
        "H": {"123": "w"},
    }
    with pytest.raises(SceneValidationError):
        scene_from_dict(doc4)


def test_scene_bad_schema_version():
    with pytest.raises(SceneValidationError):
        scene_from_dict(minimal_doc(schema_version=99))


def test_load_scene_missing_file(tmp_path):
    with pytest.raises(SceneError):
        load_scene(tmp_path / "nope.json")


def test_load_scene_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(p)


def test_load_scene_not_utf8(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"schema_version": "\xe9"}')
    with pytest.raises(SceneError):
        load_scene(p)


@pytest.mark.parametrize(
    "section, key",
    [("background", "Bo"), ("options", "tolerance"), ("options.tolerances", "symm")],
)
def test_scene_unknown_key_rejected(section, key):
    doc = minimal_doc()
    doc["options"]["tolerances"] = {"sym": 1e-9}
    target = doc
    for part in section.split("."):
        target = target[part]
    target[key] = {"12": "x"} if section == "background" else 1e-3
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(doc)
    assert f"'{key}'" in str(err.value) and section in str(err.value)
    del target[key]
    assert scene_from_dict(doc).tol("sym") == 1e-9  # legacy "policy" still accepted


def test_seed_and_points_overrides():
    scene = scene_from_dict(minimal_doc(), seed=42, points=5)
    assert scene.chart.seed == 42
    assert scene.chart.num_points == 5


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_central_on_flat_scene_all_pass():
    scene = load_scene(SCENES / "flat2d.json")
    report = run_command("central", scene)
    assert report.passed
    for check in report.checks:
        assert check.max_abs_residual == 0.0


def test_equivalence_needs_even_dimension():
    scene = load_scene(SCENES / "poly3d.json")
    with pytest.raises(CommandError):
        run_command("equivalence", scene)


def test_symplectic_needs_invertible_b():
    scene = load_scene(SCENES / "flat2d.json")  # B = 0
    with pytest.raises(CommandError):
        run_command("symplectic", scene)


def test_beta_command_reports_on_shell_summary():
    scene = load_scene(SCENES / "flat2d.json")
    report = run_command("beta", scene)
    assert report.passed
    assert report.summary["beta_on_shell"] is True

    scene2 = load_scene(SCENES / "poly2d.json")
    report2 = run_command("beta", scene2)
    assert report2.passed  # identities hold off-shell
    assert report2.summary["beta_on_shell"] is False


def test_all_on_random_scene(tmp_path):
    scene = load_scene(SCENES / "poly2d.json")
    report = run_command("all", scene)
    assert report.passed
    assert report.summary["verdict_text"] == "equivalent: both off-shell"
    names = {c.name for c in report.checks}
    assert "central.scalar-identity" in names
    assert "equivalence.ricci-transport" in names


def test_all_skips_symplectic_on_odd_dimension():
    scene = load_scene(SCENES / "poly3d.json")
    report = run_command("all", scene)
    assert report.passed
    assert "symplectic_skipped" in report.summary


def test_report_determinism():
    s1 = load_scene(SCENES / "poly2d.json")
    s2 = load_scene(SCENES / "poly2d.json")
    r1 = run_command("central", s1).to_dict()
    r2 = run_command("central", s2).to_dict()
    r1.pop("timing_seconds")
    r2.pop("timing_seconds")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_unknown_command_rejected():
    scene = load_scene(SCENES / "flat2d.json")
    with pytest.raises(CommandError):
        run_command("frobnicate", scene)


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_pass_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["central", str(SCENES / "flat2d.json"), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["schema_version"] == 1
    assert all(ch["passed"] for ch in doc["checks"])
    assert all("worst_point" in ch for ch in doc["checks"])


def test_main_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(minimal_doc(schema_version=12)))
    assert main(["central", str(bad)]) == 2
    assert main(["equivalence", str(SCENES / "poly3d.json")]) == 2
    assert main(["central", str(tmp_path / "missing.json")]) == 2


def test_main_unwritable_out_is_an_input_error(tmp_path, capsys):
    # exit 1 would read as a failed check
    assert main(["central", str(SCENES / "flat2d.json"), "--out", str(tmp_path / "no" / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_checks_out_before_the_scene_is_loaded(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("ran before the report path was checked")

    monkeypatch.setattr(cli, "load_scene", never)
    monkeypatch.setattr(cli, "run_command", never)
    assert main(["central", str(SCENES / "poly2d.json"), "--out", "/nonexistent/dir/r.json"]) == 2
    assert "error: cannot write the report: /nonexistent/dir" in capsys.readouterr().err


def test_main_rejects_a_directory_as_the_report_before_the_scene_is_loaded(tmp_path, capsys,
                                                                          monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("loaded the scene of a run whose report cannot be written")

    monkeypatch.setattr(cli, "load_scene", never)
    assert main(["central", str(SCENES / "poly2d.json"), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: cannot write the report: {tmp_path} is a directory"


def test_a_run_after_load_scene_makes_no_collection():
    # load_scene freezes what set-up built; `all` on poly2d then allocates
    # too few objects to start the cyclic collector
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    sc = load_scene(SCENES / "poly2d.json")
    gc.callbacks.append(record)
    try:
        run_command("all", sc)
    finally:
        gc.callbacks.remove(record)
    assert started == []


def test_main_check_failure_exit_code(tmp_path):
    # impossible tolerance forces residual checks to fail on an off-shell scene
    code = main(["central", str(SCENES / "poly2d.json"), "--tol-sym", "1e-30"])
    assert code == 1


def test_main_seed_override_changes_points(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["beta", str(SCENES / "poly2d.json"), "--seed", "1", "--out", str(out1)])
    main(["beta", str(SCENES / "poly2d.json"), "--seed", "2", "--out", str(out2)])
    d1, d2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert d1["seed"] == 1 and d2["seed"] == 2


@pytest.mark.parametrize(
    "phi, message",
    [
        ("exp(800*x+800)", "overflow in subexpression 'exp(800*x + 800)'"),
        # constant folding while the scene is parsed
        ("exp(800)", "overflow in subexpression 'exp(800)'"),
        # the literal reads as inf; sin(inf) is the first infinite argument met
        ("sin(1e999*x)", "infinite value in subexpression 'sin(inf*x)'"),
        # finite constants folding to inf (and inf - inf to NaN) while parsing
        ("1e200*1e200 - 1e200*1e200", "overflow in subexpression '1e+200*1e+200'"),
    ],
    ids=["walk-overflow", "folding-overflow", "infinite-argument", "folding-non-finite"],
)
def test_main_overflow_is_an_input_error(tmp_path, capsys, phi, message):
    doc = minimal_doc()
    doc["background"]["phi"] = phi
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert main(["central", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_a_derivative_singular_at_every_point_is_rejected_at_load(tmp_path, capsys):
    # phi is finite at every sample point of the line x = 0, but its
    # partial along x divides by zero there; the fields' jets are taken
    # when the scene is loaded, so the load names that partial
    doc = minimal_doc()
    doc["chart"]["domain"] = [[0, 0], [-1, 1]]
    doc["background"]["phi"] = "sqrt(x) + y"
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SceneValidationError) as err:
        load_scene(path)
    assert "'1/(2*sqrt(x))'" in str(err.value)
    assert main(["central", str(path)]) == 2
    assert "'1/(2*sqrt(x))'" in capsys.readouterr().err


PROBES = {
    # phi = exp(800 x^2) is finite at the point, but e^(2 phi) of the
    # conformal form of beta_B is not; central reads no e^(2 phi) and fails
    # its checks on terms near 1e262
    "phi": (("phi",), "exp(800*x*x)"),
    # g11 = exp(700 x) is near 3e185 at the point; the dilaton connection's
    # J = 0 meets g three times in K, contracted a leg at a time, so no
    # product g g g overflows to meet that 0, and central fails its
    # off-block check on a finite residual near 1e167
    "g11": (("g", "11"), "exp(700*x)"),
    # B12 = exp(700 x) y is near 1e185 at the point; the dual metric
    # G = -B g^-1 B of the symplectic suite overflows and names its stage.
    # In 2-D H' = 0 and B enters no side of the dictionary, which central
    # reads in the block picture, so central passes
    "B12": (("B", "12"), "exp(700*x)*y"),
}


@pytest.mark.parametrize("probe, command, code", [
    ("phi", "all", 2), ("phi", "central", 1),
    ("g11", "all", 2), ("g11", "central", 1),
    ("B12", "all", 2), ("B12", "central", 0),
])
def test_a_scene_beyond_the_float_range_names_the_numeric_stage(tmp_path, capsys, probe, command, code):
    # poly2d with one entry that overflows a numeric stage at the one
    # sample point: the stage raises a DomainError naming itself, the
    # component and the point, rather than passing NaN to a residual
    doc = json.loads((SCENES / "poly2d.json").read_text())
    keys, text = PROBES[probe]
    target = doc["background"]
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = text
    path = tmp_path / f"{probe}.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), "--points", "1"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "non-finite" in err and "sample point" in err
    elif code == 1:
        assert "FAIL " in err and "non-finite" not in err
    else:
        assert "FAIL " not in err and "non-finite" not in err
    if probe == "B12" and command == "all":
        assert "dual metric G = -B g^-1 B" in err


def test_fd_check_reports_the_worst_point():
    # the central-difference error of d(x^4)/dx is 4 h^2 |x|: largest at max |x|
    doc = minimal_doc()
    doc["background"]["phi"] = "x^4"
    scene = scene_from_dict(doc)
    checks = {c.name: c for c in run_command("axioms", scene).checks}
    fd = checks["axioms.derivative-fd-consistency"]
    assert fd.worst_point == max(scene.chart.sample_points()[:4], key=lambda p: abs(p[0]))
    assert checks["axioms.shear-intertwines-brackets"].worst_point in scene.chart.sample_points()


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gencourant.cli", "beta", str(SCENES / "flat2d.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "beta"


def test_classical_oracle_catches_a_fault_in_the_shared_curvature(monkeypatch):
    # The cotangent-algebroid scalar and the sheared Courant scalar that
    # symplectic.scalar-two-paths compares both come from
    # gtb.frame_curvature, so only the classical chart geometry of the
    # closed-form check can see a fault there.
    exact = gtb.frame_curvature

    def scaled(*args):
        return 1.001 * exact(*args)

    monkeypatch.setattr(gtb, "frame_curvature", scaled)
    scene = load_scene(SCENES / "poly2d.json")
    checks = {c.name: c for c in run_command("curvature", scene).checks}
    assert not checks["curvature.metric-scalar-closed-form"].passed


def test_induced_form_check_catches_a_misplaced_shear(monkeypatch):
    # axioms.induced-form compares G(rho* xi, rho* eta), the form-form block
    # of the Gram matrix, with g^{-1}.  A Gram matrix sheared with B moved
    # to the (vector, form) corner of e^{-B} gains B^T g B in that block.
    # The same misplaced e^B shears the sections of the intertwining check,
    # which then fails too.
    exact = oracles.shear

    def misplaced(B, sign):
        n = len(B)
        m = exact(B, sign)
        lower, upper = m[n:, :n].map(np.copy), m[:n, n:].map(np.copy)
        m[n:, :n], m[:n, n:] = upper, lower
        return m

    monkeypatch.setattr(oracles, "shear", misplaced)
    monkeypatch.setattr(gtb.GeneralizedMetric, "gram", oracles.gram_reference)
    monkeypatch.setattr(gtb, "b_twist", oracles.b_twist_reference)
    scene = load_scene(SCENES / "poly2d.json")
    checks = {c.name: c for c in run_command("axioms", scene).checks}
    assert not checks["axioms.induced-form"].passed
    assert not checks["axioms.shear-intertwines-brackets"].passed


@pytest.mark.parametrize("value", ["tight", True, float("nan"), float("inf"), 0, -1e-9, None, [1e-9]])
def test_main_bad_tolerance_is_an_input_error(tmp_path, capsys, value):
    doc = minimal_doc()
    doc["options"] = {"tolerances": {"sym": value}}
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    assert "[options.tolerances.sym]" in capsys.readouterr().err


@pytest.mark.parametrize("coords", ["xy", ["x", 1], {"x": 0, "y": 1}, None],
                         ids=["string", "non-string-name", "object", "null"])
def test_main_bad_coords_is_an_input_error(tmp_path, capsys, coords):
    # tuple("xy") would read as the names x, y without a message
    doc = minimal_doc()
    doc["chart"]["coords"] = coords
    path = tmp_path / "coords.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    assert "[chart.coords]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, value, location",
    [
        ("phi", True, "background.phi"),
        ("phi", float("nan"), "background.phi"),
        ("phi", float("-inf"), "background.phi"),
        ("phi", 10 ** 400, "background.phi"),
        ("phi", None, "background.phi"),
        ("g", {"11": True, "22": 1}, "background.g.11"),
        ("B", {"12": float("inf")}, "background.B.12"),
    ],
    ids=["phi-true", "phi-nan", "phi-inf", "phi-huge-int", "phi-null", "g-true", "B-inf"],
)
def test_main_bad_background_number_is_an_input_error(tmp_path, capsys, entry, value, location):
    # json reads true as 1 and NaN/Infinity as floats; neither is a field
    doc = minimal_doc()
    doc["background"][entry] = value
    path = tmp_path / "number.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"[{location}]" in err and "expected an expression or a finite number" in err


@pytest.mark.parametrize("points", [1, None], ids=["1pt", "scene-points"])
def test_a_twist_given_by_its_potential_reads_as_the_hand_derived_h(points):
    # poly3d's B0 = z^2/6 dx^dy + x*y/6 dy^dz has dB0 = (y/6 + z/3) dx^dy^dz
    doc = json.loads((SCENES / "poly3d.json").read_text())
    by_h = json.loads(json.dumps(doc))
    del by_h["background"]["B0"]
    by_h["background"]["H"] = {"123": "y/6 + z/3"}
    got, want = (run_command("all", scene_from_dict(d, points=points)).to_dict() for d in (doc, by_h))
    assert (got["summary"], got["verdict"]) == (want["summary"], want["verdict"])
    assert [c["name"] for c in got["checks"]] == [c["name"] for c in want["checks"]]
    for a, b in zip(got["checks"], want["checks"]):
        assert a["passed"] == b["passed"]
        assert a["max_abs_residual"] == pytest.approx(b["max_abs_residual"], rel=0, abs=1e-12)


@pytest.mark.parametrize("name", ["poly3d", "seed-1", "seed-3"])
def test_the_jet_of_a_twist_given_by_its_potential_is_the_jet_of_dB0(name):
    # H = dB0 from B0's 2-jet, as numbers, against the jet of dB0 built as
    # an Expr array (the partials of B0 combined symbolically)
    scene = (load_scene(SCENES / "poly3d.json") if name == "poly3d"
             else four_d_scene(12, seed=int(name[-1])))
    bg = scene.background
    want = tn.jets_at(tn.d_of_partials(tn.partials(bg.B0, bg.chart), 2), bg.chart)
    assert np.abs(want.value).max() > 0.1
    for got, expected in zip(bg.jets.H, want):
        assert np.abs(got - expected).max() <= 1e-14


def test_a_potential_whose_derivative_folds_to_nan_is_rejected_at_load():
    # dB0 = -inf + inf at every point, and B0 itself is infinite: B0's
    # 2-jet is valued at load, so the non-finite B0 is named, without a
    # RuntimeWarning
    doc = minimal_doc()
    doc["chart"] = {"dim": 3, "coords": ["x", "y", "z"], "points": 4}
    doc["background"] = {"g": {"11": "1", "22": "1", "33": "1"},
                         "B0": {"12": "1e999*z", "23": "-1e999*x"}}
    with pytest.raises(SceneValidationError, match=r"non-finite scene field B0 -inf at component \[0, 1\]"):
        scene_from_dict(doc)


def test_a_potential_whose_exterior_derivative_overflows_is_rejected_at_load():
    # B0's 2-jet is finite, but H_123 = d_x B0_23 + d_z B0_12 = 2 * 1.7e308
    # overflows: the non-finite H is named, without a RuntimeWarning
    doc = minimal_doc()
    doc["chart"] = {"dim": 3, "coords": ["x", "y", "z"], "points": 4}
    doc["background"] = {"g": {"11": "1", "22": "1", "33": "1"},
                         "B0": {"12": "1.7e308*z", "23": "1.7e308*x"}}
    with pytest.raises(SceneValidationError, match=r"non-finite scene field H inf at component \[0, 1, 2\]"):
        scene_from_dict(doc)


def test_background_numbers_load():
    doc = minimal_doc()
    doc["background"].update(phi=0.5, g={"11": 2, "22": 1.5})
    bg = scene_from_dict(doc).background
    assert ex.evaluate(bg.phi, (0.1, 0.2)) == 0.5
    assert ex.evaluate(bg.g[0, 0], (0.1, 0.2)) == 2.0


def test_good_tolerances_load():
    doc = minimal_doc()
    doc["options"] = {"tolerances": {"sym": 1e-8, "fd": 1, "strict": 2.5e-11}}
    scene = scene_from_dict(doc)
    assert (scene.tol("sym"), scene.tol("fd"), scene.tol("strict")) == (1e-8, 1.0, 2.5e-11)


@pytest.mark.parametrize("document, override", [(0, None), (-3, None), (8, 0), (8, -1)],
                         ids=["document-zero", "document-negative", "override-zero",
                              "override-negative"])
def test_main_no_sample_points_is_an_input_error(tmp_path, capsys, document, override):
    doc = minimal_doc()
    doc["chart"]["points"] = document
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    argv = ["beta", str(path)] + ([] if override is None else ["--points", str(override)])
    assert main(argv) == 2
    assert "need at least one sample point" in capsys.readouterr().err


def test_points_override_of_one_runs(tmp_path):
    doc = minimal_doc()
    doc["chart"]["points"] = 0
    path = tmp_path / "points.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path), "--points", "1", "--out", str(tmp_path / "r.json")]) == 0


def test_simultaneous_vanishing_reports_the_worst_point():
    # poly2d is off-shell in both families; the symplectic residual is the
    # larger, and it peaks away from the first sample point
    scene = load_scene(SCENES / "poly2d.json")
    pts = scene.chart.sample_points()
    report = run_command("equivalence", scene)
    derived = streff.Derived(scene.background)
    (beta_max, beta_point), (symplectic_max, symplectic_point) = derived.beta_max, derived.symplectic_max
    assert (report.summary["beta_max_abs"], report.summary["symplectic_max_abs"]) == (beta_max,
                                                                                      symplectic_max)
    vanishing = {c.name: c for c in report.checks}["equivalence.simultaneous-vanishing"]
    assert symplectic_max > beta_max
    assert vanishing.worst_point == symplectic_point != pts[0]
    per_point = list(np.abs(streff.dual_fields(derived)).max(axis=0))
    assert symplectic_max == max(per_point)
    assert symplectic_point == pts[per_point.index(max(per_point))]
    assert beta_point in pts


def test_simultaneous_vanishing_fails_on_a_nan_family(monkeypatch):
    # beta on-shell and a NaN symplectic residual disagree: the check must
    # fail at the NaN's point, not read the small beta residual
    scene = load_scene(SCENES / "poly2d.json")
    pts = scene.chart.sample_points()
    monkeypatch.setattr(streff.Derived, "beta_max", property(lambda self: (1e-12, pts[2])))
    monkeypatch.setattr(streff.Derived, "symplectic_max", property(lambda self: (math.nan, pts[5])))
    report = run_command("equivalence", scene)
    assert report.summary["beta_on_shell"] and not report.summary["symplectic_on_shell"]
    vanishing = {c.name: c for c in report.checks}["equivalence.simultaneous-vanishing"]
    assert not vanishing.passed
    assert vanishing.worst_point == pts[5]


@pytest.mark.parametrize("option", ["--tol-sym", "--tol-fd"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
def test_main_bad_tolerance_override_is_an_input_error(capsys, option, value):
    # inf would pass every check whatever its residual; nan, 0 and -1 fail them all
    assert main(["central", str(SCENES / "poly2d.json"), option, value]) == 2
    err = capsys.readouterr().err
    assert "tolerance must be a finite positive number" in err and f"[{option}]" in err


def test_main_tolerance_overrides_apply(tmp_path):
    out = tmp_path / "r.json"
    argv = ["axioms", str(SCENES / "flat2d.json"), "--tol-sym", "1e-8", "--tol-fd", "1e-5"]
    assert main(argv + ["--out", str(out)]) == 0
    tolerances = {c["name"]: c["tolerance"] for c in json.loads(out.read_text())["checks"]}
    assert tolerances["axioms.derivative-fd-consistency"] == 1e-5
    assert tolerances["axioms.shear-intertwines-brackets"] == 1e-8


@pytest.mark.parametrize("key, value", [("points", 2.7), ("points", True), ("seed", 1.9),
                                        ("seed", False), ("dim", 2.5), ("dim", True),
                                        ("points", "2"), ("seed", None)])
def test_non_integer_chart_entries_rejected(key, value):
    # int() would sample 2 points for 2.7 and 1 for true, without a message
    doc = json.loads((SCENES / "flat2d.json").read_text())
    doc["chart"][key] = value
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(doc)
    assert f"[chart.{key}]" in str(err.value) and "expected an integer" in str(err.value)


@pytest.mark.parametrize("key, value", [("points", 2.7), ("points", True), ("seed", 1.9),
                                        ("seed", True)])
def test_non_integer_overrides_rejected(key, value):
    doc = json.loads((SCENES / "flat2d.json").read_text())
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(doc, **{key: value})
    assert f"[{key} override]" in str(err.value)


@pytest.mark.parametrize("domain, location",
                         [([[-1e308, 1e308], [-1, 1]], "chart"), ([[-math.inf, math.inf], [-1, 1]], "chart"),
                          ([[-1, 10**400], [-1, 1]], "chart"), ([True, "1"], "chart.domain"),
                          ([["-1", "1"], [-1, 1]], "chart.domain"), ([-1], "chart.domain"),
                          ([-1, 1, 5], "chart.domain")],
                         ids=["infinite-width", "infinite-bounds", "beyond-float-range",
                              "boolean-bound", "string-bounds", "one-bound", "three-bounds"])
def test_main_unbounded_domain_is_an_input_error(tmp_path, capsys, domain, location):
    # sample points at x = inf would let `beta` pass on flat2d; a boolean or
    # string bound would be read through float(); a lone bound would crash
    # the chart, and a third bound would be dropped
    doc = json.loads((SCENES / "flat2d.json").read_text())
    doc["chart"]["domain"] = domain
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    assert f"[{location}]" in capsys.readouterr().err


@pytest.mark.parametrize("domain", [0, False, [], {}, "", None],
                         ids=["zero", "false", "empty-list", "empty-object", "empty-string", "null"])
def test_main_falsy_domain_is_an_input_error(tmp_path, capsys, domain):
    # only a missing "domain" gives the default box
    doc = json.loads((SCENES / "flat2d.json").read_text())
    doc["chart"]["domain"] = domain
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    assert "[chart.domain]" in capsys.readouterr().err
    del doc["chart"]["domain"]
    assert scene_from_dict(doc).chart.domain == ((-1.0, 1.0),) * 2


def four_d_doc(points, seed=1, dim=4):
    """The document of ``make_scene.py --dim <dim> --seed <seed> --invertible-b``."""
    sys.path.insert(0, str(SCENES.parent / "scripts"))
    try:
        import make_scene
    finally:
        sys.path.pop(0)
    return make_scene.build(dim=dim, seed=seed, invertible_b=True, scale=0.25, points=points)


def four_d_scene(points, seed=1):
    """The scene of ``four_d_doc``."""
    return scene_from_dict(four_d_doc(points, seed))


@pytest.mark.parametrize("points", [1, 3])
def test_central_on_a_4d_scene(points):
    # the partials of the 4-D dilaton connection's coefficients, valued by
    # the tangent pass in the per-point walk (1 point) and the vector pass (3)
    report = run_command("central", four_d_scene(points))
    assert report.passed
    assert {c.name for c in report.checks} == {"central.off-block-identity",
                                               "central.scalar-identity"}
    assert all(c.max_abs_residual <= 1e-9 for c in report.checks)


def test_all_passes_on_a_6d_scene():
    # a 12-element generalized frame, coordinates x y z w u v; at 6-D the
    # random metric of seeds 1, 2, 4 and 5 is not positive definite
    report = run_command("all", scene_from_dict(four_d_doc(1, seed=3, dim=6)))
    assert report.passed and {c.name for c in report.checks} == ALL_CHECKS


def with_constant_b(doc, c):
    """The scene document with the constant c added to every B_ij, i < j:
    dB, so H' and every beta residual, is the same."""
    doc = json.loads(json.dumps(doc))
    n = doc["chart"]["dim"]
    B = doc["background"].setdefault("B", {})
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            key = f"{i}{j}"
            B[key] = f"({B[key]}) + {c}" if key in B else str(c)
    return doc


@pytest.mark.parametrize("size", [100, 1000])
@pytest.mark.parametrize("scene", ["poly3d", "4-D seed 3"])
def test_a_constant_b_moves_no_central_or_beta_residual(scene, size):
    # a constant 2-form is a symmetry of the dictionary: the central suite
    # reads it in the block picture, where B enters only through dB, so
    # a shift by 100 or 1000 adds no roundoff that grows with B
    doc = json.loads((SCENES / "poly3d.json").read_text()) if scene == "poly3d" else four_d_doc(2, seed=3)
    for command in ("central", "beta"):
        want = {c.name: c.max_abs_residual for c in run_command(command, scene_from_dict(doc)).checks}
        shifted = run_command(command, scene_from_dict(with_constant_b(doc, size)))
        got = {c.name: c.max_abs_residual for c in shifted.checks}
        assert got.keys() == want.keys()
        for name in want:
            assert abs(got[name] - want[name]) <= 1e-12, (name, got[name], want[name])


def large_constant_b_doc():
    """A flat 2-D scene with B12 = 1000: in 2-D every 2-form is closed, so
    no side of either identity family depends on B."""
    return {"schema_version": 1,
            "chart": {"dim": 2, "coords": ["x", "y"], "domain": [-0.5, 0.5], "seed": 3, "points": 3},
            "background": {"g": {"11": "1.0625", "22": "1"}, "B": {"12": "1000"},
                           "phi": "1 + exp(y^3)"}}


def test_all_passes_with_a_large_constant_b():
    report = run_command("all", scene_from_dict(large_constant_b_doc()))
    assert report.passed
    checks = {c.name: c.max_abs_residual for c in report.checks}
    assert max(checks["central.scalar-identity"], checks["central.off-block-identity"]) <= 1e-12


@pytest.mark.parametrize("domain", [[-1000, 1000], [999, 1001]])
def test_a_large_or_offset_domain_passes_axioms_and_curvature(domain):
    # g = delta, B12 = 1, phi = 0: every identity holds exactly and every
    # field is constant, so a large term could only come from the checks'
    # own random fields, which are drawn in the chart's unit coordinates
    doc = minimal_doc(chart={"dim": 2, "coords": ["x", "y"], "domain": domain, "seed": 0, "points": 12},
                      background={"g": {"11": "1", "22": "1"}, "B": {"12": "1"}, "phi": "0"})
    for command in ("axioms", "curvature"):
        report = run_command(command, scene_from_dict(doc))
        assert report.passed, [(c.name, c.max_abs_residual) for c in report.checks if not c.passed]


# every check name, as the benchmark's gate expects them of `all` on poly2d
ALL_CHECKS = set(json.loads((SCENES.parent / "perfbench" / "expected_checks.json").read_text())["suite-2d"])


def test_all_on_a_4d_scene_with_a_twist_on_the_image_of_theta():
    # dB(theta ., theta ., theta .) is nonzero here (dB = 0 on every 2-D
    # chart), so the twisted Koszul bracket, the Schouten residual and the
    # symplectic and equivalence suites read a twist; B is well conditioned
    # at these points, unlike on the seed-1 scene
    scene = four_d_scene(2, seed=3)
    pkg = streff.Derived(scene.background).symplectic
    th = pkg.theta[0].value
    twist = np.einsum("abcp,aip,bjp,ckp->ijkp", pkg.twist.value, th, th, th)
    assert ex.max_abs_on_points(twist, scene.chart.sample_points())[0] > 0.1
    report = run_command("all", scene)
    assert {c.name for c in report.checks} == ALL_CHECKS
    assert report.passed


def failed_axioms(scene):
    return {c.name for c in run_command("axioms", scene).checks if not c.passed}


def test_a_bracket_with_the_twist_sign_flipped_fails_the_shear_check(monkeypatch):
    # the axioms hold for -H' too; only the shear check ties the bracket to
    # the background's twist, and it needs dB != 0 where it reads it
    scene = four_d_scene(2, seed=3)
    assert failed_axioms(scene) == set()
    bracket = gtb.dorfman
    monkeypatch.setattr(gtb, "dorfman", lambda psi, phi, H: bracket(psi, phi, -H))
    assert "axioms.shear-intertwines-brackets" in failed_axioms(scene)


def test_a_theta_that_is_not_twisted_poisson_fails_the_twisted_jacobi_check(tmp_path, monkeypatch):
    # theta's first partials scaled by 1.01 (in the jet of theta and in the
    # jet of its partials): the cotangent algebroid is built all the same,
    # the twisted Jacobi check reports the Schouten residual, and `all`
    # writes its report of every check and exits 1
    exact = gtb.theta_from_b

    def mutant(*args):
        theta, dtheta = exact(*args)
        return (tn.Jet(theta.value, 1.01 * theta.partial),
                tn.Jet(1.01 * dtheta.value, dtheta.partial))

    monkeypatch.setattr(gtb, "theta_from_b", mutant)
    scene, out = tmp_path / "s4.json", tmp_path / "r4.json"
    scene.write_text(json.dumps(four_d_doc(2, seed=3)))
    assert main(["all", str(scene), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert report["verdict"] == "fail" and set(checks) == ALL_CHECKS
    jacobi = checks["symplectic.twisted-jacobi"]
    assert not jacobi["passed"] and jacobi["max_abs_residual"] == pytest.approx(1.033e-2, rel=1e-3)


def test_a_bracket_with_the_y_dx_sign_flipped_fails_the_anchor_morphism(monkeypatch):
    # [u, v] = X.dv - Y.du + ...: the mutant adds Y.du where it subtracts it
    scene = load_scene(SCENES / "poly2d.json")
    bracket = gtb.dorfman

    def mutant(psi, phi, H):
        (_, du), (v, _) = psi, phi
        return bracket(psi, phi, H) + 2.0 * tn.jet_contract("a,ca->c", v[:len(H)], du)

    monkeypatch.setattr(gtb, "dorfman", mutant)
    assert "axioms.anchor-morphism" in failed_axioms(scene)


@pytest.mark.parametrize("name", ["poly2d", "poly3d"])
def test_the_axioms_triples_on_the_point_axis_give_the_per_triple_residuals_bit_for_bit(name):
    # the suite brackets its three section triples (and the shear check its
    # three pairs) side by side on the point axis; the same formulas on one
    # triple at a time give the same bits at the scene's points
    scene = load_scene(SCENES / f"{name}.json")
    derived = streff.Derived(scene.background)
    got = {row_name: residual for row_name, _, _, residual in cli.checks_axioms(scene, derived)[0]}

    chart, H = scene.chart, derived.h_prime
    n, pts = chart.dim, chart.sample_points()
    gen = chart.rng(1009)
    sections = gtb.random_sections(chart, gen, 9)
    df = tn.random_polynomial_jets(chart, gen, (2,))[1][0]
    br = lambda a, b: gtb.dorfman(a, b, H)
    along = lambda X, w: np.einsum("mp,mp->p", X, w)
    triples = [sections[k:k + 3] for k in (0, 3, 6)]
    jac = [gtb.jacobiator(a, b, c, H) for a, b, c in triples]
    inv = [along(a.value[:n], gtb.pairing(b, c).partial)
           - gtb.pairing(br(a, b), c.value) - gtb.pairing(b.value, br(a, c))
           for (a, _), (b, _), (c, _) in triples]
    sym = [br(a, b) + br(b, a) - gtb.d_map(gtb.pairing(a, b).partial) for (a, _), (b, _), _ in triples]
    morph = []
    for (a, _), (b, _), _ in triples:
        X, Y = a[:n], b[:n]
        Yf, Xf = (tn.jet_contract("m,m->", V, df) for V in (Y, X))
        morph.append(along(br(a, b)[:n], df.value) - (along(X.value, Yf.partial) - along(Y.value, Xf.partial)))
    for check_name, each in (("leibniz-identity", jac), ("pairing-invariance", inv),
                             ("symmetric-part", sym), ("anchor-morphism", morph)):
        assert np.array_equal(got[f"axioms.{check_name}"], np.stack(each), equal_nan=True), check_name

    B, Hj = derived.jets.B[0], derived.jets.H
    pairs = [u for u, _ in gtb.random_sections(chart, chart.rng(101), 6)]
    shear = [ex.max_abs_on_points(gtb.b_twist(gtb.dorfman(psi, phi, H), B)
                                  - gtb.dorfman(gtb.b_twist(psi, B), gtb.b_twist(phi, B), Hj), pts)
             for psi, phi in zip(pairs[0::2], pairs[1::2])]
    assert got["axioms.shear-intertwines-brackets"] == ex.worst_of(shear)


# ---------------------------------------------------------------------------
# the derived-quantity context
# ---------------------------------------------------------------------------


BUILDERS = ((rm, "christoffel"), (tn, "jet_inverse"), (tn, "check_antisymmetric"),
            (streff, "beta_all"), (gconn, "dilaton_connection"), (gconn, "standard_algebroid"),
            (gtb, "theta_twist_matrices"), (gconn, "param_tensor_frame"), (gconn, "gen_riemann"))


def builder_calls(monkeypatch, cmd, scene):
    """How often ``run_command`` calls each builder of BUILDERS."""
    calls = dict.fromkeys((name for _, name in BUILDERS), 0)
    for module, name in BUILDERS:
        def spy(*args, _name=name, _builder=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _builder(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    run_command(cmd, scene)
    return calls


def test_all_builds_each_derived_quantity_once(monkeypatch):
    # g and B are inverted once each, and the fiber metric G^{-1} of the
    # cotangent algebroid not at all: its inverse G is built directly; H' is
    # checked antisymmetric once, and theta once, by the
    # symplectic.twisted-jacobi check.  The standard bracket is built once,
    # for H' (the block transport, which the minimal and the dilaton
    # connection reuse: central and equivalence read them in that block
    # picture, with no shear by e^B), and e^{-B} o F_theta once.  The
    # deformation tensor K is built once for the random parameter pair of
    # the curvature suite (its family connection and its trace identity
    # both read it) and once for the dilaton parameters.  The full
    # curvature tensor is built twice, for the curvature suite's symmetries
    # of the minimal connection and its torsionful Bianchi check of the
    # block transport: every Ricci tensor is traced term by term.
    calls = builder_calls(monkeypatch, "all", load_scene(SCENES / "poly2d.json"))
    assert calls == {"christoffel": 1, "jet_inverse": 2, "check_antisymmetric": 2,
                     "beta_all": 1, "dilaton_connection": 1, "standard_algebroid": 1,
                     "theta_twist_matrices": 1, "param_tensor_frame": 2, "gen_riemann": 2}


def test_central_on_a_4d_scene_builds_each_derived_quantity_once(monkeypatch):
    # central reads the dilaton connection's Ricci tensor, not its curvature
    calls = builder_calls(monkeypatch, "central", four_d_scene(1))
    assert calls == {"christoffel": 1, "jet_inverse": 1, "check_antisymmetric": 1,
                     "beta_all": 1, "dilaton_connection": 1, "standard_algebroid": 1,
                     "theta_twist_matrices": 0, "param_tensor_frame": 1, "gen_riemann": 0}


SUITE_FUNCTIONS = ("checks_axioms", "checks_torsion", "checks_curvature", "checks_beta",
                   "checks_central", "checks_symplectic", "checks_equivalence")


@pytest.mark.parametrize("scene_file", ["poly2d.json", "poly3d.json"])
def test_a_fresh_context_per_suite_leaves_the_report_unchanged(monkeypatch, scene_file):
    # the suites of `all` read one shared context; each suite reading its
    # own, built afresh, must give the same report bit for bit
    shared = run_command("all", load_scene(SCENES / scene_file)).to_dict()
    fresh_contexts = []
    for name in SUITE_FUNCTIONS:
        def fresh(scene, derived, _suite=getattr(cli, name)):
            fresh_contexts.append(streff.Derived(scene.background))
            assert fresh_contexts[-1] is not derived
            return _suite(scene, fresh_contexts[-1])
        monkeypatch.setattr(cli, name, fresh)
        suite = name.removeprefix("checks_")
        if suite in cli.SUITES:
            monkeypatch.setitem(cli.SUITES, suite, fresh)
    separate = run_command("all", load_scene(SCENES / scene_file)).to_dict()
    # on the odd chart the symplectic suite is called and raises before it
    # builds anything, and the equivalence suite is skipped without a call
    assert len(fresh_contexts) == (7 if scene_file == "poly2d.json" else 6)
    shared.pop("timing_seconds")
    separate.pop("timing_seconds")
    assert json.dumps(shared, sort_keys=True) == json.dumps(separate, sort_keys=True)


@pytest.mark.parametrize("command", ["all", "axioms", "beta", "central", "symplectic"])
@pytest.mark.parametrize(
    "g, message",
    [
        ({"11": "1", "22": "-1"}, "error: metric not positive definite at sample point "
                                  "(0.7666216164272854, -0.13694400590297995) [background]"),
        ({"11": "1e-6", "22": "1e-6"}, "error: |det| < 1e-10 at sample point "
                                       "(0.7666216164272854, -0.13694400590297995) [background]"),
    ],
    ids=["not-positive-definite", "singular"],
)
def test_main_invalid_metric_is_an_input_error(tmp_path, capsys, command, g, message):
    # caught when the scene loads, before any command runs
    doc = minimal_doc()
    doc["background"].update(g=g, B={"12": "1"})
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.strip() == message


def test_all_on_an_odd_chart_reports_why_symplectic_is_skipped():
    report = run_command("all", load_scene(SCENES / "poly3d.json"))
    assert report.summary["symplectic_skipped"] == (
        "symplectic checks need an even-dimensional chart (B is singular)")


def test_all_on_a_chart_with_a_singular_b_skips_symplectic_and_equivalence(monkeypatch, capsys):
    # B = 0 on flat2d: `all` records why and builds theta once, in the
    # symplectic suite; the equivalence suite is skipped without a second try
    path = SCENES / "flat2d.json"
    pts = load_scene(path).chart.sample_points()
    message = f"symplectic checks need an invertible B: B degenerate at sample point {pts[0]}"
    calls = []
    theta_from_b = gtb.theta_from_b
    monkeypatch.setattr(gtb, "theta_from_b", lambda *args: calls.append(args) or theta_from_b(*args))
    report = run_command("all", load_scene(path))
    assert report.summary["symplectic_skipped"] == message and len(calls) == 1
    assert not any(c.name.startswith(("symplectic.", "equivalence.")) for c in report.checks)
    for command in ("symplectic", "equivalence"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_each_suite_returns_unique_names_under_its_prefix():
    scene = load_scene(SCENES / "poly2d.json")
    derived = streff.Derived(scene.background)
    names = []
    for suite, checks in cli.SUITES.items():
        rows, _ = checks(scene, derived)
        assert all(row[0].startswith(f"{suite}.") for row in rows), suite
        names += [row[0] for row in rows]
    assert len(names) == len(set(names)) and set(names) == ALL_CHECKS


def test_all_on_a_1d_chart_skips_central_and_symplectic(tmp_path, capsys):
    # the dilaton trace condition needs a chart of dimension > 1, and B is
    # singular on an odd chart: `all` runs the four other suites, records
    # both reasons and exits 0, while a lone `central` is an input error
    doc = minimal_doc(chart={"dim": 1, "coords": ["x"], "domain": [-1, 1], "seed": 0, "points": 3})
    doc["background"] = {"g": {"11": "1 + x^2/4"}, "phi": "x/3"}
    path, out = tmp_path / "d1.json", tmp_path / "r1.json"
    path.write_text(json.dumps(doc))
    assert main(["all", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {c["name"] for c in report["checks"]} == {
        name for name in ALL_CHECKS if name.split(".")[0] in ("axioms", "torsion", "curvature", "beta")}
    assert report["summary"]["central_skipped"] == (
        "the dilaton trace condition needs a chart of dimension > 1")
    assert report["summary"]["symplectic_skipped"] == (
        "symplectic checks need an even-dimensional chart (B is singular)")
    capsys.readouterr()
    assert main(["central", str(path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: the dilaton trace condition needs a chart of dimension > 1")


def test_all_on_a_scene_of_every_function(tmp_path):
    # sin, cos, exp, ln and sqrt in g, B and phi: each is parsed,
    # differentiated twice and valued at load, and every check passes
    doc = minimal_doc(chart={"dim": 2, "coords": ["x", "y"], "domain": [-1, 1], "seed": 4, "points": 9})
    doc["background"] = {"g": {"11": "1 + sin(x)^2/4", "12": "cos(x*y)/8", "22": "exp(y/5)"},
                         "B": {"12": "1 + sqrt(2 + x)/4 - ln(3 + y)/8"},
                         "phi": "exp(x/4)*cos(y) + ln(2 + x*y)"}
    path, out = tmp_path / "functions.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    bg = load_scene(path).background
    names, stack = set(), [bg.phi, *bg.g.ravel(), *bg.B.ravel()]
    while stack:
        e = stack.pop()
        if type(e) is ex.Func:
            names.add(e.name)
        stack.extend(e.children())
    assert names == {"sin", "cos", "exp", "ln", "sqrt"}
    assert main(["all", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert {c["name"] for c in report["checks"]} == ALL_CHECKS
    assert report["verdict"] == "pass"
