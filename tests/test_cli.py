"""Scene loading, command dispatch, reports, exit codes."""

import contextlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    assert scene.background.H.max_abs()[0] == 2.0
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


def test_evaluation_scopes_leave_the_report_unchanged(monkeypatch):
    scene = load_scene(SCENES / "poly2d.json")
    scoped = run_command("all", scene).to_dict()
    monkeypatch.setattr(ex, "evaluation_scope", contextlib.nullcontext)
    unscoped = run_command("all", load_scene(SCENES / "poly2d.json")).to_dict()
    scoped.pop("timing_seconds")
    unscoped.pop("timing_seconds")
    assert json.dumps(scoped, sort_keys=True) == json.dumps(unscoped, sort_keys=True)


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
        # the literal reads as inf; cos(inf) is the first infinite argument met
        ("sin(1e999*x)", "infinite value in subexpression 'cos(inf*x)'"),
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
    # of the Gram matrix, with g^{-1}.  With B moved to the (vector, form)
    # corner of the shear, that block gains B^T g B.
    exact = gtb.GeneralizedMetric.shear_matrix

    def misplaced(self, sign):
        n = self.chart.dim
        m = exact(self, sign)
        m[n:, :n], m[:n, n:] = m[:n, n:].copy(), m[n:, :n].copy()
        return m

    monkeypatch.setattr(gtb.GeneralizedMetric, "shear_matrix", misplaced)
    scene = load_scene(SCENES / "poly2d.json")
    checks = {c.name: c for c in run_command("axioms", scene).checks}
    assert not checks["axioms.induced-form"].passed


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


def test_background_numbers_load():
    doc = minimal_doc()
    doc["background"].update(phi=0.5, g={"11": 2, "22": 1.5})
    bg = scene_from_dict(doc).background
    assert ex.evaluate(bg.phi, (0.1, 0.2)) == 0.5
    assert ex.evaluate(bg.g.comps[0, 0], (0.1, 0.2)) == 2.0


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
    derived = streff.Derived(scene.background)
    checks, summary = cli.checks_equivalence(scene, derived)
    rep = streff.equivalence_report(derived)
    assert (summary["beta_max_abs"], summary["symplectic_max_abs"]) == (rep.beta_max,
                                                                        rep.symplectic_max)
    vanishing = {c.name: c for c in checks}["equivalence.simultaneous-vanishing"]
    assert rep.symplectic_max > rep.beta_max
    assert vanishing.worst_point == rep.symplectic_point != pts[0]
    per_point = list(np.abs(streff.dual_fields(derived)).max(axis=0))
    assert rep.symplectic_max == max(per_point)
    assert rep.symplectic_point == pts[per_point.index(max(per_point))]
    assert rep.beta_point in pts


def test_simultaneous_vanishing_fails_on_a_nan_family(monkeypatch):
    # beta on-shell and a NaN symplectic residual disagree: the check must
    # fail at the NaN's point, not read the small beta residual
    scene = load_scene(SCENES / "poly2d.json")
    pts = scene.chart.sample_points()
    report = streff.EquivalenceReport(1e-12, pts[2], math.nan, pts[5], True, False, "")
    monkeypatch.setattr(streff, "equivalence_report", lambda *args: report)
    checks, _ = cli.checks_equivalence(scene, streff.Derived(scene.background))
    vanishing = {c.name: c for c in checks}["equivalence.simultaneous-vanishing"]
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


@pytest.mark.parametrize("domain", [[[-1e308, 1e308], [-1, 1]], [[-math.inf, math.inf], [-1, 1]],
                                    [[-1, 10**400], [-1, 1]]],
                         ids=["infinite-width", "infinite-bounds", "beyond-float-range"])
def test_main_unbounded_domain_is_an_input_error(tmp_path, capsys, domain):
    # sample points at x = inf would let `beta` pass on flat2d
    doc = json.loads((SCENES / "flat2d.json").read_text())
    doc["chart"]["domain"] = domain
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    assert main(["beta", str(path)]) == 2
    assert "[chart]" in capsys.readouterr().err


def four_d_scene(points):
    """The scene of ``make_scene.py --dim 4 --seed 1 --invertible-b``."""
    sys.path.insert(0, str(SCENES.parent / "scripts"))
    try:
        import make_scene
    finally:
        sys.path.pop(0)
    return scene_from_dict(make_scene.build(dim=4, seed=1, invertible_b=True, scale=0.25,
                                            points=points))


@pytest.mark.parametrize("points", [1, 3])
def test_central_on_a_4d_scene(points):
    # the partials of the 4-D dilaton connection's coefficients, valued by
    # the tangent pass in the per-point walk (1 point) and the vector pass (3)
    report = run_command("central", four_d_scene(points))
    assert report.passed
    assert {c.name for c in report.checks} == {"central.off-block-identity",
                                               "central.scalar-identity"}
    assert all(c.max_abs_residual <= 1e-9 for c in report.checks)


# ---------------------------------------------------------------------------
# the derived-quantity context
# ---------------------------------------------------------------------------


BUILDERS = ((rm, "christoffel"), (tn, "metric_inverse"), (tn, "check_antisymmetric"),
            (streff, "beta_all"), (gconn, "dilaton_connection"))


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
    # g and G = -B g^{-1} B are inverted once each; H' is checked once, and
    # theta twice (when the cotangent algebroid is built, and by the
    # symplectic.twisted-jacobi check)
    calls = builder_calls(monkeypatch, "all", load_scene(SCENES / "poly2d.json"))
    assert calls == {"christoffel": 1, "metric_inverse": 2, "check_antisymmetric": 3,
                     "beta_all": 1, "dilaton_connection": 1}


def test_central_on_a_4d_scene_builds_each_derived_quantity_once(monkeypatch):
    calls = builder_calls(monkeypatch, "central", four_d_scene(1))
    assert calls == {"christoffel": 1, "metric_inverse": 1, "check_antisymmetric": 1,
                     "beta_all": 1, "dilaton_connection": 1}


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
    assert len(fresh_contexts) == (7 if scene_file == "poly2d.json" else 5)
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
                                       "(0.7666216164272854, -0.13694400590297995)"),
    ],
    ids=["not-positive-definite", "singular"],
)
def test_main_invalid_metric_is_an_input_error(tmp_path, capsys, command, g, message):
    # caught when the scene loads, or when the context first inverts g
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
