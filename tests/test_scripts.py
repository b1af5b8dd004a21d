"""The scripts under scripts/ run end to end."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from gencourant.scene import scene_from_dict

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_make_scene_writes_a_loadable_scene():
    doc = json.loads(run_script("make_scene.py", "--dim", "2", "--seed", "5", "--invertible-b"))
    scene = scene_from_dict(doc)
    assert scene.chart.dim == 2 and scene.chart.seed == 5
    assert "options" not in doc  # the ignored "policy" option is no longer written


def test_importing_make_scene_leaves_sys_path_unchanged():
    # a benchmark that imports the generator of one checkout must keep
    # importing the package it chose, not the generator's own
    before = list(sys.path)
    spec = importlib.util.spec_from_file_location("make_scene_probe", SCRIPTS / "make_scene.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        assert sys.path == before
    finally:
        sys.path[:] = before
    assert module.build(dim=2, seed=5, invertible_b=True, scale=0.25, points=2)["chart"]["seed"] == 5


def test_residual_survey_identities_vanish():
    lines = run_script("residual_survey.py", "--dim", "2", "--seeds", "1", "--invertible-b").splitlines()
    header = [c.strip() for c in lines[0].split("  ") if c.strip()]
    row = dict(zip(header, lines[1].split()))
    identities = [name for name in header if name.startswith("identity:")]
    assert len(identities) == 3
    assert all(float(row[name]) <= 1e-9 for name in identities)
