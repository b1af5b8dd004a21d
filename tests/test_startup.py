"""Start-up builds only what it keeps.

Importing the package and loading a scene build objects that live for the
whole run, so neither runs the cyclic collector, and each freezes what it
built when it succeeds.  The collector is left enabled or disabled as it
was after every step, a load that raises included.  The record classes are
plain classes: a NamedTuple or a dataclass builds its methods from
generated code in every process that imports the package.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gencourant

from test_node_budget import generated_scene

ROOT = Path(__file__).resolve().parent.parent

# Run in a fresh interpreter: imports the package, loads poly2d, a generated
# 4-D scene and a malformed scene, and prints, per step, the collections
# started during it, the collector's state before and after, whether the
# freeze count grew and what the step raised.
STEPS = r"""
import gc, json, sys

started = []
gc.callbacks.append(lambda phase, info: phase == "start" and started.append(info))
if sys.argv[1] == "disabled":
    gc.disable()
steps = {}


def step(name, run):
    before, frozen, enabled = len(started), gc.get_freeze_count(), gc.isenabled()
    try:
        run()
        raised = None
    except Exception as err:
        raised = type(err).__name__
    steps[name] = {"collections": len(started) - before, "enabled_before": enabled,
                   "enabled_after": gc.isenabled(), "frozen_grew": gc.get_freeze_count() > frozen,
                   "raised": raised}


step("import", lambda: __import__("gencourant"))
from gencourant.scene import load_scene

for name, path in zip(("poly2d", "four_d", "malformed"), sys.argv[2:]):
    step(name, lambda: load_scene(path))
print(json.dumps(steps))
"""


@pytest.mark.parametrize("collector", ["enabled", "disabled"])
def test_import_and_load_collect_nothing_and_restore_the_collector(tmp_path, collector):
    four_d, malformed = tmp_path / "four_d.json", tmp_path / "malformed.json"
    four_d.write_text(json.dumps(generated_scene(seed=1, points=2)))
    doc = json.loads((ROOT / "scenes" / "poly2d.json").read_text())
    doc["background"]["psi"] = "x"
    malformed.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", STEPS, collector, str(ROOT / "scenes" / "poly2d.json"),
                          str(four_d), str(malformed)],
                         capture_output=True, text=True, env=env, check=True).stdout
    steps = json.loads(out)
    assert list(steps) == ["import", "poly2d", "four_d", "malformed"]
    enabled = collector == "enabled"
    for name, seen in steps.items():
        assert seen["collections"] == 0, name
        assert seen["enabled_before"] is enabled and seen["enabled_after"] is enabled, name
        # only what succeeds freezes what it built
        failed = name == "malformed"
        assert seen["raised"] == ("SceneValidationError" if failed else None), name
        assert seen["frozen_grew"] is not failed, name


def test_no_record_class_is_built_from_generated_code():
    generated = []
    for info in pkgutil.iter_modules(gencourant.__path__, "gencourant."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                if issubclass(obj, tuple) and hasattr(obj, "_fields") \
                        or hasattr(obj, "__dataclass_fields__"):
                    generated.append(f"{module.__name__}.{name}")
    assert generated == []
