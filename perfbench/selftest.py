#!/usr/bin/env python3
"""Self-tests of the benchmark itself (about one minute on two cores).

    python3 perfbench/selftest.py

- the correctness gate rejects a failed check, a non-finite residual, a
  missing check and a changed report, and ignores ``timing_seconds``;
- the gate rejects a real ``central-4d`` sample in which evaluation returns
  NaN, although the program reports it as passing;
- two traced samples give exactly the same counts;
- the per-module self times add up to the traced wall time;
- the reference loop of ``hostspeed.py`` records chunks, scales a short
  window by widening it, and has ended once stopped;
- a non-default seed passes the gate on every workload.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import hostspeed
import run
from tracer import EXACT, LAYERS

FAILURES = []


def check(condition: bool, message: str):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def _report(residual=1e-15, passed=True, timing=0.5, drop_check=False):
    checks = [{"identity": "i", "max_abs_residual": residual, "name": "central.scalar-identity",
               "passed": passed, "tolerance": 1e-9, "worst_point": [0.1]},
              {"identity": "i", "max_abs_residual": 0.0, "name": "central.off-block-identity",
               "passed": True, "tolerance": 1e-9, "worst_point": [0.1]}]
    if drop_check:
        checks.pop()
    doc = {"checks": checks, "command": "central", "num_points": 1, "scene": "s",
           "schema_version": 1, "seed": 1, "summary": {}, "timing_seconds": timing,
           "verdict": "pass" if passed else "fail"}
    return {"report": json.dumps(doc, indent=2, sort_keys=True), "evaluated": 10, "nonfinite": 0}


def test_gate():
    expected = run.expected_checks("central-4d")
    good = _report()
    check(run.gate(good, expected, None) == [], "gate accepts a passing report")
    check(run.gate(_report(timing=9.0), expected, good["report"]) == [],
          "gate ignores timing_seconds")
    failed = run.gate(_report(residual=1e-3, passed=False), expected, None)
    check(any("failed" in p for p in failed) and any("verdict" in p for p in failed),
          f"gate rejects a failed check: {failed}")
    nan = run.gate(_report(residual=math.nan), expected, None)
    check(any("not finite" in p for p in nan), f"gate rejects a NaN residual: {nan}")
    missing = run.gate(_report(drop_check=True), expected, None)
    check(any("check names" in p for p in missing), f"gate rejects a missing check: {missing}")
    changed = run.gate(_report(residual=2e-15), expected, good["report"])
    check(any("differs" in p for p in changed), f"gate rejects a changed report: {changed}")
    unchecked = run.gate(dict(good, evaluated=0), expected, None)
    check(any("finiteness check" in p for p in unchecked),
          f"gate rejects a sample whose values were not checked: {unchecked}")


# Runs sample.py as __main__ after making every Add node evaluate to NaN
# while cli.run_command runs (the scene still loads normally).
NAN_SAMPLE = """
import math, runpy, sys
sample, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
from gencourant import cli, expr
run_command, eval_node = cli.run_command, expr._eval_node

def nan_add(e, point, memo):
    return math.nan if isinstance(e, expr.Add) else eval_node(e, point, memo)

def nan_run_command(*args, **kwargs):
    expr._eval_node = nan_add
    return run_command(*args, **kwargs)

cli.run_command = nan_run_command
sys.argv = [sample] + sys.argv[3:]
runpy.run_path(sample, run_name="__main__")
"""


def test_nan_sample():
    run.check_checkout()
    path, _, _, _ = run.prepare_inputs("central-4d", None)
    try:
        args = [sys.executable, "-c", NAN_SAMPLE, str(run.SAMPLE), str(run.ROOT / "src"),
                str(run.ROOT), path, "central"]
        proc = subprocess.run(args, capture_output=True, text=True, cwd=run.ROOT, timeout=170,
                              env=dict(os.environ, **run.SINGLE_THREAD))
    finally:
        os.unlink(path)
    check(proc.returncode == 0, f"NaN sample exits 0: {proc.stderr[-500:]}")
    if proc.returncode != 0:
        return
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    verdict = json.loads(out["report"])["verdict"]
    print(f"  NaN sample: report verdict {verdict!r}, {out['nonfinite']} of "
          f"{out['evaluated']} evaluated values not finite")
    problems = run.gate(out, run.expected_checks("central-4d"), None)
    check(any("evaluated values are not finite" in p for p in problems),
          f"gate rejects a sample whose evaluation returns NaN: {problems}")


def _traced_sample():
    args = [sys.executable, str(run.SAMPLE), str(run.ROOT), str(run.ROOT / "scenes" / "poly2d.json"),
            "all", "--trace"]
    proc = subprocess.run(args, capture_output=True, text=True, env=dict(os.environ, **run.SINGLE_THREAD),
                          cwd=run.ROOT, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_trace():
    first, second = _traced_sample(), _traced_sample()
    for key in EXACT:
        check(first["layers"][key] == second["layers"][key],
              f"{key} repeats: {first['layers'][key]} vs {second['layers'][key]}")
    check(first["layers"]["expr.eval.node_points"] > first["layers"]["expr.dag.nodes"] > 0,
          "node counts are taken")
    for sample in (first, second):
        self_total = sum(sample["layers"][f"{layer}.self_s"] for layer in LAYERS)
        wall = sample["traced_wall_s"]
        check(abs(self_total - wall) <= 0.03 * wall,
              f"self times add up to the traced wall time: {self_total:.4f} vs {wall:.4f}")


def test_reference():
    run.WORK.mkdir(exist_ok=True)
    reference = hostspeed.Reference(run.WORK / f"selftest-{os.getpid()}.txt")
    time.sleep(1.0)
    reference.stop()
    check(reference.proc.returncode is not None, "reference loop has ended")
    chunks = reference.chunks
    check(len(chunks) > 10, f"reference loop recorded chunks: {len(chunks)}")
    if len(chunks) < 2:
        return
    mean = sum(cpu for _, cpu in chunks) / len(chunks)
    whole = reference.scale(chunks[0][0], chunks[-1][0])
    check(math.isclose(whole, hostspeed.REFERENCE_CHUNK_S / mean),
          f"scale over all chunks is the reference over their mean: {whole}")
    middle = chunks[len(chunks) // 2][0]
    check(reference.scale(middle, middle) > 0, "a window shorter than a chunk is widened")
    try:
        reference.scale(middle + 10.0, middle + 20.0)
        check(False, "a window without chunks is an error")
    except ValueError:
        pass


def test_other_seed():
    for workload, seed in (("suite-2d", 8), ("central-4d", 2)):
        start = time.monotonic()
        args = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(args, capture_output=True, text=True, cwd=run.ROOT, timeout=180)
        check(proc.returncode == 0, f"{workload} seed {seed} exits 0: {proc.stderr[-500:]}")
        if proc.returncode == 0:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} seed {seed} passes the gate: {proc.stdout[-1000:]}")
        print(f"  {workload} seed {seed}: {time.monotonic() - start:.1f} s")


def main() -> int:
    for test in (test_gate, test_nan_sample, test_trace, test_reference, test_other_seed):
        before = len(FAILURES)
        test()
        print(f"{'ok  ' if len(FAILURES) == before else 'FAIL'} {test.__name__}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
