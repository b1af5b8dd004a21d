#!/usr/bin/env python3
"""Time-to-verdict benchmark for gencourant.

    python3 perfbench/run.py --workload suite-2d --seed 7 --seconds 58 --trace 0

Run from the root of a source checkout.  Each sample is a fresh,
single-threaded process that imports ``gencourant`` from ``src/``, loads the
workload's scene and runs ``cli.run_command`` on it (see ``sample.py``).  The
run keeps starting samples while the next one is expected to finish within
``--seconds`` (at least one always runs), checks every report with the
correctness gate, and prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run is pinned to one core, where ``hostspeed.py`` runs a low-priority
reference loop.  With ``--trace 0`` the metrics are the end-to-end ones:
medians over the run's samples, each time being the sample's CPU seconds
scaled to the reference speed of the core.  With ``--trace 1`` the run
alternates untraced and traced samples and reports the per-layer metrics of
``tracer.py``: layer times in wall seconds, and ``trace.overhead_s`` from
times scaled as above.  The program is measured as it stands: nothing under
``src/``, ``scenes/`` or ``scripts/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from hostspeed import Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLE = HERE / "sample.py"
WORK = HERE / ".work"

# A run must end within this many seconds of its start, whatever happens.
HARD_LIMIT_S = 170.0
# Extra set-up-only processes per untraced run, so setup_s is a median.
SETUP_REPEATS = 6

SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    command: str
    scene: str | None        # checked-in scene, or None for the generated 4-D scene
    default_seed: int | None  # None: the scene file's own chart seed


WORKLOADS = {
    # Only workload with the symplectic and equivalence suites; most
    # repeated builders (christoffel 21x, metric_inverse 68x): build-once
    # memoisation shows here.  Evaluation is most of its time (1.63x
    # re-evaluation of node-points), so a vectorised, cached evaluator
    # shows here too.
    "suite-2d": Workload("all", "scenes/poly2d.json", None),
    # Symbolic build and differentiation dominate (gen_riemann builds all
    # 4096 entries, largest DAG): hash-consing and direct Ricci show here.
    # One sample point, so a per-node fixed cost of an evaluator shows too.
    "central-4d": Workload("central", None, 1),
}

END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _canonical_hash(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def _load_make_scene():
    path = ROOT / "scripts" / "make_scene.py"
    spec = importlib.util.spec_from_file_location("make_scene", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def generated_scene(seed: int):
    """The 4-D scene of ``make_scene.build`` for ``seed``.  A document the
    program rejects as invalid input (the random metric is not positive
    definite at the sample point, about one seed in 300) is replaced by the
    next seed's, so every seed gives a scene on which the checks run."""
    make_scene = _load_make_scene()
    from gencourant.scene import SceneValidationError, scene_from_dict

    for scene_seed in range(seed, seed + 100):
        doc = make_scene.build(dim=4, seed=scene_seed, invertible_b=True, scale=0.25, points=1)
        try:
            scene_from_dict(doc)
        except SceneValidationError:
            continue
        return doc, scene_seed
    raise BenchError(f"no valid 4-D scene for seeds {seed}..{seed + 99}")


def prepare_inputs(name: str, seed: int | None):
    """Returns (scene path, chart seed override, scene document as run,
    input record) for a run."""
    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    if workload.scene is not None:
        path = ROOT / workload.scene
        doc = json.loads(path.read_text())
        if seed is not None:
            doc["chart"]["seed"] = seed
        record = {"workload": name, "seed": doc["chart"]["seed"], "scene": workload.scene}
        return str(path), seed, doc, record
    doc, scene_seed = generated_scene(seed)
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{name}-{os.getpid()}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    record = {"workload": name, "seed": seed, "scene": "make_scene.build(dim=4)",
              "scene_seed": scene_seed}
    return str(path), None, doc, record


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def expected_checks(name: str) -> set:
    return set(json.loads((HERE / "expected_checks.json").read_text())[name])


_TIMING = re.compile(r'"timing_seconds": [^,\n]*')


def without_timing(text: str) -> str:
    return _TIMING.sub('"timing_seconds": null', text)


def gate(out: dict, expected: set, reference: str | None) -> list:
    """Reasons the sample output ``out`` fails the gate (empty if it
    passes): every value that evaluation returned is finite, the verdict is
    pass, every residual is finite, the check names are the expected set,
    and the report equals ``reference`` apart from ``timing_seconds``."""
    problems = []
    if out["nonfinite"]:
        problems.append(f"{out['nonfinite']} of {out['evaluated']} evaluated values are not finite")
    if not out["evaluated"]:
        problems.append("no evaluated value reached the finiteness check")
    text = out["report"]
    try:
        report = json.loads(text)
    except ValueError as err:
        return problems + [f"report is not JSON: {err}"]
    if report.get("verdict") != "pass":
        problems.append(f"verdict is {report.get('verdict')!r}")
    checks = report.get("checks", [])
    for check in checks:
        value = check.get("max_abs_residual")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{check.get('name')}: residual {value!r} is not finite")
        elif not check.get("passed"):
            problems.append(f"{check.get('name')}: failed ({value:.3e})")
    names = {check.get("name") for check in checks}
    if len(names) != len(checks) or names != expected:
        problems.append(f"check names differ: missing {sorted(expected - names)}, "
                        f"unexpected {sorted(names - expected)}, {len(checks)} checks")
    if reference is not None and without_timing(text) != without_timing(reference):
        problems.append("report differs from the run's first report")
    return problems


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------


def run_sample(path, command, seed, mode, deadline):
    """One sample process; returns (parsed output or None, wall seconds)."""
    args = [sys.executable, str(SAMPLE), str(ROOT), path, command]
    if seed is not None:
        args += ["--seed", str(seed)]
    if mode:
        args.append(f"--{mode}")
    env = dict(os.environ, **SINGLE_THREAD)
    start = time.perf_counter()
    try:
        proc = subprocess.run(args, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"sample timed out: {' '.join(args[1:])}", file=sys.stderr)
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        print(f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None, wall
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall
    except (ValueError, IndexError):
        print(f"sample printed no result: {proc.stdout[-500:]}", file=sys.stderr)
        return None, wall


class Run:
    """Samples of one run, with the gate applied to each."""

    def __init__(self, name, seconds, path, seed):
        self.workload = WORKLOADS[name]
        self.expected = expected_checks(name)
        self.path = path
        self.seed = seed
        self.start = time.monotonic()
        self.stop = self.start + seconds
        self.hard_stop = self.start + HARD_LIMIT_S
        self.reference = None
        self.points = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def sample(self, mode=None):
        out, wall = run_sample(self.path, self.workload.command, self.seed, mode, self.hard_stop)
        if mode == "setup-only":
            if out is None:
                raise BenchError("set-up of the program failed")
            return out, wall
        self.attempted += 1
        problems = ["sample process failed"] if out is None else self._check(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None, wall
        return out, wall

    def _check_points(self, out):
        if self.points is None:
            self.points = out["points_sha256"]
        return [] if out["points_sha256"] == self.points else ["sample points differ"]

    def _check(self, out):
        problems = gate(out, self.expected, self.reference)
        if self.reference is None and not problems:
            self.reference = out["report"]
        return problems + self._check_points(out)

    def time_for(self, seconds) -> bool:
        """Whether another step of ``seconds`` fits before the run's end."""
        return time.monotonic() + seconds <= min(self.stop, self.hard_stop - 5.0)


def pin_to_one_core() -> None:
    """Pins this process, and so every process it starts, to one core, so
    that the reference loop measures the core the samples run on."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def beside_reference(collect) -> Reference:
    """Runs ``collect()`` on one core beside the reference loop of
    ``hostspeed.py`` and returns the stopped loop."""
    pin_to_one_core()
    WORK.mkdir(exist_ok=True)
    reference = Reference(WORK / f"hostspeed-{os.getpid()}.txt")
    try:
        collect()
    finally:
        reference.stop()
    return reference


def scaled(reference: Reference, out: dict, phase: str) -> float:
    """CPU seconds of a sample's ``phase`` at the reference speed."""
    try:
        return out[f"{phase}_cpu_s"] * reference.scale(*out[f"{phase}_window"])
    except ValueError as err:
        raise BenchError(f"reference loop: {err}") from None


def measure(run: Run) -> tuple[dict, dict]:
    setups, samples, walls = [], [], []

    def collect():
        for _ in range(SETUP_REPEATS):
            setups.append(run.sample("setup-only")[0])
        while not walls or run.time_for(statistics.median(walls)):
            out, wall = run.sample()
            walls.append(wall)
            if out is not None:
                samples.append(out)

    reference = beside_reference(collect)
    if not samples:
        raise BenchError("no sample finished: " + "; ".join(run.problems[:5]))
    verdict_s = [scaled(reference, out, "verdict") for out in samples]
    setup_s = [scaled(reference, out, "setup") for out in setups + samples]
    return {
        "verdict_s": statistics.median(verdict_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in samples),
    }, {"setups": len(setup_s), "verdict_s": [round(v, 4) for v in verdict_s],
        "wall_verdict_s": [round(out["verdict_s"], 4) for out in samples],
        "reference_chunks": len(reference.chunks),
        "reference_chunk_s": round(statistics.median(c for _, c in reference.chunks), 6)}


def measure_traced(run: Run) -> tuple[dict, dict]:
    from tracer import EXACT

    untraced, traced, walls = [], [], []

    def collect():
        while not walls or run.time_for(statistics.median(walls)):
            start = time.monotonic()
            plain, _ = run.sample()
            out, _ = run.sample("trace")
            walls.append(time.monotonic() - start)
            if plain is not None:
                untraced.append(plain)
            if out is None:
                continue
            counts = {key: out["layers"][key] for key in EXACT}
            if traced and counts != {key: traced[0]["layers"][key] for key in EXACT}:
                run.failed += 1
                run.problems.append("exact counts differ between traced samples")
                continue
            traced.append(out)

    reference = beside_reference(collect)
    if not untraced or not traced:
        raise BenchError("no traced sample finished: " + "; ".join(run.problems[:5]))
    layers = [out["layers"] for out in traced]
    metrics = {key: statistics.median(sample[key] for sample in layers) for key in layers[0]}
    metrics.update({key: layers[0][key] for key in EXACT})
    plain_s = [scaled(reference, out, "verdict") for out in untraced]
    traced_s = [scaled(reference, out, "verdict") for out in traced]
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return metrics, {"verdict_s": [round(v, 4) for v in plain_s],
                     "traced_verdict_s": [round(v, 4) for v in traced_s]}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def check_checkout():
    needed = [ROOT / "src" / "gencourant" / "cli.py", ROOT / "scripts" / "make_scene.py"]
    needed += [ROOT / w.scene for w in WORKLOADS.values() if w.scene]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError(f"not a gencourant checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="chart seed of the scene (4-D: generator seed, default 1)")
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    path = None
    try:
        check_checkout()
        path, seed, doc, record = prepare_inputs(args.workload, args.seed)
        run = Run(args.workload, args.seconds, path, seed)
        run.sample("setup-only")  # untimed: fills the bytecode cache
        if args.trace:
            from tracer import METRICS

            values, counts = measure_traced(run)
            units = {name: unit for name, unit, _ in METRICS}
        else:
            values, counts = measure(run)
            units = dict(END_TO_END)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        if path is not None and Path(path).parent == WORK:
            Path(path).unlink(missing_ok=True)

    record.update(scene_sha256=_canonical_hash(doc), points_sha256=run.points)
    print("inputs " + json.dumps(record, sort_keys=True))
    print("machine " + json.dumps(machine(), sort_keys=True))
    print("samples " + json.dumps(dict(counts, attempted=run.attempted, failed=run.failed)))
    for problem in run.problems:
        print(f"gate: {problem}")
    print(f"error_rate {run.failed / run.attempted:.4f} ({run.failed} of {run.attempted} samples)")
    for key, value in values.items():
        print(f"{key} {value:.6g} {units[key]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
