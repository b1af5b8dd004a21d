"""One benchmark sample in a fresh process; prints one JSON line.

    python3 perfbench/sample.py ROOT SCENE COMMAND [--seed N] [--setup-only | --trace]

The sample imports ``gencourant`` from ROOT/src, loads SCENE (the set-up),
runs ``cli.run_command(COMMAND, scene)`` (the verdict) and prints both
times (wall and CPU seconds, and the ``time.monotonic`` window of each, so
that ``hostspeed.Reference`` can scale them), the process's peak resident
memory, the report JSON, a hash of the sample points and how many of the
values that evaluation returned were not finite.  With ``--trace`` the
layer functions are wrapped after the import, so the load and the run are
traced and the per-layer metrics are printed too.
"""

import time

START = time.perf_counter()
START_CPU = time.process_time()
START_MONO = time.monotonic()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def count_evaluations(counts: dict):
    """Wraps ``expr.evaluate`` and ``expr.evaluate_many`` at every place the
    package binds them (``tensors`` imports ``evaluate_many`` by name) and
    counts in ``counts`` the values they return and the non-finite ones.
    The report cannot show a NaN: ``expr.max_abs_on_points`` skips it, so a
    residual that is NaN at every point reads 0.0 and passes."""
    isfinite = math.isfinite

    def checked(fn, many):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            values = result if many else (result,)
            counts["evaluated"] += len(values)
            if not all(map(isfinite, values)):
                counts["nonfinite"] += sum(1 for v in values if not isfinite(v))
            return result

        return wrapper

    from gencourant import expr

    wrappers = {id(expr.evaluate): checked(expr.evaluate, False),
                id(expr.evaluate_many): checked(expr.evaluate_many, True)}
    for name, mod in list(sys.modules.items()):
        if name == "gencourant" or name.startswith("gencourant."):
            for key, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, key, wrappers[id(value)])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("root")
    parser.add_argument("scene")
    parser.add_argument("command")
    parser.add_argument("--seed", type=int, default=None)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = Path(args.root).resolve() / "src"
    sys.path.insert(0, str(src))
    from gencourant import cli, scene

    if Path(cli.__file__).resolve().parent != src / "gencourant":
        print(f"gencourant imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    counts = {"evaluated": 0, "nonfinite": 0}
    count_evaluations(counts)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    loaded = time.perf_counter()
    sc = scene.load_scene(args.scene, seed=args.seed)
    ready, ready_cpu, ready_mono = time.perf_counter(), time.process_time(), time.monotonic()
    out = {"setup_s": ready - START, "setup_cpu_s": ready_cpu - START_CPU,
           "setup_window": [START_MONO, ready_mono]}
    if not args.setup_only:
        report = cli.run_command(args.command, sc)
        done, done_cpu, done_mono = time.perf_counter(), time.process_time(), time.monotonic()
        out["verdict_s"] = done - ready
        out["verdict_cpu_s"] = done_cpu - ready_cpu
        out["verdict_window"] = [ready_mono, done_mono]
        out["report"] = report.to_json()
    if tracer is not None:
        tracer.uninstall()
        out["traced_wall_s"] = done - loaded
        out["layers"] = tracer.metrics()
    points = json.dumps(sc.chart.sample_points()).encode()
    out["points_sha256"] = hashlib.sha256(points).hexdigest()
    out.update(counts)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
