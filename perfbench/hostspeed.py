"""Speed of the benchmark's core, measured while the samples run.

    python3 perfbench/hostspeed.py > OUT     (started by ``Reference``)

The benchmark shares a host with other tenants.  Its core switches between
a slow steady speed and bursts up to 1.6x faster, several times a second,
and the share of fast time drifts from minute to minute, so raw timings of
the same code taken a few minutes apart differ by up to a third.  A loop run
just before or after a sample does not track this: the speed has changed by
then.  So a reference loop runs *during* the samples, on the same core, at
the lowest priority (``nice 19``).  While a sample runs, the scheduler
gives it 1 to 2 % of the core, enough to measure the core's speed every
200 ms or so.  Each line it writes is one chunk of fixed work:
the monotonic time the chunk ended and the CPU seconds it took.

``Reference.scale(t0, t1)`` is ``REFERENCE_CHUNK_S`` over the mean chunk
time in that window: the factor that turns CPU seconds spent in the window
into seconds at the reference speed.  The chunk walks small expression
trees with a memo keyed by ``id``, as gencourant's evaluator does, so that
its speed follows the same host changes.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# CPU seconds of one chunk at the reference speed.  It is about the chunk
# time on the host of the baseline in README.md (run medians 0.0025 to
# 0.0032 s).  Changing it rescales every timing, so it stays fixed.
REFERENCE_CHUNK_S = 0.0028
# Trees walked per chunk (about 2 ms on the host above).
TREES_PER_CHUNK = 12
# A window shorter than this is widened about its centre, so that it holds
# enough chunks (set-up phases last about 0.3 s).
MIN_WINDOW_S = 2.0
# The loop ends by itself after this long, or when its parent has gone.
MAX_LIFETIME_S = 200.0


def _evaluate(node, env, memo):
    value = memo.get(id(node))
    if value is not None:
        return value
    op = node[0]
    if op == 0:
        value = env[node[1]]
    elif op == 1:
        value = _evaluate(node[1], env, memo) + _evaluate(node[2], env, memo)
    else:
        value = _evaluate(node[1], env, memo) * _evaluate(node[2], env, memo)
    memo[id(node)] = value
    return value


def _chunk() -> float:
    total = 0.0
    for _ in range(TREES_PER_CHUNK):
        nodes = [(0, i % 5) for i in range(40)]
        while len(nodes) > 1:
            pairs = [(1 + (j & 1), nodes[j], nodes[j + 1]) for j in range(0, len(nodes) - 1, 2)]
            nodes = pairs + ([nodes[-1]] if len(nodes) & 1 else [])
        for p in range(6):
            total += _evaluate(nodes[0], [0.1 * p, 0.2, 0.3, 0.4, 0.5], {})
    return total


def loop(out) -> None:
    """Runs chunks at the lowest priority until stopped, orphaned or
    ``MAX_LIFETIME_S`` is over, writing one line per chunk to ``out``."""
    os.nice(19)
    parent = os.getppid()
    end = time.monotonic() + MAX_LIFETIME_S
    while os.getppid() == parent:
        start = time.process_time()
        _chunk()
        cpu = time.process_time() - start
        now = time.monotonic()
        out.write(f"{now:.6f} {cpu:.7f}\n")
        out.flush()
        if now > end:
            break


class Reference:
    """The reference loop as a child process on the caller's core.  The
    caller must be pinned to one core, so that the loop and the samples
    share it; the child inherits the pinning."""

    def __init__(self, path: Path):
        self.path = path
        self.chunks: list[tuple[float, float]] = []
        with open(path, "w") as out:
            self.proc = subprocess.Popen([sys.executable, __file__], stdout=out,
                                         stdin=subprocess.DEVNULL)

    def stop(self) -> None:
        """Ends the loop, waits for it and reads its chunks."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.proc.wait()
        lines = self.path.read_text().split("\n")
        self.chunks = [(float(t), float(c)) for t, c in (l.split() for l in lines if l.count(" ") == 1)]
        self.path.unlink(missing_ok=True)

    def scale(self, t0: float, t1: float) -> float:
        """``REFERENCE_CHUNK_S`` over the mean chunk time of the chunks that
        ended in [t0, t1], the window widened to ``MIN_WINDOW_S``."""
        if t1 - t0 < MIN_WINDOW_S:
            middle = (t0 + t1) / 2
            t0, t1 = middle - MIN_WINDOW_S / 2, middle + MIN_WINDOW_S / 2
        times = [cpu for end, cpu in self.chunks if t0 <= end <= t1]
        if not times:
            raise ValueError(f"no reference chunk ended in [{t0:.3f}, {t1:.3f}]")
        return REFERENCE_CHUNK_S / statistics.fmean(times)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    loop(sys.stdout)
