"""Machine-speed probe: a fixed slice of pure-Python work, timed.

The host this benchmark was tuned on flickers between a fast and a slow
state within a second, and the mix drifts over minutes; a cover op's wall
time follows it, up to ~1.4x. The probe runs the same kind of code as an op
(an integer ray-segment loop over column lists, like ``_kernelpy.scan``;
tuple, dict and sort work, ``Fraction`` arithmetic and a JSON round trip,
like parsing, validation and cover output) and imports nothing from
``treecover``, so no change to the package can move it.

Timed values are rescaled to the reference speed by ``rescale``, with the
probe timed next to the measurement. On a machine where the probe takes
``REFERENCE_S`` a rescaled time equals the wall time; elsewhere it
estimates the wall time that machine would have at the reference speed.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import time
from fractions import Fraction

# The probe's time in the slow, more common phase of the 2-vCPU VM the
# benchmark was tuned on (Python 3.11). Fixed, so every commit is compared
# on the same scale.
REFERENCE_S = 0.020
# The probe swings more than the ops do: between the host's fast and slow
# states a cover op's time moves as the probe's time to about this power.
# Fitted over two sets of ten 30 s runs of each workload (and the import
# times in them): 0.8-0.9 gave the lowest run-to-run spreads, 1.0 up to 1.6x
# higher ones.
ELASTICITY = 0.85


def _tuples(n=1500):
    rng = random.Random(12345)
    pts = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(n)]
    cells = {}
    acc = 0
    for x, y in pts:
        key = (x >> 8, y >> 8)
        cells[key] = cells.get(key, 0) + 1
        acc += (x * 31 - y * 17) % 1000003
    pts.sort(key=lambda p: (p[1], p[0]))
    turns = 0
    for i in range(len(pts) - 2):
        (ax, ay), (bx, by), (cx, cy) = pts[i], pts[i + 1], pts[i + 2]
        turns += (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0
    return acc + turns + len(cells)


def _rays(n=1500, reps=4):
    rng = random.Random(54321)
    xs1 = [rng.randrange(-10**6, 10**6) for _ in range(n)]
    ys1 = [rng.randrange(-10**6, 10**6) for _ in range(n)]
    xs2 = [x + rng.randrange(-999, 1000) for x in xs1]
    ys2 = [y + rng.randrange(-999, 1000) for y in ys1]
    hits = 0
    for r in range(reps):
        ox, oy, ex, ey = r * 7, -r * 3, 1000 + r, 333 - r
        for i in range(n):
            x1 = xs1[i]
            y1 = ys1[i]
            wx = x1 - ox
            wy = y1 - oy
            vx = xs2[i] - x1
            vy = ys2[i] - y1
            den = ex * vy - ey * vx
            if den == 0:
                continue
            num = wx * vy - wy * vx
            sn = wx * ey - wy * ex
            if den < 0:
                den, num, sn = -den, -num, -sn
            if num > 0 and 0 <= sn <= den:
                hits += 1
    return hits


def _fractions(n=300):
    rng = random.Random(777)
    acc = Fraction(0)
    for _ in range(n):
        a = Fraction(rng.randrange(1, 1000), rng.randrange(1, 1000))
        acc += a * a - a / 3
    return acc


_DOC = {
    "trees": [
        {"vertices": [[i * 7 + j, j * 3 - i] for j in range(5)],
         "edges": [[j, j + 1] for j in range(4)]}
        for i in range(200)
    ]
}


def _json():
    return len(json.loads(json.dumps(_DOC))["trees"])


def probe() -> float:
    """Seconds taken by the fixed work (about REFERENCE_S on the reference).
    The collector is off meanwhile, so the caller's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _tuples()
        _rays()
        _fractions()
        _json()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, probe_s: float) -> float:
    """``seconds`` at the reference speed, given the probe time next to it."""
    return seconds * (REFERENCE_S / probe_s) ** ELASTICITY


def local_speeds(probes, window=3):
    """Per op i, the mean of the probes around it: ``probes[i]`` is taken
    just before op i and ``probes[i + 1]`` just after, so op i gets the mean
    of ``probes[i - window + 1 : i + window + 1]``. The host's speed flickers
    within a second, and an op's time sums it over the op, so a mean tracks
    it better than a median."""
    return [
        statistics.fmean(probes[max(0, i - window + 1): i + window + 1])
        for i in range(len(probes) - 1)
    ]
