"""Benchmark-owned instance generators.

They write the wire format directly and import nothing from ``treecover``,
so editing the package's own generators cannot move the benchmark's inputs.
Each takes the tree count ``m``, the vertices per tree ``size`` and a
``random.Random``; the same generator state gives the same instance.
"""

from __future__ import annotations

import json
import random


def _path(points) -> dict:
    return {
        "vertices": [[x, y] for x, y in points],
        "edges": [[i, i + 1] for i in range(len(points) - 1)],
    }


def merge(m: int, size: int, rng: random.Random) -> dict:
    """Interlocking comb teeth: L-shaped paths alternating between a floor
    and a ceiling. Each arm reaches under the next tooth's wall, so every
    hull and every box overlaps its neighbours and the cover is one region
    reached through m - 1 merges."""
    slot, height = 6, 60
    dx, dy = rng.randrange(-40, 40), rng.randrange(-40, 40)
    trees = []
    for k in range(m):
        x0 = k * slot + dx
        arm = rng.randrange(slot + 3, 2 * slot)  # ends before tooth k + 2
        depth = rng.randrange(48, 57)
        base = dy if k % 2 == 0 else dy + height
        wall_y = base + depth if k % 2 == 0 else base - depth
        mids = sorted(rng.sample(range(x0 + 1, x0 + arm), max(0, size - 3)))
        pts = [(x0, wall_y), (x0, base)] + [(x, base) for x in mids] + [(x0 + arm, base)]
        trees.append(_path(pts))
    return {"trees": trees}


def disjoint(m: int, size: int, rng: random.Random) -> dict:
    """x-monotone paths, each in its own vertical strip with a gap to the
    next: every tree is its own region and no merge happens."""
    width, gap, height = size + 2, 3, 2 * size + 8
    dx, dy = rng.randrange(-40, 40), rng.randrange(-40, 40)
    trees = []
    for k in range(m):
        x0 = k * (width + gap) + dx
        xs = sorted(rng.sample(range(x0, x0 + width), size))
        trees.append(_path([(x, rng.randrange(height) + dy) for x in xs]))
    return {"trees": trees}


LADDER_WIDTH = 1_000_000


def ladder(m: int, size: int, rng: random.Random) -> dict:
    """Rungs about 10^6 wide stacked in y, each inside its own thin band.
    Every pair of rungs overlaps in x and vertices snap to a shared set of
    x positions, so rungs share x coordinates; every rung is its own
    region."""
    step = LADDER_WIDTH // (size - 1)
    gap, band = 10, 8
    dx, dy = rng.randrange(-40, 40), rng.randrange(-40, 40)
    trees = []
    for k in range(m):
        y0 = k * gap + dy
        pts = [
            (dx + j * step + rng.choice((0, 7, 13)), y0 + rng.randrange(band))
            for j in range(size)
        ]
        trees.append(_path(pts))
    return {"trees": trees}


GENERATORS = {"merge": merge, "disjoint": disjoint, "ladder": ladder}


def instance_text(kind: str, m: int, size: int, seed: int) -> str:
    """Compact JSON of one instance; the seed string keeps kinds and sizes
    from sharing random streams."""
    rng = random.Random(f"perfbench/{kind}/{m}/{size}/{seed}")
    return json.dumps(GENERATORS[kind](m, size, rng), separators=(",", ":"))
