"""Deterministic instance generators for tests, benchmarks and ``treecover
gen``.

Every instance they return is validator-clean and validated once: ``nested``
validates each ring spacing it tries, ``generate`` every other kind. The CLI
imports this module only for ``gen`` and ``bench``, so a ``cover`` start does
not compile it.
"""

from __future__ import annotations

import math
import random

from .model import (
    GENERATOR_KINDS,
    GenerationError,
    GeometricTree,
    Instance,
    errors_only,
    validate_instance,
)


def generate(kind: str, trees: int = 4, size: int = 4, seed: int = 0) -> Instance:
    """Deterministic instance generator; every output is validator-clean.

    Kinds: strips (disjoint-hull x-monotone paths), combs (interlocking
    L teeth with heavily overlapping hulls), nested (concentric open rings),
    ladder (rungs about 10^6 wide stacked in y that share x coordinates),
    arc (``combs`` with size 3 and seed 1, every coordinate scaled by 10^4
    and tree k lifted by A * (k - m // 2)^2, A = 3 below 4000 trees and 1
    from there; one region reached through m - 1 merges, whose hull keeps
    about m / 3 vertices; size and seed are ignored, at most 17880 trees),
    cross (k = ceil(m / 2) single-edge rungs ((0, 10i), (L, 10i + 1)) beside
    m - k columns ((2L + 10i, 0), (2L + 10i + 1, L)), L = 10k; every tree is
    alone in its box region, but the rungs all overlap in x and the columns
    in y), diag (m parallel single-edge diagonals ((10i, 0), (10i + L,
    L + 1)), L = 10m; every pair of boxes overlaps, yet no two hulls meet;
    for both, size and seed are ignored), mincircle-gadget (a fixed 4-tree
    instance whose min-circle cover depends on merge order; trees/size/seed
    are ignored for it).
    """
    if kind not in GENERATOR_KINDS:
        raise GenerationError(f"unknown kind {kind!r}")
    if kind == "mincircle-gadget":
        return _gen_mincircle_gadget()
    if trees < 1:
        raise GenerationError("need at least one tree")
    if size < 1:
        raise GenerationError("need at least one vertex per tree")
    if kind == "strips":
        inst = _gen_strips(trees, size, seed)
    elif kind == "combs":
        inst = _gen_combs(trees, size, seed)
    elif kind == "ladder":
        inst = _gen_ladder(trees, size, seed)
    elif kind == "arc":
        inst = _gen_arc(trees)
    elif kind == "cross":
        inst = _gen_cross(trees)
    elif kind == "diag":
        inst = _gen_diag(trees)
    else:
        return _gen_nested(trees, size, seed)  # validates its own candidates
    bad = errors_only(validate_instance(inst))
    if bad:
        raise AssertionError(f"generator {kind} produced invalid instance: {bad[0]}")
    return inst


def _gen_strips(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("strips", m, size, seed).__repr__())
    width = size + 2
    gap = 3
    height = 2 * size + 8
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        x0 = k * (width + gap) + dx
        xs = sorted(rng.sample(range(x0, x0 + width), size))
        verts = tuple((x, rng.randrange(0, height) + dy) for x in xs)
        edges = tuple((i, i + 1) for i in range(size - 1))
        ts.append(GeometricTree(verts, edges))
    return Instance(tuple(ts))


def _gen_combs(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("combs", m, size, seed).__repr__())
    slot = 6
    height = 60
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        x0 = k * slot + dx
        arm = rng.randrange(slot + 3, 2 * slot)  # reaches into the next slot
        depth = rng.randrange(48, 57)  # 0.8..0.95 of height
        if k % 2 == 0:
            base = dy
            wall_top = base + depth
            corner = (x0, base)
            wall = (x0, wall_top)
        else:
            base = dy + height
            wall_top = base - depth
            corner = (x0, base)
            wall = (x0, wall_top)
        arm_end = (x0 + arm, base)
        # subdivide the arm for the requested size (collinear path vertices)
        n_mid = max(0, size - 3)
        arm_xs = sorted(rng.sample(range(x0 + 1, x0 + arm), min(n_mid, arm - 1)))
        chain = [wall, corner] + [(x, base) for x in arm_xs] + [arm_end]
        edges = tuple((i, i + 1) for i in range(len(chain) - 1))
        ts.append(GeometricTree(tuple(chain), edges))
    return Instance(tuple(ts))


def _gen_nested(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("nested", m, size, seed).__repr__())
    size = max(size, 8)
    steps = range(6, 2006, 2)

    def chords_clear(step: int) -> bool:
        # keep chords of one ring clear of the next ring despite rounding
        rmax = m * step + 4
        return rmax * (1 - math.cos(math.pi / size)) + 3 <= step

    if not chords_clear(steps[-1]):
        # no spacing tried keeps the outermost ring's chords clear, since
        # their sag, about m * step * (1 - cos(pi / size)), grows with the
        # spacing; add vertices per ring until it is about half a step
        while m * (1 - math.cos(math.pi / size)) > 0.5:
            size += 1
    cx = rng.randrange(-30, 30)
    cy = rng.randrange(-30, 30)
    for step in steps:
        if not chords_clear(step):
            continue
        r0 = step + 4
        ts = []
        for k in range(m):
            r = r0 + k * step
            phase = rng.uniform(0, 2 * math.pi)
            verts = []
            for i in range(size):
                a = phase + 2 * math.pi * i / size
                verts.append((cx + round(r * math.cos(a)), cy + round(r * math.sin(a))))
            if len(set(verts)) != size:
                break
            edges = tuple((i, i + 1) for i in range(size - 1))
            ts.append(GeometricTree(tuple(verts), edges))
        else:
            inst = Instance(tuple(ts))
            if not errors_only(validate_instance(inst)):
                return inst
    raise GenerationError(f"could not build nested instance (m={m}, size={size})")


def _gen_ladder(m: int, size: int, seed: int) -> Instance:
    # x-monotone paths, each in its own band of y, all overlapping in x;
    # vertices snap to a few offsets of shared columns, so rungs share x
    rng = random.Random(("ladder", m, size, seed).__repr__())
    step = max(14, 1_000_000 // max(1, size - 1))
    gap = 10
    band = 8
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        y0 = k * gap + dy
        verts = tuple(
            (dx + j * step + rng.choice((0, 7, 13)), y0 + rng.randrange(band))
            for j in range(size)
        )
        edges = tuple((i, i + 1) for i in range(size - 1))
        ts.append(GeometricTree(verts, edges))
    return Instance(tuple(ts))


# tooth k sits near x = 6 * 10^4 * k, inside the 2^30 coordinate range
ARC_MAX_TREES = 17880


def _gen_arc(m: int) -> Instance:
    # A comb's arm passes at least 4 * 10^4 below or above its neighbour's
    # wall tip after scaling, and neighbouring lifts differ by at most
    # A * (m - 1) < 4 * 10^4, so the lifted teeth interlock without contact.
    if m > ARC_MAX_TREES:
        raise GenerationError(f"arc needs at most {ARC_MAX_TREES} trees")
    a = 3 if m < 4000 else 1
    combs = _gen_combs(m, 3, 1)
    return Instance(
        tuple(
            GeometricTree(
                tuple(
                    (x * 10**4, y * 10**4 + a * (k - m // 2) ** 2)
                    for x, y in t.vertices
                ),
                t.edges,
            )
            for k, t in enumerate(combs.trees)
        )
    )


def _segments(segs) -> Instance:
    return Instance(tuple(GeometricTree((a, b), ((0, 1),)) for a, b in segs))


def _gen_cross(m: int) -> Instance:
    k = m - m // 2
    length = 10 * k
    rungs = [((0, 10 * i), (length, 10 * i + 1)) for i in range(k)]
    x0 = 2 * length
    columns = [((x0 + 10 * i, 0), (x0 + 10 * i + 1, length)) for i in range(m // 2)]
    return _segments(rungs + columns)


def _gen_diag(m: int) -> Instance:
    length = 10 * m
    return _segments(((10 * i, 0), (10 * i + length, length + 1)) for i in range(m))


def _gen_mincircle_gadget() -> Instance:
    # Four single-edge trees whose min-enclosing-circle cover depends on the
    # merge order; verified by exhaustive merge-order enumeration in tests.
    segs = [
        ((-10, 0), (10, 0)),
        ((-29, 2), (-9, 2)),
        ((0, 10), (20, 10)),
        ((16, 22), (26, 22)),
    ]
    return _segments(segs)
