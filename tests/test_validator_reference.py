"""``validate_instance`` and the segment predicates against brute force.

``reference_validator`` keeps the validator as it was before its
single-pass rewrite: a pass per check, a union-find per tree, and all-pairs
contact and vertex-hit searches. The rewrite must return the same
violations in the same order. On every pair of segments of a small grid,
zero-length ones included, ``seg_relation`` and
``geom._segment_intersection_set`` must agree with the brute-force
oracles, and on the pairs that share an end so must ``find_contacts``,
which decides two edges of one tree there without ``seg_relation``.
"""

import random
from collections import Counter

import pytest

from treecover import _kernelpy
from treecover.geom import COORD_LIMIT, _segment_intersection_set
from treecover.model import GeometricTree, Instance, validate_instance

from helpers import cross, meet, on_segment, overlap_length2
from reference_validator import reference_validate
from test_contacts import INSTANCES, extents, transpose

GRID = [(x, y) for x in range(4) for y in range(4)]
SEGMENTS = [(a, b) for a in GRID for b in GRID]


def test_seg_relation_matches_reference_on_every_pair_of_a_4x4_grid():
    assert len(SEGMENTS) ** 2 == 65536
    got = Counter()
    shared = Counter()
    for (a, b) in SEGMENTS:
        for (c, d) in SEGMENTS:
            # crossing is a proper crossing or a collinear overlap of
            # positive length, touching any other meeting
            proper = cross(c, d, a) * cross(c, d, b) < 0 and cross(a, b, c) * cross(a, b, d) < 0
            overlap = bool(overlap_length2(a, b, c, d))
            want = 2 if proper or overlap else int(meet(a, b, c, d))
            rel = _kernelpy.seg_relation(*a, *b, *c, *d)
            assert rel == want, (a, b, c, d)
            pts, ov = _segment_intersection_set(a, b, c, d)
            assert bool(pts) == (want > 0), (a, b, c, d, pts)
            assert all(on_segment(p, a, b) and on_segment(p, c, d) for p in pts), (a, b, c, d)
            assert ov == (len(pts) == 2) == overlap, (a, b, c, d, pts)
            got[rel, a == b or c == d] += 1
            if a == b or c == d or not {a, b} & {c, d}:
                continue
            # find_contacts decides two edges of one tree at a shared end
            # itself; it must agree with seg_relation, and a pair of two
            # trees goes to seg_relation
            cols = [[a[0], c[0]], [a[1], c[1]], [b[0], d[0]], [b[1], d[1]]]
            for trees, want in (([0, 0], rel == 2), ([0, 1], rel != 0)):
                pairs = _kernelpy.find_contacts(*cols, *extents(*cols), trees)
                assert pairs == ([(0, 1)] if want else []), (a, b, c, d, trees)
            shared[rel, len({a, b} & {c, d})] += 1
    # every class occurs with and without a zero-length segment, except a
    # crossing, which needs two segments of positive length
    assert all(got[rel, False] for rel in (0, 1, 2)), got
    assert got[0, True] and got[1, True] and not got[2, True], got
    # reversed, collinear-overlapping and both-ends-shared pairs all occur
    assert shared[1, 1] and shared[2, 1] and shared[2, 2], shared


def random_tree(rng):
    """A small tree on a 7 x 7 grid, often broken: self-loops, repeated,
    extra or missing edges, reversed edge lists, coinciding vertices and,
    rarely, a coordinate out of range."""
    nv = rng.choice((1, 1, 2, 3, 4, 5))
    verts = [(rng.randrange(7), rng.randrange(7)) for _ in range(nv)]
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    edges = [(j, i) if rng.random() < 0.3 else (i, j) for i, j in edges]
    if rng.random() < 0.1:
        i = rng.randrange(nv)
        edges.append((i, i))
    if edges and rng.random() < 0.1:
        i, j = rng.choice(edges)
        edges.append((j, i) if rng.random() < 0.5 else (i, j))
    if rng.random() < 0.1:
        edges.append((rng.randrange(nv), rng.randrange(nv)))
    if edges and rng.random() < 0.1:
        edges.pop(rng.randrange(len(edges)))
    if edges and rng.random() < 0.05:
        # the vertex keeps its place in the count but ends no segment
        i = rng.randrange(len(edges))
        edges[i] = (edges[i][0], edges[i][0])
    if rng.random() < 0.3:
        edges.reverse()
    if rng.random() < 0.02:
        x, y = verts[0]
        verts[0] = rng.choice(((COORD_LIMIT + 1, y), (x, -COORD_LIMIT - 3)))
    return GeometricTree(tuple(verts), tuple(edges))


def random_forests(count, seed):
    rng = random.Random(seed)
    return [
        Instance(tuple(random_tree(rng) for _ in range(rng.randint(1, 4))))
        for _ in range(count)
    ]


FORESTS = random_forests(3000, seed=20240601)


def test_validator_matches_reference_on_random_forests():
    rules = Counter()
    for n, inst in enumerate(FORESTS):
        want = reference_validate(inst)
        assert validate_instance(inst) == want, (n, inst)
        rules.update(v.rule for v in want)
    # the forests break every rule, and some are valid
    for rule in (
        "self-loop",
        "duplicate-edge",
        "edge-count",
        "not-connected",
        "coordinate-range",
        "duplicate-vertex",
        "vertex-on-edge",
        "edges-cross",
        "shared-coordinate",
    ):
        assert rules[rule] >= 100, (rule, rules)
    assert sum(not reference_validate(inst) for inst in FORESTS) >= 100


@pytest.mark.parametrize("transposed", [False, True], ids=["xy", "yx"])
def test_validator_matches_reference_on_the_contacts_corpus(transposed):
    for inst in INSTANCES:
        if transposed:
            inst = transpose(inst)
        assert validate_instance(inst) == reference_validate(inst)
