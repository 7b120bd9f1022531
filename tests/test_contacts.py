"""The validator's contact and vertex-hit searches against a brute-force
all-pairs oracle.

``find_contacts`` and ``find_vertex_hits`` sweep one axis, and
``validate_instance`` picks it with ``geom.sweep_along_y``. Their index
pairs must not depend on that choice, so a wrong choice can only cost time.
The tests check the validator against the oracle on every generator family,
on each family's x<->y transpose and on seeded invalid mutations; call the
kernel with swapped columns; and force the validator's choice both ways.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from treecover import _kernelpy, model
from treecover.geom import sweep_along_y
from treecover.model import GeometricTree, Instance, generate, validate_instance

from helpers import cross

def on_segment(p, a, b):
    """Whether p, integer or rational, lies on the closed segment ab."""
    return (
        cross(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def meet(a, b, c, d):
    """Whether closed segments ab and cd share a point."""
    d1, d2 = cross(c, d, a), cross(c, d, b)
    d3, d4 = cross(a, b, c), cross(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return any(
        on_segment(p, *s) for p, s in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b)))
    )


def overlap_length2(a, b, c, d):
    """For collinear ab and cd: their overlap's length, times |b - a|^2 (0
    when they share one point at most); None when they are not collinear."""
    if cross(a, b, c) or cross(a, b, d):
        return None
    ux, uy = b[0] - a[0], b[1] - a[1]
    tc = (c[0] - a[0]) * ux + (c[1] - a[1]) * uy
    td = (d[0] - a[0]) * ux + (d[1] - a[1]) * uy
    return max(0, min(max(tc, td), ux * ux + uy * uy) - max(min(tc, td), 0))


def segment_table(inst):
    """(segment, tree, edge index) per edge, skipping zero-length ones,
    in the validator's order."""
    out = []
    for ti, t in enumerate(inst.trees):
        for ei, (i, j) in enumerate(t.edges):
            if t.vertices[i] != t.vertices[j]:
                out.append(((t.vertices[i], t.vertices[j]), ti, ei))
    return out


def vertex_table(inst):
    return [(v, ti) for ti, t in enumerate(inst.trees) for v in t.vertices]


def oracle_contacts(segs):
    """Pairs (i, j), i < j, of meeting segments, except two edges of one
    tree whose only common point is a shared endpoint."""
    out = []
    for i, ((a, b), ti, _) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            (c, d), tj, _ = segs[j]
            if not meet(a, b, c, d):
                continue
            shared = {a, b} & {c, d}
            if ti == tj and shared and not overlap_length2(a, b, c, d):
                continue
            out.append((i, j))
    return out


def oracle_vertex_hits(verts, segs):
    """Pairs (vertex, segment) of a vertex inside a segment, not at an end."""
    return [
        (vi, sj)
        for vi, (p, _) in enumerate(verts)
        for sj, ((a, b), _, _) in enumerate(segs)
        if p != a and p != b and on_segment(p, a, b)
    ]


def columns(segs):
    """The kernels' segment columns x1, y1, x2, y2."""
    return [[s[k // 2][k % 2] for s, _, _ in segs] for k in range(4)]


def transpose(inst):
    return Instance(
        tuple(
            GeometricTree(tuple((y, x) for x, y in t.vertices), t.edges) for t in inst.trees
        )
    )


def families():
    out = []
    for kind in ("strips", "combs", "nested", "ladder"):
        for seed in range(4):
            out.append((f"{kind}-{seed}", generate(kind, trees=10, size=5, seed=seed)))
    out.append(("mincircle-gadget", generate("mincircle-gadget")))
    return out


def interior_points(a, b):
    """Lattice points strictly inside segment ab."""
    g = gcd(b[0] - a[0], b[1] - a[1])
    sx, sy = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    return [(a[0] + k * sx, a[1] + k * sy) for k in range(1, g)]


def with_tree(inst, ti, tree):
    trees = list(inst.trees)
    if ti == len(trees):
        trees.append(tree)
    else:
        trees[ti] = tree
    return Instance(tuple(trees))


def pick_edge(rng, inst, ti=None, min_inside=1, slope_ok=lambda dx, dy: True):
    """(tree, a, b) for a random edge with at least min_inside interior
    lattice points, or None."""
    cands = [
        (tj, t.vertices[i], t.vertices[j])
        for tj, t in enumerate(inst.trees)
        if ti is None or tj == ti
        for i, j in t.edges
        if len(interior_points(t.vertices[i], t.vertices[j])) >= min_inside
        and slope_ok(t.vertices[j][0] - t.vertices[i][0], t.vertices[j][1] - t.vertices[i][1])
    ]
    return rng.choice(cands) if cands else None


def vertex_onto_edge(rng, inst):
    tb, a, b = pick_edge(rng, inst)
    ta = rng.choice([t for t in range(inst.m) if t != tb])
    t = inst.trees[ta]
    verts = list(t.vertices)
    verts[rng.randrange(len(verts))] = rng.choice(interior_points(a, b))
    return with_tree(inst, ta, GeometricTree(tuple(verts), t.edges))


def rungs_cross(rng, inst):
    # two ladder rungs swap the y of one column, so between it and the
    # column before, each rung passes from below the other to above it
    ta, tb = rng.sample(range(inst.m), 2)
    vi = rng.randrange(1, inst.trees[ta].n)
    va, vb = list(inst.trees[ta].vertices), list(inst.trees[tb].vertices)
    va[vi], vb[vi] = (va[vi][0], vb[vi][1]), (vb[vi][0], va[vi][1])
    inst = with_tree(inst, ta, GeometricTree(tuple(va), inst.trees[ta].edges))
    return with_tree(inst, tb, GeometricTree(tuple(vb), inst.trees[tb].edges))


def collinear_overlap(rng, inst):
    # a new tree along an existing edge, one lattice step past its end; a
    # collinear overlap names its least point, which transposing moves to
    # the other end when the slope is negative, so slopes here are not
    tb, a, b = pick_edge(rng, inst, min_inside=2, slope_ok=lambda dx, dy: dx * dy >= 0)
    inside = interior_points(a, b)
    step = (inside[0][0] - a[0], inside[0][1] - a[1])
    seg = (rng.choice(inside), (b[0] + step[0], b[1] + step[1]))
    return with_tree(inst, inst.m, GeometricTree(seg, ((0, 1),)))


def t_junction(rng, inst):
    # another tree's edge ends inside an edge
    tb, a, b = pick_edge(rng, inst)
    p = rng.choice(interior_points(a, b))
    q = (p[0] + rng.choice((-3, 3)), p[1] + rng.choice((-2, 2)))
    return with_tree(inst, inst.m, GeometricTree((q, p), ((0, 1),)))


def own_t_junction(rng, inst):
    # a tree's new edge ends inside one of its own edges
    tb = rng.choice([t for t in range(inst.m) if inst.trees[t].n >= 3])
    _, a, b = pick_edge(rng, inst, ti=tb)
    t = inst.trees[tb]
    c = rng.choice([i for i, v in enumerate(t.vertices) if v not in (a, b)])
    verts = t.vertices + (rng.choice(interior_points(a, b)),)
    return with_tree(inst, tb, GeometricTree(verts, t.edges + ((c, len(verts) - 1),)))


MUTATIONS = (vertex_onto_edge, rungs_cross, collinear_overlap, t_junction, own_t_junction)


def mutants():
    out = []
    for mutate in MUTATIONS:
        for seed in range(12):
            rng = random.Random(seed)
            kind = "ladder" if mutate is rungs_cross else ("ladder", "combs")[seed % 2]
            inst = generate(kind, trees=8, size=5, seed=seed)
            out.append((f"{mutate.__name__}-{kind}-{seed}", mutate(rng, inst)))
    return out


MUTANTS = mutants()
CORPUS = families() + MUTANTS
IDS = [name for name, _ in CORPUS]
INSTANCES = [inst for _, inst in CORPUS]


def test_mutants_are_invalid_in_each_way():
    rules = Counter()
    for name, inst in MUTANTS:
        errs = [v.rule for v in validate_instance(inst) if not v.warning]
        assert errs, name
        rules.update(f"{name.split('-')[0]}:{r}" for r in set(errs))
    for mutate in (vertex_onto_edge, t_junction, own_t_junction):
        assert rules[f"{mutate.__name__}:vertex-on-edge"] == 12
    for mutate in MUTATIONS:
        assert rules[f"{mutate.__name__}:edges-cross"] >= 6, mutate.__name__


def test_corpus_takes_both_axes():
    picks = Counter()
    for inst in INSTANCES:
        for case in (inst, transpose(inst)):
            picks[sweep_along_y(*columns(segment_table(case)))] += 1
    assert picks[True] >= 20 and picks[False] >= 20, picks


def unswap(message):
    """A transposed instance's violation text with its coordinates swapped
    back."""
    message = re.sub(r"\((-?[\d/]+),( ?)(-?[\d/]+)\)", r"(\3,\2\1)", message)
    return re.sub(r"share ([xy]) =", lambda m: f"share {dict(x='y', y='x')[m[1]]} =", message)


def parse_point(message):
    x, y = re.search(r" at \((-?[\d/]+),(-?[\d/]+)\)$", message).groups()
    return Fraction(x), Fraction(y)


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
@pytest.mark.parametrize("transposed", [False, True], ids=["xy", "yx"])
def test_validator_matches_all_pairs_oracle(inst, transposed):
    if transposed:
        inst = transpose(inst)
    segs, verts = segment_table(inst), vertex_table(inst)
    got = validate_instance(inst)

    hits = [v for v in got if v.rule == "vertex-on-edge"]
    want = oracle_vertex_hits(verts, segs)
    assert [(v.trees, v.message) for v in hits] == [
        (
            tuple(sorted({verts[vi][1], segs[sj][1]})),
            f"vertex ({verts[vi][0][0]},{verts[vi][0][1]}) of tree {verts[vi][1]} "
            f"lies inside an edge of tree {segs[sj][1]}",
        )
        for vi, sj in want
    ]

    crosses = [v for v in got if v.rule == "edges-cross"]
    want = oracle_contacts(segs)
    assert len(crosses) == len(want)
    for v, (i, j) in zip(crosses, want):
        (a, b), ti, ei = segs[i]
        (c, d), tj, ej = segs[j]
        if ti == tj:
            head = f"tree {ti}: edges {ei} and {ej} cross"
            assert v.trees == (ti,)
        else:
            head = f"trees {ti} and {tj}: edges cross"
            assert v.trees == (ti, tj)
        assert v.message.startswith(head + " at (")
        p = parse_point(v.message)
        assert on_segment(p, a, b) and on_segment(p, c, d)


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_transpose_gives_the_same_violations(inst):
    def key(v):
        return (v.rule, v.trees, v.warning)

    base = Counter((*key(v), v.message) for v in validate_instance(inst))
    swapped = Counter((*key(v), unswap(v.message)) for v in validate_instance(transpose(inst)))
    assert swapped == base


@pytest.mark.parametrize("inst", INSTANCES, ids=IDS)
def test_forced_axis_gives_identical_violations(inst, monkeypatch):
    for case in (inst, transpose(inst)):
        results = []
        for along_y in (False, True):
            monkeypatch.setattr(model, "sweep_along_y", lambda *cols, y=along_y: y)
            results.append(validate_instance(case))
        assert results[0] == results[1]


def test_kernels_give_the_same_pairs_on_swapped_columns():
    for inst in INSTANCES:
        for case in (inst, transpose(inst)):
            segs, verts = segment_table(case), vertex_table(case)
            x1, y1, x2, y2 = columns(segs)
            trees = [t for _, t, _ in segs]
            px = [p[0] for p, _ in verts]
            py = [p[1] for p, _ in verts]
            contacts = oracle_contacts(segs)
            assert _kernelpy.find_contacts(x1, y1, x2, y2, trees) == contacts
            assert _kernelpy.find_contacts(y1, x1, y2, x2, trees) == contacts
            hits = oracle_vertex_hits(verts, segs)
            assert _kernelpy.find_vertex_hits(px, py, x1, y1, x2, y2) == hits
            assert _kernelpy.find_vertex_hits(py, px, y1, x1, y2, x2) == hits


def test_sweep_axis_rule():
    # ladder rungs: long in x, stacked in y
    assert sweep_along_y([0, 0], [0, 10], [1000, 1000], [2, 12])
    assert not sweep_along_y([0, 10], [0, 0], [2, 12], [1000, 1000])
    # a tie keeps x
    assert not sweep_along_y([0, 0], [0, 0], [4, 4], [4, 4])
    # a column of vertical edges has no x-spread: sweep y
    assert sweep_along_y([5, 5, 5], [0, 10, 20], [5, 5, 5], [3, 13, 23])
    assert not sweep_along_y([], [], [], [])
