"""Shared fixture instances used across test modules.

Letters match the worked examples exercised throughout the suite:
  A: square path + interior point          (hull: one region, no ray merge)
  B: two far-apart segments                (hull/box: two regions)
  D: square path + interior point + segment poking through the open side
  E: two overlapping-box segments + one far segment

``paired`` builds many box regions of two hull-disjoint trees each, so the
hull engine shoots in every region; ``mixed`` puts one box region of combs
beside strips whose trees are each alone in their box region.
``turned_cross``, ``stacked`` and ``tower`` are families of lone
single-segment trees whose box queries span many cells of another family's
grid (``BOX_INDEX_KINDS``). ``build`` names them beside the generator kinds.
"""

import random

from treecover.generators import generate
from treecover.model import GeometricTree, Instance


def tree(verts, edges=None):
    verts = tuple(tuple(v) for v in verts)
    if edges is None:
        edges = tuple((i, i + 1) for i in range(len(verts) - 1))
    return GeometricTree(verts, tuple(tuple(e) for e in edges))


INSTANCE_A = Instance(
    (
        tree([(0, 0), (10, 0), (10, 10), (0, 10)]),
        tree([(5, 5)]),
    )
)

INSTANCE_B = Instance(
    (
        tree([(0, 0), (1, 0)]),
        tree([(5, 5), (6, 5)]),
    )
)

INSTANCE_D = Instance(
    (
        tree([(0, 0), (10, 0), (10, 10), (0, 10)]),
        tree([(5, 5)]),
        tree([(-2, 5), (2, 5)]),
    )
)

INSTANCE_E = Instance(
    (
        tree([(0, 0), (4, 2)]),
        tree([(3, -1), (5, 1)]),
        tree([(10, 10), (11, 12)]),
    )
)

# a triangle path whose hull edge from (10, 10) to (0, 0) stops on the bare
# vertex (7, 7) and merges it; (3, 3) and (8, 2) lie in its box, (12, 12)
# and (20, 5) are alone in their box regions (CI's bare.json)
INSTANCE_BARE = Instance(
    (
        tree([(0, 0), (10, 0), (10, 10)]),
        tree([(3, 3)]),
        tree([(7, 7)]),
        tree([(12, 12)]),
        tree([(8, 2)]),
        tree([(20, 5)]),
    )
)

CROSSING_TREES = Instance(
    (
        tree([(0, 0), (2, 2)]),
        tree([(0, 2), (2, 0)]),
    )
)


def staircase(m):
    """m anti-diagonal segments whose boxes make every merge order one
    chain: tree k's box meets the union box of trees 0..k-1 but, past tree
    1, no single earlier tree's box. Trees alternate above and below, x and
    y coordinates are pairwise distinct, and the box cover is one region
    reached through m - 1 nested merges."""
    trees = []
    for k in range(m):
        j = k // 2
        hi, lo = (4 * j + 2, 4 * j - 3) if k % 2 else (-4 * j, -4 * j - 5)
        trees.append(tree([(2 * k, hi), (2 * k + 3, lo)]))
    return Instance(tuple(trees))


def paired(layout, pairs, size=5, seed=0):
    """``pairs`` separate box regions of two trees each, whose hulls stay
    disjoint: pair k's trees are x-monotone paths of ``size`` vertices that
    straddle the diagonal of the pair's box, one strictly above it and one
    strictly below, and both span the box's full width, so their boxes meet.
    ``layout`` "strips" puts square pairs side by side in x; "ladder" stacks
    pairs about 10^6 wide and 12 tall in y, so every pair overlaps every
    other in x. Vertices near the diagonal are often collinear with hull
    edges, so some shots stop short on an own vertex."""
    rng = random.Random(repr((layout, pairs, size, seed)))
    size = max(size, 2)
    # how far a vertex may stray from the diagonal; h >= 2d, so the lower
    # tree's right end is no lower than the upper tree's left end
    d = 4
    if layout == "strips":
        w = h = max(3 * size, 12)
        origins = [(k * (w + 2 * d + 3), 0) for k in range(pairs)]

        def columns(x0):
            return [x0, *sorted(rng.sample(range(x0 + 1, x0 + w), size - 2)), x0 + w]

    else:
        w, h = 1_000_000, 12
        origins = [(0, k * (h + 2 * d + 3)) for k in range(pairs)]

        def columns(x0):
            # evenly spaced and shared by every rung, so three vertices of a
            # rung are often collinear
            return [x0 + j * w // (size - 1) for j in range(size)]

    trees = []
    for x0, y0 in origins:
        for above in (True, False):
            verts = []
            for x in columns(x0):
                lo, rem = divmod((x - x0) * h, w)  # the diagonal at x
                r = rng.randint(1, d)
                # strictly above: floor + r >= floor + 1; strictly below:
                # ceil - r <= ceil - 1
                verts.append((x, y0 + lo + r if above else y0 + lo + (rem > 0) - r))
            trees.append(tree(verts))
    return Instance(tuple(trees))


def mixed(seed=0, combs=6, strips=6):
    """``combs`` interlocking comb teeth, one box region, beside ``strips``
    strips whose trees are each alone in their box region."""
    left = generate("combs", trees=combs, size=5, seed=seed).trees
    right = generate("strips", trees=strips, size=5, seed=seed).trees
    shift = 10 + max(x for t in left for x, _ in t.vertices) - min(
        x for t in right for x, _ in t.vertices
    )
    moved = [tree([(x + shift, y) for x, y in t.vertices], t.edges) for t in right]
    return Instance(tuple(left) + tuple(moved))


def turned_cross(m):
    """``cross`` turned so that its rungs lie above its columns: k = ceil(m
    / 2) rungs ((0, 2L + 10i), (L, 2L + 10i + 1)) and m - k columns ((10i,
    0), (10i + 1, L)), L = 10k. Every tree is alone in its box region. A
    rung's query spans every occupied column of the columns' grid but none
    of its occupied rows."""
    k = m - m // 2
    length = 10 * k
    rungs = [tree([(0, 2 * length + 10 * i), (length, 2 * length + 10 * i + 1)])
             for i in range(k)]
    columns = [tree([(10 * i, 0), (10 * i + 1, length)]) for i in range(m // 2)]
    return Instance(tuple(rungs + columns))


def stacked(m):
    """k = ceil(m / 2) short segments ((0, 100i), (1, 100i + 60)) stacked in
    one column, beside m - k tall segments ((10^6 + 10i, 0), (10^6 + 10i +
    1, 100k)). Every tree is alone in its box region. A tall segment's query
    spans as many rows of the short segments' grid as that grid occupies,
    in a column it does not occupy."""
    k = m - m // 2
    short = [tree([(0, 100 * i), (1, 100 * i + 60)]) for i in range(k)]
    tall = [tree([(10**6 + 10 * i, 0), (10**6 + 10 * i + 1, 100 * k)])
            for i in range(m // 2)]
    return Instance(tuple(short + tall))


def tower(m):
    """k = ceil(m / 2) points (10i, 0) in a row, beneath a tower of m - k
    diagonal segments ((0, y), (L, y + L)), y = (j + 1)(L + 10), L = 10k,
    whose boxes are L x L squares. Every tree is alone in its box region. A
    square's query spans every occupied column of the points' grid and
    more rows than columns, but none of its occupied rows."""
    k = m - m // 2
    length = 10 * k
    points = [tree([(10 * i, 0)]) for i in range(k)]
    squares = []
    for j in range(m // 2):
        y = (j + 1) * (length + 10)
        squares.append(tree([(0, y), (length, y + length)]))
    return Instance(tuple(points + squares))


def reversed_trees(inst):
    """The instance with its trees in reverse order."""
    return Instance(inst.trees[::-1])


# ``build`` kinds that split into box regions in every way: each tree alone
# (strips, ladder, cross), one region of all trees (combs, nested, arc,
# diag), regions of two trees (paired-), or lone trees beside one region
# (mixed)
SPLIT_KINDS = (
    "strips", "combs", "nested", "ladder", "arc", "cross", "diag",
    "paired-strips", "paired-ladder", "mixed",
)

# ``build`` kinds of single-segment trees, each alone in its box region,
# whose queries span many cells of another family's grid: the box range
# index must walk only the occupied cells a query can hit
BOX_INDEX_KINDS = (
    "cross", "reversed-cross", "turned-cross", "reversed-turned-cross", "stacked",
    "tower",
)


def build(kind, trees, size=5, seed=0):
    """``generate(kind, trees, size, seed)`` for the generator kinds; for
    "paired-strips" and "paired-ladder", ``paired`` with ``trees // 2``
    pairs (at least one); for "mixed", ``mixed`` with about half the trees
    on each side; for "turned-cross", "stacked" and "tower", those
    functions (size and seed are ignored); for "reversed-" and a kind,
    that kind's instance with its trees in reverse order."""
    if kind.startswith("reversed-"):
        return reversed_trees(build(kind[len("reversed-") :], trees, size, seed))
    if kind.startswith("paired-"):
        return paired(kind[len("paired-") :], max(1, trees // 2), size, seed)
    if kind == "mixed":
        return mixed(seed, max(1, trees // 2), max(1, trees - trees // 2))
    if kind == "turned-cross":
        return turned_cross(trees)
    if kind == "stacked":
        return stacked(trees)
    if kind == "tower":
        return tower(trees)
    return generate(kind, trees=trees, size=size, seed=seed)
