"""Shared fixture instances used across test modules.

Letters match the worked examples exercised throughout the suite:
  A: square path + interior point          (hull: one region, no ray merge)
  B: two far-apart segments                (hull/box: two regions)
  D: square path + interior point + segment poking through the open side
  E: two overlapping-box segments + one far segment
"""

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
