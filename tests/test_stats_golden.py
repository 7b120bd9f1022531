"""Pinned engine counters: a refactor of either engine must leave its
``--stats`` unchanged, not just its cover.

The combs and nested rows were computed by the engines before the hull
engine's chord bookkeeping became one set of live hull edges. The strips
and ladder rows changed when the hull engine began to split the forest by
its box regions: every tree of those instances is alone in its box region,
so it shoots nothing and queues nothing (they were rays_shot =
initial_edges = 51, 49, 49, 51, 50 for strips and 46, 47, 53, 47, 49 for
ladder, seeds 0-4). The paired rows, whose trees share their box regions
two by two, were computed before that split and did not change with it.

The hull rows that shoot changed when the hull engine stopped queueing the hull edges
that a tree's own edges cover, whose shots never merge (``tree_covers``):
the first column keeps the counts from before, which the engine still
reproduces with that test patched to cover nothing. On nested, every ring's
hull edges but one chord run along its own edges.

The reversed-nested row stores the outermost ring first, so every inner
ring's query finds the box that contains it: one query and one merge per
ring after the first. Before the box engine's query reported containers, the
inner rings' boxes nested unseen and the row read (12, 0).
"""

import pytest

from treecover import hullcover
from treecover.boxcover import box_cover_fast
from treecover.hullcover import hull_cover_fast

from instances import build

# (kind, seed) -> ((rays_shot, initial_edges) before the hull engine skipped
# the hull edges that a tree's own edges cover, (rays_shot, merges,
# initial_edges), (queries, merges)) for build(kind, trees=12, size=5,
# seed=seed)
GOLDEN = {
    ("strips", 0): ((0, 0), (0, 0, 0), (12, 0)),
    ("strips", 1): ((0, 0), (0, 0, 0), (12, 0)),
    ("strips", 2): ((0, 0), (0, 0, 0), (12, 0)),
    ("strips", 3): ((0, 0), (0, 0, 0), (12, 0)),
    ("strips", 4): ((0, 0), (0, 0, 0), (12, 0)),
    ("combs", 0): ((33, 36), (15, 11, 12), (23, 11)),
    ("combs", 1): ((33, 36), (15, 11, 12), (23, 11)),
    ("combs", 2): ((33, 36), (15, 11, 12), (23, 11)),
    ("combs", 3): ((33, 36), (15, 11, 12), (23, 11)),
    ("combs", 4): ((33, 36), (15, 11, 12), (23, 11)),
    ("nested", 0): ((96, 96), (12, 0, 12), (23, 11)),
    ("nested", 1): ((96, 96), (12, 0, 12), (23, 11)),
    ("nested", 2): ((96, 96), (12, 0, 12), (23, 11)),
    ("nested", 3): ((96, 96), (12, 0, 12), (23, 11)),
    ("nested", 4): ((96, 96), (12, 0, 12), (23, 11)),
    ("ladder", 0): ((0, 0), (0, 0, 0), (12, 0)),
    ("ladder", 1): ((0, 0), (0, 0, 0), (12, 0)),
    ("ladder", 2): ((0, 0), (0, 0, 0), (12, 0)),
    ("ladder", 3): ((0, 0), (0, 0, 0), (12, 0)),
    ("ladder", 4): ((0, 0), (0, 0, 0), (12, 0)),
    ("paired-strips", 0): ((49, 49), (26, 0, 26), (18, 6)),
    ("paired-strips", 1): ((51, 51), (26, 0, 26), (18, 6)),
    ("paired-strips", 2): ((51, 51), (24, 0, 24), (18, 6)),
    ("paired-strips", 3): ((52, 52), (28, 0, 28), (18, 6)),
    ("paired-strips", 4): ((46, 46), (26, 0, 26), (18, 6)),
    ("paired-ladder", 0): ((50, 50), (26, 0, 26), (18, 6)),
    ("paired-ladder", 1): ((49, 49), (26, 0, 26), (18, 6)),
    ("paired-ladder", 2): ((49, 49), (27, 0, 27), (18, 6)),
    ("paired-ladder", 3): ((48, 48), (27, 0, 27), (18, 6)),
    ("paired-ladder", 4): ((44, 44), (26, 0, 26), (18, 6)),
    ("reversed-nested", 0): ((96, 96), (12, 0, 12), (12, 11)),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN))
def test_engine_stats_match_golden(kind, seed, monkeypatch):
    inst = build(kind, 12, 5, seed)
    before, hull_golden, box_golden = GOLDEN[kind, seed]
    _, hull = hull_cover_fast(inst)
    _, box = box_cover_fast(inst)
    assert tuple(hull) == hull_golden
    assert tuple(box) == box_golden
    # the engine that queues every hull edge, covered or not
    monkeypatch.setattr(hullcover, "tree_covers", lambda nbrs, p, q: False)
    _, whole = hull_cover_fast(inst)
    assert (whole.rays_shot, whole.merges, whole.initial_edges) == (
        before[0],
        hull.merges,
        before[1],
    )
