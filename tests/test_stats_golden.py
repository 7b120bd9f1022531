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

The reversed-nested row stores the outermost ring first, so every inner
ring's query finds the box that contains it: one query and one merge per
ring after the first. Before the box engine's query reported containers, the
inner rings' boxes nested unseen and the row read (12, 0).
"""

import pytest

from treecover.boxcover import box_cover_fast
from treecover.hullcover import hull_cover_fast

from instances import build

# (kind, seed) -> ((rays_shot, merges, initial_edges), (queries, merges))
# for build(kind, trees=12, size=5, seed=seed)
GOLDEN = {
    ("strips", 0): ((0, 0, 0), (12, 0)),
    ("strips", 1): ((0, 0, 0), (12, 0)),
    ("strips", 2): ((0, 0, 0), (12, 0)),
    ("strips", 3): ((0, 0, 0), (12, 0)),
    ("strips", 4): ((0, 0, 0), (12, 0)),
    ("combs", 0): ((33, 11, 36), (23, 11)),
    ("combs", 1): ((33, 11, 36), (23, 11)),
    ("combs", 2): ((33, 11, 36), (23, 11)),
    ("combs", 3): ((33, 11, 36), (23, 11)),
    ("combs", 4): ((33, 11, 36), (23, 11)),
    ("nested", 0): ((96, 0, 96), (23, 11)),
    ("nested", 1): ((96, 0, 96), (23, 11)),
    ("nested", 2): ((96, 0, 96), (23, 11)),
    ("nested", 3): ((96, 0, 96), (23, 11)),
    ("nested", 4): ((96, 0, 96), (23, 11)),
    ("ladder", 0): ((0, 0, 0), (12, 0)),
    ("ladder", 1): ((0, 0, 0), (12, 0)),
    ("ladder", 2): ((0, 0, 0), (12, 0)),
    ("ladder", 3): ((0, 0, 0), (12, 0)),
    ("ladder", 4): ((0, 0, 0), (12, 0)),
    ("paired-strips", 0): ((49, 0, 49), (18, 6)),
    ("paired-strips", 1): ((51, 0, 51), (18, 6)),
    ("paired-strips", 2): ((51, 0, 51), (18, 6)),
    ("paired-strips", 3): ((52, 0, 52), (18, 6)),
    ("paired-strips", 4): ((46, 0, 46), (18, 6)),
    ("paired-ladder", 0): ((50, 0, 50), (18, 6)),
    ("paired-ladder", 1): ((49, 0, 49), (18, 6)),
    ("paired-ladder", 2): ((49, 0, 49), (18, 6)),
    ("paired-ladder", 3): ((48, 0, 48), (18, 6)),
    ("paired-ladder", 4): ((44, 0, 44), (18, 6)),
    ("reversed-nested", 0): ((96, 0, 96), (12, 11)),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN))
def test_engine_stats_match_golden(kind, seed):
    inst = build(kind, 12, 5, seed)
    _, hull = hull_cover_fast(inst)
    _, box = box_cover_fast(inst)
    got = (
        (hull.rays_shot, hull.merges, hull.initial_edges),
        (box.queries, box.merges),
    )
    assert got == GOLDEN[kind, seed]
