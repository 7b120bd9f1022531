"""Pinned engine counters: a refactor of either engine must leave its
``--stats`` unchanged, not just its cover.

The values were computed by the engines before the hull engine's chord
bookkeeping became one set of live hull edges.
"""

import pytest

from treecover.boxcover import box_cover_fast
from treecover.generators import generate
from treecover.hullcover import hull_cover_fast

# (kind, seed) -> ((rays_shot, merges, initial_edges), (queries, merges))
# for generate(kind, trees=12, size=5, seed=seed)
GOLDEN = {
    ("strips", 0): ((51, 0, 51), (12, 0)),
    ("strips", 1): ((49, 0, 49), (12, 0)),
    ("strips", 2): ((49, 0, 49), (12, 0)),
    ("strips", 3): ((51, 0, 51), (12, 0)),
    ("strips", 4): ((50, 0, 50), (12, 0)),
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
    ("ladder", 0): ((46, 0, 46), (12, 0)),
    ("ladder", 1): ((47, 0, 47), (12, 0)),
    ("ladder", 2): ((53, 0, 53), (12, 0)),
    ("ladder", 3): ((47, 0, 47), (12, 0)),
    ("ladder", 4): ((49, 0, 49), (12, 0)),
}


@pytest.mark.parametrize("kind, seed", sorted(GOLDEN))
def test_engine_stats_match_golden(kind, seed):
    inst = generate(kind, trees=12, size=5, seed=seed)
    _, hull = hull_cover_fast(inst)
    _, box = box_cover_fast(inst)
    got = (
        (hull.rays_shot, hull.merges, hull.initial_edges),
        (box.queries, box.merges),
    )
    assert got == GOLDEN[kind, seed]
