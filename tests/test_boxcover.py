import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecover.boxcover import (
    DuplicateBoxIdError,
    LinearSegmentRangeIndex,
    box_cover_fast,
    maximal_boxes,
)
from treecover.generators import generate
from treecover.geom import AABB, boxes_disjoint
from treecover.model import GENERATOR_KINDS, Instance, errors_only, validate_instance
from treecover.phicover import PHI, naive_phi_cover

from box_checks import CountingRangeIndex, assert_inserted_and_deleted_at_most_once
from instances import (
    BOX_INDEX_KINDS,
    INSTANCE_A,
    INSTANCE_B,
    INSTANCE_E,
    SPLIT_KINDS,
    build,
    reversed_trees,
    tree,
)

BOX = PHI["box"]


class TestRangeIndex:
    def test_boundary_query_semantics(self):
        idx = LinearSegmentRangeIndex()
        idx.insert_box(0, AABB(0, 0, 10, 10))
        # rectangle overlapping the boundary
        assert idx.query(AABB(8, 8, 12, 12)) == {0}
        # rectangle strictly inside: the box contains it, so it meets it
        assert idx.query(AABB(3, 3, 4, 4)) == {0}
        # rectangle containing the whole box: its segments are inside
        assert idx.query(AABB(-5, -5, 15, 15)) == {0}
        # touching counts (closed semantics)
        assert idx.query(AABB(10, 10, 12, 12)) == {0}
        # disjoint
        assert idx.query(AABB(20, 20, 22, 22)) == set()

    def test_degenerate_boxes(self):
        idx = LinearSegmentRangeIndex()
        idx.insert_box(0, AABB(5, 5, 5, 5))  # point box
        idx.insert_box(1, AABB(0, 7, 4, 7))  # segment box
        assert idx.query(AABB(5, 5, 6, 6)) == {0}
        assert idx.query(AABB(2, 6, 3, 8)) == {1}
        assert idx.query(AABB(4, 7, 5, 8)) == {1}

    def test_insert_delete_inverse(self):
        idx = LinearSegmentRangeIndex()
        idx.insert_box(0, AABB(0, 0, 1, 1))
        assert idx.query(AABB(0, 0, 2, 2)) == {0}
        idx.delete_box(0)
        assert idx.query(AABB(0, 0, 2, 2)) == set()

    def test_duplicate_insert_rejected(self):
        idx = LinearSegmentRangeIndex()
        idx.insert_box(0, AABB(0, 0, 1, 1))
        with pytest.raises(DuplicateBoxIdError):
            idx.insert_box(0, AABB(2, 2, 3, 3))

    def test_missing_delete_rejected(self):
        idx = LinearSegmentRangeIndex()
        with pytest.raises(KeyError):
            idx.delete_box(7)


class TestMaximalBoxes:
    def test_nested(self):
        assert maximal_boxes([AABB(0, 0, 10, 10), AABB(2, 2, 3, 3)]) == [0, 0]

    def test_disjoint(self):
        boxes = [AABB(0, 0, 1, 1), AABB(5, 5, 6, 6), AABB(9, 0, 10, 1)]
        assert maximal_boxes(boxes) == [0, 1, 2]

    def test_three_level_nesting(self):
        boxes = [
            AABB(0, 0, 20, 20),
            AABB(2, 2, 18, 18),
            AABB(5, 5, 15, 15),
        ]
        # brute-force pairwise strict containment
        contained = [
            (i, j)
            for i in range(3)
            for j in range(3)
            if i != j and boxes[j].strictly_contains_box(boxes[i])
        ]
        assert contained == [(1, 0), (2, 0), (2, 1)]
        assert maximal_boxes(boxes) == [0, 0, 0]


class TestBoxCoverFast:
    def test_instance_e(self):
        cover, stats = box_cover_fast(INSTANCE_E)
        assert cover.regions == (AABB(0, -1, 5, 2), AABB(10, 10, 11, 12))
        assert cover.membership == ((0, 1), (2,))
        assert stats.merges == 1
        assert stats.queries == 4
        oracle, _ = naive_phi_cover(INSTANCE_E, BOX)
        assert cover.canonical() == oracle.canonical()

    def test_instance_b_disjoint(self):
        cover, stats = box_cover_fast(INSTANCE_B)
        assert len(cover.regions) == 2
        assert stats.merges == 0
        oracle, _ = naive_phi_cover(INSTANCE_B, BOX)
        assert cover.canonical() == oracle.canonical()

    def test_nested_point_box_joins_its_container(self):
        cover, stats = box_cover_fast(INSTANCE_A)
        assert cover.regions == (AABB(0, 0, 10, 10),)
        assert cover.membership == ((0, 1),)
        # the point's query finds the square that contains it and stops
        assert stats.merges == 1
        assert stats.queries == 2
        oracle, _ = naive_phi_cover(INSTANCE_A, BOX)
        assert cover.canonical() == oracle.canonical()

    def test_outer_box_absorbs_nested_when_processed_later(self):
        # reversed order: the square is processed after the point, so its
        # query finds the nested point box and absorbs it
        inst = Instance((tree([(5, 5)]), tree([(0, 0), (10, 0), (10, 10), (0, 10)])))
        cover, stats = box_cover_fast(inst)
        assert cover.regions == (AABB(0, 0, 10, 10),)
        assert cover.membership == ((0, 1),)
        assert stats.merges == 1

    @pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder", "cross", "diag"])
    def test_oracle_equivalence_by_kind(self, kind):
        for seed in range(30):
            m = 2 + seed % 5
            size = 3 + seed % 5
            inst = generate(kind, trees=m, size=size, seed=seed)
            for order in (inst, reversed_trees(inst)):
                cover, stats = box_cover_fast(order)
                oracle, _ = naive_phi_cover(order, BOX)
                assert cover.canonical() == oracle.canonical(), (kind, seed)

    @pytest.mark.parametrize("kind", BOX_INDEX_KINDS)
    def test_box_index_families(self, kind):
        # validator-clean; at 40 trees the cover is the naive one, and at
        # 1,000 trees, where the grids walk sorted keys and row-major twins,
        # cover and stats are the linear scan's
        small, big = build(kind, 40), build(kind, 1000)
        for inst in (small, big):
            assert errors_only(validate_instance(inst)) == [], kind
        oracle, _ = naive_phi_cover(small, BOX)
        assert box_cover_fast(small)[0].canonical() == oracle.canonical(), kind
        linear = box_cover_fast(big, index_factory=LinearSegmentRangeIndex)
        assert box_cover_fast(big) == linear, kind

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_merges_count_the_absorbed_trees(self, kind):
        # every absorb joins two disjoint stored boxes' trees, nested ones
        # included, so the merges are those of the naive fixpoint
        for seed in range(5):
            inst = generate(kind, trees=2 + 2 * seed, size=4, seed=seed)
            for order in (inst, reversed_trees(inst)):
                cover, stats = box_cover_fast(order)
                _, forest = naive_phi_cover(order, BOX)
                merges = order.m - len(cover.regions)
                assert stats.merges == merges == len(forest.script()), (kind, seed)

    def test_query_stops_at_a_container(self):
        # k unit segments in a row, then an L whose box lies above them,
        # then k points in the L's box: each point's one hit contains it,
        # so its query is not repeated with the L's box
        k = 200
        segments = [tree([(10 * i, 0), (10 * i + 1, 1)]) for i in range(k)]
        ell = tree([(10 * k, 10), (0, 10), (0, 10 + 10 * k)])
        points = [tree([(10 * i + 5, 20 + 10 * i)]) for i in range(k)]
        inst = Instance(tuple(segments + [ell] + points))
        cover, stats = box_cover_fast(inst)
        assert stats.queries == inst.m
        assert stats.merges == k
        assert len(cover.regions) == k + 1
        assert (k, *range(k + 1, 2 * k + 1)) in cover.membership

    def test_input_order_invariance(self):
        inst = generate("combs", trees=6, size=4, seed=11)
        base, _ = box_cover_fast(inst)
        perm = (5, 2, 0, 4, 1, 3)
        shuffled = Instance(tuple(inst.trees[p] for p in perm))
        cover, _ = box_cover_fast(shuffled)
        assert [r for r in cover.regions] == [r for r in base.regions]
        relabeled = {
            tuple(sorted(perm.index(i) for i in ms)) for ms in base.membership
        }
        assert set(cover.membership) == relabeled

    def test_region_reconstruction(self):
        from treecover.geom import box_of

        for seed in range(10):
            inst = generate("combs", trees=5, size=4, seed=seed)
            cover, _ = box_cover_fast(inst)
            for region, members in zip(cover.regions, cover.membership):
                pts = [v for i in members for v in inst.trees[i].vertices]
                assert region == box_of(pts)

    def test_insert_delete_discipline(self):
        for seed in range(10):
            inst = generate("combs", trees=5, size=4, seed=seed)
            index = CountingRangeIndex()
            box_cover_fast(inst, index_factory=lambda: index)
            assert_inserted_and_deleted_at_most_once(index)


@given(
    st.sampled_from(SPLIT_KINDS),
    st.integers(1, 8),
    st.integers(2, 6),
    st.integers(0, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_box_regions_split_the_hull_cover(kind, trees, size, seed):
    """Every hull-cover region's trees lie in one box region, so a tree
    alone in its box region is its own hull region (the naive hull cover is
    the reference). Every tree is alone exactly when no two tree boxes
    meet, when the hull engine shoots nothing."""
    inst = build(kind, trees, size, seed)
    regions = box_cover_fast(inst)[0].membership
    region_of = {i: k for k, ms in enumerate(regions) for i in ms}
    assert sorted(region_of) == list(range(inst.m))
    assert boxes_disjoint(inst.tree_boxes()) == (len(regions) == inst.m)
    hull, _ = naive_phi_cover(inst, PHI["hull"])
    for ms in hull.membership:
        assert len({region_of[i] for i in ms}) == 1, (kind, ms)
    for ms in regions:
        if len(ms) == 1:
            assert tuple(ms) in hull.membership, (kind, ms)
