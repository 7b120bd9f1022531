import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecover.boxcover import box_cover_fast
from treecover.generators import generate
from treecover.geom import AABB, ConvexPolygon, box_of, convex_hull
from treecover.model import Instance
from treecover.phicover import (
    PHI,
    MergePolicy,
    PolicyError,
    check_phi_properties,
    check_well_defined,
    compact_json,
    naive_phi_cover,
)

from instances import INSTANCE_A, INSTANCE_B, INSTANCE_D, INSTANCE_E, staircase, tree

HULL = PHI["hull"]
BOX = PHI["box"]
MINCIRCLE = PHI["mincircle"]


def forest_is_sound(forest, phi, instance):
    """Replays the history forest bottom-up and checks every invariant the
    forest carries: merge values, intersecting children, leaf bijection,
    partition of {0..m-1}, and the monotone containment chain."""
    leaves = [n for n in forest.all_nodes() if n.children is None]
    assert sorted(n.leaf for n in leaves) == list(range(instance.m))
    for n in leaves:
        expected = phi.apply_to_points(instance.trees[n.leaf].vertices)
        assert n.region == expected
    all_leafsets = [r.leaf_set() for r in forest.roots]
    assert sorted(i for ls in all_leafsets for i in ls) == list(range(instance.m))
    for n in forest.all_nodes():
        if n.children is not None:
            a, b = n.children
            assert phi.intersects(a.region, b.region)
            assert n.region == phi.merge(a.region, b.region)
            assert phi.region_contains(n.region, a.region)
            assert phi.region_contains(n.region, b.region)
    return True


def cover_is_valid(cover, phi, instance):
    """Cover invariants: pairwise disjoint regions, membership partitions
    the tree set, and each member tree lies inside its region."""
    for a, b in itertools.combinations(cover.regions, 2):
        assert not phi.intersects(a, b)
    flat = sorted(i for ms in cover.membership for i in ms)
    assert flat == list(range(instance.m))
    for region, members in zip(cover.regions, cover.membership):
        for i in members:
            for v in instance.trees[i].vertices:
                assert phi.contains_point(region, v)
    return True


class TestNaiveHull:
    def test_instance_a_square_absorbs_point(self):
        cover, forest = naive_phi_cover(INSTANCE_A, HULL)
        assert len(cover.regions) == 1
        assert cover.regions[0] == ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        assert cover.membership == ((0, 1),)
        assert forest_is_sound(forest, HULL, INSTANCE_A)
        assert cover_is_valid(cover, HULL, INSTANCE_A)

    def test_instance_b_disjoint_segments(self):
        cover, forest = naive_phi_cover(INSTANCE_B, HULL)
        assert len(cover.regions) == 2
        assert cover.regions == (
            ConvexPolygon(((0, 0), (1, 0))),
            ConvexPolygon(((5, 5), (6, 5))),
        )
        assert cover.membership == ((0,), (1,))
        assert forest.script() == ()

    def test_instance_d_single_pentagon(self):
        cover, forest = naive_phi_cover(INSTANCE_D, HULL)
        assert len(cover.regions) == 1
        assert cover.regions[0] == ConvexPolygon(
            ((-2, 5), (0, 0), (10, 0), (10, 10), (0, 10))
        )
        assert cover.membership == ((0, 1, 2),)
        assert forest_is_sound(forest, HULL, INSTANCE_D)
        assert cover_is_valid(cover, HULL, INSTANCE_D)

    def test_region_reconstruction(self):
        for seed in range(10):
            inst = generate("combs", trees=5, size=4, seed=seed)
            cover, _ = naive_phi_cover(inst, HULL)
            for region, members in zip(cover.regions, cover.membership):
                pts = [v for i in members for v in inst.trees[i].vertices]
                assert region == convex_hull(pts)


class TestNaiveBox:
    def test_instance_e(self):
        cover, forest = naive_phi_cover(INSTANCE_E, BOX)
        assert cover.regions == (AABB(0, -1, 5, 2), AABB(10, 10, 11, 12))
        assert cover.membership == ((0, 1), (2,))
        assert forest_is_sound(forest, BOX, INSTANCE_E)
        assert cover_is_valid(cover, BOX, INSTANCE_E)

    def test_region_reconstruction(self):
        for seed in range(10):
            inst = generate("combs", trees=5, size=4, seed=seed)
            cover, _ = naive_phi_cover(inst, BOX)
            for region, members in zip(cover.regions, cover.membership):
                pts = [v for i in members for v in inst.trees[i].vertices]
                assert region == box_of(pts)


class TestPolicies:
    def test_policies_agree_for_hull_and_box(self):
        for seed in range(8):
            inst = generate("combs", trees=5, size=4, seed=seed)
            for phi in (HULL, BOX):
                base, _ = naive_phi_cover(inst, phi)
                for pseed in range(5):
                    cover, _ = naive_phi_cover(
                        inst, phi, MergePolicy.random_order(pseed)
                    )
                    assert cover.canonical() == base.canonical()

    def test_scripted_replay(self):
        inst = generate("combs", trees=5, size=4, seed=2)
        cover, forest = naive_phi_cover(inst, HULL, MergePolicy.random_order(5))
        replay, _ = naive_phi_cover(inst, HULL, MergePolicy.scripted(forest.script()))
        assert replay == cover

    def test_history_deeper_than_the_recursion_limit(self):
        """A chain of m - 1 merges, each node the child of the next: the
        leaf sets, the forest walk and its wire form must not recurse per
        level."""
        m = 1100
        inst = generate("combs", trees=m, size=3, seed=1)
        chain = [(0, 1)] + [(k, m + k - 2) for k in range(2, m)]
        cover, forest = naive_phi_cover(inst, BOX, MergePolicy.scripted(chain))
        assert cover == box_cover_fast(inst)[0]
        assert len(forest.script()) == m - 1
        assert compact_json(forest.to_obj("box")).count('"children":') == m - 1

    def test_every_order_merges_the_staircase_in_one_chain(self):
        m = 30
        inst = staircase(m)
        chain = ((0, 1),) + tuple((k, m + k - 2) for k in range(2, m))
        for policy in [MergePolicy.first_found()] + [
            MergePolicy.random_order(seed) for seed in range(3)
        ]:
            cover, forest = naive_phi_cover(inst, BOX, policy)
            assert cover == box_cover_fast(inst)[0]
            assert tuple(tuple(sorted(p)) for p in forest.script()) == chain

    def test_scripted_invalid_pair_rejected(self):
        inst = generate("combs", trees=4, size=4, seed=2)
        with pytest.raises(PolicyError):
            naive_phi_cover(inst, HULL, MergePolicy.scripted([(0, 99)]))

    def test_input_order_invariance(self):
        inst = generate("combs", trees=5, size=4, seed=3)
        base, _ = naive_phi_cover(inst, HULL)
        perm = (3, 1, 4, 0, 2)
        shuffled = Instance(tuple(inst.trees[p] for p in perm))
        cover, _ = naive_phi_cover(shuffled, HULL)
        # same regions; membership relabeled through the permutation
        assert [r for r in cover.regions] == [r for r in base.regions]
        relabeled = tuple(
            tuple(sorted(perm.index(i) for i in ms)) for ms in base.membership
        )
        assert set(cover.membership) == set(relabeled)


class TestWellDefined:
    def test_instance_d_hull(self):
        verdict = check_well_defined(INSTANCE_D, HULL, trials=50, seed=0)
        assert verdict.well_defined
        assert verdict.runs == 51

    def test_single_tree_any_phi(self):
        single = Instance((tree([(0, 0), (3, 1)]),))
        for phi in (HULL, BOX, MINCIRCLE):
            assert check_well_defined(single, phi, trials=2).well_defined

    def test_mincircle_gadget_exhaustive_witness(self):
        inst = generate("mincircle-gadget")
        verdict = check_well_defined(inst, MINCIRCLE, exhaustive=True)
        assert not verdict.well_defined
        w = verdict.witness
        assert w is not None
        assert w.cover_a.canonical() != w.cover_b.canonical()
        # the witness scripts replay to their covers
        ra, _ = naive_phi_cover(
            inst, MINCIRCLE, MergePolicy.scripted(w.policy_a["script"])
        )
        rb, _ = naive_phi_cover(
            inst, MINCIRCLE, MergePolicy.scripted(w.policy_b["script"])
        )
        assert ra.canonical() == w.cover_a.canonical()
        assert rb.canonical() == w.cover_b.canonical()

    def test_exhaustive_rejected_for_large_m(self):
        inst = generate("strips", trees=7, size=3, seed=0)
        with pytest.raises(ValueError, match="m <= 6"):
            check_well_defined(inst, HULL, exhaustive=True)

    def test_exhaustive_hull_well_defined(self):
        verdict = check_well_defined(INSTANCE_D, HULL, exhaustive=True)
        assert verdict.well_defined


class TestPhiProperties:
    def test_hull_properties_pass(self):
        report = check_phi_properties(HULL, samples=300, seed=1)
        assert report.property1_ok, report.property1_witness
        assert report.property2_ok, report.property2_witness

    def test_box_properties_pass(self):
        report = check_phi_properties(BOX, samples=300, seed=1)
        assert report.property1_ok
        assert report.property2_ok

    def test_mincircle_property2_fails_with_witness(self):
        b = [(1, 0), (-1, 0)]
        a = [(0, 1), (1, 0)]
        report = check_phi_properties(
            MINCIRCLE, samples=50, seed=1, pair_samples=[(b, a)]
        )
        assert not report.property2_ok
        wb, wa, rb, ra = report.property2_witness
        assert set(wb) == set(map(tuple, b))
        assert set(wa) == set(map(tuple, a))
        # the witness circle reaches sqrt(2) from the origin against radius 1
        import math

        reach = math.dist((rb.cx, rb.cy), (ra.cx, ra.cy)) + ra.r
        assert reach > rb.r + 1e-6
        assert reach == pytest.approx(math.sqrt(2), abs=1e-9)
        assert rb.r == pytest.approx(1.0, abs=1e-9)


# the values json.dumps writes: scalars (non-ASCII strings and non-finite
# floats included), lists, tuples, and dicts with keys of every type it
# accepts
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(json_scalars, inner, max_size=3),
    ),
    max_leaves=12,
)


class TestCompactJson:
    @given(json_values)
    @settings(max_examples=300)
    def test_same_bytes_as_json_dumps(self, value):
        assert compact_json(value) == json.dumps(value, separators=(",", ":"))

    def test_nesting_deeper_than_the_recursion_limit(self):
        deep: list = []
        for _ in range(5000):
            deep = [deep, {"k": 1}]
        text = compact_json({"x": deep})
        assert text == '{"x":' + "[" * 5001 + "]" + ',{"k":1}]' * 5000 + "}"
