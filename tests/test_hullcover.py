import fractions
import hashlib
import json
from fractions import Fraction

import pytest

from treecover import hullcover
from treecover.generators import generate
from treecover.geom import ConvexPolygon, chain_edges, convex_hull, hull_chains
from treecover.hullcover import (
    ComponentSet,
    NaiveRayShooter,
    HullStats,
    contained_in,
    hull_cover_fast,
    maximal_regions,
    weakly_disjoint,
)
from treecover.model import Instance
from treecover.phicover import PHI, MergePolicy, naive_phi_cover

from instances import INSTANCE_A, INSTANCE_B, INSTANCE_D, tree

HULL = PHI["hull"]


def make_shooter(obstacles):
    """Standalone shooter with integer-segment obstacles, one component per
    obstacle (ids 0, 1, ...) and one more, the last, that owns none."""
    comps = ComponentSet(len(obstacles) + 1)
    shooter = NaiveRayShooter(comps)
    for i, (a, b) in enumerate(obstacles):
        shooter.insert_segment(a, b, i)
    return shooter


def first_hit(shooter, origin, through):
    """The overall first hit ``(obstacle, n, d)`` of a shot by the last
    component, which owns none of the obstacles."""
    hit, _ = shooter.shoot_from(origin, through, len(shooter.components.parent) - 1)
    return hit


def t_point(origin, through, hit):
    """The exact parameter t = n / d of a hit and the point it names."""
    _, n, d = hit
    t = Fraction(n, d)
    (ox, oy), (tx, ty) = origin, through
    return t, (ox + t * (tx - ox), oy + t * (ty - oy))


class TestShootContract:
    def test_nearer_of_two(self):
        s = make_shooter([((2, -1), (2, 1)), ((5, -1), (5, 1))])
        hit = first_hit(s, (0, 0), (1, 0))
        assert hit is not None
        assert t_point((0, 0), (1, 0), hit) == (2, (2, 0))
        assert hit[0] == 0

    def test_endpoint_on_ray(self):
        s = make_shooter([((3, 0), (3, 5))])
        hit = first_hit(s, (0, 0), (1, 0))
        assert t_point((0, 0), (1, 0), hit) == (3, (3, 0))

    def test_escape_returns_none(self):
        s = make_shooter([((2, -1), (2, 1)), ((5, -1), (5, 1))])
        assert s.shoot_from((0, 0), (0, 1), 2) == (None, None)
        assert len(s) == 2  # an escaping ray inserts nothing

    def test_shot_ray_becomes_obstacle(self):
        s = make_shooter([((4, -2), (4, 2))])
        first = first_hit(s, (0, 0), (1, 0))  # ray [0,0]..[4,0] inserted
        assert t_point((0, 0), (1, 0), first)[1] == (4, 0)
        # a later vertical shot crossing the inserted ray stops at it
        second = first_hit(s, (2, -3), (2, 1))
        assert second is not None
        assert t_point((2, -3), (2, 1), second)[1] == (2, 0)
        assert second[0] == len(s) - 2  # the inserted ray

    def test_hits_at_t0_excluded(self):
        s = make_shooter([((0, -1), (0, 1))])  # passes through the origin
        hit = first_hit(s, (0, 0), (1, 0))
        assert hit is None

    def test_point_obstacle_hit_exactly(self):
        comps = ComponentSet(2)
        s = NaiveRayShooter(comps)
        s.insert_segment((5, 0), (5, 0), 0)  # a bare vertex
        hit = first_hit(s, (0, 0), (1, 0))
        assert t_point((0, 0), (1, 0), hit) == (5, (5, 0))
        assert first_hit(s, (0, 0), (1, 1)) is None

    def test_tie_breaks_to_lowest_id(self):
        # two obstacles touching the ray at the same point
        s = make_shooter([((3, 0), (3, 4)), ((3, 0), (5, 4))])
        hit = first_hit(s, (0, 0), (1, 0))
        assert t_point((0, 0), (1, 0), hit)[1] == (3, 0)
        assert hit[0] == 0


@pytest.mark.parametrize("x, blocked", [(2, True), (4, False), (6, False)])
def test_connecting_edge_check_flags_a_third_component_before_the_hit(x, blocked):
    """Tree 0 shoots from (0, 0) through (8, 0) and merges with tree 1 at
    (4, 0); tree 2's segment at x blocks the connecting edge only when it
    lies strictly before that hit."""
    comps = ComponentSet(3)
    s = NaiveRayShooter(comps)
    s.insert_segment((0, 0), (0, 1), 0)
    s.insert_segment((4, -1), (4, 1), 1)
    _, merge_hit = s.shoot_from((0, 0), (8, 0), 0)
    obstacle, n, d = merge_hit  # tree 1's segment, at (4, 0)
    assert obstacle == 1 and Fraction(n, d) == Fraction(1, 2)
    third = s.insert_segment((x, -1), (x, 1), 2)
    check = hullcover._assert_connecting_edge_clean
    if blocked:
        match = f"third-component obstacle {third} blocks"
        with pytest.raises(hullcover.InternalInvariantError, match=match):
            check(s, comps, (0, 0), (8, 0), n, d, 0, 1)
    else:
        check(s, comps, (0, 0), (8, 0), n, d, 0, 1)


class TestComponentSet:
    def test_union_find(self):
        c = ComponentSet(4)
        assert len({c.find(i) for i in range(4)}) == 4
        r = c.union(0, 1)
        assert len({c.find(i) for i in range(4)}) == 3
        assert c.find(0) == c.find(1) == r
        assert c.find(2) != r
        assert c.find(c.find(3)) == c.find(3)

    def test_self_union_rejected(self):
        c = ComponentSet(2)
        c.union(0, 1)
        with pytest.raises(AssertionError):
            c.union(0, 1)


class TestMaximalRegions:
    def test_containment(self):
        square = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        triangle = ConvexPolygon(((1, 1), (3, 1), (2, 2)))
        assert maximal_regions([square, triangle]) == [0, 0]

    def test_disjoint_all_maximal(self):
        tris = [
            ConvexPolygon(((0, 0), (2, 0), (1, 1))),
            ConvexPolygon(((5, 0), (7, 0), (6, 1))),
            ConvexPolygon(((10, 0), (12, 0), (11, 1))),
        ]
        assert maximal_regions(tris) == [0, 1, 2]

    def test_three_level_nesting(self):
        boxes = [
            ConvexPolygon(((0, 0), (20, 0), (20, 20), (0, 20))),
            ConvexPolygon(((2, 2), (18, 2), (18, 18), (2, 18))),
            ConvexPolygon(((5, 5), (15, 5), (15, 15), (5, 15))),
        ]
        # derived by brute-force pairwise containment
        pairs = [
            (i, j)
            for i in range(3)
            for j in range(3)
            if i != j and contained_in(boxes[i], boxes[j])
        ]
        assert pairs == [(1, 0), (2, 0), (2, 1)]
        assert maximal_regions(boxes) == [0, 0, 0]

    def test_point_region(self):
        square = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        pt = ConvexPolygon(((5, 5),))
        far = ConvexPolygon(((30, 30),))
        assert maximal_regions([square, pt, far]) == [0, 0, 2]


class TestWeaklyDisjoint:
    def test_two_crossings_true(self):
        p = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        q = ConvexPolygon(((2, 2), (6, 2), (6, 6), (2, 6)))
        assert weakly_disjoint(p, q)

    def test_four_crossings_false(self):
        # square and rotated square crossing in 8 points
        p = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        q = ConvexPolygon(((2, -1), (5, 2), (2, 5), (-1, 2)))
        from treecover.geom import boundary_intersection_points

        crossings = boundary_intersection_points(p, q)
        assert len(crossings.points) > 2  # brute-force crossing count
        assert not weakly_disjoint(p, q)

    def test_shared_vertex_false(self):
        p = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        q = ConvexPolygon(((4, 4), (8, 4), (8, 8), (4, 8)))
        assert not weakly_disjoint(p, q)

    def test_disjoint_true(self):
        p = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        q = ConvexPolygon(((10, 10), (12, 10), (12, 12)))
        assert weakly_disjoint(p, q)


def assert_budget(inst, stats: HullStats):
    assert stats.merges <= inst.m - 1
    assert stats.rays_shot <= stats.initial_edges + 2 * stats.merges + inst.m


class TestHullCoverFast:
    def test_instance_b_two_segments(self):
        cover, stats = hull_cover_fast(INSTANCE_B)
        assert len(cover.regions) == 2
        assert stats.merges == 0
        assert stats.rays_shot == 4  # two per degenerate segment hull
        assert stats.initial_edges == 4
        oracle, _ = naive_phi_cover(INSTANCE_B, HULL)
        assert cover.canonical() == oracle.canonical()

    def test_instance_a_nested_point_no_merge(self):
        cover, stats = hull_cover_fast(INSTANCE_A)
        assert len(cover.regions) == 1
        assert cover.regions[0] == ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        assert cover.membership == ((0, 1),)
        assert stats.merges == 0  # nesting resolved by maximal-region extraction
        oracle, _ = naive_phi_cover(INSTANCE_A, HULL)
        assert cover.canonical() == oracle.canonical()

    def test_instance_d_single_region(self):
        cover, stats = hull_cover_fast(INSTANCE_D, debug=True)
        assert len(cover.regions) == 1
        assert cover.regions[0] == ConvexPolygon(
            ((-2, 5), (0, 0), (10, 0), (10, 10), (0, 10))
        )
        assert cover.membership == ((0, 1, 2),)
        assert stats.merges == 1  # the interior point is nested, not unioned
        assert_budget(INSTANCE_D, stats)
        oracle, _ = naive_phi_cover(INSTANCE_D, HULL)
        assert cover.canonical() == oracle.canonical()

    def test_own_collinear_vertex_does_not_hide_foreign_blockage(self):
        # T1's vertex (5,0) lies on T1's own hull chord (0,0)-(10,0); the
        # foreign segment crosses that chord farther along at (7,0). The
        # shot must see through its own obstacle and still merge.
        star = tree(
            [(5, 5), (0, 0), (10, 0), (5, 0)], [(0, 1), (0, 2), (0, 3)]
        )
        inst = Instance((star, tree([(7, -3), (7, 1)])))
        from treecover.model import validate_instance, errors_only

        assert errors_only(validate_instance(inst)) == []
        cover, stats = hull_cover_fast(inst, debug=True)
        oracle, _ = naive_phi_cover(inst, HULL)
        assert cover.canonical() == oracle.canonical()
        assert len(cover.regions) == 1
        assert stats.merges == 1

    def test_touching_hulls_merge(self):
        # single vertex exactly on a foreign hull chord (not a tree edge)
        wedge = tree([(0, 0), (5, -5), (10, 0)])
        pt = tree([(5, 0)])
        inst = Instance((wedge, pt))
        cover, stats = hull_cover_fast(inst, debug=True)
        oracle, _ = naive_phi_cover(inst, HULL)
        assert cover.canonical() == oracle.canonical()
        assert len(cover.regions) == 1

    def test_trace_recording(self):
        trace = []
        cover, stats = hull_cover_fast(INSTANCE_D, trace=trace)
        assert len(trace) == stats.rays_shot
        assert sum(1 for t in trace if t["merge"]) == stats.merges
        for t in trace:
            assert set(t) == {"from", "to", "merge"}

    @pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder"])
    def test_oracle_equivalence_by_kind(self, kind):
        for seed in range(30):
            m = 2 + seed % 5
            size = 3 + seed % 5
            inst = generate(kind, trees=m, size=size, seed=seed)
            cover, stats = hull_cover_fast(inst)
            oracle, _ = naive_phi_cover(inst, HULL)
            assert cover.canonical() == oracle.canonical(), (kind, seed)
            assert_budget(inst, stats)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_arc_matches_oracle(self, m):
        inst = generate("arc", trees=m)
        cover, stats = hull_cover_fast(inst, debug=m <= 6)
        oracle, _ = naive_phi_cover(inst, HULL)
        assert cover.canonical() == oracle.canonical()
        assert_budget(inst, stats)

    @pytest.mark.parametrize("m", [2, 3, 12, 101, 400])
    def test_arc_merges_into_one_region(self, m):
        cover, stats = hull_cover_fast(generate("arc", trees=m))
        assert len(cover.regions) == 1
        assert stats.merges == m - 1

    def test_oracle_equivalence_debug_mode(self):
        for seed in range(6):
            inst = generate("combs", trees=4, size=4, seed=seed)
            cover, stats = hull_cover_fast(inst, debug=True)
            oracle, _ = naive_phi_cover(inst, HULL)
            assert cover.canonical() == oracle.canonical()

    def test_policy_independence_cross_check(self):
        for seed in range(5):
            inst = generate("combs", trees=5, size=4, seed=seed)
            cover, _ = hull_cover_fast(inst)
            for pseed in range(3):
                ocover, _ = naive_phi_cover(inst, HULL, MergePolicy.random_order(pseed))
                assert cover.canonical() == ocover.canonical()

    def test_single_tree(self):
        inst = Instance((tree([(0, 0), (3, 4), (6, 0)]),))
        cover, stats = hull_cover_fast(inst)
        assert cover.regions == (convex_hull([(0, 0), (3, 4), (6, 0)]),)
        assert stats.merges == 0

    def test_all_point_trees(self):
        inst = Instance((tree([(0, 0)]), tree([(5, 5)]), tree([(9, 1)])))
        cover, stats = hull_cover_fast(inst)
        assert len(cover.regions) == 3
        assert stats.rays_shot == 0
        oracle, _ = naive_phi_cover(inst, HULL)
        assert cover.canonical() == oracle.canonical()


class RecordingShooter(NaiveRayShooter):
    """Records each engine shot: its directed chord and whether that chord
    was an edge of the shooter's own live hull at that moment."""

    def __init__(self, components):
        super().__init__(components)
        self.shots = []

    def shoot_from(self, origin, through, own_root):
        own = chain_edges(*self.components.hull[own_root])
        self.shots.append(((origin, through), (origin, through) in own))
        return super().shoot_from(origin, through, own_root)


@pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder", "arc"])
def test_every_live_hull_edge_is_shot_exactly_once(kind):
    for seed in range(10):
        inst = generate(kind, trees=2 + 3 * seed, size=3 + seed % 4, seed=seed)
        shooters = []

        def factory(comps):
            shooters.append(RecordingShooter(comps))
            return shooters[0]

        _, stats = hull_cover_fast(inst, shooter_factory=factory)
        shooter = shooters[0]
        chords = [chord for chord, _ in shooter.shots]
        assert len(chords) == stats.rays_shot, (kind, seed)
        assert len(set(chords)) == len(chords), (kind, seed)
        assert all(on_hull for _, on_hull in shooter.shots), (kind, seed)
        comps = shooter.components
        roots = {comps.find(i) for i in range(inst.m)}
        final = {e for r in roots for e in chain_edges(*comps.hull[r])}
        assert final <= set(chords), (kind, seed)


# sha256 of json.dumps(trace) for generate(kind, trees=12, size=5, seed=seed),
# recorded while shots still built fractions for the trace's end points; the
# combs traces end rays at non-integer points
TRACE_GOLDEN = {
    ("combs", 0): "ab75100215e7b1a528ec2bc2468cbab41c77ee3db00f4c60a210564235f100b6",
    ("combs", 1): "187aefcc81f3f446c206e2e65516399b1d0497432a932d4d4542ddc656fdd771",
    ("combs", 2): "73f69230c069e10ca7158cc88bd6f143a3f0ecb72425d352fdc161370d3538ed",
    ("strips", 0): "5165bc6c3c5cf530886d277e34b22fbc36d69836a6e4f8ad5d8df18a419e0471",
    ("strips", 1): "079dcf3a74a27267c3252766847dc2e3f9db1c275cecc7307f86c4bfa1b6d865",
    ("strips", 2): "0a0642a0d1ed24a9b1d377a210c910ffd16aeaf31b6770232f7c9a5826e5ed13",
}


@pytest.mark.parametrize("kind, seed", sorted(TRACE_GOLDEN))
def test_shots_build_fractions_only_when_read(kind, seed, monkeypatch):
    """An engine run builds no Fraction, whether or not it records a trace
    (only the debug checks build them); the recorded trace is unchanged."""
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    # on the class itself, so that every Fraction is counted however its
    # builder imported the name
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    inst = generate(kind, trees=12, size=5, seed=seed)
    cover, stats = hull_cover_fast(inst)
    trace = []
    assert hull_cover_fast(inst, trace=trace) == (cover, stats)
    assert made == []
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest == TRACE_GOLDEN[kind, seed]


# sha256 of json.dumps(trace) for generate("arc", trees=trees), recorded
# while the engine still kept its live edges in a set of its own; arc's one
# hull keeps about m/3 vertices, so merges splice long chains
ARC_TRACE_GOLDEN = {
    12: "9f0f8b2ef7000068bb01bd5831b730f96a3e36e39009bb68b6c06d92496da783",
    60: "b0b15c63bfde86951dc7327509f97ff726b64b1d9b1ef76881aef1a165295370",
    240: "38a608c167cbcdb2a3c924f1b3df7858c11f9e3a3b626e3122674b32f3e57947",
}


@pytest.mark.parametrize("trees", sorted(ARC_TRACE_GOLDEN))
def test_shot_order_on_long_chains(trees):
    trace = []
    _, stats = hull_cover_fast(generate("arc", trees=trees), trace=trace)
    assert stats.merges == trees - 1
    digest = hashlib.sha256(json.dumps(trace).encode()).hexdigest()
    assert digest == ARC_TRACE_GOLDEN[trees]


def test_debug_checks_reject_crossing_hulls():
    """The debug checks pass disjoint and nested hulls and raise on two
    hulls that cross without nesting."""
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    inner = [(1, 1), (2, 1), (2, 2)]
    crossing = [(1, -1), (2, -1), (2, 5), (1, 5)]
    far = [(9, 9), (10, 9)]
    for others, ok in (([inner, far], True), ([crossing], False)):
        hulls = [convex_hull(square)] + [convex_hull(o) for o in others]
        comps = ComponentSet(len(hulls))
        comps.hull = {i: hull_chains(pts) for i, pts in enumerate([square] + others)}
        for check, arg in (
            (hullcover._assert_nested_or_disjoint, hulls),
            (hullcover._assert_live_weak_disjointness, comps),
        ):
            if ok:
                check(arg)
            else:
                with pytest.raises(hullcover.InternalInvariantError):
                    check(arg)
