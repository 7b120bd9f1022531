import fractions
import hashlib
import json
from fractions import Fraction

import pytest

from treecover import _kernelpy, hullcover
from treecover.boxcover import LinearSegmentRangeIndex, box_cover_fast
from treecover.generators import generate
from treecover.geom import (
    AABB,
    ConvexPolygon,
    boxes_disjoint,
    chain_edges,
    convex_hull,
    hull_chains,
    orient,
)
from treecover.hullcover import (
    ComponentSet,
    NaiveRayShooter,
    HullStats,
    contained_in,
    hull_cover_fast,
    maximal_regions,
)
from treecover.model import Instance
from treecover.phicover import PHI, MergePolicy, naive_phi_cover

from hull_checks import (
    assert_connecting_edge_clean,
    assert_live_weak_disjointness,
    assert_nested_or_disjoint,
    boundary_intersection_points,
    covered_hull_edges,
    hull_cover_checked,
    weakly_disjoint,
)
from instances import (
    INSTANCE_A,
    INSTANCE_B,
    INSTANCE_BARE,
    INSTANCE_D,
    SPLIT_KINDS,
    build,
    diagdots,
    mixed,
    reversed_trees,
    tree,
)
from scan_oracle import segment_record

HULL = PHI["hull"]


def make_shooter(obstacles):
    """Standalone shooter with integer-segment obstacles, one component per
    obstacle (ids 0, 1, ...) and one more, the last, that owns none."""
    comps = ComponentSet(len(obstacles) + 1)
    return NaiveRayShooter(
        comps, [segment_record(a, b, i) for i, (a, b) in enumerate(obstacles)]
    )


def first_hit(shooter, origin, through):
    """The overall first hit ``(obstacle, n, d)`` on the chord from origin to
    through, shot by the last component, which owns none of the obstacles."""
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
        hit = first_hit(s, (0, 0), (5, 0))
        assert hit is not None
        assert t_point((0, 0), (5, 0), hit) == (Fraction(2, 5), (2, 0))
        assert hit[0] == 0

    def test_endpoint_on_ray(self):
        s = make_shooter([((3, 0), (3, 5))])
        hit = first_hit(s, (0, 0), (3, 0))
        assert t_point((0, 0), (3, 0), hit) == (1, (3, 0))

    def test_escape_returns_none(self):
        """A chord that misses every obstacle, or stops short of the nearest
        one, hits nothing and inserts nothing."""
        s = make_shooter([((2, -1), (2, 1)), ((5, -1), (5, 1))])
        assert s.shoot_from((0, 0), (0, 1), 2) == (None, None)
        assert s.shoot_from((0, 0), (1, 0), 2) == (None, None)
        assert len(s) == 2

    def test_shot_ray_becomes_obstacle(self):
        s = make_shooter([((4, -2), (4, 2))])
        first = first_hit(s, (0, 0), (4, 0))  # ray [0,0]..[4,0] inserted
        assert t_point((0, 0), (4, 0), first)[1] == (4, 0)
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
        s = make_shooter([((5, 0), (5, 0))])  # a bare vertex
        hit = first_hit(s, (0, 0), (10, 0))
        assert t_point((0, 0), (10, 0), hit) == (Fraction(1, 2), (5, 0))
        assert first_hit(s, (0, 0), (10, 10)) is None

    def test_tie_breaks_to_lowest_id(self):
        # two obstacles touching the chord at the same point
        s = make_shooter([((3, 0), (3, 4)), ((3, 0), (5, 4))])
        hit = first_hit(s, (0, 0), (6, 0))
        assert t_point((0, 0), (6, 0), hit)[1] == (3, 0)
        assert hit[0] == 0


@pytest.mark.parametrize("x, blocked", [(2, True), (4, False), (6, False)])
def test_connecting_edge_check_flags_a_third_component_before_the_hit(x, blocked):
    """Tree 0 shoots from (0, 0) through (8, 0) and merges with tree 1 at
    (4, 0); tree 2's segment at x, placed in the store after the shot,
    blocks the connecting edge only when it lies strictly before that
    hit."""
    comps = ComponentSet(3)
    s = NaiveRayShooter(
        comps, [segment_record((0, 0), (0, 1), 0), segment_record((4, -1), (4, 1), 1)]
    )
    _, merge_hit = s.shoot_from((0, 0), (8, 0), 0)
    obstacle, n, d = merge_hit  # tree 1's segment, at (4, 0)
    assert obstacle == 1 and Fraction(n, d) == Fraction(1, 2)
    s.obstacles.append(segment_record((x, -1), (x, 1), 2))
    third = len(s) - 1
    check = assert_connecting_edge_clean
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
        points, _ = boundary_intersection_points(p, q)
        assert len(points) > 2  # brute-force crossing count
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
        # the two segments' boxes do not meet, so neither shoots
        cover, stats = hull_cover_fast(INSTANCE_B)
        assert len(cover.regions) == 2
        assert stats == (0, 0, 0)
        oracle, _ = naive_phi_cover(INSTANCE_B, HULL)
        assert cover.canonical() == oracle.canonical()
        # two segments whose boxes meet but whose hulls do not: each
        # degenerate hull's two directed edges run along the tree's own
        # edge, so neither is queued (before that skip: 4 shots, 4 queued)
        inst = Instance((tree([(0, 0), (4, 2)]), tree([(3, -1), (5, 1)])))
        cover, stats = hull_cover_fast(inst)
        assert len(cover.regions) == 2
        assert stats == (0, 0, 0)
        oracle, _ = naive_phi_cover(inst, HULL)
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
        cover, stats = hull_cover_checked(INSTANCE_D)
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
        cover, stats = hull_cover_checked(inst)
        oracle, _ = naive_phi_cover(inst, HULL)
        assert cover.canonical() == oracle.canonical()
        assert len(cover.regions) == 1
        assert stats.merges == 1

    def test_touching_hulls_merge(self):
        # single vertex exactly on a foreign hull chord (not a tree edge)
        wedge = tree([(0, 0), (5, -5), (10, 0)])
        pt = tree([(5, 0)])
        inst = Instance((wedge, pt))
        cover, stats = hull_cover_checked(inst)
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

    @pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder", "cross", "diag"])
    def test_oracle_equivalence_by_kind(self, kind):
        for seed in range(30):
            m = 2 + seed % 5
            size = 3 + seed % 5
            inst = generate(kind, trees=m, size=size, seed=seed)
            for order in (inst, reversed_trees(inst)):
                cover, stats = hull_cover_fast(order)
                oracle, _ = naive_phi_cover(order, HULL)
                assert cover.canonical() == oracle.canonical(), (kind, seed)
                assert_budget(order, stats)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_arc_matches_oracle(self, m):
        inst = generate("arc", trees=m)
        cover, stats = (hull_cover_checked if m <= 6 else hull_cover_fast)(inst)
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
            cover, stats = hull_cover_checked(inst)
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


def neighbours(t):
    """The ``nbrs`` map of a tree that ``hullcover.tree_covers`` reads."""
    nbrs = {}
    for a, b in t.edges:
        p, q = t.vertices[a], t.vertices[b]
        nbrs.setdefault(p, []).append(q)
        nbrs.setdefault(q, []).append(p)
    return nbrs


# a triangle path (0, 0) - (4, 0) - (6, 0) - (10, 0) whose base has a gap
# between (4, 0) and (6, 0), bridged through the apex (5, 5); a foreign
# segment crosses the base in the gap, so the base's shot is the only one
# that finds the overlap
GAP = tree(
    [(0, 0), (4, 0), (5, 5), (6, 0), (10, 0)], [(0, 1), (1, 2), (2, 3), (3, 4)]
)
GAP_CROSSING = tree([(5, -3), (5, 1)])


class TestTreeCovers:
    """``tree_covers`` against its oracle ``covered_hull_edges``, and the
    engine's worklist: each tree shares its box region with a point inside
    its hull, so its uncovered hull edges are queued and shot."""

    def run(self, t, uncovered):
        inst = Instance((t, tree([(3, 1)])))
        covered = covered_hull_edges(inst)
        nbrs = neighbours(t)
        edges = chain_edges(*hull_chains(t.vertices))
        assert {e for e in edges if hullcover.tree_covers(nbrs, *e)} == covered
        assert [e for e in edges if e not in covered] == uncovered
        cover, stats, shooter = recorded_run(inst)
        assert [shot[0] for shot in shooter.shots] == uncovered
        assert stats == (len(uncovered), 0, len(uncovered))
        assert cover.canonical() == naive_phi_cover(inst, HULL)[0].canonical()

    def test_tree_edge_is_skipped(self):
        self.run(tree([(0, 0), (10, 0), (10, 10)]), [((10, 10), (0, 0))])

    def test_run_of_collinear_edges_is_skipped(self):
        t = tree([(0, 0), (3, 0), (7, 0), (10, 0), (10, 10)])
        self.run(t, [((10, 10), (0, 0))])
        # the same run, its middle vertex reached last
        edges = [(0, 1), (2, 4), (2, 3), (1, 4)]
        t = tree([(0, 0), (3, 0), (10, 0), (10, 10), (7, 0)], edges)
        self.run(t, [((10, 10), (0, 0))])

    def test_degenerate_segment_hull_drops_both_directions(self):
        path = tree([(0, 0), (2, 1), (4, 2)])
        inst = Instance((path, tree([(3, -1), (5, 1)])))
        assert covered_hull_edges(inst) == {
            ((0, 0), (4, 2)),
            ((4, 2), (0, 0)),
            ((3, -1), (5, 1)),
            ((5, 1), (3, -1)),
        }
        cover, stats = hull_cover_fast(inst)
        assert stats == (0, 0, 0)
        assert cover.canonical() == naive_phi_cover(inst, HULL)[0].canonical()

    def test_collinear_vertices_with_a_gap_are_shot(self):
        # the base's vertices are collinear, but not joined along it
        self.run(GAP, [((0, 0), (10, 0)), ((10, 0), (5, 5)), ((5, 5), (0, 0))])
        star = tree([(5, 5), (0, 0), (5, 0), (10, 0)], [(0, 1), (0, 2), (0, 3)])
        self.run(star, [((0, 0), (10, 0))])

    def test_the_shot_across_a_gap_merges(self, monkeypatch):
        """Only the gap's base finds the crossing segment; a coverage test
        that takes the first collinear step for the whole run skips it and
        loses the merge, and the cover then differs from the oracle."""
        inst = Instance((GAP, GAP_CROSSING))
        oracle = naive_phi_cover(inst, HULL)[0].canonical()
        cover, stats = hull_cover_checked(inst)
        assert (cover.canonical(), stats.merges) == (oracle, 1)

        def first_step(nbrs, p, q):
            # every tree vertex on the line pq lies on the hull edge [p, q]
            return any(orient(p, q, n) == 0 for n in nbrs[p])

        monkeypatch.setattr(hullcover, "tree_covers", first_step)
        cover, stats = hull_cover_fast(inst)
        assert (cover.canonical() != oracle, stats.merges) == (True, 0)


@pytest.mark.parametrize("kind", ["combs", "arc"])
def test_skipping_every_hull_edge_fails_the_oracle_test(kind, monkeypatch):
    """Negative control for the differential tests: an engine whose coverage
    test covers every hull edge disagrees with ``naive_phi_cover``."""
    monkeypatch.setattr(hullcover, "tree_covers", lambda nbrs, p, q: True)
    wrong = 0
    for seed in range(5):
        inst = generate(kind, trees=3 + seed, size=4, seed=seed)
        cover, _ = hull_cover_fast(inst)
        wrong += cover.canonical() != naive_phi_cover(inst, HULL)[0].canonical()
    assert wrong == 5


def test_shot_counts_grow_at_most_linearly():
    """Counts, not times: ``diag``'s hull edges are all tree edges, so it
    shoots nothing at any size. A ``nested`` ring shoots the chord across
    its opening, and a few small inner rings, whose rounded vertices are
    not all on their hull, a few more chords: at most 2m shots for m rings,
    while the rings' vertices grow from 800 to 6,400 (every hull edge was
    shot before covered edges were skipped, 6,308 at m = 160)."""
    for m in (100, 1000):
        assert hull_cover_fast(generate("diag", trees=m))[1].rays_shot == 0
    for m in (40, 160):
        assert m <= hull_cover_fast(generate("nested", trees=m))[1].rays_shot <= 2 * m


def test_hull_runs_make_no_range_index_query(monkeypatch):
    """Counts, not times: the hull engine queries no range index (the box
    pass that it once ran first made ``cross`` quadratic). On ``cross``,
    ``strips`` and ``ladder`` no two tree boxes meet, so every tree is a
    region of its own and nothing is shot."""
    queries = []
    query = LinearSegmentRangeIndex.query

    def counted(self, rect):
        queries.append(rect)
        return query(self, rect)

    monkeypatch.setattr(LinearSegmentRangeIndex, "query", counted)
    for kind in ("cross", "strips", "ladder"):
        for m in (1000, 10000):
            cover, stats = hull_cover_fast(build(kind, m, 5, 1))
            assert (len(cover.regions), stats) == (m, (0, 0, 0))
    for kind in SPLIT_KINDS:
        for order in ("", "reversed-"):
            hull_cover_fast(build(order + kind, 40, 5, 1))
    assert queries == []
    box_cover_fast(build("mixed", 4, 5, 1))
    assert queries


@pytest.mark.parametrize("kind", SPLIT_KINDS)
@pytest.mark.parametrize("order", ["", "reversed-"], ids=["given", "reversed"])
def test_the_box_pass_agrees_with_the_disjoint_boxes_shortcut(kind, order, monkeypatch):
    """The shortcut taken when no two tree boxes meet changes no cover: with
    ``boxes_disjoint`` patched to report a meeting pair, the engine runs
    every tree through the grid, the worklist and extraction, and its cover
    is unchanged. Where the shortcut applies, that run merges nothing;
    elsewhere the patch changes nothing, stats and trace included."""
    for seed in range(3):
        inst = build(order + kind, 12, 4, seed)
        trace = []
        cover, stats = hull_cover_fast(inst, trace=trace)
        with monkeypatch.context() as patch:
            patch.setattr(hullcover, "boxes_disjoint", lambda boxes: False)
            whole = []
            whole_cover, whole_stats = hull_cover_fast(inst, trace=whole)
        assert whole_cover == cover, (kind, seed)
        if boxes_disjoint(inst.tree_boxes()):
            assert (stats, trace, whole_stats.merges) == ((0, 0, 0), [], 0), (kind, seed)
        else:
            assert (whole_stats, whole) == (stats, trace), (kind, seed)


class RecordingShooter(NaiveRayShooter):
    """Records each engine shot: its directed chord, whether that chord was
    an edge of the shooter's own live hull at that moment, and its hit and
    merge hit, each as the obstacle's record and the exact parameter (not
    the obstacle's id, which counts the rays stored before it)."""

    def __init__(self, components, obstacles):
        super().__init__(components, obstacles)
        self.shots = []

    def shoot_from(self, origin, through, own_root):
        own = chain_edges(*self.components.hull[own_root])
        hit, merge_hit = super().shoot_from(origin, through, own_root)
        hits = [
            None if h is None else (self.obstacles[h[0]], Fraction(h[1], h[2]))
            for h in (hit, merge_hit)
        ]
        self.shots.append(((origin, through), (origin, through) in own, *hits))
        return hit, merge_hit


def recorded_run(inst, trace=None):
    """``hull_cover_fast`` with a ``RecordingShooter``: (cover, stats,
    shooter). A run that makes no shooter, where no two tree boxes meet,
    returns an empty one."""
    shooters = []

    def factory(comps, obstacles):
        shooters.append(RecordingShooter(comps, obstacles))
        return shooters[0]

    cover, stats = hull_cover_fast(inst, shooter_factory=factory, trace=trace)
    shooter = shooters[0] if shooters else RecordingShooter(ComponentSet(0), [])
    return cover, stats, shooter


def never_covered(monkeypatch):
    """Patches the engine's coverage test to queue every hull edge, as the
    engine did before it skipped the edges that a tree's own edges cover."""
    monkeypatch.setattr(hullcover, "tree_covers", lambda nbrs, p, q: False)


@pytest.mark.parametrize("kind", SPLIT_KINDS)
def test_every_live_hull_edge_is_shot_exactly_once(kind):
    """Each edge of a live hull is shot at most once, and every edge of a
    final hull that its own tree's edges do not cover is shot; a covered
    edge is never shot, and where no two tree boxes meet nothing is."""
    for seed in range(10):
        inst = build(kind, 2 + 3 * seed, 3 + seed % 4, seed)
        _, stats, shooter = recorded_run(inst)
        chords = [shot[0] for shot in shooter.shots]
        assert len(chords) == stats.rays_shot, (kind, seed)
        assert len(set(chords)) == len(chords), (kind, seed)
        assert all(shot[1] for shot in shooter.shots), (kind, seed)
        covered = covered_hull_edges(inst)
        assert covered.isdisjoint(chords), (kind, seed)
        if boxes_disjoint(inst.tree_boxes()):
            assert (chords, stats) == ([], (0, 0, 0)), (kind, seed)
            continue
        # the hulls of the live components, keyed by their roots
        hulls = shooter.components.hull.values()
        final = {e for hull in hulls for e in chain_edges(*hull)}
        assert final - covered <= set(chords), (kind, seed)


def digest(trace):
    return hashlib.sha256(json.dumps(trace).encode()).hexdigest()


# sha256 of json.dumps(trace) for build(kind, trees=12, size=5, seed=seed):
# (before, since) the engine skipped the hull edges that a tree's own edges
# cover. The combs "before" traces end rays at non-integer points, and were
# recorded while shots still built fractions for the trace's end points.
# No two strips tree boxes meet, so nothing is shot and the trace is empty
# (the sha256 of "[]"). The paired "before" traces were recorded before the
# engine split the forest by its box regions, and did not change with it.
TRACE_GOLDEN = {
    ("combs", 0): (
        "ab75100215e7b1a528ec2bc2468cbab41c77ee3db00f4c60a210564235f100b6",
        "44274a1b35a715127c4d3a416e2d343a7eee52f1f8a5d28a2b946b7122c3dca1",
    ),
    ("combs", 1): (
        "187aefcc81f3f446c206e2e65516399b1d0497432a932d4d4542ddc656fdd771",
        "3ad69d5a50175988022eac1d75398b3094c1916866f111f15257d48edaf0fce3",
    ),
    ("combs", 2): (
        "73f69230c069e10ca7158cc88bd6f143a3f0ecb72425d352fdc161370d3538ed",
        "b02962b99499969e14ec5c3e2e03fe26575de05cfe5065998aa401753fa565ac",
    ),
    ("strips", 0): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("strips", 1): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("strips", 2): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    ("paired-strips", 0): (
        "098febc2c6d8c3d93175097729220b72b1e97b91b2e9cbeac45f73a99950dd1f",
        "51b31e85e3bba63042d312cb86d3f0c838e53bc7e496e74d4826b7b31d7adb7c",
    ),
    ("paired-strips", 1): (
        "7ce1de49bf1ba449cbde63e73b4f42c6eb3e0c02a2321f3da4ca4567e640f0de",
        "07a8ac68ff6c28ee6697f8e5b32b7c0ad82d1400cee69e84cd91cb812497ed13",
    ),
    ("paired-strips", 2): (
        "6e9ade8b4fbe7e4357c7169d976624f6931cd934fa98361cb31bf0fd5e7a2ff4",
        "909cc2b03e70c8759871f0c067ecdfa746547d278376425332af8d82f360a4b7",
    ),
    ("paired-ladder", 0): (
        "61dff08a9cb52c36e71855f755e1eb8670696b3d9dc0545263ce840cd48dc50b",
        "4537d9d615e29a99d13754bae07e70c67736889b585755bbc7daee87fda94fc5",
    ),
    ("paired-ladder", 1): (
        "a07482b061551c501ffadbe16f58f2f27ff084c4be472720c9bf4ebb51eab4f9",
        "e338d152773292959906ebd3c7f9cbfc50fa430b73cb4cf9b06348b77188d546",
    ),
    ("paired-ladder", 2): (
        "eea5553f98aeb97a9ba991522eb4bb51b82c2d756c7c4033fe3cc50390067e58",
        "0edacf20c1be8a575e0ad100a3f72b80fd776e252823a575810567484ec3e256",
    ),
}


@pytest.mark.parametrize("kind, seed", sorted(TRACE_GOLDEN))
def test_shots_build_fractions_only_when_read(kind, seed, monkeypatch):
    """An engine run builds no Fraction, whether or not it records a trace
    (only the checks of ``hull_checks`` build them); the recorded trace is
    unchanged."""
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    # on the class itself, so that every Fraction is counted however its
    # builder imported the name
    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    inst = build(kind, 12, 5, seed)
    cover, stats = hull_cover_fast(inst)
    trace = []
    assert hull_cover_fast(inst, trace=trace) == (cover, stats)
    assert made == []
    assert digest(trace) == TRACE_GOLDEN[kind, seed][1]


# name -> (rays_shot, trace digest). Each instance has trees alone in their
# box region beside trees whose boxes meet, and the lone trees are shot like
# the others. Before the engine skipped covered hull edges, the rays read
# 40, 42, 43 and 3.
SPLIT_GOLDEN = {
    "mixed-0": (24, "d5d7cd39c21bd13ad053a0e3c984d100a8eeaa2a860dcd26ef5d81e8601cdbb0"),
    "mixed-1": (24, "451f4f5db8a797c1cec15875221ec308a0d3e7ee7f330a09d52833d7178c53fe"),
    "mixed-2": (20, "3593e8de714e802095cf60f8f813e52f6393c7a41d9a5aa21635c1ae4d6e08bc"),
    "bare": (1, "a746cd365d2e9ea06b94098c7fa18a5da451498aac65c2a8f890d0c5a445a189"),
}


def lone_trees(inst):
    """The trees alone in their box-cover region, in ascending order."""
    return sorted(ms[0] for ms in box_cover_fast(inst)[0].membership if len(ms) == 1)


@pytest.mark.parametrize("name", sorted(SPLIT_GOLDEN))
def test_lone_trees_drop_out_of_the_trace(name):
    """A tree alone in its box region shoots like any other once two tree
    boxes meet: ``rays_shot`` and the trace are the recorded ones, and each
    hull edge of a lone tree that its own edges do not cover is shot once
    (vertices are globally distinct, so an origin names its tree)."""
    inst = INSTANCE_BARE if name == "bare" else mixed(int(name[-1]))
    trace = []
    cover, stats = hull_cover_fast(inst, trace=trace)
    assert (stats.rays_shot, digest(trace)) == SPLIT_GOLDEN[name]
    assert cover.canonical() == naive_phi_cover(inst, HULL)[0].canonical()
    lone = lone_trees(inst)
    assert lone and len(lone) < inst.m
    covered = covered_hull_edges(inst)
    edges = {e for i in lone for e in chain_edges(*hull_chains(inst.trees[i].vertices))}
    lone_vertices = {v for i in lone for v in inst.trees[i].vertices}
    assert sum(tuple(r["from"]) in lone_vertices for r in trace) == len(edges - covered)


@pytest.mark.parametrize(
    "name", ["mixed-0", "mixed-1", "mixed-2", "paired-strips", "paired-ladder", "strips"]
)
def test_only_trees_that_share_a_box_region_reach_the_grid_and_extraction(
    name, monkeypatch
):
    """When two tree boxes meet, the default grid is built once, over the
    bounding box of all trees, and holds every tree's obstacles;
    ``maximal_regions`` gets one hull per component, those of trees alone
    in their box region included. When no two tree boxes meet (``strips``)
    there is no grid and no ``maximal_regions`` call."""
    if name.startswith("mixed"):
        inst = mixed(int(name[-1]))
    else:
        inst = build(name, 12, 4, seed=1)
    grids, extracted = [], []
    init = hullcover.BucketGridShooter.__init__

    def recording_init(self, components, obstacles, bounds, cell):
        grids.append((self, bounds))
        init(self, components, obstacles, bounds, cell)

    regions = hullcover.maximal_regions

    def recording_regions(polygons):
        extracted.append(list(polygons))
        return regions(polygons)

    monkeypatch.setattr(hullcover.BucketGridShooter, "__init__", recording_init)
    monkeypatch.setattr(hullcover, "maximal_regions", recording_regions)
    cover, stats = hull_cover_fast(inst)
    assert cover.canonical() == naive_phi_cover(inst, HULL)[0].canonical()

    if name == "strips":
        assert boxes_disjoint(inst.tree_boxes())
        assert (grids, extracted, stats) == ([], [], (0, 0, 0))
        return
    assert len(extracted) == 1 and len(extracted[0]) == inst.m - stats.merges
    lone = lone_trees(inst)
    assert bool(lone) == name.startswith("mixed")
    for i in lone:
        assert convex_hull(inst.trees[i].vertices) in extracted[0]
    [(grid, bounds)] = grids
    xs = [x for t in inst.trees for x, _ in t.vertices]
    ys = [y for t in inst.trees for _, y in t.vertices]
    assert bounds == AABB(min(xs), min(ys), max(xs), max(ys))
    # one obstacle per tree edge or bare vertex, then the rays
    trees = sum(max(1, len(t.edges)) for t in inst.trees)
    assert sorted({ob[6] for ob in grid.obstacles[:trees]}) == list(range(inst.m))
    assert {i for ids in grid.cells.values() for i in ids} == set(range(len(grid)))


# sha256 of json.dumps(trace) for generate("arc", trees=trees): (before,
# since) the engine skipped the hull edges that a tree's own edges cover;
# the "before" digests were recorded while the engine still kept its live
# edges in a set of its own. arc's one hull keeps about m/3 vertices, so
# merges splice long chains
ARC_TRACE_GOLDEN = {
    12: (
        "9f0f8b2ef7000068bb01bd5831b730f96a3e36e39009bb68b6c06d92496da783",
        "bfec4bc839d681384dc93b945839583429906b4dba3134bd5a76d07fa973b8d8",
    ),
    60: (
        "b0b15c63bfde86951dc7327509f97ff726b64b1d9b1ef76881aef1a165295370",
        "a680237246c7584d9d97908491757ec04e79d3ffdd4938a5ccc6b27e64e89d90",
    ),
    240: (
        "38a608c167cbcdb2a3c924f1b3df7858c11f9e3a3b626e3122674b32f3e57947",
        "d5f53d27af3e689063e0d9dcbe6a2e8d58752e53ad8a0578b1b5f28a786813c8",
    ),
}


@pytest.mark.parametrize("trees", sorted(ARC_TRACE_GOLDEN))
def test_shot_order_on_long_chains(trees, monkeypatch):
    """The engine's trace, and then that of the engine that shoots covered
    hull edges too."""
    inst = generate("arc", trees=trees)
    before, since = ARC_TRACE_GOLDEN[trees]
    for expected in (since, before):
        trace = []
        _, stats = hull_cover_fast(inst, trace=trace)
        assert stats.merges == trees - 1
        assert digest(trace) == expected
        never_covered(monkeypatch)


def golden_case(name):
    """The instance of a row of TRACE_GOLDEN ("combs-0") or of
    ARC_TRACE_GOLDEN ("arc-12"), and its (before, since) trace digests."""
    kind, n = name.rsplit("-", 1)
    if kind == "arc":
        return generate("arc", trees=int(n)), ARC_TRACE_GOLDEN[int(n)]
    return build(kind, 12, 5, int(n)), TRACE_GOLDEN[kind, int(n)]


@pytest.mark.parametrize(
    "name", [f"{k}-{s}" for k, s in sorted(TRACE_GOLDEN)] + ["arc-12", "arc-60"]
)
def test_covered_edges_drop_out_of_the_shots(name, monkeypatch):
    """With its coverage test patched to cover nothing, the engine shoots
    as before it skipped covered hull edges (its recorded trace). Unpatched,
    its shots, each with its hit and merge hit, are those shots less the
    ones along covered edges, and its cover and merges do not change:
    ``rays_shot`` drops by the skipped shots, and ``initial_edges`` by the
    covered initial edges."""
    inst, (before, since) = golden_case(name)
    covered = covered_hull_edges(inst)
    trace = []
    cover, stats, shooter = recorded_run(inst, trace)
    assert digest(trace) == since
    with monkeypatch.context() as patch:
        never_covered(patch)
        whole = []
        whole_cover, whole_stats, whole_shooter = recorded_run(inst, whole)
    assert digest(whole) == before
    assert cover == whole_cover
    kept = [s for s in whole_shooter.shots if s[0] not in covered]
    assert shooter.shots == kept
    # where no two tree boxes meet, no edge is queued, covered or not
    dropped = 0 if boxes_disjoint(inst.tree_boxes()) else len(covered)
    assert stats == (len(kept), whole_stats.merges, whole_stats.initial_edges - dropped)
    if name.startswith(("combs", "arc")):
        assert len(kept) < len(whole_shooter.shots)


def test_debug_checks_reject_crossing_hulls():
    """The hull checks pass disjoint and nested hulls and raise on two
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
            (assert_nested_or_disjoint, hulls),
            (assert_live_weak_disjointness, comps),
        ):
            if ok:
                check(arg)
            else:
                with pytest.raises(hullcover.InternalInvariantError):
                    check(arg)


class HidingShooter(NaiveRayShooter):
    """A faulty shooter: its scans miss every obstacle owned by tree 2."""

    def _scan(self, origin, through, own_root):
        ids = [i for i, ob in enumerate(self.obstacles) if ob[6] != 2]
        ia, na, da, if_, nf, df = _kernelpy.scan(
            origin[0],
            origin[1],
            through[0],
            through[1],
            [self.obstacles[i] for i in ids],
            self.components.parent,
            own_root,
        )
        return ids[ia] if ia >= 0 else -1, na, da, ids[if_] if if_ >= 0 else -1, nf, df


def test_checks_reject_a_merge_past_a_third_component():
    """Tree A's first shot runs along its hull edge (0, 0) -> (10, 0), which
    tree C's segment crosses at x = 4 and tree B's at x = 7. A shooter that
    cannot see C merges A with B through C's segment; the checked run
    raises, while the honest shooter's checked run equals the oracle."""
    a = tree([(0, 0), (5, 5), (10, 0)])
    inst = Instance((a, tree([(7, -1), (7, 1)]), tree([(4, -1), (4, 1)])))
    shoot_from = NaiveRayShooter.shoot_from
    cover, stats = hull_cover_checked(inst, NaiveRayShooter)
    assert cover.canonical() == naive_phi_cover(inst, HULL)[0].canonical()
    assert stats.merges == 2
    with pytest.raises(hullcover.InternalInvariantError, match="obstacle 3 blocks"):
        hull_cover_checked(inst, HidingShooter)
    # the checks wrap each shooter instance, never the class
    assert NaiveRayShooter.shoot_from is shoot_from


@pytest.mark.parametrize("k", range(1, 7))
def test_diagdots_covers_equal_the_oracle(k):
    """On ``diagdots`` every tree is a hull region of its own, and no ray is
    shot, since a diagonal's hull edges are its own edge; the boxes chain
    into one box region."""
    inst = diagdots(k)
    hull, stats = hull_cover_fast(inst)
    box, _ = box_cover_fast(inst)
    assert hull.canonical() == naive_phi_cover(inst, HULL)[0].canonical()
    assert box.canonical() == naive_phi_cover(inst, PHI["box"])[0].canonical()
    assert (len(hull.regions), stats, len(box.regions)) == (k + k * k, (0, 0, 0), 1)
