import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecover import geom
from treecover.geom import (
    AABB,
    BOUNDARY,
    CROSSING,
    DISJOINT,
    INSIDE,
    OUTSIDE,
    TOUCHING,
    Circle,
    ConvexPolygon,
    box_of,
    box_union,
    boxes_disjoint,
    boxes_intersect,
    chain_edges,
    chain_has_edge,
    chains_polygon,
    convex_hull,
    hull_chains,
    merge_convex_hulls,
    merge_hull_chains,
    orient,
    point_in_convex_polygon,
    polygons_intersect,
    segments_intersect,
)
from treecover.phicover import (
    PHI,
    check_phi_properties,
    circles_intersect,
    enclosing_circle_of_two,
    min_enclosing_circle,
)

from helpers import all_left_of_edges, brute_min_circle, frac_point, wrap_hull
from hull_checks import boundary_intersection_points

coords = st.integers(min_value=-1000, max_value=1000)
points = st.tuples(coords, coords)


class TestOrient:
    def test_left_turn(self):
        assert orient((0, 0), (1, 0), (0, 1)) == 1

    def test_collinear(self):
        assert orient((0, 0), (1, 0), (2, 0)) == 0

    def test_right_turn(self):
        assert orient((0, 0), (1, 0), (1, -1)) == -1

    @given(points, points, points)
    def test_antisymmetric_in_bc(self, a, b, c):
        assert orient(a, b, c) == -orient(a, c, b)

    @given(points, points, points, coords, coords)
    def test_translation_invariant(self, a, b, c, dx, dy):
        t = lambda p: (p[0] + dx, p[1] + dy)
        assert orient(a, b, c) == orient(t(a), t(b), t(c))

    def test_rational_points(self):
        assert orient((Fraction(0), Fraction(0)), (1, 0), (Fraction(1, 2), Fraction(1, 2))) == 1


class TestSegmentsIntersect:
    def test_symmetric_x_crossing(self):
        assert segments_intersect(((0, 0), (2, 2)), ((0, 2), (2, 0))) == CROSSING

    def test_shared_endpoint_touches(self):
        assert segments_intersect(((0, 0), (1, 0)), ((1, 0), (2, 1))) == TOUCHING

    def test_parallel_apart(self):
        assert segments_intersect(((0, 0), (1, 0)), ((0, 2), (1, 2))) == DISJOINT

    def test_collinear_overlap_is_crossing(self):
        assert segments_intersect(((0, 0), (4, 0)), ((2, 0), (6, 0))) == CROSSING

    def test_collinear_endpoint_touch(self):
        assert segments_intersect(((0, 0), (2, 0)), ((2, 0), (4, 0))) == TOUCHING

    def test_t_touch(self):
        assert segments_intersect(((0, 0), (4, 0)), ((2, 0), (2, 3))) == TOUCHING

    def test_point_beside_vertical_segment_on_its_end_line_is_disjoint(self):
        assert segments_intersect(((1, 0), (1, 0)), ((5, 0), (5, 3))) == DISJOINT
        assert segments_intersect(((5, 0), (5, 3)), ((1, 0), (1, 0))) == DISJOINT

    def test_two_points_on_one_horizontal_line_are_disjoint(self):
        assert segments_intersect(((0, 0), (0, 0)), ((5, 0), (5, 0))) == DISJOINT

    def test_point_on_segment_touches(self):
        assert segments_intersect(((2, 1), (2, 1)), ((0, 0), (4, 2))) == TOUCHING
        assert segments_intersect(((0, 0), (4, 2)), ((4, 2), (4, 2))) == TOUCHING
        assert segments_intersect(((3, 3), (3, 3)), ((3, 3), (3, 3))) == TOUCHING


class TestConvexHull:
    def test_triangle_with_interior_point(self):
        hull = convex_hull([(0, 0), (4, 0), (2, 3), (2, 1)])
        # derived oracle: half-plane check plus gift-wrapping comparison
        assert all_left_of_edges([(0, 0), (4, 0), (2, 3), (2, 1)], hull.vertices)
        assert list(hull.vertices) == wrap_hull([(0, 0), (4, 0), (2, 3), (2, 1)])
        assert hull.vertices == ((0, 0), (4, 0), (2, 3))

    def test_two_point_degenerate(self):
        hull = convex_hull([(0, 0), (1, 1)])
        assert hull.vertices == ((0, 0), (1, 1))
        assert len(hull.directed_edges()) == 2

    def test_single_point(self):
        assert convex_hull([(5, 5)]).vertices == ((5, 5),)

    def test_collinear_collapse(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (3, 3)])
        assert hull.vertices == ((0, 0), (3, 3))

    def test_canonical_start_and_ccw(self):
        hull = convex_hull([(2, 0), (0, 2), (-2, 0), (0, -2)])
        assert hull.vertices == ((-2, 0), (0, -2), (2, 0), (0, 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull([])

    @pytest.mark.parametrize("half", [0.5, Fraction(1, 2)], ids=["float", "fraction"])
    def test_non_integer_coordinate_rejected(self, half):
        # truncating would give the triangle (0, 0), (3, 0), (0, 3)
        with pytest.raises(TypeError):
            convex_hull([(half, half), (3, 0), (0, 3)])

    def test_bool_coordinates_are_integers(self):
        assert convex_hull([(True, False), (3, 0)]).vertices == ((1, 0), (3, 0))

    @given(st.lists(points, min_size=1, max_size=40))
    @settings(max_examples=150)
    def test_contains_all_inputs_and_matches_oracle(self, pts):
        hull = convex_hull(pts)
        for p in pts:
            assert point_in_convex_polygon(p, hull) != OUTSIDE
        assert list(hull.vertices) == wrap_hull(pts)


class TestPointInConvexPolygon:
    square = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))

    def test_inside(self):
        assert point_in_convex_polygon((5, 5), self.square) == INSIDE

    def test_boundary(self):
        assert point_in_convex_polygon((10, 5), self.square) == BOUNDARY

    def test_outside(self):
        assert point_in_convex_polygon((11, 5), self.square) == OUTSIDE

    def test_vertex_is_boundary(self):
        assert point_in_convex_polygon((0, 0), self.square) == BOUNDARY

    def test_rational_point(self):
        assert point_in_convex_polygon(frac_point(Fraction(1, 2), 5), self.square) == INSIDE

    def test_degenerate_segment(self):
        seg = ConvexPolygon(((0, 0), (4, 0)))
        assert point_in_convex_polygon((2, 0), seg) == BOUNDARY
        assert point_in_convex_polygon((5, 0), seg) == OUTSIDE

    def test_degenerate_point(self):
        pt = ConvexPolygon(((3, 3),))
        assert point_in_convex_polygon((3, 3), pt) == BOUNDARY
        assert point_in_convex_polygon((3, 4), pt) == OUTSIDE
        assert point_in_convex_polygon((4, 3), pt) == OUTSIDE


SQ1 = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
SQ2 = ConvexPolygon(((2, 2), (6, 2), (6, 6), (2, 6)))


class TestBoundaryIntersections:
    def test_overlapping_squares(self):
        points, overlap = boundary_intersection_points(SQ1, SQ2)
        assert set(points) == {frac_point(4, 2), frac_point(2, 4)}
        assert not overlap
        # each reported point really lies on both boundaries
        for p in points:
            assert point_in_convex_polygon(p, SQ1) == BOUNDARY
            assert point_in_convex_polygon(p, SQ2) == BOUNDARY

    def test_disjoint_squares(self):
        far = ConvexPolygon(((10, 10), (12, 10), (12, 12), (10, 12)))
        assert boundary_intersection_points(SQ1, far) == ((), False)

    def test_nested_squares(self):
        inner = ConvexPolygon(((1, 1), (2, 1), (2, 2), (1, 2)))
        assert boundary_intersection_points(SQ1, inner) == ((), False)

    def test_collinear_boundary_overlap_flagged(self):
        right = ConvexPolygon(((4, 1), (8, 1), (8, 3), (4, 3)))
        touch = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        points, overlap = boundary_intersection_points(touch, right)
        assert overlap
        assert set(points) == {frac_point(4, 1), frac_point(4, 3)}

    def test_rational_crossing_point(self):
        tri1 = ConvexPolygon(((0, 0), (3, 1), (0, 2)))
        tri2 = ConvexPolygon(((1, -1), (2, 2), (0, 3)))
        points, _ = boundary_intersection_points(tri1, tri2)
        for p in points:
            assert point_in_convex_polygon(p, tri1) == BOUNDARY
            assert point_in_convex_polygon(p, tri2) == BOUNDARY


class TestMergeConvexHulls:
    def test_overlapping_squares(self):
        merged = merge_convex_hulls(SQ1, SQ2)
        both = list(SQ1.vertices + SQ2.vertices)
        assert all_left_of_edges(both, merged.vertices)
        assert list(merged.vertices) == wrap_hull(both)
        assert merged.vertices == ((0, 0), (4, 0), (6, 2), (6, 6), (2, 6), (0, 4))

    def test_absorption(self):
        square = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
        assert merge_convex_hulls(square, ConvexPolygon(((5, 5),))) == square

    def test_two_segments(self):
        a = ConvexPolygon(((0, 0), (1, 0)))
        b = ConvexPolygon(((0, 2), (1, 3)))
        merged = merge_convex_hulls(a, b)
        assert list(merged.vertices) == wrap_hull([(0, 0), (1, 0), (0, 2), (1, 3)])
        assert merged.vertices == ((0, 0), (1, 0), (1, 3), (0, 2))

    @given(st.lists(points, min_size=1, max_size=12), st.lists(points, min_size=1, max_size=12))
    @settings(max_examples=150)
    def test_equals_rehull_of_union(self, pa, pb):
        p = convex_hull(pa)
        q = convex_hull(pb)
        assert merge_convex_hulls(p, q) == convex_hull(list(p.vertices) + list(q.vertices))
        assert merge_convex_hulls(p, q) == convex_hull(pa + pb)


# distinct points on a 5 x 5 grid, cut into two disjoint sets by the tests:
# the draws include collinear runs, shared coordinates, points and segments
grid_points = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=2, max_size=14, unique=True
)
# distinct points on one anti-diagonal: collinear hulls neither horizontal
# nor vertical
diagonal_points = st.lists(st.integers(0, 4), min_size=2, max_size=5, unique=True).map(
    lambda xs: [(x, 4 - x) for x in xs]
)


class TestHullChains:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10))
    @settings(max_examples=200)
    def test_chains_give_the_canonical_hull(self, pts):
        hull = convex_hull(pts)
        assert chains_polygon(*hull_chains(pts)) == hull
        assert chain_edges(*hull_chains(pts)) == list(hull.directed_edges())

    def test_degenerate_chains(self):
        assert hull_chains([(2, 1)]) == ([(2, 1)], [(2, 1)])
        assert hull_chains([(2, 2), (0, 0), (1, 1)]) == ([(0, 0), (2, 2)], [(0, 0), (2, 2)])

    @given(grid_points, st.data())
    @settings(max_examples=400)
    def test_merge_inserts_into_the_larger_hull(self, pts, data):
        cut = data.draw(st.integers(1, len(pts) - 1))
        a, b = pts[:cut], pts[cut:]
        old = set(convex_hull(a).directed_edges()) | set(convex_hull(b).directed_edges())
        hull, added = merge_hull_chains(hull_chains(a), hull_chains(b))
        new = convex_hull(a + b)
        assert chains_polygon(*hull) == new
        assert added == [e for e in new.directed_edges() if e not in old]

    @given(st.one_of(grid_points, diagonal_points), st.data())
    @settings(max_examples=300)
    def test_chain_has_edge_reads_the_chains(self, pts, data):
        # a one-point prefix gives the point hull, a two-point one a segment
        hull = hull_chains(pts[: data.draw(st.integers(1, len(pts)))])
        edges = set(chain_edges(*hull))
        probes = pts + [(-1, 2), (2, 5), (5, 5)]
        for p in probes:
            for q in probes:
                assert chain_has_edge(hull, p, q) == ((p, q) in edges), (p, q)


class TestPolygonsIntersect:
    def test_overlap(self):
        assert polygons_intersect(SQ1, SQ2)

    def test_touching_corner(self):
        corner = ConvexPolygon(((4, 4), (6, 4), (6, 6), (4, 6)))
        assert polygons_intersect(SQ1, corner)

    def test_disjoint(self):
        far = ConvexPolygon(((5, 0), (6, 0), (6, 1)))
        assert not polygons_intersect(SQ1, far)

    def test_nested(self):
        inner = ConvexPolygon(((1, 1), (2, 1), (2, 2)))
        assert polygons_intersect(SQ1, inner)

    def test_point_in_polygon(self):
        assert polygons_intersect(SQ1, ConvexPolygon(((2, 2),)))
        assert not polygons_intersect(SQ1, ConvexPolygon(((9, 9),)))

    def test_point_on_boundary(self):
        assert polygons_intersect(SQ1, ConvexPolygon(((4, 2),)))

    def test_segment_crossing(self):
        assert polygons_intersect(SQ1, ConvexPolygon(((-1, 2), (5, 2))))

    def test_segment_outside(self):
        assert not polygons_intersect(SQ1, ConvexPolygon(((-1, 5), (5, 5))))

    def test_polygon_without_vertex_containment(self):
        # plus-sign overlap: wide flat rect crossing tall thin rect
        wide = ConvexPolygon(((-4, 1), (4, 1), (4, 2), (-4, 2)))
        tall = ConvexPolygon(((1, -4), (2, -4), (2, 6), (1, 6)))
        assert polygons_intersect(wide, tall)

    @given(st.lists(points, min_size=1, max_size=8), st.lists(points, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_symmetry(self, pa, pb):
        p = convex_hull(pa)
        q = convex_hull(pb)
        assert polygons_intersect(p, q) == polygons_intersect(q, p)


def sat_axes(points):
    """Separating-axis candidates for the hulls of these points: every
    difference of two of them, its normal, and the coordinate axes. Disjoint
    hulls project apart on the normal of an edge or on the vector between
    their closest vertices, and both are among them."""
    axes = {(1, 0), (0, 1)}
    for (ax, ay), (bx, by) in itertools.combinations(points, 2):
        axes.update(((bx - ax, by - ay), (ay - by, bx - ax)))
    axes.discard((0, 0))
    return axes


def sat_separated(a, b):
    """Whether the closed convex hulls of point lists a and b are disjoint:
    some candidate axis projects them to disjoint intervals."""
    for ux, uy in sat_axes(a + b):
        pa = [ux * x + uy * y for x, y in a]
        pb = [ux * x + uy * y for x, y in b]
        if max(pa) < min(pb) or max(pb) < min(pa):
            return True
    return False


def sat_classify(p, pts):
    """p against the closed hull of pts: outside when an axis separates
    them, else on the boundary when p projects to an end of the hull's
    interval on some axis (a supporting line through p), else inside."""
    if sat_separated([p], pts):
        return OUTSIDE
    for ux, uy in sat_axes(pts):
        proj = [ux * x + uy * y for x, y in pts]
        if ux * p[0] + uy * p[1] in (min(proj), max(proj)):
            return BOUNDARY
    return INSIDE


small_points = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def hull_points(draw):
    """Points on a 5 x 5 grid, about one time in three each: one point, two
    distinct points, or three to seven points (mostly a polygon's hull)."""
    a = draw(small_points)
    shape = draw(st.sampled_from(("point", "segment", "polygon")))
    if shape == "point":
        return [a]
    if shape == "segment":
        return [a, draw(small_points.filter(lambda b: b != a))]
    return [a] + draw(st.lists(small_points, min_size=2, max_size=6))


class TestPredicatesAgainstSeparatingAxes:
    @given(hull_points(), st.data())
    @settings(max_examples=400)
    def test_point_in_convex_polygon(self, pts, data):
        poly = convex_hull(pts)
        # a point sharing x or y with a vertex, or a half-integer point
        vx, vy = data.draw(st.sampled_from(poly.vertices))
        c = data.draw(st.integers(-1, 5))
        hx, hy = data.draw(st.tuples(st.integers(-2, 10), st.integers(-2, 10)))
        half = (Fraction(hx, 2), Fraction(hy, 2))
        p = data.draw(st.sampled_from(((vx, c), (c, vy), half)))
        assert point_in_convex_polygon(p, poly) == sat_classify(p, pts)

    @given(hull_points(), hull_points())
    @settings(max_examples=400)
    def test_polygons_intersect(self, pa, pb):
        assert polygons_intersect(convex_hull(pa), convex_hull(pb)) == (
            not sat_separated(pa, pb)
        )


class TestBoxes:
    def test_box_of(self):
        assert box_of([(0, 0), (4, 2)]) == AABB(0, 0, 4, 2)

    def test_boxes_intersect(self):
        assert boxes_intersect(AABB(0, 0, 4, 2), AABB(3, -1, 5, 1))

    def test_boxes_touching(self):
        assert boxes_intersect(AABB(0, 0, 1, 1), AABB(1, 1, 2, 2))

    def test_boxes_disjoint(self):
        assert not boxes_intersect(AABB(0, 0, 1, 1), AABB(2, 2, 3, 3))

    def test_box_union(self):
        assert box_union(AABB(0, 0, 4, 2), AABB(3, -1, 5, 1)) == AABB(0, -1, 5, 2)

    def test_degenerate_box(self):
        assert box_of([(5, 5)]) == AABB(5, 5, 5, 5)

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            AABB(1, 0, 0, 0)


@st.composite
def box_families(draw):
    """Up to ten boxes on a lattice small enough that zero-width and
    zero-height boxes, boxes touching at an edge or a corner and shared
    coordinates are common; some boxes copy an earlier one or lie inside
    it."""
    span = draw(st.sampled_from([4, 12, 40, 120]))
    boxes = []
    for _ in range(draw(st.integers(0, 10))):
        if boxes and draw(st.integers(0, 4)) == 0:
            x0, y0, x1, y1 = draw(st.sampled_from(boxes))
            # a copy, or a box inside it
            x0, x1 = sorted(draw(st.integers(x0, x1)) for _ in range(2))
            y0, y1 = sorted(draw(st.integers(y0, y1)) for _ in range(2))
        else:
            x0, y0 = draw(st.integers(0, span)), draw(st.integers(0, span))
            x1, y1 = x0 + draw(st.integers(0, 3)), y0 + draw(st.integers(0, 3))
        boxes.append(AABB(x0, y0, x1, y1))
    return boxes


class TestBoxesDisjoint:
    """``boxes_disjoint`` against the pairwise ``boxes_intersect`` oracle,
    sweeping along the axis it picks and along each axis forced."""

    @staticmethod
    def answers(boxes):
        out = [boxes_disjoint(boxes)]
        for y in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(geom, "sweep_along_y", lambda *cols, y=y: y)
                out.append(boxes_disjoint(boxes))
        return out

    @given(box_families())
    @settings(max_examples=600)
    def test_matches_the_pairwise_oracle(self, boxes):
        expected = not any(
            boxes_intersect(a, b) for a, b in itertools.combinations(boxes, 2)
        )
        transposed = [AABB(y0, x0, y1, x1) for x0, y0, x1, y1 in boxes]
        assert self.answers(boxes) == self.answers(transposed) == [expected] * 3

    def test_no_box_and_one_box(self):
        assert self.answers([]) == self.answers([AABB(1, 2, 3, 4)]) == [True] * 3

    @pytest.mark.parametrize(
        "other",
        [
            AABB(4, 0, 6, 4),  # shares an edge
            AABB(4, 4, 6, 6),  # shares a corner
            AABB(0, 0, 4, 4),  # identical
            AABB(1, 1, 2, 2),  # nested
            AABB(2, 4, 2, 4),  # a point on the top edge
            AABB(-2, 2, 8, 2),  # a segment across it
        ],
    )
    def test_touching_counts_as_meeting(self, other):
        square = AABB(0, 0, 4, 4)
        apart = AABB(other.xmin + 20, 0, other.xmax + 20, 0)
        assert self.answers([square, other]) == [False] * 3
        assert self.answers([other, square]) == [False] * 3
        assert self.answers([square, apart]) == [True] * 3

    def test_a_retired_box_is_not_a_neighbour(self):
        """Boxes the sweep has passed leave its status: the third box meets
        neither of the first two, which lie beside each other along y."""
        boxes = [AABB(0, 0, 1, 5), AABB(0, 10, 1, 15), AABB(2, 4, 3, 11)]
        assert self.answers(boxes) == [True] * 3


class TestMinEnclosingCircle:
    def test_diametral_pair(self):
        c = min_enclosing_circle([(0, 0), (2, 0)])
        assert (c.cx, c.cy, c.r) == pytest.approx((1.0, 0.0, 1.0))

    def test_acute_triangle_circumcircle(self):
        pts = [(0, 0), (2, 0), (1, 2)]
        c = min_enclosing_circle(pts)
        bx, by, br = brute_min_circle(pts)
        assert (c.cx, c.cy, c.r) == pytest.approx((bx, by, br))
        assert (c.cx, c.cy, c.r) == pytest.approx((1.0, 0.75, 1.25))

    def test_single_point(self):
        c = min_enclosing_circle([(3, 3)])
        assert (c.cx, c.cy, c.r) == (3.0, 3.0, 0.0)

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_matches_brute_force(self, pts):
        c = min_enclosing_circle(pts)
        bx, by, br = brute_min_circle(pts)
        assert c.r == pytest.approx(br, abs=1e-6)
        for p in pts:
            assert math.dist((c.cx, c.cy), p) <= c.r + 1e-6

    def test_deterministic(self):
        pts = [(0, 0), (7, 1), (3, 9), (5, 5), (1, 8)]
        a = min_enclosing_circle(pts)
        b = min_enclosing_circle(pts)
        assert (a.cx, a.cy, a.r) == (b.cx, b.cy, b.r)


class TestCircles:
    def test_intersect(self):
        assert circles_intersect(Circle(0, 0, 1), Circle(1.5, 0, 1))

    def test_touching_within_eps(self):
        assert circles_intersect(Circle(0, 0, 1), Circle(2, 0, 1))

    def test_disjoint(self):
        assert not circles_intersect(Circle(0, 0, 1), Circle(3, 0, 1))

    def test_enclosing_circle_of_two(self):
        c = enclosing_circle_of_two(Circle(0, 0, 1), Circle(4, 0, 1))
        assert (c.cx, c.cy, c.r) == pytest.approx((2.0, 0.0, 3.0))

    def test_enclosing_circle_nested(self):
        big = Circle(0, 0, 5)
        assert enclosing_circle_of_two(big, Circle(1, 0, 1)) == big
        assert enclosing_circle_of_two(Circle(1, 0, 1), big) == big

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Circle(0, 0, -1)


L = geom.COORD_LIMIT
MINCIRCLE = PHI["mincircle"]


def spread_points(rng):
    """2 to 12 points anywhere in the input range."""
    return [(rng.randint(-L, L), rng.randint(-L, L)) for _ in range(rng.randint(2, 12))]


def clustered_points(rng):
    """2 to 12 points within 8 of a center anywhere in the input range, so
    a small circle has a center whose floats are spaced about 1e-7 apart."""
    cx, cy = rng.randint(-L + 8, L - 8), rng.randint(-L + 8, L - 8)
    k = rng.randint(2, 12)
    return [(cx + rng.randint(-8, 8), cy + rng.randint(-8, 8)) for _ in range(k)]


class TestMinCircleAtLargeCoordinates:
    @pytest.mark.parametrize("sampler", [spread_points, clustered_points])
    def test_property1_holds(self, sampler):
        report = check_phi_properties(MINCIRCLE, sampler=sampler, samples=300, seed=1)
        assert report.property1_ok, report.property1_witness

    def test_points_on_a_large_boundary_are_contained(self):
        # the diameter's ends and the third point all lie sqrt(L^2 + 144)
        # from the origin, which rounds to the float L
        pts = [(-L, 12), (L, -12), (12, L)]
        c = min_enclosing_circle(pts)
        assert (c.cx, c.cy, c.r) == (0.0, 0.0, float(L))
        assert all(MINCIRCLE.contains_point(c, p) for p in pts)

    @given(
        st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=12),
        st.sampled_from([(-1, -1), (-1, 1), (1, -1), (1, 1)]),
    )
    @settings(max_examples=100)
    def test_matches_brute_force_near_a_corner(self, pts, corner):
        # a shift leaves the radius as it is, so the brute force runs on
        # the small points and the MEC on the points moved near a corner
        shifted = [(x + corner[0] * (L - 50), y + corner[1] * (L - 50)) for x, y in pts]
        c = min_enclosing_circle(shifted)
        assert c.r == pytest.approx(brute_min_circle(pts)[2], abs=1e-6)
        for p in shifted:
            assert math.dist((c.cx, c.cy), p) <= c.r + 1e-6

    def test_a_small_circle_near_a_corner_excludes_a_point_two_out(self):
        assert not MINCIRCLE.contains_point(Circle(L, L - 1, 1), (L, L - 3))
        c = min_enclosing_circle([(L, L), (L, L - 2), (L, L - 3)])
        assert (c.cx, c.cy, c.r) == (float(L), L - 1.5, 1.5)

    def test_tangent_circles_meet(self):
        c1 = Circle(-L, -L, L * math.sqrt(2))
        c2 = Circle(L, L, math.dist((-L, -L), (L, L)) - c1.r)
        assert circles_intersect(c1, c2) and circles_intersect(c2, c1)

    def test_circles_apart_do_not_meet(self):
        # the slack is MEC_EPS of r1 + r2, about two units for these
        assert not circles_intersect(Circle(-L, 0, L - 2), Circle(L, 0, L - 2))
        # and a few ulps of 2^30 for small circles one unit apart
        assert not circles_intersect(Circle(L - 10, L, 4), Circle(L, L, 5))
        assert circles_intersect(Circle(L - 10, L, 4), Circle(L, L, 6))
