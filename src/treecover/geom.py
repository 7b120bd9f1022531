"""Exact 2-D geometry: predicates, convex polygons, boxes, circles.

Coordinates of input points are integers bounded by 2^30, so every predicate
here is exact (integer or Fraction arithmetic). Ray-hit and boundary-crossing
points carry exact rational coordinates. Only the minimum-enclosing-circle
corner works in floating point, with a documented epsilon; its values never
feed the exact engines.

All values are immutable and all operations are pure functions. A
``ConvexPolygon`` is its canonical vertex tuple, and the polygon predicates
walk its vertex pairs; only the orientation and segment predicates come
from the kernel, ``_kernelpy``.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from operator import index, sub
from typing import TYPE_CHECKING, NamedTuple

# Bound once at import: perfbench's tracer patches ``_kernelpy.seg_relation``
# to count the pairs that ``find_contacts`` tests, and these calls stay out
# of that count.
from ._kernelpy import _on_segment_collinear as _on_segment
from ._kernelpy import orient as _orient
from ._kernelpy import seg_relation as _seg_relation

# ``fractions`` is imported only where a Fraction is built, so that a cover
# run, which builds none, does not load it
if TYPE_CHECKING:
    from fractions import Fraction

    RationalPoint = tuple[Fraction, Fraction]

Point = tuple[int, int]
Segment = tuple[Point, Point]

COORD_LIMIT = 1 << 30

DISJOINT = "disjoint"
TOUCHING = "touching"
CROSSING = "crossing"

OUTSIDE = "outside"
BOUNDARY = "boundary"
INSIDE = "inside"

_SEG_RELATION_NAMES = (DISJOINT, TOUCHING, CROSSING)

MEC_EPS = 1e-9


def orient(a, b, c) -> int:
    """Sign of (b - a) x (c - a); accepts integer or Fraction coordinates."""
    return _orient(a[0], a[1], b[0], b[1], c[0], c[1])


def segments_intersect(s: Segment, t: Segment) -> str:
    """Classify two closed segments as disjoint, touching, or crossing."""
    (a, b), (c, d) = s, t
    rel = _seg_relation(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    return _SEG_RELATION_NAMES[rel]


class ConvexPolygon(NamedTuple):
    """Canonical convex polygon: CCW vertices starting at the lexicographic
    minimum, strict turns everywhere; 1 and 2 vertices are the degenerate
    point and segment polygons."""

    vertices: tuple[Point, ...]

    def __len__(self) -> int:
        """The number of vertices, not of fields."""
        return len(self.vertices)

    def directed_edges(self) -> tuple[tuple[Point, Point], ...]:
        """Hull edges as shot entries: full CCW cycle, and both directions
        for the degenerate segment polygon (its 'two edges')."""
        v = self.vertices
        n = len(v)
        if n == 1:
            return ()
        if n == 2:
            return ((v[0], v[1]), (v[1], v[0]))
        return tuple((v[i], v[(i + 1) % n]) for i in range(n))

    def bbox(self) -> AABB:
        return box_of(self.vertices)


def hull_chains(points) -> tuple[list[Point], list[Point]]:
    """Andrew's monotone chain: the lower and upper hull chains of a point
    collection, each ascending in (x, y) with strict turns; a point gives
    ([p], [p]), collinear points ([a, b], [a, b]), and the canonical
    polygon is ``lower + upper[-2:0:-1]``."""
    lower: list = []
    upper: list = []
    for p in sorted(set(points)):
        px, py = p
        while len(lower) > 1:
            (ox, oy), (ax, ay) = lower[-2:]
            if (ax - ox) * (py - oy) > (ay - oy) * (px - ox):
                break
            lower.pop()
        lower.append(p)
        while len(upper) > 1:
            (ox, oy), (ax, ay) = upper[-2:]
            if (ax - ox) * (py - oy) < (ay - oy) * (px - ox):
                break
            upper.pop()
        upper.append(p)
    return lower, upper


def chains_polygon(lower, upper) -> ConvexPolygon:
    return ConvexPolygon(tuple(lower + upper[-2:0:-1]))


def chain_edges(lower, upper) -> list[tuple[Point, Point]]:
    """Directed edges in ``ConvexPolygon.directed_edges`` order: the lower
    pairs left to right, then the upper pairs right to left."""
    return [*zip(lower, lower[1:]), *zip(upper[:0:-1], upper[-2::-1])]


def chain_has_edge(hull, p, q) -> bool:
    """Whether (p, q) is one of ``chain_edges(*hull)``: a lower pair when
    p < q, else the upper pair (q, p), found by one bisection."""
    chain, u, v = (hull[0], p, q) if p < q else (hull[1], q, p)
    i = bisect_left(chain, u) + 1
    return i < len(chain) and chain[i] == v and chain[i - 1] == u


def merge_hull_chains(h, g):
    """Merge two hulls, each (lower, upper) chains, with disjoint vertices by
    Preparata's insertion-only hull (CACM 1979): in place, the smaller
    hull's lower (upper) chain enters the larger's lower (upper) chain, as
    the outward normals that pick a vertex's chain only shrink. A vertex is
    bisected into place, skipped when on or inside the chain, else spliced
    in, popping neighbours that stop turning strictly. Returns (hull,
    added): the merged chains and only the directed edges that neither hull
    had, in canonical CCW order; liveness is read off the chains
    (``chain_has_edge``). A splice puts the inserted vertex next to both
    ends of the gap it closes, so each new pair has an inserted vertex
    still on the chain and is not a pair of the smaller chain."""
    if len(h[0]) + len(h[1]) < len(g[0]) + len(g[1]):
        h, g = g, h
    added = []
    for chain, s, small in ((h[0], 1, g[0]), (h[1], -1, g[1])):
        for p in small:
            px, py = p
            a = b = bisect_left(chain, p)
            n = len(chain)
            if 0 < a < n:
                (ox, oy), (ax, ay) = chain[a - 1], chain[a]
                if s * ((ax - ox) * (py - oy) - (ay - oy) * (px - ox)) >= 0:
                    continue
            while a > 1:
                (ox, oy), (ax, ay) = chain[a - 2], chain[a - 1]
                if s * ((ax - ox) * (py - oy) - (ay - oy) * (px - ox)) > 0:
                    break
                a -= 1
            while b < n - 1:
                (ax, ay), (bx, by) = chain[b], chain[b + 1]
                if s * ((ax - px) * (by - py) - (ay - py) * (bx - px)) > 0:
                    break
                b += 1
            chain[a:b] = (p,)
        new = set()
        for p in small:
            i = bisect_left(chain, p)
            if i < len(chain) and chain[i] == p:
                if i:
                    new.add((chain[i - 1], p))
                if i + 1 < len(chain):
                    new.add((p, chain[i + 1]))
        new.difference_update(zip(small, small[1:]))
        # chain order is x order: a lower pair (u, v) is the edge (u, v), an
        # upper pair the edge (v, u); lower edges ascend, upper ones descend
        added += sorted(new) if s > 0 else [(v, u) for u, v in sorted(new, reverse=True)]
    return h, added


def convex_hull(points) -> ConvexPolygon:
    """Convex hull of a nonempty collection of integer points, collinear
    points and duplicates collapsed, canonical vertex order; a coordinate
    that is not an integer raises TypeError (``operator.index``)."""
    pts = [(index(x), index(y)) for x, y in points]
    if not pts:
        raise ValueError("convex_hull of empty point set")
    return chains_polygon(*hull_chains(pts))


def point_in_convex_polygon(p, poly: ConvexPolygon) -> str:
    """Exact classification of an integer or rational point against the
    closed region of a canonical convex polygon."""
    px, py = p
    v = poly.vertices
    if len(v) < 3:
        # the point or the segment from v[0] to v[-1]: p on its line and box
        (ax, ay), (bx, by) = v[0], v[-1]
        on = _orient(ax, ay, bx, by, px, py) == 0 and poly.bbox().contains_point(p)
        return BOUNDARY if on else OUTSIDE
    # turns are strict, so a point on an edge's line beyond the edge lies
    # right of a neighbouring edge: o == 0 and no o < 0 is the boundary
    on_edge = False
    ax, ay = v[-1]
    for bx, by in v:
        o = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if o < 0:
            return OUTSIDE
        on_edge = on_edge or o == 0
        ax, ay = bx, by
    return BOUNDARY if on_edge else INSIDE


def polygons_intersect(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """Closed-set intersection test; touching counts as intersecting. The
    polygons meet iff a vertex of one lies in the other or two edges meet."""
    if not boxes_intersect(p.bbox(), q.bbox()):
        return False
    if any(point_in_convex_polygon(v, q) != OUTSIDE for v in p.vertices):
        return True
    if any(point_in_convex_polygon(v, p) != OUTSIDE for v in q.vertices):
        return True
    return any(
        _seg_relation(ax, ay, bx, by, cx, cy, dx, dy)
        for (ax, ay), (bx, by) in p.directed_edges()
        for (cx, cy), (dx, dy) in q.directed_edges()
    )


class BoundaryIntersections(NamedTuple):
    points: tuple[RationalPoint, ...]
    overlap: bool

    def __len__(self) -> int:
        """The number of points, not of fields."""
        return len(self.points)


def _segment_intersection_set(a: Point, b: Point, c: Point, d: Point):
    """Exact intersection of two closed integer segments.

    Returns (points, overlap): the isolated intersection points, or the two
    endpoints of a positive-length collinear overlap with overlap=True.
    """
    rel = _seg_relation(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    if rel == 0:
        return (), False
    from fractions import Fraction

    d1 = orient(c, d, a)
    d2 = orient(c, d, b)
    d3 = orient(a, b, c)
    d4 = orient(a, b, d)
    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: order the four endpoints along the line
        key = (lambda p: p[0]) if a[0] != b[0] or c[0] != d[0] else (lambda p: p[1])
        lo1, hi1 = sorted((a, b), key=key)
        lo2, hi2 = sorted((c, d), key=key)
        lo = max(lo1, lo2, key=key)
        hi = min(hi1, hi2, key=key)
        if key(lo) == key(hi):
            return ((Fraction(lo[0]), Fraction(lo[1])),), False
        return (
            (Fraction(lo[0]), Fraction(lo[1])),
            (Fraction(hi[0]), Fraction(hi[1])),
        ), True
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        # proper crossing at one interior rational point
        rx, ry = b[0] - a[0], b[1] - a[1]
        sx, sy = d[0] - c[0], d[1] - c[1]
        den = rx * sy - ry * sx
        tn = (c[0] - a[0]) * sy - (c[1] - a[1]) * sx
        t = Fraction(tn, den)
        return ((a[0] + t * rx, a[1] + t * ry),), False
    # touching at an endpoint of one of the segments
    pts = set()
    if d1 == 0 and _on_segment(a[0], a[1], c[0], c[1], d[0], d[1]):
        pts.add((Fraction(a[0]), Fraction(a[1])))
    if d2 == 0 and _on_segment(b[0], b[1], c[0], c[1], d[0], d[1]):
        pts.add((Fraction(b[0]), Fraction(b[1])))
    if d3 == 0 and _on_segment(c[0], c[1], a[0], a[1], b[0], b[1]):
        pts.add((Fraction(c[0]), Fraction(c[1])))
    if d4 == 0 and _on_segment(d[0], d[1], a[0], a[1], b[0], b[1]):
        pts.add((Fraction(d[0]), Fraction(d[1])))
    return tuple(sorted(pts)), False


def boundary_intersection_points(p: ConvexPolygon, q: ConvexPolygon) -> BoundaryIntersections:
    """All points of the two polygon boundaries' intersection, deduplicated;
    collinear boundary overlap is reported by its two endpoints plus a flag."""
    if len(p) == 1:
        from fractions import Fraction

        pt = p.vertices[0]
        on = point_in_convex_polygon(pt, q) == BOUNDARY
        return BoundaryIntersections(
            ((Fraction(pt[0]), Fraction(pt[1])),) if on else (), False
        )
    if len(q) == 1:
        return boundary_intersection_points(q, p)
    points = set()
    overlap = False
    for a, b in p.directed_edges():
        for c, d in q.directed_edges():
            pts, ov = _segment_intersection_set(a, b, c, d)
            points.update(pts)
            overlap = overlap or ov
    return BoundaryIntersections(tuple(sorted(points)), overlap)


def merge_convex_hulls(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Convex hull of the union; correct for arbitrary convex polygons since
    Conv(Conv(A) u Conv(B)) = Conv(A u B)."""
    return convex_hull(p.vertices + q.vertices)


class _AABBFields(NamedTuple):
    xmin: int
    ymin: int
    xmax: int
    ymax: int


class AABB(_AABBFields):
    """Closed axis-aligned box; an inverted one raises ValueError."""

    __slots__ = ()

    def __new__(cls, xmin, ymin, xmax, ymax):
        if xmin > xmax or ymin > ymax:
            fields = f"xmin={xmin!r}, ymin={ymin!r}, xmax={xmax!r}, ymax={ymax!r}"
            raise ValueError(f"inverted box AABB({fields})")
        return tuple.__new__(cls, (xmin, ymin, xmax, ymax))

    def contains_point(self, p) -> bool:
        return self.xmin <= p[0] <= self.xmax and self.ymin <= p[1] <= self.ymax

    def contains_box(self, other: "AABB") -> bool:
        return (
            self.xmin <= other.xmin
            and other.xmax <= self.xmax
            and self.ymin <= other.ymin
            and other.ymax <= self.ymax
        )

    def strictly_contains_box(self, other: "AABB") -> bool:
        return (
            self.xmin < other.xmin
            and other.xmax < self.xmax
            and self.ymin < other.ymin
            and other.ymax < self.ymax
        )

    def corners(self) -> tuple[Point, ...]:
        return (
            (self.xmin, self.ymin),
            (self.xmax, self.ymin),
            (self.xmax, self.ymax),
            (self.xmin, self.ymax),
        )


def box_of(points) -> AABB:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if not xs:
        raise ValueError("box_of empty point set")
    return AABB(min(xs), min(ys), max(xs), max(ys))


def boxes_intersect(a: AABB, b: AABB) -> bool:
    """Closed boxes; touching counts."""
    return not (
        a.xmax < b.xmin or b.xmax < a.xmin or a.ymax < b.ymin or b.ymax < a.ymin
    )


def box_union(a: AABB, b: AABB) -> AABB:
    return AABB(
        min(a.xmin, b.xmin),
        min(a.ymin, b.ymin),
        max(a.xmax, b.xmax),
        max(a.ymax, b.ymax),
    )


def sweep_along_y(x1, y1, x2, y2) -> bool:
    """Whether an interval sweep over these segments, or over boxes given by
    two opposite corners, should run along y instead of x.

    A sweep along x keeps about sum(|x2 - x1| + 1) / (W + 1) intervals
    active, W being the x-spread: each closed interval covers |x2 - x1| + 1
    of the W + 1 integer abscissae. Along y the same holds with y. Sweep y
    only when its count is strictly smaller, compared in integers, so ties
    keep x; a column of vertical edges, where W = 0, sweeps y."""
    if not x1:
        return False
    dx = sum(map(abs, map(sub, x2, x1))) + len(x1)
    dy = sum(map(abs, map(sub, y2, y1))) + len(y1)
    w = max(max(x1), max(x2)) - min(min(x1), min(x2)) + 1
    h = max(max(y1), max(y2)) - min(min(y1), min(y2)) + 1
    return dy * w < dx * h


def outermost(regions: list, boxes: list[AABB], contains) -> list[int]:
    """For each region, the index of the outermost region containing it, or
    its own index when no other region contains it.

    ``boxes[i]`` bounds ``regions[i]``; ``contains(inner, outer)`` is exact.
    Precondition: regions pairwise disjoint or nested. The sweep runs along
    the axis ``sweep_along_y`` picks for the boxes; along x, regions sorted
    by (xmin, -xmax, ymin, -ymax) put containers before what they contain,
    the sweep keeps the outermost regions whose xmax reaches the current
    xmin, and ``contains`` runs only on those whose box holds the current
    box (along y, swap x and y). Each region's outermost container is
    unique, so the result does not depend on the axis. Two regions sharing
    a box (the sort cannot order them), or a region in two outermost
    regions, raise AssertionError."""
    if len(set(boxes)) < len(boxes):
        raise AssertionError("two regions share a bounding box")
    lo = [b.xmin for b in boxes]
    hi = [b.xmax for b in boxes]
    lo2 = [b.ymin for b in boxes]
    hi2 = [b.ymax for b in boxes]
    if sweep_along_y(lo, lo2, hi, hi2):
        lo, hi, lo2, hi2 = lo2, hi2, lo, hi
    key = [(a, -b, c, -d) for a, b, c, d in zip(lo, hi, lo2, hi2)]
    home = list(range(len(regions)))
    active: list[int] = []
    for i in sorted(home, key=key.__getitem__):
        start = lo[i]
        active = [j for j in active if hi[j] >= start]
        b = boxes[i]
        homes = [
            j
            for j in active
            if boxes[j].contains_box(b) and contains(regions[i], regions[j])
        ]
        if len(homes) > 1:
            raise AssertionError(f"region {i} lies in {len(homes)} outermost regions")
        if homes:
            home[i] = homes[0]
        else:
            active.append(i)
    return home


class _CircleFields(NamedTuple):
    cx: float
    cy: float
    r: float


class Circle(_CircleFields):
    """Closed disk; a negative radius raises ValueError."""

    __slots__ = ()

    def __new__(cls, cx, cy, r):
        if r < 0:
            raise ValueError("negative radius")
        return tuple.__new__(cls, (cx, cy, r))

    def contains_point(self, p, eps: float = MEC_EPS) -> bool:
        dx = p[0] - self.cx
        dy = p[1] - self.cy
        return dx * dx + dy * dy <= self.r * self.r + eps


def _circle_two(a, b) -> Circle:
    cx = (a[0] + b[0]) / 2.0
    cy = (a[1] + b[1]) / 2.0
    return Circle(cx, cy, math.dist((cx, cy), a))


def _circumcircle(a, b, c):
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0:
        return None
    aa = a[0] * a[0] + a[1] * a[1]
    bb = b[0] * b[0] + b[1] * b[1]
    cc = c[0] * c[0] + c[1] * c[1]
    ux = (aa * (b[1] - c[1]) + bb * (c[1] - a[1]) + cc * (a[1] - b[1])) / d
    uy = (aa * (c[0] - b[0]) + bb * (a[0] - c[0]) + cc * (b[0] - a[0])) / d
    return Circle(ux, uy, math.dist((ux, uy), a))


def min_enclosing_circle(points) -> Circle:
    """Smallest enclosing circle, randomized incremental (floating point).

    The shuffle uses a fixed internal seed so results are deterministic for
    a given input."""
    pts = sorted(set((p[0], p[1]) for p in points))
    if not pts:
        raise ValueError("min_enclosing_circle of empty point set")
    random.Random(0x5EED).shuffle(pts)
    c = Circle(float(pts[0][0]), float(pts[0][1]), 0.0)
    for i, p in enumerate(pts):
        if c.contains_point(p):
            continue
        c = Circle(float(p[0]), float(p[1]), 0.0)
        for j in range(i):
            q = pts[j]
            if c.contains_point(q):
                continue
            c = _circle_two(p, q)
            for k in range(j):
                r = pts[k]
                if c.contains_point(r):
                    continue
                cc = _circumcircle(p, q, r)
                if cc is not None:
                    c = cc
    return c


def circles_intersect(c1: Circle, c2: Circle, eps: float = MEC_EPS) -> bool:
    return math.dist((c1.cx, c1.cy), (c2.cx, c2.cy)) <= c1.r + c2.r + eps


def enclosing_circle_of_two(c1: Circle, c2: Circle) -> Circle:
    """Smallest circle containing both closed disks (analytic)."""
    d = math.dist((c1.cx, c1.cy), (c2.cx, c2.cy))
    if d + c2.r <= c1.r:
        return c1
    if d + c1.r <= c2.r:
        return c2
    r = (d + c1.r + c2.r) / 2.0
    t = (r - c1.r) / d
    return Circle(c1.cx + (c2.cx - c1.cx) * t, c1.cy + (c2.cy - c1.cy) * t, r)
