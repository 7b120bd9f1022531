"""Exact 2-D geometry: predicates, convex polygons, boxes, circles.

Coordinates of input points are integers bounded by 2^30, so every predicate
here is exact (integer or Fraction arithmetic). Ray-hit and boundary-crossing
points carry exact rational coordinates. Only the minimum-enclosing-circle
corner works in floating point, with a documented epsilon; its values never
feed the exact engines.

All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

# Bound once at import: perfbench's tracer patches ``_kernelpy.seg_relation``
# to count the pairs that ``find_contacts`` tests, and these calls stay out
# of that count.
from ._kernelpy import orient as _orient
from ._kernelpy import point_in_convex as _point_in_convex
from ._kernelpy import polys_intersect as _polys_intersect
from ._kernelpy import seg_relation as _seg_relation

Point = tuple[int, int]
RationalPoint = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]

COORD_LIMIT = 1 << 30

DISJOINT = "disjoint"
TOUCHING = "touching"
CROSSING = "crossing"

OUTSIDE = "outside"
BOUNDARY = "boundary"
INSIDE = "inside"

_SEG_RELATION_NAMES = (DISJOINT, TOUCHING, CROSSING)
_CONTAINMENT_NAMES = (OUTSIDE, BOUNDARY, INSIDE)

MEC_EPS = 1e-9


def orient(a, b, c) -> int:
    """Sign of (b - a) x (c - a); accepts integer or Fraction coordinates."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    if isinstance(ax, int) and isinstance(bx, int) and isinstance(cx, int):
        return _orient(ax, ay, bx, by, cx, cy)
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def segments_intersect(s: Segment, t: Segment) -> str:
    """Classify two closed segments as disjoint, touching, or crossing."""
    (a, b), (c, d) = s, t
    rel = _seg_relation(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    return _SEG_RELATION_NAMES[rel]


@dataclass(frozen=True)
class ConvexPolygon:
    """Canonical convex polygon: CCW vertices starting at the lexicographic
    minimum, strict turns everywhere; 1 and 2 vertices are the degenerate
    point and segment polygons."""

    vertices: tuple[Point, ...]
    flat: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flat = tuple(c for v in self.vertices for c in v)
        object.__setattr__(self, "flat", flat)

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> tuple[tuple[Point, Point], ...]:
        v = self.vertices
        n = len(v)
        if n == 1:
            return ()
        if n == 2:
            return ((v[0], v[1]),)
        return tuple((v[i], v[(i + 1) % n]) for i in range(n))

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


def convex_hull(points) -> ConvexPolygon:
    """Convex hull of a nonempty point collection, collinear points and
    duplicates collapsed, canonical vertex order."""
    pts = sorted(set((int(x), int(y)) for x, y in points))
    if not pts:
        raise ValueError("convex_hull of empty point set")
    if len(pts) == 1:
        return ConvexPolygon((pts[0],))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                ox, oy = out[-2]
                ax, ay = out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    verts = tuple(lower[:-1] + upper[:-1])
    if len(verts) == 0:  # all collinear collapses to the two extremes
        verts = (pts[0], pts[-1])
    return ConvexPolygon(verts)


def point_in_convex_polygon(p, poly: ConvexPolygon) -> str:
    """Exact classification of an integer or rational point against the
    closed region of a canonical convex polygon."""
    px, py = p
    if isinstance(px, int) and isinstance(py, int):
        return _CONTAINMENT_NAMES[_point_in_convex(px, py, poly.flat)]
    v = poly.vertices
    n = len(v)
    if n == 1:
        return BOUNDARY if (px == v[0][0] and py == v[0][1]) else OUTSIDE
    if n == 2:
        return BOUNDARY if _rational_on_segment(p, v[0], v[1]) else OUTSIDE
    on_edge = False
    for i in range(n):
        a = v[i]
        b = v[(i + 1) % n]
        o = orient(a, b, p)
        if o < 0:
            return OUTSIDE
        if o == 0 and _rational_on_segment(p, a, b):
            on_edge = True
    return BOUNDARY if on_edge else INSIDE


def _rational_on_segment(p, a, b) -> bool:
    px, py = p
    if orient(a, b, p) != 0:
        return False
    if a[0] != b[0]:
        lo, hi = min(a[0], b[0]), max(a[0], b[0])
        return lo <= px <= hi
    lo, hi = min(a[1], b[1]), max(a[1], b[1])
    return lo <= py <= hi


def polygons_intersect(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """Closed-set intersection test; touching counts as intersecting."""
    return _polys_intersect(p.flat, q.flat)


@dataclass(frozen=True)
class BoundaryIntersections:
    points: tuple[RationalPoint, ...]
    overlap: bool

    def __len__(self) -> int:
        return len(self.points)


def _segment_intersection_set(a: Point, b: Point, c: Point, d: Point):
    """Exact intersection of two closed integer segments.

    Returns (points, overlap): the isolated intersection points, or the two
    endpoints of a positive-length collinear overlap with overlap=True.
    """
    rel = _seg_relation(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    if rel == 0:
        return (), False
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
    if d1 == 0 and _rational_on_segment(a, c, d):
        pts.add((Fraction(a[0]), Fraction(a[1])))
    if d2 == 0 and _rational_on_segment(b, c, d):
        pts.add((Fraction(b[0]), Fraction(b[1])))
    if d3 == 0 and _rational_on_segment(c, a, b):
        pts.add((Fraction(c[0]), Fraction(c[1])))
    if d4 == 0 and _rational_on_segment(d, a, b):
        pts.add((Fraction(d[0]), Fraction(d[1])))
    return tuple(sorted(pts)), False


def boundary_intersection_points(p: ConvexPolygon, q: ConvexPolygon) -> BoundaryIntersections:
    """All points of the two polygon boundaries' intersection, deduplicated;
    collinear boundary overlap is reported by its two endpoints plus a flag."""
    if len(p) == 1:
        pt = p.vertices[0]
        on = point_in_convex_polygon(pt, q) == BOUNDARY
        return BoundaryIntersections(
            ((Fraction(pt[0]), Fraction(pt[1])),) if on else (), False
        )
    if len(q) == 1:
        return boundary_intersection_points(q, p)
    points = set()
    overlap = False
    for a, b in p.edges():
        for c, d in q.edges():
            pts, ov = _segment_intersection_set(a, b, c, d)
            points.update(pts)
            overlap = overlap or ov
    return BoundaryIntersections(tuple(sorted(points)), overlap)


def merge_convex_hulls(p: ConvexPolygon, q: ConvexPolygon) -> ConvexPolygon:
    """Convex hull of the union; correct for arbitrary convex polygons since
    Conv(Conv(A) u Conv(B)) = Conv(A u B)."""
    return convex_hull(p.vertices + q.vertices)


@dataclass(frozen=True)
class AABB:
    xmin: int
    ymin: int
    xmax: int
    ymax: int

    def __post_init__(self):
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ValueError(f"inverted box {self}")

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


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("negative radius")

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
