"""Fast hull-cover engine.

Builds the hull-cover by shooting a ray along every hull edge of every live
component: a ray blocked by a foreign component proves the two hulls overlap
(they get unioned and the merged hull's edges are enqueued), and every shot
ray is permanently inserted as an obstacle owned by the shooter, so later
rays stop at it and discover the overlap from the other side. When the
worklist drains the live hulls are pairwise disjoint or strictly nested; the
maximal ones form the cover. Obstacles are of one kind, a ray from an integer
point that stops at a rational parameter: a tree edge stops at t = 1.

The ray shooter is pluggable. Every engine shot runs along an edge (p, q)
of the shooter's own hull, and q is an obstacle of the shooter's own
component, so the first hit lies on the chord [p, q]; both shooters serve
only such shots. The engine's default, `BucketGridShooter`, scans only the
obstacles bucketed in the grid cells that the chord crosses.
`NaiveRayShooter` scans every stored obstacle per shot (exact, quadratic
overall) and is the reference the tests compare against; both give
identical results. A shot returns each hit as the kernel's integers
``(obstacle, n, d)``, the obstacle's id and the exact parameter t = n / d
along the chord; the engine and its trace read them without building a
fraction. A ray that ends at its chord's end q, as every engine ray stopped
by its own hull vertex does, covers exactly the grid cells the shot scanned
and is registered under those keys; a ray that stops short is rasterized on
its own.

Two engine details differ from the naive definition but provably preserve
the cover. First, the per-shot merge test uses the nearest *foreign* hit
even when an own obstacle sits closer on the chord (an own tree vertex may
be collinear with a hull edge; treating that shot as clear would hide the
foreign blockage behind it). Second, each directed hull edge is shot at
most once, while it is an edge of a live hull: tree obstacles never change,
so a shot's verdict is permanent. A merge only grows a hull, so an edge
that leaves a live hull never returns to one (if (p, q) is an edge of H'
and H' contains H with p and q in H, then (p, q) is an edge of H). A live
hull is kept as its lower and upper monotone chains, and a merge inserts
the smaller hull's vertices into the larger hull's chains, so it costs the
smaller hull (``geom.merge_hull_chains``, called as ``merge_convex_hulls``,
the name perfbench's tracer and the tests patch). It returns only the
edges it added, each at an inserted vertex, and they are enqueued in
canonical hull order, so the shots are those of a full rebuild. Liveness
is read off the chains: a popped edge that is not on its component's
chains (``geom.chain_has_edge``) left the hull in a merge and is skipped,
and the ray count is capped at the initial edge count plus two tangents
per merge.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import NamedTuple

# ``_kernelpy.scan`` is looked up at each call, so a wrapper patched onto the
# module (perfbench's tracer, the tests' counters) sees every shot.
from . import _kernelpy
from .geom import (
    AABB,
    INSIDE,
    OUTSIDE,
    ConvexPolygon,
    boundary_intersection_points,
    chain_edges,
    chain_has_edge,
    chains_polygon,
    hull_chains,
    merge_hull_chains as merge_convex_hulls,
    outermost,
    point_in_convex_polygon,
    polygons_intersect,
)
from .model import Cover, Instance


class InternalInvariantError(AssertionError):
    """An engine invariant failed; indicates a bug, reported as exit 1."""


class ComponentSet:
    """Union-find over tree indices; each root carries the component's
    current hull as its (lower, upper) chains (``geom.hull_chains``)."""

    def __init__(self, m: int):
        self.parent = list(range(m))
        self._size = [1] * m
        self.hull: dict[int, tuple[list, list]] = {}

    def find(self, i: int) -> int:
        return _kernelpy._uf_find(self.parent, i)

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise InternalInvariantError("union of a component with itself")
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra


class NaiveRayShooter:
    """Baseline shooter: permanent obstacle store, linear scan per shot.

    Obstacles are tree edges, bare vertices and previously shot rays, all
    stored alike: ``obstacles`` holds one record ``(x, y, dx, dy, tn, td,
    owner)`` per obstacle, the points (x, y) + t (dx, dy) with
    0 <= t <= tn / td, in the layout ``_kernelpy.scan`` reads. A tree edge
    is a ray that stops at t = 1, a bare vertex one with direction (0, 0),
    and a shot ray runs from its integer origin along its chord's integer
    direction up to the exact rational parameter of its hit. Every shot
    inserts its ray as a new obstacle; a ray that escapes all obstacles
    inserts nothing. An obstacle's id is its index in the list.
    """

    def __init__(self, components: ComponentSet):
        self.components = components
        self.obstacles: list[tuple] = []

    def __len__(self) -> int:
        return len(self.obstacles)

    def _push(self, ob: tuple) -> int:
        self.obstacles.append(ob)
        return len(self.obstacles) - 1

    def insert_segment(self, a, b, owner: int) -> int:
        return self._push((a[0], a[1], b[0] - a[0], b[1] - a[1], 1, 1, owner))

    def _insert_ray(self, origin, direction, tn: int, td: int, owner: int) -> int:
        return self._push((*origin, *direction, tn, td, owner))

    def _scan(self, origin, through, own_root: int):
        return _kernelpy.scan(
            origin[0],
            origin[1],
            through[0],
            through[1],
            self.obstacles,
            self.components.parent,
            own_root,
        )

    def shoot_from(self, origin, through, own_root: int):
        """Engine shot: returns (hit, merge_hit), each ``(obstacle, n, d)``
        for a hit at t = n / d (d > 0, not necessarily in lowest terms) or
        None. hit is the overall first hit; merge_hit is the nearest hit
        owned by a foreign component when it lies at t <= 1 on the chord.
        Inserts the ray up to the merge hit when merging, else up to the
        first hit."""
        ia, na, da, if_, nf, df = self._scan(origin, through, own_root)
        if ia < 0:
            return None, None
        e = (through[0] - origin[0], through[1] - origin[1])
        if if_ >= 0 and nf <= df:  # foreign hit with t <= 1
            self._insert_ray(origin, e, nf, df, own_root)
            return (ia, na, da), (if_, nf, df)
        self._insert_ray(origin, e, na, da, own_root)
        return (ia, na, da), None


class BucketGridShooter(NaiveRayShooter):
    """Shooter over a grid of obstacle buckets, bounded by the shot chord.

    Every obstacle is registered in each cell it meets. A shot from origin
    through ``through`` scans only the obstacles registered in the cells
    that the chord [origin, through] meets, in obstacle-id order, so a hit
    at t <= 1 is the one the full scan finds, tie-break included. A chord
    must end on an obstacle, as every engine chord does: when no candidate
    is hit at t <= 1 the shot reports no hit, like a ray that escapes, and
    inserts nothing. The foreign result of ``_scan`` is exact only at
    t <= 1, the only place ``shoot_from`` reads it.

    Cells are ``cell = (width, height)`` integer rectangles anchored at the
    bounds' lower-left corner; a point belongs to the cell
    ``floor((p - corner) / cell)``, keyed ``column * ny + row``.
    Rasterization is exact and conservative: an object is registered in the
    cell of each of its points, hence an obstacle and a chord sharing a
    point share that cell. Engine obstacles and chords lie inside the
    bounds, the vertices' bounding box; beyond them keys of neighbouring
    columns may coincide, which only adds candidates.
    """

    def __init__(self, components: ComponentSet, bounds: AABB, cell):
        super().__init__(components)
        self.x0, self.y0 = bounds.xmin, bounds.ymin
        self.cw, self.ch = cell
        self.ny = (bounds.ymax - bounds.ymin) // self.ch + 1
        self.cells: dict[int, list[int]] = {}
        # the chord of the last scan, (ox, oy, tx, ty), and its cell keys
        self._chord = (None, None, None, None, ())

    @staticmethod
    def factory_for(instance: Instance):
        """Engine shooter_factory for the instance: the grid spans its
        bounding box, and cells start as wide and tall as twice the mean
        tree edge, doubled together until there are at most 4n of them."""
        cols = instance.columns
        px, py = cols.px or (0,), cols.py or (0,)
        bounds = AABB(min(px), min(py), max(px), max(py))
        ga, gb = cols.edge_ends()
        cw = ch = 1
        if ga:
            cw = max(1, 2 * sum(abs(px[b] - px[a]) for a, b in zip(ga, gb)) // len(ga))
            ch = max(1, 2 * sum(abs(py[b] - py[a]) for a, b in zip(ga, gb)) // len(ga))
        w, h = bounds.xmax - bounds.xmin, bounds.ymax - bounds.ymin
        while (w // cw + 1) * (h // ch + 1) > max(1, 4 * instance.n):
            cw *= 2
            ch *= 2

        def make(comps):
            return BucketGridShooter(comps, bounds, (cw, ch))

        return make

    def _cells(self, ax, ay, bx, by, d: int):
        """Keys (column * ny + row) of the cells met by the closed segment
        from (ax, ay) / d to (bx, by) / d, d > 0: per column, every row
        between those of the segment's ends inside that column."""
        if bx < ax:
            ax, ay, bx, by = bx, by, ax, ay
        ny = self.ny
        wd, hd = self.cw * d, self.ch * d
        x0, y0 = self.x0 * d, self.y0 * d
        c0 = (ax - x0) // wd
        c1 = (bx - x0) // wd
        if c0 == c1:
            lo, hi = (ay, by) if ay <= by else (by, ay)
            k = c0 * ny
            return range(k + (lo - y0) // hd, k + (hi - y0) // hd + 1)
        # row at scaled abscissa x is (base + dy * x) // den
        dx, dy = bx - ax, by - ay
        den = hd * dx
        base = (ay - y0) * dx - dy * ax
        keys = []
        ra = (base + dy * ax) // den
        for c in range(c0, c1 + 1):
            rb = (base + dy * (bx if c == c1 else x0 + (c + 1) * wd)) // den
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            k = c * ny
            keys.extend(range(k + lo, k + hi + 1))
            ra = rb
        return keys

    def _push(self, ob: tuple) -> int:
        idx = super()._push(ob)
        x, y, dx, dy, tn, td, _ = ob
        if tn == td and self._chord[:4] == (x, y, x + dx, y + dy):
            keys = self._chord[4]  # a ray that ends at t = 1 is the chord scanned
        else:
            ax, ay = x * td, y * td
            keys = self._cells(ax, ay, ax + dx * tn, ay + dy * tn, td)
        for key in keys:
            self.cells.setdefault(key, []).append(idx)
        return idx

    def _scan(self, origin, through, own_root: int):
        cells = self.cells
        found = set()
        ox, oy, tx, ty = origin[0], origin[1], through[0], through[1]
        keys = self._cells(ox, oy, tx, ty, 1)
        self._chord = (ox, oy, tx, ty, keys)
        for key in keys:
            bucket = cells.get(key)
            if bucket is not None:
                found.update(bucket)
        ids = sorted(found)
        obstacles = self.obstacles
        candidates = [obstacles[i] for i in ids]
        ia, na, da, if_, nf, df = _kernelpy.scan(
            ox, oy, tx, ty, candidates, self.components.parent, own_root
        )
        if ia < 0 or na > da:
            return -1, 0, 0, -1, 0, 0
        return ids[ia], na, da, ids[if_] if if_ >= 0 else -1, nf, df


class HullStats(NamedTuple):
    rays_shot: int
    merges: int
    initial_edges: int


def contained_in(inner: ConvexPolygon, outer: ConvexPolygon) -> bool:
    """Closed containment for boundary-disjoint (possibly touching) hulls."""
    c = point_in_convex_polygon(inner.vertices[0], outer)
    if c == INSIDE:
        return True
    if c == OUTSIDE:
        return False
    return all(point_in_convex_polygon(v, outer) != OUTSIDE for v in inner.vertices)


def maximal_regions(polygons: list[ConvexPolygon]) -> list[int]:
    """For each polygon, the index of the outermost polygon containing it
    (its own index when it is maximal).

    Precondition: boundaries pairwise disjoint or well-nested, so
    containment is decided by vertex classification."""
    return outermost(polygons, [p.bbox() for p in polygons], contained_in)


def weakly_disjoint(p: ConvexPolygon, q: ConvexPolygon) -> bool:
    """Diagnostic predicate: no shared vertex and at most two boundary
    intersection points (the testable characterization)."""
    if set(p.vertices) & set(q.vertices):
        return False
    res = boundary_intersection_points(p, q)
    return not res.overlap and len(res.points) <= 2


def hull_cover_fast(
    instance: Instance,
    shooter_factory=None,
    debug: bool = False,
    trace: list | None = None,
):
    """Compute the hull-cover; returns (Cover, HullStats). When ``trace`` is
    a list, one ray record ``{"from", "to", "merge"}`` is appended to it per
    shot.

    The cover equals the naive merge-fixpoint hull cover exactly.
    """
    m = instance.m
    comps = ComponentSet(m)
    if shooter_factory is None:
        shooter_factory = BucketGridShooter.factory_for(instance)
    shooter = shooter_factory(comps)

    worklist: deque = deque()
    px, py, voff, ea, eb, eoff = instance.columns
    for i in range(m):
        pts = list(zip(px[voff[i] : voff[i + 1]], py[voff[i] : voff[i + 1]]))
        if eoff[i] == eoff[i + 1]:
            # a bare vertex is the zero-length segment from it to itself
            shooter.insert_segment(pts[0], pts[0], i)
        for e in range(eoff[i], eoff[i + 1]):
            shooter.insert_segment(pts[ea[e]], pts[eb[e]], i)
        hull = comps.hull[i] = hull_chains(pts)
        worklist.extend((p, q, i) for p, q in chain_edges(*hull))
    initial_edges = len(worklist)

    rays_shot = 0
    merges = 0

    while worklist:
        p, q, rep = worklist.popleft()
        root = comps.find(rep)
        # vertices are globally distinct: an edge lies only on its own hull
        if not chain_has_edge(comps.hull[root], p, q):
            continue
        rays_shot += 1
        hit, merge_hit = shooter.shoot_from(p, q, root)
        if hit is None:
            raise InternalInvariantError(
                f"hull-edge shot from {p} through {q} escaped all obstacles"
            )
        if trace is not None:
            _, n, d = merge_hit or hit
            # the end point p + (n / d)(q - p); int / int rounds correctly,
            # as float(Fraction) does
            to = [(p[k] * d + n * (q[k] - p[k])) / d for k in (0, 1)]
            trace.append(
                {"from": [p[0], p[1]], "to": to, "merge": merge_hit is not None}
            )
        if merge_hit is not None:
            obstacle, n, d = merge_hit
            other = comps.find(shooter.obstacles[obstacle][6])
            if debug:
                if not (0 < n < d):
                    raise InternalInvariantError(
                        f"merging hit at t={n}/{d}, expected strictly inside "
                        "the shot edge"
                    )
                _assert_connecting_edge_clean(shooter, comps, p, q, n, d, root, other)
            hull, added = merge_convex_hulls(comps.hull.pop(root), comps.hull.pop(other))
            winner = comps.union(root, other)
            comps.hull[winner] = hull
            # an edge of an old hull was shot already or is still queued
            worklist.extend((p2, q2, winner) for p2, q2 in added)
            merges += 1
            if merges > m - 1:
                raise InternalInvariantError("more than m - 1 merges")
            if debug:
                ray_owner = comps.find(shooter.obstacles[-1][6])
                hit_owner = comps.find(shooter.obstacles[obstacle][6])
                if ray_owner != hit_owner or ray_owner != winner:
                    raise InternalInvariantError(
                        "merging ray and hit obstacle ended up in different "
                        "components"
                    )
                _assert_live_weak_disjointness(comps)

    roots = sorted({comps.find(i) for i in range(m)})
    hulls = [chains_polygon(*comps.hull[r]) for r in roots]
    if debug:
        _assert_nested_or_disjoint(hulls)
    home = dict(zip(roots, (roots[h] for h in maximal_regions(hulls))))
    members: dict[int, list[int]] = {r: [] for r in roots if home[r] == r}
    for i in range(m):
        members[home[comps.find(i)]].append(i)
    cover = Cover.build(
        "hull", ((h, tuple(members[r])) for r, h in zip(roots, hulls) if home[r] == r)
    )
    return cover, HullStats(rays_shot, merges, initial_edges)


def _assert_connecting_edge_clean(shooter, comps, origin, through, n, d, root_a, root_b):
    """Debug check (brute re-scan): no obstacle of a third component sits
    strictly before the merging hit at t = n / d along the shot ray."""
    ids = [
        idx
        for idx, ob in enumerate(shooter.obstacles)
        if comps.find(ob[6]) not in (root_a, root_b)
    ]
    third = [shooter.obstacles[idx] for idx in ids]
    ia, na, da, _, _, _ = _kernelpy.scan(
        origin[0], origin[1], through[0], through[1], third, comps.parent, -1
    )
    if ia >= 0 and na * d < n * da:
        raise InternalInvariantError(
            f"third-component obstacle {ids[ia]} blocks the connecting edge"
        )


def _assert_live_weak_disjointness(comps):
    roots = sorted(set(comps.find(i) for i in range(len(comps.parent))))
    hulls = [chains_polygon(*comps.hull[r]) for r in roots]
    for p, q in combinations(hulls, 2):
        if not (weakly_disjoint(p, q) or contained_in(p, q) or contained_in(q, p)):
            raise InternalInvariantError("live hulls neither weakly disjoint nor nested")


def _assert_nested_or_disjoint(hulls):
    for p, q in combinations(hulls, 2):
        if polygons_intersect(p, q) and not (contained_in(p, q) or contained_in(q, p)):
            raise InternalInvariantError("final live hulls overlap without nesting")
