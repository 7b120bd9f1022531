"""Fast hull-cover engine.

Builds the hull-cover by shooting a ray along every hull edge of every live
component, except those that their own tree's edges cover (below): a ray
blocked by a foreign component proves the two hulls overlap (they get
unioned and the merged hull's edges are enqueued), and every shot ray is
permanently inserted as an obstacle owned by the shooter, so later rays stop
at it and discover the overlap from the other side. When the worklist drains
the live hulls are pairwise disjoint or strictly nested; the maximal ones
form the cover. Obstacles are of one kind, a ray from an integer
point that stops at a rational parameter: a tree edge stops at t = 1.

When no two tree boxes meet (``geom.boxes_disjoint``, one sorted sweep),
the engine shoots nothing: every tree's hull is a region of its own, with
stats (0, 0, 0) and an empty trace. The cover is the fixpoint of merging
hulls that meet, and a hull lies in its bounding box, so the first merge
would join two trees whose boxes meet: there is none. Nor is one hull in
another, which would put its box inside the other's box. Otherwise
every tree runs through the engine as described here: the default grid
spans all trees, their edges and bare vertices enter the shooter in one
``insert_segments`` call, and ``maximal_regions`` sees every component's
hull. ``initial_edges`` is the length of the worklist before the first
shot: the trees' hull edges less those that their own tree covers.

A hull edge (p, q) of a tree T whose segment [p, q] is covered by T's own
edges (one edge, or a run of collinear edges; ``tree_covers``) is never
queued, because its shot never merges and its ray changes nothing:
- no edge or vertex of another tree touches [p, q], since the validator
  rejects every contact between trees;
- a ray shot by another component while T was foreign to it stops at its
  nearest foreign hit, so it reaches [p, q] only if it stops there, and it
  then hits an edge of T. Ties go to the lowest id, and every tree edge has
  a lower id than every ray, so that ray merged into T's component. Every
  obstacle that meets [p, q] is thus own to T, and a shot along (p, q)
  finds no foreign hit;
- that shot's ray would stop at its first own hit, so it would lie in
  [p, q], where T's edges already block the same points for the same owner
  with lower ids. Leaving it out changes no later hit parameter or owner.
A merge never adds an edge of either input hull, and an edge of a merged
hull whose ends lie in one tree is an edge of that tree's hull (vertices are
globally distinct). So only initial edges can be covered, and the test runs
once per tree at set-up: each tree vertex is walked at most twice.

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
fraction. The grid maps a segment to its cells in one place,
``BucketGridShooter._cells``: a chord when it is shot, and every obstacle,
tree edge or ray, when it is stored.

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
chains (``geom.chain_has_edge``) left the hull in a merge and is skipped.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

# ``_kernelpy.scan`` is looked up at each call, so a wrapper patched onto the
# module (perfbench's tracer, the tests' counters) sees every shot.
from . import _kernelpy
from .geom import (
    AABB,
    INSIDE,
    OUTSIDE,
    ConvexPolygon,
    boxes_disjoint,
    chain_edges,
    chain_has_edge,
    chains_polygon,
    hull_chains,
    merge_hull_chains as merge_convex_hulls,
    outermost,
    point_in_convex_polygon,
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

    def insert_segments(self, segments) -> None:
        """Inserts each ``(a, b, owner)`` of ``segments`` in turn, tree edges
        and bare vertices (a == b) before the first shot."""
        for a, b, owner in segments:
            self.insert_segment(a, b, owner)

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
    Rasterization is exact: an object is registered in the cells of its
    points and no other, hence an obstacle and a chord sharing a
    point share that cell. Engine obstacles and chords lie inside the
    bounds, the bounding box of the instance's vertices; beyond them keys
    of neighbouring columns may coincide, which only adds candidates.
    """

    def __init__(self, components: ComponentSet, bounds: AABB, cell):
        super().__init__(components)
        self.x0, self.y0 = bounds.xmin, bounds.ymin
        self.cw, self.ch = cell
        self.ny = (bounds.ymax - bounds.ymin) // self.ch + 1
        self.cells: dict[int, list[int]] = {}

    @staticmethod
    def factory_for(instance: Instance):
        """Engine shooter_factory for the instance, which has a tree: the
        grid spans the bounding box of its vertices, and cells start as
        wide and tall as twice the mean edge, doubled together until there
        are at most 4n of them, n the vertex count."""
        px, py, voff, ea, eb, eoff = instance.columns
        sx = sy = 0
        for v, e0, e1 in zip(voff, eoff, eoff[1:]):
            for a, b in zip(ea[e0:e1], eb[e0:e1]):
                sx += abs(px[v + b] - px[v + a])
                sy += abs(py[v + b] - py[v + a])
        bounds = AABB(min(px), min(py), max(px), max(py))
        edges = max(len(ea), 1)
        cw, ch = max(1, 2 * sx // edges), max(1, 2 * sy // edges)
        w, h = bounds.xmax - bounds.xmin, bounds.ymax - bounds.ymin
        while (w // cw + 1) * (h // ch + 1) > 4 * len(px):
            cw *= 2
            ch *= 2

        def make(comps):
            return BucketGridShooter(comps, bounds, (cw, ch))

        return make

    def _cells(self, ax, ay, bx, by, d: int):
        """Keys (column * ny + row) of the cells met by the closed segment
        from (ax, ay) / d to (bx, by) / d, d > 0, exactly the cells that hold
        one of its points: per column, every row between those of the
        segment's first and last point in that column. This is the grid's
        only rasterizer: chords, tree edges and rays all take their keys
        from it."""
        if bx < ax:
            ax, ay, bx, by = bx, by, ax, ay
        ny = self.ny
        wd, hd = self.cw * d, self.ch * d
        x0, y0 = self.x0 * d, self.y0 * d
        c0 = (ax - x0) // wd
        c1 = (bx - x0) // wd
        if c0 == c1:  # one column
            lo, hi = (ay, by) if ay <= by else (by, ay)
            k = c0 * ny
            return range(k + (lo - y0) // hd, k + (hi - y0) // hd + 1)
        if ay == by:  # one row across columns
            r = (ay - y0) // hd
            return range(c0 * ny + r, c1 * ny + r + 1, ny)
        # row at scaled abscissa x is (base + dy * x) // den
        dx, dy = bx - ax, by - ay
        den = hd * dx
        base = (ay - y0) * dx - dy * ax
        keys = []
        ra = (base + dy * ax) // den
        for c in range(c0, c1 + 1):
            num = base + dy * (bx if c == c1 else x0 + (c + 1) * wd)
            # a point on the column's right edge lies in the next column, so
            # a rising segment's last row here is that of the points just
            # below the edge point
            rb = (num - 1) // den if dy > 0 and c < c1 else num // den
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            k = c * ny
            keys.extend(range(k + lo, k + hi + 1))
            ra = num // den
        return keys

    def _push(self, ob: tuple) -> int:
        idx = super()._push(ob)
        x, y, dx, dy, tn, td, _ = ob
        ax, ay = x * td, y * td
        for key in self._cells(ax, ay, ax + dx * tn, ay + dy * tn, td):
            self.cells.setdefault(key, []).append(idx)
        return idx

    def insert_segments(self, segments) -> None:
        """``insert_segment`` for each ``(a, b, owner)`` of ``segments``, in
        one loop, each segment's keys from ``_cells``."""
        obstacles, cells, rasterize = self.obstacles, self.cells, self._cells
        idx = len(obstacles)
        for (ax, ay), (bx, by), owner in segments:
            obstacles.append((ax, ay, bx - ax, by - ay, 1, 1, owner))
            for key in rasterize(ax, ay, bx, by, 1):
                cells.setdefault(key, []).append(idx)
            idx += 1

    def _scan(self, origin, through, own_root: int):
        cells = self.cells
        found = set()
        ox, oy, tx, ty = origin[0], origin[1], through[0], through[1]
        for key in self._cells(ox, oy, tx, ty, 1):
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


def tree_covers(nbrs: dict, p, q) -> bool:
    """Whether the tree whose vertices' neighbours ``nbrs`` maps covers the
    segment [p, q] with its own edges: one edge, or a run of collinear edges
    walked from p, each step to the neighbour that points at q.

    Precondition: (p, q) is an edge of the tree's hull, whose chains turn
    strictly, so every tree vertex on the line pq lies in [p, q] and no step
    overshoots q; at most one edge of a non-crossing tree leaves a vertex in
    a given direction."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    cur = p
    while cur != q:
        cx, cy = cur
        for nx, ny in nbrs[cur]:
            ex, ey = nx - cx, ny - cy
            if dx * ey == dy * ex and dx * ex + dy * ey > 0:
                cur = nx, ny
                break
        else:
            return False
    return True


def hull_cover_fast(
    instance: Instance,
    shooter_factory=None,
    trace: list | None = None,
):
    """Compute the hull-cover; returns (Cover, HullStats). When ``trace`` is
    a list, one ray record ``{"from", "to", "merge"}`` is appended to it per
    shot.

    The cover equals the naive merge-fixpoint hull cover exactly.
    """
    m = instance.m
    px, py, voff, ea, eb, eoff = instance.columns
    points = [list(zip(px[a:b], py[a:b])) for a, b in zip(voff, voff[1:])]
    if boxes_disjoint(instance.tree_boxes()):
        # no two trees meet, so each is a maximal region of its own
        regions = [(chains_polygon(*hull_chains(pts)), (i,)) for i, pts in enumerate(points)]
        return Cover.build("hull", regions), HullStats(0, 0, 0)

    comps = ComponentSet(m)
    segments: list[tuple] = []
    worklist: deque = deque()
    for i, pts in enumerate(points):
        hull = comps.hull[i] = hull_chains(pts)
        if eoff[i] == eoff[i + 1]:
            # a bare vertex is the zero-length segment from it to itself
            segments.append((pts[0], pts[0], i))
            continue
        nbrs: dict = {}
        for e in range(eoff[i], eoff[i + 1]):
            a, b = pts[ea[e]], pts[eb[e]]
            segments.append((a, b, i))
            nbrs.setdefault(a, []).append(b)
            nbrs.setdefault(b, []).append(a)
        # a shot along a run of the tree's own edges never merges
        worklist.extend(
            (p, q, i) for p, q in chain_edges(*hull) if not tree_covers(nbrs, p, q)
        )
    initial_edges = len(worklist)
    if shooter_factory is None:
        shooter_factory = BucketGridShooter.factory_for(instance)
    shooter = shooter_factory(comps)
    shooter.insert_segments(segments)

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
            other = comps.find(shooter.obstacles[merge_hit[0]][6])
            hull, added = merge_convex_hulls(comps.hull.pop(root), comps.hull.pop(other))
            winner = comps.union(root, other)
            comps.hull[winner] = hull
            # an edge of an old hull was shot already or is still queued
            worklist.extend((p2, q2, winner) for p2, q2 in added)
            merges += 1
            if merges > m - 1:
                raise InternalInvariantError("more than m - 1 merges")

    roots = sorted(comps.hull)
    hulls = [chains_polygon(*comps.hull[r]) for r in roots]
    home = dict(zip(roots, (roots[h] for h in maximal_regions(hulls))))
    members: dict[int, list[int]] = {r: [] for r in roots if home[r] == r}
    for i in range(m):
        members[home[comps.find(i)]].append(i)
    regions = [(h, members[r]) for r, h in zip(roots, hulls) if home[r] == r]
    cover = Cover.build("hull", regions)
    return cover, HullStats(rays_shot, merges, initial_edges)
