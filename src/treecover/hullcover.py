"""Fast hull-cover engine.

Builds the hull-cover by shooting a ray along every hull edge of every live
component: a ray blocked by a foreign component proves the two hulls overlap
(they get unioned and the merged hull's edges are enqueued), and every shot
ray is permanently inserted as an obstacle owned by the shooter, so later
rays stop at it and discover the overlap from the other side. When the
worklist drains the live hulls are pairwise disjoint or strictly nested; the
maximal ones form the cover.

The ray shooter is pluggable. The engine's default, `BucketGridShooter`,
scans only the obstacles bucketed in the grid cells that the shot's hull
edge crosses. `NaiveRayShooter` scans every stored obstacle per shot
(exact, quadratic overall) and is the reference the tests compare against;
both give identical results.

Two engine details differ from the naive definition but provably preserve
the cover. First, the per-shot merge test uses the nearest *foreign* hit
even when an own obstacle sits closer on the chord (an own tree vertex may
be collinear with a hull edge; treating that shot as verified would hide the
foreign blockage behind it). Second, a directed chord that was already shot
while on some ancestor hull is not re-shot after a merge: tree obstacles
never change, so its verdict is permanent, and this caps the ray count at
the initial edge count plus two tangents per merge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

# ``_kernelpy.scan`` is looked up at each call, so a wrapper patched onto the
# module (perfbench's tracer, the tests' counters) sees every shot.
from . import _kernelpy
from ._kernelpy import OB_POINT, OB_RAY, OB_SEGMENT
from .geom import (
    AABB,
    INSIDE,
    OUTSIDE,
    ConvexPolygon,
    boundary_intersection_points,
    merge_convex_hulls,
    outermost,
    point_in_convex_polygon,
    polygons_intersect,
)
from .model import Cover, Instance


@dataclass(frozen=True)
class Hit:
    """First obstacle met by a shot ray: exact parameter t > 0 along the
    direction (through - origin), the hit point, the obstacle id, and the
    obstacle owner's component root at shot time."""

    t: Fraction
    point: tuple[Fraction, Fraction]
    obstacle: int
    component: int


class InternalInvariantError(AssertionError):
    """An engine invariant failed; indicates a bug, reported as exit 1."""


class ComponentSet:
    """Union-find over tree indices; each root carries the component's
    current hull and the engine's chord bookkeeping (current directed hull
    edges, verified chords, pending chords)."""

    def __init__(self, m: int):
        self.parent = list(range(m))
        self._size = [1] * m
        self.count = m
        self.hull: dict[int, ConvexPolygon] = {}
        self.edge_set: dict[int, set] = {}
        self.verified: dict[int, set] = {}
        self.pending: dict[int, set] = {}

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            raise InternalInvariantError("union of a component with itself")
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.count -= 1
        return ra


class NaiveRayShooter:
    """Baseline shooter: permanent obstacle store, linear scan per shot.

    Obstacles are tree edges (integer segments), bare vertices (zero-length
    point obstacles), and previously shot rays (integer origin and direction
    with an exact rational end parameter). Every shot inserts its ray
    segment [origin, hit point] as a new obstacle; rays that escape all
    obstacles insert nothing.
    """

    def __init__(self, components: ComponentSet):
        self.components = components
        self.kinds: list[int] = []
        self.xs1: list[int] = []
        self.ys1: list[int] = []
        self.xs2: list[int] = []
        self.ys2: list[int] = []
        self.tns: list[int] = []
        self.tds: list[int] = []
        self.owners: list[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def _push(self, kind, x1, y1, x2, y2, tn, td, owner) -> int:
        self.kinds.append(kind)
        self.xs1.append(x1)
        self.ys1.append(y1)
        self.xs2.append(x2)
        self.ys2.append(y2)
        self.tns.append(tn)
        self.tds.append(td)
        self.owners.append(owner)
        return len(self.kinds) - 1

    def insert_segment(self, a, b, owner: int) -> int:
        return self._push(OB_SEGMENT, a[0], a[1], b[0], b[1], 0, 1, owner)

    def insert_point(self, p, owner: int) -> int:
        return self._push(OB_POINT, p[0], p[1], 0, 0, 0, 1, owner)

    def _insert_ray(self, origin, direction, tn: int, td: int, owner: int) -> int:
        return self._push(
            OB_RAY, origin[0], origin[1], direction[0], direction[1], tn, td, owner
        )

    def _scan(self, origin, through, own_root: int):
        return _kernelpy.scan(
            origin[0],
            origin[1],
            through[0],
            through[1],
            self.kinds,
            self.xs1,
            self.ys1,
            self.xs2,
            self.ys2,
            self.tns,
            self.tds,
            self.owners,
            self.components.parent,
            own_root,
        )

    def _hit(self, origin, through, idx: int, n: int, d: int) -> Hit:
        t = Fraction(n, d)
        ex = through[0] - origin[0]
        ey = through[1] - origin[1]
        return Hit(
            t,
            (origin[0] + t * ex, origin[1] + t * ey),
            idx,
            self.components.find(self.owners[idx]),
        )

    def shoot(self, origin, through, owner: int = 0) -> Optional[Hit]:
        """First obstacle intersection at t > 0 over all obstacles; the ray
        [origin, hit point] is inserted as an obstacle owned by ``owner``.
        Returns None when the ray escapes everything (nothing inserted)."""
        ia, na, da, _, _, _ = self._scan(origin, through, -1)
        if ia < 0:
            return None
        hit = self._hit(origin, through, ia, na, da)
        e = (through[0] - origin[0], through[1] - origin[1])
        self._insert_ray(origin, e, na, da, owner)
        return hit

    def shoot_from(self, origin, through, own_root: int):
        """Engine shot: returns (hit_all, merge_hit) where merge_hit is the
        nearest hit owned by a foreign component when it lies at t <= 1 on
        the chord, else None. Inserts the ray up to the merge hit when
        merging, else up to the overall first hit."""
        ia, na, da, if_, nf, df = self._scan(origin, through, own_root)
        hit_all = self._hit(origin, through, ia, na, da) if ia >= 0 else None
        merge_hit = None
        if if_ >= 0 and nf <= df:  # foreign hit with t <= 1
            merge_hit = self._hit(origin, through, if_, nf, df)
        e = (through[0] - origin[0], through[1] - origin[1])
        if merge_hit is not None:
            self._insert_ray(origin, e, nf, df, own_root)
        elif hit_all is not None:
            self._insert_ray(origin, e, na, da, own_root)
        return hit_all, merge_hit


class BucketGridShooter(NaiveRayShooter):
    """Shooter over a grid of obstacle buckets, bounded by the shot chord.

    Every obstacle is registered in each cell it meets. A shot from origin
    through ``through`` scans only the obstacles registered in the cells
    that the chord [origin, through] meets, in obstacle-id order, so a hit
    at t <= 1 is the one the full scan finds, tie-break included. When no
    candidate is hit at t <= 1 the shot falls back to the full scan. Engine
    shots never fall back: their chord ends at a vertex of the shooter's own
    component, which is an obstacle. The foreign result of ``_scan`` is
    exact only at t <= 1, the only place ``shoot_from`` reads it.

    Cells are ``cell = (width, height)`` integer rectangles anchored at the
    bounds' lower-left corner. A point belongs to the cell
    ``floor((p - corner) / cell)``, clamped into the grid, so the outermost
    cells also hold everything beyond the bounds. Rasterization is exact and
    conservative: an object is registered in the cell of each of its
    points, hence an obstacle and a chord sharing a point share that cell.
    """

    def __init__(self, components: ComponentSet, bounds: AABB, cell):
        super().__init__(components)
        self.x0, self.y0 = bounds.xmin, bounds.ymin
        self.cw, self.ch = cell
        self.nx = (bounds.xmax - bounds.xmin) // self.cw + 1
        self.ny = (bounds.ymax - bounds.ymin) // self.ch + 1
        self.cells: dict[int, list[int]] = {}

    @staticmethod
    def factory_for(instance: Instance):
        """Engine shooter_factory for the instance: the grid spans its
        bounding box, and cells start as wide and tall as twice the mean
        tree edge, doubled together until there are at most 4n of them."""
        xs = [x for t in instance.trees for x, _ in t.vertices] or [0]
        ys = [y for t in instance.trees for _, y in t.vertices] or [0]
        bounds = AABB(min(xs), min(ys), max(xs), max(ys))
        segs = [s for t in instance.trees for s in t.segments()]
        cw = ch = 1
        if segs:
            cw = max(1, 2 * sum(abs(b[0] - a[0]) for a, b in segs) // len(segs))
            ch = max(1, 2 * sum(abs(b[1] - a[1]) for a, b in segs) // len(segs))
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
        nx, ny = self.nx, self.ny
        wd, hd = self.cw * d, self.ch * d
        x0, y0 = self.x0 * d, self.y0 * d
        c0 = _clamp((ax - x0) // wd, nx)
        c1 = _clamp((bx - x0) // wd, nx)
        if c0 == c1:
            lo, hi = (ay, by) if ay <= by else (by, ay)
            k = c0 * ny
            return range(
                k + _clamp((lo - y0) // hd, ny), k + _clamp((hi - y0) // hd, ny) + 1
            )
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
            keys.extend(range(k + _clamp(lo, ny), k + _clamp(hi, ny) + 1))
            ra = rb
        return keys

    def _push(self, kind, x1, y1, x2, y2, tn, td, owner) -> int:
        idx = super()._push(kind, x1, y1, x2, y2, tn, td, owner)
        if kind == OB_SEGMENT:
            keys = self._cells(x1, y1, x2, y2, 1)
        elif kind == OB_POINT:
            keys = self._cells(x1, y1, x1, y1, 1)
        else:  # ray: origin (x1, y1), direction (x2, y2), end parameter tn/td
            ax, ay = x1 * td, y1 * td
            keys = self._cells(ax, ay, ax + x2 * tn, ay + y2 * tn, td)
        for key in keys:
            self.cells.setdefault(key, []).append(idx)
        return idx

    def _scan(self, origin, through, own_root: int):
        cells = self.cells
        found = set()
        for key in self._cells(origin[0], origin[1], through[0], through[1], 1):
            bucket = cells.get(key)
            if bucket is not None:
                found.update(bucket)
        ids = sorted(found)
        cols = (
            self.kinds,
            self.xs1,
            self.ys1,
            self.xs2,
            self.ys2,
            self.tns,
            self.tds,
            self.owners,
        )
        ia, na, da, if_, nf, df = _kernelpy.scan(
            origin[0],
            origin[1],
            through[0],
            through[1],
            *[[col[i] for i in ids] for col in cols],
            self.components.parent,
            own_root,
        )
        if ia < 0 or na > da:
            return super()._scan(origin, through, own_root)
        return ids[ia], na, da, ids[if_] if if_ >= 0 else -1, nf, df


def _clamp(i: int, n: int) -> int:
    return 0 if i < 0 else (i if i < n else n - 1)


@dataclass(frozen=True)
class HullStats:
    rays_shot: int
    merges: int
    initial_edges: int

    def to_obj(self) -> dict:
        return {
            "rays_shot": self.rays_shot,
            "merges": self.merges,
            "initial_edges": self.initial_edges,
        }


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
    record_trace: bool = False,
):
    """Compute the hull-cover; returns (Cover, HullStats) or
    (Cover, HullStats, trace) when record_trace is set.

    The cover equals the naive merge-fixpoint hull cover exactly.
    """
    m = instance.m
    comps = ComponentSet(m)
    if shooter_factory is None:
        shooter_factory = BucketGridShooter.factory_for(instance)
    shooter = shooter_factory(comps)

    for i, tree in enumerate(instance.trees):
        if tree.n == 1:
            shooter.insert_point(tree.vertices[0], i)
        else:
            for a, b in tree.segments():
                shooter.insert_segment(a, b, i)

    worklist: deque = deque()
    initial_edges = 0
    for i, hull in enumerate(instance.tree_hulls()):
        comps.hull[i] = hull
        edges = hull.directed_edges()
        comps.edge_set[i] = set(edges)
        comps.verified[i] = set()
        comps.pending[i] = set(edges)
        for p, q in edges:
            worklist.append((p, q, i))
            initial_edges += 1

    rays_shot = 0
    merges = 0
    trace = [] if record_trace else None

    while worklist:
        p, q, rep = worklist.popleft()
        root = comps.find(rep)
        edge = (p, q)
        if edge not in comps.pending[root] or edge not in comps.edge_set[root]:
            comps.pending[root].discard(edge)
            continue
        comps.pending[root].discard(edge)
        rays_shot += 1
        hit_all, merge_hit = shooter.shoot_from(p, q, root)
        if hit_all is None:
            raise InternalInvariantError(
                f"hull-edge shot from {p} through {q} escaped all obstacles"
            )
        comps.verified[root].add(edge)
        merged = merge_hit is not None
        if trace is not None:
            end = merge_hit.point if merged else hit_all.point
            trace.append(
                {
                    "from": [p[0], p[1]],
                    "to": [float(end[0]), float(end[1])],
                    "merge": merged,
                }
            )
        if merged:
            other = merge_hit.component
            if debug:
                if not (0 < merge_hit.t < 1):
                    raise InternalInvariantError(
                        f"merging hit at t={merge_hit.t}, expected strictly "
                        "inside the shot edge"
                    )
                _assert_connecting_edge_clean(shooter, comps, p, q, merge_hit, root, other)
            new_hull = merge_convex_hulls(comps.hull[root], comps.hull[other])
            winner = comps.union(root, other)
            loser = other if winner == root else root
            comps.hull[winner] = new_hull
            # merge chord bookkeeping small-into-large to stay near-linear
            va, vb = comps.verified[root], comps.verified[other]
            if len(va) < len(vb):
                va, vb = vb, va
            va.update(vb)
            comps.verified[winner] = va
            pa, pb = comps.pending[root], comps.pending[other]
            if len(pa) < len(pb):
                pa, pb = pb, pa
            pa.update(pb)
            pend = pa
            edges = new_hull.directed_edges()
            comps.edge_set[winner] = set(edges)
            comps.pending[winner] = pend
            for e2 in edges:
                if e2 not in va and e2 not in pend:
                    pend.add(e2)
                    worklist.append((e2[0], e2[1], winner))
            for d in (comps.hull, comps.verified, comps.pending, comps.edge_set):
                if loser in d and loser != winner:
                    del d[loser]
            merges += 1
            if merges > m - 1:
                raise InternalInvariantError("more than m - 1 merges")
            if debug:
                ray_owner = comps.find(shooter.owners[-1])
                hit_owner = comps.find(shooter.owners[merge_hit.obstacle])
                if ray_owner != hit_owner or ray_owner != winner:
                    raise InternalInvariantError(
                        "merging ray and hit obstacle ended up in different "
                        "components"
                    )
                _assert_live_weak_disjointness(comps)

    roots = sorted({comps.find(i) for i in range(m)})
    hulls = [comps.hull[r] for r in roots]
    if debug:
        _assert_nested_or_disjoint(hulls)
    home = dict(zip(roots, (roots[h] for h in maximal_regions(hulls))))
    members: dict[int, list[int]] = {r: [] for r in roots if home[r] == r}
    for i in range(m):
        members[home[comps.find(i)]].append(i)
    cover = Cover.build(
        "hull", ((comps.hull[r], tuple(ms)) for r, ms in members.items())
    )
    stats = HullStats(rays_shot, merges, initial_edges)
    if record_trace:
        return cover, stats, trace
    return cover, stats


def _assert_connecting_edge_clean(shooter, comps, origin, through, hit, root_a, root_b):
    """Debug check (brute re-scan): no obstacle of a third component sits
    strictly before the merging hit along the shot ray."""
    for idx in range(len(shooter.kinds)):
        owner_root = comps.find(shooter.owners[idx])
        if owner_root in (root_a, root_b):
            continue
        ia, na, da, _, _, _ = _kernelpy.scan(
            origin[0],
            origin[1],
            through[0],
            through[1],
            [shooter.kinds[idx]],
            [shooter.xs1[idx]],
            [shooter.ys1[idx]],
            [shooter.xs2[idx]],
            [shooter.ys2[idx]],
            [shooter.tns[idx]],
            [shooter.tds[idx]],
            [0],
            [0],
            -1,
        )
        if ia >= 0 and Fraction(na, da) < hit.t:
            raise InternalInvariantError(
                f"third-component obstacle {idx} blocks the connecting edge"
            )


def _assert_live_weak_disjointness(comps):
    roots = sorted(set(comps.find(i) for i in range(len(comps.parent))))
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            p = comps.hull[roots[i]]
            q = comps.hull[roots[j]]
            if weakly_disjoint(p, q):
                continue
            if contained_in(p, q) or contained_in(q, p):
                continue
            raise InternalInvariantError(
                "live hulls neither weakly disjoint nor nested"
            )


def _assert_nested_or_disjoint(hulls):
    for i in range(len(hulls)):
        for j in range(i + 1, len(hulls)):
            if polygons_intersect(hulls[i], hulls[j]):
                if not (
                    contained_in(hulls[i], hulls[j]) or contained_in(hulls[j], hulls[i])
                ):
                    raise InternalInvariantError(
                        "final live hulls overlap without nesting"
                    )
