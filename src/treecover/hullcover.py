"""Fast hull-cover engine.

Builds the hull-cover by shooting a ray along every hull edge of every live
component: a ray blocked by a foreign component proves the two hulls overlap
(they get unioned and the merged hull's edges are enqueued), and every shot
ray is permanently inserted as an obstacle owned by the shooter, so later
rays stop at it and discover the overlap from the other side. When the
worklist drains the live hulls are pairwise disjoint or strictly nested; the
maximal ones form the cover.

The ray shooter is pluggable. The required baseline scans every stored
obstacle per shot (exact, quadratic overall); `treecover.accel` provides a
grid-accelerated drop-in with identical results.

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

from . import kernel
from .geom import (
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

    def __init__(self, components: ComponentSet, kern=None):
        self.components = components
        self.kern = kern if kern is not None else kernel.active
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
        return self._push(kernel.OB_SEGMENT, a[0], a[1], b[0], b[1], 0, 1, owner)

    def insert_point(self, p, owner: int) -> int:
        return self._push(kernel.OB_POINT, p[0], p[1], 0, 0, 0, 1, owner)

    def _insert_ray(self, origin, direction, tn: int, td: int, owner: int) -> int:
        return self._push(
            kernel.OB_RAY, origin[0], origin[1], direction[0], direction[1], tn, td, owner
        )

    def _scan(self, origin, through, own_root: int):
        return self.kern.scan(
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
    kern = kernel.kernel_for(instance.max_abs_coord())
    comps = ComponentSet(m)
    if shooter_factory is None:
        shooter = NaiveRayShooter(comps, kern)
    else:
        shooter = shooter_factory(comps, kern)

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
    from . import _kernelpy as pure

    for idx in range(len(shooter.kinds)):
        owner_root = comps.find(shooter.owners[idx])
        if owner_root in (root_a, root_b):
            continue
        ia, na, da, _, _, _ = pure.scan(
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
