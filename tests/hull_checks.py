"""The hull engine's invariant checks, run on a live engine through its
``shooter_factory`` seam, and the diagnostic hull geometry they use.

``checked(factory)`` wraps a shooter factory of ``hull_cover_fast``. Each
shooter it makes gets a checking ``shoot_from`` on the instance, so the class
method, which perfbench's tracer patches, stays as it is. On every merging
shot the wrapper checks that the hit lies strictly inside the chord and that
no obstacle of a third component lies before it. At the first shot after a
merge (the number of live hulls fell), and again in ``finish()`` after the
run, it checks that the merging ray and the hit obstacle share a root and
that the live hulls are pairwise weakly disjoint or nested. ``finish()`` also
checks that the final hulls are nested or disjoint. ``hull_cover_checked``
runs an engine through all of it. A failed check raises
``InternalInvariantError``.

``covered_hull_edges`` is the oracle for the engine's ``tree_covers``: it
finds the covered hull edges by interval union, not by walking the tree.
"""

from fractions import Fraction
from itertools import combinations

from treecover import _kernelpy
from treecover.geom import (
    BOUNDARY,
    _segment_intersection_set,
    chain_edges,
    chains_polygon,
    hull_chains,
    point_in_convex_polygon,
    polygons_intersect,
)
from treecover.hullcover import (
    BucketGridShooter,
    InternalInvariantError,
    contained_in,
    hull_cover_fast,
)


def boundary_intersection_points(p, q):
    """``(points, overlap)``: all points where the two polygon boundaries
    meet, deduplicated and sorted, with exact rational coordinates; a
    collinear boundary overlap is reported by its two ends, and sets
    ``overlap``."""
    if len(p) == 1:
        pt = p.vertices[0]
        on = point_in_convex_polygon(pt, q) == BOUNDARY
        return ((Fraction(pt[0]), Fraction(pt[1])),) if on else (), False
    if len(q) == 1:
        return boundary_intersection_points(q, p)
    points = set()
    overlap = False
    for a, b in p.directed_edges():
        for c, d in q.directed_edges():
            pts, ov = _segment_intersection_set(a, b, c, d)
            points.update(pts)
            overlap = overlap or ov
    return tuple(sorted(points)), overlap


def weakly_disjoint(p, q) -> bool:
    """No shared vertex and at most two boundary intersection points (the
    testable characterization)."""
    if set(p.vertices) & set(q.vertices):
        return False
    points, overlap = boundary_intersection_points(p, q)
    return not overlap and len(points) <= 2


def assert_connecting_edge_clean(shooter, comps, origin, through, n, d, root_a, root_b):
    """Brute re-scan: no obstacle of a third component sits strictly before
    the merging hit at t = n / d along the shot ray."""
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


def live_hulls(comps):
    roots = sorted({comps.find(i) for i in range(len(comps.parent))})
    return [chains_polygon(*comps.hull[r]) for r in roots]


def assert_live_weak_disjointness(comps):
    for p, q in combinations(live_hulls(comps), 2):
        if not (weakly_disjoint(p, q) or contained_in(p, q) or contained_in(q, p)):
            raise InternalInvariantError("live hulls neither weakly disjoint nor nested")


def assert_nested_or_disjoint(hulls):
    for p, q in combinations(hulls, 2):
        if polygons_intersect(p, q) and not (contained_in(p, q) or contained_in(q, p)):
            raise InternalInvariantError("final live hulls overlap without nesting")


def covered_hull_edges(instance) -> set:
    """The directed edges (p, q) of the trees' own hulls whose segment
    [p, q] is the union of that tree's edges on the line pq: each such edge
    is an interval of the parameter dot(v - p, q - p), and the sorted
    intervals must reach from 0 to |q - p|^2 without a gap."""
    covered = set()
    for t in instance.trees:
        for p, q in chain_edges(*hull_chains(t.vertices)):
            dx, dy = q[0] - p[0], q[1] - p[1]
            spans = []
            for a, b in t.edges:
                ends = [t.vertices[a], t.vertices[b]]
                if all(dx * (y - p[1]) == dy * (x - p[0]) for x, y in ends):
                    spans.append(sorted(dx * (x - p[0]) + dy * (y - p[1]) for x, y in ends))
            reach = 0
            for lo, hi in sorted(spans):
                if lo > reach:
                    break
                reach = max(reach, hi)
            if reach >= dx * dx + dy * dy:
                covered.add((p, q))
    return covered


class _Checker:
    """Wraps one shooter's ``shoot_from`` with the per-shot checks."""

    def __init__(self, shooter):
        self.shooter = shooter
        self.comps = shooter.components
        self.live = None  # the number of live hulls at the last shot
        self.merging = None  # (ray, obstacle hit) of the last merging shot
        self._shoot = shooter.shoot_from
        shooter.shoot_from = self.shoot_from

    def shoot_from(self, origin, through, own_root):
        self._check_merge()
        hit, merge_hit = self._shoot(origin, through, own_root)
        if merge_hit is not None:
            obstacle, n, d = merge_hit
            if not 0 < n < d:
                raise InternalInvariantError(
                    f"merging hit at t={n}/{d}, expected strictly inside the shot edge"
                )
            obstacles, comps = self.shooter.obstacles, self.comps
            other = comps.find(obstacles[obstacle][6])
            assert_connecting_edge_clean(
                self.shooter, comps, origin, through, n, d, own_root, other
            )
            # a merging shot inserts its ray last
            self.merging = (len(obstacles) - 1, obstacle)
        return hit, merge_hit

    def _check_merge(self):
        """The checks of a merge, once the engine has made it."""
        live = len(self.comps.hull)
        if self.live is not None and live < self.live:
            ray, obstacle = self.merging
            obstacles, find = self.shooter.obstacles, self.comps.find
            if find(obstacles[ray][6]) != find(obstacles[obstacle][6]):
                raise InternalInvariantError(
                    "merging ray and hit obstacle ended up in different components"
                )
            assert_live_weak_disjointness(self.comps)
        self.live = live

    def finish(self):
        self._check_merge()
        assert_nested_or_disjoint(live_hulls(self.comps))


class _CheckedFactory:
    def __init__(self, factory):
        self.factory = factory
        self.checkers = []

    def __call__(self, comps, obstacles):
        checker = _Checker(self.factory(comps, obstacles))
        self.checkers.append(checker)
        return checker.shooter

    def finish(self):
        for checker in self.checkers:
            checker.finish()


def checked(factory) -> _CheckedFactory:
    """The shooter factory ``factory``, its shooters running the checks; the
    result's ``finish()`` runs the checks that follow a run, for every
    shooter made so far."""
    return _CheckedFactory(factory)


def hull_cover_checked(instance, shooter_factory=None):
    """``hull_cover_fast`` with every check; the default shooter is the
    engine's own grid."""
    if shooter_factory is None:
        shooter_factory = BucketGridShooter.factory_for(instance)
    factory = checked(shooter_factory)
    result = hull_cover_fast(instance, shooter_factory=factory)
    factory.finish()
    return result
