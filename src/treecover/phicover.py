"""Region functions, the naive merge-fixpoint cover, and its checkers.

A region function phi maps finite point sets to regions and exposes exactly
three operations: apply-to-points, regions-intersect, and merge. The naive
cover repeatedly replaces two intersecting live regions by their merge until
the live set is pairwise disjoint, recording the history as a binary forest.
For hull and box the result is independent of merge order; for the minimum
enclosing circle it is not, which `check_well_defined` can demonstrate.

The min-circle demonstrator's floating-point code lives here with its one
tolerance rule, ``_within``; no exact engine imports it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Optional

from .geom import (
    AABB,
    Circle,
    ConvexPolygon,
    OUTSIDE,
    box_of,
    box_union,
    boxes_intersect,
    convex_hull,
    merge_convex_hulls,
    point_in_convex_polygon,
    polygons_intersect,
)
from .model import Cover, Instance, region_obj


class HullPhi:
    tag = "hull"

    def apply_to_points(self, points) -> ConvexPolygon:
        return convex_hull(points)

    def intersects(self, a, b) -> bool:
        return polygons_intersect(a, b)

    def merge(self, a, b) -> ConvexPolygon:
        return merge_convex_hulls(a, b)

    def contains_point(self, region, p) -> bool:
        return point_in_convex_polygon(p, region) != OUTSIDE

    def region_contains(self, outer, inner) -> bool:
        return all(
            point_in_convex_polygon(v, outer) != OUTSIDE for v in inner.vertices
        )


class BoxPhi:
    tag = "box"

    def apply_to_points(self, points) -> AABB:
        return box_of(points)

    def intersects(self, a, b) -> bool:
        return boxes_intersect(a, b)

    def merge(self, a, b) -> AABB:
        return box_union(a, b)

    def contains_point(self, region, p) -> bool:
        return region.contains_point(p)

    def region_contains(self, outer, inner) -> bool:
        return outer.contains_box(inner)


MEC_EPS = 1e-9


def _within(a, b, r: float) -> bool:
    """Whether the centers of a and b, each a point or a Circle, lie at most
    r apart, up to MEC_EPS * max(1, r) plus four ulps of the largest
    magnitude in play: every float comparison of the min-circle demonstrator.
    Floats near 2^30 are 2.4e-7 apart, and sampled MECs from +-10 to +-2^30
    miss their own points by at most 1.25 ulps."""
    slack = MEC_EPS * max(1.0, r) + 4 * math.ulp(max(map(abs, (*a, *b))))
    return math.dist(a[:2], b[:2]) <= r + slack


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
    """Smallest enclosing circle, randomized incremental (Welzl 1991).

    The shuffle uses a fixed internal seed so results are deterministic for
    a given input."""
    pts = sorted(set((p[0], p[1]) for p in points))
    if not pts:
        raise ValueError("min_enclosing_circle of empty point set")
    random.Random(0x5EED).shuffle(pts)
    c = Circle(float(pts[0][0]), float(pts[0][1]), 0.0)
    for i, p in enumerate(pts):
        if _within(c, p, c.r):
            continue
        c = Circle(float(p[0]), float(p[1]), 0.0)
        for j in range(i):
            q = pts[j]
            if _within(c, q, c.r):
                continue
            c = _circle_two(p, q)
            for k in range(j):
                r = pts[k]
                if _within(c, r, c.r):
                    continue
                cc = _circumcircle(p, q, r)
                if cc is not None:
                    c = cc
    return c


def circles_intersect(c1: Circle, c2: Circle) -> bool:
    return _within(c1, c2, c1.r + c2.r)


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


class MinCirclePhi:
    """The minimum enclosing circle, the floating-point counterexample: it
    keeps Property 1 (phi(A) contains A) but fails Property 2."""

    tag = "mincircle"

    def apply_to_points(self, points) -> Circle:
        return min_enclosing_circle(points)

    def intersects(self, a, b) -> bool:
        return circles_intersect(a, b)

    def merge(self, a, b) -> Circle:
        return enclosing_circle_of_two(a, b)

    def contains_point(self, region, p) -> bool:
        return _within(region, p, region.r)

    def region_contains(self, outer, inner) -> bool:
        return _within(outer, inner, outer.r - inner.r)


PHI = {"hull": HullPhi(), "box": BoxPhi(), "mincircle": MinCirclePhi()}


@dataclass(frozen=True)
class MergeNode:
    """History-forest node; leaves carry an input tree index, internal nodes
    carry the two merged children. ``order`` is the creation index (leaves
    0..m-1, merge nodes m, m+1, ...)."""

    region: object
    order: int
    leaf: Optional[int] = None
    children: Optional[tuple["MergeNode", "MergeNode"]] = None

    def leaf_set(self) -> frozenset[int]:
        return frozenset(n.leaf for n in self.walk() if n.children is None)

    def walk(self):
        """The subtree's nodes in pre-order, without recursion: a history
        can be a chain m - 1 merges deep."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.children is not None:
                stack.extend(reversed(node.children))


@dataclass(frozen=True)
class MergeForest:
    roots: tuple[MergeNode, ...]

    def all_nodes(self):
        for r in self.roots:
            yield from r.walk()

    def script(self) -> tuple[tuple[int, int], ...]:
        """The merge sequence (pairs of child creation orders) that rebuilds
        this forest, in merge order."""
        internal = sorted(
            (n for n in self.all_nodes() if n.children is not None),
            key=lambda n: n.order,
        )
        return tuple((n.children[0].order, n.children[1].order) for n in internal)

    def to_obj(self, phi_tag: str) -> dict:
        """The wire form, built without recursion: children before parents."""
        made: dict[int, dict] = {}
        for n in sorted(self.all_nodes(), key=lambda n: n.order):
            out: dict = {"region": region_obj(n.region)}
            if n.children is None:
                out["tree"] = n.leaf
            else:
                out["children"] = [made.pop(c.order) for c in n.children]
            made[n.order] = out
        return {"phi": phi_tag, "roots": [made[r.order] for r in self.roots]}


class _Text(str):
    """Text that ``compact_json`` writes as it is."""


def compact_json(obj) -> str:
    """``json.dumps(obj, separators=(",", ":"))`` with an explicit stack, so
    that a merge history nested one level per merge can be written: dicts,
    lists and tuples are walked, and every other value and every key is
    encoded by ``json.dumps`` itself."""
    out, stack = [], [obj]
    while stack:
        v = stack.pop()
        if type(v) is _Text:
            out.append(v)
            continue
        if isinstance(v, dict):
            # a key that is not a string is written as its JSON text, quoted
            keys = [json.dumps(k if isinstance(k, str) else json.dumps(k)) + ":" for k in v]
            v, ends = [*zip(keys, v.values())], "{}"
        elif isinstance(v, (list, tuple)):
            v, ends = [("", x) for x in v], "[]"
        else:
            out.append(json.dumps(v))
            continue
        out.append(ends[0])
        stack.append(_Text(ends[1]))
        for i in range(len(v) - 1, -1, -1):
            stack += (v[i][1], _Text("," * (i > 0) + v[i][0]))
    return "".join(out)


class PolicyError(ValueError):
    """A scripted policy named a dead or non-intersecting pair."""


class MergePolicy:
    """Chooses which intersecting pair of live roots to merge next.

    Strategies: first-found (lexicographically smallest pair of creation
    orders), random(seed) (uniform over all currently intersecting pairs),
    scripted (an explicit replayable pair list).
    """

    def __init__(self, kind: str, seed: int = 0, script: Iterable[tuple[int, int]] = ()):
        self.kind = kind
        self.seed = seed
        self._script = list(tuple(p) for p in script)
        self._pos = 0
        self._rng = random.Random(seed) if kind == "random" else None

    @staticmethod
    def first_found() -> "MergePolicy":
        return MergePolicy("first-found")

    @staticmethod
    def random_order(seed: int) -> "MergePolicy":
        return MergePolicy("random", seed=seed)

    @staticmethod
    def scripted(script: Iterable[tuple[int, int]]) -> "MergePolicy":
        return MergePolicy("scripted", script=script)

    def fresh(self) -> "MergePolicy":
        return MergePolicy(self.kind, self.seed, self._script)

    def next_pair(self, pairs: list[tuple[int, int]]) -> tuple[int, int]:
        if self.kind == "first-found":
            return pairs[0]
        if self.kind == "random":
            return self._rng.choice(pairs)
        if self._pos >= len(self._script):
            raise PolicyError("script exhausted while intersecting pairs remain")
        choice = self._script[self._pos]
        self._pos += 1
        if choice not in pairs and (choice[1], choice[0]) not in pairs:
            raise PolicyError(f"scripted pair {choice} is not live and intersecting")
        return (min(choice), max(choice))

    def describe(self) -> dict:
        if self.kind == "scripted":
            return {"kind": "scripted", "script": [list(p) for p in self._script]}
        if self.kind == "random":
            return {"kind": "random", "seed": self.seed}
        return {"kind": "first-found"}


def naive_phi_cover(
    instance: Instance, phi, policy: MergePolicy | None = None
) -> tuple[Cover, MergeForest]:
    """The defining merge-fixpoint cover with its history forest.

    Starts from one region per tree and repeatedly merges an intersecting
    pair chosen by the policy until the live regions are pairwise disjoint
    (at most m - 1 merges). The intersecting-pair set is maintained
    incrementally: O(m) fresh tests per merge.
    """
    if policy is None:
        policy = MergePolicy.first_found()
    else:
        policy = policy.fresh()
    live: dict[int, MergeNode] = {}
    for i, tree in enumerate(instance.trees):
        live[i] = MergeNode(region=phi.apply_to_points(tree.vertices), order=i, leaf=i)

    pairs = {
        (a, b)
        for a, b in combinations(range(instance.m), 2)
        if phi.intersects(live[a].region, live[b].region)
    }

    next_order = instance.m
    merges = 0
    while pairs:
        oi, oj = policy.next_pair(sorted(pairs))
        a = live.pop(oi)
        b = live.pop(oj)
        pairs = {p for p in pairs if oi not in p and oj not in p}
        node = MergeNode(
            region=phi.merge(a.region, b.region),
            order=next_order,
            children=(a, b),
        )
        for other_order, other in live.items():
            if phi.intersects(node.region, other.region):
                pairs.add((other_order, next_order))
        live[next_order] = node
        next_order += 1
        merges += 1
        if merges > instance.m - 1:
            raise AssertionError("more than m - 1 merges")

    cover = Cover.build(
        phi.tag, ((node.region, node.leaf_set()) for node in live.values())
    )
    forest = MergeForest(tuple(live[o] for o in sorted(live)))
    return cover, forest


@dataclass(frozen=True)
class Witness:
    policy_a: dict
    cover_a: Cover
    policy_b: dict
    cover_b: Cover


@dataclass(frozen=True)
class WellDefinedVerdict:
    well_defined: bool
    runs: int
    witness: Optional[Witness] = None


def check_well_defined(
    instance: Instance,
    phi,
    trials: int = 20,
    seed: int = 0,
    exhaustive: bool = False,
) -> WellDefinedVerdict:
    """Probe merge-order independence of the phi-cover on one instance.

    Trial mode runs first-found plus ``trials`` random policies and compares
    canonical covers. Exhaustive mode (m <= 6 only) enumerates every merge
    order, memoizing on the canonical live-region state. Returns a witness
    with two replayable scripted policies when covers differ.
    """
    if exhaustive:
        if instance.m > 6:
            raise ValueError("exhaustive enumeration is limited to m <= 6")
        return _check_exhaustive(instance, phi)

    if trials < 2:
        raise ValueError("need at least 2 trials")
    base_cover, base_forest = naive_phi_cover(instance, phi, MergePolicy.first_found())
    base_script = base_forest.script()
    runs = 1
    for t in range(trials):
        policy = MergePolicy.random_order(seed + t)
        cover, forest = naive_phi_cover(instance, phi, policy)
        runs += 1
        if cover.canonical() != base_cover.canonical():
            return _witness(runs, base_script, base_cover, forest.script(), cover)
    return WellDefinedVerdict(True, runs)


def _witness(runs: int, script_a, cover_a, script_b, cover_b) -> WellDefinedVerdict:
    """The verdict for two merge scripts that gave distinct covers."""
    a = MergePolicy.scripted(script_a).describe()
    b = MergePolicy.scripted(script_b).describe()
    return WellDefinedVerdict(False, runs, Witness(a, cover_a, b, cover_b))


def _check_exhaustive(instance: Instance, phi) -> WellDefinedVerdict:
    m = instance.m
    initial = tuple(
        (phi.apply_to_points(t.vertices), frozenset((i,)), i)
        for i, t in enumerate(instance.trees)
    )

    from .model import region_key

    def state_key(live):
        return tuple(sorted((region_key(r), tuple(sorted(ls))) for r, ls, _ in live))

    seen_states = set()
    covers: dict = {}
    runs = 0

    def rec(live, next_order, script):
        nonlocal runs
        key = state_key(live)
        if key in seen_states:
            return
        seen_states.add(key)
        pairs = [
            (x, y)
            for x, y in combinations(range(len(live)), 2)
            if phi.intersects(live[x][0], live[y][0])
        ]
        if not pairs:
            runs += 1
            cover = Cover.build(phi.tag, ((r, ls) for r, ls, _ in live))
            covers.setdefault(cover.canonical(), (cover, tuple(script)))
            return
        for x, y in pairs:
            rx, lsx, ox = live[x]
            ry, lsy, oy = live[y]
            merged = (phi.merge(rx, ry), lsx | lsy, next_order)
            nxt = tuple(e for k, e in enumerate(live) if k not in (x, y)) + (merged,)
            rec(nxt, next_order + 1, script + [(min(ox, oy), max(ox, oy))])

    rec(initial, m, [])
    if len(covers) <= 1:
        return WellDefinedVerdict(True, runs)
    (ca, sa), (cb, sb) = list(covers.values())[:2]
    return _witness(runs, sa, ca, sb, cb)


@dataclass(frozen=True)
class PropertyReport:
    property1_ok: bool
    property1_witness: Optional[tuple]
    property2_ok: bool
    property2_witness: Optional[tuple]
    samples: int


def default_sampler(rng: random.Random) -> list[tuple[int, int]]:
    k = rng.randint(1, 12)
    return [(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(k)]


def check_phi_properties(
    phi,
    sampler: Callable[[random.Random], list] = default_sampler,
    samples: int = 1000,
    seed: int = 0,
    pair_samples: Iterable[tuple[list, list]] = (),
) -> PropertyReport:
    """Sample-test the two region-function properties.

    Property 1: every point of A lies in phi(A). Property 2: if A sits
    inside phi(B) then phi(A) sits inside phi(B); A is drawn from points
    inside phi(B) (B's own points, region corners, and integer rejection
    samples from the bounding box). ``pair_samples`` lists explicit (B, A)
    pairs to try first.
    """
    rng = random.Random(seed)
    p1_ok, p1_wit = True, None
    p2_ok, p2_wit = True, None
    count = 0

    def check_pair(b_points, a_points):
        nonlocal p2_ok, p2_wit
        rb = phi.apply_to_points(b_points)
        if not all(phi.contains_point(rb, p) for p in a_points):
            return  # A not inside phi(B): hypothesis of Property 2 unmet
        ra = phi.apply_to_points(a_points)
        if not phi.region_contains(rb, ra) and p2_ok:
            p2_ok = False
            p2_wit = (tuple(b_points), tuple(a_points), rb, ra)

    for b_points, a_points in pair_samples:
        check_pair(b_points, a_points)
        count += 1

    while count < samples:
        pts = sampler(rng)
        region = phi.apply_to_points(pts)
        if p1_ok:
            for p in pts:
                if not phi.contains_point(region, p):
                    p1_ok = False
                    p1_wit = (tuple(pts), p, region)
                    break

        inside = list(pts)
        if isinstance(region, ConvexPolygon):
            inside.extend(region.vertices)
            bb = region.bbox()
        elif isinstance(region, AABB):
            inside.extend(region.corners())
            bb = region
        else:
            bb = None
        if bb is not None:
            for _ in range(10):
                cand = (rng.randint(bb.xmin, bb.xmax), rng.randint(bb.ymin, bb.ymax))
                if phi.contains_point(region, cand):
                    inside.append(cand)
        k = rng.randint(1, max(1, len(inside)))
        a_points = rng.sample(inside, k)
        check_pair(pts, a_points)
        count += 1

    return PropertyReport(p1_ok, p1_wit, p2_ok, p2_wit, count)
