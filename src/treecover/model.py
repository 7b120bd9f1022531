"""Input data model: trees, instances, covers, wire format and validation.

The wire format is UTF-8 JSON:

    {"trees": [{"vertices": [[x, y], ...], "edges": [[i, j], ...]}, ...]}

Coordinates are integers with |x|, |y| <= 2^30 (decimal inputs are rejected;
the CLI offers a scaling flag that multiplies them into integers). Cover
files use 0-based tree indices in their membership lists.
"""

from __future__ import annotations

import json
import math
from operator import index
from typing import Iterable, NamedTuple

from . import _kernelpy
from .geom import (
    AABB,
    Circle,
    ConvexPolygon,
    COORD_LIMIT,
    _segment_intersection_set,
    box_of,
    sweep_along_y,
)


class ParseError(ValueError):
    """Malformed instance or cover text."""


class GenerationError(ValueError):
    """Generator parameters are infeasible."""


# the kinds of ``generators.generate``, named here so that the CLI's parser
# does not import the generators
GENERATOR_KINDS = ("strips", "combs", "nested", "ladder", "arc", "mincircle-gadget")


class GeometricTree(NamedTuple):
    """A plane straight-line tree: vertices plus index-pair edges."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def segments(self):
        v = self.vertices
        return tuple((v[i], v[j]) for i, j in self.edges)


class Instance(NamedTuple):
    """A forest of pairwise disjoint geometric trees."""

    trees: tuple[GeometricTree, ...]

    @property
    def m(self) -> int:
        return len(self.trees)

    @property
    def n(self) -> int:
        return sum(t.n for t in self.trees)

    def tree_boxes(self) -> tuple[AABB, ...]:
        return tuple(box_of(t.vertices) for t in self.trees)


class Violation(NamedTuple):
    rule: str
    message: str
    trees: tuple[int, ...] = ()
    warning: bool = False

    def __str__(self):
        kind = "warning" if self.warning else "error"
        return f"{kind}[{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# wire format


def _as_coord(v, scale: int, ti: int, vi: int, axis: str):
    # the location prefix is formatted only on error: this runs per coordinate
    if type(v) is int:
        iv = v * scale
    elif type(v) is float and scale != 1:
        scaled = v * scale
        if not math.isfinite(scaled):
            raise ParseError(f"tree {ti} vertex {vi} {axis}: {v} * {scale} is not finite")
        iv = round(scaled)
        if abs(scaled - iv) > 1e-9:
            raise ParseError(f"tree {ti} vertex {vi} {axis}: {v} * {scale} is not an integer")
    else:
        raise ParseError(
            f"tree {ti} vertex {vi} {axis}: expected integer coordinate, got {v!r}"
        )
    if abs(iv) > COORD_LIMIT:
        raise ParseError(
            f"tree {ti} vertex {vi} {axis}: coordinate {iv} out of range (|c| <= 2^30)"
        )
    return iv


def parse_instance(text: str, scale: int = 1) -> Instance:
    """Parse the JSON wire format; rejects malformed input before validation."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    extra = set(obj) - {"trees"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    if "trees" not in obj or not isinstance(obj["trees"], list):
        raise ParseError('missing "trees" list')
    if not obj["trees"]:
        raise ParseError("empty forest")
    trees = []
    for ti, tobj in enumerate(obj["trees"]):
        if not isinstance(tobj, dict):
            raise ParseError(f"tree {ti}: expected object")
        extra = set(tobj) - {"vertices", "edges"}
        if extra:
            raise ParseError(f"tree {ti}: unknown keys {sorted(extra)}")
        vraw = tobj.get("vertices")
        eraw = tobj.get("edges")
        if not isinstance(vraw, list) or not vraw:
            raise ParseError(f"tree {ti}: vertices must be a nonempty list")
        if not isinstance(eraw, list):
            raise ParseError(f"tree {ti}: edges must be a list")
        verts = []
        for vi, pair in enumerate(vraw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"tree {ti} vertex {vi}: expected [x, y]")
            verts.append(
                (
                    _as_coord(pair[0], scale, ti, vi, "x"),
                    _as_coord(pair[1], scale, ti, vi, "y"),
                )
            )
        edges = []
        for ei, pair in enumerate(eraw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ParseError(f"tree {ti} edge {ei}: expected [i, j] integer indices")
            i, j = pair
            if not (0 <= i < len(verts)) or not (0 <= j < len(verts)):
                raise ParseError(f"tree {ti} edge {ei}: index out of range")
            edges.append((i, j))
        trees.append(GeometricTree(tuple(verts), tuple(edges)))
    return Instance(tuple(trees))


def instance_to_obj(instance: Instance) -> dict:
    return {
        "trees": [
            {
                "vertices": [[x, y] for x, y in t.vertices],
                "edges": [[i, j] for i, j in t.edges],
            }
            for t in instance.trees
        ]
    }


def serialize_instance(instance: Instance) -> str:
    """Canonical compact JSON; parse(serialize(x)) == x."""
    return json.dumps(instance_to_obj(instance), separators=(",", ":"))


# ---------------------------------------------------------------------------
# validation


def validate_instance(instance: Instance) -> list[Violation]:
    """Check every instance invariant; empty list means valid.

    Violations are data, not exceptions; entries with warning=True (shared
    axis coordinates across trees) do not make the instance invalid.

    One pass over the trees checks their structure and builds the vertex
    and segment tables; an edge with an index outside its tree's vertices
    is reported and left out of both. A union-find over global vertex ids
    joins the ends of each edge, and k counts the edges whose ends it had
    already joined: a tree with nv vertices and nv - 1 edges has 1 + k
    components, and only a tree with k > 0 can have a self-loop or a
    repeated edge.

    A vertex strictly inside a segment s either ends another segment, which
    then meets s away from s's ends, so ``find_contacts`` reports the pair,
    or it ends no segment. So ``find_vertex_hits`` runs only on the ends of
    contact pairs and on vertices that end no segment, such as single-vertex
    trees. Most pairs that ``find_contacts`` tests are two edges of one tree
    at a shared vertex, which ``seg_relation`` decides by its shared-endpoint
    rule.
    """
    out: list[Violation] = []
    pts: list[tuple[int, int]] = []
    p_tree: list[int] = []
    parent: list[int] = []
    # edges of nonzero length: the global ids of their ends, tree and index
    seg_a, seg_b, seg_tree, seg_idx = [], [], [], []
    for ti, tree in enumerate(instance.trees):
        verts, edges = tree.vertices, tree.edges
        nv, base = len(verts), len(pts)
        pts += verts
        p_tree += [ti] * nv
        parent += range(base, base + nv)
        k = 0
        for ei, (i, j) in enumerate(edges):
            if not (0 <= i < nv and 0 <= j < nv):
                msg = f"tree {ti}: edge {ei} ({i},{j}) index out of range"
                out.append(Violation("edge-index", msg, (ti,)))
                continue
            a, b = base + i, base + j
            if verts[i] != verts[j]:
                seg_a.append(a)
                seg_b.append(b)
                seg_tree.append(ti)
                seg_idx.append(ei)
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                k += 1
            else:
                parent[a] = b
        if k:
            seen = set()
            for i, j in edges:
                if i == j:
                    out.append(Violation("self-loop", f"tree {ti}: edge ({i},{i})", (ti,)))
                key = (min(i, j), max(i, j))
                if key in seen:
                    msg = f"tree {ti}: edge {key} repeated"
                    out.append(Violation("duplicate-edge", msg, (ti,)))
                seen.add(key)
        if len(edges) != nv - 1:
            msg = f"tree {ti}: {len(edges)} edges for {nv} vertices"
            out.append(Violation("edge-count", msg, (ti,)))
        elif k:
            out.append(Violation("not-connected", f"tree {ti}: {1 + k} components", (ti,)))

    px = [x for x, _ in pts]
    py = [y for _, y in pts]
    if max(map(abs, px), default=0) > COORD_LIMIT or max(map(abs, py), default=0) > COORD_LIMIT:
        out += [
            Violation("coordinate-range", f"tree {ti}: ({x},{y}) exceeds 2^30", (ti,))
            for (x, y), ti in zip(pts, p_tree)
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT
        ]
        # stable, so each tree's range errors follow its other errors
        out.sort(key=lambda v: v.trees[0])

    if len(set(pts)) != len(pts):
        first: dict[tuple[int, int], int] = {}
        for v, ti in zip(pts, p_tree):
            if v not in first:
                first[v] = ti
            elif first[v] == ti:
                out.append(Violation("duplicate-vertex", f"tree {ti}: vertex {v} repeated", (ti,)))
            else:
                msg = f"vertex {v} appears in tree {first[v]} and tree {ti}"
                out.append(Violation("duplicate-vertex", msg, (first[v], ti)))

    sx1 = [px[a] for a in seg_a]
    sy1 = [py[a] for a in seg_a]
    sx2 = [px[b] for b in seg_b]
    sy2 = [py[b] for b in seg_b]
    # both searches return index pairs, which swapping x and y leaves alone,
    # so they sweep whichever axis keeps fewer segments active
    along_y = sweep_along_y(sx1, sy1, sx2, sy2)
    segs = (sy1, sx1, sy2, sx2) if along_y else (sx1, sy1, sx2, sy2)
    contacts = _kernelpy.find_contacts(*segs, seg_tree)

    near = set(range(len(pts))).difference(seg_a, seg_b)
    for i, j in contacts:
        near.update((seg_a[i], seg_b[i], seg_a[j], seg_b[j]))
    cand = sorted(near)
    cx = [px[v] for v in cand]
    cy = [py[v] for v in cand]
    # called even with no candidate, and then no segment, so that a tracer
    # patching it still sees every validation
    hits = _kernelpy.find_vertex_hits(
        *((cy, cx) if along_y else (cx, cy)), *(segs if cand else ((), (), (), ()))
    )
    for ci, sj in hits:
        vi, tj = cand[ci], seg_tree[sj]
        ti = p_tree[vi]
        msg = f"vertex ({px[vi]},{py[vi]}) of tree {ti} lies inside an edge of tree {tj}"
        out.append(Violation("vertex-on-edge", msg, tuple(sorted({ti, tj}))))

    for i, j in contacts:
        meet, _ = _segment_intersection_set(
            (sx1[i], sy1[i]), (sx2[i], sy2[i]), (sx1[j], sy1[j]), (sx2[j], sy2[j])
        )
        at = " at ({},{})".format(*meet[0]) if meet else ""
        ti, tj = seg_tree[i], seg_tree[j]
        if ti == tj:
            msg = f"tree {ti}: edges {seg_idx[i]} and {seg_idx[j]} cross{at}"
            out.append(Violation("edges-cross", msg, (ti,)))
        else:
            msg = f"trees {ti} and {tj}: edges cross{at}"
            out.append(Violation("edges-cross", msg, (ti, tj)))

    # warning: shared axis coordinate across different trees (box-cover ties);
    # each coordinate maps to the first tree that has it, or to -1 once warned
    x_tree: dict[int, int] = {}
    y_tree: dict[int, int] = {}
    for x, y, ti in zip(px, py, p_tree):
        t = x_tree.setdefault(x, ti)
        if t != ti and t >= 0:
            x_tree[x] = -1
            msg = f"trees {t} and {ti} share x = {x}"
            out.append(Violation("shared-coordinate", msg, (t, ti), warning=True))
        t = y_tree.setdefault(y, ti)
        if t != ti and t >= 0:
            y_tree[y] = -1
            msg = f"trees {t} and {ti} share y = {y}"
            out.append(Violation("shared-coordinate", msg, (t, ti), warning=True))

    return out


def errors_only(violations: Iterable[Violation]) -> list[Violation]:
    return [v for v in violations if not v.warning]


# ---------------------------------------------------------------------------
# covers

Region = ConvexPolygon | AABB | Circle


def region_key(region: Region):
    if isinstance(region, ConvexPolygon):
        return (0, region.vertices)
    if isinstance(region, AABB):
        return (1, (region.xmin, region.ymin, region.xmax, region.ymax))
    return (2, (round(region.cx, 6), round(region.cy, 6), round(region.r, 6)))


def region_obj(region: Region) -> dict:
    """A region's wire form, as cover and merge-forest JSON write it."""
    if isinstance(region, ConvexPolygon):
        return {"vertices": [[x, y] for x, y in region.vertices]}
    if isinstance(region, AABB):
        return {"box": [region.xmin, region.ymin, region.xmax, region.ymax]}
    return {"circle": [region.cx, region.cy, region.r]}


class Cover(NamedTuple):
    """A set of pairwise disjoint regions plus tree membership, stored in
    canonical order (regions sorted by value, membership lists sorted)."""

    phi: str
    regions: tuple[Region, ...]
    membership: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(phi: str, pairs: Iterable[tuple[Region, Iterable[int]]]) -> "Cover":
        norm = sorted(
            ((r, tuple(sorted(members))) for r, members in pairs),
            key=lambda rm: (region_key(rm[0]), rm[1]),
        )
        return Cover(
            phi, tuple(r for r, _ in norm), tuple(members for _, members in norm)
        )

    def canonical(self):
        return (
            self.phi,
            tuple(region_key(r) for r in self.regions),
            self.membership,
        )

    def to_obj(self, trace: dict | None = None) -> dict:
        obj = {
            "phi": self.phi,
            "regions": [region_obj(r) for r in self.regions],
            "membership": [list(ms) for ms in self.membership],
        }
        if trace is not None:
            obj["trace"] = trace
        return obj

    def to_json(self, trace: dict | None = None) -> str:
        return json.dumps(self.to_obj(trace), separators=(",", ":"))

    @staticmethod
    def from_json(text: str) -> "Cover":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
        try:
            phi = obj["phi"]
            regions = []
            for robj in obj["regions"]:
                # polygon and box coordinates are integers: a float, a
                # string or 1e400 (read as inf) raises TypeError
                if "vertices" in robj:
                    vertices = tuple((index(x), index(y)) for x, y in robj["vertices"])
                    if not vertices:
                        raise ValueError("a polygon needs at least one vertex")
                    regions.append(ConvexPolygon(vertices))
                elif "box" in robj:
                    regions.append(AABB(*map(index, robj["box"])))
                else:
                    circle = Circle(*robj["circle"])
                    if not all(map(math.isfinite, circle)):
                        raise ValueError("circle values must be finite")
                    regions.append(circle)
            membership = tuple(tuple(ms) for ms in obj["membership"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed cover: {e}") from None
        return Cover(phi, tuple(regions), membership)
