"""Input data model: trees, instances, covers, wire format, validation, and
instance generators.

The wire format is UTF-8 JSON:

    {"trees": [{"vertices": [[x, y], ...], "edges": [[i, j], ...]}, ...]}

Coordinates are integers with |x|, |y| <= 2^30 (decimal inputs are rejected;
the CLI offers a scaling flag that multiplies them into integers). Cover
files use 0-based tree indices in their membership lists.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Iterable

from . import _kernelpy
from .geom import (
    AABB,
    Circle,
    ConvexPolygon,
    COORD_LIMIT,
    box_of,
    convex_hull,
    sweep_along_y,
)


class ParseError(ValueError):
    """Malformed instance or cover text."""


class GenerationError(ValueError):
    """Generator parameters are infeasible."""


GENERATOR_KINDS = ("strips", "combs", "nested", "ladder", "mincircle-gadget")


@dataclass(frozen=True)
class GeometricTree:
    """A plane straight-line tree: vertices plus index-pair edges."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def segments(self):
        v = self.vertices
        return tuple((v[i], v[j]) for i, j in self.edges)


@dataclass(frozen=True)
class Instance:
    """A forest of pairwise disjoint geometric trees."""

    trees: tuple[GeometricTree, ...]

    @property
    def m(self) -> int:
        return len(self.trees)

    @property
    def n(self) -> int:
        return sum(t.n for t in self.trees)

    def tree_hulls(self) -> tuple[ConvexPolygon, ...]:
        return tuple(convex_hull(t.vertices) for t in self.trees)

    def tree_boxes(self) -> tuple[AABB, ...]:
        return tuple(box_of(t.vertices) for t in self.trees)


@dataclass(frozen=True)
class Violation:
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
    """
    out: list[Violation] = []

    for ti, tree in enumerate(instance.trees):
        nv = len(tree.vertices)
        seen = set()
        for i, j in tree.edges:
            if i == j:
                out.append(Violation("self-loop", f"tree {ti}: edge ({i},{i})", (ti,)))
            key = (min(i, j), max(i, j))
            if key in seen:
                out.append(
                    Violation("duplicate-edge", f"tree {ti}: edge {key} repeated", (ti,))
                )
            seen.add(key)
        if len(tree.edges) != nv - 1:
            out.append(
                Violation(
                    "edge-count",
                    f"tree {ti}: {len(tree.edges)} edges for {nv} vertices",
                    (ti,),
                )
            )
        else:
            # connectivity via union-find over the edge set
            parent = list(range(nv))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for i, j in tree.edges:
                parent[find(i)] = find(j)
            roots = {find(i) for i in range(nv)}
            if len(roots) > 1:
                out.append(
                    Violation("not-connected", f"tree {ti}: {len(roots)} components", (ti,))
                )
        for x, y in tree.vertices:
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                out.append(
                    Violation(
                        "coordinate-range", f"tree {ti}: ({x},{y}) exceeds 2^30", (ti,)
                    )
                )

    # global vertex distinctness
    where: dict[tuple[int, int], tuple[int, int]] = {}
    for ti, tree in enumerate(instance.trees):
        for vi, v in enumerate(tree.vertices):
            if v in where:
                oti, ovi = where[v]
                out.append(
                    Violation(
                        "duplicate-vertex",
                        f"vertex {v} appears in tree {oti} and tree {ti}"
                        if oti != ti
                        else f"tree {ti}: vertex {v} repeated",
                        (oti, ti) if oti != ti else (ti,),
                    )
                )
            else:
                where[v] = (ti, vi)

    # flat segment table for the kernel batches
    sx1, sy1, sx2, sy2, seg_tree, seg_idx = [], [], [], [], [], []
    for ti, tree in enumerate(instance.trees):
        for ei, (i, j) in enumerate(tree.edges):
            a = tree.vertices[i]
            b = tree.vertices[j]
            if a == b:
                continue  # self-loop already reported
            sx1.append(a[0])
            sy1.append(a[1])
            sx2.append(b[0])
            sy2.append(b[1])
            seg_tree.append(ti)
            seg_idx.append(ei)

    px, py, p_tree = [], [], []
    for ti, tree in enumerate(instance.trees):
        for v in tree.vertices:
            px.append(v[0])
            py.append(v[1])
            p_tree.append(ti)
    # both searches return index pairs, which swapping x and y leaves alone,
    # so they sweep whichever axis keeps fewer segments active
    verts, segs = (px, py), (sx1, sy1, sx2, sy2)
    if sweep_along_y(*segs):
        verts, segs = (py, px), (sy1, sx1, sy2, sx2)
    for vi, sj in _kernelpy.find_vertex_hits(*verts, *segs):
        out.append(
            Violation(
                "vertex-on-edge",
                f"vertex ({px[vi]},{py[vi]}) of tree {p_tree[vi]} lies inside an edge "
                f"of tree {seg_tree[sj]}",
                tuple(sorted({p_tree[vi], seg_tree[sj]})),
            )
        )

    for i, j in _kernelpy.find_contacts(*segs, seg_tree):
        a = ((sx1[i], sy1[i]), (sx2[i], sy2[i]))
        b = ((sx1[j], sy1[j]), (sx2[j], sy2[j]))
        from .geom import _segment_intersection_set

        pts, _ = _segment_intersection_set(a[0], a[1], b[0], b[1])
        at = ""
        if pts:
            px_, py_ = pts[0]
            fx = int(px_) if px_.denominator == 1 else px_
            fy = int(py_) if py_.denominator == 1 else py_
            at = f" at ({fx},{fy})"
        ti, tj = seg_tree[i], seg_tree[j]
        if ti == tj:
            out.append(
                Violation(
                    "edges-cross",
                    f"tree {ti}: edges {seg_idx[i]} and {seg_idx[j]} cross{at}",
                    (ti,),
                )
            )
        else:
            out.append(
                Violation(
                    "edges-cross",
                    f"trees {ti} and {tj}: edges cross{at}",
                    (ti, tj),
                )
            )

    # warning: shared axis coordinate across different trees (box-cover ties)
    xs_seen: dict[int, int] = {}
    ys_seen: dict[int, int] = {}
    x_flagged = set()
    y_flagged = set()
    for ti, tree in enumerate(instance.trees):
        for x, y in tree.vertices:
            if x in xs_seen and xs_seen[x] != ti and x not in x_flagged:
                out.append(
                    Violation(
                        "shared-coordinate",
                        f"trees {xs_seen[x]} and {ti} share x = {x}",
                        (xs_seen[x], ti),
                        warning=True,
                    )
                )
                x_flagged.add(x)
            xs_seen.setdefault(x, ti)
            if y in ys_seen and ys_seen[y] != ti and y not in y_flagged:
                out.append(
                    Violation(
                        "shared-coordinate",
                        f"trees {ys_seen[y]} and {ti} share y = {y}",
                        (ys_seen[y], ti),
                        warning=True,
                    )
                )
                y_flagged.add(y)
            ys_seen.setdefault(y, ti)

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


@dataclass(frozen=True)
class Cover:
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
        regions = []
        for r in self.regions:
            if isinstance(r, ConvexPolygon):
                regions.append({"vertices": [[x, y] for x, y in r.vertices]})
            elif isinstance(r, AABB):
                regions.append({"box": [r.xmin, r.ymin, r.xmax, r.ymax]})
            else:
                regions.append({"circle": [r.cx, r.cy, r.r]})
        obj = {
            "phi": self.phi,
            "regions": regions,
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
                if "vertices" in robj:
                    regions.append(
                        ConvexPolygon(tuple((int(x), int(y)) for x, y in robj["vertices"]))
                    )
                elif "box" in robj:
                    regions.append(AABB(*robj["box"]))
                else:
                    regions.append(Circle(*robj["circle"]))
            membership = tuple(tuple(ms) for ms in obj["membership"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed cover: {e}") from None
        return Cover(phi, tuple(regions), membership)


# ---------------------------------------------------------------------------
# generators


def generate(kind: str, trees: int = 4, size: int = 4, seed: int = 0) -> Instance:
    """Deterministic instance generator; every output is validator-clean.

    Kinds: strips (disjoint-hull x-monotone paths), combs (interlocking
    L teeth with heavily overlapping hulls), nested (concentric open rings),
    ladder (rungs about 10^6 wide stacked in y that share x coordinates),
    mincircle-gadget (a fixed 4-tree instance whose min-circle cover depends
    on merge order; trees/size/seed are ignored for it).
    """
    if kind not in GENERATOR_KINDS:
        raise GenerationError(f"unknown kind {kind!r}")
    if kind == "mincircle-gadget":
        return _gen_mincircle_gadget()
    if trees < 1:
        raise GenerationError("need at least one tree")
    if size < 1:
        raise GenerationError("need at least one vertex per tree")
    if kind == "strips":
        inst = _gen_strips(trees, size, seed)
    elif kind == "combs":
        inst = _gen_combs(trees, size, seed)
    elif kind == "ladder":
        inst = _gen_ladder(trees, size, seed)
    else:
        inst = _gen_nested(trees, size, seed)
    bad = errors_only(validate_instance(inst))
    if bad:
        raise AssertionError(f"generator {kind} produced invalid instance: {bad[0]}")
    return inst


def _gen_strips(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("strips", m, size, seed).__repr__())
    width = size + 2
    gap = 3
    height = 2 * size + 8
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        x0 = k * (width + gap) + dx
        xs = sorted(rng.sample(range(x0, x0 + width), size))
        verts = tuple((x, rng.randrange(0, height) + dy) for x in xs)
        edges = tuple((i, i + 1) for i in range(size - 1))
        ts.append(GeometricTree(verts, edges))
    return Instance(tuple(ts))


def _gen_combs(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("combs", m, size, seed).__repr__())
    slot = 6
    height = 60
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        x0 = k * slot + dx
        arm = rng.randrange(slot + 3, 2 * slot)  # reaches into the next slot
        depth = rng.randrange(48, 57)  # 0.8..0.95 of height
        if k % 2 == 0:
            base = dy
            wall_top = base + depth
            corner = (x0, base)
            wall = (x0, wall_top)
        else:
            base = dy + height
            wall_top = base - depth
            corner = (x0, base)
            wall = (x0, wall_top)
        arm_end = (x0 + arm, base)
        # subdivide the arm for the requested size (collinear path vertices)
        n_mid = max(0, size - 3)
        arm_xs = sorted(rng.sample(range(x0 + 1, x0 + arm), min(n_mid, arm - 1)))
        chain = [wall, corner] + [(x, base) for x in arm_xs] + [arm_end]
        edges = tuple((i, i + 1) for i in range(len(chain) - 1))
        ts.append(GeometricTree(tuple(chain), edges))
    return Instance(tuple(ts))


def _gen_nested(m: int, size: int, seed: int) -> Instance:
    rng = random.Random(("nested", m, size, seed).__repr__())
    size = max(size, 8)
    steps = range(6, 2006, 2)

    def chords_clear(step: int) -> bool:
        # keep chords of one ring clear of the next ring despite rounding
        rmax = m * step + 4
        return rmax * (1 - math.cos(math.pi / size)) + 3 <= step

    if not chords_clear(steps[-1]):
        # no spacing tried keeps the outermost ring's chords clear, since
        # their sag, about m * step * (1 - cos(pi / size)), grows with the
        # spacing; add vertices per ring until it is about half a step
        while m * (1 - math.cos(math.pi / size)) > 0.5:
            size += 1
    cx = rng.randrange(-30, 30)
    cy = rng.randrange(-30, 30)
    for step in steps:
        if not chords_clear(step):
            continue
        r0 = step + 4
        ts = []
        for k in range(m):
            r = r0 + k * step
            phase = rng.uniform(0, 2 * math.pi)
            verts = []
            for i in range(size):
                a = phase + 2 * math.pi * i / size
                verts.append((cx + round(r * math.cos(a)), cy + round(r * math.sin(a))))
            if len(set(verts)) != size:
                break
            edges = tuple((i, i + 1) for i in range(size - 1))
            ts.append(GeometricTree(tuple(verts), edges))
        else:
            inst = Instance(tuple(ts))
            if not errors_only(validate_instance(inst)):
                return inst
    raise GenerationError(f"could not build nested instance (m={m}, size={size})")


def _gen_ladder(m: int, size: int, seed: int) -> Instance:
    # x-monotone paths, each in its own band of y, all overlapping in x;
    # vertices snap to a few offsets of shared columns, so rungs share x
    rng = random.Random(("ladder", m, size, seed).__repr__())
    step = max(14, 1_000_000 // max(1, size - 1))
    gap = 10
    band = 8
    dx = rng.randrange(-40, 40)
    dy = rng.randrange(-40, 40)
    ts = []
    for k in range(m):
        y0 = k * gap + dy
        verts = tuple(
            (dx + j * step + rng.choice((0, 7, 13)), y0 + rng.randrange(band))
            for j in range(size)
        )
        edges = tuple((i, i + 1) for i in range(size - 1))
        ts.append(GeometricTree(verts, edges))
    return Instance(tuple(ts))


def _gen_mincircle_gadget() -> Instance:
    # Four single-edge trees whose min-enclosing-circle cover depends on the
    # merge order; verified by exhaustive merge-order enumeration in tests.
    segs = [
        ((-10, 0), (10, 0)),
        ((-29, 2), (-9, 2)),
        ((0, 10), (20, 10)),
        ((16, 22), (26, 22)),
    ]
    ts = tuple(
        GeometricTree((a, b), ((0, 1),)) for a, b in segs
    )
    return Instance(ts)
