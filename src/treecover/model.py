"""Input data model: trees, instances, covers, wire format and validation.

The wire format is UTF-8 JSON:

    {"trees": [{"vertices": [[x, y], ...], "edges": [[i, j], ...]}, ...]}

Coordinates are integers with |x|, |y| <= 2^30. Decimals are rejected unless
a scale above 1 is given (the CLI's ``--scale``): each coordinate times the
scale, computed exactly, must then be an integer in that range. Cover files
use 0-based tree indices in their membership lists.
"""

from __future__ import annotations

import json
import math
from functools import cache
from itertools import accumulate, chain, repeat
from operator import itemgetter, lt
from typing import Iterable, NamedTuple, NoReturn

from . import _kernelpy
from .geom import (
    AABB,
    Circle,
    ConvexPolygon,
    COORD_LIMIT,
    _segment_intersection_set,
    convex_hull,
    sweep_along_y,
)


class ParseError(ValueError):
    """Malformed instance or cover text."""


class GenerationError(ValueError):
    """Generator parameters are infeasible."""


# the kinds of ``generators.generate``, named here so that the CLI's parser
# does not import the generators
GENERATOR_KINDS = (
    "strips", "combs", "nested", "ladder", "arc", "cross", "diag", "mincircle-gadget"
)


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


_first, _second = itemgetter(0), itemgetter(1)


class Columns(NamedTuple):
    """An instance as flat columns. Vertex v is (px[v], py[v]); tree t owns
    vertices voff[t]:voff[t + 1] and edges eoff[t]:eoff[t + 1], and edge e
    joins its tree's vertices ea[e] and eb[e], numbered from 0 in the tree."""

    px: tuple[int, ...]
    py: tuple[int, ...]
    voff: tuple[int, ...]
    ea: tuple[int, ...]
    eb: tuple[int, ...]
    eoff: tuple[int, ...]


class Instance:
    """A forest of pairwise disjoint geometric trees, held as ``columns``,
    which the validator and both engines read. Its trees are built from
    them on first use, unless the instance was made from trees; two
    instances are equal when their trees are."""

    __slots__ = ("_columns", "_trees")

    def __init__(self, trees: Iterable[GeometricTree]):
        self._trees = trees = tuple(trees)
        px, py, voff, ea, eb, eoff = [], [], [0], [], [], [0]
        for t in trees:
            px += map(_first, t.vertices)
            py += map(_second, t.vertices)
            ea += map(_first, t.edges)
            eb += map(_second, t.edges)
            voff.append(len(px))
            eoff.append(len(ea))
        self._columns = Columns(*map(tuple, (px, py, voff, ea, eb, eoff)))

    @classmethod
    def from_columns(cls, columns: Columns) -> "Instance":
        inst = object.__new__(cls)
        inst._columns, inst._trees = columns, None
        return inst

    @property
    def columns(self) -> Columns:
        return self._columns

    @property
    def trees(self) -> tuple[GeometricTree, ...]:
        if self._trees is None:
            px, py, voff, ea, eb, eoff = self._columns
            pts, ends = list(zip(px, py)), list(zip(ea, eb))
            self._trees = tuple(
                GeometricTree(tuple(pts[v0:v1]), tuple(ends[e0:e1]))
                for v0, v1, e0, e1 in zip(voff, voff[1:], eoff, eoff[1:])
            )
        return self._trees

    @property
    def m(self) -> int:
        return len(self._columns.voff) - 1

    @property
    def n(self) -> int:
        return len(self._columns.px)

    def tree_boxes(self) -> tuple[AABB, ...]:
        px, py, voff = self._columns[:3]
        xs = [px[a:b] for a, b in zip(voff, voff[1:])]
        ys = [py[a:b] for a, b in zip(voff, voff[1:])]
        # each min is at most its max, so ``_make`` skips AABB's inversion check
        return tuple(map(AABB._make, zip(map(min, xs), map(min, ys), map(max, xs), map(max, ys))))

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return self.trees == other.trees

    def __hash__(self):
        return hash(self.trees)

    def __repr__(self):
        return f"Instance({self.trees!r})"


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


def load_json(text: str, parse_float=None):
    """The JSON value of text, its decimals read by parse_float (float by
    default); raises ParseError where text is no JSON Python can read."""
    try:
        return json.loads(text, parse_float=parse_float)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as e:  # an integer longer than sys.get_int_max_str_digits()
        raise ParseError(str(e).partition(";")[0]) from None


@cache
def _exact():
    """``Decimal`` and a context in which every product is exact. Only a
    scale above 1 reads decimals, so only it imports ``decimal``."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
    return Decimal, Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _coord(v, scale: int) -> int:
    """The coordinate that the wire value v stands for: v times scale,
    computed exactly, which must be an integer with |c| <= 2^30. v is an int
    or, above scale 1, a ``Decimal``; raises ParseError naming the fault."""
    if type(v) is int:
        c = v * scale
    elif scale == 1 or type(v) is not _exact()[0]:
        raise ParseError(f"expected integer coordinate, got {v!r}")
    else:
        p = _exact()[1].multiply(v, scale)
        c = _exact()[1].to_integral_value(p)
        if c != p:
            raise ParseError(f"{v} * {scale} is not an integer")
    # a Decimal c is compared as one, so that no huge int is ever built
    if not -COORD_LIMIT <= c <= COORD_LIMIT:
        raise ParseError(f"coordinate {c} out of range (|c| <= 2^30)")
    return int(c)


def parse_instance(text: str, scale: int = 1) -> Instance:
    """Parse the JSON wire format; rejects malformed input before validation.

    The columns are built and checked in bulk; input that fails a check is
    walked again item by item, which names the first fault."""
    obj = load_json(text, _exact()[0] if scale != 1 else None)
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    extra = set(obj) - {"trees"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    if "trees" not in obj or not isinstance(obj["trees"], list):
        raise ParseError('missing "trees" list')
    if not obj["trees"]:
        raise ParseError("empty forest")
    columns = _bulk_columns(obj["trees"], scale)
    if columns is None:
        _raise_first_fault(obj["trees"], scale)
    return Instance.from_columns(columns)


def _bulk_columns(tobjs: list, scale: int) -> Columns | None:
    """The columns of the wire trees, or None unless the input passes every
    check of ``_raise_first_fault``."""
    # each tree has two keys, both lists: exactly "vertices" and "edges"
    if not set(map(type, tobjs)) <= {dict} or not set(map(len, tobjs)) <= {2}:
        return None
    try:
        vlists = list(map(itemgetter("vertices"), tobjs))
        elists = list(map(itemgetter("edges"), tobjs))
    except KeyError:
        return None
    if not {*map(type, vlists), *map(type, elists)} <= {list}:
        return None
    vlen, elen = list(map(len, vlists)), list(map(len, elists))
    if 0 in vlen:
        return None
    verts, edges = list(chain.from_iterable(vlists)), list(chain.from_iterable(elists))
    # a pair of length 2 flattens to two items, which must be ints; a
    # non-list of length 2 (an object, a string) flattens to non-ints
    try:
        if not set(map(len, verts)) <= {2} or not set(map(len, edges)) <= {2}:
            return None
        xy, ends = tuple(chain.from_iterable(verts)), tuple(chain.from_iterable(edges))
    except TypeError:  # a number or null where a pair belongs
        return None
    if scale != 1:
        try:
            xy = tuple([_coord(c, scale) for c in xy])
        except ParseError:
            return None
    if not {*map(type, xy), *map(type, ends)} <= {int}:
        return None
    if min(xy) < -COORD_LIMIT or max(xy) > COORD_LIMIT:
        return None
    ea, eb = ends[0::2], ends[1::2]
    # per edge, its tree's vertex count
    cap = list(chain.from_iterable(map(repeat, vlen, elen)))
    if ends and (min(ends) < 0 or not (all(map(lt, ea, cap)) and all(map(lt, eb, cap)))):
        return None
    return Columns(xy[0::2], xy[1::2], (0, *accumulate(vlen)), ea, eb, (0, *accumulate(elen)))


def _raise_first_fault(tobjs: list, scale: int) -> NoReturn:
    """Walk the wire trees item by item and raise on the first fault."""
    for ti, tobj in enumerate(tobjs):
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
        for vi, pair in enumerate(vraw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"tree {ti} vertex {vi}: expected [x, y]")
            for axis, v in zip("xy", pair):
                try:
                    _coord(v, scale)
                except ParseError as e:
                    raise ParseError(f"tree {ti} vertex {vi} {axis}: {e}") from None
        for ei, pair in enumerate(eraw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ParseError(f"tree {ti} edge {ei}: expected [i, j] integer indices")
            i, j = pair
            if not (0 <= i < len(vraw)) or not (0 <= j < len(vraw)):
                raise ParseError(f"tree {ti} edge {ei}: index out of range")
    raise AssertionError("the bulk parse refused wire trees without a fault")


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

    One pass over the instance's columns checks each tree's structure and
    builds the segment table; an edge with an index outside its tree's
    vertices is reported and left out of it. A union-find over global
    vertex ids joins the ends of each edge, and k counts the edges whose
    ends it had already joined: a tree with nv vertices and nv - 1 edges has 1 + k
    components, and only a tree with k > 0 can have a self-loop or a
    repeated edge.

    A vertex strictly inside a segment s either ends another segment, which
    then meets s away from s's ends, so ``find_contacts`` reports the pair,
    or it ends no segment. So ``find_vertex_hits`` runs only on the ends of
    contact pairs and on vertices that end no segment: when the structure
    checks pass and no edge has zero length, only the vertices of
    single-vertex trees. Each segment's extents are computed once; they
    pick the sweep axis and feed ``find_contacts``. Most pairs it tests are
    two edges of one tree at a shared vertex, and it decides those itself,
    without ``seg_relation``.
    """
    out: list[Violation] = []
    px, py, voff, ea, eb, eoff = instance.columns
    p_tree: list[int] = []
    parent = list(range(len(px)))
    # edges of nonzero length: the global ids of their ends, tree and index
    seg_a, seg_b, seg_tree, seg_idx = [], [], [], []
    for ti in range(len(voff) - 1):
        base, e0, e1 = voff[ti], eoff[ti], eoff[ti + 1]
        nv = voff[ti + 1] - base
        p_tree += [ti] * nv
        k = 0
        for e in range(e0, e1):
            i, j = ea[e], eb[e]
            if not (0 <= i < nv and 0 <= j < nv):
                msg = f"tree {ti}: edge {e - e0} ({i},{j}) index out of range"
                out.append(Violation("edge-index", msg, (ti,)))
                continue
            a, b = base + i, base + j
            if px[a] != px[b] or py[a] != py[b]:
                seg_a.append(a)
                seg_b.append(b)
                seg_tree.append(ti)
                seg_idx.append(e - e0)
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
            for i, j in zip(ea[e0:e1], eb[e0:e1]):
                if i == j:
                    out.append(Violation("self-loop", f"tree {ti}: edge ({i},{i})", (ti,)))
                key = (min(i, j), max(i, j))
                if key in seen:
                    msg = f"tree {ti}: edge {key} repeated"
                    out.append(Violation("duplicate-edge", msg, (ti,)))
                seen.add(key)
        if e1 - e0 != nv - 1:
            msg = f"tree {ti}: {e1 - e0} edges for {nv} vertices"
            out.append(Violation("edge-count", msg, (ti,)))
        elif k:
            out.append(Violation("not-connected", f"tree {ti}: {1 + k} components", (ti,)))
    # no structure fault and no zero-length edge: every tree is connected by
    # its edges, so each vertex of a tree with two or more vertices ends one
    whole = not out and len(seg_a) == len(ea)

    if max(map(abs, px), default=0) > COORD_LIMIT or max(map(abs, py), default=0) > COORD_LIMIT:
        out += [
            Violation("coordinate-range", f"tree {ti}: ({x},{y}) exceeds 2^30", (ti,))
            for x, y, ti in zip(px, py, p_tree)
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT
        ]
        # stable, so each tree's range errors follow its other errors
        out.sort(key=lambda v: v.trees[0])

    if len(set(zip(px, py))) != len(px):
        first: dict[tuple[int, int], int] = {}
        for v, ti in zip(zip(px, py), p_tree):
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
    xlo = [a if a <= b else b for a, b in zip(sx1, sx2)]
    xhi = [b if a <= b else a for a, b in zip(sx1, sx2)]
    ylo = [a if a <= b else b for a, b in zip(sy1, sy2)]
    yhi = [b if a <= b else a for a, b in zip(sy1, sy2)]
    # both searches return index pairs, which swapping x and y leaves alone,
    # so they sweep whichever axis keeps fewer segments active
    along_y = sweep_along_y(xlo, ylo, xhi, yhi)
    if along_y:
        segs, ext = (sy1, sx1, sy2, sx2), (ylo, xlo, yhi, xhi)
    else:
        segs, ext = (sx1, sy1, sx2, sy2), (xlo, ylo, xhi, yhi)
    contacts = _kernelpy.find_contacts(*segs, *ext, seg_tree)

    if whole:
        near = {a for a, b in zip(voff, voff[1:]) if b - a == 1}
    else:
        near = set(range(len(px))).difference(seg_a, seg_b)
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
    # each coordinate maps to the first tree that has it, or to -1 once warned;
    # the warning flag goes by position, which builds a Violation faster
    x_tree: dict[int, int] = {}
    y_tree: dict[int, int] = {}
    for x, y, ti in zip(px, py, p_tree):
        t = x_tree.setdefault(x, ti)
        if t != ti and t >= 0:
            x_tree[x] = -1
            msg = f"trees {t} and {ti} share x = {x}"
            out.append(Violation("shared-coordinate", msg, (t, ti), True))
        t = y_tree.setdefault(y, ti)
        if t != ti and t >= 0:
            y_tree[y] = -1
            msg = f"trees {t} and {ti} share y = {y}"
            out.append(Violation("shared-coordinate", msg, (t, ti), True))

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


def _int(v) -> int:
    """A cover's polygon or box coordinate or membership index: a JSON
    integer only; a boolean, a float, a string or 1e400 (read as inf)
    raises TypeError."""
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


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
        return Cover.from_obj(load_json(text))

    @staticmethod
    def from_obj(obj) -> "Cover":
        try:
            phi = obj["phi"]
            regions = []
            for robj in obj["regions"]:
                if "vertices" in robj:
                    vertices = tuple((_int(x), _int(y)) for x, y in robj["vertices"])
                    if not vertices or convex_hull(vertices).vertices != vertices:
                        raise ValueError(
                            "a polygon must list its convex hull's vertices in "
                            "canonical counter-clockwise order"
                        )
                    regions.append(ConvexPolygon(vertices))
                elif "box" in robj:
                    regions.append(AABB(*map(_int, robj["box"])))
                else:
                    circle = Circle(*robj["circle"])
                    if not all(map(math.isfinite, circle)):
                        raise ValueError("circle values must be finite")
                    regions.append(circle)
            membership = tuple(tuple(map(_int, ms)) for ms in obj["membership"])
            if len(membership) != len(regions):
                raise ValueError("membership must hold one list of trees per region")
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed cover: {e}") from None
        return Cover(phi, tuple(regions), membership)
