"""Fast box-cover engine.

Processes trees in input order against a dynamic index of stored boxes:
the tree's bounding box is queried, every stored box meeting the closed
query rectangle (boundary, interior or container) is deleted and folded
into it, and the grown rectangle is re-queried until nothing is found, then
inserted. The stored boxes stay pairwise disjoint, so when the input is
processed the store is the cover itself. A query whose one hit contains it
is not repeated: in a disjoint store that box meets no other.

The range index is pluggable. The default, `BucketGridRangeIndex`, keys
each stored box to a grid shaped by the box itself and walks only the
occupied cells of each grid that a query can hit, so a query looks only at
boxes near it; `LinearSegmentRangeIndex`, its base class, is the exact
linear scan it is tested against. Both return identical results.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import NamedTuple

from .geom import AABB, box_union, boxes_intersect, outermost
from .model import Cover, Instance


class DuplicateBoxIdError(ValueError):
    pass


class LinearSegmentRangeIndex:
    """Baseline box range index: linear scan per query.

    Stores each box under its id and answers a closed rectangle query with
    the ids of the stored boxes meeting the rectangle, a box containing it
    included. Each id is inserted at most once (``inserted`` holds every id
    ever inserted; a second insert raises ``DuplicateBoxIdError``) and
    deleted at most once (a delete of an id not stored raises ``KeyError``).

    Subclasses narrow the scan through three hooks: ``_register`` and
    ``_unregister`` follow every insert and delete, and ``_candidates``
    returns ids that include every stored box meeting the query rectangle.
    ``query``, ``insert_box`` and ``delete_box`` are defined here only:
    perfbench's tracer patches them on this class."""

    def __init__(self):
        self.boxes: dict[int, AABB] = {}
        self.inserted: set[int] = set()

    def insert_box(self, box_id: int, box: AABB) -> None:
        if box_id in self.inserted:
            raise DuplicateBoxIdError(f"box id {box_id} inserted twice")
        self.inserted.add(box_id)
        self.boxes[box_id] = box
        self._register(box_id, box)

    def delete_box(self, box_id: int) -> None:
        if box_id not in self.boxes:
            raise KeyError(f"box id {box_id} not stored")
        self._unregister(box_id, self.boxes.pop(box_id))

    def query(self, rect: AABB) -> set[int]:
        boxes = self.boxes
        return {i for i in self._candidates(rect) if boxes_intersect(boxes[i], rect)}

    def _register(self, box_id: int, box: AABB) -> None:
        pass

    def _unregister(self, box_id: int, box: AABB) -> None:
        pass

    def _candidates(self, rect: AABB):
        return self.boxes


# stores of at most this many boxes are scanned whole, and their boxes are
# placed in grids only once the store outgrows it
SMALL_STORE = 4


class _CellLines:
    """The occupied cells of one grid, line by line: column-major in the
    grid itself, row-major in its ``twin``.

    ``lines`` maps the key of each occupied line (a column, or a row) to its
    occupied cells, keyed along the line, each with the ids placed there.
    The sorted line keys (``keys``), and each line's sorted cell keys
    (``along``), are built the first time a query needs them and kept
    sorted after that: sorted eagerly, long lines would pay an ``insort``
    on every insert. The twin is built the first time a query needs it
    and kept up after that; it shares each cell's id set with the grid."""

    __slots__ = ("lines", "keys", "along", "twin")

    def __init__(self):
        self.lines: dict[int, dict[int, set[int]]] = {}
        self.keys: list[int] | None = None
        self.along: dict[int, list[int]] = {}
        self.twin: _CellLines | None = None

    def place(self, box_id: int, us, vs) -> None:
        """Add ``box_id`` to the cells of lines ``us`` at ``vs``."""
        lines = self.lines
        for u in us:
            line = lines.get(u)
            for v in vs:
                ids = None if line is None else line.get(v)
                if ids is None:
                    ids = set()
                    self._link(u, v, ids)
                    if self.twin is not None:
                        self.twin._link(v, u, ids)
                    line = lines[u]
                ids.add(box_id)

    def _link(self, u: int, v: int, ids: set[int]) -> None:
        """Store the new cell (u, v) with its id set ``ids``."""
        line = self.lines.get(u)
        if line is None:
            line = self.lines[u] = {}
            if self.keys is not None:
                insort(self.keys, u)
        line[v] = ids
        along = self.along.get(u)
        if along is not None:
            insort(along, v)

    def remove(self, box_id: int, us, vs) -> None:
        """Take ``box_id`` out of the cells of lines ``us`` at ``vs``."""
        for u in us:
            for v in vs:
                ids = self.lines[u][v]
                ids.discard(box_id)
                if not ids:
                    self._unlink(u, v)
                    if self.twin is not None:
                        self.twin._unlink(v, u)

    def _unlink(self, u: int, v: int) -> None:
        """Drop the emptied cell (u, v), and its line if that empties."""
        line = self.lines[u]
        del line[v]
        if line:
            along = self.along.get(u)
            if along is not None:
                del along[bisect_left(along, v)]
            return
        del self.lines[u]
        self.along.pop(u, None)
        if self.keys is not None:
            del self.keys[bisect_left(self.keys, u)]

    def row_major(self) -> _CellLines:
        """The twin, built from the grid's cells if this is its first use."""
        twin = self.twin
        if twin is None:
            twin = self.twin = _CellLines()
            for u, line in self.lines.items():
                for v, ids in line.items():
                    twin._link(v, u, ids)
        return twin

    def walk(
        self, u0: int, u1: int, v0: int, v1: int, out: set[int], most: int | None = None
    ):
        """Add to ``out`` the ids in the cells [v0, v1] of the lines [u0, u1]
        and return None; or, when that would visit more than ``most``
        lines, add nothing and return how many it would visit. Each level
        probes the keys in its range when there are no more of them than
        occupied ones, and bisects the sorted occupied keys otherwise."""
        lines = self.lines
        if u1 - u0 < len(lines):
            if most is not None and u1 - u0 >= most:
                return u1 - u0 + 1
            us = range(u0, u1 + 1)
        else:
            keys = self.keys
            if keys is None:
                keys = self.keys = sorted(lines)
            first, stop = bisect_left(keys, u0), bisect_right(keys, u1)
            if most is not None and stop - first > most:
                return stop - first
            us = keys[first:stop]
        along = self.along
        dv = v1 - v0
        for u in us:
            line = lines.get(u)
            if line is None:
                continue
            if dv < len(line):
                for v in range(v0, v1 + 1):
                    ids = line.get(v)
                    if ids is not None:
                        out |= ids
            else:
                vs = along.get(u)
                if vs is None:
                    vs = along[u] = sorted(line)
                for v in vs[bisect_left(vs, v0) : bisect_right(vs, v1)]:
                    out |= line[v]
        return None


class BucketGridRangeIndex(LinearSegmentRangeIndex):
    """Range index over grids of box buckets, one grid per box shape.

    A box of width w and height h is kept in the grid keyed
    ``(a, b) = (w.bit_length(), h.bit_length())``, whose cells are the
    2^a x 2^b integer rectangles keyed ``(x >> a, y >> b)``. As 2^a > w and
    2^b > h, a box meets at most 2 x 2 cells of its grid. A stored box and a
    query rectangle that share a point share that point's cell in the box's
    grid, so the boxes in the rectangle's cells include every box it meets,
    a box containing it included; ``query`` confirms each of them exactly.

    Per grid, a query walks only the occupied cells it can hit: the grid's
    occupied columns in its range and, in each, the occupied rows in its
    range. At each level it probes its own keys when they are no more than
    the occupied ones, and bisects the sorted occupied keys otherwise. A
    query whose column walk would visit more than two columns walks the
    row-major order instead (occupied rows, each with its columns) when
    that visits fewer rows. Per grid the walk costs at most min(rectangle
    cells, occupied cells), up to a log factor.

    While the store holds at most ``SMALL_STORE`` boxes it is scanned whole;
    boxes wait in ``pending`` and are placed when it outgrows that, so a
    store of one box that grows on every absorb never touches a grid.
    """

    def __init__(self):
        super().__init__()
        self.grids: dict[tuple[int, int], _CellLines] = {}
        self.pending: dict[int, None] = {}

    @staticmethod
    def _cells(box: AABB):
        """The key of the box's grid, and the box's columns and rows there."""
        a = (box.xmax - box.xmin).bit_length()
        b = (box.ymax - box.ymin).bit_length()
        return (a, b), {box.xmin >> a, box.xmax >> a}, {box.ymin >> b, box.ymax >> b}

    def _register(self, box_id: int, box: AABB) -> None:
        self.pending[box_id] = None

    def _unregister(self, box_id: int, box: AABB) -> None:
        if box_id in self.pending:
            del self.pending[box_id]
            return
        shape, cols, rows = self._cells(box)
        grid = self.grids[shape]
        grid.remove(box_id, cols, rows)
        if not grid.lines:
            del self.grids[shape]

    def _candidates(self, rect: AABB):
        if len(self.boxes) <= SMALL_STORE:
            return self.boxes
        if self.pending:
            grids = self.grids
            for i in self.pending:
                shape, cols, rows = self._cells(self.boxes[i])
                grid = grids.get(shape)
                if grid is None:
                    grid = grids[shape] = _CellLines()
                grid.place(i, cols, rows)
            self.pending.clear()
        x0, y0, x1, y1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        out: set[int] = set()
        for (a, b), grid in self.grids.items():
            cx0, cx1 = x0 >> a, x1 >> a
            cy0, cy1 = y0 >> b, y1 >> b
            cols = grid.walk(cx0, cx1, cy0, cy1, out, 2)
            if cols is not None:
                # more than two columns to walk: walk the rows if fewer
                rows = grid.row_major()
                if rows.walk(cy0, cy1, cx0, cx1, out, cols - 1) is not None:
                    grid.walk(cx0, cx1, cy0, cy1, out)
        return out


class BoxStats(NamedTuple):
    queries: int
    merges: int


def maximal_boxes(boxes: list[AABB]) -> list[int]:
    """For each box, the index of the outermost box containing it (its own
    index when it is maximal); containment is strict interval inclusion on
    both axes (boxes are boundary-disjoint). The engine does not need it:
    its boxes end pairwise disjoint."""
    return outermost(
        boxes, boxes, lambda inner, outer: outer.strictly_contains_box(inner)
    )


def box_cover_fast(instance: Instance, index_factory=BucketGridRangeIndex):
    """Compute the box-cover; returns (Cover, BoxStats).

    The cover equals the naive merge-fixpoint box cover exactly.
    """
    index = index_factory()
    # stored box id, the index of the tree whose query stored it ->
    # (the box, its member trees); the stored boxes are pairwise disjoint
    store: dict[int, tuple[AABB, list[int]]] = {}
    queries = 0
    merges = 0
    m = instance.m

    for i, q in enumerate(instance.tree_boxes()):
        members = [i]
        rounds = 0
        while True:
            hits = index.query(q)
            queries += 1
            rounds += 1
            if rounds > m + 1:
                raise AssertionError("box absorption loop exceeded m iterations")
            if not hits:
                break
            grown = q
            for hid in sorted(hits):
                index.delete_box(hid)
                box, absorbed = store.pop(hid)
                # extend the larger member list so accumulation stays linear
                if len(absorbed) > len(members):
                    members, absorbed = absorbed, members
                members.extend(absorbed)
                grown = box_union(grown, box)
            merges += len(hits)
            if not grown.contains_box(q):
                raise AssertionError("query box shrank")
            q = grown
            if len(hits) == 1 and grown == box:
                # the one hit contains the query and, in a disjoint store,
                # meets no other box: a re-query would find nothing
                break
        index.insert_box(i, q)
        store[i] = (q, members)

    return Cover.build("box", list(store.values())), BoxStats(queries, merges)
