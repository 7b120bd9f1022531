"""Fast box-cover engine.

Processes trees in input order against a dynamic index of stored boxes:
the tree's bounding box is queried, every stored box meeting the closed
query rectangle (boundary, interior or container) is deleted and folded
into it, and the grown rectangle is re-queried until nothing is found, then
inserted. The stored boxes stay pairwise disjoint, so when the input is
processed the store is the cover itself. A query whose one hit contains it
is not repeated: in a disjoint store that box meets no other.

The range index is pluggable. The default, `BucketGridRangeIndex`, keys
each stored box to a grid shaped by the box itself, so a query looks only at
boxes near it; `LinearSegmentRangeIndex`, its base class, is the exact
linear scan it is tested against. Both return identical results.
"""

from __future__ import annotations

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


class BucketGridRangeIndex(LinearSegmentRangeIndex):
    """Range index over grids of box buckets, one grid per box shape.

    A box of width w and height h is kept in the grid keyed
    ``(a, b) = (w.bit_length(), h.bit_length())``, whose cells are the
    2^a x 2^b integer rectangles keyed ``(x >> a, y >> b)``. As 2^a > w and
    2^b > h, a box meets at most 2 x 2 cells of its grid. A stored box and a
    query rectangle that share a point share that point's cell in the box's
    grid, so the boxes in the rectangle's cells include every box it meets,
    a box containing it included; ``query`` confirms each of them exactly.
    Per grid, a query visits the rectangle's cells or the grid's occupied
    cells, whichever are fewer.

    While the store holds at most ``SMALL_STORE`` boxes it is scanned whole;
    boxes wait in ``pending`` and are placed when it outgrows that, so a
    store of one box that grows on every absorb never touches a grid.
    """

    def __init__(self):
        super().__init__()
        # grid key -> cell key -> ids of the boxes placed in that cell
        self.grids: dict[tuple[int, int], dict[tuple[int, int], set[int]]] = {}
        self.pending: dict[int, None] = {}

    @staticmethod
    def _cells(box: AABB):
        """The key of the box's grid and the keys of its cells there."""
        a = (box.xmax - box.xmin).bit_length()
        b = (box.ymax - box.ymin).bit_length()
        cols = {box.xmin >> a, box.xmax >> a}
        rows = {box.ymin >> b, box.ymax >> b}
        return (a, b), [(cx, cy) for cx in cols for cy in rows]

    def _register(self, box_id: int, box: AABB) -> None:
        self.pending[box_id] = None

    def _unregister(self, box_id: int, box: AABB) -> None:
        if box_id in self.pending:
            del self.pending[box_id]
            return
        shape, keys = self._cells(box)
        cells = self.grids[shape]
        for key in keys:
            ids = cells[key]
            ids.discard(box_id)
            if not ids:
                del cells[key]
        if not cells:
            del self.grids[shape]

    def _candidates(self, rect: AABB):
        if len(self.boxes) <= SMALL_STORE:
            return self.boxes
        if self.pending:
            for i in self.pending:
                shape, keys = self._cells(self.boxes[i])
                cells = self.grids.setdefault(shape, {})
                for key in keys:
                    cells.setdefault(key, set()).add(i)
            self.pending.clear()
        x0, y0, x1, y1 = rect.xmin, rect.ymin, rect.xmax, rect.ymax
        out: set[int] = set()
        for (a, b), cells in self.grids.items():
            cx0, cx1 = x0 >> a, x1 >> a
            cy0, cy1 = y0 >> b, y1 >> b
            if (cx1 - cx0 + 1) * (cy1 - cy0 + 1) <= len(cells):
                for cx in range(cx0, cx1 + 1):
                    for cy in range(cy0, cy1 + 1):
                        ids = cells.get((cx, cy))
                        if ids:
                            out |= ids
            else:
                for (cx, cy), ids in cells.items():
                    if cx0 <= cx <= cx1 and cy0 <= cy <= cy1:
                        out |= ids
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
