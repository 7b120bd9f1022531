"""Grid-bucketed drop-in for the box engine's range index.

`GridSegmentRangeIndex` meets the same contract as
`boxcover.LinearSegmentRangeIndex` and returns identical results; it buckets
box boundaries into a uniform integer-aligned grid so a query touches only
nearby boxes. The grid is purely a candidate filter: every candidate is
confirmed exactly, and rasterization is conservative (a superset of the
touched cells), so exactness is unaffected. The hull engine's grid shooter
is `hullcover.BucketGridShooter`.
"""

from __future__ import annotations

from .boxcover import DuplicateBoxIdError, boundary_intersects_rect
from .geom import AABB, box_union


class GridSegmentRangeIndex:
    """Grid-bucketed variant of the box-boundary range index.

    Box boundaries are registered in the cells they overlap (exact integer
    arithmetic: boundaries are axis-aligned). A query visits the cells of
    the closed query rectangle, or falls back to the full live set when the
    rectangle covers most of the grid; candidates are confirmed exactly.
    """

    def __init__(self, bounds: AABB | None = None, cell: int | None = None):
        if bounds is None:
            bounds = AABB(-64, -64, 64, 64)
        self.x0 = bounds.xmin - 2
        self.y0 = bounds.ymin - 2
        extent = max(bounds.xmax - self.x0, bounds.ymax - self.y0, 1) + 2
        if cell is None:
            cell = max(1, extent // 96)
        self.cell = cell
        self.n = extent // cell + 2
        self.cells: dict[tuple[int, int], dict[int, None]] = {}
        self.boxes: dict[int, AABB] = {}
        self.box_cells: dict[int, list[tuple[int, int]]] = {}
        # boxes whose boundary ring would span too many cells live here and
        # are candidates for every query instead
        self.overflow: dict[int, None] = {}
        self.overflow_ring = max(16, self.n // 2)
        self.insert_count: dict[int, int] = {}
        self.delete_count: dict[int, int] = {}

    @staticmethod
    def factory_for(instance):
        boxes = instance.tree_boxes()
        bounds = boxes[0]
        for b in boxes[1:]:
            bounds = box_union(bounds, b)
        return lambda: GridSegmentRangeIndex(bounds=bounds)

    def _clamp_cell(self, x: int, y: int) -> tuple[int, int]:
        cx = (x - self.x0) // self.cell
        cy = (y - self.y0) // self.cell
        return max(0, min(self.n - 1, cx)), max(0, min(self.n - 1, cy))

    def _boundary_cells(self, box: AABB):
        cx0, cy0 = self._clamp_cell(box.xmin, box.ymin)
        cx1, cy1 = self._clamp_cell(box.xmax, box.ymax)
        out = set()
        for cx in range(cx0, cx1 + 1):
            out.add((cx, cy0))
            out.add((cx, cy1))
        for cy in range(cy0, cy1 + 1):
            out.add((cx0, cy))
            out.add((cx1, cy))
        return out

    def insert_box(self, box_id: int, box: AABB) -> None:
        if box_id in self.insert_count:
            raise DuplicateBoxIdError(f"box id {box_id} inserted twice")
        self.insert_count[box_id] = 1
        self.boxes[box_id] = box
        cx0, cy0 = self._clamp_cell(box.xmin, box.ymin)
        cx1, cy1 = self._clamp_cell(box.xmax, box.ymax)
        ring = 2 * (cx1 - cx0 + 1) + 2 * (cy1 - cy0 + 1)
        if ring > self.overflow_ring:
            self.overflow[box_id] = None
            return
        cells = self._boundary_cells(box)
        self.box_cells[box_id] = list(cells)
        for c in cells:
            self.cells.setdefault(c, {})[box_id] = None

    def delete_box(self, box_id: int) -> None:
        if box_id not in self.boxes:
            raise KeyError(f"box id {box_id} not stored")
        self.delete_count[box_id] = self.delete_count.get(box_id, 0) + 1
        if box_id in self.overflow:
            del self.overflow[box_id]
        else:
            for c in self.box_cells.pop(box_id):
                bucket = self.cells.get(c)
                if bucket is not None:
                    bucket.pop(box_id, None)
                    if not bucket:
                        del self.cells[c]
        del self.boxes[box_id]

    def query(self, rect: AABB) -> set[int]:
        cx0, cy0 = self._clamp_cell(rect.xmin, rect.ymin)
        cx1, cy1 = self._clamp_cell(rect.xmax, rect.ymax)
        span = (cx1 - cx0 + 1) * (cy1 - cy0 + 1)
        if span > 4 * self.n or span >= len(self.cells):
            candidates = set(self.boxes)
        else:
            candidates = set(self.overflow)
            for cx in range(cx0, cx1 + 1):
                for cy in range(cy0, cy1 + 1):
                    bucket = self.cells.get((cx, cy))
                    if bucket:
                        candidates.update(bucket)
        return {
            i for i in candidates if boundary_intersects_rect(self.boxes[i], rect)
        }
