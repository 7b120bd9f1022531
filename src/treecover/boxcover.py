"""Fast box-cover engine.

Processes trees in input order against a dynamic index of stored box
boundaries: the tree's bounding box is queried, every stored box whose
boundary meets the closed query rectangle is deleted and folded into it, and
the grown rectangle is re-queried until nothing is found, then inserted.
The stored boxes end up pairwise boundary-disjoint (possibly nested); the
outermost ones form the cover.

The range index is pluggable; the baseline is an exact linear scan.
`treecover.accel` provides a grid-bucketed drop-in with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geom import AABB, box_of, box_union, boxes_intersect, outermost
from .model import Cover, Instance


class DuplicateBoxIdError(ValueError):
    pass


def boundary_intersects_rect(box: AABB, rect: AABB) -> bool:
    """True iff some boundary segment of ``box`` meets the closed ``rect``;
    equivalently the boxes intersect and the rect is not strictly inside."""
    return boxes_intersect(box, rect) and not box.strictly_contains_box(rect)


class LinearSegmentRangeIndex:
    """Baseline axis-aligned segment range index: linear scan per query.

    Registers each box's boundary segments under its id and answers closed
    rectangle queries with the ids having at least one boundary segment in
    the rectangle. Insert/delete counters enforce the at-most-once
    discipline."""

    def __init__(self):
        self.boxes: dict[int, AABB] = {}
        self.insert_count: dict[int, int] = {}
        self.delete_count: dict[int, int] = {}

    def insert_box(self, box_id: int, box: AABB) -> None:
        if box_id in self.insert_count:
            raise DuplicateBoxIdError(f"box id {box_id} inserted twice")
        self.insert_count[box_id] = 1
        self.boxes[box_id] = box

    def delete_box(self, box_id: int) -> None:
        if box_id not in self.boxes:
            raise KeyError(f"box id {box_id} not stored")
        self.delete_count[box_id] = self.delete_count.get(box_id, 0) + 1
        del self.boxes[box_id]

    def query(self, rect: AABB) -> set[int]:
        return {
            i for i, b in self.boxes.items() if boundary_intersects_rect(b, rect)
        }


@dataclass
class BoxComponent:
    id: int
    box: AABB
    members: list[int]


@dataclass(frozen=True)
class BoxStats:
    queries: int
    merges: int

    def to_obj(self) -> dict:
        return {"queries": self.queries, "merges": self.merges}


def maximal_boxes(boxes: list[AABB]) -> list[int]:
    """For each box, the index of the outermost box containing it (its own
    index when it is maximal); containment is strict interval inclusion on
    both axes (boxes are boundary-disjoint)."""
    return outermost(
        boxes, boxes, lambda inner, outer: outer.strictly_contains_box(inner)
    )


def box_cover_fast(instance: Instance, index_factory=LinearSegmentRangeIndex):
    """Compute the box-cover; returns (Cover, BoxStats).

    The cover equals the naive merge-fixpoint box cover exactly.
    """
    index = index_factory()
    store: dict[int, BoxComponent] = {}
    next_id = 0
    queries = 0
    merges = 0

    for i, tree in enumerate(instance.trees):
        q = box_of(tree.vertices)
        members = [i]
        rounds = 0
        while True:
            hits = index.query(q)
            queries += 1
            rounds += 1
            if rounds > instance.m + 1:
                raise AssertionError("box absorption loop exceeded m iterations")
            if not hits:
                break
            grown = q
            for hid in sorted(hits):
                index.delete_box(hid)
                comp = store.pop(hid)
                # adopt the larger member list so accumulation stays linear
                if len(comp.members) > len(members):
                    members, comp.members = comp.members, members
                members.extend(comp.members)
                grown = box_union(grown, comp.box)
            merges += len(hits)
            if not grown.contains_box(q):
                raise AssertionError("query box shrank")
            q = grown
        index.insert_box(next_id, q)
        store[next_id] = BoxComponent(next_id, q, members)
        next_id += 1

    comps = [store[k] for k in sorted(store)]
    boxes = [c.box for c in comps]
    home = maximal_boxes(boxes)
    groups: dict[int, list[int]] = {i: [] for i, h in enumerate(home) if h == i}
    for c, h in zip(comps, home):
        groups[h].extend(c.members)

    cover = Cover.build("box", ((boxes[i], tuple(ms)) for i, ms in groups.items()))
    return cover, BoxStats(queries, merges)
