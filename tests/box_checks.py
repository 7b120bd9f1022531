"""The box engine's insert/delete discipline, counted through the range
index's ``_register`` and ``_unregister`` hooks, which follow every insert
and delete."""

from collections import Counter

from treecover.boxcover import BucketGridRangeIndex


class CountingRangeIndex(BucketGridRangeIndex):
    """The engine's default range index, counting the inserts and deletes
    of each box id."""

    def __init__(self):
        super().__init__()
        self.inserts = Counter()
        self.deletes = Counter()

    def _register(self, box_id, box):
        self.inserts[box_id] += 1
        super()._register(box_id, box)

    def _unregister(self, box_id, box):
        self.deletes[box_id] += 1
        super()._unregister(box_id, box)


def assert_inserted_and_deleted_at_most_once(index: CountingRangeIndex):
    assert all(c == 1 for c in index.inserts.values())
    assert all(c == 1 for c in index.deletes.values())
    assert set(index.deletes) <= set(index.inserts)
