"""The accelerated structures must be observationally identical to the
baselines: same hits (including tie-breaks), same covers, same stats."""

import random
from fractions import Fraction

import pytest

from treecover import _kernelpy
from treecover._kernelpy import OB_RAY, OB_SEGMENT
from treecover.boxcover import (
    SMALL_STORE,
    BucketGridRangeIndex,
    LinearSegmentRangeIndex,
    box_cover_fast,
)
from treecover.generators import generate
from treecover.geom import AABB
from treecover.hullcover import (
    BucketGridShooter,
    ComponentSet,
    InternalInvariantError,
    NaiveRayShooter,
    hull_cover_fast,
)
from treecover.model import GeometricTree, Instance
from treecover.phicover import PHI, naive_phi_cover

from instances import INSTANCE_A, INSTANCE_B, INSTANCE_D


def pair(m, bounds, cell):
    return (
        NaiveRayShooter(ComponentSet(m)),
        BucketGridShooter(ComponentSet(m), bounds, cell),
    )


def same_hit(a, b):
    """Both shots hit nothing, or the same obstacle at the same exact t."""
    if a is None:
        return b is None
    return (
        b is not None and a[0] == b[0] and Fraction(a[1], a[2]) == Fraction(b[1], b[2])
    )


# bounds smaller than the coordinate range put obstacles and origins beyond
# them, where keys of neighbouring columns coincide; (1, 1) and (1000, 1000)
# are the extreme cell sizes
GRIDS = (
    (AABB(-40, -40, 40, 40), (1, 1)),
    (AABB(-40, -40, 40, 40), (3, 7)),
    (AABB(-40, -40, 40, 40), (7, 2)),
    (AABB(-10, -5, 12, 20), (4, 3)),
    (AABB(-40, -40, 40, 40), (1000, 1000)),
)


def test_grid_shooter_matches_naive_on_random_shots():
    rng = random.Random(42)
    for trial in range(200):
        m = rng.randint(1, 5)
        naive, grid = pair(m, *GRIDS[trial % len(GRIDS)])
        # every chord ends on a point of a stored obstacle, as an engine
        # chord ends on its own hull vertex
        ends = []
        for _ in range(rng.randint(0, 18)):
            x1, y1 = rng.randint(-35, 35), rng.randint(-35, 35)
            owner = rng.randrange(m)
            ends.append((x1, y1))
            if rng.random() < 0.2:  # a bare vertex
                naive.insert_segment((x1, y1), (x1, y1), owner)
                grid.insert_segment((x1, y1), (x1, y1), owner)
            else:
                while True:
                    x2, y2 = rng.randint(-35, 35), rng.randint(-35, 35)
                    if (x2, y2) != (x1, y1):
                        break
                ends.append((x2, y2))
                naive.insert_segment((x1, y1), (x2, y2), owner)
                grid.insert_segment((x1, y1), (x2, y2), owner)
        for _ in range(14 if ends else 0):
            through = rng.choice(ends)
            while True:
                origin = rng.randint(-35, 35), rng.randint(-35, 35)
                if origin != through:
                    break
            own = rng.randrange(m)
            aa, am = naive.shoot_from(origin, through, own)
            ba, bm = grid.shoot_from(origin, through, own)
            assert aa is not None and aa[1] <= aa[2]
            assert same_hit(aa, ba)
            assert same_hit(am, bm)
        assert naive.obstacles == grid.obstacles


def test_grid_reports_no_hit_on_a_chord_that_ends_on_no_obstacle():
    """The grid serves only chords that end on an obstacle. Past any other
    chord it reports no hit and inserts nothing, whether a candidate is hit
    beyond the chord's end or none is hit at all; the full scan finds the
    obstacle beyond."""
    naive, grid = pair(2, AABB(0, 0, 40, 40), (2, 2))
    for s in (naive, grid):
        s.insert_segment((20, -5), (20, 5), 1)
        s.insert_segment((5, 0), (5, 0), 1)  # in the cell of the first chord's end
    # the point is hit at t = 5/4; the second chord's cells hold nothing
    for origin, through, t in (((0, 0), (4, 0), 1.25), ((0, 2), (4, 2), 5)):
        hit, merge_hit = naive.shoot_from(origin, through, 0)
        assert Fraction(hit[1], hit[2]) == t and merge_hit is None
        assert grid.shoot_from(origin, through, 0) == (None, None)
    assert len(naive) == 4 and len(grid) == 2


class NoCellsShooter(BucketGridShooter):
    """A grid that registers no obstacle in any cell, so every chord looks
    empty."""

    def _push(self, ob):
        return NaiveRayShooter._push(self, ob)


def test_engine_raises_when_the_grid_loses_an_obstacle():
    inst = generate("strips", trees=3, size=4, seed=1)
    with pytest.raises(InternalInvariantError, match="escaped"):
        hull_cover_fast(
            inst,
            shooter_factory=lambda comps: NoCellsShooter(comps, AABB(0, 0, 0, 0), (1, 1)),
        )


def test_grid_equal_t_hits_keep_the_lowest_id():
    # three obstacles meet the shot at (10, 0); their ids 3, 40, 41 are not
    # in the order a set of them iterates in
    naive, grid = pair(3, AABB(0, -40, 80, 40), (3, 3))
    for s in (naive, grid):
        for k in range(40):
            if k == 3:
                s.insert_segment((10, 0), (10, 0), 2)
            else:
                s.insert_segment((70, k), (70, k), 0)  # filler far from the shot
        s.insert_segment((4, -3), (16, 3), 1)
        s.insert_segment((10, 0), (10, 25), 1)
    for own in (0, 1, 2):
        aa, am = naive.shoot_from((0, 0), (20, 0), own)
        ba, bm = grid.shoot_from((0, 0), (20, 0), own)
        assert same_hit(aa, ba) and same_hit(am, bm)
        assert ba[0] == 3 and bm[0] == (40 if own == 2 else 3)


@pytest.mark.parametrize("kind", ["points", "vertical"])
def test_grid_engine_on_degenerate_forests(kind):
    rng = random.Random(kind)
    if kind == "points":
        pts = rng.sample([(x, y) for x in range(-30, 30, 3) for y in range(-30, 30)], 40)
        inst = Instance(tuple(GeometricTree((p,), ()) for p in pts))
    else:
        # all trees on x = 7: the mean |dx| of the tree edges is zero
        ys = sorted(rng.sample(range(-200, 200), 60))
        inst = Instance(
            tuple(
                GeometricTree(((7, ys[i]), (7, ys[i + 1])), ((0, 1),))
                for i in range(0, len(ys), 2)
            )
        )
    base = hull_cover_fast(inst, shooter_factory=NaiveRayShooter)
    assert hull_cover_fast(inst) == base
    oracle, _ = naive_phi_cover(inst, PHI["hull"])
    assert base[0].canonical() == oracle.canonical()


def test_grid_engine_on_empty_forest():
    empty = Instance(())
    assert hull_cover_fast(empty) == hull_cover_fast(empty, shooter_factory=NaiveRayShooter)


def test_grid_engine_scans_only_chord_candidates(monkeypatch):
    """The grid shooter must hand the kernel far fewer obstacles than the
    linear scan does on a forest of many separate regions."""
    scanned = [0]
    scan = _kernelpy.scan

    def counting_scan(*args):
        scanned[0] += len(args[4])  # the candidate records
        return scan(*args)

    monkeypatch.setattr(_kernelpy, "scan", counting_scan)
    inst = generate("strips", trees=60, size=5, seed=3)
    counts = []
    for make in (NaiveRayShooter, BucketGridShooter.factory_for(inst)):
        scanned[0] = 0
        hull_cover_fast(inst, shooter_factory=make)
        counts.append(scanned[0])
    assert counts[1] * 10 < counts[0], counts


def test_grid_engine_matches_baseline_engine():
    for kind in ("strips", "combs", "nested", "ladder"):
        for seed in range(12):
            inst = generate(kind, trees=2 + seed % 5, size=3 + seed % 4, seed=seed)
            base_cover, base_stats = hull_cover_fast(
                inst, shooter_factory=NaiveRayShooter
            )
            grid_cover, grid_stats = hull_cover_fast(inst)
            assert grid_cover == base_cover, (kind, seed)
            assert grid_stats == base_stats, (kind, seed)


def registered_keys(shooter):
    keys = [set() for _ in range(len(shooter))]
    for key, ids in shooter.cells.items():
        assert len(set(ids)) == len(ids), key
        for i in ids:
            keys[i].add(key)
    return keys


def extent_keys(shooter, i):
    """The cells of obstacle i's exact extent: its segment, or its ray up
    to the end parameter tn / td."""
    s = shooter
    kind, x1, y1, x2, y2, tn, td, _ = s.obstacles[i]
    if kind == OB_SEGMENT:
        return set(s._cells(x1, y1, x2, y2, 1))
    return set(s._cells(x1 * td, y1 * td, x1 * td + x2 * tn, y1 * td + y2 * tn, td))


@pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder"])
def test_grid_registers_each_obstacle_in_the_cells_of_its_extent(kind):
    """A ray that ends at its chord's end takes the chord's cells from the
    shot's scan; every obstacle must still sit in exactly the cells of its
    own extent, so a ray that stops short stays out of the rest of its
    chord's cells."""
    rays = {"full": 0, "short": 0}
    for seed in range(10):
        inst = generate(kind, trees=2 + 3 * seed, size=3 + seed % 4, seed=seed)
        make = BucketGridShooter.factory_for(inst)
        kept = []

        def factory(comps):
            kept.append(make(comps))
            return kept[0]

        hull_cover_fast(inst, shooter_factory=factory)
        shooter = kept[0]
        for i, keys in enumerate(registered_keys(shooter)):
            assert keys == extent_keys(shooter, i), (kind, seed, i)
            ob_kind, _, _, _, _, tn, td, _ = shooter.obstacles[i]
            if ob_kind == OB_RAY:
                rays["full" if tn == td else "short"] += 1
    # every ray on nested ends at its chord's end
    assert rays["full"] > 0 and (rays["short"] > 0 or kind == "nested"), rays


def test_grid_engine_on_fixture_instances():
    for inst in (INSTANCE_A, INSTANCE_B, INSTANCE_D):
        base_cover, base_stats = hull_cover_fast(inst, shooter_factory=NaiveRayShooter)
        grid_cover, grid_stats = hull_cover_fast(inst)
        assert grid_cover == base_cover
        assert grid_stats == base_stats


def random_box(rng, span):
    """A box with its lower-left corner in [-span, span]^2; each side is
    zero about one time in six, else up to span, span / 4 or span / 64."""

    def side():
        return 0 if rng.random() < 1 / 6 else rng.randint(0, span >> rng.choice([0, 2, 6]))

    x, y = rng.randint(-span, span), rng.randint(-span, span)
    return AABB(x, y, x + side(), y + side())


def test_bucket_range_index_matches_linear():
    rng = random.Random(9)
    for trial in range(300):
        span = (5, 40, 1000, 10**6)[trial % 4]
        linear, bucket = LinearSegmentRangeIndex(), BucketGridRangeIndex()
        live = []
        next_id = 0
        # insert-heavy runs grow past SMALL_STORE, delete-heavy ones shrink
        # back below it
        grow = rng.choice([0.35, 0.5, 0.7])
        for _ in range(rng.randint(1, 90)):
            op = rng.random()
            if op < grow * 0.7 or not live:
                box = random_box(rng, span)
                linear.insert_box(next_id, box)
                bucket.insert_box(next_id, box)
                live.append(next_id)
                next_id += 1
            elif op < 0.7:
                bid = live.pop(rng.randrange(len(live)))
                linear.delete_box(bid)
                bucket.delete_box(bid)
            else:
                rect = random_box(rng, span)
                assert linear.query(rect) == bucket.query(rect), (trial, rect)


def test_bucket_range_index_keys_boxes_by_shape():
    bucket = BucketGridRangeIndex()
    boxes = {
        0: AABB(-1, -8, 0, 0),  # 1 x 8: cells 2 x 16, keys floor below zero
        1: AABB(3, 5, 3, 5),  # a point: unit cells
        2: AABB(0, 10, 10**6, 17),  # a ladder rung: 2^20 x 8 cells
        3: AABB(-7, -3, -4, 4),
        4: AABB(6, -2, 9, -2),
    }
    for bid, box in boxes.items():
        bucket.insert_box(bid, box)
    assert bucket.query(AABB(-100, -100, 100, 100)) == set(boxes)
    assert bucket.grids == {
        (1, 4): {(-1, -1): {0}, (-1, 0): {0}, (0, -1): {0}, (0, 0): {0}},
        (0, 0): {(3, 5): {1}},
        (20, 3): {(0, 1): {2}, (0, 2): {2}},
        (2, 3): {(-2, -1): {3}, (-2, 0): {3}, (-1, -1): {3}, (-1, 0): {3}},
        (2, 0): {(1, -2): {4}, (2, -2): {4}},
    }


def placed_ids(bucket):
    return {i for cells in bucket.grids.values() for ids in cells.values() for i in ids}


def test_bucket_range_index_places_boxes_once_the_store_outgrows_small():
    rng = random.Random(5)
    for trial in range(60):
        span = (5, 1000, 10**6)[trial % 3]
        linear, bucket = LinearSegmentRangeIndex(), BucketGridRangeIndex()
        rects = [random_box(rng, span) for _ in range(30)]

        def same_hits():
            for rect in rects:
                assert linear.query(rect) == bucket.query(rect), (trial, rect)

        def insert(bid):
            box = random_box(rng, span)
            linear.insert_box(bid, box)
            bucket.insert_box(bid, box)

        def delete(bid):
            linear.delete_box(bid)
            bucket.delete_box(bid)

        for bid in range(SMALL_STORE):
            insert(bid)
        same_hits()
        assert not bucket.grids and len(bucket.pending) == SMALL_STORE
        # deleting a box that was never placed
        delete(0)
        insert(SMALL_STORE)
        insert(SMALL_STORE + 1)
        same_hits()
        assert not bucket.pending and placed_ids(bucket) == set(bucket.boxes)
        # a fresh box waits until the next query, then joins the grids
        insert(SMALL_STORE + 2)
        assert list(bucket.pending) == [SMALL_STORE + 2]
        delete(SMALL_STORE + 2)
        insert(SMALL_STORE + 3)
        same_hits()
        # deleting placed boxes down to a small store, then growing again
        for bid in (1, 2, SMALL_STORE):
            delete(bid)
        same_hits()
        assert len(bucket.boxes) <= SMALL_STORE
        insert(SMALL_STORE + 4)
        insert(SMALL_STORE + 5)
        same_hits()
        for bid in sorted(bucket.boxes):
            delete(bid)
        assert not bucket.grids and not bucket.pending
        same_hits()


def test_bucket_box_engine_matches_baseline():
    for kind in ("strips", "combs", "nested", "ladder"):
        for seed in range(12):
            inst = generate(kind, trees=2 + 3 * seed, size=3 + seed % 4, seed=seed)
            base_cover, base_stats = box_cover_fast(
                inst, index_factory=LinearSegmentRangeIndex
            )
            bucket_cover, bucket_stats = box_cover_fast(inst)
            assert bucket_cover == base_cover, (kind, seed)
            assert bucket_stats == base_stats, (kind, seed)


def test_grid_shooter_oracle_equivalence():
    for seed in range(10):
        inst = generate("combs", trees=6, size=4, seed=100 + seed)
        cover, _ = hull_cover_fast(inst)
        oracle, _ = naive_phi_cover(inst, PHI["hull"])
        assert cover.canonical() == oracle.canonical()
