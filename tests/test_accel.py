"""The accelerated structures must be observationally identical to the
baselines: same hits (including tie-breaks), same covers, same stats."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecover import _kernelpy
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
from treecover.model import GeometricTree, Instance, errors_only, validate_instance
from treecover.phicover import PHI, naive_phi_cover

from hull_checks import hull_cover_checked
from instances import INSTANCE_A, INSTANCE_B, INSTANCE_D, build, paired, tree
from scan_oracle import OB_RAY, segment_record, two_kind_record, two_kind_scan


def pair(m, bounds, cell, records):
    """A naive shooter and a grid, each built from its own copy of the
    obstacle records ``records``."""
    return (
        NaiveRayShooter(ComponentSet(m), list(records)),
        BucketGridShooter(ComponentSet(m), list(records), bounds, cell),
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
    """Both shooters report the same hit and merge hit and store the same
    ray on every chord: on those that end on a point of a stored obstacle,
    as an engine chord ends on its own hull vertex, and on those that end
    anywhere else."""
    rng = random.Random(42)
    seen = {"no hit": 0, "free end hit": 0}
    for trial in range(200):
        m = rng.randint(1, 5)
        records, ends = [], []
        for _ in range(rng.randint(0, 18)):
            x1, y1 = rng.randint(-35, 35), rng.randint(-35, 35)
            owner = rng.randrange(m)
            ends.append((x1, y1))
            if rng.random() < 0.2:  # a bare vertex
                records.append(segment_record((x1, y1), (x1, y1), owner))
            else:
                while True:
                    x2, y2 = rng.randint(-35, 35), rng.randint(-35, 35)
                    if (x2, y2) != (x1, y1):
                        break
                ends.append((x2, y2))
                records.append(segment_record((x1, y1), (x2, y2), owner))
        naive, grid = pair(m, *GRIDS[trial % len(GRIDS)], records)
        for _ in range(14 if ends else 0):
            on_end = rng.random() < 0.5
            if on_end:
                through = rng.choice(ends)
            else:
                through = rng.randint(-35, 35), rng.randint(-35, 35)
            while True:
                origin = rng.randint(-35, 35), rng.randint(-35, 35)
                if origin != through:
                    break
            own = rng.randrange(m)
            aa, am = naive.shoot_from(origin, through, own)
            ba, bm = grid.shoot_from(origin, through, own)
            if on_end:
                assert aa is not None
            elif aa is None:
                seen["no hit"] += 1
            else:
                seen["free end hit"] += 1
            assert aa is None or 0 < aa[1] <= aa[2]
            assert same_hit(aa, ba)
            assert same_hit(am, bm)
        assert naive.obstacles == grid.obstacles
    assert min(seen.values()) > 50, seen


def test_grid_reports_no_hit_on_a_chord_that_ends_on_no_obstacle():
    """Both shooters serve the chord alone: past a chord that ends on no
    obstacle they report no hit and insert nothing, whether an obstacle
    lies beyond the chord's end or none lies on its line at all."""
    records = [
        segment_record((20, -5), (20, 5), 1),
        segment_record((5, 0), (5, 0), 1),  # in the cell of the first chord's end
    ]
    naive, grid = pair(2, AABB(0, 0, 40, 40), (2, 2), records)
    # the point lies at t = 5/4 on the first chord and the segment at t = 5
    # on the second, whose cells hold nothing
    for s in (naive, grid):
        for origin, through in (((0, 0), (4, 0)), ((0, 2), (4, 2))):
            assert s.shoot_from(origin, through, 0) == (None, None)
        assert len(s) == 2


class NoCellsShooter(BucketGridShooter):
    """A grid that registers no obstacle in any cell, so every chord looks
    empty."""

    def _register(self, idx, ob):
        pass


def test_engine_raises_when_the_grid_loses_an_obstacle():
    # two trees that share a box region, so their hull edges are shot
    inst = paired("strips", 2, 4, seed=1)
    with pytest.raises(InternalInvariantError, match="escaped"):
        hull_cover_fast(
            inst,
            shooter_factory=lambda comps, obstacles: NoCellsShooter(
                comps, obstacles, AABB(0, 0, 0, 0), (1, 1)
            ),
        )


@st.composite
def grid_and_segments(draw):
    """A grid with a corner at negative coordinates, and vertical,
    horizontal, diagonal and zero-length segments whose ends often lie on
    cell boundaries (the corner plus a multiple of the cell side)."""
    x0, y0 = draw(st.integers(-40, 5)), draw(st.integers(-40, 5))
    cw, ch = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    w, h = draw(st.integers(0, 40)), draw(st.integers(0, 40))

    def coord(lo, side, span):
        if draw(st.booleans()):
            return lo + side * draw(st.integers(0, span // side))
        return draw(st.integers(lo, lo + span))

    segments = []
    for owner in range(draw(st.integers(0, 12))):
        ax, ay = coord(x0, cw, w), coord(y0, ch, h)
        kind = draw(st.sampled_from(["vertical", "horizontal", "diagonal", "point"]))
        bx = ax if kind in ("vertical", "point") else coord(x0, cw, w)
        by = ay if kind in ("horizontal", "point") else coord(y0, ch, h)
        segments.append(((ax, ay), (bx, by), owner))
    return AABB(x0, y0, x0 + w, y0 + h), (cw, ch), segments


@settings(max_examples=300, deadline=None)
@given(grid_and_segments())
def test_bulk_registration_takes_the_cells_of_each_segment(case):
    """A grid built from the records of ``segments`` keeps that list as its
    store and registers each record in exactly the cells ``_cells`` gives
    it, in id order within each cell; a grid that takes the same records
    one by one through ``_push``, as it stores a ray, registers them
    alike."""
    bounds, cell, segments = case
    m = len(segments) + 1
    records = [segment_record(a, b, owner) for a, b, owner in segments]
    grid = BucketGridShooter(ComponentSet(m), records, bounds, cell)
    assert grid.obstacles is records
    expected = {}
    for i, ((ax, ay), (bx, by), _) in enumerate(segments):
        for key in grid._cells(ax, ay, bx, by, 1):
            expected.setdefault(key, []).append(i)
    assert grid.cells == expected
    single = BucketGridShooter(ComponentSet(m), [], bounds, cell)
    for ob in records:
        single._push(ob)
    assert single.obstacles == records and single.cells == expected


def segment_meets_cell(a, b, lo, hi) -> bool:
    """Whether the closed segment [a, b] (Fraction points) has a point p with
    lo <= p < hi on both axes: the parameter interval [0, 1] is clipped by
    each axis' slab, tracking which of its ends are open."""
    t_lo, lo_open, t_hi, hi_open = Fraction(0), False, Fraction(1), False
    for k in (0, 1):
        e = b[k] - a[k]
        if e == 0:
            if not lo[k] <= a[k] < hi[k]:
                return False
            continue
        enter, leave = (lo[k] - a[k]) / e, (hi[k] - a[k]) / e
        # the slab holds t >= enter, t < leave when e > 0, and t <= enter,
        # t > leave when e < 0
        (low, low_open), (high, high_open) = (
            ((enter, False), (leave, True)) if e > 0 else ((leave, True), (enter, False))
        )
        if low > t_lo or (low == t_lo and low_open):
            t_lo, lo_open = low, low_open
        if high < t_hi or (high == t_hi and high_open):
            t_hi, hi_open = high, high_open
    return t_lo < t_hi or (t_lo == t_hi and not lo_open and not hi_open)


def brute_cells(grid, ax, ay, bx, by, d):
    """The keys of every cell in the segment's bounding cell range whose
    half-open rectangle holds a point of the closed segment from (ax, ay) / d
    to (bx, by) / d."""
    a, b = (Fraction(ax, d), Fraction(ay, d)), (Fraction(bx, d), Fraction(by, d))
    cols = [(v - grid.x0) // grid.cw for v in (a[0], b[0])]
    rows = [(v - grid.y0) // grid.ch for v in (a[1], b[1])]
    keys = []
    for c in range(min(cols), max(cols) + 1):
        for r in range(min(rows), max(rows) + 1):
            lo = (grid.x0 + c * grid.cw, grid.y0 + r * grid.ch)
            hi = (lo[0] + grid.cw, lo[1] + grid.ch)
            if segment_meets_cell(a, b, lo, hi):
                keys.append(c * grid.ny + r)
    return keys


@st.composite
def grid_and_scaled_segment(draw):
    """A grid of ``GRIDS`` and a horizontal, vertical, zero-length or general
    segment with ends (x, y) / d in [-45, 45]^2, d in {1, 2, 7}, each
    coordinate often on a cell boundary."""
    bounds, cell = draw(st.sampled_from(GRIDS))
    d = draw(st.sampled_from((1, 2, 7)))

    def coord(lo, side):
        if draw(st.booleans()):
            k = draw(st.integers(-((45 + lo) // side), (45 - lo) // side))
            return d * (lo + side * k)
        return draw(st.integers(-45 * d, 45 * d))

    kind = draw(st.sampled_from(["horizontal", "vertical", "point", "general"]))
    ax, ay = coord(bounds.xmin, cell[0]), coord(bounds.ymin, cell[1])
    bx = ax if kind in ("vertical", "point") else coord(bounds.xmin, cell[0])
    by = ay if kind in ("horizontal", "point") else coord(bounds.ymin, cell[1])
    return bounds, cell, (ax, ay, bx, by, d)


@settings(max_examples=400, deadline=None)
@given(grid_and_scaled_segment())
def test_cells_are_the_cells_that_hold_a_point_of_the_segment(case):
    """``_cells`` against an independent oracle: exact clipping of the
    segment's parameter interval by each cell of its bounding cell range.
    Beyond the bounds keys of neighbouring columns may coincide, so the keys
    are compared as multisets."""
    bounds, cell, segment = case
    grid = BucketGridShooter(ComponentSet(1), [], bounds, cell)
    assert sorted(grid._cells(*segment)) == sorted(brute_cells(grid, *segment))


def test_grid_equal_t_hits_keep_the_lowest_id():
    # three obstacles meet the shot at (10, 0); their ids 3, 40, 41 are not
    # in the order a set of them iterates in
    records = [segment_record((70, k), (70, k), 0) for k in range(40)]  # filler
    records[3] = segment_record((10, 0), (10, 0), 2)
    records.append(segment_record((4, -3), (16, 3), 1))
    records.append(segment_record((10, 0), (10, 25), 1))
    naive, grid = pair(3, AABB(0, -40, 80, 40), (3, 3), records)
    for own in (0, 1, 2):
        aa, am = naive.shoot_from((0, 0), (20, 0), own)
        ba, bm = grid.shoot_from((0, 0), (20, 0), own)
        assert same_hit(aa, ba) and same_hit(am, bm)
        assert ba[0] == 3 and bm[0] == (40 if own == 2 else 3)


def test_collinear_ray_ties_the_obstacle_that_stopped_it():
    """A ray's far end lies on the obstacle that stopped it. A chord along
    the ray that starts inside it hits both there at one parameter, and the
    obstacle, stored first, wins the tie."""
    records = [
        segment_record((10, -5), (10, 5), 1),  # the obstacle, id 0
        segment_record((20, 0), (20, 0), 0),  # the chords' end
    ]
    for s in pair(2, AABB(0, -10, 30, 10), (3, 3), records):
        hit, merge_hit = s.shoot_from((0, 0), (20, 0), 0)
        assert merge_hit == hit == (0, 100, 200)
        ray = s.obstacles[-1]
        assert ray == (0, 0, 20, 0, 100, 200, 0)
        s.components.union(0, 1)
        root = s.components.find(0)
        # (4, 0) lies inside the ray, which ends at h = (10, 0), t = 3/8
        hit, merge_hit = s.shoot_from((4, 0), (20, 0), root)
        assert merge_hit is None and hit[0] == 0
        assert Fraction(hit[1], hit[2]) == Fraction(3, 8)
        ia, na, da, _, _, _ = _kernelpy.scan(4, 0, 20, 0, [ray], s.components.parent, -1)
        assert ia == 0 and Fraction(na, da) == Fraction(3, 8)


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
    linear scan does on a forest of many separate regions (30 box regions
    of two trees each, every tree its own hull region)."""
    scanned = [0]
    scan = _kernelpy.scan

    def counting_scan(*args):
        scanned[0] += len(args[4])  # the candidate records
        return scan(*args)

    monkeypatch.setattr(_kernelpy, "scan", counting_scan)
    inst = paired("strips", 30, 5, seed=3)
    counts = []
    for make in (NaiveRayShooter, BucketGridShooter.factory_for(inst)):
        scanned[0] = 0
        hull_cover_fast(inst, shooter_factory=make)
        counts.append(scanned[0])
    assert counts[1] * 10 < counts[0], counts
    assert len(hull_cover_fast(inst)[0].regions) == 60


def test_grid_engine_matches_baseline_engine():
    for kind in ("strips", "combs", "nested", "ladder", "paired-strips", "paired-ladder"):
        for seed in range(12):
            inst = build(kind, 2 + seed % 5, 3 + seed % 4, seed)
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
    """The cells of obstacle i's exact extent, from (x, y) to its end
    (x, y) + (tn / td) (dx, dy)."""
    x, y, dx, dy, tn, td, _ = shooter.obstacles[i]
    return set(shooter._cells(x * td, y * td, x * td + dx * tn, y * td + dy * tn, td))


@pytest.mark.parametrize("kind", ["paired-strips", "combs", "nested", "paired-ladder"])
def test_grid_registers_each_obstacle_in_the_cells_of_its_extent(kind):
    """Every obstacle sits in exactly the cells of its own extent: a ray
    that ends at its chord's end in the chord's cells, and a ray that stops
    short in none of the rest of its chord's cells."""
    rays = {"full": 0, "short": 0}
    for seed in range(10):
        inst = build(kind, 2 + 3 * seed, 3 + seed % 4, seed)
        make = BucketGridShooter.factory_for(inst)
        kept = []

        def factory(comps, obstacles):
            kept.append(make(comps, obstacles))
            return kept[0]

        hull_cover_fast(inst, shooter_factory=factory)
        shooter = kept[0]
        # every tree shares its box region, so two tree boxes meet and the
        # engine runs: the rays come after one obstacle per tree edge or
        # bare vertex
        assert all(len(ms) > 1 for ms in box_cover_fast(inst)[0].membership), (kind, seed)
        first_ray = sum(max(1, len(t.edges)) for t in inst.trees)
        for i, keys in enumerate(registered_keys(shooter)):
            assert keys == extent_keys(shooter, i), (kind, seed, i)
            if i >= first_ray:
                _, _, _, _, tn, td, _ = shooter.obstacles[i]
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


def thin_box(rng, span):
    """A box span / 4 to span long, starting at one of four points of its
    long axis, and at most span / 64 across (at least 2), wide or tall:
    many such boxes share a few rows (or columns) of their grids."""
    start = span * rng.randint(-2, 1) // 2
    across = rng.randint(-span, span)
    long, wide = rng.randint(span >> 2, span), rng.randint(0, max(2, span >> 6))
    if rng.random() < 0.5:
        return AABB(across, start, across + wide, start + long)
    return AABB(start, across, start + long, across + wide)


def wide_query(rng, span):
    """A rectangle across the whole range of x or y, at most 2 * span the
    other way."""
    a = rng.randint(-2 * span, 2 * span)
    b = a + rng.randint(0, 2 * span)
    if rng.random() < 0.5:
        return AABB(-3 * span, a, 3 * span, b)
    return AABB(a, -3 * span, b, 3 * span)


def cells(grid):
    """The occupied cells of a grid, keyed (column, row), from its
    column-major order."""
    return {(u, v): ids for u, line in grid.lines.items() for v, ids in line.items()}


def assert_cells_kept_up(bucket):
    """Every grid's sorted keys are the sorted keys they stand for, and its
    row-major twin, once built, holds the same cells with the same id
    sets."""
    for grid in bucket.grids.values():
        orders = [grid] if grid.twin is None else [grid, grid.twin]
        for order in orders:
            assert order.keys is None or order.keys == sorted(order.lines)
            assert set(order.along) <= set(order.lines)
            for u, vs in order.along.items():
                assert vs == sorted(order.lines[u])
            assert all(order.lines.values())
        assert all(cells(grid).values())
        if grid.twin is not None:
            transposed = {(u, v): ids for (v, u), ids in cells(grid.twin).items()}
            assert transposed == cells(grid)
            for (u, v), ids in cells(grid).items():
                assert grid.twin.lines[v][u] is ids


def test_bucket_range_index_matches_linear():
    rng = random.Random(9)
    # events the run must reach: queries that walk the row-major order, that
    # bisect its sorted rows, and that bisect along a column and along a row;
    # deletes that empty a column of a grid with sorted columns, and a row of
    # a grid's twin
    seen = dict.fromkeys(
        ("rows", "sorted rows", "along", "along rows", "column emptied", "row emptied"), 0
    )
    for trial in range(300):
        span = (5, 40, 1000, 10**6)[trial % 4]
        thin = trial % 2 == 1
        linear, bucket = LinearSegmentRangeIndex(), BucketGridRangeIndex()
        live = []
        next_id = 0
        # insert-heavy runs grow past SMALL_STORE, delete-heavy ones shrink
        # back below it
        grow = rng.choice([0.35, 0.5, 0.7])
        for _ in range(rng.randint(1, 90)):
            op = rng.random()
            if op < grow * 0.7 or not live:
                make = thin_box if thin and rng.random() < 0.7 else random_box
                box = make(rng, span)
                linear.insert_box(next_id, box)
                bucket.insert_box(next_id, box)
                live.append(next_id)
                next_id += 1
            elif op < 0.7:
                bid = live.pop(rng.randrange(len(live)))
                shape = bucket._cells(bucket.boxes[bid])[0]
                grid = bucket.grids.get(shape)
                before = None
                if grid is not None and grid.twin is not None:
                    before = len(grid.lines), len(grid.twin.lines), grid.keys is not None
                linear.delete_box(bid)
                bucket.delete_box(bid)
                if before is not None:
                    seen["column emptied"] += before[2] and len(grid.lines) < before[0]
                    seen["row emptied"] += len(grid.twin.lines) < before[1]
            else:
                make = wide_query if thin and rng.random() < 0.5 else random_box
                rect = make(rng, span)
                assert linear.query(rect) == bucket.query(rect), (trial, rect)
                twins = [g.twin for g in bucket.grids.values() if g.twin is not None]
                seen["rows"] += bool(twins)
                seen["sorted rows"] += any(t.keys is not None for t in twins)
                seen["along"] += any(g.along for g in bucket.grids.values())
                seen["along rows"] += any(t.along for t in twins)
            assert_cells_kept_up(bucket)
    assert all(seen.values()), seen


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
    # each box is in the grid keyed by its shape, in at most 2 x 2 cells
    assert {shape: cells(grid) for shape, grid in bucket.grids.items()} == {
        (1, 4): {(-1, -1): {0}, (-1, 0): {0}, (0, -1): {0}, (0, 0): {0}},
        (0, 0): {(3, 5): {1}},
        (20, 3): {(0, 1): {2}, (0, 2): {2}},
        (2, 3): {(-2, -1): {3}, (-2, 0): {3}, (-1, -1): {3}, (-1, 0): {3}},
        (2, 0): {(1, -2): {4}, (2, -2): {4}},
    }
    assert_cells_kept_up(bucket)


def placed_ids(bucket):
    grids = bucket.grids.values()
    return {i for grid in grids for ids in cells(grid).values() for i in ids}


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


def lattice_forest(rng):
    """A valid forest of bare points and short paths on the 8 x 8 lattice,
    so vertices are often collinear and share coordinates."""
    trees = []
    for _ in range(rng.randint(2, 8)):
        for _ in range(20):
            k = rng.choice((1, 1, 2, 3))
            pts = tuple((rng.randrange(8), rng.randrange(8)) for _ in range(k))
            tree = GeometricTree(pts, tuple((i, i + 1) for i in range(k - 1)))
            if len(set(pts)) == k and not errors_only(
                validate_instance(Instance((*trees, tree)))
            ):
                trees.append(tree)
                break
    return Instance(tuple(trees))


# Tree 0's hull edge (0, 0) -> (10, 0) is shot first, and its ray stops at
# (10, 0). The merge with tree 1 makes (0, 0) -> (20, 0) a hull edge, so a
# later chord from (0, 0) runs along that ray and ends past it.
EXTENDED_EDGE = Instance(
    (
        tree([(5, 1), (0, 0), (10, 0), (5, 20)], [(0, 1), (0, 2), (0, 3)]),
        tree([(20, 0), (8, 5)]),
    )
)


def test_scan_matches_the_two_kind_scan_on_every_shot(monkeypatch):
    """On every engine scan, with both shooters, the single-kind scan gives
    the two-kind scan's 6-tuple. The two differ on a collinear ray alone,
    which reports its far end where the two-kind scan reports nothing or
    its origin, and the test sees such rays. A record is a ray when it is
    not one of the tree records the shooter was built from."""
    trees = {}  # id -> tree record of the running engine's store

    def recording(make):
        def factory(comps, obstacles):
            trees.clear()
            trees.update((id(ob), ob) for ob in obstacles)
            return make(comps, obstacles)

        return factory

    scan = _kernelpy.scan
    seen = {"scans": 0, "ray_differs": 0}

    def checked_scan(ox, oy, tx, ty, obstacles, parent, own_root):
        got = scan(ox, oy, tx, ty, obstacles, parent, own_root)
        old = [two_kind_record(ob, trees.get(id(ob)) is not ob) for ob in obstacles]
        assert got == two_kind_scan(ox, oy, tx, ty, old, parent, own_root)
        seen["scans"] += 1
        for ob, ob_old in zip(obstacles, old):
            if ob_old[0] == OB_RAY and (tx - ox) * ob[3] == (ty - oy) * ob[2]:
                a = scan(ox, oy, tx, ty, [ob], parent, -1)
                seen["ray_differs"] += a != two_kind_scan(ox, oy, tx, ty, [ob_old], parent, -1)
        return got

    monkeypatch.setattr(_kernelpy, "scan", checked_scan)
    rng = random.Random(17)
    instances = [
        build(kind, 2 + seed % 6, 3 + seed % 4, seed)
        for kind in ("paired-strips", "combs", "nested", "paired-ladder", "arc")
        for seed in range(10)
    ] + [lattice_forest(rng) for _ in range(300)] + [EXTENDED_EDGE]
    for inst in instances:
        base = hull_cover_checked(inst, recording(NaiveRayShooter))
        grid = recording(BucketGridShooter.factory_for(inst))
        assert hull_cover_checked(inst, grid) == base
    assert seen["scans"] > 1000 and seen["ray_differs"] > 0, seen
