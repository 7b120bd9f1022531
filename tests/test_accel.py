"""The accelerated structures must be observationally identical to the
baselines: same hits (including tie-breaks), same covers, same stats."""

import random

import pytest

from treecover import _kernelpy
from treecover.accel import GridSegmentRangeIndex
from treecover.boxcover import LinearSegmentRangeIndex, box_cover_fast
from treecover.geom import AABB
from treecover.hullcover import (
    BucketGridShooter,
    ComponentSet,
    NaiveRayShooter,
    hull_cover_fast,
)
from treecover.model import GeometricTree, Instance, generate
from treecover.phicover import PHI, naive_phi_cover

from instances import INSTANCE_A, INSTANCE_B, INSTANCE_D


def naive_shooter(comps, kern):
    return NaiveRayShooter(comps, kern)


def pair(m, bounds, cell):
    return (
        NaiveRayShooter(ComponentSet(m)),
        BucketGridShooter(ComponentSet(m), _kernelpy, bounds, cell),
    )


def same_hit(a, b):
    if a is None:
        return b is None
    return b is not None and (a.t, a.point, a.obstacle) == (b.t, b.point, b.obstacle)


# bounds smaller than the coordinate range put obstacles and origins in the
# clamped border cells; (1, 1) and (1000, 1000) are the extreme cell sizes
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
        for _ in range(rng.randint(0, 18)):
            x1, y1 = rng.randint(-35, 35), rng.randint(-35, 35)
            owner = rng.randrange(m)
            if rng.random() < 0.2:
                naive.insert_point((x1, y1), owner)
                grid.insert_point((x1, y1), owner)
            else:
                while True:
                    x2, y2 = rng.randint(-35, 35), rng.randint(-35, 35)
                    if (x2, y2) != (x1, y1):
                        break
                naive.insert_segment((x1, y1), (x2, y2), owner)
                grid.insert_segment((x1, y1), (x2, y2), owner)
        for _ in range(14):
            ox, oy = rng.randint(-35, 35), rng.randint(-35, 35)
            while True:
                tx, ty = rng.randint(-35, 35), rng.randint(-35, 35)
                if (tx, ty) != (ox, oy):
                    break
            if rng.random() < 0.5:
                ha = naive.shoot((ox, oy), (tx, ty), owner=0)
                hb = grid.shoot((ox, oy), (tx, ty), owner=0)
                assert same_hit(ha, hb)
            else:
                own = rng.randrange(m)
                aa, am = naive.shoot_from((ox, oy), (tx, ty), own)
                ba, bm = grid.shoot_from((ox, oy), (tx, ty), own)
                assert same_hit(aa, ba)
                assert same_hit(am, bm)


def test_grid_shoot_hits_beyond_through():
    naive, grid = pair(2, AABB(0, 0, 40, 40), (2, 2))
    for s in (naive, grid):
        s.insert_segment((30, -5), (30, 5), 1)
    ha = naive.shoot((0, 0), (1, 0))
    hb = grid.shoot((0, 0), (1, 0))
    assert ha.t == 30 and same_hit(ha, hb)
    # the inserted ray [origin, hit] is an obstacle of both stores
    ha = naive.shoot((10, 5), (10, -5))
    hb = grid.shoot((10, 5), (10, -5))
    assert ha.obstacle == 1 and same_hit(ha, hb)


def test_grid_shoot_from_falls_back_past_an_empty_chord():
    naive, grid = pair(2, AABB(0, 0, 40, 40), (2, 2))
    for s in (naive, grid):
        s.insert_segment((20, -5), (20, 5), 1)
        s.insert_point((3, 30), 0)
    aa, am = naive.shoot_from((0, 0), (4, 0), 0)
    ba, bm = grid.shoot_from((0, 0), (4, 0), 0)
    assert aa.t == 5 and same_hit(aa, ba)
    assert am is None and bm is None
    # nothing on the whole ray: both escape and insert nothing
    assert naive.shoot_from((0, 0), (0, -1), 0) == grid.shoot_from((0, 0), (0, -1), 0)
    assert naive.shoot((0, 0), (-1, -1)) is None
    assert grid.shoot((0, 0), (-1, -1)) is None
    assert len(grid) == len(naive) == 3


def test_grid_equal_t_hits_keep_the_lowest_id():
    # three obstacles meet the shot at (10, 0); their ids 3, 40, 41 are not
    # in the order a set of them iterates in
    naive, grid = pair(3, AABB(0, -40, 80, 40), (3, 3))
    for s in (naive, grid):
        for k in range(40):
            if k == 3:
                s.insert_point((10, 0), 2)
            else:
                s.insert_point((70, k), 0)  # filler far from the shot
        s.insert_segment((4, -3), (16, 3), 1)
        s.insert_segment((10, 0), (10, 25), 1)
    for own in (0, 1, 2):
        aa, am = naive.shoot_from((0, 0), (20, 0), own)
        ba, bm = grid.shoot_from((0, 0), (20, 0), own)
        assert same_hit(aa, ba) and same_hit(am, bm)
        assert ba.obstacle == 3 and bm.obstacle == (40 if own == 2 else 3)


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
    base = hull_cover_fast(inst, shooter_factory=naive_shooter)
    assert hull_cover_fast(inst) == base
    oracle, _ = naive_phi_cover(inst, PHI["hull"])
    assert base[0].canonical() == oracle.canonical()


def test_grid_engine_on_empty_forest():
    empty = Instance(())
    assert hull_cover_fast(empty) == hull_cover_fast(empty, shooter_factory=naive_shooter)


def test_grid_engine_scans_only_chord_candidates():
    """The grid shooter must hand the kernel far fewer obstacles than the
    linear scan does on a forest of many separate regions."""

    class CountingKernel:
        def __init__(self):
            self.scanned = 0

        def scan(self, *args):
            self.scanned += len(args[4])  # the ``kinds`` column
            return _kernelpy.scan(*args)

    inst = generate("strips", trees=60, size=5, seed=3)
    counts = []
    for make in (naive_shooter, BucketGridShooter.factory_for(inst)):
        kern = CountingKernel()
        hull_cover_fast(inst, shooter_factory=lambda c, k: make(c, kern))
        counts.append(kern.scanned)
    assert counts[1] * 10 < counts[0], counts


def test_grid_engine_matches_baseline_engine():
    for kind in ("strips", "combs", "nested", "ladder"):
        for seed in range(12):
            inst = generate(kind, trees=2 + seed % 5, size=3 + seed % 4, seed=seed)
            base_cover, base_stats = hull_cover_fast(
                inst, shooter_factory=naive_shooter
            )
            grid_cover, grid_stats = hull_cover_fast(inst)
            assert grid_cover == base_cover, (kind, seed)
            assert grid_stats == base_stats, (kind, seed)


def test_grid_engine_on_fixture_instances():
    for inst in (INSTANCE_A, INSTANCE_B, INSTANCE_D):
        base_cover, base_stats = hull_cover_fast(inst, shooter_factory=naive_shooter)
        grid_cover, grid_stats = hull_cover_fast(inst)
        assert grid_cover == base_cover
        assert grid_stats == base_stats


def test_grid_range_index_matches_linear():
    rng = random.Random(9)
    for trial in range(40):
        linear = LinearSegmentRangeIndex()
        grid = GridSegmentRangeIndex(bounds=AABB(-50, -50, 50, 50), cell=rng.choice([1, 4, 9]))
        live = {}
        next_id = 0
        for _ in range(60):
            op = rng.random()
            if op < 0.45 or not live:
                x1, y1 = rng.randint(-45, 45), rng.randint(-45, 45)
                x2, y2 = rng.randint(-45, 45), rng.randint(-45, 45)
                box = AABB(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
                linear.insert_box(next_id, box)
                grid.insert_box(next_id, box)
                live[next_id] = box
                next_id += 1
            elif op < 0.65:
                bid = rng.choice(sorted(live))
                linear.delete_box(bid)
                grid.delete_box(bid)
                del live[bid]
            else:
                x1, y1 = rng.randint(-60, 60), rng.randint(-60, 60)
                x2, y2 = rng.randint(-60, 60), rng.randint(-60, 60)
                rect = AABB(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
                assert linear.query(rect) == grid.query(rect), trial


def test_grid_box_engine_matches_baseline():
    for kind in ("strips", "combs", "nested"):
        for seed in range(12):
            inst = generate(kind, trees=2 + seed % 5, size=3 + seed % 4, seed=seed)
            base_cover, base_stats = box_cover_fast(inst)
            grid_cover, grid_stats = box_cover_fast(
                inst, index_factory=GridSegmentRangeIndex.factory_for(inst)
            )
            assert grid_cover == base_cover, (kind, seed)
            assert grid_stats == base_stats, (kind, seed)


def test_grid_shooter_oracle_equivalence():
    for seed in range(10):
        inst = generate("combs", trees=6, size=4, seed=100 + seed)
        cover, _ = hull_cover_fast(inst)
        oracle, _ = naive_phi_cover(inst, PHI["hull"])
        assert cover.canonical() == oracle.canonical()
