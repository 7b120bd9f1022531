"""The shared nesting routine against a brute-force pairwise oracle.

``maximal_regions`` and ``maximal_boxes`` both run ``geom.outermost``; the
oracle below is the pairwise definition: a region is maximal when no other
region contains it, and its home is the unique maximal region containing
it.
"""

import random

import pytest

from treecover import geom
from treecover.boxcover import box_cover_fast, maximal_boxes
from treecover.cli import main
from treecover.generators import generate
from treecover.geom import AABB, ConvexPolygon, convex_hull, sweep_along_y
from treecover.hullcover import (
    NaiveRayShooter,
    contained_in,
    hull_cover_fast,
    maximal_regions,
)
from treecover.model import (
    GeometricTree,
    Instance,
    errors_only,
    serialize_instance,
    validate_instance,
)
from treecover.phicover import PHI, naive_phi_cover


def pairwise_homes(regions, contains):
    k = len(regions)
    maximal = [
        i
        for i in range(k)
        if not any(j != i and contains(regions[i], regions[j]) for j in range(k))
    ]
    homes = []
    for i in range(k):
        if i in maximal:
            homes.append(i)
            continue
        found = [j for j in maximal if contains(regions[i], regions[j])]
        if len(found) != 1:
            raise AssertionError(f"region {i} lies in {len(found)} maximal regions")
        homes.append(found[0])
    return homes


def strictly_inside(inner: AABB, outer: AABB) -> bool:
    return outer.strictly_contains_box(inner)


def laminar_boxes(rng, x0, y0, x1, y1, depth):
    """Random boxes in the open rectangle: disjoint siblings side by side,
    each with its children inside its own central half."""
    out = []
    if depth == 0 or x1 - x0 < 16 or y1 - y0 < 16:
        return out
    n = rng.randrange(1, 4)
    vertical = rng.random() < 0.5
    lo, hi = (x0, x1) if vertical else (y0, y1)
    cuts = sorted(rng.sample(range(lo + 1, hi), n - 1)) if hi - lo > n else []
    for a, b in zip([lo] + cuts, cuts + [hi]):
        if b - a < 8:
            continue
        s0 = rng.randrange(a + 1, a + (b - a) // 4 + 2)
        s1 = rng.randrange(b - (b - a) // 4 - 1, b)
        t_lo, t_hi = (y0, y1) if vertical else (x0, x1)
        t0 = rng.randrange(t_lo + 1, t_lo + (t_hi - t_lo) // 4 + 2)
        t1 = rng.randrange(t_hi - (t_hi - t_lo) // 4 - 1, t_hi)
        box = AABB(s0, t0, s1, t1) if vertical else AABB(t0, s0, t1, s1)
        out.append(box)
        w, h = box.xmax - box.xmin, box.ymax - box.ymin
        out += laminar_boxes(
            rng,
            box.xmin + w // 4,
            box.ymin + h // 4,
            box.xmax - w // 4,
            box.ymax - h // 4,
            depth - 1,
        )
    return out


def polygon_in(rng, box: AABB) -> ConvexPolygon:
    """A convex polygon with the box as its bounding box (corners cut by
    under a quarter of each side, so it holds the box's central half), or
    a point or segment in the central half."""
    w, h = box.xmax - box.xmin, box.ymax - box.ymin
    shape = rng.random()
    if shape < 0.1:
        return ConvexPolygon(((box.xmin + w // 2, box.ymin + h // 2),))
    if shape < 0.2:
        a = (box.xmin + w // 4, box.ymin + h // 4)
        return convex_hull([a, (box.xmax - w // 4, box.ymax - h // 4)])
    pts = []
    for cx, cy, sx, sy in (
        (box.xmin, box.ymin, 1, 1),
        (box.xmax, box.ymin, -1, 1),
        (box.xmax, box.ymax, -1, -1),
        (box.xmin, box.ymax, 1, -1),
    ):
        a, b = rng.randrange(0, w // 4), rng.randrange(0, h // 4)
        pts += [(cx + sx * a, cy), (cx, cy + sy * b)]
    return convex_hull(pts)


def family(seed):
    rng = random.Random(seed)
    boxes = laminar_boxes(rng, 0, 0, 10**6, 10**6, depth=4)
    rng.shuffle(boxes)
    return rng, boxes


def stacked_family(seed):
    """Eight wide flat boxes stacked in y, each around a laminar family in
    its central half, shuffled: shallow in y, so the sweep runs along y."""
    rng = random.Random(("stacked", seed).__repr__())
    boxes = []
    for k in range(8):
        y0 = k * 100_000
        boxes.append(AABB(1, y0 + 1, 10**6 - 1, y0 + 99_999))
        boxes += laminar_boxes(rng, 250_000, y0 + 25_000, 750_000, y0 + 75_000, depth=3)
    rng.shuffle(boxes)
    return rng, boxes


def flat_rungs(count=6):
    """Wide flat boxes stacked in y above everything else in a test; they
    make y the shallow axis of the boxes they join."""
    return [AABB(-100, 100 + 10 * k, 10**4, 105 + 10 * k) for k in range(count)]


def along_y(boxes):
    return sweep_along_y(
        [b.xmin for b in boxes],
        [b.ymin for b in boxes],
        [b.xmax for b in boxes],
        [b.ymax for b in boxes],
    )


def test_families_take_both_axes():
    # the mixed families split about evenly between the two axes
    assert 10 <= sum(along_y(family(seed)[1]) for seed in range(40)) <= 30
    assert all(along_y(stacked_family(seed)[1]) for seed in range(40))


@pytest.mark.parametrize("seed", range(40))
def test_maximal_boxes_matches_pairwise_oracle(seed):
    _, boxes = family(seed)
    assert maximal_boxes(boxes) == pairwise_homes(boxes, strictly_inside)


@pytest.mark.parametrize("seed", range(40))
def test_maximal_regions_matches_pairwise_oracle(seed):
    rng, boxes = family(seed)
    polygons = [polygon_in(rng, b) for b in boxes]
    assert maximal_regions(polygons) == pairwise_homes(polygons, contained_in)


@pytest.mark.parametrize("seed", range(20))
def test_maximal_boxes_stacked_in_y_match_pairwise_oracle(seed):
    _, boxes = stacked_family(seed)
    assert maximal_boxes(boxes) == pairwise_homes(boxes, strictly_inside)


@pytest.mark.parametrize("seed", range(20))
def test_maximal_regions_stacked_in_y_match_pairwise_oracle(seed):
    rng, boxes = stacked_family(seed)
    polygons = [polygon_in(rng, b) for b in boxes]
    assert maximal_regions(polygons) == pairwise_homes(polygons, contained_in)


@pytest.mark.parametrize("make", [family, stacked_family])
def test_forced_axis_gives_the_same_homes(make, monkeypatch):
    for seed in range(10):
        rng, boxes = make(seed)
        polygons = [polygon_in(rng, b) for b in boxes]
        results = []
        for y in (False, True):
            monkeypatch.setattr(geom, "sweep_along_y", lambda *cols, y=y: y)
            results.append((maximal_boxes(boxes), maximal_regions(polygons)))
        assert results[0] == results[1]


def test_families_list_regions_before_their_containers():
    # the shuffled families must exercise the sort, not just the sweep
    for make in (family, stacked_family):
        shuffled = 0
        for seed in range(40):
            homes = pairwise_homes(make(seed)[1], strictly_inside)
            shuffled += any(h > i for i, h in enumerate(homes))
        assert shuffled >= 30


def test_three_level_nesting_innermost_first():
    boxes = [AABB(5, 5, 15, 15), AABB(2, 2, 18, 18), AABB(0, 0, 20, 20)]
    assert maximal_boxes(boxes) == [2, 2, 2]
    polygons = [ConvexPolygon(b.corners()) for b in boxes]
    assert maximal_regions(polygons) == [2, 2, 2]


def test_regions_sharing_box_sides_with_their_container():
    # each triangle touches the square from inside and shares its xmin;
    # the first also shares xmax and ymin, the second xmax, so only the
    # full sort key puts the square first; the point on the square's right
    # edge starts where the square ends. Transposed, the same holds with x
    # and y swapped, and the sweep runs along y.
    square = ConvexPolygon(((0, 0), (10, 0), (10, 10), (0, 10)))
    regions = [
        ConvexPolygon(((0, 0), (10, 0), (5, 3))),
        ConvexPolygon(((0, 4), (10, 4), (5, 6))),
        ConvexPolygon(((0, 7), (3, 7), (1, 9))),
        ConvexPolygon(((20, 0), (22, 0), (21, 1))),
        ConvexPolygon(((10, 5),)),
        square,
    ]
    transposed = [convex_hull([(y, x) for x, y in r.vertices]) for r in regions]
    for flip, case in ((False, regions), (True, transposed)):
        assert along_y([r.bbox() for r in case]) == flip
        assert pairwise_homes(case, contained_in) == [5, 5, 5, 3, 5, 5]
        assert maximal_regions(case) == [5, 5, 5, 3, 5, 5]


def test_box_in_two_overlapping_boxes_raises():
    # alone, the three boxes sweep x; with the flat rungs, y
    for rungs in (0, 6):
        boxes = [AABB(6, 1, 9, 4), AABB(0, 0, 10, 10), AABB(5, -5, 15, 5)]
        boxes += flat_rungs(rungs)
        assert along_y(boxes) == (rungs > 0)
        with pytest.raises(AssertionError):
            pairwise_homes(boxes, strictly_inside)
        with pytest.raises(AssertionError, match="lies in 2 outermost regions"):
            maximal_boxes(boxes)


def test_equal_bounding_boxes_raise():
    square = ConvexPolygon(((0, 0), (4, 0), (4, 4), (0, 4)))
    diamond = ConvexPolygon(((0, 2), (2, 0), (4, 2), (2, 4)))
    for rungs in (0, 6):
        extra = flat_rungs(rungs)
        boxes = [AABB(0, 0, 4, 4), AABB(0, 0, 4, 4)] + extra
        assert along_y(boxes) == (rungs > 0)
        with pytest.raises(AssertionError, match="share a bounding box"):
            maximal_boxes(boxes)
        with pytest.raises(AssertionError, match="share a bounding box"):
            maximal_regions([diamond, square] + [ConvexPolygon(b.corners()) for b in extra])


def test_cli_reports_region_in_two_outermost_hulls_as_internal_error(
    tmp_path, monkeypatch, capsys
):
    # a shooter that stops every ray on an own obstacle and never merges
    # leaves the overlapping hulls of the two paths apart, both around the
    # point tree
    inst = Instance(
        (
            GeometricTree(((0, 0), (100, 0), (100, 100)), ((0, 1), (1, 2))),
            GeometricTree(((20, 10), (20, 200), (200, 200)), ((0, 1), (1, 2))),
            GeometricTree(((80, 76),), ()),
        )
    )
    assert errors_only(validate_instance(inst)) == []
    inp = tmp_path / "in.json"
    inp.write_text(serialize_instance(inst))

    def own_hit(self, origin, through, own_root):
        return (0, 1, 1), None

    monkeypatch.setattr(NaiveRayShooter, "shoot_from", own_hit)
    out = tmp_path / "c.json"
    argv = ["cover", "--phi", "hull", "--input", str(inp), "--output", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "internal invariant breach" in err
    assert "lies in 2 outermost regions" in err


def test_sixty_nested_rings_fold_into_one_region():
    inst = generate("nested", trees=60, size=8, seed=0)
    assert inst.m == 60
    assert errors_only(validate_instance(inst)) == []
    for phi, fast in (("hull", hull_cover_fast), ("box", box_cover_fast)):
        cover, _ = fast(inst)
        oracle, _ = naive_phi_cover(inst, PHI[phi])
        assert cover.canonical() == oracle.canonical()
        assert len(cover.regions) == 1
