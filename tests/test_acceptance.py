"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the default pytest run.
"""

import gc
import math
import subprocess
import sys
import time

import pytest

from treecover.boxcover import box_cover_fast
from treecover.generators import generate
from treecover.geom import convex_hull
from treecover.hullcover import hull_cover_fast
from treecover.model import serialize_instance, validate_instance
from treecover.phicover import (
    PHI,
    MergePolicy,
    check_phi_properties,
    check_well_defined,
    naive_phi_cover,
)

from box_checks import CountingRangeIndex, assert_inserted_and_deleted_at_most_once
from childenv import child_env
from hull_checks import boundary_intersection_points
from instances import BOX_INDEX_KINDS, build

KINDS = ("strips", "combs", "nested")


def corpus_params(count=1000):
    """Deterministic mixed corpus: kinds cycled, m in 2..10, n up to 200."""
    out = []
    for i in range(count):
        kind = KINDS[i % 3]
        m = 2 + (i * 7) % 9
        size = 3 + (i * 5) % 18
        size = min(size, max(3, 200 // m))
        out.append((kind, m, size, i))
    return out


@pytest.fixture(scope="module")
def corpus():
    return [generate(k, trees=m, size=s, seed=seed) for k, m, s, seed in corpus_params()]


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Fast engine runs (default shooter, and the default range index
    counting its writes) over the whole corpus, with the wall time of each
    family, plus the naive covers for comparison."""
    t0 = time.perf_counter()
    hull_fast = [hull_cover_fast(inst) for inst in corpus]
    hull_naive = [naive_phi_cover(inst, PHI["hull"])[0] for inst in corpus]
    hull_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexes = [CountingRangeIndex() for _ in corpus]
    box_fast = [
        box_cover_fast(inst, index_factory=lambda idx=idx: idx)
        for inst, idx in zip(corpus, indexes)
    ]
    box_naive = [naive_phi_cover(inst, PHI["box"])[0] for inst in corpus]
    box_seconds = time.perf_counter() - t0
    return {
        "hull_fast": hull_fast,
        "hull_naive": hull_naive,
        "hull_seconds": hull_seconds,
        "box_fast": box_fast,
        "box_naive": box_naive,
        "box_indexes": indexes,
        "box_seconds": box_seconds,
    }


def test_criterion_1_hull_oracle_equivalence(corpus, corpus_results):
    mismatches = 0
    for inst, (cover, _), oracle in zip(
        corpus, corpus_results["hull_fast"], corpus_results["hull_naive"]
    ):
        if cover.canonical() != oracle.canonical():
            mismatches += 1
    seconds = corpus_results["hull_seconds"]
    assert mismatches == 0
    assert seconds < 60.0, f"hull runs took {seconds:.1f}s"
    print(
        f"ACCEPTANCE 1 PASS: hull fast == naive on {len(corpus)} instances "
        f"(exact, {seconds:.1f}s)"
    )


def test_criterion_2_box_oracle_equivalence(corpus, corpus_results):
    mismatches = 0
    for inst, (cover, _), oracle in zip(
        corpus, corpus_results["box_fast"], corpus_results["box_naive"]
    ):
        if cover.canonical() != oracle.canonical():
            mismatches += 1
    seconds = corpus_results["box_seconds"]
    assert mismatches == 0
    assert seconds < 30.0, f"box runs took {seconds:.1f}s"
    print(
        f"ACCEPTANCE 2 PASS: box fast == naive on {len(corpus)} instances "
        f"(exact, {seconds:.1f}s)"
    )


def test_criterion_3_well_definedness(corpus):
    checked = 0
    for inst in corpus[:200]:
        for phi_name in ("hull", "box"):
            phi = PHI[phi_name]
            base, _ = naive_phi_cover(inst, phi)
            for pseed in range(20):
                cover, _ = naive_phi_cover(inst, phi, MergePolicy.random_order(pseed))
                assert cover.canonical() == base.canonical(), (phi_name, checked, pseed)
        checked += 1
    print(
        f"ACCEPTANCE 3 PASS: {checked} instances x 20 policies, hull and box "
        "covers identical (zero tolerance)"
    )


def test_criterion_4_mincircle_not_well_defined():
    inst = generate("mincircle-gadget")
    verdict = check_well_defined(inst, PHI["mincircle"], exhaustive=True)
    assert not verdict.well_defined
    assert verdict.witness is not None
    w = verdict.witness
    assert w.cover_a.canonical() != w.cover_b.canonical()
    print(
        "ACCEPTANCE 4 PASS: mincircle gadget yields distinct covers under "
        f"exhaustive merge orders (witness with {len(w.cover_a.regions)} vs "
        f"{len(w.cover_b.regions)} regions)"
    )


def test_criterion_5_property_suite():
    for phi_name in ("hull", "box"):
        report = check_phi_properties(PHI[phi_name], samples=1000, seed=0)
        assert report.property1_ok, (phi_name, report.property1_witness)
        assert report.property2_ok, (phi_name, report.property2_witness)
        assert report.samples == 1000
    b = [(1, 0), (-1, 0)]
    a = [(0, 1), (1, 0)]
    report = check_phi_properties(
        PHI["mincircle"], samples=100, seed=0, pair_samples=[(b, a)]
    )
    assert not report.property2_ok
    _, _, rb, ra = report.property2_witness
    reach = math.dist((rb.cx, rb.cy), (ra.cx, ra.cy)) + ra.r
    assert abs(reach - math.sqrt(2)) < 1e-6
    assert abs(rb.r - 1.0) < 1e-6
    assert reach > rb.r + 1e-6
    print(
        "ACCEPTANCE 5 PASS: properties 1 and 2 hold for hull and box on 1000 "
        "samples; mincircle property 2 fails with the sqrt(2)-vs-1 witness"
    )


def test_criterion_6_boundary_crossings_at_most_two(corpus):
    checked = 0
    violations = 0
    for inst in corpus:
        hulls = [convex_hull(t.vertices) for t in inst.trees]
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                points, overlap = boundary_intersection_points(hulls[i], hulls[j])
                if len(points) > 2 or overlap:
                    violations += 1
                checked += 1
                if checked >= 1000:
                    break
            if checked >= 1000:
                break
        if checked >= 1000:
            break
    assert checked >= 1000
    assert violations == 0
    print(
        f"ACCEPTANCE 6 PASS: {checked} disjoint-tree hull pairs, boundary "
        "crossings <= 2 everywhere"
    )


def test_criterion_7_ray_and_merge_budget(corpus, corpus_results):
    for inst, (_, stats) in zip(corpus, corpus_results["hull_fast"]):
        assert stats.merges <= inst.m - 1
        assert stats.rays_shot <= stats.initial_edges + 2 * stats.merges + inst.m
    print(
        f"ACCEPTANCE 7 PASS: merges <= m-1 and rays_shot <= "
        f"initial_edges + 2*merges + m on all {len(corpus)} instances"
    )


def test_criterion_8_insert_delete_discipline(corpus, corpus_results):
    for index in corpus_results["box_indexes"]:
        assert_inserted_and_deleted_at_most_once(index)
    print(
        f"ACCEPTANCE 8 PASS: every box id inserted and deleted at most once "
        f"across {len(corpus)} instances"
    )


def _run_cli(args, cwd, hash_seed):
    proc = subprocess.run(
        [sys.executable, "-m", "treecover", *args],
        capture_output=True,
        cwd=cwd,
        env=child_env(PYTHONHASHSEED=hash_seed),
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_criterion_9_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst = generate("combs", trees=5, size=5, seed=13)
    inst_path.write_text(serialize_instance(inst))

    def produce(tag, hash_seed):
        cover = tmp_path / f"cover_{tag}.json"
        stats = tmp_path / f"stats_{tag}.json"
        svg = tmp_path / f"out_{tag}.svg"
        csv = tmp_path / f"bench_{tag}.csv"
        naive = tmp_path / f"naive_{tag}.json"
        _run_cli(
            ["cover", "--phi", "hull", "--algo", "fast", "--input", str(inst_path),
             "--output", str(cover), "--stats", str(stats), "--emit-trace",
             "--seed", "5"],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["cover", "--phi", "box", "--algo", "naive", "--input", str(inst_path),
             "--output", str(naive), "--seed", "5"],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["render", "--input", str(inst_path), "--cover", str(cover),
             "--output", str(svg)],
            tmp_path,
            hash_seed,
        )
        _run_cli(
            ["bench", "--phi", "hull", "--kinds", "strips", "--sizes", "12,20",
             "--seed", "3", "--output", str(csv)],
            tmp_path,
            hash_seed,
        )
        rows = [r.split(",") for r in csv.read_text().strip().splitlines()]
        masked = [r[:3] + r[4:] for r in rows]  # drop the wall_ms column
        return (
            cover.read_bytes(),
            stats.read_bytes(),
            naive.read_bytes(),
            svg.read_bytes(),
            masked,
        )

    # Two different explicit hash seeds, so a seed pinned in the parent's
    # environment cannot hide hash-order nondeterminism.
    first = produce("a", "1")
    second = produce("b", "2")
    assert first == second
    print(
        "ACCEPTANCE 9 PASS: repeated runs byte-identical for cover/stats/SVG "
        "and identical CSV modulo the wall-clock column"
    )


def _call_time(fn, inst):
    """(wall time of one call of fn on inst, its result). The cyclic
    collector is paused during the call, as ``treecover cover`` pauses it:
    a full collection walks the whole test session's heap, and it ran
    during the larger instance's calls but rarely during the smaller's,
    which added up to a factor of 2 to the growth of the hull engine on
    strips."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn(inst)
        return time.perf_counter() - t0, result
    finally:
        if enabled:
            gc.enable()


def _growth(fn, small, big):
    """(fn's time growth from instance small to big, the last result on
    small). The host's speed swings by about 1.6x for seconds at a time, so
    a ratio of times taken seconds apart can straddle a swing. Each round
    times small as the best of calls adding up to 0.1 s, at least two, and
    then big once, back to back; the growth is the lowest round ratio, over
    at least two rounds and until big's calls add up to 0.2 s."""
    rounds = []
    spent = 0.0
    while len(rounds) < 2 or spent < 0.2:
        best = math.inf
        total = 0.0
        calls = 0
        while calls < 2 or total < 0.1:
            t, result = _call_time(fn, small)
            best = min(best, t)
            total += t
            calls += 1
        t, _ = _call_time(fn, big)
        spent += t
        rounds.append(t / best)
    return min(rounds), result


def test_criterion_10_scaling_subquadratic():
    # combs collapses to one region; strips keeps every tree its own region,
    # so extraction sees m components there; ladder's rungs all overlap in
    # x, so the validator and the nesting sweep must sweep y there; arc
    # (3 vertices per tree) merges into one hull that keeps about m / 3
    # vertices, so a merge that rebuilt both hulls would go quadratic.
    ladders = (
        ("combs", (1000, 10_000, 100_000)),
        ("strips", (1000, 10_000)),
        ("ladder", (1000, 10_000)),
        ("arc", (1000, 10_000)),
    )
    ratios = []
    report = []
    for kind, sizes in ladders:
        if kind == "arc":
            insts = [generate(kind, trees=n // 3) for n in sizes]
        else:
            insts = [generate(kind, trees=n // 5, size=5, seed=0) for n in sizes]
        growth = {}
        # default shooter and range index
        for phase, fn in (
            ("validate", validate_instance),
            ("hull", hull_cover_fast),
            ("box", box_cover_fast),
        ):
            rungs = [_growth(fn, small, big) for small, big in zip(insts, insts[1:])]
            growth[phase] = [r for r, _ in rungs]
            if phase != "validate":
                # spot-check correctness at the smallest rung
                oracle, _ = naive_phi_cover(insts[0], PHI[phase])
                assert rungs[0][1][0].canonical() == oracle.canonical()
        ratios += [r for rs in growth.values() for r in rs]
        report.append(
            f"{kind} "
            + ", ".join(f"{p} {['%.1f' % r for r in rs]}" for p, rs in growth.items())
        )
    assert all(r < 25 for r in ratios), (report, ratios)
    print(
        "ACCEPTANCE 10 PASS: validator and accelerated engines on combs at "
        "n=1e3/1e4/1e5, strips, ladder and arc at n=1e3/1e4, growth ratios "
        f"{'; '.join(report)}, all < 25"
    )


def test_criterion_10_box_index_scaling_subquadratic():
    # every tree of these families is alone, but each query rectangle spans
    # many cells of another family's grid: a range index that walks the
    # query's cells, or every occupied cell of a grid, goes quadratic
    growth = {
        kind: _growth(box_cover_fast, build(kind, 1000), build(kind, 10_000))[0]
        for kind in BOX_INDEX_KINDS
    }
    report = ", ".join(f"{kind} {r:.1f}" for kind, r in growth.items())
    assert all(r < 25 for r in growth.values()), report
    print(
        "ACCEPTANCE 10 (box index) PASS: box engine growth from 1e3 to 1e4 "
        f"trees: {report}, all < 25"
    )
