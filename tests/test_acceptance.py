"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is part of the default pytest run.
"""

import math
import subprocess
import sys
import time

import pytest

from treecover.boxcover import BucketGridRangeIndex, box_cover_fast
from treecover.generators import generate
from treecover.geom import boundary_intersection_points
from treecover.hullcover import hull_cover_fast
from treecover.model import serialize_instance, validate_instance
from treecover.phicover import (
    PHI,
    MergePolicy,
    check_phi_properties,
    check_well_defined,
    naive_phi_cover,
)

from childenv import child_env

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
    """Fast engine runs (default shooter and range index) over the whole
    corpus, with the wall time of each family, plus the naive covers for
    comparison."""
    t0 = time.perf_counter()
    hull_fast = [hull_cover_fast(inst) for inst in corpus]
    hull_naive = [naive_phi_cover(inst, PHI["hull"])[0] for inst in corpus]
    hull_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexes = [BucketGridRangeIndex() for _ in corpus]
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
        hulls = inst.tree_hulls()
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                res = boundary_intersection_points(hulls[i], hulls[j])
                if len(res.points) > 2 or res.overlap:
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
        assert all(c == 1 for c in index.insert_count.values())
        assert all(c == 1 for c in index.delete_count.values())
        assert set(index.delete_count) <= set(index.insert_count)
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


def _best_of_two(fn, *args, **kwargs):
    """(fastest wall time of two calls, the last call's result)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_10_scaling_subquadratic():
    # combs collapses to one region; strips keeps every tree its own region,
    # so extraction sees m components there; ladder's rungs all overlap in
    # x, so the validator and the nesting sweep must sweep y there.
    ladders = (
        ("combs", (1000, 10_000, 100_000)),
        ("strips", (1000, 10_000)),
        ("ladder", (1000, 10_000)),
    )
    ratios = []
    report = []
    for kind, sizes in ladders:
        times = {phase: [] for phase in ("validate", "hull", "box")}
        for n in sizes:
            inst = generate(kind, trees=n // 5, size=5, seed=0)
            t, _ = _best_of_two(validate_instance, inst)
            times["validate"].append(t)
            # default shooter and range index
            t, (cover, _) = _best_of_two(hull_cover_fast, inst)
            times["hull"].append(t)
            t, (bcover, _) = _best_of_two(box_cover_fast, inst)
            times["box"].append(t)
            if n == 1000:
                # spot-check correctness at the smallest rung
                oracle, _ = naive_phi_cover(inst, PHI["hull"])
                assert cover.canonical() == oracle.canonical()
                boracle, _ = naive_phi_cover(inst, PHI["box"])
                assert bcover.canonical() == boracle.canonical()

        for series in times.values():
            ratios += [big / small for small, big in zip(series, series[1:])]
        report.append(
            f"{kind} "
            + ", ".join(f"{p} {['%.2fs' % t for t in ts]}" for p, ts in times.items())
        )
    assert all(r < 25 for r in ratios), (report, ratios)
    print(
        "ACCEPTANCE 10 PASS: validator and accelerated engines on combs at "
        "n=1e3/1e4/1e5, strips and ladder at n=1e3/1e4, "
        f"{'; '.join(report)}, "
        f"growth ratios {['%.1f' % r for r in ratios]} all < 25"
    )
