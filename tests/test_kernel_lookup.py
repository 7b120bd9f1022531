"""The engines and the validator look their kernel batches up on
``treecover._kernelpy`` at each call, the box engine's range index reaches
the methods of ``LinearSegmentRangeIndex`` itself, and the hull engine's
shooter reaches ``NaiveRayShooter.shoot_from``.

perfbench's tracer times and counts them by patching ``scan``,
``find_contacts``, ``find_vertex_hits`` and ``seg_relation`` on that module,
``query``, ``insert_box`` and ``delete_box`` on that class, ``shoot_from``
on ``NaiveRayShooter``, and ``merge_convex_hulls`` on ``hullcover``, which
the hull engine calls once per merge. A caller that bound a kernel function
or ``merge_convex_hulls`` at import, or a range index or shooter that
overrode one of those methods, would bypass the patch, and the tracer's
``kernel.*``, ``box.*``, ``hull.shots`` and ``hull.merge*`` metrics would
read zero without any error. The same holds for the extraction and output
names it patches: ``maximal_regions`` and ``contained_in`` on ``hullcover``
and ``Cover.build`` on ``model``. It also patches ``maximal_boxes`` on
``boxcover``, which no cover run reaches: the box engine's boxes end
pairwise disjoint, with nothing left to extract.
"""

import json
from collections import Counter

import pytest

from treecover import _kernelpy, boxcover, geom, hullcover, model
from treecover.cli import main
from treecover.generators import generate
from treecover.model import serialize_instance

from instances import INSTANCE_A

HOOKS = ("scan", "find_contacts", "find_vertex_hits", "seg_relation")
INDEX_HOOKS = ("query", "insert_box", "delete_box")


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for name in HOOKS:
        fn = getattr(_kernelpy, name)

        def counting(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(_kernelpy, name, counting)
    return counts


@pytest.mark.parametrize(
    "phi, reached",
    [("hull", HOOKS), ("box", ("find_contacts", "find_vertex_hits", "seg_relation"))],
    ids=["hull", "box"],
)
def test_cli_cover_reaches_the_patched_kernel(phi, reached, calls, tmp_path):
    # combs reach every hook but seg_relation, since find_contacts decides
    # their candidate pairs, two edges of one tree at a shared end, itself;
    # the rings of nested trees reach seg_relation too
    inputs = (("combs", [n for n in reached if n != "seg_relation"]), ("nested", reached))
    inp, out = tmp_path / "in.json", tmp_path / "cover.json"
    for kind, names in inputs:
        calls.clear()
        inp.write_text(serialize_instance(generate(kind, trees=4, size=4, seed=1)))
        assert main(["cover", "--phi", phi, "--input", str(inp), "--output", str(out)]) == 0
        for name in names:
            assert calls[name] > 0, (phi, kind, name, dict(calls))


def test_validator_decides_shared_end_pairs_without_seg_relation(calls):
    # on these kinds every candidate pair is two edges of one tree at a
    # shared end; nested and diag keep pairs of different trees, which keep
    # perfbench's pair counter reachable
    kinds = [("strips", 20), ("ladder", 20), ("combs", 4), ("arc", 20), ("nested", 20), ("diag", 20)]
    for kind, trees in kinds:
        inst = generate(kind, trees=trees, size=4, seed=1)
        calls.clear()
        assert model.errors_only(model.validate_instance(inst)) == []
        assert calls["find_contacts"] == 1, (kind, dict(calls))
        if kind in ("nested", "diag"):
            assert calls["seg_relation"] > 0, (kind, dict(calls))
        else:
            assert calls["seg_relation"] == 0, (kind, dict(calls))


def test_geometry_predicates_stay_out_of_the_pair_count(calls):
    assert geom.segments_intersect(((0, 0), (2, 2)), ((0, 2), (2, 0))) == geom.CROSSING
    assert calls["seg_relation"] == 0


def test_cli_box_cover_reaches_the_patched_range_index(monkeypatch, tmp_path):
    counts = Counter()
    for name in INDEX_HOOKS:
        fn = getattr(boxcover.LinearSegmentRangeIndex, name)

        def counting(*args, _fn=fn, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(boxcover.LinearSegmentRangeIndex, name, counting)
    inp = tmp_path / "in.json"
    # interlocking combs: their boxes meet, so the engine deletes some
    inp.write_text(serialize_instance(generate("combs", trees=8, size=4, seed=1)))
    out = tmp_path / "cover.json"
    argv = ["cover", "--phi", "box", "--input", str(inp), "--output", str(out)]
    assert main(argv) == 0
    for name in INDEX_HOOKS:
        assert counts[name] > 0, (name, dict(counts))


def test_cli_hull_cover_reaches_the_patched_shooter(monkeypatch, tmp_path):
    assert "shoot_from" not in vars(hullcover.BucketGridShooter)
    shots = []
    fn = hullcover.NaiveRayShooter.shoot_from

    def counting(*args):
        shots.append(args[1:3])
        return fn(*args)

    monkeypatch.setattr(hullcover.NaiveRayShooter, "shoot_from", counting)
    inp = tmp_path / "in.json"
    inp.write_text(serialize_instance(generate("combs", trees=4, size=4, seed=1)))
    out, stats = tmp_path / "cover.json", tmp_path / "stats.json"
    argv = ["cover", "--phi", "hull", "--input", str(inp), "--output", str(out)]
    assert main(argv + ["--stats", str(stats)]) == 0
    assert len(shots) == json.loads(stats.read_text())["rays_shot"] > 0


def test_cli_hull_cover_merges_through_the_patched_hull_merge(monkeypatch, tmp_path):
    merges = [0]
    fn = hullcover.merge_convex_hulls

    def counting(*args):
        merges[0] += 1
        return fn(*args)

    monkeypatch.setattr(hullcover, "merge_convex_hulls", counting)
    inp = tmp_path / "in.json"
    inp.write_text(serialize_instance(generate("combs", trees=4, size=4, seed=1)))
    out, stats = tmp_path / "cover.json", tmp_path / "stats.json"
    argv = ["cover", "--phi", "hull", "--input", str(inp), "--output", str(out)]
    assert main(argv + ["--stats", str(stats)]) == 0
    assert merges[0] == json.loads(stats.read_text())["merges"] > 0


@pytest.mark.parametrize(
    "owner, name, phi",
    [
        (hullcover, "maximal_regions", "hull"),
        # INSTANCE_A's point lies in its square's hull, so extraction tests
        # containment
        (hullcover, "contained_in", "hull"),
        (model.Cover, "build", "hull"),
        (model.Cover, "build", "box"),
    ],
    ids=["maximal_regions", "contained_in", "hull-Cover.build", "box-Cover.build"],
)
def test_cli_cover_reaches_the_patched_extraction(owner, name, phi, monkeypatch, tmp_path):
    calls = [0]
    orig = vars(owner)[name]
    static = isinstance(orig, staticmethod)
    fn = orig.__func__ if static else orig

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(owner, name, staticmethod(counting) if static else counting)
    inp = tmp_path / "in.json"
    inp.write_text(serialize_instance(INSTANCE_A))
    out = tmp_path / "cover.json"
    assert main(["cover", "--phi", phi, "--input", str(inp), "--output", str(out)]) == 0
    assert calls[0] > 0, (phi, name)
