"""The engines and the validator look their kernel batches up on
``treecover._kernelpy`` at each call.

perfbench's tracer times and counts them by patching ``scan``,
``find_contacts``, ``find_vertex_hits`` and ``seg_relation`` on that module.
A caller that bound one of them at import would bypass the patch, and the
tracer's ``kernel.*`` spans would read zero without any error.
"""

from collections import Counter

import pytest

from treecover import _kernelpy, geom
from treecover.cli import main
from treecover.model import generate, serialize_instance

HOOKS = ("scan", "find_contacts", "find_vertex_hits", "seg_relation")


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
    inp = tmp_path / "in.json"
    inp.write_text(serialize_instance(generate("combs", trees=4, size=4, seed=1)))
    out = tmp_path / "cover.json"
    assert main(["cover", "--phi", phi, "--input", str(inp), "--output", str(out)]) == 0
    for name in reached:
        assert calls[name] > 0, (phi, name, dict(calls))


def test_geometry_predicates_stay_out_of_the_pair_count(calls):
    assert geom.segments_intersect(((0, 0), (2, 2)), ((0, 2), (2, 0))) == geom.CROSSING
    assert calls["seg_relation"] == 0
