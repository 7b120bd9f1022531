"""Self-tests of the benchmark: generators, the output check, the tracer,
and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import gen  # noqa: E402
import loop  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from treecover import cli  # noqa: E402
from treecover.model import errors_only, parse_instance, validate_instance  # noqa: E402
from treecover.phicover import PHI, naive_phi_cover  # noqa: E402

M = 12


@pytest.mark.parametrize("kind", sorted(gen.GENERATORS))
def test_generator_is_valid_and_seeded(kind):
    text = gen.instance_text(kind, M, 5, "7/0")
    assert text == gen.instance_text(kind, M, 5, "7/0")
    assert text != gen.instance_text(kind, M, 5, "8/0")
    inst = parse_instance(text)
    assert inst.m == M and inst.n == 5 * M
    assert errors_only(validate_instance(inst)) == []


@pytest.mark.parametrize("kind,regions", [("merge", 1), ("disjoint", M), ("ladder", M)])
@pytest.mark.parametrize("phi", ["hull", "box"])
def test_generator_shape(kind, regions, phi):
    for seed in range(3):
        inst = parse_instance(gen.instance_text(kind, M, 5, seed))
        cover, _ = naive_phi_cover(inst, PHI[phi])
        assert len(cover.regions) == regions


def test_ladder_rungs_overlap_in_x_and_share_x():
    inst = parse_instance(gen.instance_text("ladder", M, 5, 3))
    boxes = inst.tree_boxes()
    for i, a in enumerate(boxes):
        assert a.xmax - a.xmin >= gen.LADDER_WIDTH - 13
        for b in boxes[i + 1:]:
            assert a.xmin <= b.xmax and b.xmin <= a.xmax
    xs = [{x for x, _ in t.vertices} for t in inst.trees]
    assert any(xs[0] & other for other in xs[1:])


def _spec(tmp_path, phi="box", kind="disjoint"):
    text = gen.instance_text(kind, 8, 5, 0)
    inp, ref = tmp_path / "in.json", tmp_path / "ref.json"
    inp.write_text(text)
    cover, _ = naive_phi_cover(parse_instance(text), PHI[phi])
    ref.write_text(cover.to_json() + "\n")
    spec = {
        "ops": [{"phi": phi, "input": str(inp), "ref": str(ref), "n": 40}],
        "seconds": 0.2,
        "trace": False,
        "work": str(tmp_path),
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path, spec


def _records(spec_path):
    loop.main(str(spec_path))
    return json.loads((spec_path.parent / "loop-result.json").read_text())["ops"]


def test_correct_covers_pass(tmp_path):
    spec_path, _ = _spec(tmp_path)
    records = _records(spec_path)
    assert records and all(r["ok"] for r in records)


def test_corrupted_cover_counts_as_failed(tmp_path, monkeypatch):
    spec_path, _ = _spec(tmp_path)
    real_main = cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("--output") + 1])
        obj = json.loads(out.read_text())
        obj["membership"][0] = obj["membership"][0][1:]  # drop one tree
        out.write_text(json.dumps(obj, separators=(",", ":")) + "\n")
        return rc

    monkeypatch.setattr(cli, "main", corrupting_main)
    records = _records(spec_path)
    assert records and not any(r["ok"] for r in records)


@pytest.mark.parametrize("outcome", ["exit", "raise"])
def test_failed_exit_or_exception_counts_as_failed(tmp_path, monkeypatch, outcome):
    spec_path, spec = _spec(tmp_path)

    def bad_main(argv):
        if outcome == "raise":
            raise RuntimeError("boom")
        return 1

    monkeypatch.setattr(cli, "main", bad_main)
    dt, ok, error = loop.run_op(
        cli, spec["ops"][0], str(tmp_path / "o.json"), str(tmp_path / "s.json"), b""
    )
    assert not ok and error


@pytest.mark.parametrize("phi,kind", [("hull", "merge"), ("box", "ladder")])
def test_traced_ops_pass_and_spans_tile_the_op(tmp_path, phi, kind):
    spec_path, spec = _spec(tmp_path, phi, kind)
    targets = [tracing._resolve(m, p) for m, p, _, _ in tracing.PATCHES]
    originals = [vars(owner)[name] for owner, name in targets]
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        _, ok, error = loop.run_op(
            cli, spec["ops"][0], str(tmp_path / "o.json"), str(tmp_path / "s.json"),
            (tmp_path / "ref.json").read_bytes(),
        )
    finally:
        tracer.uninstall()
    assert ok, error
    assert [vars(owner)[name] for owner, name in targets] == originals
    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    names = {s[0] for s in spans}
    assert {"model.parse", "model.validate", f"{phi}.engine", "model.to_json"} <= names
    root_ns = roots[0][2] - roots[0][1]
    assert sum(tracing.self_times(spans)) == root_ns
    assert all(st >= 0 for st in tracing.self_times(spans))
    assert tracer.op_counts[0]["hull.shots" if phi == "hull" else "box.queries"] > 0


def test_benchmark_json_matches_the_runner():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]]["why"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: u for k, (u, _) in run.PER_LAYER.items()
    }


def test_layer_metrics_cover_every_per_layer_name(tmp_path):
    spec_path, spec = _spec(tmp_path, "hull", "merge")
    ops = spec["ops"] + [dict(spec["ops"][0], phi="box", ref=str(tmp_path / "ref-box.json"))]
    cover, _ = naive_phi_cover(parse_instance(Path(ops[0]["input"]).read_text()), PHI["box"])
    (tmp_path / "ref-box.json").write_text(cover.to_json() + "\n")
    spec_path.write_text(json.dumps(dict(spec, ops=ops, trace=True)))
    loop.main(str(spec_path))
    res = json.loads((tmp_path / "loop-result.json").read_text())
    assert all(r["ok"] for r in res["ops"])
    values, breakdown = run.layer_metrics(
        res["ops"], tracing.read_spans(tmp_path / "spans.jsonl"), res["op_counts"]
    )
    assert set(values) == set(run.PER_LAYER)
    assert values["hull.merges"] == 7  # 8 teeth collapse through 7 merges
    assert abs(values["trace.accounted_frac"] - 1) < 0.05


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "merge", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_local_speeds_take_the_probes_around_each_op():
    probes = [1, 2, 3, 4, 5, 6]  # probe i before op i, the last after op 4
    assert calibrate.local_speeds(probes, window=1) == [1.5, 2.5, 3.5, 4.5, 5.5]
    assert calibrate.local_speeds(probes, window=2) == [2, 2.5, 3.5, 4.5, 5]


def test_rescaling_cancels_a_uniform_slowdown():
    ref = calibrate.REFERENCE_S
    probe_slow = 1.4 ** (1 / calibrate.ELASTICITY)  # the probe swings more than the ops

    def recs(slow, probe):
        return [{"phi": phi, "n": 10, "s": base * slow, "warmup": False, "probe_s": ref * probe}
                for phi, base in [("hull", 0.3), ("box", 0.1)] * 4]

    setup = [(0.09, ref), (0.1, ref)]
    fast, fast_raw = run.e2e_metrics(recs(1.0, 1.0), ref, 1024, setup)
    slow, slow_raw = run.e2e_metrics(recs(1.4, probe_slow), ref * probe_slow, 1024,
                                     [(d * 1.4, p * probe_slow) for d, p in setup])
    for k in fast:
        assert slow[k] == pytest.approx(fast[k])
    assert slow_raw["hull_op_s.p50"] == pytest.approx(1.4 * fast_raw["hull_op_s.p50"])
    assert fast["hull_op_s.p50"] == pytest.approx(0.3) and fast["setup_s"] == pytest.approx(0.095)


def test_probe_is_positive_and_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert calibrate.probe() > 0
    assert gc.isenabled()
