import gc
import json
import subprocess
import sys

import pytest

from treecover import cli
from treecover.cli import main
from treecover.hullcover import InternalInvariantError
from treecover.model import serialize_instance

from childenv import child_env
from instances import CROSSING_TREES, INSTANCE_D, INSTANCE_E, staircase


@pytest.fixture
def inst_d(tmp_path):
    p = tmp_path / "d.json"
    p.write_text(serialize_instance(INSTANCE_D))
    return str(p)


@pytest.fixture
def inst_e(tmp_path):
    p = tmp_path / "e.json"
    p.write_text(serialize_instance(INSTANCE_E))
    return str(p)


@pytest.fixture
def segment(tmp_path):
    """One two-vertex tree: valid, and validated without warnings."""
    p = tmp_path / "seg.json"
    p.write_text('{"trees":[{"vertices":[[0,0],[1,1]],"edges":[[0,1]]}]}')
    return str(p)


@pytest.fixture
def crossing(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(serialize_instance(CROSSING_TREES))
    return str(p)


def assert_usage_error(argv, capsys):
    """The command exits 2 with a single ``error:`` line on stderr."""
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestValidate:
    def test_clean_instance(self, inst_d):
        assert main(["validate", "--input", inst_d]) == 0

    def test_crossing_rejected(self, crossing, capsys):
        assert main(["validate", "--input", crossing]) == 3
        assert "cross at (1,1)" in capsys.readouterr().err

    def test_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["validate", "--input", str(p)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", "--input", str(tmp_path / "none.json")]) == 2

    @pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
    def test_non_finite_coordinate_is_a_parse_error(self, tmp_path, capsys, value):
        # Python's json reads these as floats, which --scale would round
        p = tmp_path / "inf.json"
        p.write_text('{"trees": [{"vertices": [[%s, 0]], "edges": []}]}' % value)
        assert_usage_error(["validate", "--scale", "2", "--input", str(p)], capsys)

    def test_non_utf8_input_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "latin1.json"
        p.write_bytes(b'{"trees": [{"vertices": [[0, 0]], "edges": []}]} \xe9')
        assert_usage_error(["validate", "--input", str(p)], capsys)

    def test_directory_input_is_a_usage_error(self, tmp_path, capsys):
        assert_usage_error(["validate", "--input", str(tmp_path)], capsys)

    @pytest.mark.parametrize("scale", ["0", "-3"])
    def test_scale_below_one_is_a_usage_error(self, segment, capsys, scale):
        # 0 would collapse every vertex onto the origin and a negative
        # scale would mirror the instance
        assert_usage_error(["validate", "--input", segment, "--scale", scale], capsys)


class TestCover:
    def test_hull_fast_instance_d(self, inst_d, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["cover", "--phi", "hull", "--algo", "fast", "--input", inst_d,
             "--output", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert obj["phi"] == "hull"
        assert len(obj["regions"]) == 1
        assert obj["membership"] == [[0, 1, 2]]

    def test_box_naive_instance_e(self, inst_e, tmp_path):
        out = tmp_path / "c.json"
        assert main(
            ["cover", "--phi", "box", "--algo", "naive", "--input", inst_e,
             "--output", str(out)]
        ) == 0
        obj = json.loads(out.read_text())
        assert len(obj["regions"]) == 2

    def test_crossing_input_exit_3(self, crossing, tmp_path, capsys):
        assert main(
            ["cover", "--phi", "hull", "--input", crossing,
             "--output", str(tmp_path / "c.json")]
        ) == 3
        assert "cross at (1,1)" in capsys.readouterr().err

    def test_stats_file(self, inst_d, tmp_path):
        out = tmp_path / "c.json"
        stats = tmp_path / "s.json"
        main(
            ["cover", "--phi", "hull", "--input", inst_d, "--output", str(out),
             "--stats", str(stats)]
        )
        sobj = json.loads(stats.read_text())
        assert set(sobj) == {"rays_shot", "merges", "initial_edges"}

    def test_fast_equals_naive_both_phis(self, inst_d, inst_e, tmp_path):
        for phi, inp in (("hull", inst_d), ("box", inst_e), ("box", inst_d), ("hull", inst_e)):
            a = tmp_path / "a.json"
            b = tmp_path / "b.json"
            assert main(["cover", "--phi", phi, "--algo", "fast", "--input", inp, "--output", str(a)]) == 0
            assert main(["cover", "--phi", phi, "--algo", "naive", "--input", inp, "--output", str(b)]) == 0
            assert a.read_text() == b.read_text()

    def test_deterministic_bytes(self, inst_d, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            main(
                ["cover", "--phi", "hull", "--input", inst_d, "--output", str(out),
                 "--seed", "7", "--emit-trace"]
            )
        assert a.read_bytes() == b.read_bytes()


class TestCheckWellDefined:
    def test_hull_well_defined(self, inst_d, capsys):
        assert main(
            ["check-well-defined", "--phi", "hull", "--input", inst_d,
             "--trials", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"] == "WELL-DEFINED"

    def test_mincircle_gadget_witness(self, tmp_path, capsys):
        inst = tmp_path / "g.json"
        main(["gen", "--kind", "mincircle-gadget", "--output", str(inst)])
        code = main(
            ["check-well-defined", "--phi", "mincircle", "--input", str(inst),
             "--exhaustive"]
        )
        assert code == 4
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "WITNESS"
        assert obj["cover_a"] != obj["cover_b"]
        assert obj["policy_a"]["kind"] == "scripted"

    def test_exhaustive_large_m_usage_error(self, tmp_path):
        inst = tmp_path / "big.json"
        main(["gen", "--kind", "strips", "--trees", "10", "--size", "3",
              "--output", str(inst)])
        assert main(
            ["check-well-defined", "--phi", "hull", "--input", str(inst),
             "--exhaustive"]
        ) == 2


    def test_too_few_trials_usage_error(self, inst_d, capsys):
        argv = ["check-well-defined", "--phi", "hull", "--input", inst_d]
        assert_usage_error(argv + ["--trials", "1"], capsys)


class TestGenOracle:
    def test_gen_nested_then_cover_single_region(self, tmp_path):
        inst = tmp_path / "n.json"
        cov = tmp_path / "c.json"
        assert main(["gen", "--kind", "nested", "--trees", "5", "--seed", "1",
                     "--output", str(inst)]) == 0
        assert main(["cover", "--phi", "hull", "--input", str(inst),
                     "--output", str(cov)]) == 0
        assert len(json.loads(cov.read_text())["regions"]) == 1

    def test_gen_strips_three_regions(self, tmp_path):
        inst = tmp_path / "s.json"
        cov = tmp_path / "c.json"
        main(["gen", "--kind", "strips", "--trees", "3", "--seed", "1",
              "--output", str(inst)])
        main(["cover", "--phi", "hull", "--input", str(inst), "--output", str(cov)])
        assert len(json.loads(cov.read_text())["regions"]) == 3

    def test_oracle_emits_forest(self, inst_d, tmp_path):
        forest = tmp_path / "f.json"
        assert main(["oracle", "--phi", "hull", "--input", inst_d,
                     "--emit-forest", str(forest)]) == 0
        obj = json.loads(forest.read_text())
        assert obj["phi"] == "hull"

        def count_leaves(node):
            if "tree" in node:
                return 1
            return sum(count_leaves(c) for c in node["children"])

        assert sum(count_leaves(r) for r in obj["roots"]) == 3

    def test_oracle_emits_a_forest_deeper_than_the_recursion_limit(self, tmp_path):
        """Every merge order of the staircase is one chain of m - 1 merges,
        so the forest nests one level per merge; the forest is built and
        written without recursion."""
        m = 1100
        inst, forest = tmp_path / "stair.json", tmp_path / "f.json"
        fast, naive = tmp_path / "fast.json", tmp_path / "naive.json"
        inst.write_text(serialize_instance(staircase(m)))
        assert main(["cover", "--phi", "box", "--input", str(inst),
                     "--output", str(fast)]) == 0
        assert main(["oracle", "--phi", "box", "--input", str(inst),
                     "--emit-forest", str(forest), "--output", str(naive)]) == 0
        assert naive.read_bytes() == fast.read_bytes()
        text = forest.read_text()
        box = json.loads(fast.read_text())["regions"][0]["box"]
        box = json.dumps(box, separators=(",", ":"))
        assert text.startswith('{"phi":"box","roots":[{"region":{"box":%s},"children":[{' % box)
        assert text.count('"children":') == m - 1
        assert text.count('"tree":') == m
        assert text.endswith("]}]}\n")

    def test_bad_kind_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--kind", "spirals", "--output", str(tmp_path / "x")])
        assert exc.value.code == 2


class TestBench:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--phi", "hull", "--kinds", "combs", "--sizes", "15,20,25",
             "--output", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kind,n,algo,wall_ms,ops,merges"
        assert len(lines) == 1 + 3  # one row per size
        assert [line.split(",")[2] for line in lines[1:]] == ["fast"] * 3

    def test_deterministic_modulo_timing(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["bench", "--phi", "box", "--kinds", "strips", "--sizes", "12",
                  "--seed", "3", "--output", str(out)])
            rows = [r.split(",") for r in out.read_text().strip().splitlines()]
            outs.append([r[:3] + r[4:] for r in rows])  # mask wall_ms
        assert outs[0] == outs[1]

    def test_each_kind_sized_by_its_own_vertices_per_tree(self, tmp_path):
        # arc trees have 3 vertices, combs trees as many as --size (5 here)
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--phi", "hull", "--kinds", "arc,combs", "--sizes", "100",
             "--output", str(out)]
        ) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert sorted({r[0] for r in rows}) == ["arc", "combs"]
        for kind, n, *_ in rows:
            assert 100 - {"arc": 3, "combs": 5}[kind] < int(n) <= 100, (kind, n)

    def test_cross_and_diag_sized_by_two_vertices_per_tree(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--phi", "box", "--kinds", "cross,diag", "--sizes", "41",
             "--output", str(out)]
        ) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [("cross", "40"), ("diag", "40")]

    def test_nested_sized_by_its_real_n(self, tmp_path):
        # nested rings grow with the ring count, so one ring's vertex count
        # (8) would build n = 400 for a target of 200
        out = tmp_path / "bench.csv"
        assert main(
            ["bench", "--phi", "hull", "--kinds", "nested", "--sizes", "200",
             "--output", str(out)]
        ) == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["nested"]
        assert all(100 < int(r[1]) <= 200 for r in rows), rows

    def test_arc_sized_up_to_its_tree_cap(self, monkeypatch):
        # the doubling search probes m = 64 past the cap of 40 trees; a
        # generator that refuses an m means that m is too large
        from treecover import bench, generators

        monkeypatch.setattr(generators, "ARC_MAX_TREES", 40)
        assert bench._bench_instance("arc", 1000, 0).m == 40

    def test_constant_ratio_kind_sized_without_bisection(self, monkeypatch):
        # combs has n = 5m: from m = 512 the bound is the answer, m = 800,
        # which is generated once, right after the doublings
        from treecover import bench, generators

        calls = []
        generate = generators.generate

        def counting(kind, trees, size, seed):
            calls.append(trees)
            return generate(kind, trees=trees, size=size, seed=seed)

        monkeypatch.setattr(generators, "generate", counting)
        assert bench._bench_instance("combs", 4000, 0).m == 800
        assert calls == [2, 4, 8, 16, 32, 64, 128, 256, 512, 800]

    def test_non_integer_sizes_usage_error(self, tmp_path, capsys):
        argv = ["bench", "--phi", "hull", "--kinds", "combs", "--sizes", "10,x",
                "--output", str(tmp_path / "bench.csv")]
        assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("kinds", ["", ",", " , ", "spirals"])
    def test_no_or_unknown_kinds_usage_error(self, kinds, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--phi", "box", "--kinds", kinds, "--sizes", "10",
                "--output", str(out)]
        assert_usage_error(argv, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["0,-5", "10,0", "-1", ","])
    def test_non_positive_or_no_sizes_usage_error(self, sizes, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        argv = ["bench", "--phi", "box", "--kinds", "combs", "--sizes", sizes,
                "--output", str(out)]
        assert_usage_error(argv, capsys)
        assert not out.exists()


class TestRender:
    def test_structure_counts(self, inst_d, tmp_path):
        cov = tmp_path / "c.json"
        svg = tmp_path / "out.svg"
        main(["cover", "--phi", "hull", "--input", inst_d, "--output", str(cov),
              "--stats", str(tmp_path / "s.json"), "--emit-trace"])
        stats = json.loads((tmp_path / "s.json").read_text())
        cover = json.loads(cov.read_text())
        assert main(["render", "--input", inst_d, "--cover", str(cov),
                     "--output", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("<polygon") == len(cover["regions"])
        assert text.count('<line class="ray') == stats["rays_shot"]
        assert text.count('class="ray merge"') == stats["merges"]

    def test_without_cover(self, inst_d, tmp_path):
        svg = tmp_path / "out.svg"
        assert main(["render", "--input", inst_d, "--output", str(svg)]) == 0
        assert "<svg" in svg.read_text()

    @pytest.mark.parametrize(
        "trace",
        [
            "[1]",
            "null",
            '{"rays":{}}',
            '{"rays":3}',
            '{"rays":[1]}',
            '{"rays":[{"from":[0,0]}]}',
            '{"rays":[{"from":[0,0],"to":[1,1],"merge":1}]}',
            '{"rays":[{"from":[0,0],"to":[1,1],"merge":true,"tag":0}]}',
            '{"rays":[{"from":[0,0,0],"to":[1,1],"merge":true}]}',
            '{"rays":[{"from":{"x":0},"to":[1,1],"merge":true}]}',
            '{"rays":[{"from":[0,"0"],"to":[1,1],"merge":true}]}',
            '{"rays":[{"from":[0,0],"to":[true,1],"merge":false}]}',
            '{"rays":[{"from":[0,0],"to":[NaN,1],"merge":false}]}',
            '{"rays":[{"from":[0,0],"to":[1e999,1],"merge":false}]}',
            '{"rays":[{"from":[0,0],"to":[1,1],"merge":false},'
            '{"from":[0,0],"to":[1,1]}]}',
        ],
    )
    def test_malformed_trace_is_a_parse_error(self, segment, tmp_path, capsys, trace):
        cov = tmp_path / "c.json"
        cov.write_text(
            '{"phi":"hull","regions":[],"membership":[],"trace":' + trace + "}"
        )
        argv = ["render", "--input", segment, "--cover", str(cov),
                "--output", str(tmp_path / "out.svg")]
        assert_usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "region",
        [
            '{"vertices":[[0.5,0]]}',
            '{"vertices":[[1e400,0]]}',
            '{"vertices":[]}',
            '{"box":["a","b","c","d"]}',
            '{"box":[0,0,1e400,1]}',
            '{"circle":[0,0,1e400]}',
            '{"circle":[NaN,0,1]}',
            '{"vertices":[[0,0],[5,5],[1,0]]}',  # clockwise
        ],
    )
    def test_malformed_region_is_a_parse_error(self, segment, tmp_path, capsys, region):
        cov = tmp_path / "c.json"
        cov.write_text('{"phi":"hull","regions":[' + region + '],"membership":[[0]]}')
        argv = ["render", "--input", segment, "--cover", str(cov),
                "--output", str(tmp_path / "out.svg")]
        assert_usage_error(argv, capsys)
        assert not (tmp_path / "out.svg").exists()

    @pytest.mark.parametrize("membership", ['[["a"]]', "[[0],[1]]", "[[99]]"])
    def test_malformed_membership_is_a_parse_error(
        self, segment, tmp_path, capsys, membership
    ):
        cov = tmp_path / "c.json"
        cov.write_text(
            '{"phi":"hull","regions":[{"vertices":[[0,0],[1,1]]}],'
            '"membership":' + membership + "}"
        )
        argv = ["render", "--input", segment, "--cover", str(cov),
                "--output", str(tmp_path / "out.svg")]
        assert_usage_error(argv, capsys)
        assert not (tmp_path / "out.svg").exists()

    def test_deterministic_bytes(self, inst_d, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            main(["render", "--input", inst_d, "--output", str(out)])
        assert a.read_bytes() == b.read_bytes()


# deeper than the interpreter's recursion limit, so json.loads raises
# RecursionError on it
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["validate", "cover"])
def test_deeply_nested_input_is_a_parse_error(tmp_path, capsys, command):
    p = tmp_path / "deep.json"
    p.write_text(DEEP)
    argv = [command, "--input", str(p)]
    if command == "cover":
        argv += ["--phi", "box", "--output", str(tmp_path / "out.json")]
    assert_usage_error(argv, capsys)


def test_deeply_nested_cover_is_a_parse_error(segment, tmp_path, capsys):
    cov = tmp_path / "c.json"
    cov.write_text(DEEP)
    argv = ["render", "--input", segment, "--cover", str(cov),
            "--output", str(tmp_path / "out.svg")]
    assert_usage_error(argv, capsys)
    assert not (tmp_path / "out.svg").exists()


def test_main_leaves_the_collector_as_it_found_it(
    segment, crossing, tmp_path, monkeypatch, capsys
):
    from treecover import bench

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = str(tmp_path / "out.json")
    paused = []

    def breach(instance, trace=None):
        paused.append(not gc.isenabled())
        raise InternalInvariantError("breach")

    box_cover_fast = bench.box_cover_fast

    def timed(instance):
        paused.append(not gc.isenabled())
        return box_cover_fast(instance)

    monkeypatch.setattr(cli, "hull_cover_fast", breach)
    monkeypatch.setattr(bench, "box_cover_fast", timed)
    runs = [
        (["validate", "--input", segment], 0),
        (["validate", "--input", crossing], 3),
        (["validate", "--input", str(bad)], 2),
        (["cover", "--phi", "box", "--input", segment, "--output", out], 0),
        (["cover", "--phi", "hull", "--input", segment, "--output", out], 1),
        (["cover", "--phi", "box", "--input", str(bad), "--output", out], 2),
        (["cover", "--phi", "box", "--input", crossing, "--output", out], 3),
        (["bench", "--phi", "box", "--kinds", "combs", "--sizes", "40",
          "--output", str(tmp_path / "bench.csv")], 0),
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                assert main(argv) == code, argv
                assert gc.isenabled() == enabled, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the engines ran with the collector paused, whatever the caller's
    # state: the hull cover once, and bench's warm-up and three timed runs
    assert paused == [True] * 5 * 2


def test_parser_is_built_on_the_first_main_call_only(segment):
    # importing the CLI builds no parser; the first main call builds it,
    # and every later call, and build_parser itself, reuse that object
    code = f"""
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    if kwargs.get("prog") == "treecover":
        built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import treecover.cli as cli
print(len(built))
codes = [cli.main(["validate", "--input", {segment!r}]) for _ in range(3)]
print(codes, len(built), cli.build_parser() is built[0])
"""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0", "[0, 0, 0] 1 True"]


def test_shared_parser_runs_like_a_fresh_one(inst_d, crossing, tmp_path, monkeypatch, capsys):
    """A sequence of commands gives the same exit codes, messages and
    files, byte for byte, on repeated runs with the shared parser as with a
    new parser for every call."""
    out, stats = tmp_path / "cover.json", tmp_path / "stats.json"
    cover = ["cover", "--input", inst_d, "--output", str(out)]
    sequence = [
        cover + ["--phi", "cone"],
        ["validate", "--input", crossing],
        cover + ["--phi", "hull"],
        cover + ["--phi", "box", "--stats", str(stats)],
        ["--help"],
        cover + ["--phi", "hull", "--emit-trace"],
    ]

    def run_sequence():
        out.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        results = []
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            files = [p.read_bytes() if p.exists() else None for p in (out, stats)]
            results.append((code, capsys.readouterr(), files))
        return results

    shared = cli.build_parser()
    runs = [run_sequence(), run_sequence()]
    assert cli.build_parser() is shared
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    runs += [run_sequence(), run_sequence()]
    assert [code for code, _, _ in runs[0]] == [2, 3, 0, 0, 0, 0]
    assert runs[0][-1][2][0] != runs[0][2][2][0]  # the trace is in the file
    assert runs[1:] == runs[:1] * 3


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treecover", "--help"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "cover" in proc.stdout


def test_cli_import_leaves_naive_process_and_renderer_unloaded():
    # only the commands that need them import them, so a `cover` start
    # does not compile them; the package still exports the naive names
    code = (
        "import sys, treecover.cli; "
        "print([m for m in ('treecover.phicover', 'treecover.render') if m in sys.modules]); "
        "from treecover import PHI, naive_phi_cover; print(naive_phi_cover.__module__); "
        "from treecover import generate; print(generate.__module__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "treecover.phicover", "treecover.generators"]


def test_cover_runs_load_only_what_they_execute(tmp_path):
    # A `cover` start compiles what it imports, so importing the CLI and
    # running both fast engines must leave out the records' code generator,
    # rational and decimal arithmetic (only --scale above 1 reads decimals),
    # random numbers, the bench command, the generators and the
    # naive-process commands.
    # -S keeps site-packages' start-up imports out of the child.
    inp = tmp_path / "d.json"
    inp.write_text(serialize_instance(INSTANCE_D))
    unused = ("dataclasses", "decimal", "fractions", "random", "treecover.bench",
              "treecover.generators", "treecover.phicover", "treecover.render")
    code = (
        "import sys; import treecover.cli as cli; "
        f"unused = {unused!r}; "
        "print([m for m in unused if m in sys.modules]); "
        "codes = [cli.main(['cover', '--phi', phi, '--input', 'd.json', '--output', "
        "phi + '.json', '--stats', phi + '-stats.json']) for phi in ('hull', 'box')]; "
        "print(codes, [m for m in unused if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0] []"]


def test_bench_runs_time_only_the_fast_engines(tmp_path):
    # bench times hull_cover_fast and box_cover_fast alone, so a run of it
    # never compiles the naive oracle or the records' code generator it uses;
    # -S keeps site-packages' start-up imports out of the child
    unused = ("dataclasses", "treecover.phicover")
    code = (
        "import sys; import treecover.cli as cli; "
        f"unused = {unused!r}; "
        "codes = [cli.main(['bench', '--phi', phi, '--kinds', 'combs,nested', "
        "'--sizes', '40', '--output', phi + '.csv']) for phi in ('hull', 'box')]; "
        "print(codes, [m for m in unused if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0] []"]


def test_traced_hull_cover_leaves_fractions_unloaded(tmp_path):
    # a trace's end points come from the shots' integers n / d, so
    # --emit-trace needs no rational arithmetic either
    inp = tmp_path / "d.json"
    inp.write_text(serialize_instance(INSTANCE_D))
    code = (
        "import sys; import treecover.cli as cli; "
        "code = cli.main(['cover', '--phi', 'hull', '--input', 'd.json', "
        "'--output', 'hull.json', '--emit-trace']); "
        "print(code, 'fractions' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 False"]
    assert json.loads((tmp_path / "hull.json").read_text())["trace"]["rays"]
