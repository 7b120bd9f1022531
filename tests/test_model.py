import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecover.cli import main
from treecover.boxcover import BoxStats
from treecover.generators import ARC_MAX_TREES, generate
from treecover.geom import AABB, BoundaryIntersections, Circle, ConvexPolygon
from treecover.hullcover import HullStats
from treecover.model import (
    Cover,
    GenerationError,
    GeometricTree,
    Instance,
    ParseError,
    errors_only,
    parse_instance,
    serialize_instance,
    validate_instance,
)

from instances import CROSSING_TREES, INSTANCE_D, tree


class TestParse:
    def test_minimal_instance(self):
        inst = parse_instance('{"trees":[{"vertices":[[0,0],[1,0]],"edges":[[0,1]]}]}')
        assert inst.m == 1
        assert inst.n == 2
        assert inst.trees[0].vertices == ((0, 0), (1, 0))

    def test_empty_forest_rejected(self):
        with pytest.raises(ParseError, match="empty forest"):
            parse_instance('{"trees":[]}')

    def test_single_vertex_tree(self):
        inst = parse_instance('{"trees":[{"vertices":[[0,0]],"edges":[]}]}')
        assert inst.m == 1
        assert inst.trees[0].edges == ()

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance('{"trees": [}')

    def test_float_coordinate_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_instance('{"trees":[{"vertices":[[0.5,0]],"edges":[]}]}')

    def test_bool_coordinate_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            parse_instance('{"trees":[{"vertices":[[true,0]],"edges":[]}]}')

    def test_out_of_range_coordinate(self):
        big = 2**30 + 1
        with pytest.raises(ParseError, match="out of range"):
            parse_instance('{"trees":[{"vertices":[[%d,0]],"edges":[]}]}' % big)

    def test_bad_edge_index(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_instance('{"trees":[{"vertices":[[0,0],[1,0]],"edges":[[0,2]]}]}')

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParseError, match="unknown keys"):
            parse_instance('{"trees":[],"extra":1}')

    def test_scale_converts_decimals(self):
        inst = parse_instance('{"trees":[{"vertices":[[0.5,1],[1.5,2]],"edges":[[0,1]]}]}', scale=2)
        assert inst.trees[0].vertices == ((1, 2), (3, 4))

    def test_scale_rejects_non_integral(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_instance('{"trees":[{"vertices":[[0.3,0]],"edges":[]}]}', scale=2)

    @pytest.mark.parametrize(
        "pair, scale, message",
        [
            ("[0.5,7]", 1, "tree 1 vertex 2 x: expected integer coordinate, got 0.5"),
            ("[7,true]", 1, "tree 1 vertex 2 y: expected integer coordinate, got True"),
            ("[0.3,7]", 2, "tree 1 vertex 2 x: 0.3 * 2 is not an integer"),
            ("[7,0.3]", 2, "tree 1 vertex 2 y: 0.3 * 2 is not an integer"),
            (
                "[%d,7]" % (2**30 + 1),
                1,
                "tree 1 vertex 2 x: coordinate 1073741825 out of range (|c| <= 2^30)",
            ),
            (
                "[7,%d]" % -(2**29 + 1),
                2,
                "tree 1 vertex 2 y: coordinate -1073741826 out of range (|c| <= 2^30)",
            ),
        ],
    )
    def test_bad_coordinate_message_names_tree_vertex_and_axis(self, pair, scale, message):
        text = (
            '{"trees":[{"vertices":[[0,0]],"edges":[]},'
            '{"vertices":[[1,1],[2,2],%s],"edges":[[0,1],[1,2]]}]}' % pair
        )
        with pytest.raises(ParseError) as err:
            parse_instance(text, scale=scale)
        assert str(err.value) == message


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        text = '{"trees":[{"vertices":[[0,0],[1,0]],"edges":[[0,1]]}]}'
        assert serialize_instance(parse_instance(text)) == text

    def test_serialize_parse_identity(self):
        inst = generate("combs", trees=4, size=5, seed=9)
        assert parse_instance(serialize_instance(inst)) == inst

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_on_generated(self, seed):
        inst = generate("strips", trees=3, size=4, seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst


class TestValidate:
    def test_crossing_edges_reported_with_point(self):
        v = validate_instance(CROSSING_TREES)
        errs = errors_only(v)
        assert any(e.rule == "edges-cross" and "at (1,1)" in e.message for e in errs)

    def test_disconnected_tree(self):
        bad = Instance((tree([(0, 0), (1, 0), (5, 5), (6, 5)], [(0, 1), (2, 3)]),))
        v = errors_only(validate_instance(bad))
        assert any(e.rule in ("edge-count", "not-connected") for e in v)

    def test_instance_d_clean(self):
        assert errors_only(validate_instance(INSTANCE_D)) == []

    def test_shared_axis_coordinate_is_warning_only(self):
        v = validate_instance(INSTANCE_D)
        warnings = [x for x in v if x.warning]
        assert any(w.rule == "shared-coordinate" for w in warnings)
        assert errors_only(v) == []

    def test_self_loop(self):
        bad = Instance((GeometricTree(((0, 0), (1, 0)), ((0, 0),)),))
        assert any(e.rule == "self-loop" for e in errors_only(validate_instance(bad)))

    def test_duplicate_edge(self):
        bad = Instance((GeometricTree(((0, 0), (1, 0)), ((0, 1), (1, 0))),))
        assert any(e.rule == "duplicate-edge" for e in errors_only(validate_instance(bad)))

    def test_wrong_edge_count(self):
        bad = Instance((GeometricTree(((0, 0), (1, 0), (2, 0)), ((0, 1),)),))
        assert any(e.rule == "edge-count" for e in errors_only(validate_instance(bad)))

    def test_duplicate_vertex_across_trees(self):
        bad = Instance((tree([(0, 0), (1, 0)]), tree([(0, 0), (0, 1)])))
        assert any(e.rule == "duplicate-vertex" for e in errors_only(validate_instance(bad)))

    def test_vertex_on_foreign_edge(self):
        bad = Instance((tree([(0, 0), (4, 0)]), tree([(2, 0), (2, 3)])))
        v = errors_only(validate_instance(bad))
        assert any(e.rule in ("vertex-on-edge", "edges-cross") for e in v)

    def test_vertex_interior_to_own_edge(self):
        bad = Instance(
            (GeometricTree(((0, 0), (4, 0), (2, 0)), ((0, 1), (1, 2))),)
        )
        assert any(e.rule == "vertex-on-edge" for e in errors_only(validate_instance(bad)))

    def test_same_tree_edge_crossing(self):
        bad = Instance(
            (GeometricTree(((0, 0), (2, 2), (0, 2), (2, 0)), ((0, 1), (2, 3), (1, 2))),)
        )
        assert any(e.rule == "edges-cross" for e in errors_only(validate_instance(bad)))

    @pytest.mark.parametrize("bad", [(1, 3), (1, -1)])
    def test_edge_index_reported_not_followed(self, bad):
        # a negative index must not wrap to a vertex of the tree before: read
        # as such, edge (1,-1) of tree 1 would cross tree 0's edge at (1,0)
        inst = Instance(
            (
                GeometricTree(((0, 0), (1, 0)), ((0, 1),)),
                GeometricTree(((0, 3), (4, 3), (2, 9)), ((0, 1), bad)),
            )
        )
        msg = "tree 1: edge 1 ({},{}) index out of range".format(*bad)
        errs = errors_only(validate_instance(inst))
        assert [(e.rule, e.message, e.trees) for e in errs] == [("edge-index", msg, (1,))]

    @pytest.mark.parametrize("bad", ["[1,3]", "[1,-1]"])
    def test_cli_rejects_edge_index_at_parse(self, bad, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(
            '{"trees":[{"vertices":[[0,0],[1,0]],"edges":[[0,1]]},'
            '{"vertices":[[0,3],[4,3],[2,9]],"edges":[[0,1],%s]}]}' % bad
        )
        assert main(["validate", "--input", str(p)]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: tree 1 edge 1: index out of range\n")

    def test_adjacent_edges_sharing_endpoint_ok(self):
        ok = Instance((tree([(0, 0), (1, 0), (1, 1)]),))
        assert errors_only(validate_instance(ok)) == []

    def test_collinear_path_ok(self):
        ok = Instance((tree([(0, 0), (1, 0), (2, 0)]),))
        assert errors_only(validate_instance(ok)) == []


class TestGenerate:
    def test_strips_counts(self):
        inst = generate("strips", trees=3, size=4, seed=1)
        assert inst.m == 3
        assert inst.n == 12

    def test_unknown_kind(self):
        with pytest.raises(GenerationError):
            generate("spirals", trees=3, size=4, seed=1)

    def test_infeasible_params(self):
        with pytest.raises(GenerationError):
            generate("strips", trees=0, size=4, seed=1)

    def test_deterministic(self):
        a = generate("nested", trees=3, size=10, seed=7)
        b = generate("nested", trees=3, size=10, seed=7)
        assert a == b

    def test_distinct_seeds_differ(self):
        a = generate("combs", trees=4, size=4, seed=1)
        b = generate("combs", trees=4, size=4, seed=2)
        assert a != b

    def test_ladder_rungs_share_x_and_overlap_in_x(self):
        inst = generate("ladder", trees=6, size=5, seed=4)
        xs = [{x for x, _ in t.vertices} for t in inst.trees]
        assert len(set().union(*xs)) <= 3 * 5  # 30 vertices on 15 x values
        assert max(min(x) for x in xs) < min(max(x) for x in xs)
        assert all(max(x) - min(x) >= 999_000 for x in xs)

    def test_gadget_fixed_shape(self):
        inst = generate("mincircle-gadget", seed=0)
        assert inst.m == 4
        assert all(len(t.vertices) == 2 for t in inst.trees)

    @pytest.mark.parametrize("m, a", [(1, 3), (6, 3), (7, 3), (3999, 3), (4000, 1)])
    def test_arc_lifts_scaled_combs(self, m, a):
        inst = generate("arc", trees=m)
        combs = generate("combs", trees=m, size=3, seed=1)
        for k, (t, c) in enumerate(zip(inst.trees, combs.trees)):
            lift = a * (k - m // 2) ** 2
            assert t.edges == c.edges
            assert t.vertices == tuple((x * 10**4, y * 10**4 + lift) for x, y in c.vertices)
        # size and seed are ignored
        assert generate("arc", trees=m, size=7, seed=5) == inst

    @pytest.mark.parametrize("m", [1, 2, 3, 12, 101, 3999, 4000, ARC_MAX_TREES])
    def test_arc_is_validator_clean(self, m):
        assert errors_only(validate_instance(generate("arc", trees=m))) == []

    def test_arc_tree_count_is_capped(self):
        with pytest.raises(GenerationError):
            generate("arc", trees=ARC_MAX_TREES + 1)

    @pytest.mark.parametrize("kind", ["strips", "combs", "nested", "ladder"])
    def test_generated_instances_valid_many_seeds(self, kind):
        for seed in range(40):
            m = 1 + seed % 5
            size = 3 + seed % 4
            inst = generate(kind, trees=m, size=size, seed=seed)
            assert errors_only(validate_instance(inst)) == []
            assert inst.m == m
            assert inst.n == sum(t.n for t in inst.trees)

    @pytest.mark.parametrize("kind", ["strips", "combs", "nested"])
    def test_thousand_seeds_per_kind(self, kind):
        # generate() re-validates every instance internally and raises on
        # any violation, so success across the sweep is the assertion
        for seed in range(1000):
            inst = generate(kind, trees=1 + seed % 6, size=3 + seed % 5, seed=seed)
            assert inst.m == 1 + seed % 6
        # spot re-check a sample explicitly against the validator
        for seed in range(0, 1000, 97):
            inst = generate(kind, trees=1 + seed % 6, size=3 + seed % 5, seed=seed)
            assert errors_only(validate_instance(inst)) == []


class TestCover:
    def test_build_canonicalizes(self):
        r1 = ConvexPolygon(((0, 0), (1, 0), (0, 1)))
        r2 = ConvexPolygon(((5, 5), (7, 5), (5, 7)))
        a = Cover.build("hull", [(r2, [2, 0]), (r1, [1])])
        b = Cover.build("hull", [(r1, [1]), (r2, [0, 2])])
        assert a == b
        assert a.membership == ((1,), (0, 2))

    def test_json_roundtrip_hull(self):
        r = ConvexPolygon(((0, 0), (1, 0), (0, 1)))
        c = Cover.build("hull", [(r, [0])])
        assert Cover.from_json(c.to_json()) == c

    def test_json_roundtrip_box(self):
        c = Cover.build("box", [(AABB(0, 0, 4, 2), [0, 1]), (AABB(9, 9, 10, 10), [2])])
        assert Cover.from_json(c.to_json()) == c

    def test_json_shape(self):
        r = ConvexPolygon(((0, 0), (1, 0), (0, 1)))
        obj = json.loads(Cover.build("hull", [(r, [0])]).to_json())
        assert obj["phi"] == "hull"
        assert obj["regions"] == [{"vertices": [[0, 0], [1, 0], [0, 1]]}]
        assert obj["membership"] == [[0]]


# for each immutable record: a builder of one value, a builder of a value
# that differs from it, and a field
RECORDS = [
    (lambda: GeometricTree(((0, 0), (1, 1)), ((0, 1),)),
     lambda: GeometricTree(((0, 0), (1, 2)), ((0, 1),)), "vertices"),
    (lambda: Instance(INSTANCE_D.trees), lambda: Instance(CROSSING_TREES.trees), "trees"),
    (lambda: Cover("box", (AABB(0, 0, 1, 1),), ((0,),)),
     lambda: Cover("box", (AABB(0, 0, 1, 1),), ((1,),)), "membership"),
    (lambda: ConvexPolygon(((0, 0), (2, 0), (0, 2))),
     lambda: ConvexPolygon(((0, 0), (2, 0), (0, 3))), "vertices"),
    (lambda: BoundaryIntersections(((Fraction(1, 2), Fraction(0)),), False),
     lambda: BoundaryIntersections(((Fraction(1, 2), Fraction(0)),), True), "overlap"),
    (lambda: AABB(0, 0, 1, 1), lambda: AABB(0, 0, 1, 2), "ymax"),
    (lambda: Circle(0.0, 0.0, 1.0), lambda: Circle(0.0, 0.0, 2.0), "r"),
    (lambda: HullStats(4, 1, 6), lambda: HullStats(4, 2, 6), "merges"),
    (lambda: BoxStats(2, 1), lambda: BoxStats(2, 0), "merges"),
]


@pytest.mark.parametrize(
    "make, make_other, field", RECORDS, ids=[type(make()).__name__ for make, _, _ in RECORDS]
)
def test_records_compare_by_value_copy_and_refuse_assignment(make, make_other, field):
    record, twin, other = make(), make(), make_other()
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    assert other != record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == twin


def test_convex_polygon_compares_by_vertices_only():
    p = ConvexPolygon(((0, 0), (2, 0), (0, 2)))
    assert p._fields == ("vertices",) and len(p) == 3
    with pytest.raises(AttributeError):
        p.vertices = ()
    assert p != p.vertices
    # the hash of the former frozen dataclass, so set orders stay the same
    assert hash(p) == hash((p.vertices,))


def test_boundary_intersections_len_counts_points():
    points = ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)), (Fraction(5), Fraction(6)))
    assert len(BoundaryIntersections(points, False)) == 3
    assert len(BoundaryIntersections((), True)) == 0


def test_records_reject_inverted_boxes_and_negative_radii():
    with pytest.raises(ValueError, match=r"inverted box AABB\(xmin=1, ymin=0, xmax=0, ymax=0\)"):
        AABB(1, 0, 0, 0)
    with pytest.raises(ValueError, match="inverted box"):
        AABB(xmin=0, ymin=1, xmax=0, ymax=0)
    with pytest.raises(ValueError, match="negative radius"):
        Circle(0.0, 0.0, -1.0)
