"""``parse_instance`` against the item-by-item parser it replaced.

``reference_parser`` keeps that parser. On every input, valid or mutated,
the columnar parser must return an equal instance, with the columns of the
reference's trees, or raise ``ParseError`` with the identical message.
"""

import copy
import json
import random

import pytest

from treecover.generators import generate
from treecover.geom import COORD_LIMIT
from treecover.model import Instance, ParseError, instance_to_obj, parse_instance

from reference_parser import parse_instance as reference_parse


def outcome(parse, text, scale):
    try:
        return parse(text, scale=scale)
    except ParseError as e:
        return f"ParseError: {e}"


def assert_same(text, scale):
    got, want = outcome(parse_instance, text, scale), outcome(reference_parse, text, scale)
    assert got == want, (text, scale)
    if isinstance(want, Instance):
        assert (got.m, got.n) == (want.m, want.n)
        assert got.columns == Instance(want.trees).columns


def base_obj(seed):
    kind = ("strips", "combs", "nested", "ladder")[seed % 4]
    obj = instance_to_obj(generate(kind, trees=4, size=4, seed=seed))
    # a bare vertex, so single-vertex trees and empty edge lists are mutated too
    obj["trees"].append({"vertices": [[-7, -9]], "edges": []})
    return obj


def _coord(rng, obj):
    t = rng.choice(obj["trees"])
    return rng.choice(t["vertices"]), rng.randrange(2)


def _edge(rng, obj):
    t = rng.choice([t for t in obj["trees"] if t["edges"]] or obj["trees"])
    if not t["edges"]:
        t["edges"].append([0, 0])
    return t, rng.choice(t["edges"]), rng.randrange(2)


def set_coord(value):
    def mutate(rng, obj):
        pair, k = _coord(rng, obj)
        pair[k] = value(pair[k]) if callable(value) else value

    return mutate


def set_edge_end(value):
    def mutate(rng, obj):
        t, pair, k = _edge(rng, obj)
        pair[k] = value(len(t["vertices"])) if callable(value) else value

    return mutate


def resize_vertex(rng, obj):
    pair, _ = _coord(rng, obj)
    if rng.random() < 0.5:
        pair.pop()
    else:
        pair.append(0)


def resize_edge(rng, obj):
    _, pair, _ = _edge(rng, obj)
    if rng.random() < 0.5:
        pair.pop()
    else:
        pair.append(0)


def drop_key(rng, obj):
    del rng.choice(obj["trees"])[rng.choice(("vertices", "edges"))]


def add_key(rng, obj):
    rng.choice(obj["trees"])["weight"] = 1


def rename_key(rng, obj):
    t = rng.choice(obj["trees"])
    key = rng.choice(("vertices", "edges"))
    t[key[:-1]] = t.pop(key)


def empty_vertices(rng, obj):
    rng.choice(obj["trees"])["vertices"] = []


def tree_not_object(rng, obj):
    obj["trees"][rng.randrange(len(obj["trees"]))] = [[0, 0]]


def vertex_not_pair(rng, obj):
    t = rng.choice(obj["trees"])
    t["vertices"][rng.randrange(len(t["vertices"]))] = {"x": 0, "y": 0}


def edges_not_list(rng, obj):
    rng.choice(obj["trees"])["edges"] = {}


MUTATIONS = {
    "bool coordinate": set_coord(True),
    "float coordinate": set_coord(lambda c: c + 0.5),
    "integral float coordinate": set_coord(float),
    "tenths coordinate": set_coord(lambda c: c / 10),
    "str coordinate": set_coord(str),
    "null coordinate": set_coord(None),
    "coordinate 2^30": set_coord(COORD_LIMIT),
    "coordinate -2^30": set_coord(-COORD_LIMIT),
    "coordinate 2^30 + 1": set_coord(COORD_LIMIT + 1),
    "coordinate -2^30 - 1": set_coord(-COORD_LIMIT - 1),
    "vertex pair of another length": resize_vertex,
    "vertex not a list": vertex_not_pair,
    "edge pair of another length": resize_edge,
    "negative edge index": set_edge_end(-1),
    "edge index = vertex count": set_edge_end(lambda nv: nv),
    "edge index far out of range": set_edge_end(lambda nv: nv + 10**20),
    "bool edge index": set_edge_end(True),
    "float edge index": set_edge_end(0.0),
    "missing key": drop_key,
    "extra key": add_key,
    "renamed key": rename_key,
    "empty vertex list": empty_vertices,
    "tree not an object": tree_not_object,
    "edges not a list": edges_not_list,
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_mutation_parses_as_the_reference_does(name):
    rng = random.Random(name)
    for seed in range(12):
        obj = base_obj(seed)
        MUTATIONS[name](rng, obj)
        text = json.dumps(obj)
        for scale in (1, 2, 10):
            assert_same(text, scale)


def test_random_mutation_mixes_name_the_same_first_fault():
    rng = random.Random(18)
    names = sorted(MUTATIONS)
    for seed in range(300):
        obj = base_obj(seed)
        for name in rng.sample(names, rng.randint(1, 3)):
            try:
                MUTATIONS[name](rng, obj)
            except (KeyError, IndexError, TypeError, AttributeError):
                pass  # an earlier mutation removed what this one changes
        assert_same(json.dumps(obj), rng.choice((1, 3, 10)))


@pytest.mark.parametrize("seed", range(8))
def test_valid_instances_parse_as_the_reference_does(seed):
    text = json.dumps(base_obj(seed))
    for scale in (1, 2, 10):
        assert_same(text, scale)


@pytest.mark.parametrize("seed", range(4))
def test_decimal_instances_scale_to_their_integer_twins(seed):
    obj = base_obj(seed)
    decimal = copy.deepcopy(obj)
    for t in decimal["trees"]:
        t["vertices"] = [[x / 10, y / 10] for x, y in t["vertices"]]
    text = json.dumps(decimal)
    assert_same(text, 10)
    assert parse_instance(text, scale=10) == parse_instance(json.dumps(obj))
    # near 10^6-10^7 with two decimals, where a float times 100 misses its
    # integer by more than 1e-9: 5187951.9 * 100 is 518795190.00000006
    rng = random.Random(seed)
    for t in obj["trees"]:
        t["vertices"] = [
            [518795190 + x, rng.randrange(10**8, 10**9) + y] for x, y in t["vertices"]
        ]
    decimal = copy.deepcopy(obj)
    for t in decimal["trees"]:
        t["vertices"] = [[x / 100, y / 100] for x, y in t["vertices"]]
    text = json.dumps(decimal)
    assert_same(text, 100)
    assert parse_instance(text, scale=100) == parse_instance(json.dumps(obj))
