"""The instance parser as it stood before the columnar one, kept verbatim
as the oracle that ``tests/test_parse_reference.py`` compares
``model.parse_instance`` against: one pass over the wire trees, item by
item, that raises on the first fault it meets. Its one change is the rule
for decimals above scale 1: it reads them as ``Decimal`` and scales them as
``Fraction``s, exactly, where it once scaled floats within a tolerance.
``Fraction`` builds 10^-e for an exponent e, so it suits only inputs of
modest exponents.
"""

import json
from decimal import Decimal
from fractions import Fraction

from treecover.geom import COORD_LIMIT
from treecover.model import GeometricTree, Instance, ParseError


def _as_coord(v, scale: int, ti: int, vi: int, axis: str):
    # the location prefix is formatted only on error: this runs per coordinate
    if type(v) is int:
        iv = v * scale
    elif type(v) is Decimal and scale != 1:
        scaled = Fraction(v) * scale
        if scaled.denominator != 1:
            raise ParseError(f"tree {ti} vertex {vi} {axis}: {v} * {scale} is not an integer")
        iv = int(scaled)
    else:
        raise ParseError(
            f"tree {ti} vertex {vi} {axis}: expected integer coordinate, got {v!r}"
        )
    if abs(iv) > COORD_LIMIT:
        raise ParseError(
            f"tree {ti} vertex {vi} {axis}: coordinate {iv} out of range (|c| <= 2^30)"
        )
    return iv


def parse_instance(text: str, scale: int = 1) -> Instance:
    """Parse the JSON wire format; rejects malformed input before validation."""
    try:
        obj = json.loads(text, parse_float=Decimal if scale != 1 else None)
    except json.JSONDecodeError as e:
        raise ParseError(f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    extra = set(obj) - {"trees"}
    if extra:
        raise ParseError(f"unknown keys: {sorted(extra)}")
    if "trees" not in obj or not isinstance(obj["trees"], list):
        raise ParseError('missing "trees" list')
    if not obj["trees"]:
        raise ParseError("empty forest")
    trees = []
    for ti, tobj in enumerate(obj["trees"]):
        if not isinstance(tobj, dict):
            raise ParseError(f"tree {ti}: expected object")
        extra = set(tobj) - {"vertices", "edges"}
        if extra:
            raise ParseError(f"tree {ti}: unknown keys {sorted(extra)}")
        vraw = tobj.get("vertices")
        eraw = tobj.get("edges")
        if not isinstance(vraw, list) or not vraw:
            raise ParseError(f"tree {ti}: vertices must be a nonempty list")
        if not isinstance(eraw, list):
            raise ParseError(f"tree {ti}: edges must be a list")
        verts = []
        for vi, pair in enumerate(vraw):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(f"tree {ti} vertex {vi}: expected [x, y]")
            verts.append(
                (
                    _as_coord(pair[0], scale, ti, vi, "x"),
                    _as_coord(pair[1], scale, ti, vi, "y"),
                )
            )
        edges = []
        for ei, pair in enumerate(eraw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or type(pair[0]) is not int
                or type(pair[1]) is not int
            ):
                raise ParseError(f"tree {ti} edge {ei}: expected [i, j] integer indices")
            i, j = pair
            if not (0 <= i < len(verts)) or not (0 <= j < len(verts)):
                raise ParseError(f"tree {ti} edge {ei}: index out of range")
            edges.append((i, j))
        trees.append(GeometricTree(tuple(verts), tuple(edges)))
    return Instance(tuple(trees))

