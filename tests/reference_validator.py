"""The validator as it stood before its single-pass rewrite, kept as the
oracle that ``tests/test_validator_reference.py`` compares
``model.validate_instance`` against.

``reference_validate`` shares no search with the package: it takes vertex
hits and contact pairs from the all-pairs oracles in ``helpers``, and each
contact's meeting point from ``segment_intersection_set``, its own copy of
``geom._segment_intersection_set`` as it was before the contact rule was
written once, so the violation messages stay pinned apart from the product.
"""

from fractions import Fraction

from treecover.geom import COORD_LIMIT
from treecover.model import Violation

from helpers import (
    cross,
    meet,
    on_segment,
    oracle_contacts,
    oracle_vertex_hits,
    segment_table,
    vertex_table,
)


def segment_intersection_set(a, b, c, d):
    """``geom._segment_intersection_set`` as it stood before the contact
    rule was written once, with the brute-force ``meet`` and ``on_segment``
    in place of the kernel's predicates. Its collinear branch orders
    points along one axis, which holds for segments of positive length,
    the only ones the validator passes.
    """
    if not meet(a, b, c, d):
        return (), False
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # collinear: order the four endpoints along the line
        key = (lambda p: p[0]) if a[0] != b[0] or c[0] != d[0] else (lambda p: p[1])
        lo1, hi1 = sorted((a, b), key=key)
        lo2, hi2 = sorted((c, d), key=key)
        lo = max(lo1, lo2, key=key)
        hi = min(hi1, hi2, key=key)
        if key(lo) == key(hi):
            return ((Fraction(lo[0]), Fraction(lo[1])),), False
        return (
            (Fraction(lo[0]), Fraction(lo[1])),
            (Fraction(hi[0]), Fraction(hi[1])),
        ), True
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        # proper crossing at one interior rational point
        rx, ry = b[0] - a[0], b[1] - a[1]
        sx, sy = d[0] - c[0], d[1] - c[1]
        den = rx * sy - ry * sx
        tn = (c[0] - a[0]) * sy - (c[1] - a[1]) * sx
        t = Fraction(tn, den)
        return ((a[0] + t * rx, a[1] + t * ry),), False
    # touching at an endpoint of one of the segments
    pts = set()
    for p, (u, v) in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b))):
        if on_segment(p, u, v):
            pts.add((Fraction(p[0]), Fraction(p[1])))
    return tuple(sorted(pts)), False


def reference_validate(instance):
    """Check every instance invariant; empty list means valid.

    Violations are data, not exceptions; entries with warning=True (shared
    axis coordinates across trees) do not make the instance invalid.
    """
    out: list[Violation] = []

    for ti, tree in enumerate(instance.trees):
        nv = len(tree.vertices)
        seen = set()
        for i, j in tree.edges:
            if i == j:
                out.append(Violation("self-loop", f"tree {ti}: edge ({i},{i})", (ti,)))
            key = (min(i, j), max(i, j))
            if key in seen:
                out.append(
                    Violation("duplicate-edge", f"tree {ti}: edge {key} repeated", (ti,))
                )
            seen.add(key)
        if len(tree.edges) != nv - 1:
            out.append(
                Violation(
                    "edge-count",
                    f"tree {ti}: {len(tree.edges)} edges for {nv} vertices",
                    (ti,),
                )
            )
        else:
            # connectivity via union-find over the edge set
            parent = list(range(nv))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for i, j in tree.edges:
                parent[find(i)] = find(j)
            roots = {find(i) for i in range(nv)}
            if len(roots) > 1:
                out.append(
                    Violation("not-connected", f"tree {ti}: {len(roots)} components", (ti,))
                )
        for x, y in tree.vertices:
            if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
                out.append(
                    Violation(
                        "coordinate-range", f"tree {ti}: ({x},{y}) exceeds 2^30", (ti,)
                    )
                )

    # global vertex distinctness
    where: dict[tuple[int, int], tuple[int, int]] = {}
    for ti, tree in enumerate(instance.trees):
        for vi, v in enumerate(tree.vertices):
            if v in where:
                oti, ovi = where[v]
                out.append(
                    Violation(
                        "duplicate-vertex",
                        f"vertex {v} appears in tree {oti} and tree {ti}"
                        if oti != ti
                        else f"tree {ti}: vertex {v} repeated",
                        (oti, ti) if oti != ti else (ti,),
                    )
                )
            else:
                where[v] = (ti, vi)

    segs, verts = segment_table(instance), vertex_table(instance)
    for vi, sj in oracle_vertex_hits(verts, segs):
        (x, y), tv = verts[vi]
        ts = segs[sj][1]
        out.append(
            Violation(
                "vertex-on-edge",
                f"vertex ({x},{y}) of tree {tv} lies inside an edge of tree {ts}",
                tuple(sorted({tv, ts})),
            )
        )

    for i, j in oracle_contacts(segs):
        (a, b), ti, ei = segs[i]
        (c, d), tj, ej = segs[j]
        pts, _ = segment_intersection_set(a, b, c, d)
        at = ""
        if pts:
            px_, py_ = pts[0]
            fx = int(px_) if px_.denominator == 1 else px_
            fy = int(py_) if py_.denominator == 1 else py_
            at = f" at ({fx},{fy})"
        if ti == tj:
            out.append(
                Violation("edges-cross", f"tree {ti}: edges {ei} and {ej} cross{at}", (ti,))
            )
        else:
            out.append(
                Violation("edges-cross", f"trees {ti} and {tj}: edges cross{at}", (ti, tj))
            )

    # warning: shared axis coordinate across different trees (box-cover ties)
    xs_seen: dict[int, int] = {}
    ys_seen: dict[int, int] = {}
    x_flagged = set()
    y_flagged = set()
    for ti, tree in enumerate(instance.trees):
        for x, y in tree.vertices:
            if x in xs_seen and xs_seen[x] != ti and x not in x_flagged:
                out.append(
                    Violation(
                        "shared-coordinate",
                        f"trees {xs_seen[x]} and {ti} share x = {x}",
                        (xs_seen[x], ti),
                        warning=True,
                    )
                )
                x_flagged.add(x)
            xs_seen.setdefault(x, ti)
            if y in ys_seen and ys_seen[y] != ti and y not in y_flagged:
                out.append(
                    Violation(
                        "shared-coordinate",
                        f"trees {ys_seen[y]} and {ti} share y = {y}",
                        (ys_seen[y], ti),
                        warning=True,
                    )
                )
                y_flagged.add(y)
            ys_seen.setdefault(y, ti)

    return out
