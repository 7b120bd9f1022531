"""The validator as it stood before its single-pass rewrite, kept as the
oracle that ``tests/test_validator_reference.py`` compares
``model.validate_instance`` and ``_kernelpy.seg_relation`` against. Only
its calls into the package follow today's signatures: ``sweep_along_y``
and ``find_contacts`` read segment extents.

``reference_validate`` runs every kernel search on the whole input: the
vertex-hit search over every vertex, the contact search over every segment.
"""

from treecover import _kernelpy
from treecover._kernelpy import _on_segment_collinear, orient
from treecover.geom import COORD_LIMIT, _segment_intersection_set, sweep_along_y
from treecover.model import Violation


def seg_relation(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Classify two closed segments: 0 disjoint, 1 touching, 2 crossing.

    Crossing means they share a point interior to both (this includes
    collinear overlap of positive length); touching means boundary-only
    contact.
    """
    d1 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = orient(p1x, p1y, p2x, p2y, q2x, q2y)

    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return 2

    if d1 == 0 and d2 == 0 and d3 == 0 and d4 == 0:
        # all collinear: compare 1-D intervals along the dominant axis
        if p1x != p2x or q1x != q2x:
            a_lo, a_hi = (p1x, p2x) if p1x <= p2x else (p2x, p1x)
            b_lo, b_hi = (q1x, q2x) if q1x <= q2x else (q2x, q1x)
        else:
            a_lo, a_hi = (p1y, p2y) if p1y <= p2y else (p2y, p1y)
            b_lo, b_hi = (q1y, q2y) if q1y <= q2y else (q2y, q1y)
        lo = a_lo if a_lo >= b_lo else b_lo
        hi = a_hi if a_hi <= b_hi else b_hi
        if lo > hi:
            return 0
        return 1 if lo == hi else 2

    touch = (
        (d1 == 0 and _on_segment_collinear(p1x, p1y, q1x, q1y, q2x, q2y))
        or (d2 == 0 and _on_segment_collinear(p2x, p2y, q1x, q1y, q2x, q2y))
        or (d3 == 0 and _on_segment_collinear(q1x, q1y, p1x, p1y, p2x, p2y))
        or (d4 == 0 and _on_segment_collinear(q2x, q2y, p1x, p1y, p2x, p2y))
    )
    return 1 if touch else 0


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

    # flat segment table for the kernel batches
    sx1, sy1, sx2, sy2, seg_tree, seg_idx = [], [], [], [], [], []
    for ti, tree in enumerate(instance.trees):
        for ei, (i, j) in enumerate(tree.edges):
            a = tree.vertices[i]
            b = tree.vertices[j]
            if a == b:
                continue  # self-loop already reported
            sx1.append(a[0])
            sy1.append(a[1])
            sx2.append(b[0])
            sy2.append(b[1])
            seg_tree.append(ti)
            seg_idx.append(ei)

    px, py, p_tree = [], [], []
    for ti, tree in enumerate(instance.trees):
        for v in tree.vertices:
            px.append(v[0])
            py.append(v[1])
            p_tree.append(ti)
    # both searches return index pairs, which swapping x and y leaves alone,
    # so they sweep whichever axis keeps fewer segments active
    xlo, xhi = list(map(min, sx1, sx2)), list(map(max, sx1, sx2))
    ylo, yhi = list(map(min, sy1, sy2)), list(map(max, sy1, sy2))
    verts, segs, ext = (px, py), (sx1, sy1, sx2, sy2), (xlo, ylo, xhi, yhi)
    if sweep_along_y(*ext):
        verts, segs, ext = (py, px), (sy1, sx1, sy2, sx2), (ylo, xlo, yhi, xhi)
    for vi, sj in _kernelpy.find_vertex_hits(*verts, *segs):
        out.append(
            Violation(
                "vertex-on-edge",
                f"vertex ({px[vi]},{py[vi]}) of tree {p_tree[vi]} lies inside an edge "
                f"of tree {seg_tree[sj]}",
                tuple(sorted({p_tree[vi], seg_tree[sj]})),
            )
        )

    for i, j in _kernelpy.find_contacts(*segs, *ext, seg_tree):
        a = ((sx1[i], sy1[i]), (sx2[i], sy2[i]))
        b = ((sx1[j], sy1[j]), (sx2[j], sy2[j]))
        pts, _ = _segment_intersection_set(a[0], a[1], b[0], b[1])
        at = ""
        if pts:
            px_, py_ = pts[0]
            fx = int(px_) if px_.denominator == 1 else px_
            fy = int(py_) if py_.denominator == 1 else py_
            at = f" at ({fx},{fy})"
        ti, tj = seg_tree[i], seg_tree[j]
        if ti == tj:
            out.append(
                Violation(
                    "edges-cross",
                    f"tree {ti}: edges {seg_idx[i]} and {seg_idx[j]} cross{at}",
                    (ti,),
                )
            )
        else:
            out.append(
                Violation(
                    "edges-cross",
                    f"trees {ti} and {tj}: edges cross{at}",
                    (ti, tj),
                )
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
