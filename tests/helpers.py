"""Independent brute-force oracles used to derive and check expected values.

These deliberately avoid the library's own algorithms: the hull oracle is a
gift-wrapping march (the library uses a monotone chain), the enclosing-circle
oracle enumerates all pairs and triples, containment is a half-plane
check written from scratch, and the segment-contact oracles test every
pair of segments, or of vertex and segment, without a sweep.
"""

import math
from fractions import Fraction


def cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def wrap_hull(points):
    """Gift-wrapping convex hull, collinear points dropped, CCW order
    starting at the lexicographically smallest vertex."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) == 1:
        return pts
    if len(pts) == 2:
        return pts
    start = pts[0]
    hull = [start]
    cur = start
    while True:
        cand = None
        for p in pts:
            if p == cur:
                continue
            if cand is None:
                cand = p
                continue
            c = cross(cur, cand, p)
            if c < 0:
                cand = p
            elif c == 0:
                # collinear: keep the farther one
                d_c = (cand[0] - cur[0]) ** 2 + (cand[1] - cur[1]) ** 2
                d_p = (p[0] - cur[0]) ** 2 + (p[1] - cur[1]) ** 2
                if d_p > d_c:
                    cand = p
        if cand == start:
            break
        hull.append(cand)
        cur = cand
    if len(hull) == 2 or all(cross(hull[0], hull[1], p) == 0 for p in pts):
        return [pts[0], pts[-1]]
    return hull


def all_left_of_edges(points, hull_vertices):
    """Half-plane check: every point lies left of (or on) each hull edge."""
    n = len(hull_vertices)
    if n < 3:
        return all(cross(hull_vertices[0], hull_vertices[-1], p) == 0 for p in points)
    for i in range(n):
        a = hull_vertices[i]
        b = hull_vertices[(i + 1) % n]
        if any(cross(a, b, p) < 0 for p in points):
            return False
    return True


def brute_min_circle(points):
    """Smallest enclosing circle by enumerating all pairs and triples."""
    pts = sorted(set(tuple(p) for p in points))
    eps = 1e-7

    def contains_all(cx, cy, r):
        return all(math.dist((cx, cy), p) <= r + eps for p in pts)

    best = None
    if len(pts) == 1:
        return (float(pts[0][0]), float(pts[0][1]), 0.0)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            cx = (pts[i][0] + pts[j][0]) / 2
            cy = (pts[i][1] + pts[j][1]) / 2
            r = math.dist((cx, cy), pts[i])
            if contains_all(cx, cy, r) and (best is None or r < best[2]):
                best = (cx, cy, r)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                a, b, c = pts[i], pts[j], pts[k]
                d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
                if d == 0:
                    continue
                aa = a[0] ** 2 + a[1] ** 2
                bb = b[0] ** 2 + b[1] ** 2
                cc = c[0] ** 2 + c[1] ** 2
                ux = (aa * (b[1] - c[1]) + bb * (c[1] - a[1]) + cc * (a[1] - b[1])) / d
                uy = (aa * (c[0] - b[0]) + bb * (a[0] - c[0]) + cc * (b[0] - a[0])) / d
                r = math.dist((ux, uy), a)
                if contains_all(ux, uy, r) and (best is None or r < best[2]):
                    best = (ux, uy, r)
    return best


def frac_point(x, y):
    return (Fraction(x), Fraction(y))


def on_segment(p, a, b):
    """Whether p, integer or rational, lies on the closed segment ab."""
    return (
        cross(a, b, p) == 0
        and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def meet(a, b, c, d):
    """Whether closed segments ab and cd share a point."""
    d1, d2 = cross(c, d, a), cross(c, d, b)
    d3, d4 = cross(a, b, c), cross(a, b, d)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return any(
        on_segment(p, *s) for p, s in ((a, (c, d)), (b, (c, d)), (c, (a, b)), (d, (a, b)))
    )


def overlap_length2(a, b, c, d):
    """For collinear ab and cd: their overlap's length, times |b - a|^2 (0
    when they share one point at most); None when they are not collinear."""
    if cross(a, b, c) or cross(a, b, d):
        return None
    ux, uy = b[0] - a[0], b[1] - a[1]
    tc = (c[0] - a[0]) * ux + (c[1] - a[1]) * uy
    td = (d[0] - a[0]) * ux + (d[1] - a[1]) * uy
    return max(0, min(max(tc, td), ux * ux + uy * uy) - max(min(tc, td), 0))


def segment_table(inst):
    """(segment, tree, edge index) per edge, skipping zero-length ones,
    in the validator's order."""
    out = []
    for ti, t in enumerate(inst.trees):
        for ei, (i, j) in enumerate(t.edges):
            if t.vertices[i] != t.vertices[j]:
                out.append(((t.vertices[i], t.vertices[j]), ti, ei))
    return out


def vertex_table(inst):
    return [(v, ti) for ti, t in enumerate(inst.trees) for v in t.vertices]


def oracle_contacts(segs):
    """Pairs (i, j), i < j, of meeting segments, except two edges of one
    tree whose only common point is a shared endpoint; ``segs`` as
    ``segment_table`` returns them."""
    out = []
    for i, ((a, b), ti, _) in enumerate(segs):
        for j in range(i + 1, len(segs)):
            (c, d), tj, _ = segs[j]
            if not meet(a, b, c, d):
                continue
            shared = {a, b} & {c, d}
            if ti == tj and shared and not overlap_length2(a, b, c, d):
                continue
            out.append((i, j))
    return out


def oracle_vertex_hits(verts, segs):
    """Pairs (vertex, segment) of a vertex inside a segment, not at an end;
    ``verts`` and ``segs`` as ``vertex_table`` and ``segment_table`` return
    them."""
    return [
        (vi, sj)
        for vi, (p, _) in enumerate(verts)
        for sj, ((a, b), _, _) in enumerate(segs)
        if p != a and p != b and on_segment(p, a, b)
    ]
