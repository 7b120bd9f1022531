"""The exact-arithmetic kernel: predicates and the batch searches under the
engines and the validator.

All functions take plain integers / flat coordinate sequences and rely on
Python's arbitrary-precision ints, so they are exact for every coordinate.
The module keeps its name because perfbench's tracer patches its functions
by name (``treecover._kernelpy.scan`` and others).

Obstacle kinds for ``scan``: 0 = segment, 1 = point, 2 = ray (origin +
integer direction + rational end parameter tn/td, td > 0).
"""

BACKEND = "pure"

OB_SEGMENT = 0
OB_POINT = 1
OB_RAY = 2


def orient(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b - a) x (c - a)."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _on_segment_collinear(px, py, ax, ay, bx, by):
    # assumes p collinear with a-b
    if ax != bx:
        lo, hi = (ax, bx) if ax <= bx else (bx, ax)
        return lo <= px <= hi
    lo, hi = (ay, by) if ay <= by else (by, ay)
    return lo <= py <= hi


def point_on_segment(px, py, ax, ay, bx, by):
    """True iff (px, py) lies on the closed segment a-b."""
    if orient(ax, ay, bx, by, px, py) != 0:
        return False
    return _on_segment_collinear(px, py, ax, ay, bx, by)


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


def point_in_convex(px, py, poly):
    """Classify an exact point against a canonical convex polygon.

    ``poly`` is a flat (x0, y0, x1, y1, ...) sequence in CCW order.
    Returns 0 outside, 1 on the boundary, 2 strictly inside.
    """
    n = len(poly) // 2
    if n == 1:
        return 1 if (px == poly[0] and py == poly[1]) else 0
    if n == 2:
        return 1 if point_on_segment(px, py, poly[0], poly[1], poly[2], poly[3]) else 0
    on_edge = False
    for i in range(n):
        ax = poly[2 * i]
        ay = poly[2 * i + 1]
        j = i + 1 if i + 1 < n else 0
        bx = poly[2 * j]
        by = poly[2 * j + 1]
        o = orient(ax, ay, bx, by, px, py)
        if o < 0:
            return 0
        if o == 0 and _on_segment_collinear(px, py, ax, ay, bx, by):
            on_edge = True
    return 1 if on_edge else 2


def _poly_bbox(poly):
    xs = poly[0::2]
    ys = poly[1::2]
    return min(xs), min(ys), max(xs), max(ys)


def _edges(poly):
    n = len(poly) // 2
    if n == 1:
        return ()
    if n == 2:
        return ((poly[0], poly[1], poly[2], poly[3]),)
    out = []
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        out.append((poly[2 * i], poly[2 * i + 1], poly[2 * j], poly[2 * j + 1]))
    return tuple(out)


def polys_intersect(p, q):
    """Closed-set intersection test for two canonical convex polygons.

    Degenerate 1- and 2-vertex polygons are handled; touching counts.
    """
    pxmin, pymin, pxmax, pymax = _poly_bbox(p)
    qxmin, qymin, qxmax, qymax = _poly_bbox(q)
    if pxmax < qxmin or qxmax < pxmin or pymax < qymin or qymax < pymin:
        return False

    np_ = len(p) // 2
    nq = len(q) // 2
    if np_ == 1:
        return point_in_convex(p[0], p[1], q) != 0
    if nq == 1:
        return point_in_convex(q[0], q[1], p) != 0

    for i in range(np_):
        if point_in_convex(p[2 * i], p[2 * i + 1], q) != 0:
            return True
    for i in range(nq):
        if point_in_convex(q[2 * i], q[2 * i + 1], p) != 0:
            return True
    for ax, ay, bx, by in _edges(p):
        for cx, cy, dx, dy in _edges(q):
            if seg_relation(ax, ay, bx, by, cx, cy, dx, dy) != 0:
                return True
    return False


def _uf_find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def scan(ox, oy, tx, ty, kinds, xs1, ys1, xs2, ys2, tns, tds, owners, parent, own_root):
    """First-hit scan of the infinite ray from (ox, oy) through (tx, ty).

    Returns (idx_all, n_all, d_all, idx_f, n_f, d_f): the nearest hit over
    all obstacles and the nearest hit over obstacles whose current
    union-find root differs from ``own_root`` (own filtering disabled when
    own_root < 0). Hits at parameter t = 0 are excluded; parameters are
    exact fractions n/d with d > 0; ties keep the lowest obstacle id.
    Index -1 means no hit.
    """
    ex = tx - ox
    ey = ty - oy
    ia = -1
    na = da = 0
    if_ = -1
    nf = df = 0
    for idx in range(len(kinds)):
        kind = kinds[idx]
        x1 = xs1[idx]
        y1 = ys1[idx]
        wx = x1 - ox
        wy = y1 - oy
        if kind == OB_POINT:
            if ex * wy - ey * wx != 0:
                continue
            n = ex * wx + ey * wy
            if n <= 0:
                continue
            d = ex * ex + ey * ey
        elif kind == OB_SEGMENT:
            vx = xs2[idx] - x1
            vy = ys2[idx] - y1
            den = ex * vy - ey * vx
            if den == 0:
                if ex * wy - ey * wx != 0:
                    continue
                d = ex * ex + ey * ey
                n1 = ex * wx + ey * wy
                n2 = ex * (xs2[idx] - ox) + ey * (ys2[idx] - oy)
                if n1 > n2:
                    n1, n2 = n2, n1
                n = n1 if n1 > 0 else n2
                if n <= 0:
                    continue
            else:
                n = wx * vy - wy * vx
                sn = wx * ey - wy * ex
                if den < 0:
                    den = -den
                    n = -n
                    sn = -sn
                if n <= 0 or sn < 0 or sn > den:
                    continue
                d = den
        else:  # OB_RAY
            vx = xs2[idx]
            vy = ys2[idx]
            den = ex * vy - ey * vx
            if den == 0:
                # collinear: only the ray's own origin can be the first hit;
                # its far endpoint always coincides with the obstacle it
                # stopped on, which reports the same parameter itself.
                if ex * wy - ey * wx != 0:
                    continue
                n = ex * wx + ey * wy
                if n <= 0:
                    continue
                d = ex * ex + ey * ey
            else:
                n = wx * vy - wy * vx
                sn = wx * ey - wy * ex
                if den < 0:
                    den = -den
                    n = -n
                    sn = -sn
                if n <= 0 or sn < 0:
                    continue
                if sn * tds[idx] > tns[idx] * den:
                    continue
                d = den
        if ia < 0 or n * da < na * d:
            ia = idx
            na = n
            da = d
        if own_root >= 0:
            if _uf_find(parent, owners[idx]) != own_root:
                if if_ < 0 or n * df < nf * d:
                    if_ = idx
                    nf = n
                    df = d
    return ia, na, da, if_, nf, df


def find_contacts(sx1, sy1, sx2, sy2, seg_tree):
    """Contact check over all segment pairs, used by the instance validator.

    Returns sorted index pairs (i, j), i < j, where the closed segments
    touch or cross, except the legal case of two edges of the same tree
    meeting exactly at a shared endpoint. An x-interval sweep prunes the
    candidate pairs (worst case still quadratic, near-linear on real
    inputs).
    """
    m = len(sx1)
    xlo = [0] * m
    xhi = [0] * m
    ylo = [0] * m
    yhi = [0] * m
    for i in range(m):
        a, b = sx1[i], sx2[i]
        xlo[i], xhi[i] = (a, b) if a <= b else (b, a)
        a, b = sy1[i], sy2[i]
        ylo[i], yhi[i] = (a, b) if a <= b else (b, a)
    order = sorted(range(m), key=lambda k: xlo[k])
    active: list[int] = []
    out = []
    for i in order:
        lo_i = xlo[i]
        keep = []
        for j in active:
            if xhi[j] < lo_i:
                continue
            keep.append(j)
            if yhi[j] < ylo[i] or ylo[j] > yhi[i]:
                continue
            rel = seg_relation(
                sx1[i], sy1[i], sx2[i], sy2[i], sx1[j], sy1[j], sx2[j], sy2[j]
            )
            if rel == 0:
                continue
            if seg_tree[i] == seg_tree[j]:
                shared = (
                    (sx1[i] == sx1[j] and sy1[i] == sy1[j])
                    or (sx1[i] == sx2[j] and sy1[i] == sy2[j])
                    or (sx2[i] == sx1[j] and sy2[i] == sy1[j])
                    or (sx2[i] == sx2[j] and sy2[i] == sy2[j])
                )
                if shared and rel == 1:
                    continue
            out.append((i, j) if i < j else (j, i))
        keep.append(i)
        active = keep
    out.sort()
    return out


def find_vertex_hits(px, py, sx1, sy1, sx2, sy2):
    """Sorted pairs (vi, sj) where vertex vi lies on segment sj but is not
    one of its endpoints (the 'no vertex interior to any edge' rule).
    Vertices are binary-searched by x per segment."""
    from bisect import bisect_left, bisect_right

    nv = len(px)
    order = sorted(range(nv), key=lambda k: px[k])
    xs = [px[k] for k in order]
    out = []
    for j in range(len(sx1)):
        ax = sx1[j]
        ay = sy1[j]
        bx = sx2[j]
        by = sy2[j]
        xlo, xhi = (ax, bx) if ax <= bx else (bx, ax)
        ylo, yhi = (ay, by) if ay <= by else (by, ay)
        for k in range(bisect_left(xs, xlo), bisect_right(xs, xhi)):
            i = order[k]
            x = px[i]
            y = py[i]
            if y < ylo or y > yhi:
                continue
            if (x == ax and y == ay) or (x == bx and y == by):
                continue
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) == 0:
                out.append((i, j))
    out.sort()
    return out
