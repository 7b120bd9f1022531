"""The exact-arithmetic kernel: the batch searches under the engines and
the validator, and the segment predicates they call.

All functions take plain integers and rely on Python's arbitrary-precision
ints, so they are exact for every coordinate. The module keeps its name
because perfbench's tracer patches its functions by name
(``treecover._kernelpy.scan`` and others).

``scan`` reads obstacles as records ``(kind, x1, y1, x2, y2, tn, td,
owner)``. Kind 0 is a segment from (x1, y1) to (x2, y2), zero-length for a
bare vertex; kind 1 a ray from origin (x1, y1) along the integer direction
(x2, y2) up to the rational end parameter tn/td, td > 0. ``owner`` is the
tree index of the obstacle's owner.
"""

BACKEND = "pure"

OB_SEGMENT = 0
OB_RAY = 1


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


def seg_relation(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Classify two closed segments: 0 disjoint, 1 touching, 2 crossing.

    Crossing means they share a point interior to both (this includes
    collinear overlap of positive length); touching means boundary-only
    contact.

    Segments with a shared endpoint s are decided from their other ends u
    and w about s: they cross when u and w point the same way (cross
    product 0, dot product > 0), and otherwise touch at s only, zero-length
    segments included. Two edges of a tree that meet at a vertex, the
    validator's most common pair, take this path.
    """
    if p1x == q1x and p1y == q1y:
        return _from_shared_end(p2x - p1x, p2y - p1y, q2x - p1x, q2y - p1y)
    if p1x == q2x and p1y == q2y:
        return _from_shared_end(p2x - p1x, p2y - p1y, q1x - p1x, q1y - p1y)
    if p2x == q1x and p2y == q1y:
        return _from_shared_end(p1x - p2x, p1y - p2y, q2x - p2x, q2y - p2y)
    if p2x == q2x and p2y == q2y:
        return _from_shared_end(p1x - p2x, p1y - p2y, q1x - p2x, q1y - p2y)
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


def _from_shared_end(ux, uy, wx, wy):
    # seg_relation of two segments from one point s to s + u and s + w
    return 2 if ux * wy == uy * wx and ux * wx + uy * wy > 0 else 1


def _uf_find(parent, i):
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def scan(ox, oy, tx, ty, obstacles, parent, own_root):
    """First-hit scan of the infinite ray from (ox, oy) through (tx, ty)
    over the obstacle records ``obstacles``.

    Returns (idx_all, n_all, d_all, idx_f, n_f, d_f): the nearest hit over
    all obstacles and the nearest hit over obstacles whose owner's current
    union-find root differs from ``own_root`` (own filtering disabled when
    own_root < 0). Hits at parameter t = 0 are excluded; parameters are
    exact fractions n/d with d > 0; ties keep the lowest list index.
    Index -1 means no hit.
    """
    ex = tx - ox
    ey = ty - oy
    ia = -1
    na = da = 0
    if_ = -1
    nf = df = 0
    for idx, (kind, x1, y1, x2, y2, tn, td, owner) in enumerate(obstacles):
        wx = x1 - ox
        wy = y1 - oy
        if kind == OB_SEGMENT:
            vx = x2 - x1
            vy = y2 - y1
            den = ex * vy - ey * vx
            if den == 0:
                if ex * wy - ey * wx != 0:
                    continue
                d = ex * ex + ey * ey
                n1 = ex * wx + ey * wy
                n2 = ex * (x2 - ox) + ey * (y2 - oy)
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
        else:  # OB_RAY: (x2, y2) is the direction
            den = ex * y2 - ey * x2
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
                n = wx * y2 - wy * x2
                sn = wx * ey - wy * ex
                if den < 0:
                    den = -den
                    n = -n
                    sn = -sn
                if n <= 0 or sn < 0:
                    continue
                if sn * td > tn * den:
                    continue
                d = den
        if ia < 0 or n * da < na * d:
            ia = idx
            na = n
            da = d
        if own_root >= 0:
            if _uf_find(parent, owner) != own_root:
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
    inputs), and ``seg_relation`` classifies each one that is left. On a
    valid input those are mostly two edges of one tree at their shared
    vertex, which its shared-endpoint rule decides without orientation
    tests.
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
    Vertices are binary-searched by x per segment.

    The validator passes only the vertices that can be hit: the ends of the
    segment pairs ``find_contacts`` reports, since a vertex inside one
    segment that ends another puts the two in contact, and the vertices
    that end no segment; on a valid input that leaves single-vertex trees.
    """
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
