"""The exact-arithmetic kernel: the batch searches under the engines and
the validator, and the segment predicates they call.

All functions take plain integers and rely on Python's arbitrary-precision
ints, so they are exact for every coordinate. The module keeps its name
because perfbench's tracer patches its functions by name
(``treecover._kernelpy.scan`` and others).

``scan`` reads obstacles as records ``(x, y, dx, dy, tn, td, owner)``:
the points (x, y) + t (dx, dy) with 0 <= t <= tn/td, td > 0. A tree edge
from a to b is ``(ax, ay, bx - ax, by - ay, 1, 1, owner)``, a ray that stops
at t = 1; a bare vertex is the same with (dx, dy) = (0, 0); a shot ray runs
from its integer origin along the integer direction of its chord up to the
rational parameter of its stop. ``owner`` is the tree index of the
obstacle's owner.
"""

BACKEND = "pure"


def orient(ax, ay, bx, by, cx, cy):
    """Sign of the cross product (b - a) x (c - a)."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _on_segment(px, py, ax, ay, bx, by):
    """Whether p, known to be collinear with a and b, lies on the closed
    segment ab: in its x range and in its y range, so a zero-length
    segment holds only its own point."""
    return (ax <= px <= bx or bx <= px <= ax) and (ay <= py <= by or by <= py <= ay)


def seg_relation(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Classify two closed segments: 0 disjoint, 1 touching, 2 crossing.

    The rule is SEGMENTS-INTERSECT (Cormen et al., *Introduction to
    Algorithms*, section 33.1). The segments cross properly when the ends
    of each lie strictly on opposite sides of the other's line. Otherwise
    they meet only at ends of one that lie on the other (``_ends_on``):
    none is disjoint, one distinct point touching, and two distinct points
    a collinear overlap of positive length, which counts as crossing.
    """
    d1 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = orient(p1x, p1y, p2x, p2y, q2x, q2y)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return 2
    if d1 and d2 and d3 and d4:
        return 0  # no end lies on the other's line
    return len(_ends_on(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y, d1, d2, d3, d4))


def _ends_on(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y, d1, d2, d3, d4):
    """The set of distinct ends of segments p and q that lie on the other
    segment, given ``seg_relation``'s orientations d1 to d4 of those ends
    about the other's line; it never holds more than two points."""
    ends = set()
    if d1 == 0 and _on_segment(p1x, p1y, q1x, q1y, q2x, q2y):
        ends.add((p1x, p1y))
    if d2 == 0 and _on_segment(p2x, p2y, q1x, q1y, q2x, q2y):
        ends.add((p2x, p2y))
    if d3 == 0 and _on_segment(q1x, q1y, p1x, p1y, p2x, p2y):
        ends.add((q1x, q1y))
    if d4 == 0 and _on_segment(q2x, q2y, p1x, p1y, p2x, p2y):
        ends.add((q2x, q2y))
    return ends


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
    for idx, (x, y, vx, vy, tn, td, owner) in enumerate(obstacles):
        wx = x - ox
        wy = y - oy
        den = ex * vy - ey * vx
        if den == 0:
            # collinear, or a bare vertex: the start lies at t = n / d and the
            # end at t = m / (d td); the hit is the nearer end ahead, or the
            # far end when the obstacle spans the origin
            if ex * wy - ey * wx != 0:
                continue
            d = ex * ex + ey * ey
            n = ex * wx + ey * wy
            m = n * td + (ex * vx + ey * vy) * tn
            if n <= 0 or 0 < m < n * td:
                if m <= 0:
                    continue
                n = m
                d *= td
        else:
            n = wx * vy - wy * vx
            sn = wx * ey - wy * ex
            if den < 0:
                den = -den
                n = -n
                sn = -sn
            if n <= 0 or sn < 0 or sn * td > tn * den:
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


def find_contacts(sx1, sy1, sx2, sy2, xlo, ylo, xhi, yhi, seg_tree):
    """Contact check over all segment pairs, used by the instance validator.

    Takes the segments' ends and their extents (xlo <= xhi, ylo <= yhi).
    Returns sorted index pairs (i, j), i < j, where the closed segments
    touch or cross, except the legal case of two edges of the same tree
    meeting exactly at a shared endpoint. An x-interval sweep prunes the
    candidate pairs (worst case still quadratic, near-linear on real
    inputs). On a valid input most pairs left are two edges of one tree
    at their shared vertex s. Those are decided inline, for speed, by
    ``seg_relation``'s rule applied to a shared end: s lies on both, and a
    second meeting end exists, making the pair cross, iff their other ends
    point the same way from s (cross product 0, dot product > 0).
    ``seg_relation`` classifies every other pair.
    """
    order = sorted(range(len(xlo)), key=xlo.__getitem__)
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
            ax, ay, bx, by = sx1[i], sy1[i], sx2[i], sy2[i]
            cx, cy, dx, dy = sx1[j], sy1[j], sx2[j], sy2[j]
            if seg_tree[i] != seg_tree[j]:
                if not seg_relation(ax, ay, bx, by, cx, cy, dx, dy):
                    continue
            elif (ax == cx and ay == cy) or (ax == dx and ay == dy):
                ux, uy = bx - ax, by - ay
                wx, wy = (dx - ax, dy - ay) if cx == ax and cy == ay else (cx - ax, cy - ay)
                if ux * wy != uy * wx or ux * wx + uy * wy <= 0:
                    continue
            elif (bx == cx and by == cy) or (bx == dx and by == dy):
                ux, uy = ax - bx, ay - by
                wx, wy = (dx - bx, dy - by) if cx == bx and cy == by else (cx - bx, cy - by)
                if ux * wy != uy * wx or ux * wx + uy * wy <= 0:
                    continue
            elif not seg_relation(ax, ay, bx, by, cx, cy, dx, dy):
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
