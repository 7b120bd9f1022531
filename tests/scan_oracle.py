"""The shooter's scan over two obstacle kinds, kept as an oracle for
``_kernelpy.scan``, which reads a single kind.

Records are ``(kind, x1, y1, x2, y2, tn, td, owner)``: kind 0 is a segment
from (x1, y1) to (x2, y2), zero-length for a bare vertex; kind 1 a ray from
origin (x1, y1) along the integer direction (x2, y2) up to the rational end
parameter tn/td, td > 0. ``two_kind_record`` converts a single-kind record
``(x, y, dx, dy, tn, td, owner)``, and ``segment_record`` builds one for a
tree edge or a bare vertex.
"""

from treecover._kernelpy import _uf_find

OB_SEGMENT = 0
OB_RAY = 1


def segment_record(a, b, owner):
    """The single-kind record of the segment from a to b, a bare vertex when
    a == b, as ``hull_cover_fast`` builds it for a tree."""
    return (a[0], a[1], b[0] - a[0], b[1] - a[1], 1, 1, owner)


def two_kind_record(ob, is_ray):
    x, y, dx, dy, tn, td, owner = ob
    if is_ray:
        return (OB_RAY, x, y, dx, dy, tn, td, owner)
    return (OB_SEGMENT, x, y, x + dx, y + dy, 0, 1, owner)


def two_kind_scan(ox, oy, tx, ty, obstacles, parent, own_root):
    """``_kernelpy.scan`` over two-kind records, same contract: the first
    hits on the chord from (ox, oy) to (tx, ty), at 0 < t <= 1, overall and
    of an owner whose root is not ``own_root``."""
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
                if n <= 0 or n > d:
                    continue
            else:
                n = wx * vy - wy * vx
                sn = wx * ey - wy * ex
                if den < 0:
                    den = -den
                    n = -n
                    sn = -sn
                if n <= 0 or n > den or sn < 0 or sn > den:
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
                d = ex * ex + ey * ey
                if n <= 0 or n > d:
                    continue
            else:
                n = wx * y2 - wy * x2
                sn = wx * ey - wy * ex
                if den < 0:
                    den = -den
                    n = -n
                    sn = -sn
                if n <= 0 or n > den or sn < 0:
                    continue
                if sn * td > tn * den:
                    continue
                d = den
        if ia < 0 or n * da < na * d:
            ia = idx
            na = n
            da = d
        if _uf_find(parent, owner) != own_root:
            if if_ < 0 or n * df < nf * d:
                if_ = idx
                nf = n
                df = d
    return ia, na, da, if_, nf, df
