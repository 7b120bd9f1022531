"""Static SVG rendering of instances, covers, and shot-ray traces.

Fixed palette: tree edges black, regions semi-transparent fill, non-merging
rays gray, merging rays red, rays numbered in shot order. Output is
deterministic (fixed float formatting, stable element order).
"""

from __future__ import annotations

import sys

from .model import Cover, Instance, ParseError, load_json


def _is_point(v) -> bool:
    """A pair [x, y] of finite numbers; a bool is no number here."""
    return (
        isinstance(v, list)
        and len(v) == 2
        and all(type(c) in (int, float) and abs(c) <= sys.float_info.max for c in v)
    )


def read_overlay(text: str, m: int):
    """The cover and trace rays of cover JSON drawn over an instance of m
    trees, as (Cover, list of rays or None); raises ParseError when either
    is malformed or a membership names a tree outside the instance."""
    obj = load_json(text)
    cover = Cover.from_obj(obj)
    if any(not 0 <= i < m for ms in cover.membership for i in ms):
        raise ParseError(f"malformed cover: membership names a tree not in 0..{m - 1}")
    trace = obj.get("trace", {})
    if not isinstance(trace, dict):
        raise ParseError("malformed cover: trace must be an object")
    rays = trace.get("rays")
    if rays is not None and not isinstance(rays, list):
        raise ParseError("malformed cover: trace rays must be a list")
    for i, r in enumerate(rays or ()):
        if not (
            isinstance(r, dict)
            and r.keys() == {"from", "to", "merge"}
            and _is_point(r["from"])
            and _is_point(r["to"])
            and type(r["merge"]) is bool
        ):
            raise ParseError(
                f"malformed cover: trace ray {i} must be an object of "
                "from: [x, y], to: [x, y] and merge: true or false"
            )
    return cover, rays


def _fmt(v: float) -> str:
    s = f"{float(v):.3f}"
    return s.rstrip("0").rstrip(".") if "." in s else s


def render_svg(instance: Instance, cover: Cover | None = None, trace=None) -> str:
    xs: list[float] = []
    ys: list[float] = []
    for t in instance.trees:
        for x, y in t.vertices:
            xs.append(x)
            ys.append(y)
    if cover is not None:
        for robj in cover.regions:
            for x, y in _region_points(robj):
                xs.append(x)
                ys.append(y)
    if trace:
        for r in trace:
            xs.extend((r["from"][0], r["to"][0]))
            ys.extend((r["from"][1], r["to"][1]))

    margin = 4.0
    xmin, xmax = min(xs) - margin, max(xs) + margin
    ymin, ymax = min(ys) - margin, max(ys) + margin
    width = xmax - xmin
    height = ymax - ymin

    # flip y so the mathematical orientation points up
    def pt(x, y):
        return _fmt(x), _fmt(ymax + ymin - y)

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(width)} {_fmt(height)}">'
    )
    out.append(
        "<style>"
        ".tree{stroke:#000;stroke-width:0.4;}"
        ".vertex{fill:#000;}"
        ".region{fill:#3377cc;fill-opacity:0.18;stroke:#3377cc;stroke-width:0.3;}"
        ".ray{stroke:#999;stroke-width:0.25;}"
        ".ray.merge{stroke:#cc2222;stroke-width:0.35;}"
        ".raynum{font-size:2.5px;fill:#555;}"
        "</style>"
    )

    if cover is not None:
        for robj in cover.regions:
            pts = " ".join(",".join(pt(x, y)) for x, y in _region_points(robj))
            out.append(f'<polygon class="region" points="{pts}"/>')

    for t in instance.trees:
        if t.n == 1:
            x, y = pt(*t.vertices[0])
            out.append(f'<circle class="vertex" cx="{x}" cy="{y}" r="0.6"/>')
        for a, b in t.segments():
            x1, y1 = pt(*a)
            x2, y2 = pt(*b)
            out.append(
                f'<line class="tree" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>'
            )

    if trace:
        for i, r in enumerate(trace, start=1):
            cls = "ray merge" if r["merge"] else "ray"
            x1, y1 = pt(*r["from"])
            x2, y2 = pt(*r["to"])
            out.append(
                f'<line class="{cls}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>'
            )
            mx = (r["from"][0] + r["to"][0]) / 2
            my = (r["from"][1] + r["to"][1]) / 2
            tx, ty = pt(mx, my)
            out.append(f'<text class="raynum" x="{tx}" y="{ty}">{i}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _region_points(region):
    from .geom import AABB, Circle, ConvexPolygon

    if isinstance(region, ConvexPolygon):
        return list(region.vertices)
    if isinstance(region, AABB):
        return list(region.corners())
    # circles are approximated by their bounding square corner points
    c: Circle = region
    return [
        (c.cx - c.r, c.cy - c.r),
        (c.cx + c.r, c.cy - c.r),
        (c.cx + c.r, c.cy + c.r),
        (c.cx - c.r, c.cy + c.r),
    ]
