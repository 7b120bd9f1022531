"""Hull-covers and box-covers of forests of non-crossing plane trees.

The library computes the unique fixpoint partition of a forest into pairwise
disjoint regions under a region function (convex hull or axis-aligned box),
both by the defining naive merge process and by fast engines (ray shooting
with permanent ray insertion for hulls, a segment range index for boxes),
and ships the machinery to check when such covers are well-defined.
"""

__version__ = "0.1.0"

from .boxcover import box_cover_fast, maximal_boxes
from .geom import (
    AABB,
    Circle,
    ConvexPolygon,
    box_of,
    box_union,
    boxes_intersect,
    convex_hull,
    merge_convex_hulls,
    orient,
    point_in_convex_polygon,
    polygons_intersect,
    segments_intersect,
)
from .hullcover import hull_cover_fast, maximal_regions
from .model import (
    Cover,
    GeometricTree,
    Instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)

# the naive process, its min-circle code and the generators are resolved on
# first use (PEP 562), so importing the package, or its CLI, does not compile them
_PHICOVER_NAMES = frozenset(
    ("PHI", "MergePolicy", "check_phi_properties", "check_well_defined",
     "circles_intersect", "min_enclosing_circle", "naive_phi_cover")
)


def __getattr__(name):
    if name in _PHICOVER_NAMES:
        from . import phicover

        return getattr(phicover, name)
    if name == "generate":
        from .generators import generate

        return generate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AABB",
    "Circle",
    "ConvexPolygon",
    "Cover",
    "GeometricTree",
    "Instance",
    "MergePolicy",
    "PHI",
    "box_cover_fast",
    "box_of",
    "box_union",
    "boxes_intersect",
    "check_phi_properties",
    "check_well_defined",
    "circles_intersect",
    "convex_hull",
    "generate",
    "hull_cover_fast",
    "maximal_boxes",
    "maximal_regions",
    "merge_convex_hulls",
    "min_enclosing_circle",
    "naive_phi_cover",
    "orient",
    "parse_instance",
    "point_in_convex_polygon",
    "polygons_intersect",
    "segments_intersect",
    "serialize_instance",
    "validate_instance",
    "__version__",
]
