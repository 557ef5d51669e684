"""Planar geometry primitives shared by layout, routing and process mapping.

Polygons are lists of (x, y) tuples in micrometres, implicitly closed.
Paths are open polylines. Everything works on plain floats; callers that
need exact comparisons keep their coordinates on a coarse grid.
"""

from __future__ import annotations

import math


def bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def bbox_union(boxes):
    boxes = list(boxes)
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def point_in_polygon(pt, poly):
    """Even-odd rule; points on the boundary count as inside."""
    x, y = pt
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if _on_segment((x, y), (x1, y1), (x2, y2)):
            return True
        if (y1 > y) != (y2 > y):
            xi = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xi > x:
                inside = not inside
    return inside


def _on_segment(p, a, b):
    cross = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    if abs(cross) > 1e-9 * (abs(b[0] - a[0]) + abs(b[1] - a[1]) + 1.0):
        return False
    return (min(a[0], b[0]) - 1e-12 <= p[0] <= max(a[0], b[0]) + 1e-12
            and min(a[1], b[1]) - 1e-12 <= p[1] <= max(a[1], b[1]) + 1e-12)


def point_segment_distance(p, a, b):
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def point_polygon_distance(pt, poly):
    """0 when the point lies inside; else distance to the closest edge."""
    if point_in_polygon(pt, poly):
        return 0.0
    n = len(poly)
    return min(point_segment_distance(pt, poly[i], poly[(i + 1) % n])
               for i in range(n))


def segment_distance(a, b, c, d):
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(point_segment_distance(a, c, d),
               point_segment_distance(b, c, d),
               point_segment_distance(c, a, b),
               point_segment_distance(d, a, b))


def _orient(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if v > 1e-12:
        return 1
    if v < -1e-12:
        return -1
    return 0


def segments_intersect(a, b, c, d):
    """True if closed segments ab and cd share any point."""
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    for p, u, v in ((c, a, b), (d, a, b), (a, c, d), (b, c, d)):
        if _orient(u, v, p) == 0 and _on_segment(p, u, v):
            return True
    return False


def segment_crossing_point(a, b, c, d):
    """Proper (transversal, interior) crossing point of ab and cd, or None.

    Shared endpoints and collinear overlaps do not count: an air bridge can
    only be placed where one line passes over another.
    """
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-12:
        return None
    qp = (c[0] - a[0], c[1] - a[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    eps = 1e-9
    if eps < t < 1 - eps and eps < u < 1 - eps:
        return (a[0] + t * r[0], a[1] + t * r[1])
    return None


def path_segments(points):
    return [(points[i], points[i + 1]) for i in range(len(points) - 1)]


def path_length(points):
    return sum(math.hypot(b[0] - a[0], b[1] - a[1])
               for a, b in path_segments(points))


class BinIndex:
    """Uniform-bin spatial index over axis-aligned boxes, keyed by layer.

    Space is cut into square cells of side `cell`. A box is filed under
    (layer, ix, iy) for every cell it touches, so two closed boxes that share
    a point share a cell. `query` returns the items whose box meets the query
    box (closed intervals); callers decide each candidate with their exact
    predicate.
    """

    def __init__(self, cell: float):
        if not cell > 0.0:
            raise ValueError(f"bin size must be positive, got {cell}")
        self.cell = cell
        self._bins: dict[tuple, list] = {}

    def _keys(self, layer, box):
        c = self.cell
        ix0, ix1 = math.floor(box[0] / c), math.floor(box[2] / c)
        iy0, iy1 = math.floor(box[1] / c), math.floor(box[3] / c)
        return [(layer, ix, iy) for ix in range(ix0, ix1 + 1)
                for iy in range(iy0, iy1 + 1)]

    def add(self, layer, box, item) -> None:
        """File hashable `item` under `box` = (x0, y0, x1, y1) on `layer`."""
        entry = (box, item)
        for key in self._keys(layer, box):
            self._bins.setdefault(key, []).append(entry)

    def query(self, layer, box) -> set:
        """Items on `layer` whose box meets `box`."""
        x0, y0, x1, y1 = box
        found = set()
        for key in self._keys(layer, box):
            for b, item in self._bins.get(key, ()):
                if b[0] <= x1 and x0 <= b[2] and b[1] <= y1 and y0 <= b[3]:
                    found.add(item)
        return found


def rect(x0, y0, x1, y1):
    """Axis-aligned rectangle as a counter-clockwise polygon."""
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


def merge_collinear(points):
    """Drop interior vertices that do not change direction."""
    if len(points) <= 2:
        return list(points)
    pts = list(points)
    out = [pts[0]]
    for i in range(1, len(pts) - 1):
        a, b, c = out[-1], pts[i], pts[i + 1]
        if _orient(a, b, c) == 0 and _on_segment(b, a, c):
            continue
        out.append(b)
    out.append(pts[-1])
    return out
