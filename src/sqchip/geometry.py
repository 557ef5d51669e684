"""Planar geometry primitives shared by layout, routing and process mapping.

Polygons are lists of (x, y) tuples in micrometres, implicitly closed.
Paths are open polylines. Everything works on plain floats; callers that
need exact comparisons keep their coordinates on a coarse grid.
"""

from __future__ import annotations

import bisect
import heapq
import math

from .errors import CoordinateOverflow


def bbox(points):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return min(xs), min(ys), max(xs), max(ys)


def bbox_union(boxes):
    boxes = list(boxes)
    return (min(b[0] for b in boxes), min(b[1] for b in boxes),
            max(b[2] for b in boxes), max(b[3] for b in boxes))


def boxes_overlap(a, b) -> bool:
    """True if boxes (x0, y0, x1, y1) share positive area; touching
    boundaries do not count."""
    return a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]


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


def turning_points(points) -> list:
    """Interior vertices of a polyline (or cell walk) where its step vector
    changes, in order."""
    return [b for a, b, c in zip(points, points[1:], points[2:])
            if (b[0] - a[0], b[1] - a[1]) != (c[0] - b[0], c[1] - b[1])]


def count_corners(points) -> int:
    """Vertices of a polyline (or cell walk) where its direction changes."""
    return len(turning_points(points))


def path_length(points):
    return sum(math.hypot(b[0] - a[0], b[1] - a[1])
               for a, b in path_segments(points))


def sweep_pairs(boxes, groups, reach: float, tall: float
                ) -> list[tuple[int, int]]:
    """Index pairs (p, q) of boxes (x0, y0, x1, y1) from different groups
    (groups[n] labels box n) that meet once one is grown by `reach` (closed
    intervals), p being the box the sweep met first.

    A sweep over x: boxes enter the active set in x0 order and leave it,
    through a heap on x1, once the sweep line is more than `reach` past
    them, so every active box meets the entering one on x. Active boxes at
    most `tall` high sit in a list sorted by y0 and are range-queried with
    bisect; taller ones (a vertical leg, a long diagonal) sit in a list of
    their own, which stays short because they are mostly narrow and leave
    soon after they enter. Each range query hands its lower end to
    bisect_right as `lo`, so it looks at as many boxes as that call returns
    less `lo`. Rounding in the margins can add a pair, never drop one;
    callers decide each with their exact predicate.
    """
    bisect_left, bisect_right = bisect.bisect_left, bisect.bisect_right
    insort, heappush, heappop = bisect.insort, heapq.heappush, heapq.heappop
    short: list[tuple[float, int]] = []      # (y0, index) of active boxes
    high: list[tuple[float, int]] = []
    ends: list[tuple[float, int]] = []       # (x1, index) heap, same boxes
    pairs = []
    for n in sorted(range(len(boxes)), key=[b[0] for b in boxes].__getitem__):
        x0, y0, x1, y1 = boxes[n]
        edge = x0 - reach
        while ends and ends[0][0] < edge:
            q = heappop(ends)[1]
            _, qy0, _, qy1 = boxes[q]
            active = short if qy0 >= qy1 - tall else high
            del active[bisect_left(active, (qy0, q))]
        # a short box that reaches ylo starts at ylo - tall or above, and
        # top sorts after every (y0, index) with y0 <= y1 + reach
        ylo, top, group = y0 - reach, (y1 + reach, math.inf), groups[n]
        lo = bisect_left(short, (ylo - tall,))
        for _, q in short[lo:bisect_right(short, top, lo)]:
            if boxes[q][3] >= ylo and groups[q] != group:
                pairs.append((q, n))
        for _, q in high[:bisect_right(high, top, 0)]:
            if boxes[q][3] >= ylo and groups[q] != group:
                pairs.append((q, n))
        insort(short if y0 >= y1 - tall else high, (y0, n))
        heappush(ends, (x1, n))
    return pairs


class BinIndex:
    """Uniform-bin spatial index over axis-aligned boxes, keyed by layer.

    Space is cut into square cells of side `cell`. A box is filed under
    (layer, ix, iy) for every cell it touches, so two closed boxes that share
    a point share a cell; a box that would touch more than `WIDE` cells is
    kept instead in one list per layer that every query scans, so a box
    costs at most `WIDE` entries however large it is. `query` returns the
    items whose box meets the query box (closed intervals); callers decide
    each candidate with their exact predicate.
    """

    WIDE = 64

    def __init__(self, cell: float):
        if not cell > 0.0:
            raise ValueError(f"bin size must be positive, got {cell}")
        self.cell = cell
        self._bins: dict[tuple, list] = {}
        self._wide: dict[object, list] = {}     # layer -> [(box, item)]

    def _span(self, lo, hi):
        c = self.cell
        try:
            return range(math.floor(lo / c), math.floor(hi / c) + 1)
        except (ValueError, OverflowError):     # NaN or infinite
            raise CoordinateOverflow(
                f"box from {lo} to {hi} um is not finite") from None

    def add(self, layer, box, item) -> None:
        """File hashable `item` under `box` = (x0, y0, x1, y1) on `layer`."""
        entry = (box, item)
        bins = self._bins
        xs = self._span(box[0], box[2])
        ys = self._span(box[1], box[3])
        if len(xs) * len(ys) > self.WIDE:
            self._wide.setdefault(layer, []).append(entry)
            return
        for ix in xs:
            for iy in ys:
                filed = bins.get((layer, ix, iy))
                if filed is None:
                    bins[(layer, ix, iy)] = [entry]
                else:
                    filed.append(entry)

    def query(self, layer, box) -> set:
        """Items on `layer` whose box meets `box`."""
        x0, y0, x1, y1 = box
        bins = self._bins
        xs = self._span(x0, x1)
        ys = self._span(y0, y1)
        if len(xs) * len(ys) > self.WIDE:   # every entry on layer instead
            filed = [f for key, f in bins.items() if key[0] == layer]
        else:
            filed = [bins.get((layer, ix, iy), ()) for ix in xs for iy in ys]
        filed.append(self._wide.get(layer, ()))
        return {item for entries in filed for b, item in entries
                if b[0] <= x1 and x0 <= b[2] and b[1] <= y1 and y0 <= b[3]}


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
