"""All-pairs reference versions of the process-mapping geometry scans.

They compare every segment pair (and every component pair), so they are
slow but obviously complete; the index-backed scans in `sqchip.process`
must reproduce their results exactly, order included. ``fillet_path``
computes every arc point afresh, with no memo of arcs; the memoized one
in `sqchip.process` must reproduce its floats bit for bit.
"""

from __future__ import annotations

import math

from sqchip.components import LAYER_AIRBRIDGE, make_airbridge, make_indium_column
from sqchip.errors import UnresolvableOverlap
from sqchip.geometry import (
    bbox,
    path_segments,
    segment_crossing_point,
    segment_distance,
)
from sqchip.process import _SEGS_PER_QUARTER, _SLACK, Violation, _endpoint_touch


def fillet_corner(a, b, c, radius: float):
    """Corner b replaced by its arc, each arc point computed afresh."""
    ax, ay = a[0] - b[0], a[1] - b[1]
    cx, cy = c[0] - b[0], c[1] - b[1]
    la = math.hypot(ax, ay)
    lc = math.hypot(cx, cy)
    if la < 1e-9 or lc < 1e-9:
        return [b]
    ax, ay = ax / la, ay / la
    cx, cy = cx / lc, cy / lc
    cosang = max(-1.0, min(1.0, ax * cx + ay * cy))
    theta = math.pi - math.acos(cosang)
    if theta < 1e-6 or abs(math.pi - theta) < 1e-6:
        return [b]
    setback = radius / math.tan((math.pi - theta) / 2.0)
    r = radius
    limit = min(la, lc) / 2.0
    if setback > limit:
        r = radius * limit / setback
        setback = limit
    if r < 0.5:
        return [b]
    p1 = (b[0] + ax * setback, b[1] + ay * setback)
    p2 = (b[0] + cx * setback, b[1] + cy * setback)
    bis = (ax + cx, ay + cy)
    lb = math.hypot(*bis)
    if lb < 1e-9:
        return [b]
    d = r / math.sin((math.pi - theta) / 2.0)
    ox, oy = b[0] + bis[0] / lb * d, b[1] + bis[1] / lb * d
    a1 = math.atan2(p1[1] - oy, p1[0] - ox)
    a2 = math.atan2(p2[1] - oy, p2[0] - ox)
    sweep = a2 - a1
    while sweep > math.pi:
        sweep -= 2.0 * math.pi
    while sweep < -math.pi:
        sweep += 2.0 * math.pi
    n = max(2, round(_SEGS_PER_QUARTER * abs(sweep) / (math.pi / 2.0)))
    return [(ox + r * math.cos(a1 + sweep * i / n),
             oy + r * math.sin(a1 + sweep * i / n)) for i in range(n + 1)]


def fillet_path(points, radius: float) -> list:
    if len(points) < 3 or radius <= 0:
        return list(points)
    out = [points[0]]
    for a, b, c in zip(points, points[1:], points[2:]):
        out.extend(fillet_corner(a, b, c, radius))
    out.append(points[-1])
    return out


def bridged(layout, pt) -> bool:
    for comp in layout.components:
        for poly in comp.footprint.get(LAYER_AIRBRIDGE, ()):
            x0, y0, x1, y1 = bbox(poly)
            if x0 - 1e-6 <= pt[0] <= x1 + 1e-6 and \
                    y0 - 1e-6 <= pt[1] <= y1 + 1e-6:
                return True
    return False


def near_segment_pairs(paths, rules, reach=None) -> list:
    """Every segment pair of two different-net paths on one layer whose
    boxes come within reach (plus the index slack), as (a, b, pairs) for
    paths a before b, pairs in segment order of a, then of b."""
    if reach is None:
        reach = rules.min_spacing + max((p.width for p in paths), default=0.0)
    reach += _SLACK
    out = []
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            if a.layer != b.layer or a.net == b.net:
                continue
            pairs = []
            for s1 in path_segments(a.points):
                (ax, ay), (bx, by) = s1
                for s2 in path_segments(b.points):
                    (cx, cy), (dx, dy) = s2
                    if min(cx, dx) <= max(ax, bx) + reach \
                            and min(ax, bx) - reach <= max(cx, dx) \
                            and min(cy, dy) <= max(ay, by) + reach \
                            and min(ay, by) - reach <= max(cy, dy):
                        pairs.append((s1, s2))
            if pairs:
                out.append((a, b, pairs))
    return out


def path_crossings(pa, pb) -> list:
    """(point, segment of pb) for every crossing of pa and pb, in segment
    order of pa, then of pb."""
    out = []
    for a1, a2 in path_segments(pa.points):
        for b1, b2 in path_segments(pb.points):
            x = segment_crossing_point(a1, a2, b1, b2)
            if x is not None:
                out.append((x, (b1, b2)))
    return out


def insert_air_bridges(layout, rules) -> list:
    placed = []
    serial = sum(1 for c in layout.components if c.kind == "airbridge")
    for i, pa in enumerate(layout.paths):
        for pb in layout.paths[i + 1:]:
            if pa.layer != pb.layer or pa.net == pb.net:
                continue
            for (x, y), seg in path_crossings(pa, pb):
                if bridged(layout, (x, y)):
                    continue
                # the deck runs along the later net's crossing segment
                horiz = abs(seg[1][0] - seg[0][0]) >= abs(seg[1][1] - seg[0][1])
                comp = make_airbridge(f"ab{serial}", (x, y), rules.bridge_span,
                                      rules.bridge_width,
                                      "h" if horiz else "v")
                layout.add_component(comp, check_overlap=False)
                placed.append(comp)
                serial += 1
    return placed


def check_widening(layout, widened, rules) -> None:
    grown = {id(p) for p in widened}
    for i, a in enumerate(layout.paths):
        for b in layout.paths[i + 1:]:
            if a.layer != b.layer or a.net == b.net:
                continue
            if id(a) not in grown and id(b) not in grown:
                continue
            need = rules.min_spacing + (a.width + b.width) / 2.0
            for s1 in path_segments(a.points):
                for s2 in path_segments(b.points):
                    d = segment_distance(s1[0], s1[1], s2[0], s2[1])
                    if d >= need:
                        continue
                    if segment_crossing_point(s1[0], s1[1], s2[0], s2[1]):
                        continue
                    if d > 1e-9 or not _endpoint_touch(s1, s2):
                        raise UnresolvableOverlap(
                            f"widening {a.net} to {a.width} um leaves "
                            f"{d:.2f} um to {b.net}, below the "
                            f"{rules.min_spacing} um spacing rule")


def place_indium_columns(layout, rules) -> list:
    die = layout.die
    nx = int(die.width // rules.indium_pitch)
    ny = int(die.height // rules.indium_pitch)
    if nx < 1 or ny < 1:
        return []
    x0 = die.x0 + (die.width - (nx - 1) * rules.indium_pitch) / 2.0
    y0 = die.y0 + (die.height - (ny - 1) * rules.indium_pitch) / 2.0
    clear = rules.indium_clear + rules.indium_size / 2.0

    boxes = []
    for comp in layout.components:
        b = comp.bounding_box()
        boxes.append((b[0] - clear, b[1] - clear, b[2] + clear, b[3] + clear))
    for p in layout.paths:
        h = p.width / 2.0 + clear
        for (ax, ay), (bx, by) in path_segments(p.points):
            boxes.append((min(ax, bx) - h, min(ay, by) - h,
                          max(ax, bx) + h, max(ay, by) + h))

    placed = []
    serial = 0
    for j in range(ny):
        for i in range(nx):
            x = x0 + i * rules.indium_pitch
            y = y0 + j * rules.indium_pitch
            if any(b[0] <= x <= b[2] and b[1] <= y <= b[3] for b in boxes):
                continue
            comp = make_indium_column(f"in{serial}", (x, y), rules.indium_size)
            layout.add_component(comp, check_overlap=False)
            placed.append(comp)
            serial += 1
    return placed


def drc(layout, rules) -> list[Violation]:
    out: list[Violation] = []
    die = layout.die

    for p in layout.paths:
        if p.width < rules.min_feature - 1e-9:
            out.append(Violation(
                "min-feature",
                f"net {p.net} width {p.width} um under {rules.min_feature} um",
                p.points[0], (p.net, "")))

    for comp in layout.components:
        if comp.kind != "pad":
            continue
        size = comp.params.get("size", 0.0)
        if size < rules.pad_size - 1e-9:
            out.append(Violation(
                "pad-size",
                f"pad {comp.comp_id} is {size} um square, process wants "
                f"{rules.pad_size} um",
                comp.origin, (comp.comp_id, "")))

    # spacing between different nets on one layer, bbox-prefiltered
    paths = list(layout.paths)
    infl = rules.min_spacing + max((p.width for p in paths), default=0.0)
    pb = []
    for p in paths:
        xs = [q[0] for q in p.points]
        ys = [q[1] for q in p.points]
        h = p.width / 2.0
        pb.append((min(xs) - h - infl, min(ys) - h - infl,
                   max(xs) + h + infl, max(ys) + h + infl))
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            a, b = paths[i], paths[j]
            if a.layer != b.layer or a.net == b.net:
                continue
            if pb[i][0] > pb[j][2] or pb[j][0] > pb[i][2] \
                    or pb[i][1] > pb[j][3] or pb[j][1] > pb[i][3]:
                continue
            need = rules.min_spacing + (a.width + b.width) / 2.0
            for s1 in path_segments(a.points):
                for s2 in path_segments(b.points):
                    d = segment_distance(s1[0], s1[1], s2[0], s2[1])
                    if d >= need:
                        continue
                    x = segment_crossing_point(s1[0], s1[1], s2[0], s2[1])
                    if x is not None:
                        if not bridged(layout, x):
                            out.append(Violation(
                                "unbridged-crossing",
                                f"nets {a.net} and {b.net} cross without "
                                f"an air bridge", x, (a.net, b.net)))
                    elif d > 1e-9 or not _endpoint_touch(s1, s2):
                        out.append(Violation(
                            "spacing",
                            f"nets {a.net} and {b.net} are "
                            f"{max(d - (a.width + b.width) / 2.0, 0.0):.2f} um "
                            f"apart, need {rules.min_spacing} um",
                            s1[0], (a.net, b.net)))
                        break
                else:
                    continue
                break

    for comp in layout.components:
        b = comp.bounding_box()
        if b[0] < die.x0 - 1e-6 or b[1] < die.y0 - 1e-6 \
                or b[2] > die.x1 + 1e-6 or b[3] > die.y1 + 1e-6:
            out.append(Violation(
                "die-bounds", f"component {comp.comp_id} leaves the die",
                comp.origin, (comp.comp_id, "")))
    for p in layout.paths:
        for (x, y) in p.points:
            if not die.contains(x, y, tol=p.width):
                out.append(Violation(
                    "die-bounds", f"net {p.net} leaves the die", (x, y),
                    (p.net, "")))
                break

    comps = [c for c in layout.components
             if c.kind not in ("airbridge", "imported")]
    for i in range(len(comps)):
        bi = comps[i].bounding_box()
        for j in range(i + 1, len(comps)):
            if not (comps[i].layers() & comps[j].layers()):
                continue
            bj = comps[j].bounding_box()
            if bi[0] < bj[2] and bj[0] < bi[2] and bi[1] < bj[3] and bj[1] < bi[3]:
                out.append(Violation(
                    "overlap",
                    f"{comps[i].comp_id} overlaps {comps[j].comp_id}",
                    comps[i].origin, (comps[i].comp_id, comps[j].comp_id)))
    return out
