"""All-pairs reference versions of the process-mapping geometry scans.

They compare every segment pair (and every component pair), so they are
slow but obviously complete; the index-backed scans in `sqchip.process`
must reproduce their results exactly, order included.
"""

from __future__ import annotations

from sqchip.components import LAYER_AIRBRIDGE, make_airbridge, make_indium_column
from sqchip.errors import UnresolvableOverlap
from sqchip.geometry import (
    bbox,
    path_segments,
    segment_crossing_point,
    segment_distance,
)
from sqchip.process import Violation, _endpoint_touch, _segment_at


def bridged(layout, pt) -> bool:
    for comp in layout.components:
        for poly in comp.footprint.get(LAYER_AIRBRIDGE, ()):
            x0, y0, x1, y1 = bbox(poly)
            if x0 - 1e-6 <= pt[0] <= x1 + 1e-6 and \
                    y0 - 1e-6 <= pt[1] <= y1 + 1e-6:
                return True
    return False


def path_crossings(pa, pb) -> list[tuple[float, float]]:
    pts = []
    for a1, a2 in path_segments(pa.points):
        for b1, b2 in path_segments(pb.points):
            x = segment_crossing_point(a1, a2, b1, b2)
            if x is not None:
                pts.append(x)
    return pts


def insert_air_bridges(layout, rules) -> list:
    placed = []
    serial = sum(1 for c in layout.components if c.kind == "airbridge")
    for i, pa in enumerate(layout.paths):
        for pb in layout.paths[i + 1:]:
            if pa.layer != pb.layer or pa.net == pb.net:
                continue
            for (x, y) in path_crossings(pa, pb):
                if bridged(layout, (x, y)):
                    continue
                seg = _segment_at(pb.points, (x, y))
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
