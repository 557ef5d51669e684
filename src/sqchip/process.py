"""Process mapping: design rules, fillets, air bridges, indium columns, DRC.

Rule sets are named processes. apply_rules is idempotent via a marker on the
layout (re-filleting already-filleted geometry would not be), and drc returns
an empty list exactly when the layout satisfies every checked rule.

The pairwise scans (bridge crossings and deck cover, DRC spacing and
component overlap, the widening check, the indium keep-out) take candidates
from a geometry.BinIndex and decide each with its exact predicate. The
segment scan files each path as runs of consecutive segments that fit one
bin, so a fillet arc is one index entry, and box-tests segment pairs only
inside two runs that meet. All scans visit candidates in all-pairs order
(path i < j, then segment of i, then of j), so bridge numbering, DRC report
order and GDS bytes match a scan over all pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .components import (
    LAYER_AIRBRIDGE,
    LAYER_PIN,
    make_airbridge,
    make_indium_column,
    make_pad,
)
from .errors import SpecInfeasible, UnresolvableOverlap
from .geometry import (
    BinIndex,
    bbox,
    boxes_overlap,
    path_segments,
    segment_crossing_point,
    segment_distance,
)


@dataclass(frozen=True)
class ProcessRules:
    name: str
    min_feature: float        # narrowest printable trace, um
    min_spacing: float        # same-layer edge-to-edge clearance, um
    fillet_radius: float      # corner rounding radius for routed paths, um
    bridge_span: float        # air-bridge deck length, um
    bridge_width: float       # air-bridge deck width, um
    indium_pitch: float       # bump lattice pitch, um
    indium_size: float        # bump square side, um
    indium_clear: float       # bump keep-out from any geometry, um
    pad_size: float = 120.0   # bond-pad square side, um


PROCESS_LIBRARY = {
    "generic-10um": ProcessRules("generic-10um", 10.0, 10.0, 10.0,
                                 40.0, 10.0, 500.0, 15.0, 30.0, 120.0),
    "fine-4um": ProcessRules("fine-4um", 4.0, 4.0, 4.0,
                             24.0, 6.0, 200.0, 8.0, 15.0, 80.0),
}


def get_process(name: str) -> ProcessRules:
    try:
        return PROCESS_LIBRARY[name]
    except KeyError:
        raise SpecInfeasible(f"unknown process {name!r}; have "
                             f"{sorted(PROCESS_LIBRARY)}") from None


@dataclass
class Violation:
    rule: str                 # min-feature | pad-size | spacing |
                              # unbridged-crossing | die-bounds | overlap
    message: str
    where: tuple[float, float] | None = None
    subjects: tuple[str, str] = ("", "")


# arc points per quarter turn of a fillet
_SEGS_PER_QUARTER = 16


def _fillet_corner(a, b, c, radius: float):
    """Replace corner b with an arc tangent to both legs; returns arc points."""
    ax, ay = a[0] - b[0], a[1] - b[1]
    cx, cy = c[0] - b[0], c[1] - b[1]
    la = math.hypot(ax, ay)
    lc = math.hypot(cx, cy)
    if la < 1e-9 or lc < 1e-9:
        return [b]
    ax, ay = ax / la, ay / la
    cx, cy = cx / lc, cy / lc
    cosang = max(-1.0, min(1.0, ax * cx + ay * cy))
    theta = math.pi - math.acos(cosang)       # turn angle
    if theta < 1e-6 or abs(math.pi - theta) < 1e-6:
        return [b]                            # straight or U-turn
    setback = radius / math.tan((math.pi - theta) / 2.0)
    r = radius
    limit = min(la, lc) / 2.0
    if setback > limit:                       # legs too short, shrink radius
        r = radius * limit / setback
        setback = limit
    if r < 0.5:
        return [b]
    p1 = (b[0] + ax * setback, b[1] + ay * setback)
    p2 = (b[0] + cx * setback, b[1] + cy * setback)
    # arc center along the angle bisector
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


def fillet_path(points: list[tuple[float, float]], radius: float,
                ) -> list[tuple[float, float]]:
    if len(points) < 3 or radius <= 0:
        return list(points)
    out = [points[0]]
    for a, b, c in zip(points, points[1:], points[2:]):
        out.extend(_fillet_corner(a, b, c, radius))
    out.append(points[-1])
    return out


def apply_rules(layout, rules: ProcessRules):
    """Widen sub-minimum traces, fillet corners, resize bond pads; marks
    the layout.

    Calling twice with the same rules is a no-op; switching processes after
    geometry has been filleted is refused.
    """
    if layout.applied_rules == rules.name:
        return layout
    if layout.applied_rules is not None:
        raise SpecInfeasible(
            f"layout already mapped to {layout.applied_rules!r}")
    widened = []
    for p in layout.paths:
        if p.kind == "feedline":
            continue          # couples to resonators; geometry stays put
        if p.width < rules.min_feature:
            p.width = rules.min_feature
            widened.append(p)
        p.points = fillet_path(p.points, rules.fillet_radius)
    if widened:
        _check_widening(layout, widened, rules)
    for comp in layout.components:
        if comp.kind != "pad" or comp.params.get("size") == rules.pad_size:
            continue
        pad = make_pad(comp.comp_id, comp.origin, rules.pad_size,
                       comp.params["edge"], comp.params["role"])
        comp.set_footprint(LAYER_PIN, pad.footprint[LAYER_PIN])
        comp.ports["inner"] = pad.ports["inner"]
        comp.params["size"] = rules.pad_size
    layout.applied_rules = rules.name
    return layout


def _check_widening(layout, widened, rules: ProcessRules) -> None:
    """Fatter traces must not eat the spacing margin to their neighbors."""
    grown = {id(p) for p in widened}
    for a, b, _, d, x in _spacing_faults(layout.paths, rules):
        # transversal crossings are legal, they get bridges
        if x is None and (id(a) in grown or id(b) in grown):
            raise UnresolvableOverlap(
                f"widening {a.net} to {a.width} um leaves "
                f"{d:.2f} um to {b.net}, below the "
                f"{rules.min_spacing} um spacing rule")


# Index queries widen exact-predicate reaches by this much, so rounding in
# a box edge can only add candidates, never drop one.
_SLACK = 1e-6


def _spacing_reach(rules: ProcessRules, paths) -> float:
    """Widest centerline gap at which two same-layer nets can still
    violate spacing."""
    return rules.min_spacing + max((p.width for p in paths), default=0.0)


def _bin_size(rules: ProcessRules, paths) -> float:
    # the query box of a short segment then touches one to four cells
    return max(8.0 * _spacing_reach(rules, paths), 1.0)


def _box(seg, grow: float = 0.0):
    (ax, ay), (bx, by) = seg
    return (min(ax, bx) - grow, min(ay, by) - grow,
            max(ax, bx) + grow, max(ay, by) + grow)


def _runs(points, cell: float):
    """Split a path into runs: maximal stretches of consecutive segments
    whose union box is at most `cell` on a side (a segment longer than that
    is a run of its own). Returns (lo, hi, box) per run, covering segments
    lo..hi-1, that is points lo..hi."""
    runs = []
    lo, last = 0, len(points) - 1
    while lo < last:
        x0, y0 = x1, y1 = points[lo]
        hi = lo
        while hi < last:
            x, y = points[hi + 1]
            ux0, uy0 = min(x0, x), min(y0, y)
            ux1, uy1 = max(x1, x), max(y1, y)
            if hi > lo and (ux1 - ux0 > cell or uy1 - uy0 > cell):
                break
            x0, y0, x1, y1 = ux0, uy0, ux1, uy1
            hi += 1
        runs.append((lo, hi, (x0, y0, x1, y1)))
        lo = hi
    return runs


def _near_segment_pairs(paths, rules: ProcessRules, reach: float | None = None):
    """Segment pairs of different nets on one layer whose boxes come within
    `reach` (default: the largest spacing requirement), in all-pairs order.

    Yields (a, b, [(s1, s2), ...]) for paths a = paths[i], b = paths[j],
    i < j, with the pairs sorted by segment index in a, then in b. Pairs are
    gathered one path at a time, never for the whole layout at once.

    The index holds runs of segments (see _runs), not single segments: a
    fillet arc is one entry instead of sixteen. A run's box contains each of
    its segments' boxes, so a run query loses no candidate; the segment
    pairs of two runs that meet are then box-tested one by one.
    """
    if reach is None:
        reach = _spacing_reach(rules, paths)
    reach += _SLACK
    cell = _bin_size(rules, paths)
    runs = [_runs(p.points, cell) for p in paths]
    index = BinIndex(cell)
    for i, p in enumerate(paths):
        for r, (_, _, box) in enumerate(runs[i]):
            index.add(p.layer, box, (i, r))
    for i, a in enumerate(paths):
        near: dict[int, list[tuple[int, int]]] = {}
        for lo, hi, (x0, y0, x1, y1) in runs[i]:
            grown = (x0 - reach, y0 - reach, x1 + reach, y1 + reach)
            for j, r in index.query(a.layer, grown):
                if j <= i or paths[j].net == a.net:
                    continue
                jlo, jhi, _ = runs[j][r]
                theirs = [(l, _box(seg)) for l, seg in enumerate(
                    path_segments(paths[j].points[jlo:jhi + 1]), jlo)]
                for k, seg in enumerate(
                        path_segments(a.points[lo:hi + 1]), lo):
                    qx0, qy0, qx1, qy1 = _box(seg, reach)
                    for l, b in theirs:
                        if b[0] <= qx1 and qx0 <= b[2] and b[1] <= qy1 \
                                and qy0 <= b[3]:
                            near.setdefault(j, []).append((k, l))
        for j in sorted(near):
            pa, pb = a.points, paths[j].points
            yield a, paths[j], [((pa[k], pa[k + 1]), (pb[l], pb[l + 1]))
                                for k, l in sorted(near[j])]


def _spacing_faults(paths, rules: ProcessRules):
    """Segment pairs of different nets on one layer that come closer than
    min_spacing plus their half widths, in all-pairs order.

    Yields (a, b, s1, d, x): paths a and b, a's segment s1, the centerline
    distance d, and the crossing point x of a transversal crossing, or None
    for a spacing fault. A pair of paths yields nothing after its first
    spacing fault, and segments that only touch at an endpoint are skipped.
    """
    for a, b, pairs in _near_segment_pairs(paths, rules):
        need = rules.min_spacing + (a.width + b.width) / 2.0
        for s1, s2 in pairs:
            d = segment_distance(s1[0], s1[1], s2[0], s2[1])
            if d >= need:
                continue
            x = segment_crossing_point(s1[0], s1[1], s2[0], s2[1])
            if x is not None or d > 1e-9 or not _endpoint_touch(s1, s2):
                yield a, b, s1, d, x
                if x is None:
                    break


def insert_air_bridges(layout, rules: ProcessRules) -> list:
    """One bridge per same-layer crossing of two routed nets.

    The deck is oriented along the second net's crossing segment, so the
    earlier net passes underneath. Crossings closer than a deck length to an existing
    bridge share it.
    """
    placed = []
    serial = sum(1 for c in layout.components if c.kind == "airbridge")
    decks = _deck_index(layout, rules)
    for pa, pb, pairs in _near_segment_pairs(layout.paths, rules, reach=0.0):
        for s1, s2 in pairs:
            pt = segment_crossing_point(s1[0], s1[1], s2[0], s2[1])
            if pt is None or _bridged(decks, pt):
                continue
            (x1, y1), (x2, y2) = s2
            horiz = abs(x2 - x1) >= abs(y2 - y1)
            comp = make_airbridge(f"ab{serial}", pt, rules.bridge_span,
                                  rules.bridge_width,
                                  "h" if horiz else "v")
            layout.add_component(comp, check_overlap=False)
            _add_decks(decks, comp)
            placed.append(comp)
            serial += 1
    return placed


def place_indium_columns(layout, rules: ProcessRules) -> list:
    """Bond-bump lattice for flip-chip stacks: a centered grid at the process
    pitch, skipping sites too close to any existing geometry."""
    if not layout.flip_chip:
        raise SpecInfeasible("indium columns apply to flip-chip layouts only")
    die = layout.die
    nx = int(die.width // rules.indium_pitch)
    ny = int(die.height // rules.indium_pitch)
    if nx < 1 or ny < 1:
        return []
    x0 = die.x0 + (die.width - (nx - 1) * rules.indium_pitch) / 2.0
    y0 = die.y0 + (die.height - (ny - 1) * rules.indium_pitch) / 2.0
    clear = rules.indium_clear + rules.indium_size / 2.0

    keepout = BinIndex(_bin_size(rules, layout.paths))
    for comp in layout.components:
        b = comp.bounding_box()
        box = (b[0] - clear, b[1] - clear, b[2] + clear, b[3] + clear)
        keepout.add(None, box, box)
    for p in layout.paths:
        h = p.width / 2.0 + clear
        for seg in path_segments(p.points):
            box = _box(seg, h)
            keepout.add(None, box, box)

    placed = []
    serial = 0
    for j in range(ny):
        for i in range(nx):
            x = x0 + i * rules.indium_pitch
            y = y0 + j * rules.indium_pitch
            if keepout.query(None, (x, y, x, y)):
                continue
            comp = make_indium_column(f"in{serial}", (x, y), rules.indium_size)
            layout.add_component(comp, check_overlap=False)
            placed.append(comp)
            serial += 1
    return placed


def _deck_index(layout, rules: ProcessRules) -> BinIndex:
    decks = BinIndex(_bin_size(rules, layout.paths))
    for comp in layout.components:
        _add_decks(decks, comp)
    return decks


def _add_decks(decks: BinIndex, comp) -> None:
    # layer-based so re-imported geometry still counts as bridged
    for poly in comp.footprint.get(LAYER_AIRBRIDGE, ()):
        box = bbox(poly)
        decks.add(LAYER_AIRBRIDGE, box, box)


def _bridged(decks: BinIndex, pt: tuple[float, float]) -> bool:
    x, y = pt
    near = (x - 2e-6, y - 2e-6, x + 2e-6, y + 2e-6)
    return any(x0 - 1e-6 <= x <= x1 + 1e-6 and y0 - 1e-6 <= y <= y1 + 1e-6
               for x0, y0, x1, y1 in decks.query(LAYER_AIRBRIDGE, near))


def drc(layout, rules: ProcessRules) -> list[Violation]:
    """Design-rule check; empty result means the layout is clean.

    Checks: path widths against min_feature, bond-pad sizes, same-layer
    net-to-net spacing (crossings must carry an air bridge), geometry inside
    the die, and same-layer component overlaps.
    """
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

    # spacing between different nets on one layer
    decks = _deck_index(layout, rules)
    for a, b, s1, d, x in _spacing_faults(layout.paths, rules):
        if x is None:
            out.append(Violation(
                "spacing",
                f"nets {a.net} and {b.net} are "
                f"{max(d - (a.width + b.width) / 2.0, 0.0):.2f} um "
                f"apart, need {rules.min_spacing} um",
                s1[0], (a.net, b.net)))
        elif not _bridged(decks, x):
            out.append(Violation(
                "unbridged-crossing",
                f"nets {a.net} and {b.net} cross without "
                f"an air bridge", x, (a.net, b.net)))

    # everything inside the die
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

    # same-layer component overlap (bounding boxes); imported geometry is
    # exempt: stroked corners legitimately overlap and structure provenance
    # is gone after a round trip, so box tests there are meaningless
    comps = [c for c in layout.components
             if c.kind not in ("airbridge", "imported")]
    boxes = BinIndex(_bin_size(rules, layout.paths))
    for j, c in enumerate(comps):
        for layer in c.footprint:
            boxes.add(layer, c.bounding_box(), j)
    for i, ci in enumerate(comps):
        bi = ci.bounding_box()
        near = set()
        for layer in ci.footprint:
            near |= boxes.query(layer, bi)
        for j in sorted(near):
            if j <= i:
                continue
            if boxes_overlap(bi, comps[j].bounding_box()):
                out.append(Violation(
                    "overlap", f"{ci.comp_id} overlaps {comps[j].comp_id}",
                    ci.origin, (ci.comp_id, comps[j].comp_id)))
    return out


def _endpoint_touch(s1, s2, tol: float = 1e-6) -> bool:
    ends = (s1[0], s1[1])
    for e in ends:
        for f in (s2[0], s2[1]):
            if abs(e[0] - f[0]) < tol and abs(e[1] - f[1]) < tol:
                return True
    return False


def select_process(layout, candidates: list[ProcessRules] | None = None,
                   weights: dict[str, float] | None = None) -> ProcessRules:
    """Pick the rule set with the lowest weighted violation count; ties go
    to the lexicographically first process name."""
    if candidates is None:
        candidates = [PROCESS_LIBRARY[k] for k in sorted(PROCESS_LIBRARY)]
    if not candidates:
        raise SpecInfeasible("no candidate processes")
    w = weights or {}
    scored = []
    for rules in candidates:
        score = sum(w.get(v.rule, 1.0) for v in drc(layout, rules))
        scored.append((score, rules.name, rules))
    scored.sort(key=lambda t: (t[0], t[1]))
    return scored[0][2]
