"""Process mapping: design rules, fillets, air bridges, indium columns, DRC.

Rule sets are named processes. apply_rules is idempotent via a marker on the
layout (re-filleting already-filleted geometry would not be), and drc returns
an empty list exactly when the layout satisfies every checked rule.

The segment scan behind bridge crossings, DRC spacing and the widening
check files each path as runs of consecutive segments at most one spacing
reach a side (a fillet arc is one run), takes candidate run pairs from one
sweep over x per layer (geometry.sweep_pairs) and decides each segment pair
with its exact box test. Its result is sorted into all-pairs order (path
i < j, then segment of i, then of j), so bridge numbering, DRC report order
and GDS bytes match a scan over all pairs. Bridges, DRC and the widening
check share one full-reach scan per path state, kept on the layout
(ChipLayout.segment_pairs); bridges take from it the pairs that cross.
The indium keep-out marks the lattice sites each grown box covers. Deck
cover and component overlap ask the layout's own component index
(ChipLayout.near), which files each component as it is added or moved.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields

from .components import (
    LAYER_AIRBRIDGE,
    LAYER_PIN,
    make_airbridge,
    make_indium_column,
    make_pad,
)
from .errors import NonPositiveInput, SpecInfeasible, UnresolvableOverlap
from .geometry import (
    bbox,
    path_segments,
    segment_crossing_point,
    segment_distance,
    sweep_pairs,
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

    def __post_init__(self):
        # DRC compares against these: a NaN or negative spacing passes
        # every test, so a rules file with one would check clean
        for f in fields(self):
            if f.type != "float":
                continue
            value = getattr(self, f.name)
            zero_ok = f.name in ("fillet_radius", "indium_clear")
            if not (math.isfinite(value)
                    and (value >= 0.0 if zero_ok else value > 0.0)):
                raise NonPositiveInput(
                    f"process rule {f.name} must be finite and "
                    f"{'non-negative' if zero_ok else 'positive'}, "
                    f"got {value}")


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
    return [(ox + dx, oy + dy) for dx, dy in _arc_offsets(r, a1, sweep, n)]


# (r, a1, sweep, n, their signs) -> _arc(r, a1, sweep, n); a build has few
# distinct arcs. The signs tell -0.0 from 0.0, which == and hash do not.
_ARCS: dict[tuple, list[tuple[float, float]]] = {}
_ARCS_MAX = 4096


def _arc(r: float, a1: float, sweep: float, n: int):
    """Offsets from the center of n + 1 points spaced evenly along an arc
    of radius r from angle a1 through sweep."""
    return [(r * math.cos(a1 + sweep * i / n),
             r * math.sin(a1 + sweep * i / n)) for i in range(n + 1)]


def _arc_offsets(r: float, a1: float, sweep: float, n: int):
    """_arc(r, a1, sweep, n), computed once per exact argument value."""
    key = (r, a1, sweep, n, math.copysign(1.0, r), math.copysign(1.0, a1),
           math.copysign(1.0, sweep))
    offsets = _ARCS.get(key)
    if offsets is None:
        if len(_ARCS) >= _ARCS_MAX:
            _ARCS.clear()
        offsets = _ARCS[key] = _arc(r, a1, sweep, n)
    return offsets


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
    for a, b, _, d, x in _spacing_faults(layout, rules):
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


def _box(seg, grow: float = 0.0):
    (ax, ay), (bx, by) = seg
    if bx < ax:
        ax, bx = bx, ax
    if by < ay:
        ay, by = by, ay
    return (ax - grow, ay - grow, bx + grow, by + grow)


def _runs(points, cell: float):
    """Split a path into runs: maximal stretches of consecutive segments
    whose union box is at most `cell` on a side (a segment longer than that
    is a run of its own). Returns (lo, hi, box) per run, covering segments
    lo..hi-1, that is points lo..hi."""
    runs = []
    if len(points) < 2:
        return runs
    lo = hi = 0
    x0, y0 = x1, y1 = px, py = points[0]
    for x, y in points[1:]:
        ux0 = x if x < x0 else x0
        uy0 = y if y < y0 else y0
        ux1 = x if x > x1 else x1
        uy1 = y if y > y1 else y1
        if hi > lo and (ux1 - ux0 > cell or uy1 - uy0 > cell):
            runs.append((lo, hi, (x0, y0, x1, y1)))
            lo = hi
            ux0, ux1 = (x, px) if x < px else (px, x)
            uy0, uy1 = (y, py) if y < py else (py, y)
        x0, y0, x1, y1 = ux0, uy0, ux1, uy1
        px, py = x, y
        hi += 1
    runs.append((lo, hi, (x0, y0, x1, y1)))
    return runs


def _near_segment_pairs(paths, rules: ProcessRules, reach: float | None = None):
    """Segment pairs of different nets on one layer whose boxes come within
    `reach` (default: the largest spacing requirement), in all-pairs order.

    Returns [(a, b, [(s1, s2), ...]), ...] for paths a = paths[i] and
    b = paths[j], i < j, with the pairs sorted by segment index in a, then
    in b.

    Each layer's runs (see _runs; a fillet arc is one run) go through one
    geometry.sweep_pairs with a margin a hair above `reach`. A run's box
    contains each of its segments' boxes, so no candidate is lost; each
    candidate run pair is then decided segment pair by segment pair.
    """
    if reach is None:
        reach = _spacing_reach(rules, paths)
    reach += _SLACK
    # runs at most one spacing reach a side keep a run's box tight around
    # what its segments can reach; that is also the sweep's tall threshold
    cell = max(_spacing_reach(rules, paths), 1.0)
    layers: dict = {}
    for i, p in enumerate(paths):
        boxes, nets, spans = layers.setdefault(p.layer, ([], [], []))
        for lo, hi, box in _runs(p.points, cell):
            boxes.append(box)
            nets.append(p.net)
            spans.append((i, lo, hi))
    near: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for boxes, nets, spans in layers.values():
        for m, t in sweep_pairs(boxes, nets, reach + _SLACK, cell):
            if spans[t][0] < spans[m][0]:
                m, t = t, m
            pairs = _run_pairs(paths, spans[m], boxes[m], spans[t], boxes[t],
                               reach)
            if pairs:
                near.setdefault((spans[m][0], spans[t][0]), []).extend(pairs)
    found = []
    for i, j in sorted(near):
        pa, pb = paths[i].points, paths[j].points
        found.append((paths[i], paths[j],
                      [((pa[k], pa[k + 1]), (pb[l], pb[l + 1]))
                       for k, l in sorted(near[(i, j)])]))
    return found


def _run_pairs(paths, run_a, box_a, run_b, box_b, reach: float):
    """Segment pairs (k, l) of runs (i, lo, hi) of paths[i] and (j, jlo,
    jhi) of paths[j] whose boxes meet when k's is grown by reach. Each side
    is first cut to the segments that meet the other run's box (grown by
    reach for run a's), which holds every segment they pair with."""
    i, lo, hi = run_a
    j, jlo, jhi = run_b
    pa, pb = paths[i].points, paths[j].points
    x0, y0, x1, y1 = box_b
    mine = [(k, q) for k in range(lo, hi)
            for q in (_box((pa[k], pa[k + 1]), reach),)
            if x0 <= q[2] and q[0] <= x1 and y0 <= q[3] and q[1] <= y1]
    if not mine:
        return ()
    x0, y0, x1, y1 = (box_a[0] - reach, box_a[1] - reach,
                      box_a[2] + reach, box_a[3] + reach)
    theirs = [(l, b) for l in range(jlo, jhi)
              for b in (_box((pb[l], pb[l + 1])),)
              if b[0] <= x1 and x0 <= b[2] and b[1] <= y1 and y0 <= b[3]]
    return [(k, l) for k, (qx0, qy0, qx1, qy1) in mine for l, b in theirs
            if b[0] <= qx1 and qx0 <= b[2] and b[1] <= qy1 and qy0 <= b[3]]


def _segment_pairs(layout, rules: ProcessRules):
    """The full-reach _near_segment_pairs of layout.paths, scanned once per
    path state: the result is kept in layout.segment_pairs, keyed on the
    rules and each path's identity (the result holds the path objects) and
    a copy of its net, layer, width and points, so an in-place edit of a
    path shows. Bridges add only components, so DRC after them reuses the
    scan."""
    paths = layout.paths
    key = (rules, [(id(p), p.net, p.layer, p.width, list(p.points))
                   for p in paths])
    if layout.segment_pairs is None or layout.segment_pairs[0] != key:
        # never below reach 0, so the crossing candidates are a subset
        reach = max(_spacing_reach(rules, paths), 0.0)
        layout.segment_pairs = (key, _near_segment_pairs(paths, rules, reach))
    return layout.segment_pairs[1]


def _spacing_faults(layout, rules: ProcessRules):
    """Segment pairs of different nets on one layer that come closer than
    min_spacing plus their half widths, in all-pairs order.

    Yields (a, b, s1, d, x): paths a and b, a's segment s1, the centerline
    distance d, and the crossing point x of a transversal crossing, or None
    for a spacing fault. A pair of paths yields nothing after its first
    spacing fault. Segments that meet at an endpoint are in contact, so
    they are a spacing fault 0 um apart.
    """
    for a, b, pairs in _segment_pairs(layout, rules):
        need = rules.min_spacing + (a.width + b.width) / 2.0
        for s1, s2 in pairs:
            d = segment_distance(s1[0], s1[1], s2[0], s2[1])
            if d >= need:
                continue
            x = segment_crossing_point(s1[0], s1[1], s2[0], s2[1])
            yield a, b, s1, d, x
            if x is None:
                break


def insert_air_bridges(layout, rules: ProcessRules) -> list:
    """One bridge per same-layer crossing of two routed nets.

    The deck is oriented along the second net's crossing segment, so the
    earlier net passes underneath. A crossing that an existing deck already
    covers, one placed earlier in the same call included, shares it.
    """
    placed = []
    serial = sum(1 for c in layout.components if c.kind == "airbridge")
    for _, _, pairs in _segment_pairs(layout, rules):
        for s1, s2 in pairs:
            pt = segment_crossing_point(s1[0], s1[1], s2[0], s2[1])
            if pt is None or _bridged(layout, pt):
                continue
            (x1, y1), (x2, y2) = s2
            horiz = abs(x2 - x1) >= abs(y2 - y1)
            comp = make_airbridge(f"ab{serial}", pt, rules.bridge_span,
                                  rules.bridge_width,
                                  "h" if horiz else "v")
            layout.add_component(comp, check_overlap=False)
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

    # bisect on the site coordinates gives exactly the sites whose closed
    # test b[0] <= x <= b[2] (and the same on y) a keep-out box passes
    xs = [x0 + i * rules.indium_pitch for i in range(nx)]
    ys = [y0 + j * rules.indium_pitch for j in range(ny)]
    taken = bytearray(nx * ny)
    row = b"\x01" * nx

    def refuse(bx0, by0, bx1, by1):
        i0, i1 = bisect_left(xs, bx0), bisect_right(xs, bx1)
        if i0 < i1:
            for j in range(bisect_left(ys, by0), bisect_right(ys, by1)):
                taken[j * nx + i0:j * nx + i1] = row[i0:i1]

    for comp in layout.components:
        b = comp.bounding_box()
        refuse(b[0] - clear, b[1] - clear, b[2] + clear, b[3] + clear)
    for p in layout.paths:
        h = p.width / 2.0 + clear
        for seg in path_segments(p.points):
            refuse(*_box(seg, h))

    placed = []
    for j, y in enumerate(ys):
        for i, x in enumerate(xs):
            if taken[j * nx + i]:
                continue
            comp = make_indium_column(f"in{len(placed)}", (x, y),
                                      rules.indium_size)
            layout.add_component(comp, check_overlap=False)
            placed.append(comp)
    return placed


def _bridged(layout, pt: tuple[float, float]) -> bool:
    x, y = pt
    comps = layout.components
    # layer-based so re-imported geometry still counts as bridged
    decks = [bbox(poly) for i in layout.near(
                 LAYER_AIRBRIDGE, (x - 2e-6, y - 2e-6, x + 2e-6, y + 2e-6))
             for poly in comps[i].footprint.get(LAYER_AIRBRIDGE, ())]
    return any(x0 - 1e-6 <= x <= x1 + 1e-6 and y0 - 1e-6 <= y <= y1 + 1e-6
               for x0, y0, x1, y1 in decks)


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
    for a, b, s1, d, x in _spacing_faults(layout, rules):
        if x is None:
            out.append(Violation(
                "spacing",
                f"nets {a.net} and {b.net} are "
                f"{max(d - (a.width + b.width) / 2.0, 0.0):.2f} um "
                f"apart, need {rules.min_spacing} um",
                s1[0], (a.net, b.net)))
        elif not _bridged(layout, x):
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
    exempt = ("airbridge", "imported")
    comps = layout.components
    for i, ci in enumerate(comps):
        if ci.kind in exempt:
            continue
        for j in layout.overlaps(ci, after=i):
            if comps[j].kind not in exempt:
                out.append(Violation(
                    "overlap", f"{ci.comp_id} overlaps {comps[j].comp_id}",
                    ci.origin, (ci.comp_id, comps[j].comp_id)))
    return out
