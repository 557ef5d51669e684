"""Crossing-free escape routing for grid chips.

Every row of the lattice is assigned to one die edge so the per-edge pin
counts stay balanced. Nets leave the content region through per-edge
channels as pin -> lane -> entry staircases whose lane order is chosen so
that, together with rank-preserving pin/entry pairing, no two staircases can
intersect. Inside the content region, vertical corridors between qubit
columns serve the top/bottom edges (deeper target, outer lane) and
horizontal bands under each row serve the side edges (nearer column, higher
lane). The construction is planar by design: route_pattern never produces a
crossing, at the price of only working on lattice layouts.

The four edges differ only by the axis their pins run along and their
outward sign (``_OUT``); every per-edge rule is written once in along-edge
coordinates u and across-edge coordinates v, and ``_point`` turns a (u, v)
pair into (x, y).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import landing, make_pad
from .errors import CorridorExhausted, SpecInfeasible
from .geometry import count_corners, merge_collinear
from .layout import DieBox, bus_name, feedline_ends
from .routing import Pin, RoutedPath, RoutingResult
from .topology import Topology

_EDGES = ("top", "bottom", "left", "right")
# outward sign of each edge along its across-edge axis
_OUT = {"top": 1, "bottom": -1, "left": -1, "right": 1}
# enumeration direction along each edge, per die-corner conventions:
# top runs x-descending, bottom x-ascending, left y-ascending, right
# y-descending. Pin ids and offsets follow this order.
_REVERSED = {e: _OUT[e] > 0 for e in _EDGES}
# channel inner boundary off the content box, lane band off a row's qubits,
# and a control line's standoff point off its port, um
_CLEARANCE = 20.0


def _point(edge: str, u, v):
    """(x, y) of along-edge u and across-edge v: (u, v) on top and bottom,
    (v, u) on the sides. The swap is its own inverse, so it also maps an
    (x, y) pair to (u, v)."""
    return (u, v) if edge in ("top", "bottom") else (v, u)


def edge_pin_counts(topology: Topology) -> dict[str, int]:
    m, n = topology.grid_dims
    T, B, L, R = _row_split(m, n)
    return {"top": n * T, "bottom": n * B,
            "left": m + n * L, "right": m + n * R}


def total_pins(topology: Topology) -> int:
    m, n = topology.grid_dims
    return m * n + 2 * m


def _row_split(m: int, n: int) -> tuple[int, int, int, int]:
    """How many rows escape via each edge (top, bottom, left, right).

    Chosen by exhaustive enumeration to minimize, in order: the spread of
    per-edge pin counts, top/bottom imbalance, left/right imbalance; ties
    prefer more top rows, then more left rows. Side edges always carry the
    feedline ends (one per row per side), which is the m in their count.
    """
    best_key, best = None, None
    for T in range(m + 1):
        for B in range(m - T + 1):
            for L in range(m - T - B + 1):
                R = m - T - B - L
                counts = (n * T, n * B, m + n * L, m + n * R)
                key = (max(counts) - min(counts), abs(T - B), abs(L - R), -T, -L)
                if best_key is None or key < best_key:
                    best_key, best = key, (T, B, L, R)
    return best


def _row_edges(m: int, n: int) -> dict[int, str]:
    T, B, L, R = _row_split(m, n)
    out = {}
    for r in range(B):
        out[r] = "bottom"
    for r in range(m - T, m):
        out[r] = "top"
    middle = [r for r in range(B, m - T)]
    for i, r in enumerate(middle):
        out[r] = "left" if i < L else "right"
    return out


@dataclass
class _Net:
    role: str                  # control | transmission
    edge: str
    target: str
    entry_u: float             # along-edge coordinate of the channel entry
    approach: list[tuple[float, float]]   # entry point onward, into content
    pin_u: float = 0.0
    lane: int = 0
    pin: Pin | None = None     # set by allocate_pins


@dataclass
class _EdgePlan:
    edge: str
    inner: float               # channel inner boundary (y or x)
    nets: list[_Net] = field(default_factory=list)   # ascending entry_u
    lanes_used: int = 0


@dataclass
class PinPlan:
    lane_pitch: float
    edges: dict[str, _EdgePlan] = field(default_factory=dict)


def _qubit_grid(layout):
    """Lattice origin, pitch and qubit half extent of a placed layout."""
    info = layout.grid_info
    if not info:
        raise SpecInfeasible("layout was not placed on a lattice")
    off = info["origin"]
    pitch = info["pitch"]
    half = info.get("qubit_half_extent", 250.0)
    return off, pitch, half


def _column_gaps(layout, n, off, pitch, lane_pitch, max_offset):
    """Corridor base x per column gap, validated against real geometry."""
    x_of = lambda c: off[0] + c * pitch
    col_x1 = {}
    col_x0 = {}
    for comp in layout.components:
        if comp.kind == "pad":
            continue
        b = comp.bounding_box()
        c = round(((b[0] + b[2]) / 2.0 - off[0]) / pitch)
        col_x1[c] = max(col_x1.get(c, -1e30), b[2])
        col_x0[c] = min(col_x0.get(c, 1e30), b[0])
    cx0, cy0, cx1, cy1 = layout.content_bbox()
    bases = {}
    for c in range(n):
        lo = col_x1.get(c, x_of(c))
        hi = col_x0.get(c + 1, cx1) if c + 1 < n else cx1
        base = lo + lane_pitch
        need = base + (max_offset + 1) * lane_pitch
        if need > hi - lane_pitch and max_offset >= 0:
            raise CorridorExhausted(
                f"column gap {c} is {hi - lo:.0f} um wide, cannot hold "
                f"{max_offset + 1} lanes at {lane_pitch} um pitch")
        bases[c] = base
    return bases


def _row_floor(layout, y_row, half) -> float:
    """Highest obstruction top edge strictly below this row's qubits."""
    limit = y_row - half - 1.0
    floor = -1e30
    for comp in layout.components:
        if comp.kind == "pad":
            continue
        b = comp.bounding_box()
        if b[3] < limit:
            floor = max(floor, b[3])
    for p in layout.paths:
        top = max(q[1] for q in p.points) + p.width / 2.0
        if top < limit:
            floor = max(floor, top)
    return floor


def build_nets(layout, topology, lane_pitch: float = 25.0) -> PinPlan:
    """Plan entries and in-content approach polylines for every net."""
    m, n = topology.grid_dims
    off, pitch, half = _qubit_grid(layout)
    y_of = lambda r: off[1] + r * pitch
    row_edge = _row_edges(m, n)
    feeds = feedline_ends(layout)
    T, B, L, R = _row_split(m, n)
    cx0, cy0, cx1, cy1 = layout.content_bbox()
    bound = {"top": cy1, "bottom": cy0, "left": cx0, "right": cx1}
    lam = lane_pitch
    side = half + _CLEARANCE
    plan = PinPlan(lam, {e: _EdgePlan(e, bound[e] + _OUT[e] * _CLEARANCE)
                         for e in _EDGES})

    max_off = max(T - 1, B - 1)
    bases = _column_gaps(layout, n, off, pitch, lam, max_off) \
        if (T or B) else {}

    for r in range(m):
        edge = row_edge[r]
        ep = plan.edges[edge]
        y = y_of(r)
        if edge in ("left", "right"):
            # horizontal lane band below the row; nearer column, higher lane
            floor = _row_floor(layout, y, half)
            low = y - side - (n - 1) * lam
            if low < floor + 15.0:
                raise CorridorExhausted(
                    f"row {r} band needs {n} lanes but only "
                    f"{y - side - floor:.0f} um of clear space below")
        for c in range(n):
            qid = topology.qubit(c, r)
            if edge in ("top", "bottom"):
                depth = (m - 1 - r) if edge == "top" else r
                u = bases[c] + depth * lam
            else:
                u = y - side - (c if edge == "left" else n - 1 - c) * lam
            # entry line to the standoff point's v, across to it, into port
            port, stand = landing(layout.component_by_id(qid), _CLEARANCE,
                                  "west" if edge == "left" else "east")
            ep.nets.append(_Net("control", edge, qid, u, [
                _point(edge, u, ep.inner),
                _point(edge, u, _point(edge, *stand)[1]), stand, port]))

        # feedline launch and drain pins flank every row
        bus = bus_name(topology.qubit(0, r))
        if bus not in feeds:
            raise SpecInfeasible(f"row {r} has no feedline (expected {bus})")
        for e, (fx, fy), end in zip(("left", "right"), feeds[bus],
                                    ("west", "east")):
            plan.edges[e].nets.append(_Net(
                "transmission", e, f"{bus}@{end}", fy,
                [(plan.edges[e].inner, fy), (fx, fy)]))

    for e in _EDGES:
        plan.edges[e].nets.sort(key=lambda net: net.entry_u)
        us = [net.entry_u for net in plan.edges[e].nets]
        if not all(b - a > 1.0 for a, b in zip(us, us[1:])):
            raise CorridorExhausted(f"entry collision on {e} edge")
    return plan


def _merged_zones(centers: list[float], half: float,
                  ) -> list[tuple[float, float]]:
    zones: list[tuple[float, float]] = []
    for v in centers:
        lo, hi = v - half, v + half
        if zones and lo <= zones[-1][1]:
            zones[-1] = (zones[-1][0], max(zones[-1][1], hi))
        else:
            zones.append((lo, hi))
    return zones


def _clear_of_zones(u: float, zones: list[tuple[float, float]],
                    forward: bool = False) -> float:
    moved = True
    while moved:
        moved = False
        for lo, hi in zones:
            if lo < u < hi:
                u = hi if forward or (u - lo) > (hi - u) else lo
                moved = True
                break
    return u


def _assign_lanes(nets: list[_Net], tol: float = 6.0) -> int:
    """Channel lane numbers (1-based, 1 nearest the content).

    Nets whose entry sits beyond their pin along the edge ("up" nets) take
    ascending lanes, nets heading back ("down" nets) take descending ones,
    processed so any two staircases that overlap along the edge end up in
    the order that keeps them disjoint. Straight nets drop right through.
    """
    spans = {}
    for i, net in enumerate(nets):
        lo, hi = sorted((net.pin_u, net.entry_u))
        spans[i] = (lo - tol, hi + tol)
    up = [i for i, net in enumerate(nets) if net.entry_u > net.pin_u + tol]
    down = [i for i, net in enumerate(nets) if net.entry_u < net.pin_u - tol]
    lanes: dict[int, int] = {}
    for order in (up, down[::-1]):
        for i in order:
            clash = [lanes[k] for k in order if k in lanes and
                     spans[k][0] < spans[i][1] and spans[i][0] < spans[k][1]]
            lanes[i] = 1 + max(clash, default=0)
    used = 0
    for i, net in enumerate(nets):
        net.lane = lanes.get(i, 0)
        used = max(used, net.lane)
    return used


def allocate_pins(layout, topology, lane_pitch: float = 25.0,
                  pad_size: float = 120.0, border: float = 500.0,
                  ) -> list[Pin]:
    """Place bond pads on all four die edges and pair them with targets.

    Pins spread evenly over each edge's content span, in rank order against
    their channel entries, so the escape channels stay planar. The die box
    grows to hold the channels; on small dies the origin can go negative.
    Pads are added to the layout, the full plan is cached on it, and the
    Pin records are returned (also stored in layout.pins).
    """
    plan = build_nets(layout, topology, lane_pitch)
    cx0, cy0, cx1, cy1 = layout.content_bbox()
    lam = lane_pitch
    inset = 50.0

    for e in _EDGES:
        ep = plan.edges[e]
        nets = ep.nets
        if not nets:
            ep.lanes_used = 0
            continue
        (lo, hi), _ = _point(e, (cx0 + inset, cx1 - inset),
                             (cy0 + inset, cy1 - inset))
        step = (hi - lo) / len(nets)
        # keep-out windows around the entry verticals: pin drops need
        # process-grade spacing from them, not merely non-intersection
        zones = _merged_zones(sorted(net.entry_u for net in nets), 30.0)
        min_sep = pad_size + 20.0
        prev = None
        for k, net in enumerate(nets):
            u = lo + (k + 0.5) * step
            if prev is not None and u < prev + min_sep:
                u = prev + min_sep
            u = _clear_of_zones(u, zones)
            if prev is not None and u < prev + min_sep:
                u = _clear_of_zones(prev + min_sep, zones, forward=True)
            if u > hi:
                raise CorridorExhausted(
                    f"{e} edge cannot fit {len(nets)} pins clear of the "
                    f"escape channels")
            net.pin_u = u
            prev = u
        us = [net.pin_u for net in nets]
        if not all(b > a for a, b in zip(us, us[1:])):
            raise CorridorExhausted(f"pins out of order on {e} edge")
        ep.lanes_used = _assign_lanes(nets)

    depth = {e: (plan.edges[e].lanes_used + 1) * lam + 150.0 for e in _EDGES}
    die = layout.die
    layout.die = DieBox(
        min(cx0 - border, plan.edges["left"].inner - depth["left"], die.x0),
        min(cy0 - border, plan.edges["bottom"].inner - depth["bottom"], die.y0),
        max(cx1 + border, plan.edges["right"].inner + depth["right"], die.x1),
        max(cy1 + border, plan.edges["top"].inner + depth["top"], die.y1),
    )
    die = layout.die
    die_edge = {"top": die.y1, "bottom": die.y0,
                "left": die.x0, "right": die.x1}

    pins: list[Pin] = []
    pad_c = pad_size / 2.0 + 10.0
    for e in _EDGES:
        nets = plan.edges[e].nets
        (lo, hi), _ = _point(e, (die.x0, die.x1), (die.y0, die.y1))
        for k, net in enumerate(nets[::-1] if _REVERSED[e] else nets):
            pin_id = f"{e[0].upper()}{k}"
            pos = _point(e, net.pin_u, die_edge[e] - _OUT[e] * pad_c)
            offset = hi - net.pin_u if _REVERSED[e] else net.pin_u - lo
            # pad disjointness is a plan invariant (separation enforced
            # above); the O(components) overlap scan would dominate at scale
            layout.add_component(make_pad(pin_id, pos, pad_size, edge=e,
                                          role=net.role),
                                 check_overlap=False)
            net.pin = Pin(pin_id, e, offset, pos, net.role, net.target)
            pins.append(net.pin)

    layout.pins = pins
    layout.pin_plan = plan
    return pins


def map_pins(pins: list[Pin], topology: Topology) -> dict[str, str]:
    """Deterministic pin-to-target pairing from the edge conventions alone.

    Recomputes the assignment from pin ids and the topology; matches what
    allocate_pins stored on the pins themselves (tested, not assumed).
    """
    m, n = topology.grid_dims
    row_edge = _row_edges(m, n)
    q = topology.qubit
    bus = {r: bus_name(q(0, r)) for r in range(m)}

    # along-edge geometric order, ascending coordinate. Top and bottom run
    # column-major (within a column the corridor serves deeper rows on outer
    # lanes); sides run row-major with the feedline end above each row's
    # control lanes.
    top_rows = [r for r in range(m) if row_edge[r] == "top"]
    bot_rows = [r for r in range(m) if row_edge[r] == "bottom"]
    targets: dict[str, list[str]] = {
        "top": [q(c, r) for c in range(n) for r in reversed(top_rows)],
        "bottom": [q(c, r) for c in range(n) for r in bot_rows],
        "left": [],
        "right": [],
    }
    for r in range(m):
        if row_edge[r] == "left":
            targets["left"].extend(q(c, r) for c in reversed(range(n)))
        elif row_edge[r] == "right":
            targets["right"].extend(q(c, r) for c in range(n))
        targets["left"].append(f"{bus[r]}@west")
        targets["right"].append(f"{bus[r]}@east")

    out: dict[str, str] = {}
    for e in _EDGES:
        edge_pins = sorted((p for p in pins if p.edge == e),
                           key=lambda p: int(p.pin_id[1:]))
        tgt = targets[e]
        if _REVERSED[e]:
            tgt = list(reversed(tgt))
        if len(edge_pins) != len(tgt):
            raise SpecInfeasible(
                f"{e} edge has {len(edge_pins)} pins for {len(tgt)} targets")
        for p, t in zip(edge_pins, tgt):
            out[p.pin_id] = t
    return out


def route_pattern(layout, width: float = 10.0) -> RoutingResult:
    """Emit the staircase paths of the pin plan that ``allocate_pins``
    cached on layout; run it first. Zero crossings by construction."""
    plan = getattr(layout, "pin_plan", None)
    if plan is None:
        raise SpecInfeasible("layout has no pin plan; run allocate_pins first")
    layer = layout.routing_layer
    result = RoutingResult("pattern")
    lam = plan.lane_pitch
    for e, ep in plan.edges.items():
        for net in ep.nets:
            lane = ep.inner + _OUT[e] * net.lane * lam
            head = [net.pin.position, _point(e, net.pin_u, lane),
                    _point(e, net.entry_u, lane)]
            pts = merge_collinear(head + net.approach)
            path = RoutedPath(net.pin.net, net.role, layer, pts, width,
                              corner_count=count_corners(pts),
                              crossing_count=0)
            result.paths.append(path)
    layout.paths.extend(result.paths)
    return result

