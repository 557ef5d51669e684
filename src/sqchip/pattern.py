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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import LAYER_OPPOSITE, LAYER_ROUTING, make_pad
from .errors import CorridorExhausted, SpecInfeasible
from .geometry import merge_collinear
from .layout import DieBox
from .routing import Pin, RoutedPath, RoutingResult
from .topology import Topology

_EDGES = ("top", "bottom", "left", "right")
# enumeration direction along each edge, per die-corner conventions:
# top runs x-descending, bottom x-ascending, left y-ascending, right
# y-descending. Pin ids and offsets follow this order.
_REVERSED = {"top": True, "bottom": False, "left": False, "right": True}


def edge_pin_counts(topology: Topology) -> dict[str, int]:
    m, n = _grid_dims(topology)
    T, B, L, R = _row_split(m, n)
    return {"top": n * T, "bottom": n * B,
            "left": m + n * L, "right": m + n * R}


def total_pins(topology: Topology) -> int:
    m, n = _grid_dims(topology)
    return m * n + 2 * m


def _grid_dims(topology: Topology) -> tuple[int, int]:
    if topology.grid_dims is None:
        raise SpecInfeasible("pattern routing requires a rectangular lattice")
    return topology.grid_dims


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
    net_id: str
    role: str                  # control | transmission
    edge: str
    target: str
    entry_u: float             # along-edge coordinate of the channel entry
    approach: list[tuple[float, float]]   # entry point onward, into content
    pin_u: float = 0.0
    lane: int = 0
    pin_id: str = ""
    pin_pos: tuple[float, float] = (0.0, 0.0)


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


def _qubit_grid(layout, topology):
    """Grid metadata plus actual qubit port geometry."""
    m, n = _grid_dims(topology)
    info = layout.grid_info
    if not info:
        raise SpecInfeasible("layout was not placed on a lattice")
    off = info["origin"]
    pitch = info["pitch"]
    half = info.get("qubit_half_extent", 250.0)
    by_pos = {}
    for qid, (c, r) in topology.qubits.items():
        by_pos[(c, r)] = qid
    return m, n, off, pitch, half, by_pos


def _feedline_ends(layout) -> dict[str, tuple[tuple[float, float], tuple[float, float]]]:
    out = {}
    for p in layout.paths:
        if p.kind != "feedline":
            continue
        pts = sorted(p.points)
        out[p.net] = (pts[0], pts[-1])     # (west end, east end)
    return out


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


def build_nets(layout, topology, lane_pitch: float = 25.0,
               clearance: float = 20.0) -> PinPlan:
    """Plan entries and in-content approach polylines for every net."""
    m, n, off, pitch, half, by_pos = _qubit_grid(layout, topology)
    x_of = lambda c: off[0] + c * pitch
    y_of = lambda r: off[1] + r * pitch
    row_edge = _row_edges(m, n)
    feeds = _feedline_ends(layout)
    T, B, L, R = _row_split(m, n)
    cx0, cy0, cx1, cy1 = layout.content_bbox()
    lam = lane_pitch
    side = half + clearance      # drop/corridor clearance off a qubit bbox

    plan = PinPlan(lam, {
        "top": _EdgePlan("top", cy1 + clearance),
        "bottom": _EdgePlan("bottom", cy0 - clearance),
        "left": _EdgePlan("left", cx0 - clearance),
        "right": _EdgePlan("right", cx1 + clearance),
    })

    max_off = max(T - 1, B - 1)
    bases = _column_gaps(layout, n, off, pitch, lam, max_off) \
        if (T or B) else {}

    for r in range(m):
        edge = row_edge[r]
        y = y_of(r)
        if edge in ("top", "bottom"):
            inner = plan.edges[edge].inner
            for c in range(n):
                qid = by_pos.get((c, r))
                if qid is None:
                    raise SpecInfeasible(f"lattice hole at ({c}, {r})")
                depth = (m - 1 - r) if edge == "top" else r
                ex = bases[c] + depth * lam
                port = (x_of(c) + half, y)
                plan.edges[edge].nets.append(_Net(
                    f"ctl_{qid}", "control", edge, qid, ex,
                    [(ex, inner), (ex, y), port]))
        else:
            # horizontal lane band below the row; nearer column, higher lane
            floor = _row_floor(layout, y, half)
            low = y - side - (n - 1) * lam
            if low < floor + 15.0:
                raise CorridorExhausted(
                    f"row {r} band needs {n} lanes but only "
                    f"{y - side - floor:.0f} um of clear space below")
            inner = plan.edges[edge].inner
            for c in range(n):
                qid = by_pos.get((c, r))
                if qid is None:
                    raise SpecInfeasible(f"lattice hole at ({c}, {r})")
                if edge == "left":
                    ly = y - side - c * lam
                    drop = x_of(c) - side
                    port = (x_of(c) - half, y)
                else:
                    ly = y - side - (n - 1 - c) * lam
                    drop = x_of(c) + side
                    port = (x_of(c) + half, y)
                plan.edges[edge].nets.append(_Net(
                    f"ctl_{qid}", "control", edge, qid, ly,
                    [(inner, ly), (drop, ly), (drop, y), port]))

        # feedline launch and drain pins flank every row
        bus_q = by_pos.get((0, r))
        bus = f"bus_{bus_q}"
        if bus not in feeds:
            raise SpecInfeasible(f"row {r} has no feedline (expected {bus})")
        (wx, wy), (ex_, ey_) = feeds[bus]
        plan.edges["left"].nets.append(_Net(
            f"tx_{bus}_in", "transmission", "left", f"{bus}@west", wy,
            [(plan.edges["left"].inner, wy), (wx, wy)]))
        plan.edges["right"].nets.append(_Net(
            f"tx_{bus}_out", "transmission", "right", f"{bus}@east", ey_,
            [(plan.edges["right"].inner, ey_), (ex_, ey_)]))

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
    for i in up:
        clash = [lanes[k] for k in up if k < i and k in lanes
                 and spans[k][0] < spans[i][1] and spans[i][0] < spans[k][1]]
        lanes[i] = 1 + max(clash, default=0)
    for i in reversed(down):
        clash = [lanes[k] for k in down if k > i and k in lanes
                 and spans[k][0] < spans[i][1] and spans[i][0] < spans[k][1]]
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
        lo, hi = (cx0 + inset, cx1 - inset) if e in ("top", "bottom") \
            else (cy0 + inset, cy1 - inset)
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

    pins: list[Pin] = []
    pad_c = pad_size / 2.0 + 10.0
    for e in _EDGES:
        nets = plan.edges[e].nets
        count = len(nets)
        for idx, net in enumerate(nets):
            k = count - 1 - idx if _REVERSED[e] else idx
            net.pin_id = f"{e[0].upper()}{k}"
            if e == "top":
                net.pin_pos = (net.pin_u, die.y1 - pad_c)
            elif e == "bottom":
                net.pin_pos = (net.pin_u, die.y0 + pad_c)
            elif e == "left":
                net.pin_pos = (die.x0 + pad_c, net.pin_u)
            else:
                net.pin_pos = (die.x1 - pad_c, net.pin_u)
        for net in sorted(nets, key=lambda x: int(x.pin_id[1:])):
            if e == "top":
                offset = die.x1 - net.pin_u
            elif e == "bottom":
                offset = net.pin_u - die.x0
            elif e == "left":
                offset = net.pin_u - die.y0
            else:
                offset = die.y1 - net.pin_u
            # pad disjointness is a plan invariant (separation enforced
            # above); the O(components) overlap scan would dominate at scale
            layout.add_component(make_pad(net.pin_id, net.pin_pos, pad_size,
                                          edge=e, role=net.role),
                                 check_overlap=False)
            pins.append(Pin(net.pin_id, e, offset, net.pin_pos,
                            net.role, net.target))

    layout.pins = pins
    layout.pin_plan = plan
    return pins


def map_pins(pins: list[Pin], topology: Topology) -> dict[str, str]:
    """Deterministic pin-to-target pairing from the edge conventions alone.

    Recomputes the assignment from pin ids and the topology; matches what
    allocate_pins stored on the pins themselves (tested, not assumed).
    """
    m, n = _grid_dims(topology)
    row_edge = _row_edges(m, n)
    by_pos = {pos: qid for qid, pos in topology.qubits.items()}
    bus = {r: f"bus_{by_pos[(0, r)]}" for r in range(m)}

    # along-edge geometric order, ascending coordinate. Top and bottom run
    # column-major (within a column the corridor serves deeper rows on outer
    # lanes); sides run row-major with the feedline end above each row's
    # control lanes.
    top_rows = [r for r in range(m) if row_edge[r] == "top"]
    bot_rows = [r for r in range(m) if row_edge[r] == "bottom"]
    targets: dict[str, list[str]] = {
        "top": [by_pos[(c, r)] for c in range(n) for r in reversed(top_rows)],
        "bottom": [by_pos[(c, r)] for c in range(n) for r in bot_rows],
        "left": [],
        "right": [],
    }
    for r in range(m):
        if row_edge[r] == "left":
            targets["left"].extend(by_pos[(c, r)] for c in reversed(range(n)))
        elif row_edge[r] == "right":
            targets["right"].extend(by_pos[(c, r)] for c in range(n))
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


def route_pattern(layout, topology: Topology | None = None,
                  width: float = 10.0) -> RoutingResult:
    """Emit the planned staircase paths. Zero crossings by construction."""
    plan = getattr(layout, "pin_plan", None)
    if plan is None:
        if topology is None:
            raise SpecInfeasible("no pin plan cached and no topology given")
        allocate_pins(layout, topology)
        plan = layout.pin_plan
    layer = LAYER_OPPOSITE if layout.flip_chip else LAYER_ROUTING
    result = RoutingResult("pattern")
    lam = plan.lane_pitch
    for e in _EDGES:
        ep = plan.edges.get(e)
        if ep is None:
            continue
        for net in ep.nets:
            if e == "top":
                lane_v = ep.inner + net.lane * lam
                head = [(net.pin_u, net.pin_pos[1]), (net.pin_u, lane_v),
                        (net.entry_u, lane_v)]
            elif e == "bottom":
                lane_v = ep.inner - net.lane * lam
                head = [(net.pin_u, net.pin_pos[1]), (net.pin_u, lane_v),
                        (net.entry_u, lane_v)]
            elif e == "left":
                lane_v = ep.inner - net.lane * lam
                head = [(net.pin_pos[0], net.pin_u), (lane_v, net.pin_u),
                        (lane_v, net.entry_u)]
            else:
                lane_v = ep.inner + net.lane * lam
                head = [(net.pin_pos[0], net.pin_u), (lane_v, net.pin_u),
                        (lane_v, net.entry_u)]
            pts = merge_collinear(head + net.approach)
            path = RoutedPath(net.net_id, net.role, layer, pts, width,
                              corner_count=_bends(pts), crossing_count=0)
            result.paths.append(path)
            result.total_corners += path.corner_count
    layout.paths.extend(result.paths)
    return result


def _bends(pts: list[tuple[float, float]]) -> int:
    bends = 0
    for a, b, c in zip(pts, pts[1:], pts[2:]):
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (c[0] - b[0], c[1] - b[1])
        if d1[0] * d2[1] - d1[1] * d2[0] != 0:
            bends += 1
    return bends
