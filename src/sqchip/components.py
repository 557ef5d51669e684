"""Parametric footprint generators for on-chip elements.

Every generator returns a PlacedComponent whose footprint is a map of layer
number to a list of polygons (closed, CCW, in micrometres, absolute
coordinates). Ports lie on the footprint boundary and carry an outward
direction so attachment code never needs to know component internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import LengthMismatch, MeanderDoesNotFit
from .geometry import bbox, bbox_union, path_length, rect

# Layer plan. Numbers are GDS layer numbers; roles are what drc and the
# writers key on.
LAYER_QUBIT = 1        # metal-qubit: qubits, resonators, feedline
LAYER_ROUTING = 2      # metal-routing: maze/pattern nets, same face
LAYER_OPPOSITE = 3     # opposite-face-routing: nets on the carrier die
LAYER_JUNCTION = 5     # junction placeholder rectangles
LAYER_AIRBRIDGE = 10   # air-bridge spans
LAYER_INDIUM = 11      # indium bump columns
LAYER_PIN = 20         # bond pads


@dataclass
class Port:
    name: str
    position: tuple[float, float]
    direction: tuple[float, float]


@dataclass
class PlacedComponent:
    comp_id: str
    kind: str
    origin: tuple[float, float]
    footprint: dict[int, list[list[tuple[float, float]]]]
    ports: dict[str, Port] = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    _bbox: tuple[float, float, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def bounding_box(self) -> tuple[float, float, float, float]:
        # cached: overlap checks hit this once per existing component
        if self._bbox is None:
            boxes = [bbox(poly) for polys in self.footprint.values()
                     for poly in polys]
            self._bbox = bbox_union(boxes)
        return self._bbox

    def set_footprint(self, layer: int,
                      polygons: list[list[tuple[float, float]]]) -> None:
        self.footprint[layer] = polygons
        self._bbox = None

    def layers(self) -> set[int]:
        return set(self.footprint)


def make_xmon(comp_id: str, origin: tuple[float, float],
              arm_length: float = 250.0, arm_width: float = 50.0) -> PlacedComponent:
    """Cross-shaped qubit. arm_length is center to arm tip."""
    cx, cy = origin
    h = arm_width / 2.0
    L = arm_length
    cross = [
        (cx + L, cy - h), (cx + L, cy + h), (cx + h, cy + h), (cx + h, cy + L),
        (cx - h, cy + L), (cx - h, cy + h), (cx - L, cy + h), (cx - L, cy - h),
        (cx - h, cy - h), (cx - h, cy - L), (cx + h, cy - L), (cx + h, cy - h),
    ]
    # junction placeholder hangs off the south arm tip
    jx, jy = cx, cy - L
    junction = rect(jx - 5.0, jy - 10.0, jx + 5.0, jy)
    ports = {
        "north": Port("north", (cx, cy + L), (0.0, 1.0)),
        "south": Port("south", (cx, cy - L), (0.0, -1.0)),
        "east": Port("east", (cx + L, cy), (1.0, 0.0)),
        "west": Port("west", (cx - L, cy), (-1.0, 0.0)),
    }
    return PlacedComponent(
        comp_id, "xmon", origin,
        {LAYER_QUBIT: [cross], LAYER_JUNCTION: [junction]},
        ports,
        {"arm_length": arm_length, "arm_width": arm_width},
    )


def make_transmon(comp_id: str, origin: tuple[float, float],
                  pad_width: float = 400.0, pad_height: float = 150.0,
                  pad_gap: float = 40.0) -> PlacedComponent:
    """Two-pad floating transmon, pads stacked vertically."""
    cx, cy = origin
    hw = pad_width / 2.0
    g2 = pad_gap / 2.0
    top = rect(cx - hw, cy + g2, cx + hw, cy + g2 + pad_height)
    bot = rect(cx - hw, cy - g2 - pad_height, cx + hw, cy - g2)
    junction = rect(cx - 10.0, cy - g2, cx + 10.0, cy + g2)
    ports = {
        "north": Port("north", (cx, cy + g2 + pad_height), (0.0, 1.0)),
        "south": Port("south", (cx, cy - g2 - pad_height), (0.0, -1.0)),
    }
    return PlacedComponent(
        comp_id, "transmon", origin,
        {LAYER_QUBIT: [top, bot], LAYER_JUNCTION: [junction]},
        ports,
        {"pad_width": pad_width, "pad_height": pad_height, "pad_gap": pad_gap},
    )


def make_pad(comp_id: str, origin: tuple[float, float], size: float = 120.0,
             edge: str = "", role: str = "") -> PlacedComponent:
    cx, cy = origin
    h = size / 2.0
    square = rect(cx - h, cy - h, cx + h, cy + h)
    inward = {"top": (0.0, -1.0), "bottom": (0.0, 1.0),
              "left": (1.0, 0.0), "right": (-1.0, 0.0)}.get(edge, (0.0, 1.0))
    port_pos = (cx + inward[0] * h, cy + inward[1] * h)
    return PlacedComponent(
        comp_id, "pad", origin,
        {LAYER_PIN: [square]},
        {"inner": Port("inner", port_pos, inward)},
        {"size": size, "edge": edge, "role": role},
    )


def make_airbridge(comp_id: str, origin: tuple[float, float],
                   span: float = 30.0, deck_width: float = 10.0,
                   orientation: str = "h") -> PlacedComponent:
    """Bridge deck over a crossing. orientation is the deck's long axis."""
    cx, cy = origin
    s2, w2 = span / 2.0, deck_width / 2.0
    if orientation == "h":
        deck = rect(cx - s2, cy - w2, cx + s2, cy + w2)
    else:
        deck = rect(cx - w2, cy - s2, cx + w2, cy + s2)
    return PlacedComponent(
        comp_id, "airbridge", origin,
        {LAYER_AIRBRIDGE: [deck]},
        {},
        {"span": span, "deck_width": deck_width, "orientation": orientation},
    )


def make_indium_column(comp_id: str, origin: tuple[float, float],
                       size: float = 15.0) -> PlacedComponent:
    cx, cy = origin
    h = size / 2.0
    return PlacedComponent(
        comp_id, "indium", origin,
        {LAYER_INDIUM: [rect(cx - h, cy - h, cx + h, cy + h)]},
        {},
        {"size": size},
    )


# shortest straight lead from the attach point up to the lowest meander run, um
_MIN_LEAD = 15.0


def synthesize_meander(attach: tuple[float, float], top_y: float,
                       x_left: float, x_right: float, length: float,
                       trace_width: float, coupling_length: float,
                       ) -> list[tuple[float, float]]:
    """Rectilinear serpentine centerline of exactly `length` um.

    Starts at `attach` heading up, ends with a horizontal coupling run of
    `coupling_length` at y == top_y. Horizontal runs span [x_left, x_right];
    adjacent runs are spaced 6*trace_width apart, which keeps a 3*trace_width
    bend radius feasible after filleting. The length remainder that full runs
    cannot absorb is taken up by a horizontal jog inside the last riser.
    """
    ax, ay = attach
    w = trace_width
    pitch = 6.0 * w
    R = x_right - x_left
    if R <= coupling_length or not (x_left < ax < x_right):
        raise MeanderDoesNotFit(f"cell [{x_left}, {x_right}] too narrow")
    H = top_y - ay
    half = ax - x_left          # first partial run, attach column to left wall
    base = H + half + coupling_length
    if length < base + pitch:
        raise MeanderDoesNotFit(
            f"target length {length:.1f} below minimum {base + pitch:.1f} for this zone")
    k = int((length - base) // R)     # number of full-width runs
    rem = length - base - k * R
    if rem > R - coupling_length - 2.0 * w:
        # jog plus coupling run would leave the cell; push the excess into
        # a split jog that doubles back
        split = True
    else:
        split = False
    # riser count sanity: lowest run sits at top_y - (k+1)*pitch
    lowest = top_y - (k + 1) * pitch
    if lowest < ay + _MIN_LEAD:
        raise MeanderDoesNotFit(
            f"needs {k} runs but zone height {H:.1f} fits only "
            f"{int((H - _MIN_LEAD) / pitch) - 1}")

    pts: list[tuple[float, float]] = [(ax, ay), (ax, lowest)]
    pts.append((x_left, lowest))                       # half run
    x_at = x_left
    y_at = lowest
    for i in range(k):
        y_at += pitch
        pts.append((x_at, y_at))
        x_at = x_right if x_at == x_left else x_left
        pts.append((x_at, y_at))
    # final riser with length-absorbing jog
    inward = 1.0 if x_at == x_left else -1.0
    if split:
        ja = rem / 2.0
        pts.append((x_at, y_at + pitch / 3.0))
        pts.append((x_at + inward * ja, y_at + pitch / 3.0))
        pts.append((x_at + inward * ja, y_at + 2.0 * pitch / 3.0))
        pts.append((x_at, y_at + 2.0 * pitch / 3.0))
        pts.append((x_at, top_y))
    elif rem > 1e-9:
        pts.append((x_at, y_at + pitch / 2.0))
        pts.append((x_at + inward * rem, y_at + pitch / 2.0))
        x_at = x_at + inward * rem
        pts.append((x_at, top_y))
    else:
        pts.append((x_at, top_y))
    pts.append((x_at + inward * coupling_length, top_y))
    got = path_length(pts)
    if not abs(got - length) < 1e-6:
        raise LengthMismatch(f"meander is {got} um long, wanted {length} um")
    return pts


def stroke_centerline(points: list[tuple[float, float]],
                      width: float) -> list[list[tuple[float, float]]]:
    """Expand an axis-aligned polyline into one rectangle per segment."""
    h = width / 2.0
    polys = []
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if abs(x1 - x2) < 1e-12 and abs(y1 - y2) < 1e-12:
            continue
        if abs(x1 - x2) < 1e-12:    # vertical
            lo, hi = min(y1, y2), max(y1, y2)
            polys.append(rect(x1 - h, lo - h, x1 + h, hi + h))
        elif abs(y1 - y2) < 1e-12:  # horizontal
            lo, hi = min(x1, x2), max(x1, x2)
            polys.append(rect(lo - h, y1 - h, hi + h, y1 + h))
        else:
            # diagonal stub: stroke as a quad perpendicular to the segment
            dx, dy = x2 - x1, y2 - y1
            n = math.hypot(dx, dy)
            nx, ny = -dy / n * h, dx / n * h
            polys.append([(x1 + nx, y1 + ny), (x2 + nx, y2 + ny),
                          (x2 - nx, y2 - ny), (x1 - nx, y1 - ny)])
    return polys


def make_resonator(comp_id: str, attach: tuple[float, float], top_y: float,
                   x_left: float, x_right: float, length: float,
                   trace_width: float, gap: float,
                   coupling_length: float, target_frequency: float,
                   qubit_id: str = "") -> PlacedComponent:
    center = synthesize_meander(attach, top_y, x_left, x_right, length,
                                trace_width, coupling_length)
    polys = stroke_centerline(center, trace_width)
    end = center[-1]
    return PlacedComponent(
        comp_id, "resonator", attach,
        {LAYER_QUBIT: polys},
        {
            "qubit": Port("qubit", attach, (0.0, -1.0)),
            "coupler": Port("coupler", end, (0.0, 1.0)),
        },
        {
            "length": length,
            "w": trace_width,
            "g": gap,
            "coupling_length": coupling_length,
            "target_frequency": target_frequency,
            "qubit_id": qubit_id,
        },
    )
