"""Chip layout construction: qubit placement, readout buses, frequency plans.

Coordinates are micrometres throughout. Construction is single-writer: build
the layout, then treat it as an immutable snapshot.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .components import (
    LAYER_OPPOSITE,
    LAYER_QUBIT,
    LAYER_ROUTING,
    QUBIT_KINDS,
    PlacedComponent,
    make_resonator,
)
from .constants import SPEED_OF_LIGHT
from .errors import (
    InsufficientFrequencySet,
    InvalidSubstrate,
    NonPositiveInput,
    PitchTooSmall,
    PlacementOverlap,
    SpecInfeasible,
    check_selector,
)
from .geometry import BinIndex, bbox, bbox_union, boxes_overlap
from .routing import Pin, RoutedPath
from .topology import Topology


@dataclass
class DieBox:
    x0: float
    y0: float
    x1: float
    y1: float

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    def contains(self, x: float, y: float, tol: float = 1e-9) -> bool:
        return (self.x0 - tol <= x <= self.x1 + tol
                and self.y0 - tol <= y <= self.y1 + tol)


def components_overlap(a: PlacedComponent, b: PlacedComponent) -> bool:
    """True if a and b share a layer and their boxes overlap: the test of
    both placement and DRC's overlap rule."""
    return bool(a.layers() & b.layers()) and boxes_overlap(
        a.bounding_box(), b.bounding_box())


# component index bin side and DRC overlap sweep's tall height, um
COMPONENT_BIN = 1000.0


class _Components(Sequence):
    """Read-only view of a layout's components. They change only through
    ChipLayout.add_component and PlacedComponent.set_footprint, which keep
    the layout's id map and component index in step."""

    __slots__ = ("_items",)

    def __init__(self, items: list[PlacedComponent]):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        return iter(self._items)


@dataclass
class ChipLayout:
    name: str
    die: DieBox
    paths: list[RoutedPath] = field(default_factory=list)
    pins: list[Pin] = field(default_factory=list)
    grid_info: dict = field(default_factory=dict)
    applied_rules: str | None = None
    flip_chip: bool = False
    pin_plan: object | None = None     # escape-routing plan, not persisted
    # (geometry, source stream, dropped) of a GDS import: write_gds
    # re-emits the stream while gdsio._geometry(layout) equals the key
    # (footprints change only through set_footprint), and once edited
    # refuses to render if dropped names an element whose datatype or
    # pathtype the model does not keep; a fresh layout renders canonically
    rendered: tuple | None = field(default=None, repr=False)
    # (key, pairs) of the last full-reach segment-pair scan of the paths,
    # which bridges and DRC share; process._segment_pairs keys it on the
    # rules and each path's identity, net, layer, width and points
    segment_pairs: tuple | None = field(default=None, repr=False)
    _components: list[PlacedComponent] = field(
        default_factory=list, init=False, repr=False)
    # id -> the first component with it
    _by_id: dict[str, PlacedComponent] = field(
        default_factory=dict, init=False, repr=False)
    # component boxes per layer, items are positions in _components; a
    # component re-filed by set_footprint leaves its old entries behind,
    # so a query may return a candidate more, which the exact test drops
    _boxes: BinIndex = field(default_factory=lambda: BinIndex(COMPONENT_BIN),
                             init=False, repr=False)

    @property
    def components(self) -> Sequence[PlacedComponent]:
        return _Components(self._components)

    def component_by_id(self, comp_id: str) -> PlacedComponent:
        return self._by_id[comp_id]

    @property
    def routing_layer(self) -> int:
        """The layer both routers put their nets on: the carrier face of a
        flip-chip stack, else the qubit face's routing metal."""
        return LAYER_OPPOSITE if self.flip_chip else LAYER_ROUTING

    def add_component(self, comp: PlacedComponent, check_overlap: bool = True) -> None:
        """Append comp, refusing it with PlacementOverlap if check_overlap
        and its box overlaps the box of a component sharing a layer; the
        error names the first such component in components order."""
        hits = self.overlaps(comp) if check_overlap else []
        if hits:
            raise PlacementOverlap(
                f"{comp.comp_id} overlaps {self._components[hits[0]].comp_id} "
                f"on a shared layer")
        comp._slot = (self._boxes, len(self._components))
        comp._file()
        self._components.append(comp)
        self._by_id.setdefault(comp.comp_id, comp)

    def overlaps(self, comp: PlacedComponent) -> list[int]:
        """Positions, ascending, of the components that comp overlaps
        (components_overlap)."""
        box = comp.bounding_box()
        near = set().union(*(self.near(layer, box) for layer in comp.layers()))
        return [i for i in sorted(near)
                if components_overlap(comp, self._components[i])]

    def near(self, layer: int, box) -> set[int]:
        """Positions of the components with geometry on `layer` whose box
        meets `box`, and perhaps a few more, which an exact test drops."""
        return self._boxes.query(layer, box)

    def content_bbox(self) -> tuple[float, float, float, float]:
        boxes = [c.bounding_box() for c in self.components]
        for p in self.paths:
            x0, y0, x1, y1 = bbox(p.points)
            h = p.width / 2.0
            boxes.append((x0 - h, y0 - h, x1 + h, y1 + h))
        if not boxes:
            return (self.die.x0, self.die.y0, self.die.x1, self.die.y1)
        return bbox_union(boxes)

    def expand_die_to_content(self, border: float = 500.0) -> None:
        """Grow (never shrink) the die so all content keeps `border` clearance."""
        x0, y0, x1, y1 = self.content_bbox()
        self.die = DieBox(
            min(self.die.x0, x0 - border),
            min(self.die.y0, y0 - border),
            max(self.die.x1, x1 + border),
            max(self.die.y1, y1 + border),
        )

    def __eq__(self, other) -> bool:
        """Layouts are equal iff they serialize to identical GDS streams."""
        if not isinstance(other, ChipLayout):
            return NotImplemented
        from .gdsio import write_gds
        return write_gds(self) == write_gds(other)

    __hash__ = None  # mutable during construction


QUBIT_STYLES = tuple(QUBIT_KINDS)


def place_qubits(topology: Topology, qubit_style: str = "xmon",
                 pitch: float = 2000.0, border: float = 500.0,
                 name: str = "chip") -> ChipLayout:
    """Place one qubit per topology node on a uniform lattice.

    Grid coordinates map to physical positions bottom-left first, so
    qubit (0, 0) sits nearest the die origin.
    """
    check_selector("qubit_style", qubit_style, QUBIT_STYLES)
    kind = QUBIT_KINDS[qubit_style]
    if pitch <= 2.0 * kind.half_extent:
        raise PitchTooSmall(f"pitch {pitch} um cannot fit {qubit_style} footprints")

    n_rows, n_cols = topology.grid_dims
    off = border + kind.half_extent

    layout = ChipLayout(
        name,
        DieBox(0.0, 0.0,
               2.0 * off + (n_cols - 1) * pitch,
               2.0 * off + (n_rows - 1) * pitch),
        grid_info={"origin": (off, off), "pitch": pitch,
                   "qubit_half_extent": kind.half_extent, "border": border},
    )
    for qid, (c, r) in topology.qubits.items():
        layout.add_component(kind.make(qid, (off + c * pitch, off + r * pitch)))
    return layout


# resonator mode -> n, where the resonator is 1/n of a wavelength long
_WAVELENGTH_FRACTIONS = {"quarter-wave": 4.0, "half-wave": 2.0}


def resonator_length(frequency: float, eps_r: float = 11.45,
                     mode: str = "quarter-wave") -> float:
    """Physical resonator length in um for a target frequency in Hz.

    Uses the parallel-plate effective permittivity (eps_r + 1) / 2 of a
    coplanar line on substrate with vacuum above.
    """
    if frequency <= 0:
        raise NonPositiveInput("frequency must be positive")
    if not 1.0 < eps_r < 30.0:
        raise InvalidSubstrate(f"relative permittivity {eps_r} out of range (1, 30)")
    eps_eff = (eps_r + 1.0) / 2.0
    v = SPEED_OF_LIGHT / eps_eff ** 0.5
    check_selector("mode", mode, tuple(_WAVELENGTH_FRACTIONS))
    return v / (_WAVELENGTH_FRACTIONS[mode] * frequency) * 1e6


def readout_ladder(n: int, f_start: float, f_stop: float) -> list[float]:
    """n target frequencies evenly spaced from f_start to f_stop inclusive."""
    if n <= 0:
        raise NonPositiveInput("ladder needs at least one resonator")
    if n == 1:
        return [f_start]
    step = (f_stop - f_start) / (n - 1)
    return [f_start + i * step for i in range(n)]


# readout zone between a row's north ports and its feedline, and the part of
# the qubit pitch a meander cell leaves clear, um
_ZONE_HEIGHT = 450.0
_CELL_CLEAR = 600.0


def bus_name(first_qubit: str) -> str:
    """Net name of the feedline over the row that starts at first_qubit;
    both routers find a row's feedline by it."""
    return f"bus_{first_qubit}"


def feedline_ends(layout: ChipLayout,
                  ) -> dict[str, tuple[tuple[float, float], tuple[float, float]]]:
    """Feedline net -> (west end, east end); both routers attach to these."""
    return {p.net: (min(p.points), max(p.points))
            for p in layout.paths if p.kind == "feedline"}


def generate_readout_bus(layout: ChipLayout, row_qubits: list[str],
                         f_start: float, f_stop: float, *,
                         w: float = 10.0, g: float = 6.0,
                         eps_r: float = 11.45, coupling_length: float = 200.0,
                         ) -> list[PlacedComponent]:
    """Attach one readout resonator per qubit and a shared feedline above
    them; returns the resonators, left to right.

    row_qubits must be one horizontal row, ordered left to right; target
    frequencies ascend in that order. The feedline is added to layout.paths
    and the die grows to keep its border clearance.
    """
    if not row_qubits:
        raise NonPositiveInput("empty qubit row")
    if g <= 0 or coupling_length <= 0:
        raise NonPositiveInput(f"gap g and coupling_length must be positive, "
                               f"got g={g}, coupling_length={coupling_length}")
    comps = [layout.component_by_id(q) for q in row_qubits]
    ports = [c.ports["north"] for c in comps]
    xs = [p.position[0] for p in ports]
    if xs != sorted(xs):
        raise SpecInfeasible("row_qubits must be ordered left to right")
    pitch = min((b - a for a, b in zip(xs, xs[1:])),
                default=layout.grid_info.get("pitch", 2000.0))
    usable = pitch - _CELL_CLEAR
    if usable <= 2.0 * coupling_length:
        raise PitchTooSmall(f"pitch {pitch} um leaves no room for meanders")

    top_attach = max(p.position[1] for p in ports)
    top_y = top_attach + _ZONE_HEIGHT
    freqs = readout_ladder(len(row_qubits), f_start, f_stop)

    made: list[PlacedComponent] = []
    for comp, port, f in zip(comps, ports, freqs):
        px, py = port.position
        attach = (px, py + g + w / 2.0)   # capacitive gap to the qubit arm
        res = make_resonator(
            f"res_{comp.comp_id}", attach, top_y,
            px - usable / 2.0, px + usable / 2.0,
            resonator_length(f, eps_r), w, g, coupling_length, f,
            qubit_id=comp.comp_id)
        layout.add_component(res)
        made.append(res)

    y_fl = top_y + (w + g)               # edge-to-edge gap of g to coupling runs
    x_lo = min(xs) - usable / 2.0 - 300.0
    x_hi = max(xs) + usable / 2.0 + 300.0
    layout.paths.append(RoutedPath(
        bus_name(row_qubits[0]), "feedline", LAYER_QUBIT,
        [(x_lo, y_fl), (x_hi, y_fl)], w))
    layout.expand_die_to_content(layout.grid_info.get("border", 500.0))
    return made


def allocate_frequencies(topology: Topology,
                         freq_set: list[float]) -> dict[str, float]:
    """Assign drive frequencies as a checkerboard over the first two
    entries, so no two lattice neighbours share one."""
    if not freq_set:
        raise InsufficientFrequencySet("empty frequency set")
    if topology.edges and len(set(freq_set[:2])) < 2:
        raise InsufficientFrequencySet(
            "coupled qubits present but the first two frequencies are not "
            "distinct")
    # a one-tone palette passed the check only for the lone qubit at (0, 0)
    return {qid: freq_set[(c + r) % 2]
            for qid, (c, r) in topology.qubits.items()}
