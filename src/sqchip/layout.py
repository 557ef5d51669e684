"""Chip layout construction: qubit placement, readout buses, frequency plans.

Coordinates are micrometres throughout. Construction is single-writer: build
the layout, then treat it as an immutable snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .components import (
    LAYER_QUBIT,
    PlacedComponent,
    make_resonator,
    make_transmon,
    make_xmon,
)
from .constants import SPEED_OF_LIGHT
from .errors import (
    InsufficientFrequencySet,
    InvalidSubstrate,
    NonPositiveInput,
    PitchTooSmall,
    PlacementOverlap,
    check_selector,
)
from .geometry import bbox_union
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


@dataclass
class ResonatorSpec:
    """Target and geometry of one readout resonator."""

    mode: str                  # quarter-wave | half-wave
    target_frequency: float    # Hz
    length: float              # um
    w: float = 10.0            # trace width, um
    g: float = 6.0             # gap to ground, um
    eps_r: float = 11.45       # substrate relative permittivity
    coupling_length: float = 200.0

    def __post_init__(self):
        if not 1.0 < self.eps_r < 30.0:
            raise InvalidSubstrate(f"relative permittivity {self.eps_r} out of range (1, 30)")
        if self.target_frequency <= 0 or self.length <= 0:
            raise NonPositiveInput("resonator frequency and length must be positive")


@dataclass
class ChipLayout:
    name: str
    die: DieBox
    components: list[PlacedComponent] = field(default_factory=list)
    paths: list[RoutedPath] = field(default_factory=list)
    pins: list[Pin] = field(default_factory=list)
    grid_info: dict = field(default_factory=dict)
    applied_rules: str | None = None
    flip_chip: bool = False
    pin_plan: object | None = None     # escape-routing plan, not persisted
    source_library: object | None = None   # set on GDS import; edits clear it

    def component_by_id(self, comp_id: str) -> PlacedComponent:
        for c in self.components:
            if c.comp_id == comp_id:
                return c
        raise KeyError(comp_id)

    def add_component(self, comp: PlacedComponent, check_overlap: bool = True) -> None:
        if check_overlap:
            nb = comp.bounding_box()
            for other in self.components:
                if not (other.layers() & comp.layers()):
                    continue
                ob = other.bounding_box()
                # touching boundaries is fine; positive-area overlap is not
                if nb[0] < ob[2] and ob[0] < nb[2] and nb[1] < ob[3] and ob[1] < nb[3]:
                    raise PlacementOverlap(
                        f"{comp.comp_id} overlaps {other.comp_id} on a shared layer")
        self.components.append(comp)
        self.source_library = None

    def content_bbox(self) -> tuple[float, float, float, float]:
        boxes = [c.bounding_box() for c in self.components]
        for p in self.paths:
            xs = [q[0] for q in p.points]
            ys = [q[1] for q in p.points]
            h = p.width / 2.0
            boxes.append((min(xs) - h, min(ys) - h, max(xs) + h, max(ys) + h))
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


# qubit style -> footprint maker and its half extent in um
_QUBIT_MAKERS = {"xmon": (make_xmon, 250.0), "transmon": (make_transmon, 220.0)}
QUBIT_STYLES = tuple(_QUBIT_MAKERS)


def place_qubits(topology: Topology, qubit_style: str = "xmon",
                 pitch: float = 2000.0, border: float = 500.0,
                 name: str = "chip") -> ChipLayout:
    """Place one qubit per topology node on a uniform lattice.

    Grid coordinates map to physical positions bottom-left first, so
    qubit (0, 0) sits nearest the die origin.
    """
    check_selector("qubit_style", qubit_style, QUBIT_STYLES)
    maker, half_extent = _QUBIT_MAKERS[qubit_style]
    if pitch <= 2.0 * half_extent:
        raise PitchTooSmall(f"pitch {pitch} um cannot fit {qubit_style} footprints")

    cols = [c for c, _ in topology.qubits.values()]
    rows = [r for _, r in topology.qubits.values()]
    n_cols = max(cols) + 1 if cols else 1
    n_rows = max(rows) + 1 if rows else 1
    off = border + half_extent

    layout = ChipLayout(
        name,
        DieBox(0.0, 0.0,
               2.0 * off + (n_cols - 1) * pitch,
               2.0 * off + (n_rows - 1) * pitch),
        grid_info={"origin": (off, off), "pitch": pitch,
                   "dims": (n_rows, n_cols), "qubit_half_extent": half_extent,
                   "style": qubit_style, "border": border},
    )
    for qid in sorted(topology.qubits, key=_qubit_sort_key):
        c, r = topology.qubits[qid]
        layout.add_component(maker(qid, (off + c * pitch, off + r * pitch)))
    return layout


def _qubit_sort_key(qid: str):
    # numeric suffixes sort numerically so q10 follows q9
    head = qid.rstrip("0123456789")
    tail = qid[len(head):]
    return (head, int(tail) if tail else -1)


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


def generate_readout_bus(layout: ChipLayout, row_qubits: list[str],
                         f_start: float, f_stop: float, *,
                         w: float = 10.0, g: float = 6.0,
                         eps_r: float = 11.45, coupling_length: float = 200.0,
                         zone_height: float = 450.0, cell_clear: float = 600.0,
                         bus_id: str | None = None,
                         ) -> tuple[list[ResonatorSpec], list[PlacedComponent]]:
    """Attach one readout resonator per qubit and a shared feedline above them.

    row_qubits must be one horizontal row, ordered left to right; target
    frequencies ascend in that order. The feedline is added to layout.paths
    and the die grows to keep its border clearance.
    """
    if not row_qubits:
        raise NonPositiveInput("empty qubit row")
    comps = [layout.component_by_id(q) for q in row_qubits]
    ports = [c.ports["north"] for c in comps]
    xs = [p.position[0] for p in ports]
    if xs != sorted(xs):
        raise ValueError("row_qubits must be ordered left to right")
    if len(xs) > 1:
        pitch = min(b - a for a, b in zip(xs, xs[1:]))
    else:
        pitch = layout.grid_info.get("pitch", 2000.0)
    usable = pitch - cell_clear
    if usable <= 2.0 * coupling_length:
        raise PitchTooSmall(f"pitch {pitch} um leaves no room for meanders")

    top_attach = max(p.position[1] for p in ports)
    top_y = top_attach + zone_height
    freqs = readout_ladder(len(row_qubits), f_start, f_stop)

    specs: list[ResonatorSpec] = []
    made: list[PlacedComponent] = []
    for comp, port, f in zip(comps, ports, freqs):
        length = resonator_length(f, eps_r)
        spec = ResonatorSpec("quarter-wave", f, length, w, g, eps_r, coupling_length)
        px, py = port.position
        attach = (px, py + g + w / 2.0)   # capacitive gap to the qubit arm
        res = make_resonator(
            f"res_{comp.comp_id}", attach, top_y,
            px - usable / 2.0, px + usable / 2.0,
            length, w, g, coupling_length, f, qubit_id=comp.comp_id)
        layout.add_component(res)
        specs.append(spec)
        made.append(res)

    name = bus_id or f"bus_{row_qubits[0]}"
    y_fl = top_y + (w + g)               # edge-to-edge gap of g to coupling runs
    x_lo = min(xs) - usable / 2.0 - 300.0
    x_hi = max(xs) + usable / 2.0 + 300.0
    layout.paths.append(RoutedPath(
        name, "feedline", LAYER_QUBIT, [(x_lo, y_fl), (x_hi, y_fl)], w))
    layout.expand_die_to_content(layout.grid_info.get("border", 500.0))
    return specs, made


def allocate_frequencies(topology: Topology,
                         freq_set: list[float]) -> dict[str, float]:
    """Assign drive frequencies so no coupled pair shares one.

    Grid topologies get a deterministic checkerboard over the first two
    entries; anything else is greedy in qubit order.
    """
    if not freq_set:
        raise InsufficientFrequencySet("empty frequency set")
    if topology.edges and len(set(freq_set)) < 2:
        raise InsufficientFrequencySet(
            "coupled qubits present but fewer than two distinct frequencies")
    out: dict[str, float] = {}
    if topology.grid_dims is not None:
        for qid, (c, r) in topology.qubits.items():
            out[qid] = freq_set[(c + r) % 2] if len(freq_set) > 1 else freq_set[0]
        return dict(sorted(out.items(), key=lambda kv: _qubit_sort_key(kv[0])))
    for qid in sorted(topology.qubits, key=_qubit_sort_key):
        taken = {out[nb] for nb in topology.neighbors(qid) if nb in out}
        for f in freq_set:
            if f not in taken:
                out[qid] = f
                break
        else:
            raise InsufficientFrequencySet(
                f"no frequency left for {qid} among {len(freq_set)} choices")
    return out
