"""End-to-end chip generation: staged dispatches over a design document.

Each stage is a registered request handler that does its work and injects
the sections it produced, so a full run leaves one provenance record per
stage and any failure carries the stage name. Stage work edits the run's
one layout in place rather than a copy: ``run_stages`` consumes the
document it is given, and the caller keeps only the one it returns.
Identical configs produce byte-identical outputs; there is no wall-clock
or randomness anywhere in the flow.

``STAGES`` is the flow's one stage table and ``run_stages`` its one runner;
``run_pipeline``, the CLI subcommands and the bench all go through them.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from .circuit import EquivalentCircuit, inverse_solve
from .components import LAYER_OPPOSITE, LAYER_ROUTING
from .document import (
    DesignDocument,
    ParameterBundle,
    RequestKey,
    dispatch,
    inject,
    register,
)
# unused here; perfbench's INSTRUMENTED table traces sqchip.pipeline.extract
from .document import extract  # noqa: F401
from .errors import (
    DegenerateGrid,
    MissingSubEntity,
    NoPath,
    NonPositiveInput,
    SqchipError,
    StageError,
    check_selector,
)
from .gdsio import write_gds
from .layout import (
    QUBIT_STYLES,
    allocate_frequencies,
    generate_readout_bus,
    place_qubits,
)
from .maze import PENALTY_MODES, build_grid, resolve_target, route_all
from .pattern import allocate_pins, map_pins, route_pattern
from .process import (
    apply_rules,
    drc,
    get_process,
    insert_air_bridges,
    place_indium_columns,
)
from .routing import RoutingResult
from .topology import generate_grid, rows_bottom_up


@dataclass(frozen=True)
class PipelineConfig:
    name: str = "chip"
    rows: int = 2
    cols: int = 2
    qubit_style: str = "xmon"
    pitch: float = 2000.0
    border: float = 500.0
    flip_chip: bool = False
    # equivalent circuit
    qubit_frequencies: tuple[float, ...] = (4.3e9, 4.8e9)
    qubit_capacitance: float = 65e-15
    coupling_strength: float = 5e6
    # readout
    readout_start: float = 6.535e9
    readout_stop: float = 7.246e9
    trace_width: float = 10.0
    trace_gap: float = 6.0
    eps_r: float = 11.45
    coupling_length: float = 200.0
    # routing
    strategy: str = "pattern"
    lane_pitch: float = 25.0
    maze_cell: float = 50.0
    maze_clearance: float = 20.0
    corner_penalty: float = 1.0
    cross_penalty: float = 2.0
    penalty_mode: str = "exact"
    # process
    process: str = "generic-10um"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise NonPositiveInput(f"grid dims must be positive integers, "
                                   f"got {self.rows}x{self.cols}")
        if not self.maze_cell > 0:
            raise DegenerateGrid(f"maze_cell must be positive, "
                                 f"got {self.maze_cell} um")
        for name, allowed in SELECTORS.items():
            check_selector(name, getattr(self, name), allowed)
        get_process(self.process)


@dataclass
class PipelineResult:
    document: DesignDocument
    gds_bytes: bytes
    drc_report: list
    routing: RoutingResult


# ---- stage work ------------------------------------------------------------
# Each function takes the document plus one argument per PipelineConfig field
# it reads, named after that field, and returns the sections it produces.

def _section(doc, name: str):
    """The document's section, for stage work to read or, for the layout,
    to edit in place."""
    value = getattr(doc, name)
    if value is None:
        raise MissingSubEntity(f"document has no {name}")
    return value


def _h_topology(doc, rows, cols):
    return {"topology": generate_grid(rows, cols)}


def _h_circuit(doc, coupling_strength, qubit_capacitance, qubit_frequencies):
    topo = _section(doc, "topology")
    targets = allocate_frequencies(topo, list(qubit_frequencies))
    couplings = {e: coupling_strength for e in sorted(topo.edges)}
    qubits, coupled = inverse_solve(targets, couplings,
                                    C_q=qubit_capacitance,
                                    require_distinct_neighbors=True,
                                    edges=topo.edges)
    return {"circuit": EquivalentCircuit(qubits, coupled)}


def _h_place(doc, border, flip_chip, name, pitch, qubit_style):
    layout = place_qubits(_section(doc, "topology"), qubit_style, pitch,
                          border, name)
    layout.flip_chip = flip_chip
    return {"layout": layout}


def _h_readout(doc, coupling_length, eps_r, readout_start, readout_stop,
               trace_gap, trace_width):
    layout = _section(doc, "layout")
    for row in rows_bottom_up(_section(doc, "topology")):
        generate_readout_bus(layout, row, readout_start, readout_stop,
                             w=trace_width, g=trace_gap, eps_r=eps_r,
                             coupling_length=coupling_length)
    return {"layout": layout}


def route_pattern_core(layout, topology, lane_pitch, trace_width
                       ) -> RoutingResult:
    """The pattern route stage's work on a placed layout, in place."""
    allocate_pins(layout, topology, lane_pitch=lane_pitch)
    return route_pattern(layout, topology, width=trace_width)


def route_maze_core(layout, topology, corner_penalty, cross_penalty,
                    lane_pitch, maze_cell, maze_clearance, penalty_mode,
                    trace_width) -> RoutingResult:
    """The maze route stage's work on a placed layout, in place.

    Each net runs on the grid from its pad to a free cell beside its
    target; the straight tails at both ends are spliced on afterwards.
    """
    allocate_pins(layout, topology, lane_pitch=lane_pitch)
    targets = map_pins(layout.pins, topology)
    grid = build_grid(layout, cell=maze_cell, clearance=maze_clearance)
    standoff = maze_clearance + 2.0 * maze_cell

    nets = []
    tails = {}
    for pin in sorted(layout.pins, key=lambda p: p.pin_id):
        pos, off = resolve_target(layout, targets[pin.pin_id], standoff)
        nets.append((pin.pin_id, grid.cell_at(*pin.position),
                     grid.cell_at(*off)))
        tails[pin.pin_id] = (pin.position, pos)
    layer = LAYER_OPPOSITE if layout.flip_chip else LAYER_ROUTING
    result = route_all(grid, nets, k_corner=corner_penalty,
                       k_cross=cross_penalty, penalty_mode=penalty_mode,
                       layer=layer, width=trace_width)
    if result.failures:
        raise NoPath(f"{len(result.failures)} nets unroutable: "
                     f"{result.failures[:3]}")
    for p in result.paths:
        head, tail = tails[p.net]
        p.points = [head] + p.points + [tail]
        p.kind = "transmission" if p.net.startswith("tx_") else "control"
    layout.paths.extend(result.paths)
    return result


ROUTE_CORES = {"pattern": route_pattern_core, "maze": route_maze_core}

# PipelineConfig fields that select among named alternatives
SELECTORS = {"qubit_style": QUBIT_STYLES, "strategy": tuple(ROUTE_CORES),
             "penalty_mode": PENALTY_MODES}


def _h_route(strategy: str):
    core = ROUTE_CORES[strategy]

    def work(doc, **args):
        layout = _section(doc, "layout")
        core(layout, _section(doc, "topology"), **args)
        return {"layout": layout}
    return work


def _h_process(doc, process):
    rules = get_process(process)
    layout = _section(doc, "layout")
    apply_rules(layout, rules)
    return {"layout": layout, "process_rules": rules}


def _h_bridges(doc):
    layout = _section(doc, "layout")
    rules = _section(doc, "process_rules")
    insert_air_bridges(layout, rules)
    if layout.flip_chip:
        place_indium_columns(layout, rules)
    return {"layout": layout}


# ---- the stage table -------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One row of the stage table. The request key's parameter signature
    names the PipelineConfig fields ``work`` reads; a stage with a
    ``strategy`` runs only when the config selects it."""
    name: str
    key: RequestKey
    work: object
    strategy: str | None = None

    def arguments(self, cfg: PipelineConfig) -> dict:
        return {f: getattr(cfg, f) for f in self.key.parameter_signature}

    def handler(self, doc, **args):
        """The registered request handler: inject what ``work`` produces."""
        sections = self.work(doc, **args)
        return inject(doc, ParameterBundle(doc.version, sections),
                      operation=self.key.operation)


def _fn(operation: str, *fields: str) -> RequestKey:
    return RequestKey("function", operation, fields)


STAGES = (
    Stage("topology", RequestKey("design-entity", "topology.generate-grid",
                                 ("rows", "cols")), _h_topology),
    Stage("params", _fn("circuit.solve", "coupling_strength",
                        "qubit_capacitance", "qubit_frequencies"), _h_circuit),
    Stage("layout", _fn("layout.place-qubits", "border", "flip_chip", "name",
                        "pitch", "qubit_style"), _h_place),
    Stage("readout", _fn("layout.readout-bus", "coupling_length", "eps_r",
                         "readout_start", "readout_stop", "trace_gap",
                         "trace_width"), _h_readout),
    Stage("route", _fn("route.pattern", "lane_pitch", "trace_width"),
          _h_route("pattern"), strategy="pattern"),
    Stage("route", _fn("route.maze", "corner_penalty", "cross_penalty",
                       "lane_pitch", "maze_cell", "maze_clearance",
                       "penalty_mode", "trace_width"),
          _h_route("maze"), strategy="maze"),
    Stage("procmap", _fn("process.map", "process"), _h_process),
    Stage("bridges", _fn("process.air-bridges"), _h_bridges),
)

for _stage in STAGES:
    register(_stage.key, _stage.handler)


def selected_stages(cfg: PipelineConfig, names=None) -> list[Stage]:
    """The stages cfg runs, in order; ``names`` keeps only those stages."""
    return [s for s in STAGES
            if s.strategy in (None, cfg.strategy)
            and (names is None or s.name in names)]


def config_fields(names) -> set[str]:
    """The PipelineConfig fields that the named stages read."""
    read = set()
    for s in STAGES:
        if s.name in names:
            read.update(s.key.parameter_signature)
            if s.strategy is not None:
                read.add("strategy")
    return read


# ---- the pipeline ----------------------------------------------------------

@contextlib.contextmanager
def _as_stage(name: str):
    """Re-raise the block's SqchipError as StageError(name, cause)."""
    try:
        yield
    except StageError:
        raise
    except SqchipError as exc:
        raise StageError(name, exc) from exc


def run_stages(doc: DesignDocument, cfg: PipelineConfig, names=None
               ) -> DesignDocument:
    """Dispatch cfg's stages (only ``names``, when given) on doc, in order.

    Stage work edits doc's layout in place, so doc is consumed: keep only
    the returned document, and discard doc when a stage fails. The first
    failure aborts the run as a StageError naming the stage.
    """
    for stage in selected_stages(cfg, names):
        with _as_stage(stage.name):
            doc = dispatch(stage.key, doc, **stage.arguments(cfg))
    return doc


def summarize_routing(layout, strategy: str) -> RoutingResult:
    result = RoutingResult(strategy)
    for p in layout.paths:
        if p.kind in ("control", "transmission"):
            result.paths.append(p)
            result.total_corners += p.corner_count
            result.total_crossings += p.crossing_count
    return result


def run_pipeline(config: PipelineConfig | None = None, **overrides
                 ) -> PipelineResult:
    """Generate a chip end to end; see PipelineConfig for the knobs.

    Fails fast: the first stage error aborts the run, wrapped in StageError
    with the stage name. The DRC report is returned, not raised; an empty
    report means the layout meets the selected process rules.
    """
    cfg = config if config is not None else PipelineConfig(**overrides)
    doc = run_stages(DesignDocument(cfg.name), cfg)

    with _as_stage("drc"):
        report = drc(doc.layout, doc.process_rules)
        doc = inject(doc, ParameterBundle(doc.version, {}),
                     operation=f"drc:{len(report)}-violations")

    with _as_stage("gds"):
        gds = write_gds(doc.layout)
        doc = inject(doc, ParameterBundle(doc.version, {}),
                     operation="gds.export")

    return PipelineResult(doc, gds, report,
                          summarize_routing(doc.layout, cfg.strategy))
