"""End-to-end chip generation: staged dispatches over a design document.

Each stage is a registered request handler that does its work and injects
the sections it produced, so a full run leaves one provenance record per
stage, holding the arguments the stage ran with, and any failure carries
the stage name. Stage work edits the run's one layout in place rather than
a copy: ``run_stages`` consumes the document it is given, and the caller
keeps only the one it returns. Identical configs produce byte-identical
outputs; there is no wall-clock or randomness anywhere in the flow.

``STAGES`` is the flow's one stage table and ``run_stages`` its one runner,
the only one that writes records; ``run_pipeline``, the CLI subcommands
and the bench all go through them. ``rebuild`` replays a document's layout
records through the same stage work, so the CLI's design files keep none.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, replace

from .circuit import EquivalentCircuit, inverse_solve
from .components import QUBIT_KINDS
from .document import (
    DesignDocument,
    ParameterBundle,
    RequestKey,
    check_leaves,
    dispatch,
    inject,
    register,
)
# unused here; perfbench's INSTRUMENTED table traces sqchip.pipeline.extract
from .document import extract  # noqa: F401
from .errors import (
    FieldTypeError,
    InsufficientFrequencySet,
    InvalidDimension,
    InvalidSubstrate,
    MissingSubEntity,
    NoPath,
    NonAsciiName,
    NonPositiveCapacitance,
    NonPositiveInput,
    ParseError,
    PitchTooSmall,
    SpecInfeasible,
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
from .maze import (
    build_grid,
    check_cell,
    check_penalty,
    resolve_target,
    route_all,
)
from .pattern import allocate_pins, route_pattern
# unused here; perfbench's INSTRUMENTED table traces sqchip.pipeline.map_pins
from .pattern import map_pins  # noqa: F401
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
    # process
    process: str = "generic-10um"

    def __post_init__(self):
        # checked before the comparison below; bool is an int subclass
        if type(self.rows) is not int or type(self.cols) is not int:
            raise InvalidDimension(f"grid dims must be integers, got "
                                   f"rows={self.rows!r}, cols={self.cols!r}")
        # a wrong type would raise a bare Python error below or mid-run, or
        # build a chip from a truthy string
        check_leaves(PipelineConfig, vars(self))
        if not (isinstance(self.qubit_frequencies, tuple) and all(
                isinstance(f, (int, float)) and not isinstance(f, bool)
                for f in self.qubit_frequencies)):
            raise FieldTypeError(f"qubit_frequencies must be a tuple of "
                                 f"numbers, got {self.qubit_frequencies!r}")
        # the name becomes the GDS library name, which must be ASCII
        if not self.name.isascii():
            raise NonAsciiName(f"design name {self.name!r} is not ASCII")
        if self.rows < 1 or self.cols < 1:
            raise NonPositiveInput(f"grid dims must be positive integers, "
                                   f"got {self.rows}x{self.cols}")
        check_cell("maze_cell", self.maze_cell)
        check_penalty("corner_penalty", self.corner_penalty)
        check_penalty("cross_penalty", self.cross_penalty)
        # a nan or inf would otherwise surface mid-run as a raw ValueError
        # from the GDS writer, or pass through the solvers unnoticed
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise NonPositiveInput(f"{f.name} must be finite, "
                                       f"got {getattr(self, f.name)}")
        if not all(math.isfinite(q) and q > 0
                   for q in self.qubit_frequencies):
            raise NonPositiveInput(f"qubit_frequencies must be finite and "
                                   f"positive, got {self.qubit_frequencies}")
        # the checkerboard frequency plan plays the first two tones on
        # neighbouring qubits, so once qubits couple those two must differ
        tones = min(2, self.rows * self.cols)
        if len(set(self.qubit_frequencies[:tones])) < tones:
            raise InsufficientFrequencySet(
                f"a {self.rows}x{self.cols} lattice needs {tones} distinct "
                f"qubit_frequencies first, got {self.qubit_frequencies}")
        for name, allowed in SELECTORS.items():
            check_selector(name, getattr(self, name), allowed)
        if self.border < 0:
            raise NonPositiveInput(f"border must be >= 0, got {self.border}")
        # refused here with the error the stage that reads each would raise
        # (layout, params, readout); a zero gap shorts each resonator to its
        # qubit and its feedline
        if self.pitch <= 2.0 * QUBIT_KINDS[self.qubit_style].half_extent:
            raise PitchTooSmall(f"pitch {self.pitch} um cannot fit "
                                f"{self.qubit_style} footprints")
        if self.qubit_capacitance <= 0:
            raise NonPositiveCapacitance(f"qubit_capacitance must be "
                                         f"positive, got "
                                         f"{self.qubit_capacitance}")
        for name in ("lane_pitch", "trace_gap", "coupling_length",
                     "coupling_strength", "readout_start", "readout_stop"):
            if getattr(self, name) <= 0:
                raise NonPositiveInput(f"{name} must be positive, "
                                       f"got {getattr(self, name)}")
        if not 1.0 < self.eps_r < 30.0:
            raise InvalidSubstrate(f"eps_r {self.eps_r} out of range (1, 30)")
        if self.maze_clearance < 0:
            raise NonPositiveInput(f"maze_clearance must be >= 0, "
                                   f"got {self.maze_clearance}")
        # apply_rules widens routed traces but not the readout feedlines
        rules = get_process(self.process)
        if self.trace_width < rules.min_feature:
            raise SpecInfeasible(f"trace_width {self.trace_width} um is under "
                                 f"the {rules.min_feature} um minimum "
                                 f"feature of {rules.name}")
        need = self.trace_width + rules.min_spacing
        if self.strategy == "pattern" and self.lane_pitch < need:
            raise SpecInfeasible(f"lane_pitch {self.lane_pitch} um is under "
                                 f"the {need} um {rules.name} needs between "
                                 f"pattern lanes")


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
                                    require_distinct_neighbors=True)
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
    return route_pattern(layout, width=trace_width)


def route_maze_core(layout, topology, corner_penalty, cross_penalty,
                    lane_pitch, maze_cell, maze_clearance, trace_width
                    ) -> RoutingResult:
    """The maze route stage's work on a placed layout, in place.

    Each net runs on the grid from its pad to a free cell beside its
    target; the straight tails at both ends are spliced on afterwards, and
    each net takes the role its pin was allocated with.
    """
    allocate_pins(layout, topology, lane_pitch=lane_pitch)
    grid = build_grid(layout, cell=maze_cell, clearance=maze_clearance)
    standoff = maze_clearance + 2.0 * maze_cell

    nets = []
    tails = {}
    for pin in sorted(layout.pins, key=lambda p: p.pin_id):
        pos, off = resolve_target(layout, pin.target, standoff)
        nets.append((pin.net, grid.cell_at(*pin.position),
                     grid.cell_at(*off)))
        tails[pin.net] = (pin.position, pos, pin.role)
    result = route_all(grid, nets, k_corner=corner_penalty,
                       k_cross=cross_penalty, layer=layout.routing_layer,
                       width=trace_width)
    if result.failures:
        raise NoPath(f"{len(result.failures)} nets unroutable: "
                     f"{result.failures[:3]}")
    for p in result.paths:
        head, tail, p.kind = tails[p.net]
        p.points = [head] + p.points + [tail]
    layout.paths.extend(result.paths)
    return result


ROUTE_CORES = {"pattern": route_pattern_core, "maze": route_maze_core}

# PipelineConfig fields that select among named alternatives
SELECTORS = {"qubit_style": QUBIT_STYLES, "strategy": tuple(ROUTE_CORES)}


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
                      operation=self.key.operation, args=args)


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
                       "trace_width"),
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


# ---- replay ----------------------------------------------------------------

_BY_OPERATION = {s.key.operation: s for s in STAGES}
# the stages that build the layout, each on the ones before it
LAYOUT_STAGES = ("layout", "readout", "route", "procmap", "bridges")


def recorded_stages(doc: DesignDocument) -> list:
    """(position, stage, unchecked args) per record since the last topology."""
    records = []
    for i, record in enumerate(doc.provenance_log):
        stage = _BY_OPERATION.get(record.get("operation"))
        if stage is None or "args" not in record:
            continue            # devmap, drc, gds and outside injections
        if stage.name == "topology":
            records = []
        records.append((i, stage, record["args"]))
    return records


def stage_records(doc: DesignDocument) -> tuple[list, dict]:
    """The (stage, args) of each stage record since the last topology
    record, and the PipelineConfig fields they last set (a route record
    sets the strategy too). Their args are checked as ``load`` checks
    section leaves, and the fields by PipelineConfig; a bad one raises
    ParseError."""
    found, fields_set = [], {}
    for i, stage, args in recorded_stages(doc):
        names = list(stage.key.parameter_signature)
        try:
            if not isinstance(args, dict) or sorted(args) != names:
                raise TypeError(f"args {args!r} must name {names}")
            check_leaves(PipelineConfig, args)
        except TypeError as e:
            raise ParseError(f"provenance record {i} ({stage.key.operation})"
                             f": {e}", path=f"provenance[{i}]") from e
        # JSON has no tuple: qubit_frequencies comes back a list
        args = {k: tuple(v) if isinstance(v, list) else v
                for k, v in args.items()}
        found.append((stage, args))
        fields_set.update(args)
        if stage.strategy is not None:
            fields_set["strategy"] = stage.strategy
    try:
        PipelineConfig(**fields_set)
    except (SqchipError, TypeError) as e:
        raise ParseError(f"provenance records since the last topology: {e}",
                         path="provenance") from e
    return found, fields_set


def rebuild(doc: DesignDocument, names=None) -> DesignDocument:
    """doc with the layout its stage records built, rebuilt by the same
    stage work (only the stages in ``names``, when given) without a
    dispatch, so no record is appended. A later record of a stage replaces
    the earlier one and the ones built on it, as the command that wrote it
    did; so the replay starts at the last placement."""
    chain: list = []
    for stage, args in stage_records(doc)[0]:
        if stage.name in LAYOUT_STAGES:
            at = LAYOUT_STAGES.index(stage.name)
            chain = [r for r in chain if LAYOUT_STAGES.index(r[0].name) < at]
            chain.append((stage, args))
    for stage, args in chain:
        if names is None or stage.name in names:
            with _as_stage(stage.name):
                doc = replace(doc, **stage.work(doc, **args))
    return doc


def summarize_routing(layout, strategy: str) -> RoutingResult:
    return RoutingResult(strategy, [p for p in layout.paths
                                    if p.kind in ("control", "transmission")])


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
