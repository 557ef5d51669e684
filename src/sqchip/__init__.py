"""sqchip: superconducting quantum chip layout automation.

Topology through equivalent-circuit parameters, placement, readout
synthesis, escape routing (grid-pattern and maze), fabrication process
mapping, and GDSII emission, tied together by a design document with
request dispatch.
"""

from .bench import BenchRecord, bench_scaling, fit_exponent
from .circuit import (
    CapacitanceMatrix,
    CouplingParams,
    EquivalentCircuit,
    QubitElectricalParams,
    charging_energy,
    coupling_capacitance,
    critical_current,
    inverse_solve,
    josephson_energy,
    josephson_inductance,
    normal_resistance,
    qubit_frequency,
    solve_qubit,
)
from .devmap import (
    Evaluator,
    MappingProblem,
    MappingResult,
    make_evaluator,
    map_qubit_capacitance,
    solve,
)
from .document import (
    DesignDocument,
    ParameterBundle,
    RequestKey,
    dispatch,
    extract,
    inject,
    load_document,
    register,
    save_document,
)
from .errors import SqchipError
from .gdsio import export_svg, layout_from_gds, read_gds, write_gds
from .layout import (
    ChipLayout,
    DieBox,
    allocate_frequencies,
    generate_readout_bus,
    place_qubits,
    readout_ladder,
    resonator_length,
)
from .maze import GridGraph, build_grid, route_all, route_net
from .pattern import (
    PinPlan,
    allocate_pins,
    edge_pin_counts,
    map_pins,
    route_pattern,
    total_pins,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline
from .process import (
    PROCESS_LIBRARY,
    ProcessRules,
    Violation,
    apply_rules,
    drc,
    get_process,
    insert_air_bridges,
    place_indium_columns,
    select_process,
)
from .routing import Pin, RoutedPath, RoutingResult
from .topology import Topology, from_gate_list, generate_grid, rows_bottom_up

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
