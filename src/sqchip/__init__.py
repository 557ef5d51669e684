"""sqchip: superconducting quantum chip layout automation.

Topology through equivalent-circuit parameters, placement, readout
synthesis, escape routing (grid-pattern and maze), fabrication process
mapping, and GDSII emission, tied together by a design document with
request dispatch.

``import sqchip`` loads no submodule. A public name loads the module that
defines it the first time it is read (``sqchip.run_pipeline`` loads
``sqchip.pipeline`` and what it imports), and the value is then kept here.
Stage requests are registered when ``sqchip.pipeline`` loads;
``document.dispatch`` loads it before it refuses a request it has no
handler for.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; each submodule is public too
_EXPORTS = {
    "bench": ("BenchRecord", "bench_scaling", "fit_exponent"),
    "circuit": (
        "CouplingParams", "EquivalentCircuit", "QubitElectricalParams",
        "charging_energy", "coupling_capacitance", "critical_current",
        "inverse_solve", "josephson_energy", "josephson_inductance",
        "normal_resistance", "qubit_frequency", "solve_qubit"),
    "components": (),
    "constants": (),
    "devmap": (
        "Evaluator", "MappingProblem", "MappingResult", "make_evaluator",
        "map_qubit_capacitance", "solve"),
    "document": (
        "DesignDocument", "ParameterBundle", "RequestKey", "dispatch",
        "extract", "inject", "load_document", "register", "save_document"),
    "errors": ("SqchipError",),
    "gdsio": ("export_svg", "layout_from_gds", "read_gds", "write_gds"),
    "geometry": (),
    "layout": (
        "ChipLayout", "DieBox", "allocate_frequencies",
        "generate_readout_bus", "place_qubits", "readout_ladder",
        "resonator_length"),
    "maze": ("GridGraph", "build_grid", "route_all", "route_net"),
    "pattern": (
        "PinPlan", "allocate_pins", "edge_pin_counts", "map_pins",
        "route_pattern", "total_pins"),
    "pipeline": ("PipelineConfig", "PipelineResult", "run_pipeline"),
    "process": (
        "PROCESS_LIBRARY", "ProcessRules", "Violation", "apply_rules", "drc",
        "get_process", "insert_air_bridges", "place_indium_columns"),
    "routing": ("Pin", "RoutedPath", "RoutingResult"),
    "topology": ("Topology", "generate_grid", "rows_bottom_up"),
}

__all__ = [*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__),
                        name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(__all__)
