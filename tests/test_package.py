"""The package namespace: what ``import sqchip`` offers and what it loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sqchip

# submodule -> the names sqchip re-exports from it
EXPORTS = {
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
PUBLIC = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])


def _fresh(script: str):
    """Run script in a new interpreter; return what it prints, as JSON."""
    src = str(Path(sqchip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_public_names_are_the_re_exports_and_submodules():
    assert len(PUBLIC) == 85
    assert sorted(sqchip.__all__) == PUBLIC
    assert set(sqchip.__all__) <= set(dir(sqchip))


def test_each_public_name_is_the_object_its_module_defines():
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"sqchip.{module}")
        assert getattr(sqchip, module) is mod
        for name in names:
            assert getattr(sqchip, name) is getattr(mod, name), name


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        sqchip.no_such_name


def test_star_import_binds_every_public_name():
    bound = _fresh("import json\n"
                   "from sqchip import *\n"
                   "print(json.dumps(sorted(k for k in dir()\n"
                   "                        if not k.startswith('_'))))\n")
    assert sorted(set(bound) - {"json"}) == PUBLIC


# counts modules, not milliseconds, so it holds on any host
@pytest.mark.parametrize("statement, loaded", [
    ("import sqchip", {"sqchip"}),
    ("import sqchip.gdsio", {"sqchip", "sqchip.gdsio", "sqchip.components",
                             "sqchip.geometry", "sqchip.errors"}),
    ("import sqchip.topology", {"sqchip", "sqchip.topology",
                                "sqchip.errors"}),
])
def test_an_import_loads_only_the_modules_it_needs(statement, loaded):
    got = _fresh(f"import json, sys\n{statement}\n"
                 "print(json.dumps([k for k in sys.modules\n"
                 "                  if k.split('.')[0] == 'sqchip']))\n")
    assert set(got) == loaded


def test_the_cli_loads_the_bench_module_only_for_its_command():
    loaded = _fresh("import json, sys\nimport sqchip.cli\n"
                    "print(json.dumps(sorted(sys.modules)))\n")
    assert "sqchip.bench" not in loaded and "statistics" not in loaded


@pytest.mark.parametrize("source", ["sqchip", "sqchip.document"])
def test_dispatch_reaches_every_stage_in_a_fresh_interpreter(source):
    # stage requests register when sqchip.pipeline loads, which neither
    # import below does by itself
    qubits = _fresh(
        "import json\n"
        f"from {source} import dispatch\n"
        "from sqchip.document import DesignDocument, RequestKey\n"
        "key = RequestKey('design-entity', 'topology.generate-grid',\n"
        "                 ('rows', 'cols'))\n"
        "doc = dispatch(key, DesignDocument(), rows=2, cols=2)\n"
        "print(json.dumps(sorted(doc.topology.qubits)))\n")
    assert len(qubits) == 4
