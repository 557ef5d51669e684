"""Command-line flow tests: every subcommand against a design file in a
temp directory, plus the exit-code contract (0 ok, 2 validation, 3 stage)."""

from __future__ import annotations

import csv
import hashlib
import re
from dataclasses import fields

import gds_reference
import pytest

from sqchip.cli import _parser, main
from sqchip.components import LAYER_INDIUM
from sqchip.document import load_document, save_document
from sqchip.gdsio import write_gds
from sqchip.pipeline import PipelineConfig, run_pipeline, run_stages


def _run(tmp_path, *argv: str) -> int:
    return main(["--out", str(tmp_path), "--design", "chip.sqd", *argv])


def test_topo_writes_a_design_file(tmp_path, capsys):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "3") == 0
    assert "2x3" in capsys.readouterr().out
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.topology.grid_dims == (2, 3)
    assert len(doc.topology.qubits) == 6


def test_shared_flags_parse_on_either_side_of_the_subcommand(tmp_path):
    assert main(["topo", "--rows", "1", "--cols", "1",
                 "--out", str(tmp_path), "--design", "a.sqd"]) == 0
    assert main(["--out", str(tmp_path), "--design", "b.sqd",
                 "topo", "--rows", "1", "--cols", "1"]) == 0
    assert (tmp_path / "a.sqd").exists() and (tmp_path / "b.sqd").exists()


def test_params_before_topo_is_a_validation_error(tmp_path, capsys):
    assert _run(tmp_path, "params") == 2
    assert "no topology" in capsys.readouterr().err


def test_procmap_before_any_layout_is_a_validation_error(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "1", "--cols", "1")
    assert _run(tmp_path, "procmap") == 2
    assert "no layout" in capsys.readouterr().err


@pytest.mark.parametrize("command, stage", [
    (("layout", "--pitch", "400"), "layout"),        # xmons need 500 um
    (("route", "--strategy", "maze", "--cell", "2000"), "route"),
])
def test_staged_stage_failure_exits_3_naming_the_stage(tmp_path, capsys,
                                                       command, stage):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    capsys.readouterr()
    assert _run(tmp_path, *command) == 3
    assert f"stage '{stage}' failed" in capsys.readouterr().err


def test_drc_without_layout_is_a_validation_error(tmp_path):
    _run(tmp_path, "topo", "--rows", "1", "--cols", "1")
    assert _run(tmp_path, "drc", "--process", "generic-10um") == 2


def test_full_flow_topo_params_layout_route_drc_gds(tmp_path, capsys):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    assert _run(tmp_path, "params", "--frequencies", "4.3e9,4.8e9") == 0
    assert _run(tmp_path, "layout") == 0
    assert _run(tmp_path, "route", "--strategy", "pattern") == 0
    out = capsys.readouterr().out
    assert "routed 8 nets" in out
    assert "0 crossings" in out
    assert _run(tmp_path, "drc", "--process", "generic-10um") == 0
    assert "0 violations" in capsys.readouterr().out
    assert _run(tmp_path, "gds", "--svg") == 0
    assert (tmp_path / "chip.gds").exists()
    assert (tmp_path / "chip.svg").exists()
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.circuit is not None and doc.layout is not None


def test_procmap_refreshes_the_sidecar(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    _run(tmp_path, "route")
    before = (tmp_path / "chip.gds").read_bytes()
    assert _run(tmp_path, "procmap", "--process", "generic-10um") == 0
    assert "air bridges" in capsys.readouterr().out
    after = (tmp_path / "chip.gds").read_bytes()
    assert after != before       # fillets landed in the persisted geometry
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.process_rules.name == "generic-10um"


def test_staged_flip_chip_procmap_places_indium_after_the_reload(tmp_path):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    assert _run(tmp_path, "route", "--flip-chip") == 0
    assert load_document(tmp_path / "chip.sqd").layout.flip_chip
    assert _run(tmp_path, "procmap") == 0
    doc = load_document(tmp_path / "chip.sqd")
    assert sum(LAYER_INDIUM in c.footprint
               for c in doc.layout.components) > 0


def test_route_maze_strategy(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    assert _run(tmp_path, "route", "--strategy", "maze") == 0
    assert "routed 8 nets" in capsys.readouterr().out


def test_devmap_standalone_solves_without_a_design(tmp_path, capsys):
    code = _run(tmp_path, "devmap", "--param", "width", "--target", "10",
                "--evaluator", "stub:linear:2:0", "--lo", "0", "--hi", "100")
    assert code == 0
    assert "width = 5" in capsys.readouterr().out


def test_devmap_standalone_requires_bounds(tmp_path):
    assert _run(tmp_path, "devmap", "--param", "w", "--target", "1",
                "--evaluator", "stub:linear:2:0") == 2


@pytest.mark.parametrize("flag, value", [("--target", "inf"),
                                         ("--target", "nan"),
                                         ("--hi", "inf")])
def test_devmap_refuses_a_non_finite_input(tmp_path, capsys, flag, value):
    argv = {"--lo": "0", "--hi": "10", "--target": "3", flag: value}
    code = _run(tmp_path, "devmap", "--param", "x",
                "--evaluator", "stub:linear:1",
                *[t for kv in argv.items() for t in kv])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_devmap_with_a_failing_evaluator_exits_2(tmp_path, capsys):
    code = _run(tmp_path, "devmap", "--evaluator", "cmd:/bin/false",
                "--param", "x", "--target", "1", "--lo", "0", "--hi", "2")
    assert code == 2
    assert capsys.readouterr().err.startswith("error: evaluator cmd:/bin/false")


def test_devmap_retunes_a_qubit_in_the_design(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "1", "--cols", "2")
    code = _run(tmp_path, "devmap", "--qubit", "q0", "--param", "arm_length",
                "--target", "1e-15", "--evaluator", "stub:pad-capacitance")
    assert code == 0
    assert "arm_length = " in capsys.readouterr().out
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.provenance_log[-1]["operation"] == "devmap:q0"


def test_pipeline_command_runs_end_to_end(tmp_path, capsys):
    assert _run(tmp_path, "pipeline", "--rows", "2", "--cols", "2") == 0
    out = capsys.readouterr().out
    assert "pipeline complete: 4 qubits" in out
    assert "0 DRC violations" in out
    assert (tmp_path / "chip.sqd").exists()
    assert (tmp_path / "chip.gds").exists()


def test_pipeline_stage_failure_exits_3(tmp_path, capsys):
    assert _run(tmp_path, "pipeline", "--rows", "2", "--cols", "2",
                "--pitch", "400") == 3
    assert "stage 'layout'" in capsys.readouterr().err


def _assert_refused_up_front(tmp_path, capsys, monkeypatch, field, *argv):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the config was checked")
    monkeypatch.setattr("sqchip.pipeline.dispatch", no_stage)
    assert _run(tmp_path, "pipeline", *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not (tmp_path / "chip.sqd").exists()


@pytest.mark.parametrize("flag", ["--cross-penalty", "--corner-penalty"])
def test_pipeline_refuses_a_negative_penalty_up_front(tmp_path, capsys,
                                                     monkeypatch, flag):
    # a negative penalty would send the maze router round a cost cycle
    # forever, so no stage may start
    _assert_refused_up_front(tmp_path, capsys, monkeypatch,
                             flag[2:].replace("-", "_"),
                             "--strategy", "maze", flag, "-5")


def test_pipeline_refuses_a_non_finite_pitch_up_front(tmp_path, capsys,
                                                      monkeypatch):
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, "pitch",
                             "--pitch", "nan")


def test_pipeline_refuses_a_negative_border_up_front(tmp_path, capsys,
                                                    monkeypatch):
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, "border",
                             "--border", "-1")


def test_a_non_ascii_design_name_is_refused_at_topo(tmp_path, capsys):
    # every staged command builds its config from the design name, so the
    # first one refuses it before a design file exists
    assert main(["--out", str(tmp_path), "--design", "chip\u00e9.sqd",
                 "topo", "--rows", "1", "--cols", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'chip\u00e9'" in err
    assert not (tmp_path / "chip\u00e9.sqd").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--sizes", "4x", "'4x'"),
    ("--strategies", "patern", "'patern'"),
])
def test_bench_refuses_a_malformed_list_without_a_traceback(tmp_path, capsys,
                                                           flag, value, named):
    assert _run(tmp_path, "bench", flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "bench.csv").exists()


@pytest.mark.parametrize("bound", [("--lo", "1e9"), ("--hi", "1e9")])
def test_devmap_refuses_a_lone_search_bound(tmp_path, capsys, bound):
    _run(tmp_path, "topo", "--rows", "1", "--cols", "2")
    capsys.readouterr()
    assert _run(tmp_path, "devmap", "--qubit", "q0", "--param", "arm_length",
                "--target", "1e-15", "--evaluator", "stub:pad-capacitance",
                *bound) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--lo and --hi" in err
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.provenance_log[-1]["operation"] != "devmap:q0"


def test_bench_command_writes_csv(tmp_path, capsys):
    code = _run(tmp_path, "bench", "--sizes", "2x2,3x3,4x4",
                "--strategies", "pattern", "--repetitions", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "pattern 2x2" in out
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["strategy", "m", "n", "qubits"]
    assert len(rows) == 4


def test_unknown_strategy_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit):
        _run(tmp_path, "route", "--strategy", "steiner")


def test_devmap_leaves_routed_geometry_in_the_design_file(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "3", "--cols", "4")
    _run(tmp_path, "route", "--strategy", "maze")
    before = load_document(tmp_path / "chip.sqd")
    assert len(before.layout.paths) > 0
    assert _run(tmp_path, "devmap", "--qubit", "q0", "--param", "arm_length",
                "--target", "1e-15", "--evaluator",
                "stub:pad-capacitance") == 0
    capsys.readouterr()
    after = load_document(tmp_path / "chip.sqd")
    assert after.provenance_log[-1]["operation"] == "devmap:q0"
    assert len(after.layout.paths) == len(before.layout.paths)


def test_procmap_bridges_the_crossings_of_a_reloaded_maze_route(tmp_path,
                                                                capsys):
    _run(tmp_path, "topo", "--rows", "3", "--cols", "4")
    _run(tmp_path, "route", "--strategy", "maze")
    out = capsys.readouterr().out
    assert "0 crossings" not in out       # this size reliably crosses
    assert _run(tmp_path, "procmap") == 0
    bridged = re.search(r"(\d+) air bridges", capsys.readouterr().out)
    assert bridged and int(bridged.group(1)) > 0
    assert _run(tmp_path, "drc", "--process", "generic-10um") == 0
    # the maze router may trade collinear overlaps for cost (spacing reports
    # are fair game) but every transversal crossing must now carry a bridge
    assert "unbridged-crossing" not in capsys.readouterr().out


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# sha256 prefixes of the staged flow's mask and design file under the default
# design name; route flags vary per case
STAGED_PINS = [
    ((4, 4), (), "1612b0f68e6b88e0", "3be754e91f8d86fa"),
    ((3, 3), ("--strategy", "maze", "--cell", "60", "--clearance", "25",
              "--corner-penalty", "1.5", "--cross-penalty", "3"),
     "aa65d9f03c82d487", "e3d18bfecb2b8358"),
]


@pytest.mark.parametrize("dims, route, gds_pin, sqd_pin", STAGED_PINS)
def test_staged_flow_bytes_are_pinned(tmp_path, capsys, dims, route, gds_pin,
                                      sqd_pin):
    steps = [("topo", "--rows", str(dims[0]), "--cols", str(dims[1])),
             ("params",), ("layout",), ("route", *route),
             ("devmap", "--qubit", "q0", "--param", "arm_length",
              "--target", "3.64e-16", "--evaluator", "stub:pad-capacitance"),
             ("procmap",), ("drc",), ("gds",)]
    for step in steps:
        assert main(["--out", str(tmp_path), *step]) == 0, step
    capsys.readouterr()
    assert _digest(tmp_path / "design.gds") == gds_pin
    assert _digest(tmp_path / "design.sqd") == sqd_pin


def test_a_reloaded_staged_layout_renders_as_the_reference(tmp_path):
    for step in (("topo", "--rows", "3", "--cols", "3"), ("params",),
                 ("layout",), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    sidecar = (tmp_path / "chip.gds").read_bytes()
    doc = load_document(tmp_path / "chip.sqd")
    assert write_gds(doc.layout) == sidecar     # unedited: verbatim
    doc = run_stages(doc, PipelineConfig(rows=3, cols=3),
                     ("procmap", "bridges"))
    edited = write_gds(doc.layout)
    assert edited != sidecar
    assert edited == gds_reference.write_gds(doc.layout)
    # the staged procmap writes the same bytes from the same reload
    assert _run(tmp_path, "procmap") == 0
    assert (tmp_path / "chip.gds").read_bytes() == edited


def test_pipeline_flags_are_the_config_fields_with_their_defaults():
    args = vars(_parser().parse_args(["pipeline"]))
    for f in fields(PipelineConfig):
        if f.name != "name":
            assert args[f.name] == f.default, f.name


def test_pipeline_command_writes_what_run_pipeline_builds(tmp_path, capsys):
    assert _run(tmp_path, "pipeline", "--strategy", "maze", "--cell", "100",
                "--frequencies", "4.4e9,4.9e9",
                "--qubit-capacitance", "70e-15") == 0
    capsys.readouterr()
    result = run_pipeline(PipelineConfig(
        strategy="maze", maze_cell=100.0, qubit_frequencies=(4.4e9, 4.9e9),
        qubit_capacitance=70e-15))
    assert (tmp_path / "chip.gds").read_bytes() == result.gds_bytes
    (tmp_path / "api").mkdir()
    api = save_document(result.document, tmp_path / "api" / "chip.sqd")
    assert (tmp_path / "chip.sqd").read_bytes() == api.read_bytes()
