"""Command-line flow tests: every subcommand against a design file in a
temp directory, plus the exit-code contract (0 ok, 2 validation, 3 stage)."""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import fields, replace

import gds_reference
import pytest
from test_document import TOPOLOGY_EDITS, edit_topology
from test_pipeline import assert_rebuild_reproduces_the_digests

from sqchip import gdsio
from sqchip.cli import _parser, main
from sqchip.components import LAYER_INDIUM
from sqchip.document import load_document, save, save_document
from sqchip.errors import ParseError, SqchipError
from sqchip.gdsio import write_gds
from sqchip.pipeline import PipelineConfig, rebuild, run_pipeline, run_stages


def _run(tmp_path, *argv: str) -> int:
    return main(["--out", str(tmp_path), "--design", "chip.sqd", *argv])


def test_topo_writes_a_design_file(tmp_path, capsys):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "3") == 0
    out = capsys.readouterr().out
    assert "2x3" in out and "dropped" not in out
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
    (("layout", "--pitch", "900"), "readout"),       # meanders need 1000 um
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


def test_a_new_topology_drops_the_circuit_and_layout_of_the_old_one(
        tmp_path, capsys):
    # a 3x3 layout must not pass for the 1x2 design: drc and gds refuse to
    # run instead of checking and writing the old mask
    _run(tmp_path, "topo", "--rows", "3", "--cols", "3")
    _run(tmp_path, "params")
    _run(tmp_path, "route")
    capsys.readouterr()
    assert _run(tmp_path, "topo", "--rows", "1", "--cols", "2") == 0
    assert "dropped the old circuit and layout" in capsys.readouterr().out
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.circuit is None and doc.layout is None
    # the file names no sidecar, and the old mask no longer sits beside it
    assert "layout_ref" not in json.loads((tmp_path / "chip.sqd").read_bytes())
    assert not (tmp_path / "chip.gds").exists()
    assert _run(tmp_path, "params") == 0
    capsys.readouterr()
    for command in (("drc", "--process", "generic-10um"), ("gds",)):
        assert _run(tmp_path, *command) == 2
        assert "run 'layout' first" in capsys.readouterr().err


def test_a_design_without_a_layout_leaves_other_gds_files_alone(tmp_path):
    (tmp_path / "chip.gds").write_bytes(b"not ours")
    _run(tmp_path, "topo", "--rows", "1", "--cols", "2")
    assert _run(tmp_path, "params") == 0
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    assert (tmp_path / "chip.gds").read_bytes() == b"not ours"


def test_topo_leaves_a_sidecar_the_design_file_does_not_own(tmp_path):
    # topo removes <design>.gds only when it holds the mask of the layout
    # topo drops: not when the design stores its layout in another file
    stored = save_document(run_pipeline(rows=2, cols=2).document,
                           tmp_path / "other.sqd")
    mask = (tmp_path / "other.gds").read_bytes()
    (tmp_path / "chip.sqd").write_bytes(stored.read_bytes())
    (tmp_path / "chip.gds").write_bytes(b"not ours")
    assert _run(tmp_path, "topo", "--rows", "1", "--cols", "2") == 0
    assert (tmp_path / "chip.gds").read_bytes() == b"not ours"
    assert (tmp_path / "other.gds").read_bytes() == mask
    # nor beside a design whose records rebuild its layout
    for step in (("topo", "--rows", "2", "--cols", "2"), ("layout",)):
        assert _run(tmp_path, *step) == 0, step
    (tmp_path / "chip.gds").write_bytes(b"not ours")
    assert _run(tmp_path, "topo", "--rows", "1", "--cols", "2") == 0
    assert (tmp_path / "chip.gds").read_bytes() == b"not ours"


def test_drc_refuses_a_design_file_with_invalid_process_rules(tmp_path,
                                                              capsys):
    for command in (("topo", "--rows", "2", "--cols", "2"), ("route",),
                    ("procmap",)):
        _run(tmp_path, *command)
    path = tmp_path / "chip.sqd"
    good = json.loads(path.read_bytes())
    for value in (-100.0, float("nan")):
        bad = {**good, "process_rules": {**good["process_rules"],
                                         "min_spacing": value}}
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert _run(tmp_path, "drc") == 2
        err = capsys.readouterr().err
        assert "process_rules" in err and "min_spacing" in err


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
    doc = rebuild(load_document(tmp_path / "chip.sqd"))
    assert doc.circuit is not None and doc.layout is not None


def _rebuilt_mask(tmp_path) -> bytes:
    return write_gds(rebuild(load_document(tmp_path / "chip.sqd")).layout)


def test_procmap_changes_the_layout_the_design_rebuilds(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    _run(tmp_path, "route")
    before = _rebuilt_mask(tmp_path)
    assert _run(tmp_path, "procmap", "--process", "generic-10um") == 0
    assert "air bridges" in capsys.readouterr().out
    assert _rebuilt_mask(tmp_path) != before    # the fillets are recorded
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.process_rules.name == "generic-10um"


def test_staged_flip_chip_procmap_places_indium_after_the_reload(tmp_path):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    assert _run(tmp_path, "route", "--flip-chip") == 0
    assert rebuild(load_document(tmp_path / "chip.sqd")).layout.flip_chip
    assert _run(tmp_path, "procmap") == 0
    doc = rebuild(load_document(tmp_path / "chip.sqd"))
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


def test_devmap_refuses_a_malformed_stub_evaluator(tmp_path, capsys):
    code = _run(tmp_path, "devmap", "--param", "x", "--lo", "1", "--hi", "2",
                "--target", "1.5", "--evaluator", "stub:linear:abc")
    assert code == 2
    assert "stub:linear slope 'abc' is not a finite number" in \
        capsys.readouterr().err


def test_devmap_refuses_a_stub_argument_it_would_ignore(tmp_path, capsys):
    # the unscaled stub ran, and the command exited 0
    code = _run(tmp_path, "devmap", "--param", "x", "--lo", "1", "--hi", "2",
                "--target", "2.1e-18", "--evaluator", "stub:pad-capacitance:2")
    assert code == 2
    assert "surplus '2'" in capsys.readouterr().err


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


_DEVMAP_Q0 = ("devmap", "--qubit", "q0", "--param", "arm_length",
              "--target", "3.64e-16", "--evaluator", "stub:pad-capacitance")


@pytest.mark.parametrize("qubit, param, named", [
    ("q99", "arm_length", "'q99'"),
    ("q0", "bogus_dim", "tunes arm_length, not 'bogus_dim'"),
])
def test_devmap_refuses_a_qubit_or_param_it_cannot_tune(tmp_path, capsys,
                                                        qubit, param, named):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    before = (tmp_path / "chip.sqd").read_bytes()
    capsys.readouterr()
    assert _run(tmp_path, "devmap", "--qubit", qubit, "--param", param,
                "--target", "3.64e-16",
                "--evaluator", "stub:pad-capacitance") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert (tmp_path / "chip.sqd").read_bytes() == before


def test_devmap_keeps_a_flip_chip_design_flip_chip(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "2", "--cols", "2")
    assert _run(tmp_path, "route", "--flip-chip") == 0
    mask = _rebuilt_mask(tmp_path)
    assert _run(tmp_path, *_DEVMAP_Q0) == 0
    capsys.readouterr()
    assert _rebuilt_mask(tmp_path) == mask
    assert rebuild(load_document(tmp_path / "chip.sqd")).layout.flip_chip


def _placed_design(tmp_path):
    for step in (("topo", "--rows", "2", "--cols", "2"), ("params",),
                 ("layout",)):
        assert _run(tmp_path, *step) == 0, step


def _garbled_design(tmp_path):
    """A placed 2x2 design with a file that is no GDS stream at
    <design>.gds."""
    _placed_design(tmp_path)
    (tmp_path / "chip.gds").write_bytes(b"garbage")


@pytest.mark.parametrize("command", [("procmap",), ("drc",), ("gds",)])
def test_a_command_that_reads_a_garbled_sidecar_refuses_it(tmp_path, capsys,
                                                           command):
    # a design that stores its layout in a sidecar, which is then garbled
    save_document(run_pipeline(rows=2, cols=2).document, tmp_path / "chip.sqd")
    (tmp_path / "chip.gds").write_bytes(b"garbage")
    with pytest.raises(SqchipError) as refused:
        load_document(tmp_path / "chip.sqd")
    capsys.readouterr()
    assert _run(tmp_path, *command) == 2
    assert capsys.readouterr().err == f"error: {refused.value}\n"
    assert (tmp_path / "chip.gds").read_bytes() == b"garbage"


def test_devmap_leaves_a_garbled_sidecar_as_it_found_it(tmp_path, capsys):
    _garbled_design(tmp_path)
    assert _run(tmp_path, *_DEVMAP_Q0) == 0
    assert "arm_length = " in capsys.readouterr().out
    assert (tmp_path / "chip.gds").read_bytes() == b"garbage"
    doc = load_document(tmp_path / "chip.sqd")
    assert doc.provenance_log[-1]["operation"] == "devmap:q0"


def test_a_staged_flow_never_imports_its_own_mask(tmp_path, capsys,
                                                  monkeypatch):
    imports = []        # the command running at each import
    real = gdsio.layout_from_gds

    def counting(src):
        imports.append(step[0])
        return real(src)
    monkeypatch.setattr(gdsio, "layout_from_gds", counting)
    steps = [("topo", "--rows", "4", "--cols", "4"), ("params",),
             ("layout",), ("route",),
             *(("devmap", "--qubit", q, *_DEVMAP_Q0[3:])
               for q in ("q0", "q5", "q9")),
             ("procmap",), ("drc",), ("gds",)]
    for step in steps:
        assert _run(tmp_path, *step) == 0, step
    capsys.readouterr()
    assert imports == []


def test_only_gds_writes_the_mask_of_a_staged_design(tmp_path, capsys):
    for step in (("topo", "--rows", "3", "--cols", "3"), ("params",),
                 ("layout",), ("route",), ("procmap",)):
        assert _run(tmp_path, *step) == 0, step
        assert not (tmp_path / "chip.gds").exists(), step
    assert _run(tmp_path, "gds") == 0
    capsys.readouterr()
    assert (tmp_path / "chip.gds").read_bytes() == run_pipeline(
        rows=3, cols=3, name="chip").gds_bytes


def test_a_gds_file_beside_the_design_survives_the_staged_commands(
        tmp_path, capsys):
    # it is no sidecar of the design, so no command may write or remove it
    (tmp_path / "chip.gds").write_bytes(b"not ours")
    for step in (("topo", "--rows", "2", "--cols", "2"), ("layout",),
                 ("route",), ("procmap",), ("topo", "--rows", "1", "--cols",
                                            "2")):
        assert _run(tmp_path, *step) == 0, step
        assert (tmp_path / "chip.gds").read_bytes() == b"not ours", step


def test_a_command_that_drops_a_stored_layout_removes_its_sidecar(tmp_path,
                                                                  capsys):
    doc = run_pipeline(rows=2, cols=2, name="chip").document
    for command in (("topo", "--rows", "1", "--cols", "2"), ("layout",),
                    ("route",)):
        out = tmp_path / command[0]
        out.mkdir()
        save_document(doc, out / "chip.sqd")
        assert _run(out, *command) == 0, command
        assert not (out / "chip.gds").exists(), command
        assert "layout_ref" not in json.loads((out / "chip.sqd").read_bytes())
        # a design stored with another sidecar leaves both files alone
        other = save_document(doc, out / "other.sqd")
        (out / "chip.sqd").write_bytes(other.read_bytes())
        (out / "chip.gds").write_bytes(b"not ours")
        assert _run(out, *command) == 0, command
        assert (out / "chip.gds").read_bytes() == b"not ours", command
        assert (out / "other.gds").read_bytes() == write_gds(doc.layout)
    capsys.readouterr()


def test_topo_resets_a_design_whose_old_records_do_not_rebuild(
        tmp_path, capsys, monkeypatch):
    for step in (("topo", "--rows", "2", "--cols", "2"), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    path = tmp_path / "chip.sqd"
    design = json.loads(path.read_bytes())
    next(r for r in design["provenance"] if r["operation"]
         == "layout.place-qubits")["args"]["pitch"] = "wide"
    path.write_text(json.dumps(design))

    def replay(*args, **kwargs):
        raise AssertionError("topo replayed the design it replaces")
    with monkeypatch.context() as patch:
        patch.setattr("sqchip.cli.rebuild", replay)
        capsys.readouterr()
        assert _run(tmp_path, "topo", "--rows", "1", "--cols", "2") == 0
    assert "dropped the old layout" in capsys.readouterr().out
    # the records before the new topology no longer count
    for step in (("route",), ("procmap",), ("gds",)):
        assert _run(tmp_path, *step) == 0, step
    assert (tmp_path / "chip.gds").read_bytes() == run_pipeline(
        rows=1, cols=2, name="chip").gds_bytes


def test_pipeline_command_runs_end_to_end(tmp_path, capsys):
    assert _run(tmp_path, "pipeline", "--rows", "2", "--cols", "2") == 0
    out = capsys.readouterr().out
    assert "pipeline complete: 4 qubits" in out
    assert "0 DRC violations" in out
    assert (tmp_path / "chip.sqd").exists()
    assert (tmp_path / "chip.gds").exists()


def test_pipeline_stage_failure_exits_3(tmp_path, capsys):
    assert _run(tmp_path, "pipeline", "--rows", "2", "--cols", "2",
                "--pitch", "900") == 3
    assert "stage 'readout'" in capsys.readouterr().err


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


def test_pipeline_refuses_a_permittivity_out_of_range_up_front(
        tmp_path, capsys, monkeypatch):
    # it failed at readout (exit 3)
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, "eps_r",
                             "--eps-r", "40")


def test_pipeline_refuses_a_negative_border_up_front(tmp_path, capsys,
                                                    monkeypatch):
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, "border",
                             "--border", "-1")


def test_pipeline_refuses_a_negative_maze_clearance_up_front(tmp_path, capsys,
                                                            monkeypatch):
    # a negative clearance lets maze nets run through qubit metal
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, "maze_clearance",
                             "--strategy", "maze", "--clearance", "-200")


@pytest.mark.parametrize("field, flag, bad", [
    ("trace_gap", "--trace-gap", "0"),
    ("coupling_length", "--coupling-length", "-50")])
def test_pipeline_refuses_a_non_positive_gap_or_coupling_up_front(
        tmp_path, capsys, monkeypatch, field, flag, bad):
    _assert_refused_up_front(tmp_path, capsys, monkeypatch, field, flag, bad)


def test_a_non_ascii_design_name_is_refused_at_topo(tmp_path, capsys):
    # every staged command builds its config from the design name, so the
    # first one refuses it before a design file exists
    assert main(["--out", str(tmp_path), "--design", "chip\u00e9.sqd",
                 "topo", "--rows", "1", "--cols", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'chip\u00e9'" in err
    assert not (tmp_path / "chip\u00e9.sqd").exists()


def test_params_refuses_a_single_tone_palette_for_a_lattice_up_front(
        tmp_path, capsys):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    before = (tmp_path / "chip.sqd").read_bytes()
    capsys.readouterr()
    assert _run(tmp_path, "params", "--frequencies", "4e9") == 2
    assert "distinct qubit_frequencies" in capsys.readouterr().err
    assert (tmp_path / "chip.sqd").read_bytes() == before


def test_a_palette_whose_two_leading_tones_match_is_refused_up_front(
        tmp_path, capsys, monkeypatch):
    # the checkerboard plays only the first two tones, so a third distinct
    # one cannot save the palette
    palette = ("--frequencies", "4.3e9,4.3e9,4.8e9")
    _assert_refused_up_front(tmp_path, capsys, monkeypatch,
                             "distinct qubit_frequencies", *palette)
    monkeypatch.undo()
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    before = (tmp_path / "chip.sqd").read_bytes()
    capsys.readouterr()
    assert _run(tmp_path, "params", *palette) == 2
    assert "distinct qubit_frequencies" in capsys.readouterr().err
    assert (tmp_path / "chip.sqd").read_bytes() == before


@pytest.mark.parametrize("edit", [e for e, _ in TOPOLOGY_EDITS.values()],
                         ids=TOPOLOGY_EDITS.keys())
def test_params_refuses_a_design_whose_topology_is_not_its_lattice(
        tmp_path, capsys, edit):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    path = tmp_path / "chip.sqd"
    path.write_bytes(edit_topology(path.read_bytes(), edit))
    capsys.readouterr()
    assert _run(tmp_path, "params") == 2
    assert capsys.readouterr().err.startswith("error: malformed topology: ")


def test_params_refuses_a_design_name_that_is_not_a_string(tmp_path, capsys):
    assert _run(tmp_path, "topo", "--rows", "2", "--cols", "2") == 0
    path = tmp_path / "chip.sqd"
    design = json.loads(path.read_bytes())
    design["meta"]["name"] = 5
    path.write_text(json.dumps(design))
    capsys.readouterr()
    assert _run(tmp_path, "params") == 2
    assert "meta" in capsys.readouterr().err


def _assert_refused_path(capsys, named: str):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_a_deeply_nested_design_file_exits_2(tmp_path, capsys):
    (tmp_path / "chip.sqd").write_bytes(b"[" * 100_000)
    assert _run(tmp_path, "drc") == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_a_directory_given_as_the_design_exits_2(tmp_path, capsys):
    (tmp_path / "chip.sqd").mkdir()
    assert _run(tmp_path, "topo", "--rows", "1", "--cols", "1") == 2
    _assert_refused_path(capsys, str(tmp_path / "chip.sqd"))


def test_a_file_given_as_the_output_directory_exits_2(tmp_path, capsys):
    (tmp_path / "out").write_bytes(b"")
    assert main(["--out", str(tmp_path / "out"), "topo", "--rows", "1",
                 "--cols", "1"]) == 2
    _assert_refused_path(capsys, str(tmp_path / "out"))


def test_bench_with_a_csv_in_a_missing_directory_exits_2(tmp_path, capsys):
    assert _run(tmp_path, "bench", "--sizes", "2x2", "--strategies",
                "pattern", "--repetitions", "3", "--csv",
                "no/such/x.csv") == 2
    _assert_refused_path(capsys, "no/such/x.csv")


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


def test_bench_over_one_qubit_count_writes_csv_and_fits_no_exponent(
        tmp_path, capsys):
    code = _run(tmp_path, "bench", "--sizes", "4x4,2x8,8x2",
                "--strategies", "pattern")
    assert code == 0
    out = capsys.readouterr().out
    assert "time ~ qubits^" not in out
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[:4] for row in rows[1:]] == [
        ["pattern", "4", "4", "16"], ["pattern", "2", "8", "16"],
        ["pattern", "8", "2", "16"]]


def test_unknown_strategy_is_rejected_by_the_parser(tmp_path):
    with pytest.raises(SystemExit):
        _run(tmp_path, "route", "--strategy", "steiner")


def test_devmap_leaves_routed_geometry_in_the_design_file(tmp_path, capsys):
    _run(tmp_path, "topo", "--rows", "3", "--cols", "4")
    _run(tmp_path, "route", "--strategy", "maze")
    before = rebuild(load_document(tmp_path / "chip.sqd"))
    assert len(before.layout.paths) > 0
    assert _run(tmp_path, "devmap", "--qubit", "q0", "--param", "arm_length",
                "--target", "1e-15", "--evaluator",
                "stub:pad-capacitance") == 0
    capsys.readouterr()
    after = rebuild(load_document(tmp_path / "chip.sqd"))
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


_MAZE_FLAGS = ("--strategy", "maze", "--cell", "60", "--clearance", "25",
               "--corner-penalty", "1.5", "--cross-penalty", "3")
# the same route, as run_pipeline overrides
_MAZE_FIELDS = dict(strategy="maze", maze_cell=60.0, maze_clearance=25.0,
                    corner_penalty=1.5, cross_penalty=3.0)

# sha256 prefixes of the staged flow's mask and design file under the default
# design name; route flags vary per case
STAGED_PINS = [
    pytest.param((4, 4), (), "ebbe28f9d02edd8d", "1759a805cb64d8cb",
                 id="pattern-4x4"),
    pytest.param((3, 3), _MAZE_FLAGS, "ae1d7a8adde9e3e6", "9433fc255507ba9e",
                 id="maze-3x3"),
]


def _staged_steps(dims, route=()):
    return [("topo", "--rows", str(dims[0]), "--cols", str(dims[1])),
            ("params",), ("layout",), ("route", *route),
            ("devmap", "--qubit", "q0", "--param", "arm_length",
             "--target", "3.64e-16", "--evaluator", "stub:pad-capacitance"),
            ("procmap",), ("drc",), ("gds",)]


@pytest.mark.parametrize("dims, route, gds_pin, sqd_pin", STAGED_PINS)
def test_staged_flow_bytes_are_pinned(tmp_path, capsys, dims, route, gds_pin,
                                      sqd_pin):
    for step in _staged_steps(dims, route):
        assert main(["--out", str(tmp_path), *step]) == 0, step
    capsys.readouterr()
    assert _digest(tmp_path / "design.gds") == gds_pin
    assert _digest(tmp_path / "design.sqd") == sqd_pin
    # a rebuild reproduces every layout digest the design file records
    assert_rebuild_reproduces_the_digests(
        load_document(tmp_path / "design.sqd"))


def test_a_reloaded_staged_layout_renders_as_the_reference(tmp_path):
    for step in (("topo", "--rows", "3", "--cols", "3"), ("params",),
                 ("layout",), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    assert _run(tmp_path, "gds") == 0
    mask = (tmp_path / "chip.gds").read_bytes()
    doc = rebuild(load_document(tmp_path / "chip.sqd"))
    assert write_gds(doc.layout) == mask
    doc = run_stages(doc, PipelineConfig(rows=3, cols=3),
                     ("procmap", "bridges"))
    edited = write_gds(doc.layout)
    assert edited != mask
    assert edited == gds_reference.write_gds(doc.layout)
    # the staged procmap records the same edit to the same rebuild
    for step in (("procmap",), ("gds",)):
        assert _run(tmp_path, *step) == 0, step
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
    # the design file is the run's document, less the layout its records
    # rebuild
    assert (tmp_path / "chip.sqd").read_bytes() == \
        save(replace(result.document, layout=None))


def test_the_staged_mask_is_the_one_shot_mask(tmp_path, capsys):
    for step in (("topo", "--rows", "4", "--cols", "4"), ("params",),
                 ("layout",), ("route",), ("procmap",), ("gds",)):
        assert _run(tmp_path, *step) == 0, step
    capsys.readouterr()
    assert (tmp_path / "chip.gds").read_bytes() == \
        run_pipeline(rows=4, cols=4, name="chip").gds_bytes


def test_a_staged_process_map_resizes_the_pads_as_the_one_shot_one(
        tmp_path, capsys):
    for step in (("topo", "--rows", "3", "--cols", "3"), ("params",),
                 ("layout",), ("route",), ("procmap", "--process", "fine-4um"),
                 ("drc",), ("gds",)):
        assert _run(tmp_path, *step) == 0, step
    assert "0 violations against fine-4um" in capsys.readouterr().out
    assert (tmp_path / "chip.gds").read_bytes() == run_pipeline(
        rows=3, cols=3, process="fine-4um", name="chip").gds_bytes


def test_the_staged_maze_drc_reports_the_one_shot_count(tmp_path, capsys):
    # a chip this size crosses enough for the count to be more than zero
    for step in (("topo", "--rows", "4", "--cols", "4"), ("params",),
                 ("layout",), ("route", *_MAZE_FLAGS), ("procmap",)):
        assert _run(tmp_path, *step) == 0, step
    capsys.readouterr()
    assert _run(tmp_path, "drc") == 0
    count = len(run_pipeline(rows=4, cols=4, **_MAZE_FIELDS).drc_report)
    assert count > 0
    assert capsys.readouterr().out.endswith(
        f"\n{count} violations against generic-10um\n")


def test_an_unset_flag_takes_the_value_the_design_last_ran_with(tmp_path):
    def q1_x():
        doc = rebuild(load_document(tmp_path / "chip.sqd"))
        return doc.layout.component_by_id("q1").origin[0]

    for step in (("topo", "--rows", "2", "--cols", "2"),
                 ("layout", "--pitch", "2500")):
        assert _run(tmp_path, *step) == 0, step
    assert q1_x() == 3250.0
    assert _run(tmp_path, "route") == 0
    assert q1_x() == 3250.0
    # a new topology starts from the defaults again
    for step in (("topo", "--rows", "2", "--cols", "2"), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    assert q1_x() == 2750.0


@pytest.mark.parametrize("edit, named", [
    (lambda args: args.update(spacing=3.0), "'spacing'"),
    (lambda args: args.update(pitch="wide"), "pitch must be float"),
    (lambda args: args.update(flip_chip=1), "flip_chip must be bool"),
])
def test_drc_refuses_a_record_with_bad_args_naming_it(tmp_path, capsys, edit,
                                                      named):
    for step in (("topo", "--rows", "2", "--cols", "2"), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    path = tmp_path / "chip.sqd"
    design = json.loads(path.read_bytes())
    k, record = next((k, r) for k, r in enumerate(design["provenance"])
                     if r["operation"] == "layout.place-qubits")
    edit(record["args"])
    path.write_text(json.dumps(design))
    with pytest.raises(ParseError):
        rebuild(load_document(path))
    capsys.readouterr()
    assert _run(tmp_path, "drc", "--process", "generic-10um") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: provenance record {k} "
                          f"(layout.place-qubits): ")
    assert named in err


def test_drc_refuses_recorded_args_the_config_refuses(tmp_path, capsys):
    for step in (("topo", "--rows", "2", "--cols", "2"), ("route",)):
        assert _run(tmp_path, *step) == 0, step
    path = tmp_path / "chip.sqd"
    path.write_bytes(path.read_bytes().replace(b'"pitch": 2000.0',
                                               b'"pitch": NaN'))
    capsys.readouterr()
    assert _run(tmp_path, "drc", "--process", "generic-10um") == 2
    assert "pitch must be finite" in capsys.readouterr().err


def test_a_design_stored_through_the_api_stays_stored(tmp_path, capsys):
    design = save_document(run_pipeline(rows=2, cols=2, name="chip").document,
                           tmp_path / "chip.sqd")
    assert _run(tmp_path, "procmap") == 0
    assert _run(tmp_path, "drc") == 0
    assert "0 violations against generic-10um" in capsys.readouterr().out
    assert main(["--out", str(tmp_path / "export"), "--design", str(design),
                 "gds"]) == 0
    design = json.loads((tmp_path / "chip.sqd").read_bytes())
    assert design["layout_ref"] == "chip.gds"
    stored = (tmp_path / "chip.gds").read_bytes()
    assert (tmp_path / "export" / "chip.gds").read_bytes() == stored
    assert write_gds(load_document(tmp_path / "chip.sqd").layout) == stored
