"""End-to-end pipeline tests on small grids.

The heavyweight 8x8 run lives in the acceptance suite; these stay at 2x2 to
keep the loop fast.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import gds_reference
import process_reference
import pytest

from sqchip import document, gdsio, process
from sqchip.document import DesignDocument, save
from sqchip.components import QUBIT_KINDS
from sqchip.errors import (
    DegenerateGrid,
    FieldTypeError,
    InsufficientFrequencySet,
    InvalidDimension,
    InvalidSubstrate,
    MissingSubEntity,
    NonAsciiName,
    NonPositiveCapacitance,
    NonPositiveInput,
    PitchTooSmall,
    SqchipError,
    SpecInfeasible,
    StageError,
    UnknownSelector,
)
from sqchip.layout import ChipLayout
from sqchip.pattern import total_pins
from sqchip.topology import generate_grid
import sqchip
from sqchip import pipeline
from sqchip.pipeline import PipelineConfig, run_pipeline, summarize_routing
from sqchip.routing import RoutedPath


def test_pipeline_smoke_fills_every_sub_entity():
    result = run_pipeline(rows=2, cols=2)
    doc = result.document
    assert doc.topology is not None and doc.topology.grid_dims == (2, 2)
    assert set(doc.circuit.qubits) == set(doc.topology.qubits)
    assert doc.layout is not None
    assert doc.process_rules is not None
    assert result.gds_bytes[:4] == b"\x00\x06\x00\x02"   # HEADER record
    assert result.drc_report == []
    assert result.routing.strategy == "pattern"
    assert result.routing.nets_routed == total_pins(generate_grid(2, 2))
    assert result.routing.total_crossings == 0


def test_pipeline_provenance_names_every_stage():
    doc = run_pipeline(rows=2, cols=2).document
    assert [r["operation"] for r in doc.provenance_log] == [
        "topology.generate-grid",
        "circuit.solve",
        "layout.place-qubits",
        "layout.readout-bus",
        "route.pattern",
        "process.map",
        "process.air-bridges",
        "drc:0-violations",
        "gds.export",
    ]


def test_pipeline_failure_reports_the_stage():
    with pytest.raises(StageError) as err:
        # xmons fit, but a 900 um pitch leaves no room for the meanders
        run_pipeline(rows=2, cols=2, pitch=900.0)
    assert err.value.stage == "readout"
    assert isinstance(err.value.cause, PitchTooSmall)


def test_pipeline_output_is_deterministic():
    a = run_pipeline(rows=2, cols=2)
    b = run_pipeline(config=PipelineConfig(rows=2, cols=2))
    assert a.gds_bytes == b.gds_bytes
    assert len(a.gds_bytes) > 1000


def test_maze_pipeline_glues_tails_and_stays_clean():
    result = run_pipeline(rows=2, cols=2, strategy="maze")
    assert result.drc_report == []
    routed = {p.net: p for p in result.routing.paths}
    assert len(routed) == total_pins(generate_grid(2, 2))
    pins = {p.net: p for p in result.document.layout.pins}
    for net, path in routed.items():
        assert path.points[0] == pins[net].position
        assert path.kind == pins[net].role


def test_maze_routes_a_single_face_transmon_chip_clean():
    # a transmon's control line lands on its south port: the north one
    # carries the readout resonator and blocks the goal cell
    result = run_pipeline(rows=2, cols=2, strategy="maze",
                          qubit_style="transmon")
    assert result.drc_report == []
    assert len(result.routing.paths) == total_pins(generate_grid(2, 2)) == 8
    ends = {p.points[-1] for p in result.routing.paths}
    for q in result.document.layout.components:
        if q.kind == "transmon":
            assert q.ports["south"].position in ends


def test_maze_and_pattern_runs_report_the_same_net_roles():
    roles = {}
    for strategy in ("pattern", "maze"):
        result = run_pipeline(rows=3, cols=3, strategy=strategy)
        roles[strategy] = Counter(p.kind for p in result.routing.paths)
    assert roles["maze"] == roles["pattern"] == {"control": 9,
                                                 "transmission": 6}


def test_flip_chip_run_places_indium_and_routes_opposite():
    from sqchip.components import LAYER_OPPOSITE

    result = run_pipeline(rows=2, cols=2, flip_chip=True)
    layout = result.document.layout
    assert any(c.kind == "indium" for c in layout.components)
    assert all(p.layer == LAYER_OPPOSITE for p in result.routing.paths)
    assert result.drc_report == []


def _no_stage_may_run(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the config was checked")
    monkeypatch.setattr(pipeline, "dispatch", no_stage)


def test_config_rejects_bad_knobs_up_front(monkeypatch):
    with pytest.raises(NonPositiveInput):
        PipelineConfig(rows=0)
    with pytest.raises(UnknownSelector, match="steiner"):
        PipelineConfig(strategy="steiner")
    with pytest.raises(SpecInfeasible):
        PipelineConfig(process="exotic-2um")

    _no_stage_may_run(monkeypatch)
    with pytest.raises(UnknownSelector, match="'foo'.*'xmon', 'transmon'"):
        run_pipeline(qubit_style="foo")
    for cell in (0.0, -50.0, float("nan")):
        with pytest.raises(DegenerateGrid, match="maze_cell"):
            run_pipeline(strategy="maze", maze_cell=cell)
    for name in ("corner_penalty", "cross_penalty"):
        for bad in (-5.0, -1e-9, float("inf"), float("nan")):
            with pytest.raises(NonPositiveInput, match=name):
                run_pipeline(rows=2, cols=2, strategy="maze", **{name: bad})
    assert PipelineConfig(corner_penalty=0.0, cross_penalty=0.0)


def test_config_refuses_a_negative_border_up_front(monkeypatch):
    _no_stage_may_run(monkeypatch)
    # a negative border only shifted the origin of the same routed die
    for bad in (-500.0, -1e-9):
        with pytest.raises(NonPositiveInput, match="border"):
            run_pipeline(rows=3, cols=3, border=bad)
    assert PipelineConfig(border=0.0)


def test_config_refuses_a_negative_maze_clearance_up_front(monkeypatch):
    _no_stage_may_run(monkeypatch)
    for bad in (-200.0, -1e-9):
        with pytest.raises(NonPositiveInput, match="maze_clearance"):
            run_pipeline(rows=3, cols=3, strategy="maze", maze_clearance=bad)
    assert PipelineConfig(strategy="maze", maze_clearance=0.0)


def test_config_refuses_a_non_ascii_name_up_front(monkeypatch):
    # the name becomes the GDS library name, so no stage may start on it
    _no_stage_may_run(monkeypatch)
    with pytest.raises(NonAsciiName, match="'chip\u00e9'"):
        run_pipeline(rows=1, cols=1, name="chip\u00e9")
    assert PipelineConfig(name="chip-e_1")


@pytest.mark.parametrize("rows, cols, palette", [
    (1, 1, ()),
    (2, 2, ()),
    (2, 2, (4.3e9,)),
    (1, 2, (4.3e9, 4.3e9)),
])
def test_config_refuses_a_palette_the_checkerboard_cannot_use(
        monkeypatch, rows, cols, palette):
    # the frequency plan is a checkerboard, so the config alone decides it
    _no_stage_may_run(monkeypatch)
    with pytest.raises(InsufficientFrequencySet):
        run_pipeline(rows=rows, cols=cols, qubit_frequencies=palette)
    assert PipelineConfig(rows=1, cols=1, qubit_frequencies=(4.3e9,))


def test_config_refuses_equal_leading_tones_before_any_stage(monkeypatch):
    # a distinct third tone does not help: the checkerboard plays only the
    # first two, and the circuit stage would refuse the neighbours mid-run
    _no_stage_may_run(monkeypatch)
    with pytest.raises(InsufficientFrequencySet):
        run_pipeline(rows=2, cols=2,
                     qubit_frequencies=(4.3e9, 4.3e9, 4.8e9))
    # a lone qubit plays one tone, whatever follows it
    assert PipelineConfig(rows=1, cols=1,
                          qubit_frequencies=(4.3e9, 4.3e9, 4.8e9))


@pytest.mark.parametrize("rows, cols", [(2.0, 2), ("2", 2), (True, True),
                                        (2, 2.5)])
def test_config_refuses_non_integer_grid_dims_before_any_stage(
        monkeypatch, rows, cols):
    _no_stage_may_run(monkeypatch)
    with pytest.raises(InvalidDimension):
        run_pipeline(rows=rows, cols=cols)


@pytest.mark.parametrize("kwargs, error, named", [
    (dict(pitch=500.0), PitchTooSmall, "pitch 500.0"),
    (dict(qubit_style="transmon", pitch=440.0), PitchTooSmall, "pitch 440.0"),
    (dict(qubit_capacitance=0.0), NonPositiveCapacitance,
     "qubit_capacitance .* 0.0"),
    (dict(coupling_strength=-5e6), NonPositiveInput,
     "coupling_strength .* -5000000.0"),
    (dict(qubit_frequencies=(4.3e9, -4.8e9)), NonPositiveInput,
     r"qubit_frequencies .* \(4300000000.0, -4800000000.0\)"),
    (dict(readout_start=0.0), NonPositiveInput, "readout_start .* 0.0"),
    (dict(readout_stop=-7e9), NonPositiveInput, "readout_stop .* -7000000000.0"),
    (dict(eps_r=40.0), InvalidSubstrate, "eps_r 40.0"),
    (dict(eps_r=1.0), InvalidSubstrate, "eps_r 1.0"),
])
def test_config_refuses_a_value_a_stage_would_refuse_mid_run(
        monkeypatch, kwargs, error, named):
    # each failed at layout, params or readout with this error
    _no_stage_may_run(monkeypatch)
    with pytest.raises(error, match=named):
        run_pipeline(rows=2, cols=2, **kwargs)


def test_config_takes_the_pitch_limit_from_the_qubit_kind():
    for style, kind in QUBIT_KINDS.items():
        PipelineConfig(qubit_style=style, pitch=2.0 * kind.half_extent + 1.0)


@pytest.mark.parametrize("kwargs, named", [
    (dict(name=5), "name must be str"),
    (dict(pitch="2000"), "pitch must be float"),
    (dict(lane_pitch=None), "lane_pitch must be float"),
    (dict(flip_chip="yes"), "flip_chip must be bool"),
    (dict(border=True), "border must be float"),
    (dict(qubit_frequencies=4.3e9), "qubit_frequencies must be a tuple"),
    (dict(qubit_frequencies=("4.3e9", "4.8e9")),
     "qubit_frequencies must be a tuple"),
    (dict(qubit_frequencies=[4.3e9, 4.8e9]),
     "qubit_frequencies must be a tuple"),
    (dict(qubit_frequencies=(True, False)),
     "qubit_frequencies must be a tuple"),
])
def test_config_refuses_a_wrong_typed_value_naming_it(monkeypatch, kwargs,
                                                      named):
    # a raw AttributeError or TypeError escaped before, and a truthy
    # string or a bool border built a chip
    _no_stage_may_run(monkeypatch)
    with pytest.raises(FieldTypeError, match=named) as err:
        run_pipeline(rows=2, cols=2, **kwargs)
    assert isinstance(err.value, SqchipError)
    assert isinstance(err.value, TypeError)
    # an int is a float; a bool is not
    assert PipelineConfig(pitch=2000, qubit_frequencies=(4300000000, 4.8e9))


@pytest.mark.parametrize("flip_chip", [False, True])
@pytest.mark.parametrize("strategy", ["pattern", "maze"])
@pytest.mark.parametrize("style", ["xmon", "transmon"])
def test_every_control_line_ends_on_a_port_its_qubit_kind_lists(
        style, strategy, flip_chip):
    # the pattern router once ended each transmon line in the pad gap,
    # clear of all metal, and DRC saw nothing
    result = run_pipeline(rows=3, cols=3, qubit_style=style,
                          strategy=strategy, flip_chip=flip_chip)
    layout = result.document.layout
    # a line starts on its pin's pad center
    targets = {p.position: p.target for p in layout.pins}
    controls = [p for p in result.routing.paths if p.kind == "control"]
    assert len(controls) == 9
    for path in controls:
        qubit = layout.component_by_id(targets[path.points[0]])
        ports = QUBIT_KINDS[qubit.kind].control_ports
        assert path.points[-1] in [qubit.ports[n].position for n in ports]
    if strategy == "pattern":
        assert result.drc_report == []


@pytest.mark.parametrize("strategy", ["pattern", "maze"])
@pytest.mark.parametrize("bad", [0.0, -25.0])
def test_config_refuses_a_non_positive_lane_pitch_up_front(monkeypatch,
                                                          strategy, bad):
    _no_stage_may_run(monkeypatch)
    with pytest.raises(NonPositiveInput, match="lane_pitch"):
        run_pipeline(rows=3, cols=3, strategy=strategy, lane_pitch=bad)


@pytest.mark.parametrize("name, bad", [("trace_gap", 0.0),
                                       ("trace_gap", -6.0),
                                       ("coupling_length", 0.0),
                                       ("coupling_length", -50.0)])
def test_config_refuses_a_non_positive_gap_or_coupling_length_up_front(
        monkeypatch, name, bad):
    # a zero gap shorts each resonator to its qubit arm and its feedline,
    # and DRC saw neither; a negative coupling run failed mid-run
    _no_stage_may_run(monkeypatch)
    with pytest.raises(NonPositiveInput, match=f"{name} must be positive, "
                                                f"got {bad}"):
        run_pipeline(rows=2, cols=2, **{name: bad})


# the pattern lane pitch limit is trace_width + min_spacing
@pytest.mark.parametrize("below", [False, True])
@pytest.mark.parametrize("process, trace_width, limit", [
    ("generic-10um", 10.0, 20.0),
    ("fine-4um", 10.0, 14.0),
])
def test_pattern_lane_pitch_is_refused_just_below_its_spacing_limit(
        process, trace_width, limit, below):
    kwargs = dict(rows=3, cols=3, process=process, trace_width=trace_width)
    if below:
        with pytest.raises(SpecInfeasible, match=f"{limit - 0.01} um .* "
                                                 f"{limit} um {process}"):
            PipelineConfig(lane_pitch=limit - 0.01, **kwargs)
    else:
        report = run_pipeline(lane_pitch=limit, **kwargs).drc_report
        assert [v for v in report if v.rule == "spacing"] == []


@pytest.mark.parametrize("strategy", ["pattern", "maze"])
def test_config_refuses_a_trace_width_under_the_process_min_feature(
        monkeypatch, strategy):
    _no_stage_may_run(monkeypatch)
    # the feedlines would keep the narrow width and fail min-feature
    with pytest.raises(SpecInfeasible, match="trace_width 8.0 um .* "
                                             "10.0 um .* generic-10um"):
        run_pipeline(rows=3, cols=3, strategy=strategy, trace_width=8.0,
                     lane_pitch=20.0)
    assert PipelineConfig(process="fine-4um", trace_width=8.0,
                          lane_pitch=12.0)


def test_maze_keeps_a_lane_pitch_under_the_pattern_limit():
    result = run_pipeline(rows=3, cols=3, strategy="maze", lane_pitch=5.0)
    assert result.drc_report == []


FLOAT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig)
                if f.type == "float"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", FLOAT_FIELDS + ["qubit_frequencies"])
def test_config_refuses_a_non_finite_value_naming_the_field(monkeypatch, name,
                                                             bad):
    _no_stage_may_run(monkeypatch)
    value = (4.3e9, bad) if name == "qubit_frequencies" else bad
    # maze_cell keeps its own error type, the one a zero cell raises
    error = DegenerateGrid if name == "maze_cell" else NonPositiveInput
    with pytest.raises(error, match=name):
        run_pipeline(rows=2, cols=2, **{name: value})


def test_stages_edit_the_one_layout_without_copying_it(monkeypatch):
    real = copy.deepcopy

    def no_layout_copy(value, *args, **kwargs):
        if isinstance(value, ChipLayout):
            raise AssertionError("a stage deep-copied the layout")
        return real(value, *args, **kwargs)
    monkeypatch.setattr("sqchip.document.copy.deepcopy", no_layout_copy)
    result = run_pipeline(rows=4, cols=4)
    assert result.drc_report == []


@pytest.mark.parametrize("stage, made, missing", [
    *((s, ("topology", "params"), "layout")
      for s in ("readout", "route", "procmap", "bridges")),
    ("params", (), "topology"),
    ("layout", (), "topology"),
    ("bridges", ("topology", "layout", "readout", "route"), "process_rules"),
])
def test_a_stage_on_a_document_without_its_input_is_refused(stage, made,
                                                             missing):
    cfg = PipelineConfig()
    doc = pipeline.run_stages(DesignDocument(cfg.name), cfg, made)
    (chosen,) = pipeline.selected_stages(cfg, (stage,))
    with pytest.raises(MissingSubEntity, match=f"no {missing}"):
        pipeline.dispatch(chosen.key, doc, **chosen.arguments(cfg))


def test_summarize_routing_skips_passive_geometry():
    paths = [
        RoutedPath("tx_0", "transmission", 2, [(0, 0), (1, 0)], 10.0,
                   corner_count=2, crossing_count=1),
        RoutedPath("ctl_q0", "control", 2, [(0, 0), (0, 1)], 10.0,
                   corner_count=3, crossing_count=0),
        RoutedPath("bus_q0", "feedline", 1, [(0, 0), (5, 0)], 10.0,
                   corner_count=9, crossing_count=9),
    ]
    summary = summarize_routing(SimpleNamespace(paths=paths), "pattern")
    assert summary.nets_routed == 2
    assert summary.total_corners == 5
    assert summary.total_crossings == 1


# sha256 prefixes of run_pipeline(...).gds_bytes, pinned in ROADMAP.md
ROADMAP_PINS = [
    (dict(rows=2, cols=2), "d241b59329659c2f"),
    (dict(rows=4, cols=4), "837a3ceb77331f32"),
    (dict(rows=8, cols=8), "f1e3025a9b75b201"),
    (dict(rows=2, cols=2, strategy="maze"), "7ee3fbc033cb233c"),
    (dict(rows=3, cols=3, strategy="maze"), "4fc207a065af842b"),
    (dict(rows=4, cols=4, strategy="maze"), "6b814d96e16c5a1f"),
    (dict(rows=5, cols=5, strategy="maze"), "55725edd10799e8b"),
    (dict(rows=6, cols=6, strategy="maze"), "d18ab1dcf732fad2"),
    (dict(rows=2, cols=2, flip_chip=True), "d65b462c44993dc6"),
    # 415 indium columns, so the keep-out refuses sites across the die
    (dict(rows=8, cols=8, flip_chip=True), "2da577fc6bf888e3"),
    (dict(rows=3, cols=5), "7af689431202bcfc"),    # left band, no right band
    (dict(rows=1, cols=7), "f41512d907804166"),    # empty bottom edge
    # the one maze flow on the opposite face
    (dict(rows=3, cols=3, strategy="maze", flip_chip=True), "7b868c40f865e47e"),
    # control lines land on the south ports, not in the pad gap
    (dict(rows=3, cols=3, qubit_style="transmon"), "58f2848d7a506968"),
    (dict(rows=3, cols=3, strategy="maze", qubit_style="transmon"),
     "5a6adf327db324f1"),
    # apply_rules resizes every pad
    (dict(rows=5, cols=5, process="fine-4um", lane_pitch=20.0),
     "0980b0c124565cdb"),
]


# sha256 prefixes of save(run_pipeline(...).document, layout_ref="chip.gds");
# they cover each stage's provenance digest, a render of the layout it
# injected, and the arguments the stage ran with
SQD_PINS = [
    (dict(rows=4, cols=4), "0269b69c7346d318"),
    (dict(rows=3, cols=3, strategy="maze"), "26fce661e9ad1597"),
    (dict(rows=2, cols=2, flip_chip=True), "7ceb9985024d8e0b"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_gds_digests_match_the_roadmap_pins():
    for kwargs, pin in ROADMAP_PINS:
        result = run_pipeline(**kwargs)
        assert _sha(result.gds_bytes) == pin, kwargs
        # the cached render equals the element-by-element one
        assert result.gds_bytes == \
            gds_reference.write_gds(result.document.layout), kwargs
    for kwargs, pin in SQD_PINS:
        doc = run_pipeline(**kwargs).document
        assert _sha(save(doc, layout_ref="chip.gds")) == pin, kwargs
    # maze 4x4 is DRC-dirty; whatever it reports, the indexed DRC must say
    # exactly what the all-pairs scan says, in the same order
    result = run_pipeline(rows=4, cols=4, strategy="maze")
    doc = result.document
    want = process_reference.drc(doc.layout, doc.process_rules)
    assert [(v.rule, v.message, v.where, v.subjects)
            for v in result.drc_report] == \
        [(v.rule, v.message, v.where, v.subjects) for v in want]


def test_the_31x31_mask_and_design_file_match_their_pins():
    # the largest chip that routes, where the cached records see the most
    # reuse; the .sqd pin covers every stage's provenance digest at scale
    doc = run_pipeline(rows=31, cols=31).document
    assert _sha(gdsio.write_gds(doc.layout)) == "09cdc1cb800fa00f"
    assert _sha(save(doc, layout_ref="chip.gds")) == "479a58430cd4351a"


# the sections each stage injects, by stage name
_STAGE_SECTIONS = {
    "topology": ("topology",), "params": ("circuit",), "layout": ("layout",),
    "readout": ("layout",), "route": ("layout",),
    "procmap": ("layout", "process_rules"), "bridges": ("layout",)}


def _digest_by_hand(doc, sections) -> str:
    """A provenance digest from its definition: the sorted section names,
    each followed by the element-by-element GDS render of the layout or
    the canonical JSON of any other section."""
    h = hashlib.sha256()
    for name in sorted(sections):
        h.update(name.encode())
        value = getattr(doc, name)
        if name == "layout":
            h.update(gds_reference.write_gds(value))
        else:
            data = document._CODECS[name][0](value)
            h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kwargs", [
    dict(rows=4, cols=4), dict(rows=3, cols=3, strategy="maze"),
    dict(rows=2, cols=2, flip_chip=True),
    dict(rows=3, cols=3, qubit_style="transmon"),
    dict(rows=5, cols=5, process="fine-4um", lane_pitch=20.0)])
def test_each_stage_digest_hashes_what_the_stage_injected(kwargs):
    cfg = PipelineConfig(**kwargs)
    doc = DesignDocument(cfg.name)
    for stage in pipeline.selected_stages(cfg):
        doc = pipeline.run_stages(doc, cfg, names=[stage.name])
        record = doc.provenance_log[-1]
        assert record["operation"] == stage.key.operation
        assert record["digest"] == \
            _digest_by_hand(doc, _STAGE_SECTIONS[stage.name]), stage.name
    whole = run_pipeline(cfg).document
    assert doc.provenance_log == whole.provenance_log[:len(doc.provenance_log)]
    assert_rebuild_reproduces_the_digests(whole)


_STAGE_NAMES = {s.key.operation: s.name for s in pipeline.STAGES}


def assert_rebuild_reproduces_the_digests(doc):
    """Rebuilding doc's layout up to each replayed record's stage gives the
    digest that record holds, computed by hand; nothing is dispatched."""
    log = doc.provenance_log
    start = max(i for i, r in enumerate(log)
                if r["operation"] == "layout.place-qubits")
    bare = dataclasses.replace(doc, layout=None, process_rules=None)
    for record in log[start:]:
        name = _STAGE_NAMES.get(record["operation"])
        if name is None:            # drc, gds and devmap records
            continue
        at = pipeline.LAYOUT_STAGES.index(name)
        rebuilt = pipeline.rebuild(bare, pipeline.LAYOUT_STAGES[:at + 1])
        assert rebuilt.provenance_log == log
        assert record["digest"] == \
            _digest_by_hand(rebuilt, _STAGE_SECTIONS[name]), name


def test_a_build_packs_each_polygon_path_state_and_arc_once(monkeypatch):
    # counted with stand-ins, not timed, so the guard holds on any host
    packed, states, arcs = [], Counter(), Counter()
    boundary, path, arc = gdsio._boundary, gdsio._path, process._arc

    def counting_boundary(layer, datatype, points):
        packed.append(points)
        return boundary(layer, datatype, points)

    def counting_path(layer, width, points):
        states[layer, width, tuple(points)] += 1
        return path(layer, width, points)

    def counting_arc(r, a1, sweep, n):
        arcs[r.hex(), a1.hex(), sweep.hex(), n] += 1
        return arc(r, a1, sweep, n)

    monkeypatch.setattr(gdsio, "_boundary", counting_boundary)
    monkeypatch.setattr(gdsio, "_path", counting_path)
    monkeypatch.setattr(process, "_arc", counting_arc)
    monkeypatch.setattr(process, "_ARCS", {})
    result = run_pipeline(rows=8, cols=8)
    layout = result.document.layout
    polygons = [poly for c in layout.components
                for polys in c.footprint.values() for poly in polys]
    # every component polygon is packed, and none twice
    assert len(packed) == len(polygons)
    assert {id(p) for p in packed} == {id(p) for p in polygons}
    # a path's record is packed once per state it is rendered in, though
    # each stage's digest renders every path
    assert set(states.values()) == {1}
    assert {(p.layer, p.width, tuple(p.points))
            for p in layout.paths} <= set(states)
    # each exact arc's trig runs once, however many corners share it
    assert set(arcs.values()) == {1}
    assert len(arcs) < result.routing.total_corners / 10


def test_sqchip_runs_without_numpy():
    # a None entry in sys.modules makes any import of numpy fail
    script = (
        "import hashlib, sys\n"
        "sys.modules['numpy'] = None\n"
        "from sqchip import run_pipeline\n"
        "gds = run_pipeline(rows=3, cols=3, strategy='maze').gds_bytes\n"
        "print(hashlib.sha256(gds).hexdigest()[:16])\n")
    src = str(Path(sqchip.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "4fc207a065af842b"   # the ROADMAP pin
