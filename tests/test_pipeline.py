"""End-to-end pipeline tests on small grids.

The heavyweight 8x8 run lives in the acceptance suite; these stay at 2x2 to
keep the loop fast.
"""

from __future__ import annotations

import copy
import hashlib
from types import SimpleNamespace

import process_reference
import pytest

from sqchip.document import DesignDocument, save
from sqchip.errors import (
    DegenerateGrid,
    MissingSubEntity,
    NonPositiveInput,
    PitchTooSmall,
    SpecInfeasible,
    StageError,
    UnknownSelector,
)
from sqchip.layout import ChipLayout
from sqchip.pattern import total_pins
from sqchip.topology import generate_grid
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
        run_pipeline(rows=2, cols=2, pitch=400.0)   # xmons need 500 um
    assert err.value.stage == "layout"
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
    pins = {p.pin_id: p for p in result.document.layout.pins}
    for net, path in routed.items():
        assert path.cells is not None
        assert path.points[0] == pins[net].position
        expected = "transmission" if net.startswith("tx_") else "control"
        assert path.kind == expected


def test_flip_chip_run_places_indium_and_routes_opposite():
    from sqchip.components import LAYER_OPPOSITE

    result = run_pipeline(rows=2, cols=2, flip_chip=True)
    layout = result.document.layout
    assert any(c.kind == "indium" for c in layout.components)
    assert all(p.layer == LAYER_OPPOSITE for p in result.routing.paths)
    assert result.drc_report == []


def test_config_rejects_bad_knobs_up_front(monkeypatch):
    with pytest.raises(NonPositiveInput):
        PipelineConfig(rows=0)
    with pytest.raises(UnknownSelector, match="steiner"):
        PipelineConfig(strategy="steiner")
    with pytest.raises(SpecInfeasible):
        PipelineConfig(process="exotic-2um")

    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran before the config was checked")
    monkeypatch.setattr(pipeline, "dispatch", no_stage)
    with pytest.raises(UnknownSelector, match="'foo'.*'xmon', 'transmon'"):
        run_pipeline(qubit_style="foo")
    with pytest.raises(UnknownSelector,
                       match="'bogus'.*'exact', 'estimate-only'"):
        run_pipeline(strategy="maze", penalty_mode="bogus")
    for cell in (0.0, -50.0, float("nan")):
        with pytest.raises(DegenerateGrid, match="maze_cell"):
            run_pipeline(strategy="maze", maze_cell=cell)


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
    (dict(rows=2, cols=2, flip_chip=True), "d65b462c44993dc6"),
]


# sha256 prefixes of save(run_pipeline(...).document, layout_ref="chip.gds");
# they cover each stage's provenance digest, a render of the layout it injected
SQD_PINS = [
    (dict(rows=4, cols=4), "7b5d72730aa1aa0f"),
    (dict(rows=3, cols=3, strategy="maze"), "ab3009ecb8083ea9"),
    (dict(rows=2, cols=2, flip_chip=True), "b2bceb6e969b70b7"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def test_gds_digests_match_the_roadmap_pins():
    for kwargs, pin in ROADMAP_PINS:
        assert _sha(run_pipeline(**kwargs).gds_bytes) == pin, kwargs
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
