"""Design-document tests: extract/inject atomicity, request dispatch, and
.sqd persistence with the GDS sidecar."""

from __future__ import annotations

import json
import shutil

import pytest

from sqchip.circuit import CouplingParams, EquivalentCircuit, QubitElectricalParams
from sqchip.document import (
    SCHEMA_VERSION,
    DesignDocument,
    ParameterBundle,
    RequestKey,
    dispatch,
    extract,
    inject,
    load,
    load_document,
    register,
    registered_requests,
    save,
    save_document,
    validate_references,
)
from sqchip.errors import (
    CrossEntityViolation,
    MissingSubEntity,
    ParseError,
    UnknownSelector,
    UnregisteredRequest,
    VersionMismatch,
)
from sqchip.gdsio import write_gds
from sqchip.layout import place_qubits
from sqchip.process import get_process
from sqchip.topology import generate_grid


def _qubit_params(qid: str, f_q: float = 4.3e9) -> QubitElectricalParams:
    return QubitElectricalParams(
        qubit_id=qid, C_q=65e-15, E_C=2.98e8, E_J=8.87e9,
        I_c=2.84e-9, R_n=1.006e5, L_j=1.16e-7, f_q=f_q)


def _small_circuit(qids, edges=()) -> EquivalentCircuit:
    qubits = {q: _qubit_params(q) for q in qids}
    couplings = {e: CouplingParams(e, 5e-15, 8e6) for e in edges}
    return EquivalentCircuit(qubits, couplings)


def test_extract_returns_deep_copies():
    doc = DesignDocument(topology=generate_grid(2, 2))
    bundle = extract(doc, "topology")
    bundle.sections["topology"].qubits["ghost"] = (9, 9)
    assert "ghost" not in doc.topology.qubits


def test_extract_all_covers_only_present_sections():
    doc = DesignDocument(topology=generate_grid(1, 2),
                         circuit=_small_circuit(["q0"]))
    bundle = extract(doc, "all")
    assert set(bundle.sections) == {"topology", "circuit"}
    assert bundle.version == SCHEMA_VERSION


def test_extract_absent_section_is_refused():
    with pytest.raises(MissingSubEntity, match="circuit"):
        extract(DesignDocument(topology=generate_grid(1, 1)), "circuit")


def test_extract_rejects_unknown_selector():
    with pytest.raises(UnknownSelector, match="wiring"):
        extract(DesignDocument(), "wiring")


def test_inject_returns_new_document_and_leaves_input_alone():
    doc = DesignDocument(name="chip-a")
    bundle = ParameterBundle(sections={"topology": generate_grid(2, 3)})
    out = inject(doc, bundle, operation="topology.generate")
    assert out is not doc
    assert doc.topology is None and doc.provenance_log == []
    assert out.topology.grid_dims == (2, 3)
    assert out.name == "chip-a"


def test_inject_provenance_record_is_reproducible():
    doc = DesignDocument(topology=generate_grid(1, 2))
    bundle = extract(doc, "topology")
    out = inject(doc, bundle, operation="touch")
    rec = out.provenance_log[-1]
    assert set(rec) == {"operation", "timestamp", "digest"}
    assert rec["operation"] == "touch"
    assert rec["timestamp"] == "1970-01-01T00:00:00Z"
    assert len(rec["digest"]) == 16
    int(rec["digest"], 16)
    again = inject(doc, extract(doc, "topology"), operation="touch")
    assert again.provenance_log[-1]["digest"] == rec["digest"]


def test_inject_digest_tracks_bundle_content():
    doc = DesignDocument()
    small = ParameterBundle(sections={"topology": generate_grid(1, 1)})
    large = ParameterBundle(sections={"topology": generate_grid(4, 4)})
    d1 = inject(doc, small).provenance_log[-1]["digest"]
    d2 = inject(doc, large).provenance_log[-1]["digest"]
    assert d1 != d2


def test_inject_refuses_version_skew():
    doc = DesignDocument(topology=generate_grid(1, 1))
    stale = ParameterBundle(version="sqd-0",
                            sections={"topology": generate_grid(1, 1)})
    with pytest.raises(VersionMismatch, match="sqd-0"):
        inject(doc, stale)


def test_inject_refuses_unknown_bundle_sections():
    with pytest.raises(UnknownSelector, match="wiring"):
        inject(DesignDocument(), ParameterBundle(sections={"wiring": object()}))


def test_inject_is_atomic_on_cross_entity_failure():
    # circuit names q2, which the 1x2 topology does not have
    doc = DesignDocument(topology=generate_grid(1, 2))
    bad = ParameterBundle(sections={"circuit": _small_circuit(["q0", "q2"])})
    with pytest.raises(CrossEntityViolation, match="q2"):
        inject(doc, bad)
    assert doc.circuit is None and doc.provenance_log == []


def test_inject_checks_merged_state_not_just_the_bundle():
    # shrinking the topology orphans the existing circuit's q3
    doc = DesignDocument(topology=generate_grid(2, 2),
                         circuit=_small_circuit(["q3"]))
    shrunk = ParameterBundle(sections={"topology": generate_grid(1, 2)})
    with pytest.raises(CrossEntityViolation, match="q3"):
        inject(doc, shrunk)


def test_validate_references_covers_layout_and_coupling_names():
    topo = generate_grid(1, 2)
    validate_references(topo, _small_circuit(["q0"], [("q0", "q1")]), None)
    with pytest.raises(CrossEntityViolation, match="circuit"):
        validate_references(topo, _small_circuit(["q0"], [("q0", "q9")]), None)
    layout = place_qubits(generate_grid(2, 2))
    with pytest.raises(CrossEntityViolation, match="layout"):
        validate_references(topo, None, layout)


def test_request_key_normalizes_parameter_signature():
    key = RequestKey("function", "solve", ("pitch", "die", "alpha"))
    assert key.parameter_signature == ("alpha", "die", "pitch")
    assert key == RequestKey("function", "solve", ("alpha", "die", "pitch"))


def test_request_key_rejects_unknown_category():
    with pytest.raises(UnknownSelector, match="tooling"):
        RequestKey("tooling", "solve")


def test_register_and_dispatch_route_by_key():
    key = RequestKey("design-entity", "doc-test.rename", ("suffix",))

    def rename(doc, suffix):
        return DesignDocument(doc.name + suffix, doc.version,
                              provenance_log=list(doc.provenance_log))

    register(key, rename)
    register(key, rename)              # same handler again is fine
    out = dispatch(key, DesignDocument(name="chip"), suffix="-v2")
    assert out.name == "chip-v2"
    with pytest.raises(UnknownSelector, match="already"):
        register(key, lambda doc: doc)


def test_dispatch_refuses_unregistered_requests():
    with pytest.raises(UnregisteredRequest, match="no handler"):
        dispatch(RequestKey("function", "doc-test.never-registered"),
                 DesignDocument())


def test_dispatch_treats_other_argument_names_as_other_requests():
    key = RequestKey("function", "doc-test.scale", ("factor",))
    register(key, lambda doc, factor: doc)
    with pytest.raises(UnregisteredRequest, match="factor"):
        dispatch(key, DesignDocument(), gain=2.0)
    with pytest.raises(UnregisteredRequest):
        dispatch(key, DesignDocument())   # missing argument entirely


def test_registered_requests_come_back_ordered():
    register(RequestKey("library", "doc-test.zz"), lambda doc: doc)
    register(RequestKey("design-entity", "doc-test.aa"), lambda doc: doc)
    keys = registered_requests()
    assert keys == sorted(keys, key=lambda k: (k.category, k.operation))
    assert RequestKey("library", "doc-test.zz") in keys


def test_save_emits_canonical_bytes():
    doc = DesignDocument(name="det", topology=generate_grid(2, 2),
                         process_rules=get_process("generic-10um"))
    data = save(doc)
    assert data == save(doc)
    assert data.endswith(b"\n")
    payload = json.loads(data)
    canonical = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
    assert data == canonical


def test_save_load_round_trip_preserves_entities():
    topo = generate_grid(2, 2)
    circ = _small_circuit(["q0", "q1"], [("q0", "q1")])
    doc = DesignDocument("rt", SCHEMA_VERSION, topo, circ,
                         None, get_process("fine-4um"),
                         [{"operation": "seed", "timestamp": "1970-01-01T00:00:00Z",
                           "digest": "0" * 16}])
    back = load(save(doc))
    assert back.name == "rt"
    assert back.topology.qubits == topo.qubits
    assert back.topology.edges == topo.edges
    assert back.topology.grid_dims == (2, 2)
    assert back.circuit.qubits == circ.qubits
    assert back.circuit.couplings[("q0", "q1")] == circ.couplings[("q0", "q1")]
    assert back.process_rules == doc.process_rules
    assert back.provenance_log == doc.provenance_log


def test_coupling_keys_flatten_to_pipe_strings_on_disk():
    doc = DesignDocument(topology=generate_grid(1, 2),
                         circuit=_small_circuit(["q0", "q1"], [("q0", "q1")]))
    payload = json.loads(save(doc))
    assert list(payload["circuit"]["couplings"]) == ["q0|q1"]
    back = load(save(doc))
    assert back.circuit.couplings[("q0", "q1")].edge == ("q0", "q1")


def test_save_with_layout_requires_a_sidecar_reference():
    doc = DesignDocument(topology=generate_grid(1, 1),
                         layout=place_qubits(generate_grid(1, 1)))
    with pytest.raises(MissingSubEntity, match="layout_ref"):
        save(doc)
    assert b"layout_ref" in save(doc, layout_ref="chip.gds")


def test_load_rejects_non_utf8_with_byte_offset():
    with pytest.raises(ParseError) as err:
        load(b'{"me' + b"\xff" + b'ta"}')
    assert err.value.offset == 4


def test_load_reports_json_syntax_offset():
    with pytest.raises(ParseError) as err:
        load(b'{"meta": }')
    assert err.value.offset == 9


def test_load_insists_on_object_root_and_meta():
    with pytest.raises(ParseError) as err:
        load(b"[]")
    assert err.value.path == "$"
    with pytest.raises(ParseError) as err:
        load(b'{"meta": {"name": "x"}}')   # version missing
    assert err.value.path == "meta"


def test_load_refuses_other_schema_versions():
    doc = json.loads(save(DesignDocument(topology=generate_grid(1, 1))))
    doc["meta"]["version"] = "sqd-99"
    with pytest.raises(VersionMismatch, match="sqd-99"):
        load(json.dumps(doc).encode())


def test_load_names_the_malformed_section():
    doc = json.loads(save(DesignDocument(topology=generate_grid(1, 1))))
    del doc["topology"]["qubits"]
    with pytest.raises(ParseError) as err:
        load(json.dumps(doc).encode())
    assert err.value.path == "topology"


@pytest.mark.parametrize("section, value", [
    ("topology", {"qubits": [], "edges": []}),
    ("circuit", {"qubits": [], "couplings": {}}),
    ("process_rules", ["generic-10um"]),
    ("provenance", 5),
    ("layout_ref", 5),
    ("topology", {"qubits": {"q0": "ab"}, "edges": []}),
    ("topology", {"qubits": {"q0": [0, 0]}, "edges": [["q0", "q9"]]}),
    ("circuit", {"qubits": {"q0": {
        "qubit_id": "q0", "C_q": "65fF", "E_C": 3e8, "E_J": 1.2e10,
        "I_c": 2.4e-8, "R_n": 1.2e4, "L_j": 1.4e-8, "f_q": 4.3e9}},
        "couplings": {}}),
])
def test_load_rejects_a_wrongly_shaped_section_naming_it(section, value):
    payload = {"meta": {"name": "x", "version": SCHEMA_VERSION},
               section: value}
    with pytest.raises(ParseError) as err:
        load(json.dumps(payload).encode())
    assert err.value.path == section


def test_load_missing_sidecar_is_a_parse_error(tmp_path):
    payload = {"meta": {"name": "x", "version": SCHEMA_VERSION},
               "layout_ref": "gone.gds"}
    with pytest.raises(ParseError) as err:
        load(json.dumps(payload).encode(), base_dir=tmp_path)
    assert err.value.path == "layout_ref"


def test_save_document_pairs_file_with_relocatable_sidecar(tmp_path):
    topo = generate_grid(2, 2)
    doc = DesignDocument("pair", topology=topo, layout=place_qubits(topo))
    path = save_document(doc, tmp_path / "chip.sqd")
    sidecar = tmp_path / "chip.gds"
    assert path.exists() and sidecar.exists()
    assert json.loads(path.read_bytes())["layout_ref"] == "chip.gds"

    moved = tmp_path / "elsewhere"
    moved.mkdir()
    shutil.copy(path, moved / "chip.sqd")
    shutil.copy(sidecar, moved / "chip.gds")
    back = load_document(moved / "chip.sqd")
    assert back.layout is not None
    # re-emitting the imported layout reproduces the sidecar byte for byte
    assert write_gds(back.layout) == sidecar.read_bytes()
