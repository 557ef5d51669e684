"""Property tests for the readers of outside input: ``read_gds``,
``layout_from_gds`` and ``document.load``. Any input either parses or
raises a SqchipError, never a raw exception.

The inputs are streams and design files with a few records retyped and a
few bytes changed, cut or spliced in, so most of them get past the
framing checks into element decoding, the reference refusal and the
import's render memo. Two streams are canonical; the third, from the
test-side writer, holds records the reader does not model. Hypothesis
runs derandomized with a bounded number of examples, so every run tries
the same inputs.
"""

from __future__ import annotations

import json
import struct

import pytest
from gds_reference import foreign_stream

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from sqchip.document import load, save  # noqa: E402
from sqchip.errors import SqchipError  # noqa: E402
from sqchip.gdsio import (  # noqa: E402
    AREF,
    BGNSTR,
    BOUNDARY,
    DATATYPE,
    ENDEL,
    ENDLIB,
    ENDSTR,
    LAYER,
    PATH,
    PATHTYPE,
    SNAME,
    SREF,
    STRANS,
    STRNAME,
    WIDTH,
    XY,
    layout_from_gds,
    read_gds,
    write_gds,
)
from sqchip.layout import place_qubits  # noqa: E402
from sqchip.pipeline import run_pipeline  # noqa: E402
from sqchip.routing import RoutedPath  # noqa: E402
from sqchip.topology import generate_grid  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)


def _small_stream() -> bytes:
    layout = place_qubits(generate_grid(1, 2))
    layout.paths.append(RoutedPath("feed", "signal", 2,
                                   [(-900.0, 300.0), (300.0, 300.0)], 10.0))
    return write_gds(layout)


_RESULT = run_pipeline(rows=2, cols=2)
_STREAMS = (_small_stream(), _RESULT.gds_bytes, foreign_stream())
_SQD = save(_RESULT.document, layout_ref="chip.gds")
# record types a retyped record may take: element starts and ends, the
# reference records and the ones whose payload the reader decodes
_RECTYPES = (BOUNDARY, PATH, SREF, AREF, ENDEL, BGNSTR, STRNAME, ENDSTR,
             ENDLIB, SNAME, STRANS, XY, LAYER, DATATYPE, WIDTH, PATHTYPE)


def _record_offsets(data: bytes) -> list[int]:
    offsets, pos = [], 0
    while pos + 4 <= len(data):
        offsets.append(pos)
        length = struct.unpack_from(">H", data, pos)[0]
        if length < 4:
            break
        pos += length
    return offsets


@st.composite
def _mutated(draw, seeds) -> bytes:
    seed = draw(st.sampled_from(seeds))
    data = bytearray(seed)
    offsets = _record_offsets(seed)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.sampled_from(offsets))
        data[at + 2:at + 4] = struct.pack(">H", draw(st.sampled_from(_RECTYPES)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("set", "cut", "splice")))
        if op == "set" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif op == "cut":
            del data[at:at + draw(st.integers(1, 16))]
        else:
            data[at:at] = draw(st.binary(min_size=1, max_size=16))
    return bytes(data)


@FUZZ
@given(_mutated(_STREAMS))
def test_read_gds_parses_or_refuses_typed(data):
    try:
        lib = read_gds(data)
    except SqchipError:
        return
    # every element the reader returns is one it models, with coordinates
    assert all(el.kind in ("boundary", "path", "sref", "aref") and el.xy
               for s in lib.structures for el in s.elements)


@FUZZ
@given(_mutated(_STREAMS))
def test_layout_from_gds_parses_or_refuses_typed(data):
    try:
        layout = layout_from_gds(data)
    except SqchipError:
        return
    # an unedited import renders from its memo: the stream it was read from
    assert write_gds(layout) == data


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


@st.composite
def _edited_design(draw) -> bytes:
    """The design file with one value somewhere in it replaced."""
    payload = json.loads(_SQD)
    node, key = None, None
    value = payload
    for _ in range(draw(st.integers(1, 6))):
        if isinstance(value, dict) and value:
            node, key = value, draw(st.sampled_from(sorted(value)))
        elif isinstance(value, list) and value:
            node, key = value, draw(st.integers(0, len(value) - 1))
        else:
            break
        value = node[key]
    if node is not None:
        node[key] = draw(_JSON)
    return json.dumps(payload).encode()


@pytest.fixture(scope="module")
def sidecar_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("design")
    (path / "chip.gds").write_bytes(_RESULT.gds_bytes)
    return path


def _load_or_refuse(data: bytes, base_dir) -> None:
    try:
        load(data, base_dir=base_dir)
    except SqchipError:
        pass


def test_the_unedited_design_file_loads(sidecar_dir):
    doc = load(_SQD, base_dir=sidecar_dir)
    assert write_gds(doc.layout) == _RESULT.gds_bytes


@FUZZ
@given(data=_mutated((_SQD,)))
def test_load_parses_or_refuses_mutated_bytes(sidecar_dir, data):
    _load_or_refuse(data, sidecar_dir)


@FUZZ
@given(data=_edited_design())
def test_load_parses_or_refuses_edited_values(sidecar_dir, data):
    _load_or_refuse(data, sidecar_dir)


@pytest.fixture(scope="module")
def fuzzed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzzed")


@FUZZ
@given(stream=_mutated(_STREAMS))
def test_load_parses_or_refuses_a_mutated_sidecar(fuzzed_dir, stream):
    (fuzzed_dir / "chip.gds").write_bytes(stream)
    _load_or_refuse(_SQD, fuzzed_dir)
