"""Stream-format tests: excess-64 reals, record framing, the canonical
writer against an independent reference, an import writing back its own
bytes, and the SVG preview."""

from __future__ import annotations

import random
import struct

import gds_reference
import pytest
from gds_reference import TEXT, excess64_encode, foreign_stream, write_library

from sqchip import gdsio
from sqchip.components import PlacedComponent, make_pad
from sqchip.document import extract
from sqchip.errors import (
    BadMagic,
    CoordinateOverflow,
    NonAsciiName,
    OddLength,
    ParseError,
    SqchipError,
    TruncatedRecord,
    UnwritableElement,
)
from sqchip.gdsio import (
    ENDLIB,
    GdsElement,
    GdsLibrary,
    GdsStructure,
    LIBNAME,
    SNAME,
    STRNAME,
    UNITS,
    XY,
    _UNITS,
    _boundary,
    _iter_records,
    _path,
    _record,
    _sref,
    excess64_decode,
    export_svg,
    layout_from_gds,
    polygons_by_layer,
    read_gds,
    write_gds,
)
from sqchip.geometry import rect
from sqchip.layout import ChipLayout, DieBox, place_qubits
from sqchip.pipeline import run_pipeline
from sqchip.routing import RoutedPath
from sqchip.topology import generate_grid

# hand-packed reference reals: sign/exponent byte then 56-bit base-16 mantissa
REAL_1E_3 = bytes.fromhex("3e4189374bc6a7f0")
REAL_1E_9 = bytes.fromhex("3944b82fa09b5a54")


def test_excess64_reference_vectors_bit_for_bit():
    assert excess64_encode(1e-3) == REAL_1E_3
    assert excess64_encode(1e-9) == REAL_1E_9
    assert excess64_encode(1.0) == bytes.fromhex("4110000000000000")
    assert excess64_encode(-1.0) == bytes.fromhex("c110000000000000")
    assert excess64_encode(0.0) == b"\x00" * 8
    assert excess64_decode(REAL_1E_3) == 1e-3
    assert excess64_decode(REAL_1E_9) == 1e-9


def test_the_units_payload_decodes_to_exactly_a_nanometre_grid():
    assert excess64_decode(_UNITS[:8]) == 1e-3
    assert excess64_decode(_UNITS[8:]) == 1e-9


def test_excess64_round_trip_is_exact():
    rng = random.Random(7)
    for _ in range(2000):
        v = rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
        assert excess64_decode(excess64_encode(v)) == v


def test_excess64_rejects_unrepresentable_values():
    with pytest.raises(ValueError):
        excess64_encode(float("nan"))
    with pytest.raises(ValueError):
        excess64_encode(float("inf"))
    with pytest.raises(ValueError):
        excess64_encode(2.0 ** 1000)
    with pytest.raises(ValueError):
        excess64_encode(2.0 ** -1000)
    with pytest.raises(ValueError):
        excess64_decode(b"\x00" * 7)


def test_units_record_matches_hand_packed_bytes():
    data = write_gds(place_qubits(generate_grid(1, 1)))
    units = struct.pack(">HH", 20, UNITS) + REAL_1E_3 + REAL_1E_9
    assert units in data
    lib = read_gds(data)
    assert lib.unit_user == 1e-3
    assert lib.unit_meters == 1e-9


def test_ten_micron_square_coordinates_hand_checked():
    data = _boundary(1, 0, [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0),
                            (0.0, 10.0)])
    xy = struct.pack(">HH", 44, XY) + struct.pack(
        ">10i", 0, 0, 10000, 0, 10000, 10000, 0, 10000, 0, 0)
    assert xy in data


def test_write_read_write_is_a_fixpoint():
    layout = place_qubits(generate_grid(2, 2))
    first = write_gds(layout)
    second = write_gds(layout_from_gds(first))
    assert second == first


def test_reader_recovers_elements_in_user_units():
    lib = GdsLibrary("model")
    lib.structures.append(GdsStructure("CELL", [
        GdsElement("boundary", layer=3, datatype=1,
                   xy=[(0.0, 0.0), (5.0, 0.0), (5.0, 2.5), (0.0, 2.5)]),
        GdsElement("path", layer=2, width=10.0,
                   xy=[(0.0, 0.0), (100.0, 0.0), (100.0, 50.0)]),
    ]))
    top = GdsStructure("TOP", [GdsElement("sref", sname="CELL", xy=[(0.0, 0.0)])])
    lib.structures.append(top)
    back = read_gds(write_library(lib))
    assert back.name == "model"
    assert [s.name for s in back.structures] == ["CELL", "TOP"]
    cell, top = back.structures
    poly, path = cell.elements
    assert poly.kind == "boundary" and poly.layer == 3 and poly.datatype == 1
    assert poly.xy[-1] == poly.xy[0]            # writer closes the ring
    assert poly.xy[:-1] == [(0.0, 0.0), (5.0, 0.0), (5.0, 2.5), (0.0, 2.5)]
    assert path.kind == "path" and path.width == 10.0
    assert path.xy == [(0.0, 0.0), (100.0, 0.0), (100.0, 50.0)]
    ref, = top.elements
    assert ref.kind == "sref" and ref.sname == "CELL" and ref.xy == [(0.0, 0.0)]


def test_unknown_records_survive_verbatim():
    stream = write_library(GdsLibrary("lib", structures=[
        GdsStructure("S", [TEXT])]))
    lib = read_gds(stream)
    assert [s.name for s in lib.structures] == ["S"]
    assert lib.structures[0].elements == []     # not modeled, only carried
    assert write_gds(layout_from_gds(stream)) == stream


def test_an_unedited_foreign_import_writes_back_its_own_bytes():
    data = foreign_stream()
    back = layout_from_gds(data)
    assert [c.kind for c in back.components] == ["imported"]
    assert len(back.paths) == 1
    assert write_gds(back) == data


def test_a_foreign_import_with_an_edited_path_writes_the_canonical_render():
    back = layout_from_gds(foreign_stream())
    back.paths[0].points[-1] = (400.0, 100.0)
    edited = write_gds(back)
    assert edited == gds_reference.write_gds(back)
    assert TEXT not in edited and not edited.endswith(b"\x00\x00")


def test_missing_endlib_with_zero_padding_still_parses():
    layout = place_qubits(generate_grid(1, 1))
    data = write_gds(layout)
    padded = data[:-4] + b"\x00" * 8            # drop ENDLIB, pad with zeros
    lib = read_gds(padded)
    assert [s.name for s in lib.structures] == \
        [s.name for s in read_gds(data).structures]
    assert write_gds(layout_from_gds(padded)) == padded     # padding and all


def test_writer_refuses_a_non_ascii_name_typed():
    layout = place_qubits(generate_grid(1, 1))
    layout.name = "chip\u00e9"
    with pytest.raises(NonAsciiName, match="'chip\u00e9'"):
        write_gds(layout)
    layout.name = "chip"
    layout.components[0].kind = "cell\u00e9"     # names the kind's cell
    with pytest.raises(NonAsciiName, match="'CELL\u00c9'"):
        write_gds(layout)


@pytest.mark.parametrize("rectype", [LIBNAME, STRNAME, SNAME])
def test_a_name_record_holds_at_most_65530_bytes(rectype):
    # 4 header bytes and an even payload under a 16-bit record length
    assert len(_record(rectype, b"N" * 65530)) == 65534
    with pytest.raises(UnwritableElement, match="65532 bytes"):
        _record(rectype, b"N" * 65532)


def test_writer_refuses_a_name_longer_than_one_record_typed():
    layout = place_qubits(generate_grid(1, 1))
    layout.name = "n" * 65530
    assert read_gds(write_gds(layout)).name == layout.name
    layout.name = "n" * 65531                  # padded to 65,532 bytes
    with pytest.raises(UnwritableElement, match="65532 bytes"):
        write_gds(layout)
    layout.name = "chip"
    layout.components[0].kind = "k" * 70000     # names the kind's cell
    with pytest.raises(UnwritableElement, match="70000 bytes"):
        write_gds(layout)


@pytest.mark.parametrize("rectype", [LIBNAME, STRNAME, SNAME])
def test_reader_refuses_a_non_ascii_name_the_writer_would_refuse(rectype):
    data = bytearray(run_pipeline(rows=1, cols=1).gds_bytes)
    pos = next(p for p, t, _ in _iter_records(bytes(data)) if t == rectype)
    data[pos + 4] = 0xE9
    with pytest.raises(NonAsciiName, match=f"offset {pos} "):
        read_gds(bytes(data))
    with pytest.raises(NonAsciiName):
        layout_from_gds(bytes(data))


def test_reader_rejects_bad_framing():
    with pytest.raises(BadMagic):
        read_gds(struct.pack(">HH", 4, ENDLIB))
    with pytest.raises(TruncatedRecord) as err:
        read_gds(b"\x00\x06")
    assert err.value.offset == 0

    header = struct.pack(">HHh", 6, 0x0002, 600)
    with pytest.raises(OddLength) as err:
        read_gds(header + struct.pack(">HH", 5, 0x0102) + b"\x00")
    assert err.value.offset == 6
    with pytest.raises(TruncatedRecord) as err:
        read_gds(header + struct.pack(">HH", 400, 0x0102) + b"\x00" * 8)
    assert err.value.offset == 6


def _one_element_stream(*element_records: bytes) -> tuple[bytes, int]:
    """A library with one structure holding one element built from the given
    records; returns the stream and the offset of the element's first record."""
    head = (struct.pack(">HHh", 6, 0x0002, 600)
            + struct.pack(">HH12h", 28, 0x0102, *([0] * 12))
            + struct.pack(">HH", 8, 0x0206) + b"lib\x00"
            + struct.pack(">HH", 20, UNITS) + REAL_1E_3 + REAL_1E_9
            + struct.pack(">HH12h", 28, 0x0502, *([0] * 12))
            + struct.pack(">HH", 6, 0x0606) + b"S\x00")
    body = b"".join(element_records)
    tail = struct.pack(">HH", 4, 0x0700) + struct.pack(">HH", 4, ENDLIB)
    return head + body + tail, len(head)


def _rec(rectype: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HH", 4 + len(payload), rectype) + payload


def test_reader_refuses_malformed_element_payloads_at_their_offset():
    boundary, layer = _rec(0x0800), _rec(0x0D02, struct.pack(">h", 1))
    xy = _rec(XY, struct.pack(">6i", 0, 0, 10, 0, 0, 0))
    endel = _rec(0x1100)
    data, at = _one_element_stream(boundary, layer, xy, endel)
    assert read_gds(data).structures[0].elements[0].layer == 1

    # a LAYER, DATATYPE, PATHTYPE or WIDTH payload of the wrong size
    for rectype, payload in ((0x0D02, b""), (0x0E02, b"\x00" * 4),
                             (0x2102, b"\x00" * 6), (0x0F03, b"\x00" * 2)):
        bad, at = _one_element_stream(boundary, _rec(rectype, payload), xy,
                                      endel)
        with pytest.raises(TruncatedRecord) as err:
            read_gds(bad)
        assert err.value.offset == at + len(boundary)
    # an XY payload holding an odd number of ints
    bad, at = _one_element_stream(boundary, layer,
                                  _rec(XY, struct.pack(">3i", 0, 0, 10)), endel)
    with pytest.raises(OddLength) as err:
        read_gds(bad)
    assert err.value.offset == at + len(boundary) + len(layer)
    # an element with no coordinates at all
    for no_xy in ((), (_rec(XY),)):
        bad, at = _one_element_stream(boundary, layer, *no_xy, endel)
        with pytest.raises(TruncatedRecord, match="boundary.*no XY"):
            layout_from_gds(bad)


def test_mutated_streams_fail_only_with_typed_errors():
    data = run_pipeline(rows=2, cols=2).gds_bytes
    rng = random.Random(0)
    leaks = []
    for _ in range(300):
        buf = bytearray(data)
        for _ in range(3):
            buf[rng.randrange(len(buf))] = rng.randrange(256)
        try:
            layout_from_gds(bytes(buf))
        except SqchipError:
            pass
        except Exception as exc:
            leaks.append(repr(exc))
    assert leaks == []


def test_coordinates_beyond_the_grid_refuse_to_write():
    layout = ChipLayout("big", DieBox(0.0, 0.0, 1000.0, 1000.0))
    layout.paths.append(RoutedPath("far", "signal", 2,
                                   [(0.0, 0.0), (3.0e6, 0.0)], 10.0))
    with pytest.raises(CoordinateOverflow):
        write_gds(layout)


def _coordinate(rng: random.Random) -> float:
    """A coordinate in um: anywhere on the grid, or an exact half-nm tie."""
    if rng.random() < 0.5:
        return rng.uniform(-2.0e6, 2.0e6)
    return (rng.randint(-10**9, 10**9) + 0.5) / 1000.0


def _pack(el: GdsElement) -> bytes:
    """el packed by the writer's packer for its kind."""
    if el.kind == "boundary":
        return _boundary(el.layer, el.datatype, el.xy)
    if el.kind == "path":
        return _path(el.layer, el.width, el.xy)
    return _sref(el.sname)


def test_element_packer_matches_the_per_value_reference():
    rng = random.Random(15)
    ties = 0
    for _ in range(300):
        pts = [(_coordinate(rng), _coordinate(rng))
               for _ in range(rng.randint(0, 9))]
        ties += sum(v * 1000.0 % 1.0 == 0.5 for pt in pts for v in pt)
        for el in (
                GdsElement("boundary", layer=rng.randint(0, 30),
                           datatype=rng.randint(0, 3), xy=pts),
                GdsElement("path", layer=rng.randint(0, 30), xy=pts,
                           width=rng.choice((0.0, 10.0, _coordinate(rng)))),
                GdsElement("sref", sname="CELL_A", xy=[(0.0, 0.0)])):
            assert _pack(el) == gds_reference.render_element(el)
    assert ties > 300
    # half-nm ties round to the even neighbour, either side of zero
    pts = [(0.0005, 0.0015), (0.0025, -0.0005), (-0.0015, -0.0025)]
    assert struct.unpack(">6i", _path(0, 0.0, pts)[-28:-4]) == \
        (0, 2, 2, 0, -2, -2)


@pytest.mark.parametrize("kind", ["boundary", "path"])
def test_element_packer_accepts_the_32_bit_grid_and_refuses_beyond_it(kind):
    edge = (2**31 - 1) / 1000.0        # um, at the largest database value
    for sign in (1.0, -1.0):
        pts = [(0.0, 0.0), (sign * edge, 0.0), (0.0, sign * edge)]
        layout = ChipLayout("edge", DieBox(0.0, 0.0, 1000.0, 1000.0))
        if kind == "boundary":
            layout.add_component(PlacedComponent("c", "pad", (0.0, 0.0),
                                                 {1: [pts]}))
        else:
            layout.paths.append(RoutedPath("p", "signal", 1, pts, 10.0))
        el, = [el for s in read_gds(write_gds(layout)).structures
               for el in s.elements if el.kind == kind]
        assert el.xy[1] == (sign * edge, 0.0)
        for at in (1, 2):
            far = list(pts)
            far[at] = tuple(sign * 2**31 / 1000.0 if v else v
                            for v in far[at])
            with pytest.raises(CoordinateOverflow):
                _pack(GdsElement(kind, layer=1, width=10.0, xy=far))


def _append_path(layout):
    layout.paths.append(RoutedPath("extra", "signal", 2,
                                   [(0.0, 0.0), (0.0, 300.0)], 10.0))


def _reassign_points(layout):
    p = layout.paths[0]
    p.points = [(x, y + 100.0) for x, y in p.points]


def _extend_points_in_place(layout):
    layout.paths[0].points.append((900.0, 300.0))


def _set_footprint(layout):
    comp = layout.components[0]
    layer = next(iter(comp.footprint))
    comp.set_footprint(layer, [rect(0.0, 0.0, 40.0, 40.0)])


@pytest.mark.parametrize("edit", [_append_path, _reassign_points,
                                  _extend_points_in_place, _set_footprint])
def test_an_edited_import_writes_its_edits(edit):
    layout = place_qubits(generate_grid(1, 2))
    layout.paths.append(RoutedPath("feed", "signal", 2,
                                   [(-900.0, 300.0), (300.0, 300.0)], 10.0))
    source = write_gds(layout)
    back = layout_from_gds(source)
    assert write_gds(back) == source        # unedited: verbatim
    edit(back)
    edited = write_gds(back)
    assert edited != source
    assert edited == gds_reference.write_gds(back)


def test_layout_import_splits_polygons_into_components():
    layout = place_qubits(generate_grid(1, 2))
    n_polys = sum(len(polys) for c in layout.components
                  for polys in c.footprint.values())
    source = write_gds(layout)
    back = layout_from_gds(source)
    assert all(c.kind == "imported" for c in back.components)
    assert len(back.components) == n_polys
    assert back.die.width > 0 and back.die.height > 0
    assert back.rendered[1] == source       # the import is its own render


def test_an_imported_die_is_the_content_box():
    # a foreign stream whose one pad sits far from the origin: the die
    # used to grow from (0, 0) and so held 2,147 times the content's area
    layout = ChipLayout("pad", DieBox(0.0, 0.0, 6000.0, 6000.0))
    layout.add_component(make_pad("p", (5500.0, 5500.0)))
    back = layout_from_gds(write_gds(layout))
    assert back.content_bbox() == (5440.0, 5440.0, 5560.0, 5560.0)
    assert (back.die.x0, back.die.y0, back.die.x1, back.die.y1) == (
        5440.0, 5440.0, 5560.0, 5560.0)
    # sqchip's own 1x1 mask starts at y = 490, not at the origin
    back = layout_from_gds(run_pipeline(rows=1, cols=1).gds_bytes)
    assert back.die.y0 == back.content_bbox()[1] == 490.0


def test_write_gds_to_file_round_trips(tmp_path):
    layout = place_qubits(generate_grid(1, 1))
    target = tmp_path / "chip.gds"
    data = write_gds(layout, target)
    assert target.read_bytes() == data
    assert write_gds(layout_from_gds(target)) == data


def test_svg_preview_is_deterministic_and_complete():
    layout = place_qubits(generate_grid(2, 2))
    svg = export_svg(layout)
    assert svg == export_svg(layout)
    assert svg.startswith("<svg ")
    total = sum(len(polys) for polys in polygons_by_layer(layout).values())
    assert svg.count("<polygon") == total
    layers = [int(part.split('"')[0]) for part in svg.split('data-layer="')[1:]]
    assert layers == sorted(layers)


def test_svg_writes_to_file(tmp_path):
    layout = place_qubits(generate_grid(1, 1))
    target = tmp_path / "chip.svg"
    svg = export_svg(layout, target)
    assert target.read_text() == svg


# ---- references the flattening import would misplace ----------------------

_SNAME_CELL = _rec(0x1206, b"CELL")
_ENDEL = _rec(0x1100)


def _top_placing(*records: bytes) -> bytes:
    """A stream with a one-square CELL and a TOP made of the given records."""
    cell = GdsStructure("CELL", [
        GdsElement("boundary", layer=1, xy=rect(0.0, 0.0, 5.0, 5.0))])
    top = GdsStructure("TOP", [b"".join(records)])
    return write_library(GdsLibrary("lib", structures=[cell, top]))


def _sref_at(x_db: int, y_db: int, *extra: bytes) -> tuple[bytes, ...]:
    return (_rec(0x0A00), _SNAME_CELL, *extra,
            _rec(XY, struct.pack(">2i", x_db, y_db)), _ENDEL)


@pytest.mark.parametrize("records, what", [
    (_sref_at(5_000_000, 5_000_000), r"at \[\(5000\.0, 5000\.0\)\]"),
    (_sref_at(0, 0, _rec(0x1A01, b"\x80\x00")),
     r"with a transform \(STRANS\)"),
    ((_rec(0x0B00), _SNAME_CELL, _rec(0x1302, struct.pack(">hh", 3, 3)),
      _rec(XY, struct.pack(">6i", 0, 0, 30_000, 0, 0, 30_000)), _ENDEL),
     r"as an array \(AREF\)"),
])
def test_import_refuses_a_reference_it_would_misplace(records, what):
    data = _top_placing(*records)
    assert [s.name for s in read_gds(data).structures] == ["CELL", "TOP"]
    with pytest.raises(ParseError, match=f"'TOP' places 'CELL' {what}"):
        layout_from_gds(data)
    # the same CELL placed plainly at the origin imports
    plain = _top_placing(*_sref_at(0, 0))
    assert write_gds(layout_from_gds(plain)) == plain


# ---- the cached component and path records --------------------------------

def _widen_path(layout):
    layout.paths[0].width += 2.0


def _append_component(layout):
    layout.add_component(make_pad("extra_pad", (-8000.0, -8000.0)))


def _move_path_to_layer_3(layout):
    layout.paths[0].layer = 3


def _replace_points_by_an_equal_list(layout):
    p = layout.paths[0]
    p.points = [tuple(pt) for pt in p.points]


def _splice_ends_like_the_maze_router(layout):
    p = layout.paths[0]
    (x0, y0), (x1, y1) = p.points[0], p.points[-1]
    p.points = [(x0 - 50.0, y0)] + p.points + [(x1 + 50.0, y1)]


@pytest.mark.parametrize("edit", [
    _set_footprint, _extend_points_in_place, _widen_path, _append_component,
    _move_path_to_layer_3, _replace_points_by_an_equal_list,
    _splice_ends_like_the_maze_router])
def test_a_rendered_layout_renders_its_edits(edit):
    layout = run_pipeline(rows=2, cols=2).document.layout
    first = write_gds(layout)
    assert first == gds_reference.write_gds(layout)
    edit(layout)
    second = write_gds(layout)
    assert (second == first) == (edit is _replace_points_by_an_equal_list)
    assert second == gds_reference.write_gds(layout)


def test_an_extracted_copy_renders_alone():
    doc = run_pipeline(rows=2, cols=2).document
    source = write_gds(doc.layout)
    copy = extract(doc, "layout").sections["layout"]
    assert copy is not doc.layout
    assert write_gds(copy) == source == gds_reference.write_gds(copy)
    # edits to the copy reach neither the original's memo nor its components
    _set_footprint(copy)
    _extend_points_in_place(copy)
    assert write_gds(copy) == gds_reference.write_gds(copy) != source
    assert write_gds(doc.layout) == source == gds_reference.write_gds(doc.layout)


# ---- the rectangle packer ---------------------------------------------------

_EDGE = (2**31 - 1) / 1000.0            # um, the largest database value


def _rectangle_like(rng: random.Random) -> list[tuple[float, float]]:
    """A polygon the rectangle packer must pack as the reference does: a
    rectangle listed either way round, closed with a fifth point,
    degenerate, off by 1e-9, on half-nm ties, at -0.0, or at the edge of
    the 32-bit grid or just past it."""
    v = rng.choice((
        lambda: rng.uniform(-2.0e3, 2.0e3),
        lambda: (rng.randint(-10**6, 10**6) + 0.5) / 1000.0,
        lambda: rng.choice((0.0, -0.0, 1.0, -1.0)),
        lambda: rng.choice((_EDGE, -_EDGE, 2**31 / 1000.0, -2**31 / 1000.0,
                            (2**31 + 1) / 1000.0)),
    ))
    x0, y0, x1, y1 = v(), v(), v(), v()
    shape = rng.randrange(7)
    if shape == 1:                      # zero width or zero height
        x1, y1 = rng.choice(((x0, y1), (x1, y0), (x0, y0)))
    poly = rect(x0, y0, x1, y1)
    if shape == 2:                      # clockwise
        poly.reverse()
    elif shape == 3:                    # listed closed
        poly.append(poly[0])
    elif shape == 4:                    # one vertex off by 1e-9
        i, j = rng.randrange(4), rng.randrange(2)
        pt = list(poly[i])
        pt[j] += 1e-9
        poly[i] = tuple(pt)
    elif shape == 5:                    # starts at another corner
        k = rng.randrange(1, 4)
        poly = poly[k:] + poly[:k]
    return poly


def _outcome(write, arg):
    try:
        return write(arg)
    except Exception as exc:            # noqa: BLE001 - compared by type
        return type(exc)


def test_rectangle_packer_matches_the_reference_on_random_layouts():
    rng = random.Random(34)
    outcomes = []
    for n in range(400):
        layout = ChipLayout(f"r{n}", DieBox(0.0, 0.0, 1000.0, 1000.0))
        for i in range(rng.randint(1, 6)):
            polys = [_rectangle_like(rng) for _ in range(rng.randint(1, 3))]
            layout.add_component(PlacedComponent(
                f"c{i}", rng.choice(("pad", "res")), (0.0, 0.0),
                {rng.randint(0, 30): polys}), check_overlap=False)
        for comp in layout.components:
            for layer, polys in comp.footprint.items():
                for poly in polys:
                    el = GdsElement("boundary", layer=layer, xy=poly)
                    got = _outcome(_pack, el)
                    assert got == _outcome(gds_reference.render_element,
                                           el), poly
                    outcomes.append(isinstance(got, bytes))
        assert _outcome(write_gds, layout) == _outcome(
            gds_reference.write_gds, layout)
    # both outcomes are well represented
    assert outcomes.count(True) > 500 and outcomes.count(False) > 500


def test_a_zero_height_rectangle_closed_by_its_own_corners_packs_four_points():
    # rect(x0, y, x1, y) lists its first point again as its last
    poly = rect(0.0, 5.0, 10.0, 5.0)
    assert poly[0] == poly[-1]
    el = GdsElement("boundary", layer=1, xy=poly)
    assert _pack(el) == gds_reference.render_element(el)
    # BOUNDARY, LAYER, DATATYPE and XY headers, four points, ENDEL
    assert len(_pack(el)) == 20 + 4 * 8 + 4


def test_a_pattern_build_rounds_each_rectangle_at_most_four_times(monkeypatch):
    # a count of round() calls in the writer, not a timer
    rounds, per_polygon = [0], []
    boundary = gdsio._boundary

    def counting_round(v):
        rounds[0] += 1
        return round(v)

    def counting_boundary(layer, datatype, points):
        before = rounds[0]
        out = boundary(layer, datatype, points)
        per_polygon.append((points, rounds[0] - before))
        return out

    monkeypatch.setattr(gdsio, "round", counting_round, raising=False)
    monkeypatch.setattr(gdsio, "_boundary", counting_boundary)
    run_pipeline(rows=8, cols=8)
    rects = [n for poly, n in per_polygon if len(poly) == 4
             and poly == rect(*poly[0], *poly[2]) and poly[0] != poly[3]]
    assert len(rects) > 700
    assert max(rects) <= 4
    # any other polygon rounds each coordinate of its closed ring once
    assert all(n == 2 * (len(poly) + 1) for poly, n in per_polygon
               if len(poly) != 4)


# ---- what a GDSII record cannot hold --------------------------------------

def _long(n: int) -> list[tuple[float, float]]:
    return [(float(i), float(i % 2)) for i in range(n)]


@pytest.mark.parametrize("kind, layer, datatype, points, written", [
    ("path", 1, 0, _long(9000), 9000),
    ("boundary", 1, 0, _long(9000), 9001),
    ("boundary", 1, 0, _long(8191), 8192),   # its closing point is one more
    ("path", 1, 0, _long(8192), 8192),
    ("boundary", 40_000, 0, rect(0.0, 0.0, 5.0, 5.0), 5),
    ("boundary", -40_000, 0, _long(3), 4),
    ("boundary", 1, 40_000, rect(0.0, 0.0, 5.0, 5.0), 5),
    ("path", 40_000, 0, _long(2), 2),
])
def test_writer_refuses_what_a_record_cannot_hold_typed(
        kind, layer, datatype, points, written):
    el = GdsElement(kind, layer=layer, datatype=datatype, xy=points,
                    width=10.0)
    with pytest.raises(UnwritableElement,
                       match=rf"{kind} on layer {layer}, datatype "
                             rf"{datatype}, with {written} points .* 8191"):
        _pack(el)


def test_writer_packs_the_most_points_a_record_holds():
    for el in (GdsElement("path", layer=1, xy=_long(8191), width=10.0),
               GdsElement("boundary", layer=1, xy=_long(8190)),
               GdsElement("boundary", layer=-32768, datatype=32767,
                          xy=rect(0.0, 0.0, 5.0, 5.0))):
        assert _pack(el) == gds_reference.render_element(el)


# ---- non-finite coordinates ------------------------------------------------

@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_refuse_typed(bad):
    layout = ChipLayout("nf", DieBox(0.0, 0.0, 1000.0, 1000.0))
    with pytest.raises(CoordinateOverflow, match=str(bad)):
        layout.add_component(make_pad("p", (bad, 0.0)))
    for pts, width in (([(0.0, 0.0), (bad, 5.0)], 10.0),
                       ([(0.0, 0.0), (5.0, 0.0)], bad)):
        layout.paths[:] = [RoutedPath("n", "signal", 2, pts, width)]
        with pytest.raises(CoordinateOverflow, match=str(bad)):
            write_gds(layout)
    for poly in (rect(0.0, 0.0, bad, 5.0),
                 [(0.0, 0.0), (bad, 1.0), (2.0, 3.0)]):
        with pytest.raises(CoordinateOverflow, match=str(bad)):
            _boundary(1, 0, poly)


# ---- what an edited import cannot keep -------------------------------------

def _typed_stream() -> bytes:
    """A datatype-3 square and a datatype-4, pathtype-2 path."""
    square = GdsElement("boundary", layer=1, datatype=3,
                        xy=rect(0.0, 0.0, 5.0, 5.0))
    feed = GdsElement("path", layer=2, datatype=4, pathtype=2, width=10.0,
                      xy=[(0.0, 100.0), (300.0, 100.0)])
    return write_library(GdsLibrary("typed", structures=[
        GdsStructure("CELL", [square]), GdsStructure("TOP", [feed])]))


@pytest.mark.parametrize("edit", [_extend_points_in_place, _append_path,
                                  _set_footprint])
def test_an_edited_import_refuses_to_drop_datatype_and_pathtype(edit):
    data = _typed_stream()
    back = layout_from_gds(data)
    assert write_gds(back) == data          # unedited: verbatim
    edit(back)
    for _ in range(2):                      # and again: the refusal holds
        with pytest.raises(UnwritableElement,
                           match=r"boundary CELL_0 \(datatype 3\)"):
            write_gds(back)


def test_an_edited_import_names_a_path_whose_pathtype_it_would_drop():
    feed = GdsElement("path", layer=2, pathtype=2, width=10.0,
                      xy=[(0.0, 100.0), (300.0, 100.0)])
    data = write_library(GdsLibrary("typed", structures=[
        GdsStructure("TOP", [feed])]))
    back = layout_from_gds(data)
    back.paths[0].points[-1] = (400.0, 100.0)
    with pytest.raises(UnwritableElement,
                       match=r"path TOP_p0 \(datatype 0, pathtype 2\)"):
        write_gds(back)
