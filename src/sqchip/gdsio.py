"""GDSII stream I/O and SVG preview export.

The writer is canonical: fixed record order, pinned timestamps, one
structure per component kind plus a TOP structure of references, so equal
layouts produce byte-identical streams. It packs each thing once. A
component keeps the bytes of its BOUNDARY records from its first render
until ``set_footprint`` changes it, and a layout keeps its last render
(``ChipLayout.rendered``), which ``write_gds`` returns for as long as the
layout holds the geometry it was rendered from. Both caches rely on one
rule: footprints change only through ``PlacedComponent.set_footprint``.

The reader keeps the raw byte slice of every structure it parses, and
``layout_from_gds`` stores those slices re-emitted as the import's render,
which makes write -> read -> write a fixpoint by construction.

Database unit is 1 nm (1e-3 user units of 1 um, 1e-9 m).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

from .components import stroke_centerline
from .errors import (
    BadMagic,
    CoordinateOverflow,
    NonAsciiName,
    OddLength,
    ParseError,
    TruncatedRecord,
    check_selector,
)

# record type bytes (rectype, datatype)
HEADER = 0x0002
BGNLIB = 0x0102
LIBNAME = 0x0206
UNITS = 0x0305
ENDLIB = 0x0400
BGNSTR = 0x0502
STRNAME = 0x0606
ENDSTR = 0x0700
BOUNDARY = 0x0800
PATH = 0x0900
SREF = 0x0A00
AREF = 0x0B00
LAYER = 0x0D02
DATATYPE = 0x0E02
WIDTH = 0x0F03
XY = 0x1003
ENDEL = 0x1100
SNAME = 0x1206
STRANS = 0x1A01
PATHTYPE = 0x2102

GDS_VERSION = 600
DB_PER_UM = 1000          # 1 nm database grid
_EPOCH = (1970, 1, 1, 0, 0, 0)
_I32_MAX = 2**31 - 1


# ---- excess-64 real arithmetic -----------------------------------------

def excess64_encode(value: float) -> bytes:
    """Pack a double as the 8-byte excess-64 real used by the stream format.

    Exact (no rounding): the IEEE mantissa is shifted into a base-16
    normalization, which a 56-bit field always has room for.
    """
    if value == 0.0:
        return b"\x00" * 8
    if math.isnan(value) or math.isinf(value):
        raise ValueError("cannot encode non-finite real")
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    sign = bits >> 63
    e_field = (bits >> 52) & 0x7FF
    m_field = bits & ((1 << 52) - 1)
    if e_field == 0:            # subnormal: no implicit bit
        ee = -1022
        mant = m_field
    else:
        ee = e_field - 1023
        mant = m_field | (1 << 52)
    mant <<= ee % 4
    e64 = 65 + (ee >> 2)
    if not 0 <= e64 <= 127:
        raise ValueError(f"exponent out of excess-64 range for {value!r}")
    return bytes([(sign << 7) | e64]) + mant.to_bytes(7, "big")


def excess64_decode(raw: bytes) -> float:
    if len(raw) != 8:
        raise ValueError("excess-64 real is 8 bytes")
    sign = -1.0 if raw[0] & 0x80 else 1.0
    e64 = raw[0] & 0x7F
    mant = int.from_bytes(raw[1:], "big")
    if mant == 0:
        return 0.0
    return sign * math.ldexp(mant, 4 * (e64 - 64) - 56)


# ---- record plumbing -----------------------------------------------------

def _record(rectype: int, payload: bytes = b"") -> bytes:
    if len(payload) % 2:
        raise OddLength(f"payload for record {rectype:#06x} has odd length")
    return struct.pack(">HH", 4 + len(payload), rectype) + payload


def _ascii(text: str) -> bytes:
    if not text.isascii():
        raise NonAsciiName(f"GDS names are ASCII; {text!r} is not")
    raw = text.encode("ascii")
    return raw + b"\x00" if len(raw) % 2 else raw


def _times() -> bytes:
    return struct.pack(">12h", *(_EPOCH + _EPOCH))


def _to_db(um: float) -> int:
    v = round(um * DB_PER_UM)
    if abs(v) > _I32_MAX:
        raise CoordinateOverflow(f"{um} um exceeds the 32-bit database grid")
    return v


def _xy(points) -> bytes:
    flat = []
    for x, y in points:
        flat.append(_to_db(x))
        flat.append(_to_db(y))
    return struct.pack(f">{len(flat)}i", *flat)


# ---- parsed model --------------------------------------------------------

ELEMENT_KINDS = ("boundary", "path", "sref")     # what the writer renders


@dataclass
class GdsElement:
    kind: str                          # ELEMENT_KINDS; read also gives "aref"
    layer: int = 0
    datatype: int = 0
    xy: list[tuple[float, float]] = field(default_factory=list)  # um
    width: float = 0.0                 # um (paths)
    pathtype: int = 0
    sname: str = ""
    strans: bool = False               # read: the reference has a STRANS


@dataclass
class GdsStructure:
    name: str
    elements: list[GdsElement] = field(default_factory=list)
    # the structure's bytes, written in place of its elements: the verbatim
    # slice when parsed, the cached component records when built
    raw: bytes | None = None


@dataclass
class GdsLibrary:
    name: str
    unit_user: float = 1e-3
    unit_meters: float = 1e-9
    structures: list[GdsStructure] = field(default_factory=list)
    raw_header: bytes | None = None    # HEADER..UNITS slice when parsed

    def structure(self, name: str) -> GdsStructure:
        for s in self.structures:
            if s.name == name:
                return s
        raise KeyError(name)


# ---- reading -------------------------------------------------------------

def _iter_records(data: bytes):
    """Yield (offset, rectype, payload) triples; validates framing."""
    pos = 0
    n = len(data)
    while pos < n:
        if n - pos < 4:
            raise TruncatedRecord(f"record header cut short at offset {pos}", pos)
        length, rectype = struct.unpack_from(">HH", data, pos)
        if length % 2:
            raise OddLength(f"record at offset {pos} has odd length {length}", pos)
        if length < 4:
            if rectype == 0 and length == 0:
                return      # zero padding tail
            raise TruncatedRecord(f"record at offset {pos} shorter than header", pos)
        if pos + length > n:
            raise TruncatedRecord(
                f"record at offset {pos} claims {length} bytes, stream ends", pos)
        yield pos, rectype, data[pos + 4:pos + length]
        if rectype == ENDLIB:
            return
        pos += length


def _name(payload: bytes, pos: int) -> str:
    try:
        return payload.rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError:
        raise NonAsciiName(f"name record at offset {pos} is not ASCII: "
                           f"{payload!r}") from None


# payload bytes of the fixed-size element records the reader decodes
_PAYLOAD_SIZE = {LAYER: 2, DATATYPE: 2, PATHTYPE: 2, WIDTH: 4}


def read_gds(src) -> GdsLibrary:
    """Parse a stream (bytes) or a file path into a GdsLibrary.

    A malformed stream raises BadMagic, TruncatedRecord or OddLength; the
    last two carry the offending record's offset. A name the writer would
    refuse raises NonAsciiName.
    """
    if isinstance(src, (str, Path)):
        data = Path(src).read_bytes()
    else:
        data = bytes(src)
    if len(data) < 4:
        raise TruncatedRecord("stream shorter than one record header", 0)
    first_type = struct.unpack_from(">HH", data, 0)[1]
    if first_type != HEADER:
        raise BadMagic(f"stream does not begin with a HEADER record "
                       f"(got {first_type:#06x})")

    lib = GdsLibrary("")
    cur: GdsStructure | None = None
    el: GdsElement | None = None
    struct_start = -1
    header_end = -1
    scale = 1.0 / DB_PER_UM
    for pos, rectype, payload in _iter_records(data):
        if rectype == HEADER:
            continue
        if rectype == BGNLIB:
            continue
        if rectype == LIBNAME:
            lib.name = _name(payload, pos)
        elif rectype == UNITS:
            if len(payload) != 16:
                raise TruncatedRecord(f"UNITS record at offset {pos} malformed", pos)
            lib.unit_user = excess64_decode(payload[:8])
            lib.unit_meters = excess64_decode(payload[8:])
            header_end = pos + 4 + len(payload)
            lib.raw_header = data[:header_end]
            # geometry below converts via meters per database unit
            scale = lib.unit_meters / 1e-6
        elif rectype == BGNSTR:
            cur = GdsStructure("")
            struct_start = pos
            el = None
        elif rectype == STRNAME:
            if cur is not None:
                cur.name = _name(payload, pos)
        elif rectype == ENDSTR:
            if cur is not None:
                cur.raw = data[struct_start:pos + 4]
                lib.structures.append(cur)
                cur = None
        elif rectype == ENDLIB:
            break
        elif cur is not None:
            if rectype == BOUNDARY:
                el = GdsElement("boundary")
            elif rectype == PATH:
                el = GdsElement("path")
            elif rectype == SREF:
                el = GdsElement("sref")
            elif rectype == AREF:
                el = GdsElement("aref")
            elif rectype == ENDEL:
                if el is not None:
                    if not el.xy:
                        raise TruncatedRecord(
                            f"{el.kind} element ending at offset {pos} "
                            f"has no XY", pos)
                    cur.elements.append(el)
                el = None
            elif el is not None:
                size = _PAYLOAD_SIZE.get(rectype, len(payload))
                if len(payload) != size:
                    raise TruncatedRecord(
                        f"record {rectype:#06x} at offset {pos} has "
                        f"{len(payload)} payload bytes, expects {size}", pos)
                if rectype == LAYER:
                    el.layer = struct.unpack(">h", payload)[0]
                elif rectype == DATATYPE:
                    el.datatype = struct.unpack(">h", payload)[0]
                elif rectype == WIDTH:
                    el.width = struct.unpack(">i", payload)[0] * scale
                elif rectype == PATHTYPE:
                    el.pathtype = struct.unpack(">h", payload)[0]
                elif rectype == SNAME:
                    el.sname = _name(payload, pos)
                elif rectype == STRANS:
                    el.strans = True
                elif rectype == XY:
                    if len(payload) % 8:
                        raise OddLength(
                            f"XY record at offset {pos} has {len(payload)} "
                            f"payload bytes, not whole (x, y) pairs", pos)
                    vals = struct.unpack(f">{len(payload) // 4}i", payload)
                    el.xy = [(vals[i] * scale, vals[i + 1] * scale)
                             for i in range(0, len(vals), 2)]
    return lib


# ---- writing -------------------------------------------------------------

def _render_element(el: GdsElement) -> bytes:
    check_selector("element kind", el.kind, ELEMENT_KINDS)
    out = []
    if el.kind == "boundary":
        pts = list(el.xy)
        if pts and pts[0] != pts[-1]:
            pts.append(pts[0])
        out.append(_record(BOUNDARY))
        out.append(_record(LAYER, struct.pack(">h", el.layer)))
        out.append(_record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(_record(XY, _xy(pts)))
    elif el.kind == "path":
        out.append(_record(PATH))
        out.append(_record(LAYER, struct.pack(">h", el.layer)))
        out.append(_record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(_record(PATHTYPE, struct.pack(">h", el.pathtype)))
        out.append(_record(WIDTH, struct.pack(">i", _to_db(el.width))))
        out.append(_record(XY, _xy(el.xy)))
    else:
        out.append(_record(SREF))
        out.append(_record(SNAME, _ascii(el.sname)))
        out.append(_record(XY, _xy(el.xy)))
    out.append(_record(ENDEL))
    return b"".join(out)


def _frame(name: str, body: bytes) -> bytes:
    return b"".join((_record(BGNSTR, _times()), _record(STRNAME, _ascii(name)),
                     body, _record(ENDSTR)))


def _render_structure(s: GdsStructure) -> bytes:
    if s.raw is not None:
        return s.raw
    return _frame(s.name, b"".join(_render_element(el) for el in s.elements))


def write_library(lib: GdsLibrary) -> bytes:
    out = []
    if lib.raw_header is not None:
        out.append(lib.raw_header)
    else:
        out.append(_record(HEADER, struct.pack(">h", GDS_VERSION)))
        out.append(_record(BGNLIB, _times()))
        out.append(_record(LIBNAME, _ascii(lib.name)))
        out.append(_record(UNITS, excess64_encode(lib.unit_user)
                           + excess64_encode(lib.unit_meters)))
    out.extend(_render_structure(s) for s in lib.structures)
    out.append(_record(ENDLIB))
    return b"".join(out)


def _cell_name(kind: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in kind)
    return safe.upper() or "MISC"


def _boundaries(comp) -> bytes:
    """comp's BOUNDARY records, layers ascending, packed on first use and
    kept on comp until set_footprint clears them."""
    if comp._gds is None:
        comp._gds = b"".join(
            _render_element(GdsElement("boundary", layer=layer, xy=poly))
            for layer in sorted(comp.footprint)
            for poly in comp.footprint[layer])
    return comp._gds


def build_library(layout) -> GdsLibrary:
    """Canonical library: one structure per component kind, TOP references all.

    A component structure is built as its raw bytes, from each member's
    cached BOUNDARY records; TOP keeps its elements.
    """
    groups: dict[str, list] = {}
    for comp in layout.components:
        groups.setdefault(_cell_name(comp.kind), []).append(comp)

    lib = GdsLibrary(layout.name or "chip")
    top = GdsStructure("TOP")
    for cell in sorted(groups):
        members = sorted(groups[cell], key=lambda c: c.comp_id)
        lib.structures.append(GdsStructure(cell, raw=_frame(
            cell, b"".join(_boundaries(c) for c in members))))
        top.elements.append(GdsElement("sref", sname=cell, xy=[(0.0, 0.0)]))
    for p in layout.paths:
        top.elements.append(GdsElement("path", layer=p.layer, xy=p.points,
                                       width=p.width))
    lib.structures.append(top)
    return lib


def _geometry(layout) -> tuple:
    """What build_library reads of a layout, as a value to compare: the key
    of the layout's render memo.

    Path points are copied, so an in-place edit of a path shows. Footprints
    are not: like the bounding-box and BOUNDARY-bytes caches, this relies
    on footprints changing only through set_footprint, which puts a new
    polygon list in place of the old one.
    """
    return (layout.name,
            [(c.comp_id, c.kind, dict(c.footprint)) for c in layout.components],
            [(p.layer, p.width, list(p.points)) for p in layout.paths])


def write_gds(layout, path=None) -> bytes:
    """The layout's GDS stream, rendered at most once per layout state."""
    key = _geometry(layout)
    if layout.rendered is None or layout.rendered[0] != key:
        layout.rendered = (key, write_library(build_library(layout)))
    data = layout.rendered[1]
    if path is not None:
        Path(path).write_bytes(data)
    return data


def layout_from_gds(src):
    """Geometry-level import: every structure's polygons and paths, flattened.

    Each structure is imported as if placed once at the origin, which is
    where the canonical writer places every reference. Any other reference
    (an SREF at an offset, an SREF with a STRANS transform, any AREF) is
    refused with ParseError, rather than imported misplaced. The import's
    render memo holds the source stream re-emitted, so an unedited import
    writes back verbatim.
    """
    from .components import PlacedComponent
    from .geometry import bbox
    from .layout import ChipLayout, DieBox
    from .routing import RoutedPath

    lib = read_gds(src)
    layout = ChipLayout(lib.name or "imported", DieBox(0, 0, 0, 0))
    for s in lib.structures:
        # one component per polygon: structures group unrelated geometry,
        # and an aggregate bounding box would poison overlap checks
        serial = 0
        for el in s.elements:
            if el.kind == "boundary":
                poly = el.xy[:-1] if len(el.xy) > 1 and el.xy[0] == el.xy[-1] else el.xy
                x0, y0, _, _ = bbox(poly)
                layout.components.append(PlacedComponent(
                    f"{s.name}_{serial}", "imported", (x0, y0),
                    {el.layer: [poly]}))
                serial += 1
            elif el.kind == "path":
                layout.paths.append(RoutedPath(
                    f"{s.name}_p{len(layout.paths)}", "signal", el.layer,
                    list(el.xy), el.width))
            elif el.kind == "aref" or el.strans or el.xy != [(0.0, 0.0)]:
                how = ("as an array (AREF)" if el.kind == "aref" else
                       "with a transform (STRANS)" if el.strans else
                       f"at {el.xy}, not at the origin")
                raise ParseError(f"structure {s.name!r} places {el.sname!r} "
                                 f"{how}, which cannot import")
    layout.expand_die_to_content(0.0)
    layout.rendered = (_geometry(layout), write_library(lib))
    return layout


# ---- SVG preview ---------------------------------------------------------

_LAYER_COLORS = {
    1: "#3366cc", 2: "#cc3333", 3: "#33aa55", 5: "#aa33aa",
    10: "#e6a817", 11: "#777777", 20: "#222222",
}


def polygons_by_layer(layout) -> dict[int, list[list[tuple[float, float]]]]:
    """All layout geometry as polygons, routed paths stroked to rectangles."""
    out: dict[int, list] = {}
    for comp in layout.components:
        for layer, polys in comp.footprint.items():
            out.setdefault(layer, []).extend(polys)
    for p in layout.paths:
        out.setdefault(p.layer, []).extend(stroke_centerline(p.points, p.width))
    return out


def export_svg(layout, path=None) -> str:
    die = layout.die
    margin = 50.0
    x0, y0 = die.x0 - margin, die.y0 - margin
    w, h = die.width + 2 * margin, die.height + 2 * margin
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.1f} {-y0 - h:.1f} '
        f'{w:.1f} {h:.1f}" width="{w / 10:.0f}" height="{h / 10:.0f}">',
        f'  <rect x="{die.x0:.1f}" y="{-die.y1:.1f}" width="{die.width:.1f}" '
        f'height="{die.height:.1f}" fill="none" stroke="#999" stroke-width="4"/>',
    ]
    by_layer = polygons_by_layer(layout)
    for layer in sorted(by_layer):
        color = _LAYER_COLORS.get(layer, "#888888")
        lines.append(f'  <g fill="{color}" fill-opacity="0.75" data-layer="{layer}">')
        for poly in by_layer[layer]:
            pts = " ".join(f"{x:.2f},{-y:.2f}" for x, y in poly)
            lines.append(f'    <polygon points="{pts}"/>')
        lines.append("  </g>")
    lines.append("</svg>")
    svg = "\n".join(lines) + "\n"
    if path is not None:
        Path(path).write_text(svg)
    return svg
