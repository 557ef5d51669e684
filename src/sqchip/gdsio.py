"""GDSII stream I/O and SVG preview export.

There is one writer, and it is canonical: fixed record order, pinned
timestamps, one structure per component kind plus a TOP structure of
references, so equal layouts produce byte-identical streams. It renders a
layout as an ordered list of byte pieces (``stream_pieces``): ``write_gds``
joins them, and a provenance digest hashes them in turn, so both share one
render. Each piece is packed once per value: a component keeps its
BOUNDARY records until ``PlacedComponent.set_footprint`` changes its
footprint (footprints change only through it), and a path keeps its PATH
record next to a copy of the layer, width and points it was packed from.

An import keeps its source: ``layout_from_gds`` stores the stream it read
as the import's render memo (``ChipLayout.rendered``), which the writer
returns verbatim while the import holds the geometry it was read with, and
an edited import renders canonically. That makes write -> read -> write a
fixpoint by construction. The reader (``read_gds``) only parses; it keeps
no bytes of the stream.

Database unit is 1 nm (1e-3 user units of 1 um, 1e-9 m).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .components import PlacedComponent, stroke_centerline
from .errors import (
    BadMagic,
    CoordinateOverflow,
    NonAsciiName,
    OddLength,
    ParseError,
    TruncatedRecord,
)
from .geometry import bbox

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
    """XY payload: each coordinate rounded half-to-even to the database
    grid, packed in one call."""
    flat = [round(v * DB_PER_UM) for pt in points for v in pt]
    if flat and (max(flat) > _I32_MAX or min(flat) < -_I32_MAX):
        for pt in points:
            for v in pt:
                _to_db(v)          # raises CoordinateOverflow naming v
    return struct.pack(f">{len(flat)}i", *flat)


# ---- parsed model --------------------------------------------------------

@dataclass
class GdsElement:
    kind: str                          # "boundary", "path", "sref" or "aref"
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


@dataclass
class GdsLibrary:
    name: str
    unit_user: float = 1e-3
    unit_meters: float = 1e-9
    structures: list[GdsStructure] = field(default_factory=list)


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


# element-opening records -> element kind; fixed-size element records ->
# (attribute, payload format); WIDTH is in database units
_OPENS = {BOUNDARY: "boundary", PATH: "path", SREF: "sref", AREF: "aref"}
_FIELDS = {LAYER: ("layer", struct.Struct(">h")),
           DATATYPE: ("datatype", struct.Struct(">h")),
           PATHTYPE: ("pathtype", struct.Struct(">h")),
           WIDTH: ("width", struct.Struct(">i"))}


def _read(src) -> bytes:
    """The stream itself (bytes) or the contents of a file path."""
    if isinstance(src, (str, Path)):
        return Path(src).read_bytes()
    return bytes(src)


def read_gds(src) -> GdsLibrary:
    """Parse a stream (bytes) or a file path into a GdsLibrary.

    Element records decode through ``_OPENS`` and ``_FIELDS``; a record
    outside a structure is skipped unless it names the library, sets its
    units or opens a structure. A malformed stream raises BadMagic,
    TruncatedRecord or OddLength; the last two carry the offending record's
    offset. A name the writer would refuse raises NonAsciiName.
    """
    data = _read(src)
    if len(data) < 4:
        raise TruncatedRecord("stream shorter than one record header", 0)
    first_type = struct.unpack_from(">HH", data, 0)[1]
    if first_type != HEADER:
        raise BadMagic(f"stream does not begin with a HEADER record "
                       f"(got {first_type:#06x})")

    lib = GdsLibrary("")
    cur: GdsStructure | None = None
    el: GdsElement | None = None
    scale = 1.0 / DB_PER_UM
    for pos, rectype, payload in _iter_records(data):
        if rectype == LIBNAME:
            lib.name = _name(payload, pos)
        elif rectype == UNITS:
            if len(payload) != 16:
                raise TruncatedRecord(f"UNITS record at offset {pos} malformed", pos)
            lib.unit_user = excess64_decode(payload[:8])
            lib.unit_meters = excess64_decode(payload[8:])
            # geometry below converts via meters per database unit
            scale = lib.unit_meters / 1e-6
        elif rectype == BGNSTR:
            cur = GdsStructure("")
            el = None
        elif cur is None:
            continue
        elif rectype == STRNAME:
            cur.name = _name(payload, pos)
        elif rectype == ENDSTR:
            lib.structures.append(cur)
            cur = el = None
        elif rectype in _OPENS:
            el = GdsElement(_OPENS[rectype])
        elif rectype == ENDEL:
            if el is not None:
                if not el.xy:
                    raise TruncatedRecord(
                        f"{el.kind} element ending at offset {pos} "
                        f"has no XY", pos)
                cur.elements.append(el)
            el = None
        elif el is None:
            continue
        elif rectype in _FIELDS:
            attr, fmt = _FIELDS[rectype]
            if len(payload) != fmt.size:
                raise TruncatedRecord(
                    f"record {rectype:#06x} at offset {pos} has "
                    f"{len(payload)} payload bytes, expects {fmt.size}", pos)
            value = fmt.unpack(payload)[0]
            setattr(el, attr, value * scale if rectype == WIDTH else value)
        elif rectype == XY:
            if len(payload) % 8:
                raise OddLength(
                    f"XY record at offset {pos} has {len(payload)} "
                    f"payload bytes, not whole (x, y) pairs", pos)
            vals = struct.unpack(f">{len(payload) // 4}i", payload)
            el.xy = [(vals[i] * scale, vals[i + 1] * scale)
                     for i in range(0, len(vals), 2)]
        elif rectype == SNAME:
            el.sname = _name(payload, pos)
        elif rectype == STRANS:
            el.strans = True
    return lib


# ---- writing -------------------------------------------------------------

# the fixed records up to the XY header, each packed in one call
_BOUNDARY_HEAD = struct.Struct(">HHHHhHHhHH")   # BOUNDARY LAYER DATATYPE XY
_PATH_HEAD = struct.Struct(">HHHHhHHhHHhHHiHH")  # PATH ... PATHTYPE WIDTH XY
_ENDEL = struct.pack(">HH", 4, ENDEL)


def _boundary(layer: int, datatype: int, points) -> bytes:
    pts = list(points)
    if pts and pts[0] != pts[-1]:
        pts.append(pts[0])
    xy = _xy(pts)
    return _BOUNDARY_HEAD.pack(4, BOUNDARY, 6, LAYER, layer, 6, DATATYPE,
                               datatype, 4 + len(xy), XY) + xy + _ENDEL


def _path(layer: int, width: float, points) -> bytes:
    width_db = _to_db(width)
    xy = _xy(points)
    return _PATH_HEAD.pack(4, PATH, 6, LAYER, layer, 6, DATATYPE, 0,
                           6, PATHTYPE, 0, 8, WIDTH, width_db,
                           4 + len(xy), XY) + xy + _ENDEL


def _sref(name: str) -> bytes:
    """A reference placing cell name at the origin."""
    return b"".join((_record(SREF), _record(SNAME, _ascii(name)),
                     _record(XY, _xy([(0.0, 0.0)])), _ENDEL))


def _bgnstr(name: str) -> bytes:
    return _record(BGNSTR, _times()) + _record(STRNAME, _ascii(name))


_ENDSTR = _record(ENDSTR)
_ENDLIB = _record(ENDLIB)
# the UNITS payload as two excess-64 reals: 1e-3 user units (um) and 1e-9 m
# per database unit
_UNITS = bytes.fromhex("3e4189374bc6a7f0" "3944b82fa09b5a54")


def _header(name: str) -> bytes:
    """HEADER through UNITS of a library called name."""
    return b"".join((_record(HEADER, struct.pack(">h", GDS_VERSION)),
                     _record(BGNLIB, _times()),
                     _record(LIBNAME, _ascii(name)),
                     _record(UNITS, _UNITS)))


def _cell_name(kind: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in kind)
    return safe.upper() or "MISC"


def _boundaries(comp) -> bytes:
    """comp's BOUNDARY records, layers ascending, packed on first use and
    kept on comp until set_footprint clears them."""
    if comp._gds is None:
        comp._gds = b"".join(_boundary(layer, 0, poly)
                             for layer in sorted(comp.footprint)
                             for poly in comp.footprint[layer])
    return comp._gds


def _path_record(p) -> bytes:
    """p's PATH record, packed again only when p's layer, width or points
    differ from those it was last packed from. The points are kept as a
    copy, so an in-place edit shows."""
    memo = p._gds
    if (memo is None or memo[0] != p.layer or memo[1] != p.width
            or memo[2] != p.points):
        memo = p._gds = (p.layer, p.width, list(p.points),
                         _path(p.layer, p.width, p.points))
    return memo[3]


def stream_pieces(layout) -> list[bytes]:
    """The layout's GDS stream as byte pieces in stream order; their join
    is the stream. write_gds joins them, and a provenance digest hashes
    them one by one, which equals hashing the join.

    An import that still holds the geometry it was read with is one piece,
    the stream it was read from. Otherwise the pieces are the canonical render:
    the library header; per component kind, a structure framing its
    members' BOUNDARY records; then TOP, one SREF per kind cell and one
    PATH record per path. Component and path records come from their
    caches, so a render packs only what changed since the last one.
    """
    if layout.rendered is not None:
        if layout.rendered[0] == _geometry(layout):
            return [layout.rendered[1]]
        layout.rendered = None          # edited: no longer its source
    cells: dict[str, str] = {}          # kind -> cell name
    groups: dict[str, list] = {}
    for comp in layout.components:
        cell = cells.get(comp.kind)
        if cell is None:
            cell = cells[comp.kind] = _cell_name(comp.kind)
        groups.setdefault(cell, []).append(comp)
    # the cells are packed before the header, so a layout with more than
    # one fault raises the same error first as it always has
    body = []
    for cell in sorted(groups):
        members = [_boundaries(c)
                   for c in sorted(groups[cell], key=attrgetter("comp_id"))]
        body.append(_bgnstr(cell))
        body.extend(members)
        body.append(_ENDSTR)
    pieces = [_header(layout.name or "chip"), *body, _bgnstr("TOP")]
    pieces.extend(_sref(cell) for cell in sorted(groups))
    pieces.extend(_path_record(p) for p in layout.paths)
    pieces.append(_ENDSTR + _ENDLIB)
    return pieces


def _geometry(layout) -> tuple:
    """What the canonical render reads of a layout, as a value to compare:
    the key of an import's render memo.

    Path points are copied, so an in-place edit of a path shows. Footprints
    are not: like the bounding-box and BOUNDARY-bytes caches, this relies
    on footprints changing only through set_footprint, which puts a new
    polygon list in place of the old one.
    """
    return (layout.name,
            [(c.comp_id, c.kind, dict(c.footprint)) for c in layout.components],
            [(p.layer, p.width, list(p.points)) for p in layout.paths])


def write_gds(layout, path=None) -> bytes:
    """The layout's GDS stream, joined from its stream_pieces."""
    data = b"".join(stream_pieces(layout))
    if path is not None:
        Path(path).write_bytes(data)
    return data


def layout_from_gds(src):
    """Geometry-level import: every structure's polygons and paths, flattened.

    Each structure is imported as if placed once at the origin, which is
    where the canonical writer places every reference. Any other reference
    (an SREF at an offset, an SREF with a STRANS transform, any AREF) is
    refused with ParseError, rather than imported misplaced. The input is
    read once, and the import's render memo holds it, so an unedited import
    writes back its own bytes. The stream records no die, so the die is the
    content's bounding box.
    """
    from .layout import ChipLayout, DieBox
    from .routing import RoutedPath

    data = _read(src)
    lib = read_gds(data)
    layout = ChipLayout(lib.name or "imported", DieBox(0, 0, 0, 0))
    for s in lib.structures:
        # one component per polygon: structures group unrelated geometry,
        # and an aggregate bounding box would poison overlap checks
        serial = 0
        for el in s.elements:
            if el.kind == "boundary":
                poly = el.xy[:-1] if len(el.xy) > 1 and el.xy[0] == el.xy[-1] else el.xy
                box = bbox(poly)
                comp = PlacedComponent(f"{s.name}_{serial}", "imported",
                                       box[:2], {el.layer: [poly]})
                comp._bbox = box          # its one polygon's box
                layout.add_component(comp, check_overlap=False)
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
    layout.die = DieBox(*layout.content_bbox())
    layout.rendered = (_geometry(layout), data)
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
