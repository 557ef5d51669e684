"""Independent reference writer for GDS streams.

It packs every record on its own, coordinate by coordinate, and builds a
fresh element for every polygon of every component on each call, with no
per-component bytes and no render memo, so it is slow but plainly a
function of its input. It shares no packing code with ``sqchip.gdsio``:
from there it takes only the record-type constants and the parsed-model
dataclasses.

- ``write_gds(layout)`` is the canonical stream that ``sqchip.gdsio``'s
  ``write_gds`` must reproduce byte for byte.
- ``write_library(lib)`` writes any library, so tests can craft foreign
  streams. An element or a structure given as bytes is written as is,
  which is how a test puts records the model does not hold into a stream.
- ``render_element`` is what the writer's element packers must reproduce,
  bytes and errors alike.
- ``excess64_encode`` packs a real the way the stream format stores it.
- ``foreign_stream()`` is a stream the canonical writer would not write.
"""

from __future__ import annotations

import math
import struct

from sqchip.errors import CoordinateOverflow, NonAsciiName
from sqchip.gdsio import (
    BGNLIB,
    BGNSTR,
    BOUNDARY,
    DATATYPE,
    ENDEL,
    ENDLIB,
    ENDSTR,
    HEADER,
    LAYER,
    LIBNAME,
    PATH,
    PATHTYPE,
    SNAME,
    SREF,
    STRNAME,
    UNITS,
    WIDTH,
    XY,
    GdsElement,
    GdsLibrary,
    GdsStructure,
)

DB_PER_UM = 1000                                 # 1 nm database grid
TIMES = struct.pack(">12h", *((1970, 1, 1, 0, 0, 0) * 2))


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


def record(rectype: int, payload: bytes = b"") -> bytes:
    return struct.pack(">HH", 4 + len(payload), rectype) + payload


def name(text: str) -> bytes:
    if not text.isascii():
        raise NonAsciiName(f"GDS names are ASCII; {text!r} is not")
    raw = text.encode("ascii")
    return raw + b"\x00" if len(raw) % 2 else raw


def cell_name(kind: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in kind)
    return safe.upper() or "MISC"


def to_db(um: float) -> int:
    v = round(um * DB_PER_UM)
    if abs(v) > 2**31 - 1:
        raise CoordinateOverflow(f"{um} um exceeds the 32-bit database grid")
    return v


def xy(points) -> bytes:
    flat = []
    for x, y in points:
        flat.append(to_db(x))
        flat.append(to_db(y))
    return struct.pack(f">{len(flat)}i", *flat)


def render_element(el) -> bytes:
    if isinstance(el, bytes):
        return el
    out = []
    if el.kind == "boundary":
        pts = list(el.xy)
        if pts and pts[0] != pts[-1]:
            pts.append(pts[0])
        out.append(record(BOUNDARY))
        out.append(record(LAYER, struct.pack(">h", el.layer)))
        out.append(record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(record(XY, xy(pts)))
    elif el.kind == "path":
        out.append(record(PATH))
        out.append(record(LAYER, struct.pack(">h", el.layer)))
        out.append(record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(record(PATHTYPE, struct.pack(">h", el.pathtype)))
        out.append(record(WIDTH, struct.pack(">i", to_db(el.width))))
        out.append(record(XY, xy(el.xy)))
    elif el.kind == "sref":
        out.append(record(SREF))
        out.append(record(SNAME, name(el.sname)))
        out.append(record(XY, xy(el.xy)))
    else:
        raise ValueError(f"no reference rendering for a {el.kind!r} element")
    out.append(record(ENDEL))
    return b"".join(out)


def render_structure(s) -> bytes:
    if isinstance(s, bytes):
        return s
    return b"".join((record(BGNSTR, TIMES), record(STRNAME, name(s.name)),
                     *(render_element(el) for el in s.elements),
                     record(ENDSTR)))


def write_library(lib: GdsLibrary) -> bytes:
    return b"".join((
        record(HEADER, struct.pack(">h", 600)),
        record(BGNLIB, TIMES),
        record(LIBNAME, name(lib.name)),
        record(UNITS, excess64_encode(lib.unit_user)
               + excess64_encode(lib.unit_meters)),
        *(render_structure(s) for s in lib.structures),
        record(ENDLIB)))


def build_library(layout) -> GdsLibrary:
    """One structure per component kind, TOP references all."""
    groups: dict[str, list] = {}
    for comp in layout.components:
        groups.setdefault(cell_name(comp.kind), []).append(comp)

    lib = GdsLibrary(layout.name or "chip")
    top = GdsStructure("TOP")
    for cell in sorted(groups):
        s = GdsStructure(cell)
        for comp in sorted(groups[cell], key=lambda c: c.comp_id):
            for layer in sorted(comp.footprint):
                for poly in comp.footprint[layer]:
                    s.elements.append(GdsElement("boundary", layer=layer,
                                                 xy=list(poly)))
        lib.structures.append(s)
        top.elements.append(GdsElement("sref", sname=cell, xy=[(0.0, 0.0)]))
    for p in layout.paths:
        top.elements.append(GdsElement("path", layer=p.layer, xy=list(p.points),
                                       width=p.width))
    lib.structures.append(top)
    return lib


def write_gds(layout) -> bytes:
    return write_library(build_library(layout))


# a TEXT element (rectype 0x0C), which the reader does not model
TEXT = b"".join(record(rectype, payload) for rectype, payload in (
    (0x0C00, b""), (LAYER, struct.pack(">h", 7)), (0x1906, b"note"),
    (ENDEL, b"")))


def foreign_stream() -> bytes:
    """A square and a path, with a TEXT element, a record between the two
    structures and zero padding after ENDLIB."""
    square = GdsElement("boundary", layer=1,
                        xy=[(0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0)])
    feed = GdsElement("path", layer=2, width=10.0,
                      xy=[(0.0, 100.0), (300.0, 100.0)])
    return write_library(GdsLibrary("foreign", structures=[
        GdsStructure("CELL", [square, TEXT]),
        record(LAYER, struct.pack(">h", 9)),
        GdsStructure("TOP", [feed])])) + b"\x00" * 12
