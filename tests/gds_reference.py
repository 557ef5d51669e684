"""Element-by-element reference writer for the canonical GDS stream.

It builds a fresh element for every polygon of every component on each
call, with no per-component bytes and no render memo, so it is slow but
plainly a function of the layout's current geometry; ``write_gds`` in
``sqchip.gdsio`` must reproduce its bytes exactly. ``render_element``
packs an element record by record and coordinate by coordinate; the
writer's element packer must reproduce its bytes and its errors.
"""

from __future__ import annotations

import struct

from sqchip.errors import CoordinateOverflow
from sqchip.gdsio import (
    BOUNDARY,
    DATATYPE,
    DB_PER_UM,
    ENDEL,
    LAYER,
    PATH,
    PATHTYPE,
    SNAME,
    SREF,
    WIDTH,
    XY,
    GdsElement,
    GdsLibrary,
    GdsStructure,
    _ascii,
    _cell_name,
    _record,
    write_library,
)


def build_library(layout) -> GdsLibrary:
    """One structure per component kind, TOP references all."""
    groups: dict[str, list] = {}
    for comp in layout.components:
        groups.setdefault(_cell_name(comp.kind), []).append(comp)

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


def render_element(el: GdsElement) -> bytes:
    out = []
    if el.kind == "boundary":
        pts = list(el.xy)
        if pts and pts[0] != pts[-1]:
            pts.append(pts[0])
        out.append(_record(BOUNDARY))
        out.append(_record(LAYER, struct.pack(">h", el.layer)))
        out.append(_record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(_record(XY, xy(pts)))
    elif el.kind == "path":
        out.append(_record(PATH))
        out.append(_record(LAYER, struct.pack(">h", el.layer)))
        out.append(_record(DATATYPE, struct.pack(">h", el.datatype)))
        out.append(_record(PATHTYPE, struct.pack(">h", el.pathtype)))
        out.append(_record(WIDTH, struct.pack(">i", to_db(el.width))))
        out.append(_record(XY, xy(el.xy)))
    else:
        out.append(_record(SREF))
        out.append(_record(SNAME, _ascii(el.sname)))
        out.append(_record(XY, xy(el.xy)))
    out.append(_record(ENDEL))
    return b"".join(out)
