"""Element-by-element reference writer for the canonical GDS stream.

It builds a fresh element for every polygon of every component on each
call, with no per-component bytes and no render memo, so it is slow but
plainly a function of the layout's current geometry; ``write_gds`` in
``sqchip.gdsio`` must reproduce its bytes exactly.
"""

from __future__ import annotations

from sqchip.gdsio import (
    GdsElement,
    GdsLibrary,
    GdsStructure,
    _cell_name,
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
