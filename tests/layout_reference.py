"""All-pairs reference version of the placement overlap check.

It tests a new component against every earlier one, so it is slow but
obviously complete; ``ChipLayout.add_component``, which asks its overlap
index for nearby boxes only, must refuse the same components with the
same message.
"""

from __future__ import annotations

from sqchip.errors import PlacementOverlap
from sqchip.geometry import boxes_overlap


def check_overlap(components, comp) -> None:
    """Raise the PlacementOverlap that adding comp after components must
    raise: it names the first component, in order, that shares a layer
    with comp and whose box overlaps comp's."""
    nb = comp.bounding_box()
    for other in components:
        if (other.layers() & comp.layers()
                and boxes_overlap(nb, other.bounding_box())):
            raise PlacementOverlap(
                f"{comp.comp_id} overlaps {other.comp_id} on a shared layer")
