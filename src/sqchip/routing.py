"""Shared routing data types used by the layout and both routers."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RoutedPath:
    """One routed net as a centerline polyline in micrometres.

    corner_count/crossing_count mirror the router's bookkeeping at route
    time.
    """

    net: str
    kind: str                      # control | transmission | feedline | signal
    layer: int
    points: list[tuple[float, float]]
    width: float                   # um
    corner_count: int = 0
    crossing_count: int = 0
    # (layer, width, copy of points, PATH record) of the last render: gdsio
    # packs the record again when the path's layer, width or points differ
    _gds: tuple | None = field(
        default=None, init=False, repr=False, compare=False)


@dataclass
class Pin:
    """A bond-pad pin on one die edge."""

    pin_id: str
    edge: str                      # top | bottom | left | right
    offset: float                  # um along the edge, from the die corner
    position: tuple[float, float]  # pad center, um
    role: str                      # transmission | control
    target: str                    # qubit id, or "<bus>@west" / "@east"

    @property
    def net(self) -> str:
        """The net both routers name this pin's line: ctl_<qubit>, or
        tx_<bus>_in / tx_<bus>_out from a feedline's west / east end."""
        if self.role == "control":
            return f"ctl_{self.target}"
        bus, _, side = self.target.partition("@")
        return f"tx_{bus}_{'in' if side == 'west' else 'out'}"


@dataclass
class RoutingResult:
    strategy: str
    paths: list[RoutedPath] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)  # (net, reason)

    @property
    def nets_routed(self) -> int:
        return len(self.paths)

    @property
    def total_corners(self) -> int:
        return sum(p.corner_count for p in self.paths)

    @property
    def total_crossings(self) -> int:
        return sum(p.crossing_count for p in self.paths)
