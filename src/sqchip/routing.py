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

    def length(self) -> float:
        from .geometry import path_length
        return path_length(self.points)


@dataclass
class Pin:
    """A bond-pad pin on one die edge."""

    pin_id: str
    edge: str                      # top | bottom | left | right
    offset: float                  # um along the edge, from the die corner
    position: tuple[float, float]  # pad center, um
    role: str                      # transmission | control
    target: str                    # bus id or qubit id


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
