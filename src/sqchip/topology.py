"""Qubit topology: the rectangular m x n lattice of coupled qubits.

A topology is its two dimensions, ``rows`` and ``cols``. Every lattice site
holds a qubit and every pair of lattice neighbours is coupled, so the qubit
map and the edge set are derived from the two, never stored. No other
topology can be built, so the routers, the frequency plan, the readout rows
and the .sqd writer need no lattice check of their own.

Qubit ids are strings ("q0", "q1", ...); coordinates are (col, row) lattice
positions. Edges are undirected and stored as sorted id pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import InvalidDimension


@dataclass(frozen=True)
class Topology:
    rows: int
    cols: int

    def __post_init__(self):
        # bool is an int subclass, so the type is compared exactly
        if not all(type(v) is int and v >= 1 for v in (self.rows, self.cols)):
            raise InvalidDimension(
                f"grid dims must be positive integers, "
                f"got rows={self.rows!r}, cols={self.cols!r}")

    @property
    def grid_dims(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def qubit(self, c: int, r: int) -> str:
        """Id of the qubit at column c, row r."""
        return f"q{r * self.cols + c}"

    @cached_property
    def qubits(self) -> dict[str, tuple[int, int]]:
        return {self.qubit(c, r): (c, r)
                for r in range(self.rows) for c in range(self.cols)}

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        pairs = [(self.qubit(c, r), self.qubit(c + 1, r))
                 for r in range(self.rows) for c in range(self.cols - 1)]
        pairs += [(self.qubit(c, r), self.qubit(c, r + 1))
                  for r in range(self.rows - 1) for c in range(self.cols)]
        return frozenset(tuple(sorted(p)) for p in pairs)


def generate_grid(m: int, n: int) -> Topology:
    """Rectangular m-row by n-column lattice with nearest-neighbor coupling.

    Ids run row-major from the bottom-left: q0 is (col 0, row 0), q1 is
    (col 1, row 0), and so on. Edge count is m*(n-1) + n*(m-1).
    """
    return Topology(m, n)


def rows_bottom_up(topo: Topology) -> list[list[str]]:
    """Qubit ids grouped by lattice row, bottom row first, left to right."""
    return [[topo.qubit(c, r) for c in range(topo.cols)]
            for r in range(topo.rows)]
