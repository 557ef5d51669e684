"""Qubit topology: logical qubits on an integer lattice with coupling edges.

A topology is the rectangular m x n lattice that ``generate_grid`` builds:
every site holds a qubit and every pair of lattice neighbours is coupled.
The routers, the frequency plan and the readout rows rely on that, and the
.sqd loader refuses a topology section that is not such a lattice.

Qubit ids are strings ("q0", "q1", ...); coordinates are (col, row) lattice
positions. Edges are undirected and stored as sorted id pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidDimension


@dataclass
class Topology:
    qubits: dict[str, tuple[int, int]] = field(default_factory=dict)
    edges: set[tuple[str, str]] = field(default_factory=set)
    grid_dims: tuple[int, int] | None = None   # (m rows, n cols) when regular

    def neighbors(self, qid: str) -> list[str]:
        out = []
        for a, b in self.edges:
            if a == qid:
                out.append(b)
            elif b == qid:
                out.append(a)
        return sorted(out)

    def degree(self, qid: str) -> int:
        return len(self.neighbors(qid))


def _edge(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


def generate_grid(m: int, n: int) -> Topology:
    """Rectangular m-row by n-column lattice with nearest-neighbor coupling.

    Ids run row-major from the bottom-left: q0 is (col 0, row 0), q1 is
    (col 1, row 0), and so on. Edge count is m*(n-1) + n*(m-1).
    """
    if not (isinstance(m, int) and isinstance(n, int)) or m < 1 or n < 1:
        raise InvalidDimension(f"grid dims must be positive integers, got {m}x{n}")
    topo = Topology(grid_dims=(m, n))
    for r in range(m):
        for c in range(n):
            topo.qubits[f"q{r * n + c}"] = (c, r)
    for r in range(m):
        for c in range(n):
            qid = f"q{r * n + c}"
            if c + 1 < n:
                topo.edges.add(_edge(qid, f"q{r * n + c + 1}"))
            if r + 1 < m:
                topo.edges.add(_edge(qid, f"q{(r + 1) * n + c}"))
    return topo


def rows_bottom_up(topo: Topology) -> list[list[str]]:
    """Qubit ids grouped by lattice row, bottom row first, left to right."""
    rows: dict[int, list[tuple[int, str]]] = {}
    for qid, (c, r) in topo.qubits.items():
        rows.setdefault(r, []).append((c, qid))
    return [[qid for _, qid in sorted(rows[r])] for r in sorted(rows)]
