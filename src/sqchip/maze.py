"""Grid maze router: sequential A* with corner and crossing penalties.

Search states are (cell, incoming direction) pairs so the corner cost is part
of the optimization, not a post-hoc tiebreak. Each state is packed into one
int, ``(r * cols + c) * 5 + (d + 1)``, and ``best``/``came`` are dicts keyed
by it; the packing orders states exactly as (cell index, direction) tuples
would, so heap ties break the same way and the routed cells do not depend
on the encoding. There is one cost model: every penalty goes into the
accumulated cost, so the returned path minimizes
steps + k_corner * corners + k_cross * crossings exactly, and both penalties
must be finite and non-negative. ``route_net`` is a pure search;
``route_all`` is the only writer of ``GridGraph.occupied``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .errors import BlockedEndpoint, DegenerateGrid, NoPath, NonPositiveInput
from .layout import feedline_ends
from .routing import RoutedPath, RoutingResult

# direction encoding: index into _STEPS; -1 means "no direction yet"
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class GridGraph:
    cols: int
    rows: int
    origin: tuple[float, float]       # um of cell (0, 0) lower-left corner
    cell: float                       # um per cell
    blocked: list[bool] = field(default=None)   # cell (c, r) at r * cols + c
    occupied: list[int] = field(default=None)   # net count, same index

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise DegenerateGrid(f"grid {self.cols}x{self.rows} has no cells")
        if self.blocked is None:
            self.blocked = [False] * (self.cols * self.rows)
        if self.occupied is None:
            self.occupied = [0] * (self.cols * self.rows)

    def in_bounds(self, c: int, r: int) -> bool:
        return 0 <= c < self.cols and 0 <= r < self.rows

    def cell_center(self, c: int, r: int) -> tuple[float, float]:
        return (self.origin[0] + (c + 0.5) * self.cell,
                self.origin[1] + (r + 0.5) * self.cell)

    def cell_at(self, x: float, y: float) -> tuple[int, int]:
        c = int((x - self.origin[0]) // self.cell)
        r = int((y - self.origin[1]) // self.cell)
        return (min(max(c, 0), self.cols - 1), min(max(r, 0), self.rows - 1))

    def block_box(self, x0: float, y0: float, x1: float, y1: float) -> None:
        """Mark every cell overlapping the box (um) as unroutable."""
        c0 = max(int((x0 - self.origin[0]) // self.cell), 0)
        r0 = max(int((y0 - self.origin[1]) // self.cell), 0)
        c1 = min(int((x1 - self.origin[0]) // self.cell), self.cols - 1)
        r1 = min(int((y1 - self.origin[1]) // self.cell), self.rows - 1)
        if c1 >= c0 and r1 >= r0:
            for i in range(r0 * self.cols, r1 * self.cols + 1, self.cols):
                self.blocked[i + c0:i + c1 + 1] = [True] * (c1 - c0 + 1)

    def mark_path(self, cells: list[tuple[int, int]]) -> None:
        for c, r in cells:
            self.occupied[r * self.cols + c] += 1


def build_grid(layout, cell: float = 50.0, clearance: float = 20.0) -> GridGraph:
    """Rasterize a layout into a routing grid.

    On a single-face chip, qubit-layer metal (component bounding boxes and
    path segments, inflated by `clearance`) becomes unroutable cells; pads
    stay open as net terminals. A flip-chip layout routes on the opposite
    face, so nothing on the qubit face blocks it.
    """
    from .components import LAYER_QUBIT

    if not cell > 0:
        raise DegenerateGrid(f"grid cell must be positive, got {cell} um")
    die = layout.die
    cols = max(math.ceil(die.width / cell), 1)
    rows = max(math.ceil(die.height / cell), 1)
    grid = GridGraph(cols, rows, (die.x0, die.y0), cell)
    if layout.flip_chip:
        return grid
    for comp in layout.components:
        if comp.kind == "pad" or LAYER_QUBIT not in comp.layers():
            continue
        x0, y0, x1, y1 = comp.bounding_box()
        grid.block_box(x0 - clearance, y0 - clearance, x1 + clearance, y1 + clearance)
    for p in layout.paths:
        if p.layer != LAYER_QUBIT:
            continue
        h = p.width / 2.0 + clearance
        for (ax, ay), (bx, by) in zip(p.points, p.points[1:]):
            grid.block_box(min(ax, bx) - h, min(ay, by) - h,
                           max(ax, bx) + h, max(ay, by) + h)
    return grid


def heuristic(cell: tuple[int, int], goal: tuple[int, int],
              direction: int, k_corner: float) -> float:
    """Admissible remaining-cost bound: Manhattan distance plus a corner
    lower bound (one forced turn when the goal is off-axis or behind).
    ``route_net`` inlines this expression; the two must stay in step."""
    dx = goal[0] - cell[0]
    dy = goal[1] - cell[1]
    h = abs(dx) + abs(dy)
    if h == 0:
        return 0.0
    corners = 0
    if dx != 0 and dy != 0:
        corners = 1
    elif direction >= 0:
        sx, sy = _STEPS[direction]
        along = dx * sx + dy * sy
        if (dx != 0 and sy != 0) or (dy != 0 and sx != 0) or along < 0:
            corners = 1
    return h + k_corner * corners


def check_penalty(name: str, value: float) -> None:
    """Raise NonPositiveInput unless a routing penalty is finite and
    non-negative: a negative one makes cost cycles that A* never leaves."""
    if not 0.0 <= value < math.inf:
        raise NonPositiveInput(f"{name} must be finite and non-negative, "
                               f"got {value}")


def count_corners(cells: list[tuple[int, int]]) -> int:
    turns = 0
    for (a, b, c) in zip(cells, cells[1:], cells[2:]):
        d1 = (b[0] - a[0], b[1] - a[1])
        d2 = (c[0] - b[0], c[1] - b[1])
        if d1 != d2:
            turns += 1
    return turns


def count_crossings(grid: GridGraph, cells: list[tuple[int, int]]) -> int:
    """Occupied cells this path passes through (endpoints included)."""
    return sum(1 for c, r in cells if grid.occupied[r * grid.cols + c] > 0)


def route_net(grid: GridGraph, start: tuple[int, int], goal: tuple[int, int],
              k_corner: float = 1.0, k_cross: float = 2.0,
              ) -> list[tuple[int, int]]:
    """A* from start cell to goal cell; returns the cell sequence.

    Each step costs 1, plus k_corner when it turns and k_cross when it enters
    an occupied cell, so the path is optimal for that combined objective.
    Both penalties must pass ``check_penalty``. The grid is only read:
    marking the path is the caller's job.

    A search state (cell (c, r), incoming direction d) is the one int
    ``(r * cols + c) * 5 + (d + 1)``, with d = -1 before the first step.
    It grows strictly with (row-major cell index, d), so heap entries
    ``(f, h, state, g)`` pop in the same order, ties included, as entries
    keyed by (f, h, cell index, d), and the search returns the same cells.
    The heuristic is ``heuristic()`` inlined, with the same float
    expression, so every f is bit-identical too.
    """
    check_penalty("k_corner", k_corner)
    check_penalty("k_cross", k_cross)
    for name, (c, r) in (("start", start), ("goal", goal)):
        if not grid.in_bounds(c, r):
            raise BlockedEndpoint(f"{name} cell {(c, r)} outside the grid")
        if grid.blocked[r * grid.cols + c]:
            raise BlockedEndpoint(f"{name} cell {(c, r)} is blocked")
    if start == goal:
        return [start]

    blocked = grid.blocked
    occupied = grid.occupied
    cols, rows = grid.cols, grid.rows
    gc, gr = goal
    # step cost, indexed by "enters an occupied cell"; summed in the order
    # 1 + k_corner + k_cross so every g is bit-identical to adding in steps
    straight = (1.0, 1.0 + k_cross)
    turning = (1.0 + k_corner, 1.0 + k_corner + k_cross)
    # per direction: (d + 1, dc, dr, cell index offset)
    moves = [(nd + 1, sx, sy, sy * cols + sx)
             for nd, (sx, sy) in enumerate(_STEPS)]
    s = (start[1] * cols + start[0]) * 5
    h0 = heuristic(start, goal, -1, k_corner)
    best = {s: 0.0}
    came = {s: -1}
    open_q = [(h0, h0, s, 0.0)]
    heappop, heappush, best_get = heapq.heappop, heapq.heappush, best.get
    inf = math.inf
    while open_q:
        _, _, s, g = heappop(open_q)
        if g > best[s]:
            continue
        i, d1 = divmod(s, 5)
        r, c = divmod(i, cols)
        if c == gc and r == gr:
            break
        for nd1, sx, sy, di in moves:
            nc = c + sx
            nr = r + sy
            if not (0 <= nc < cols and 0 <= nr < rows):
                continue
            ni = i + di
            if blocked[ni]:
                continue
            cost = turning if d1 and nd1 != d1 else straight
            ng = g + cost[occupied[ni] > 0]
            ns = ni * 5 + nd1
            if ng < best_get(ns, inf) - 1e-12:
                best[ns] = ng
                came[ns] = s
                dx = gc - nc
                dy = gr - nr
                if dx == 0 and dy == 0:
                    nh = 0.0
                elif dx * sy != dy * sx or dx * sx + dy * sy < 0:
                    # off-axis or behind: one forced turn
                    nh = abs(dx) + abs(dy) + k_corner
                else:
                    nh = abs(dx) + abs(dy) + 0.0    # a float, as heuristic()
                heappush(open_q, (ng + nh, nh, ns, ng))
    else:
        raise NoPath(f"no route from {start} to {goal}")

    cells = []
    while s >= 0:
        r, c = divmod(s // 5, cols)
        cells.append((c, r))
        s = came[s]
    cells.reverse()
    return cells


def cells_to_points(grid: GridGraph, cells: list[tuple[int, int]],
                    ) -> list[tuple[float, float]]:
    """Cell centers with collinear runs merged."""
    from .geometry import merge_collinear
    return merge_collinear([grid.cell_center(c, r) for c, r in cells])


def route_all(grid: GridGraph, nets: list[tuple[str, tuple[int, int], tuple[int, int]]],
              k_corner: float = 1.0, k_cross: float = 2.0, layer: int = 2,
              width: float = 10.0) -> RoutingResult:
    """Route nets sequentially in the given order; earlier nets become
    obstacles-with-a-price for later ones. Each routed net's cells are
    marked on ``grid.occupied`` after its crossings are counted."""
    result = RoutingResult("maze")
    for net_id, start, goal in nets:
        try:
            cells = route_net(grid, start, goal, k_corner, k_cross)
            crossings_before = count_crossings(grid, cells)
            grid.mark_path(cells)
        except (NoPath, BlockedEndpoint) as exc:
            result.failures.append((net_id, str(exc)))
            continue
        corners = count_corners(cells)
        path = RoutedPath(net_id, "control", layer,
                          cells_to_points(grid, cells), width,
                          corner_count=corners,
                          crossing_count=crossings_before)
        result.paths.append(path)
    return result


def resolve_target(layout, target: str, standoff: float,
                   ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Net-target position plus a free approach point outside the metal
    keep-out. Targets are qubit ids or "<feedline>@west" / "@east"."""
    if "@" in target:
        bus, side = target.split("@")
        ends = feedline_ends(layout)
        if bus not in ends:
            raise NoPath(f"no feedline named {bus}")
        pos = ends[bus][0 if side == "west" else 1]
        direction = (-1.0, 0.0) if side == "west" else (1.0, 0.0)
    else:
        comp = layout.component_by_id(target)
        port = comp.ports.get("east") or next(iter(comp.ports.values()))
        pos = port.position
        direction = port.direction
    off = (pos[0] + direction[0] * standoff, pos[1] + direction[1] * standoff)
    return pos, off
