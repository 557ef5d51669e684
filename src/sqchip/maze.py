"""Grid maze router: sequential A* with corner and crossing penalties.

Search states are (cell, incoming direction) pairs so the corner cost is part
of the optimization, not a post-hoc tiebreak. With the default penalty mode
the returned path minimizes steps + k_corner * corners + k_cross * crossings
exactly; "estimate-only" keeps penalties out of the accumulated cost and only
biases the expansion order, which reproduces the cheaper greedy behavior.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import BlockedEndpoint, DegenerateGrid, NoPath, check_selector
from .routing import RoutedPath, RoutingResult

# direction encoding: index into _STEPS; -1 means "no direction yet"
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class GridGraph:
    cols: int
    rows: int
    origin: tuple[float, float]       # um of cell (0, 0) lower-left corner
    cell: float                       # um per cell
    blocked: np.ndarray = field(default=None)   # bool (cols, rows)
    occupied: np.ndarray = field(default=None)  # int net count per cell

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise DegenerateGrid(f"grid {self.cols}x{self.rows} has no cells")
        if self.blocked is None:
            self.blocked = np.zeros((self.cols, self.rows), dtype=bool)
        if self.occupied is None:
            self.occupied = np.zeros((self.cols, self.rows), dtype=np.int32)

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
            self.blocked[c0:c1 + 1, r0:r1 + 1] = True

    def mark_path(self, cells: list[tuple[int, int]]) -> None:
        for c, r in cells:
            self.occupied[c, r] += 1


def build_grid(layout, cell: float = 50.0, clearance: float = 20.0,
               block_layers: tuple[int, ...] | None = None) -> GridGraph:
    """Rasterize a layout into a routing grid.

    Component bounding boxes on blocking layers become unroutable cells,
    inflated by `clearance`. A flip-chip layout routes on the opposite face,
    so nothing on the qubit face blocks it.
    """
    from .components import LAYER_QUBIT, LAYER_PIN

    if not cell > 0:
        raise DegenerateGrid(f"grid cell must be positive, got {cell} um")
    die = layout.die
    cols = max(int(np.ceil(die.width / cell)), 1)
    rows = max(int(np.ceil(die.height / cell)), 1)
    grid = GridGraph(cols, rows, (die.x0, die.y0), cell)
    if block_layers is None:
        block_layers = () if layout.flip_chip else (LAYER_QUBIT,)
    if LAYER_PIN in block_layers:
        raise ValueError("pin layer is never a routing obstacle")
    for comp in layout.components:
        if comp.kind == "pad":
            continue    # pads are net terminals
        if not (set(block_layers) & comp.layers()):
            continue
        x0, y0, x1, y1 = comp.bounding_box()
        grid.block_box(x0 - clearance, y0 - clearance, x1 + clearance, y1 + clearance)
    if LAYER_QUBIT in block_layers:
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
    lower bound (one forced turn when the goal is off-axis or behind)."""
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
    return int(sum(1 for c, r in cells if grid.occupied[c, r] > 0))


PENALTY_MODES = ("exact", "estimate-only")


def route_net(grid: GridGraph, start: tuple[int, int], goal: tuple[int, int],
              k_corner: float = 1.0, k_cross: float = 2.0,
              penalty_mode: str = "exact", mark: bool = True,
              ) -> list[tuple[int, int]]:
    """A* from start cell to goal cell; returns the cell sequence.

    penalty_mode "exact" folds corner/crossing penalties into the accumulated
    cost (optimal for the combined objective); "estimate-only" accumulates
    plain steps and lets the penalties act through the priority only.
    """
    check_selector("penalty_mode", penalty_mode, PENALTY_MODES)
    for name, (c, r) in (("start", start), ("goal", goal)):
        if not grid.in_bounds(c, r):
            raise BlockedEndpoint(f"{name} cell {(c, r)} outside the grid")
        if grid.blocked[c, r]:
            raise BlockedEndpoint(f"{name} cell {(c, r)} is blocked")
    if start == goal:
        if mark:
            grid.mark_path([start])
        return [start]

    exact = penalty_mode == "exact"
    blocked = grid.blocked
    occupied = grid.occupied
    cols = grid.cols
    best: dict[tuple[int, int, int], float] = {}
    came: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    h0 = heuristic(start, goal, -1, k_corner)
    # heap entries: (f, h, cell row-major index, dir, cell, g)
    open_q = [(h0, h0, start[1] * cols + start[0], -1, start, 0.0)]
    best[(start[0], start[1], -1)] = 0.0
    goal_state = None
    while open_q:
        f, h, _, d, cell, g = heapq.heappop(open_q)
        state = (cell[0], cell[1], d)
        if g > best.get(state, float("inf")):
            continue
        if cell == goal:
            goal_state = state
            break
        for nd, (sx, sy) in enumerate(_STEPS):
            nc, nr = cell[0] + sx, cell[1] + sy
            if not (0 <= nc < cols and 0 <= nr < grid.rows):
                continue
            if blocked[nc, nr]:
                continue
            step = 1.0
            if exact:
                if d >= 0 and nd != d:
                    step += k_corner
                if occupied[nc, nr] > 0:
                    step += k_cross
            ng = g + step
            nstate = (nc, nr, nd)
            if ng < best.get(nstate, float("inf")) - 1e-12:
                best[nstate] = ng
                came[nstate] = state
                nh = heuristic((nc, nr), goal, nd, k_corner)
                if exact:
                    nf = ng + nh
                else:
                    pen = k_cross if occupied[nc, nr] > 0 else 0.0
                    if d >= 0 and nd != d:
                        pen += k_corner
                    nf = ng + nh + pen
                heapq.heappush(open_q, (nf, nh, nr * cols + nc, nd, (nc, nr), ng))
    if goal_state is None:
        raise NoPath(f"no route from {start} to {goal}")

    cells = []
    s = goal_state
    while True:
        cells.append((s[0], s[1]))
        if s[:2] == start and s[2] == -1 and s not in came:
            break
        s = came[s]
    cells.reverse()
    if mark:
        grid.mark_path(cells)
    return cells


def cells_to_points(grid: GridGraph, cells: list[tuple[int, int]],
                    ) -> list[tuple[float, float]]:
    """Cell centers with collinear runs merged."""
    from .geometry import merge_collinear
    return merge_collinear([grid.cell_center(c, r) for c, r in cells])


def route_all(grid: GridGraph, nets: list[tuple[str, tuple[int, int], tuple[int, int]]],
              k_corner: float = 1.0, k_cross: float = 2.0,
              penalty_mode: str = "exact", layer: int = 2,
              width: float = 10.0) -> RoutingResult:
    """Route nets sequentially in the given order; earlier nets become
    obstacles-with-a-price for later ones."""
    result = RoutingResult("maze")
    for net_id, start, goal in nets:
        try:
            cells = route_net(grid, start, goal, k_corner, k_cross,
                              penalty_mode, mark=False)
            crossings_before = count_crossings(grid, cells)
            grid.mark_path(cells)
        except (NoPath, BlockedEndpoint) as exc:
            result.failures.append((net_id, str(exc)))
            continue
        corners = count_corners(cells)
        path = RoutedPath(net_id, "control", layer,
                          cells_to_points(grid, cells), width,
                          corner_count=corners,
                          crossing_count=crossings_before,
                          cells=cells)
        result.paths.append(path)
        result.total_corners += corners
        result.total_crossings += crossings_before
    result.occupancy = grid.occupied.copy()
    return result


def resolve_target(layout, target: str, standoff: float,
                   ) -> tuple[tuple[float, float], tuple[float, float]]:
    """Net-target position plus a free approach point outside the metal
    keep-out. Targets are qubit ids or "<feedline>@west" / "@east"."""
    if "@" in target:
        bus, side = target.split("@")
        for p in layout.paths:
            if p.kind == "feedline" and p.net == bus:
                pos = min(p.points) if side == "west" else max(p.points)
                break
        else:
            raise NoPath(f"no feedline named {bus}")
        direction = (-1.0, 0.0) if side == "west" else (1.0, 0.0)
    else:
        comp = layout.component_by_id(target)
        port = comp.ports.get("east") or next(iter(comp.ports.values()))
        pos = port.position
        direction = port.direction
    off = (pos[0] + direction[0] * standoff, pos[1] + direction[1] * standoff)
    return pos, off
