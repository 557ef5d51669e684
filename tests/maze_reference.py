"""Reference version of the maze router's A* search on tuple states.

Search states are ``(c, r, d)`` tuples kept in dicts, and every push calls
``heuristic()``. It is slower but plainly the textbook search; the int-state
``sqchip.maze.route_net`` must return exactly the same cells and raise the
same errors.
"""

from __future__ import annotations

import heapq

from sqchip.errors import BlockedEndpoint, NoPath
from sqchip.maze import _STEPS, heuristic


def route_net(grid, start, goal, k_corner=1.0, k_cross=2.0):
    for name, (c, r) in (("start", start), ("goal", goal)):
        if not grid.in_bounds(c, r):
            raise BlockedEndpoint(f"{name} cell {(c, r)} outside the grid")
        if grid.blocked[r * grid.cols + c]:
            raise BlockedEndpoint(f"{name} cell {(c, r)} is blocked")
    if start == goal:
        return [start]

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
            ni = nr * cols + nc
            if blocked[ni]:
                continue
            step = 1.0
            if d >= 0 and nd != d:
                step += k_corner
            if occupied[ni] > 0:
                step += k_cross
            ng = g + step
            nstate = (nc, nr, nd)
            if ng < best.get(nstate, float("inf")) - 1e-12:
                best[nstate] = ng
                came[nstate] = state
                nh = heuristic((nc, nr), goal, nd, k_corner)
                heapq.heappush(open_q, (ng + nh, nh, ni, nd, (nc, nr), ng))
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
    return cells
