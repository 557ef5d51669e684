"""Grid maze router: sequential A* with corner and crossing penalties.

Search states are (cell, incoming direction) pairs so the corner cost is part
of the optimization, not a post-hoc tiebreak. Each state is packed into one
int, ``(r * cols + c) * 5 + (d + 1)``; the packing orders states exactly as
(cell index, direction) tuples would, so heap ties break the same way and
the routed cells do not depend on the encoding. There is one cost model:
every penalty goes into the accumulated cost, so the returned path minimizes
steps + k_corner * corners + k_cross * crossings exactly, and both penalties
must be finite and non-negative. ``route_net`` is a pure search;
``route_all`` is the only writer of ``GridGraph.occupied``.

The search keeps its tables on the grid and reuses them for every net: a
flat ``best`` list per state, ``expanded`` per cell and a one-byte ``came``
back pointer per state, made by a grid's first search (about 6 pointers and
5 bytes per cell) and put back to ``inf`` after each search, whether it
returns or raises. A grid therefore serves one search at a time.

The search skips three kinds of work that cannot change its result (see
``route_net``), so the routed cells, and the order in which states pop, are
those of the plain search:

- a state whose cell already holds an expanded sibling direction that
  offered every neighbour at least as cheaply is neither pushed nor
  expanded (dominance prune);
- a state never steps back into the cell it came from, while the float
  bound ``(5 * cols * rows)**2 * (1 + k_corner + k_cross) < 2**48`` holds;
- the least entry an expansion pushes is held out of the heap and taken
  next when it sorts below the heap's top.

Each move does only the work of its axis: it checks the one grid bound it
can cross, reads the heuristic from two per-net tables (the goal distance
of every column and of every row) and finds the next state by one add.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .components import LAYER_QUBIT, QUBIT_KINDS, landing
from .errors import (
    BlockedEndpoint,
    DegenerateGrid,
    NoPath,
    NonPositiveInput,
    check_selector,
)
from .geometry import count_corners, turning_points
from .layout import feedline_ends
from .routing import RoutedPath, RoutingResult

# direction encoding: index into _STEPS; -1 means "no direction yet"
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

# largest grid a GridGraph accepts: a cell costs about 70 bytes (the two
# grid lists plus the search tables), so this bound is about 300 MB
MAX_GRID_CELLS = 2 ** 22


def check_cell(name: str, value: float) -> None:
    """Raise DegenerateGrid unless a grid cell size (um) is positive and
    finite: the grid divides by it and counts cells with it."""
    if not 0.0 < value < math.inf:
        raise DegenerateGrid(f"{name} must be positive and finite, "
                             f"got {value} um")


@dataclass
class GridGraph:
    cols: int
    rows: int
    origin: tuple[float, float]       # um of cell (0, 0) lower-left corner
    cell: float                       # um per cell
    blocked: list[bool] = field(default=None)   # cell (c, r) at r * cols + c
    occupied: list[int] = field(default=None)   # net count, same index
    # route_net's search tables (best, came, expanded), made by the first
    # search of this grid and clean again after each one
    _tables: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        if self.cols < 1 or self.rows < 1:
            raise DegenerateGrid(f"grid {self.cols}x{self.rows} has no cells")
        check_cell("grid cell", self.cell)
        n = self.cols * self.rows
        if n > MAX_GRID_CELLS:
            raise DegenerateGrid(f"grid {self.cols}x{self.rows} has {n} "
                                 f"cells, over the bound of {MAX_GRID_CELLS}; "
                                 f"use a coarser grid cell")
        if self.blocked is None:
            self.blocked = [False] * n
        if self.occupied is None:
            self.occupied = [0] * n
        for name, cells in (("blocked", self.blocked),
                            ("occupied", self.occupied)):
            if len(cells) != n:
                raise DegenerateGrid(f"{name} has {len(cells)} entries, the "
                                     f"{self.cols}x{self.rows} grid has "
                                     f"{n} cells")

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
    check_cell("grid cell", cell)
    # a negative clearance shrinks the blockage and lets nets cut through
    # qubit metal, which nothing downstream checks
    if not 0.0 <= clearance < math.inf:
        raise NonPositiveInput(f"clearance must be finite and >= 0, "
                               f"got {clearance} um")
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
    ``route_net`` inlines this expression per move axis, from per-net
    axis tables;
    ``test_route_net_s_inlined_heuristic_equals_heuristic_bit_for_bit``
    checks every state it pushes against this function."""
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


def count_crossings(grid: GridGraph, cells: list[tuple[int, int]]) -> int:
    """Occupied cells this path passes through (endpoints included)."""
    return sum(1 for c, r in cells if grid.occupied[r * grid.cols + c] > 0)


def route_net(grid: GridGraph, start: tuple[int, int], goal: tuple[int, int],
              k_corner: float = 1.0, k_cross: float = 2.0,
              ) -> list[tuple[int, int]]:
    """A* from start cell to goal cell; returns the cell sequence.

    Each step costs 1, plus k_corner when it turns and k_cross when it enters
    an occupied cell, so the path is optimal for that combined objective.
    Both penalties must pass ``check_penalty``. The grid is only read,
    apart from its search tables, which each search leaves as it found
    them: marking the path is the caller's job.

    A search state (cell (c, r), incoming direction d) is the one int
    ``(r * cols + c) * 5 + (d + 1)``, with d = -1 before the first step.
    It grows strictly with (row-major cell index, d), so heap entries
    ``(f, h, state, g)`` pop in the same order, ties included, as entries
    keyed by (f, h, cell index, d), and the search returns the same cells.
    The heuristic is ``heuristic()`` inlined, with the same float
    expression, so every f is bit-identical too.

    Entries carry the state's coordinates, ``(f, h, s, g, i, c, r, d1)``
    with i the cell index and d1 = d + 1, so a pop needs no ``divmod``.
    No two entries agree on (f, h, s, g): a state is pushed again only at
    a g below ``best - 1e-12``, and ``best`` only falls, so its entries
    have strictly decreasing g. Tuple comparison is therefore decided
    within the first four fields, the trailing ones are never compared,
    and entries pop exactly as ``(f, h, s, g)`` entries would.

    Tables: ``best`` (a list of 5 * cols * rows floats, by state),
    ``expanded`` (cols * rows floats, by cell) and ``came`` (a bytearray,
    by state) are made by the grid's first search and kept on it, about
    6 pointers plus 5 bytes per cell, where dicts would grow only with
    the states a search touches but cost a hash lookup per read. Every
    state and cell whose entry leaves ``inf`` is listed, and a
    ``finally`` puts those entries back, so every search starts on clean
    tables, after ``NoPath`` or any other exception too. The tables are
    shared, so a grid serves one search at a time.

    Back pointer: ``came[ns]`` is the slot d1 of the state ns was relaxed
    from, one byte. That state's cell is ns's cell less the step that ns's
    own slot names, so the walk back needs no state number. Only the start
    state has slot 0, which ends the walk. ``came`` is never reset: a state
    pops only at g <= ``best``, and ``best`` is ``inf`` when a search
    starts, so the goal state and, by induction, every state the walk
    reaches was relaxed, and its ``came`` written, during this search.

    Dominance pruning: let e be the least g of a state already expanded in
    cell i. A state (i, d) with cost g is skipped at pop, and a relaxed
    neighbour is recorded in ``best``/``came`` but not pushed, when
    ``g + straight[o] >= e + turning[o]`` for both o (free and occupied
    neighbour). Every step out of (i, d) costs at least ``straight[o]``,
    and the sibling already offered each neighbour at most
    ``e + turning[o]``. Float addition rounds monotonically, so each relax
    from (i, d) would fail the ``- 1e-12`` test: skipping it changes no
    ``best``, no ``came`` and no heap order, and the cells are exactly
    those of the unpruned search. The goal check runs before the prune and
    the goal cell is never expanded, so a goal state is never pruned.

    No reverse step: a state (p, d) never relaxes the state (q, reverse d)
    of the cell q it came from. (p, d) was relaxed, at g >= g' + 1, from a
    state (q, d') expanded at g', so e_q <= g'; the step back turns, so it
    would give ng >= g' + 2 + k_corner (+ k_cross into a busy q).
    (i) That clears both halves of the prune at q by at least 2, so the
    state would be recorded and never pushed. (ii) It never lowers the best
    of a state u expanded at q, whose g_u <= g' + k_corner: if u expanded
    after (q, d'), because its pop passed the prune against e_q <= g'; if
    before, because the heuristic is consistent (a straight step never
    drops a forced turn, a turn pays k_corner), so states pop in
    nondecreasing f and the two directions' h differ by at most k_corner.
    The skipped relax thus touches only ``best``/``came`` of a state that
    is not expanded and never pushed at that cost, and any later relax or
    heap entry of it at a cost as high is pruned too (the prune test is
    monotone in g): every push, pop and ``came`` of an expanded state is
    unchanged. Rounding: every margin above is 2 in exact arithmetic. An
    expanded g is the cost of a walk of distinct states (a state expands
    only at g <= best, best only falls, and g grows along the walk), so
    with N = 5 * cols * rows states and steps of at most
    c = 1 + k_corner + k_cross, no sum exceeds 2 * N * c and each rounds by
    at most 2**-53 of that. The few sums per push, chained over at most N
    pushes, then drift by under 10 * N**2 * c * 2**-53 < 1/2 when
    N**2 * c < 2**48. Past that bound the step back is kept.

    No heap round trip: the least entry an expansion pushes is held out of
    ``open_q`` and taken next when it sorts below ``open_q[0]``, else it is
    pushed. Entries are totally ordered (a state is pushed again only at a
    strictly lower g), so it is the entry ``heappop`` would have returned
    and the pop order is unchanged.

    Moves by axis: a step along x changes only the column, so it leaves
    the grid only through ``0 <= nc < cols`` and keeps the row; a step
    along y likewise tests only the row. ``blocked`` is read for the same
    in-grid cells as with both bounds tested. The next state is
    ``s + ds`` with ``ds = di * 5 + nd1 - d1`` fixed per move: s is
    ``i * 5 + d1``, so the sum is ``ni * 5 + nd1``.

    Heuristic by axis: ``adx[c] = |gc - c|`` and ``ady[r] = |gr - r|``
    are built per net, O(cols + rows). For a step along x with sign
    ``step``, ``heuristic()``'s forced-turn test (off the goal's axis, or
    the goal behind) reads ``nr != gr or (gc - nc) * step < 0``, and along
    y ``nc != gc or (gr - nr) * step < 0``. The sums are those of
    ``heuristic()``: ``adx[nc] + ady[nr] + k_corner`` is the same int +
    int + float as ``abs(dx) + abs(dy) + k_corner``, and without a turn
    one term is 0, so ``adx[nc] + 0.0`` or ``ady[nr] + 0.0`` is the float
    of ``abs(dx) + abs(dy)``; the goal cell gets ``0.0``. Every h, and so
    every f, is bit-identical.
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
    free_step, busy_step = straight
    free_turn, busy_turn = turning
    # past this float bound a state keeps its step back into the cell it
    # came from (see the docstring)
    step_back = (5 * cols * rows) ** 2 * busy_turn >= 2.0 ** 48
    # moves[d + 1]: (nd + 1, along x?, +-1 step, cell index offset, state
    # offset, step cost) for each step out of a state that came in along d
    # (d = -1 at the start)
    moves = [tuple((nd + 1, sx != 0, sx + sy, sy * cols + sx,
                    (sy * cols + sx) * 5 + nd + 1 - d1,
                    straight if d1 in (0, nd + 1) else turning)
                   for nd, (sx, sy) in enumerate(_STEPS)
                   if step_back or d1 == 0 or nd != (d1 - 1) ^ 1)
             for d1 in range(5)]
    # the heuristic's two Manhattan terms, by column and by row
    adx = [abs(gc - c) for c in range(cols)]
    ady = [abs(gr - r) for r in range(rows)]
    inf = math.inf
    tables = grid._tables
    if tables is None:
        tables = grid._tables = ([inf] * (5 * cols * rows),
                                 bytearray(5 * cols * rows),
                                 [inf] * (cols * rows))
    best, came, expanded = tables
    s = (start[1] * cols + start[0]) * 5
    h0 = heuristic(start, goal, -1, k_corner)
    # the states and cells whose entries leave inf, put back by the
    # finally; the goal cell is never expanded, so its expanded entry
    # stays inf and a goal state is never pruned
    touched_states = [s]
    touched_cells = []
    open_q = []
    # the least entry pushed by the last expansion, held out of open_q
    # while it sorts below open_q[0]: it is the entry heappop would return
    nxt = (h0, h0, s, 0.0, s // 5, *start, 0)
    heappop, heappush = heapq.heappop, heapq.heappush
    add_state, add_cell = touched_states.append, touched_cells.append
    try:
        best[s] = 0.0
        while True:
            if nxt is None:
                if not open_q:
                    raise NoPath(f"no route from {start} to {goal}")
                nxt = heappop(open_q)
            _, _, s, g, i, c, r, d1 = nxt
            nxt = None
            if g > best[s]:
                continue
            if c == gc and r == gr:
                break
            e = expanded[i]
            if g + free_step >= e + free_turn \
                    and g + busy_step >= e + busy_turn:
                continue        # a sibling offered every move as cheaply
            if g < e:
                if e == inf:
                    add_cell(i)
                expanded[i] = g
            for nd1, along_x, step, di, ds, cost in moves[d1]:
                # a step can leave the grid only along its own axis
                if along_x:
                    nc = c + step
                    if not 0 <= nc < cols:
                        continue
                    nr = r
                else:
                    nr = r + step
                    if not 0 <= nr < rows:
                        continue
                    nc = c
                ni = i + di
                if blocked[ni]:
                    continue
                ng = g + cost[occupied[ni] > 0]
                ns = s + ds
                b = best[ns]
                if ng < b - 1e-12:
                    if b == inf:
                        add_state(ns)
                    best[ns] = ng
                    came[ns] = d1
                    e = expanded[ni]
                    if ng + free_step >= e + free_turn \
                            and ng + busy_step >= e + busy_turn:
                        continue    # it would be popped only to be pruned
                    # heuristic() on this move: off-axis or behind forces
                    # one turn; + 0.0 gives a float, as heuristic() returns
                    if along_x:
                        if nr != gr or (gc - nc) * step < 0:
                            nh = adx[nc] + ady[nr] + k_corner
                        elif nc == gc:
                            nh = 0.0
                        else:
                            nh = adx[nc] + 0.0
                    elif nc != gc or (gr - nr) * step < 0:
                        nh = adx[nc] + ady[nr] + k_corner
                    elif nr == gr:
                        nh = 0.0
                    else:
                        nh = ady[nr] + 0.0
                    entry = (ng + nh, nh, ns, ng, ni, nc, nr, nd1)
                    if nxt is None:
                        nxt = entry
                    elif entry < nxt:
                        heappush(open_q, nxt)
                        nxt = entry
                    else:
                        heappush(open_q, entry)
            if nxt is not None and open_q and open_q[0] < nxt:
                heappush(open_q, nxt)
                nxt = None
    finally:
        for ns in touched_states:
            best[ns] = inf
        for ni in touched_cells:
            expanded[ni] = inf

    # walk back: the slot d1 of state s names the step that entered its
    # cell, and came[s] the slot of the state s was relaxed from
    offsets = [0] + [sy * cols + sx for sx, sy in _STEPS]
    path = [(c, r)]
    while d1:
        i -= offsets[d1]
        d1 = came[s]
        s = i * 5 + d1
        r, c = divmod(i, cols)
        path.append((c, r))
    path.reverse()
    return path


def cells_to_points(grid: GridGraph, cells: list[tuple[int, int]],
                    ) -> list[tuple[float, float]]:
    """Cell centers with collinear runs merged: the centers of the first
    cell, each turning cell (``geometry.turning_points``, the test that
    ``count_corners`` counts) and the last cell.

    On a walk of unit steps this is ``merge_collinear`` over every center.
    Cells in one row share one center y and cells in one column one center
    x, so along a straight run the cross product that ``merge_collinear``
    tests is exactly 0 and the run's interior goes; at a turn it is at
    least cell**2, far above its 1e-12 tolerance, and the turning center
    stays. A U-turn (a step straight back) is kept by both: its center
    lies past the next one, not between them.
    """
    center = grid.cell_center
    if len(cells) < 2:
        return [center(c, r) for c, r in cells]
    return [center(c, r)
            for c, r in (cells[0], *turning_points(cells), cells[-1])]


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
    keep-out. Targets are qubit ids, reached at their kind's first control
    port (``components.landing``), or "<feedline>@west" / "@east"."""
    if "@" in target:
        bus, _, side = target.partition("@")
        check_selector(f"target {target!r}: feedline side", side,
                       ("west", "east"))
        ends = feedline_ends(layout)
        if bus not in ends:
            raise NoPath(f"no feedline named {bus}")
        pos = ends[bus][0 if side == "west" else 1]
        return pos, (pos[0] + (-standoff if side == "west" else standoff),
                     pos[1])
    comp = layout.component_by_id(target)
    if comp.kind not in QUBIT_KINDS:
        raise NoPath(f"target {target!r} is a {comp.kind!r}, which has no "
                     f"control port")
    return landing(comp, standoff)
