from __future__ import annotations

import heapq
import math
import random
import re
from collections import deque
from types import SimpleNamespace

import maze_reference
import pytest

from sqchip import maze
from sqchip.errors import (
    BlockedEndpoint,
    DegenerateGrid,
    NoPath,
    NonPositiveInput,
    StageError,
    UnknownSelector,
)
from sqchip.geometry import merge_collinear
from sqchip.layout import place_qubits
from sqchip.maze import (
    GridGraph,
    build_grid,
    cells_to_points,
    count_corners,
    count_crossings,
    heuristic,
    resolve_target,
    route_all,
    route_net,
)
from sqchip.pipeline import run_pipeline
from sqchip.topology import generate_grid


def _bfs_distance(grid: GridGraph, start, goal) -> int | None:
    # plain breadth-first search, deliberately unrelated to the router
    if grid.blocked[start[1] * grid.cols + start[0]] \
            or grid.blocked[goal[1] * grid.cols + goal[0]]:
        return None
    seen = {start: 0}
    q = deque([start])
    while q:
        c, r = q.popleft()
        if (c, r) == goal:
            return seen[(c, r)]
        for nc, nr in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if 0 <= nc < grid.cols and 0 <= nr < grid.rows \
                    and not grid.blocked[nr * grid.cols + nc] \
                    and (nc, nr) not in seen:
                seen[(nc, nr)] = seen[(c, r)] + 1
                q.append((nc, nr))
    return None


def test_heuristic_is_manhattan_distance_at_zero_corner_weight():
    assert heuristic((0, 0), (3, 4), -1, 0.0) == 7
    assert heuristic((2, 2), (2, 2), -1, 0.0) == 0.0


def test_heuristic_charges_one_corner_when_a_turn_is_forced():
    # off-axis goal always needs at least one turn
    assert heuristic((0, 0), (3, 4), -1, 1.0) == 8
    # goal straight ahead: no corner
    assert heuristic((0, 0), (3, 0), 0, 1.0) == 3
    # goal behind the current heading
    assert heuristic((3, 0), (0, 0), 0, 1.0) == 4
    # goal perpendicular to the heading
    assert heuristic((0, 0), (0, 3), 0, 1.0) == 4


def test_route_net_s_inlined_heuristic_equals_heuristic_bit_for_bit(
        monkeypatch):
    # every entry the search pushes carries its h beside its cell and
    # incoming direction; from each start, an occupied neighbour at a high
    # crossing price sorts after its free siblings and is pushed, not held
    # out of the heap, so the pushes reach every state the search can
    # relax: every cell, direction and goal whose previous cell is not the
    # goal (the goal cell is never expanded)
    pushed = []

    def heappush(heap, entry):
        pushed.append(entry)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(maze, "heapq",
                        SimpleNamespace(heappush=heappush,
                                        heappop=heapq.heappop))
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for cols, rows in ((2, 3), (3, 3), (6, 5)):
        cells = [(c, r) for r in range(rows) for c in range(cols)]
        reachable = {(c, r, d, goal)
                     for c, r in cells
                     for d, (sx, sy) in enumerate(steps)
                     if 0 <= c - sx < cols and 0 <= r - sy < rows
                     for goal in cells if goal != (c - sx, r - sy)}
        for k_corner in (0.0, 0.3, 1.0, 2.5):
            checked = set()
            for goal in cells:
                for start in cells:
                    for sx, sy in steps:
                        grid = GridGraph(cols, rows, (0.0, 0.0), 50.0)
                        nc, nr = start[0] + sx, start[1] + sy
                        if grid.in_bounds(nc, nr):
                            grid.occupied[nr * cols + nc] = 1
                        pushed.clear()
                        route_net(grid, start, goal, k_corner, 10.0)
                        for _, h, _, _, _, c, r, d1 in pushed:
                            want = heuristic((c, r), goal, d1 - 1, k_corner)
                            assert h == want and type(h) is float, \
                                ((c, r), d1 - 1, goal, k_corner)
                            checked.add((c, r, d1 - 1, goal))
            assert checked == reachable, (cols, rows, k_corner)


def test_route_on_an_open_grid_is_a_shortest_path():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    cells = route_net(grid, (0, 0), (4, 4), k_corner=0.0, k_cross=0.0)
    assert len(cells) == 9
    assert cells[0] == (0, 0)
    assert cells[-1] == (4, 4)
    steps = {(b[0] - a[0], b[1] - a[1]) for a, b in zip(cells, cells[1:])}
    assert steps <= {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_route_cost_matches_breadth_first_search_on_random_mazes():
    rng = random.Random(41)
    for _ in range(25):
        grid = GridGraph(10, 10, (0.0, 0.0), 50.0)
        for c in range(10):
            for r in range(10):
                if rng.random() < 0.2:
                    grid.blocked[r * 10 + c] = True
        free = [(c, r) for c in range(10) for r in range(10)
                if not grid.blocked[r * 10 + c]]
        start, goal = rng.sample(free, 2)
        want = _bfs_distance(grid, start, goal)
        if want is None:
            with pytest.raises(NoPath):
                route_net(grid, start, goal, k_corner=0.0, k_cross=0.0)
        else:
            cells = route_net(grid, start, goal, k_corner=0.0, k_cross=0.0)
            assert len(cells) - 1 == want


def _reference_outcome(route, grid, start, goal, k_corner, k_cross):
    try:
        return route(grid, start, goal, k_corner, k_cross)
    except (NoPath, BlockedEndpoint) as exc:
        return type(exc)


def test_route_net_returns_the_reference_cells_on_random_grids():
    # the int-state search must pop states in the tuple-state order, ties
    # included, so it returns the very same cells, not just as cheap ones
    rng = random.Random(0)
    weights = (0.0, 0.5, 1.0, 2.0, 100.0)
    outcomes = set()
    for _ in range(300):
        cols, rows = rng.randint(1, 12), rng.randint(1, 12)
        grid = GridGraph(cols, rows, (0.0, 0.0), 50.0)
        p_block, p_busy = rng.random() * 0.4, rng.random() * 0.6
        for i in range(cols * rows):
            grid.blocked[i] = rng.random() < p_block
            grid.occupied[i] = rng.randint(1, 3) if rng.random() < p_busy else 0
        # now and then an endpoint one cell outside the grid
        start = (rng.randint(0, cols), rng.randrange(rows))
        goal = (rng.randrange(cols), rng.randint(-1, rows - 1))
        k_corner, k_cross = rng.choice(weights), rng.choice(weights)
        want = _reference_outcome(maze_reference.route_net, grid, start, goal,
                                  k_corner, k_cross)
        got = _reference_outcome(route_net, grid, start, goal,
                                 k_corner, k_cross)
        assert got == want, (cols, rows, start, goal, k_corner, k_cross)
        outcomes.add(want if isinstance(want, type) else list)
    # every kind of outcome was exercised
    assert outcomes == {list, NoPath, BlockedEndpoint}


def test_pruned_search_returns_the_reference_cells_under_extreme_penalties():
    # the dominance prune compares sums of g and step costs; penalties from
    # zero through 1e-9 to 1e12 are where float rounding could tip it
    rng = random.Random(16)
    weights = (0.0, 1e-9, 0.1, 0.5, 3.7, 100.0, 1e6, 1e12)
    outcomes = set()
    for _ in range(2000):
        cols, rows = rng.randint(1, 25), rng.randint(1, 25)
        grid = GridGraph(cols, rows, (0.0, 0.0), 50.0)
        p_block, p_busy = rng.random() * 0.4, rng.random() * 0.6
        for i in range(cols * rows):
            grid.blocked[i] = rng.random() < p_block
            grid.occupied[i] = rng.randint(1, 3) if rng.random() < p_busy else 0
        start = (rng.randrange(cols), rng.randrange(rows))
        goal = (rng.randrange(cols), rng.randrange(rows))
        k_corner, k_cross = rng.choice(weights), rng.choice(weights)
        want = _reference_outcome(maze_reference.route_net, grid, start, goal,
                                  k_corner, k_cross)
        got = _reference_outcome(route_net, grid, start, goal,
                                 k_corner, k_cross)
        assert got == want, (cols, rows, start, goal, k_corner, k_cross)
        outcomes.add(want if isinstance(want, type) else list)
    assert outcomes == {list, NoPath, BlockedEndpoint}


def test_search_keeps_the_step_back_and_the_reference_cells_past_the_float_bound():
    # from about 1e15 on, sums of g lose the margin that makes skipping the
    # step back into the previous cell exact, so the search keeps that step
    rng = random.Random(25)
    huge = (1e15, 2.0 ** 52, 1e17, 1e300)
    others = (0.0, 0.5, 3.7) + huge
    outcomes = set()
    for _ in range(400):
        cols, rows = rng.randint(1, 16), rng.randint(1, 16)
        grid = GridGraph(cols, rows, (0.0, 0.0), 50.0)
        p_block, p_busy = rng.random() * 0.4, rng.random() * 0.6
        for i in range(cols * rows):
            grid.blocked[i] = rng.random() < p_block
            grid.occupied[i] = rng.randint(1, 3) if rng.random() < p_busy else 0
        start = (rng.randrange(cols), rng.randrange(rows))
        goal = (rng.randrange(cols), rng.randrange(rows))
        penalties = [rng.choice(huge), rng.choice(others)]
        rng.shuffle(penalties)
        k_corner, k_cross = penalties
        want = _reference_outcome(maze_reference.route_net, grid, start, goal,
                                  k_corner, k_cross)
        got = _reference_outcome(route_net, grid, start, goal,
                                 k_corner, k_cross)
        assert got == want, (cols, rows, start, goal, k_corner, k_cross)
        outcomes.add(want if isinstance(want, type) else list)
    assert outcomes == {list, NoPath, BlockedEndpoint}


def _tables_are_clean(grid) -> bool:
    if grid._tables is None:
        return True
    best, _, expanded = grid._tables
    return all(v == math.inf for v in best) \
        and all(v == math.inf for v in expanded)


class _Interrupted(Exception):
    pass


def _interrupting_heapq(after):
    # a heapq whose calls raise from the after-th on, to stop a search
    # midway with an error the router does not know
    calls = [0]

    def tick():
        calls[0] += 1
        if calls[0] >= after:
            raise _Interrupted

    def heappush(heap, item):
        tick()
        heapq.heappush(heap, item)

    def heappop(heap):
        tick()
        return heapq.heappop(heap)
    return SimpleNamespace(heappush=heappush, heappop=heappop)


def test_a_grid_reuses_its_search_tables_and_leaves_them_clean(monkeypatch):
    # one grid serves search after search, as it does for route_all's
    # nets: each returns the reference's cells or error on the grid as it
    # stands, and leaves every best and expanded entry at inf, whether it
    # returned, found no path, refused an endpoint or was interrupted
    rng = random.Random(26)
    weights = (0.0, 0.5, 1.0, 2.0, 100.0)
    outcomes = set()
    for _ in range(40):
        cols, rows = rng.randint(1, 12), rng.randint(1, 12)
        grid = GridGraph(cols, rows, (0.0, 0.0), 50.0)
        for i in range(cols * rows):
            grid.blocked[i] = rng.random() < 0.2
        for _ in range(20):
            start = (rng.randint(-1, cols), rng.randrange(rows))
            goal = (rng.randrange(cols), rng.randint(0, rows))
            walled = []
            if rng.random() < 0.2:
                # wall the goal in for this search only
                walled = [r * cols + c
                          for c, r in ((goal[0] + 1, goal[1]),
                                       (goal[0] - 1, goal[1]),
                                       (goal[0], goal[1] + 1),
                                       (goal[0], goal[1] - 1))
                          if grid.in_bounds(c, r) and not
                          grid.blocked[r * cols + c]]
                for i in walled:
                    grid.blocked[i] = True
            k_corner, k_cross = rng.choice(weights), rng.choice(weights)
            if rng.random() < 0.15:
                monkeypatch.setattr(maze, "heapq",
                                    _interrupting_heapq(rng.randint(1, 30)))
                try:
                    route_net(grid, start, goal, k_corner, k_cross)
                except (_Interrupted, NoPath, BlockedEndpoint):
                    pass
                monkeypatch.undo()
                assert _tables_are_clean(grid)
            want = _reference_outcome(maze_reference.route_net, grid, start,
                                      goal, k_corner, k_cross)
            got = _reference_outcome(route_net, grid, start, goal,
                                     k_corner, k_cross)
            assert got == want, (cols, rows, start, goal, k_corner, k_cross)
            assert _tables_are_clean(grid)
            outcomes.add(want if isinstance(want, type) else list)
            for i in walled:
                grid.blocked[i] = False
            if isinstance(got, list):
                grid.mark_path(got)     # later searches pay to cross it
        assert grid._tables is not None
    assert outcomes == {list, NoPath, BlockedEndpoint}


class _CountingCells(list):
    def __init__(self, cells):
        super().__init__(cells)
        self.reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_search_steps_back_into_the_previous_cell_only_past_the_float_bound():
    # along a one-row corridor each state can step on or back; the search
    # reads the cell behind it only where the bound keeps the step back
    reads = {}
    for k_corner in (1.0, 1e15):
        grid = GridGraph(10, 1, (0.0, 0.0), 50.0)
        grid.blocked = _CountingCells(grid.blocked)
        cells = route_net(grid, (0, 0), (9, 0), k_corner, 0.0)
        assert cells == [(c, 0) for c in range(10)]
        reads[k_corner] = grid.blocked.reads
    # 2 endpoint checks, 1 step from the start, 8 steps on, 8 steps back
    assert reads == {1.0: 2 + 1 + 8, 1e15: 2 + 1 + 8 + 8}


def _counting_heapq(counts, key):
    def heappop(heap):
        counts[key] += 1
        return heapq.heappop(heap)
    return SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def test_pruned_search_pops_at_most_six_tenths_of_the_reference(monkeypatch):
    # operation counts, not wall time, so the saving shows on any host:
    # every net of the default maze 3x3/4x4/5x5 builds is routed by both
    # searches on the same grid, and both must return the same cells
    counts = {"pruned": 0, "reference": 0}
    monkeypatch.setattr(maze, "heapq", _counting_heapq(counts, "pruned"))
    monkeypatch.setattr(maze_reference, "heapq",
                        _counting_heapq(counts, "reference"))
    pruned = maze.route_net

    def both(grid, start, goal, k_corner, k_cross):
        want = _reference_outcome(maze_reference.route_net, grid, start, goal,
                                  k_corner, k_cross)
        try:
            got = pruned(grid, start, goal, k_corner, k_cross)
        except (NoPath, BlockedEndpoint) as exc:
            assert type(exc) is want, (start, goal)
            raise
        assert got == want, (start, goal)
        return got

    monkeypatch.setattr(maze, "route_net", both)
    for n in (3, 4, 5):
        run_pipeline(rows=n, cols=n, strategy="maze")
    assert counts["reference"] > 0
    assert counts["pruned"] <= 0.6 * counts["reference"], counts


@pytest.mark.parametrize("bad", [-5.0, -1e-9, float("inf"), float("nan")])
def test_route_net_refuses_a_negative_or_non_finite_penalty(bad, monkeypatch):
    # a negative crossing price next to a marked row is a negative-cost
    # cycle; the router must refuse it before searching, not loop forever
    grid = GridGraph(6, 6, (0.0, 0.0), 50.0)
    grid.mark_path([(c, 3) for c in range(6)])

    def no_search(*args):
        raise AssertionError("route_net searched before checking penalties")
    monkeypatch.setattr(maze, "heapq",
                        SimpleNamespace(heappush=no_search, heappop=no_search))
    with pytest.raises(NonPositiveInput, match="k_cross"):
        route_net(grid, (0, 0), (5, 5), k_corner=1.0, k_cross=bad)
    with pytest.raises(NonPositiveInput, match="k_corner"):
        route_net(grid, (0, 0), (5, 5), k_corner=bad, k_cross=2.0)
    monkeypatch.undo()
    assert route_net(grid, (0, 0), (5, 5), k_corner=0.0, k_cross=0.0)


def test_route_rejects_blocked_or_outside_endpoints():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    grid.blocked[2 * 5 + 2] = True
    with pytest.raises(BlockedEndpoint):
        route_net(grid, (2, 2), (4, 4))
    with pytest.raises(BlockedEndpoint):
        route_net(grid, (0, 0), (9, 0))


def test_route_reports_no_path_for_an_enclosed_goal():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    for c, r in ((3, 3), (3, 4), (4, 3)):
        grid.blocked[r * 5 + c] = True
    with pytest.raises(NoPath):
        route_net(grid, (0, 0), (4, 4))


@pytest.mark.parametrize("cell", [0.0, -50.0, float("nan"), float("inf"),
                                  float("-inf")])
def test_grid_graph_refuses_a_non_positive_or_non_finite_cell(cell):
    with pytest.raises(DegenerateGrid, match="grid cell"):
        GridGraph(3, 3, (0.0, 0.0), cell)


@pytest.mark.parametrize("name", ["blocked", "occupied"])
@pytest.mark.parametrize("length", [0, 8, 10])
def test_grid_graph_refuses_a_cell_list_of_the_wrong_length(name, length):
    # the grid makes its own cell lists, so it takes none, of any length
    with pytest.raises(TypeError, match=name):
        GridGraph(3, 3, (0.0, 0.0), 50.0, **{name: [0] * length})
    assert len(getattr(GridGraph(3, 3, (0.0, 0.0), 50.0), name)) == 9


def test_grid_graph_refuses_more_cells_than_its_bound():
    side = 2 ** 11
    assert side * side == maze.MAX_GRID_CELLS
    assert len(GridGraph(side, side, (0.0, 0.0), 1.0).blocked) == side * side
    with pytest.raises(DegenerateGrid,
                       match=f"grid {side}x{side + 1} has {side * (side + 1)} "
                             f"cells, over the bound of {maze.MAX_GRID_CELLS}"):
        GridGraph(side, side + 1, (0.0, 0.0), 1.0)


def test_route_degenerate_cases():
    with pytest.raises(DegenerateGrid):
        GridGraph(0, 5, (0.0, 0.0), 50.0)
    grid = GridGraph(3, 3, (0.0, 0.0), 50.0)
    assert route_net(grid, (1, 1), (1, 1)) == [(1, 1)]
    assert not any(grid.occupied)


def test_route_net_only_reads_the_grid():
    grid = GridGraph(9, 9, (0.0, 0.0), 50.0)
    grid.blocked[4 * 9 + 4] = True
    blocked = list(grid.blocked)
    cells = route_net(grid, (0, 0), (8, 8))
    assert len(cells) == 17
    assert grid.occupied == [0] * 81
    assert grid.blocked == blocked


def test_staircase_of_alternating_steps_has_one_corner_per_switch():
    for s in (2, 5, 8):
        cells = [(0, 0)]
        for i in range(s):
            c, r = cells[-1]
            cells.append((c + 1, r) if i % 2 == 0 else (c, r + 1))
        assert count_corners(cells) == s - 1
    assert count_corners([(0, 0), (1, 0), (2, 0)]) == 0
    assert count_corners([(0, 0)]) == 0


def test_crossing_count_equals_occupied_cells_touched():
    grid = GridGraph(10, 10, (0.0, 0.0), 50.0)
    n = 6
    line = [(c, 5) for c in range(n)]
    grid.mark_path(line)
    assert count_crossings(grid, line) == n
    assert count_crossings(grid, [(0, 0), (1, 0)]) == 0


def test_costly_crossings_push_the_route_around_an_occupied_wall():
    def build():
        grid = GridGraph(9, 9, (0.0, 0.0), 50.0)
        grid.mark_path([(4, r) for r in range(8)])   # occupied column, gap on top
        return grid

    cheap = route_net(build(), (0, 4), (8, 4), k_corner=0.0, k_cross=0.0)
    dear = route_net(build(), (0, 4), (8, 4), k_corner=0.0, k_cross=100.0)
    g = build()
    assert count_crossings(g, cheap) == 1
    assert count_crossings(g, dear) == 0
    assert len(dear) > len(cheap)


def test_crossings_never_increase_with_the_crossing_weight():
    def routed_crossings(k_cross: float) -> int:
        grid = GridGraph(9, 9, (0.0, 0.0), 50.0)
        for col in (2, 4, 6):
            grid.mark_path([(col, r) for r in range(8)])
        cells = route_net(grid, (0, 4), (8, 4), k_corner=0.0,
                          k_cross=k_cross)
        grid2 = GridGraph(9, 9, (0.0, 0.0), 50.0)
        for col in (2, 4, 6):
            grid2.mark_path([(col, r) for r in range(8)])
        return count_crossings(grid2, cells)

    counts = [routed_crossings(k) for k in (0.0, 0.5, 2.0, 10.0, 1000.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_route_all_routes_in_order_and_records_failures():
    grid = GridGraph(10, 10, (0.0, 0.0), 50.0)
    grid.blocked[9 * 10 + 9] = True
    nets = [("a", (0, 0), (9, 0)),
            ("b", (0, 1), (9, 1)),
            ("bad", (0, 2), (9, 9))]
    result = route_all(grid, nets, layer=2, width=10.0)
    assert result.strategy == "maze"
    assert result.nets_routed == 2
    assert [nid for nid, _ in result.failures] == ["bad"]
    assert result.total_corners == sum(p.corner_count for p in result.paths)
    assert sum(grid.occupied) == 20     # two straight ten-cell rows


def test_cells_to_points_returns_merged_cell_centers():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    pts = cells_to_points(grid, [(0, 0), (1, 0), (2, 0), (2, 1)])
    assert pts == [(25.0, 25.0), (125.0, 25.0), (125.0, 75.0)]


def test_cells_to_points_equals_merge_collinear_over_every_center():
    rng = random.Random(7)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    walks = [[], [(3, 4)], [(3, 4), (4, 4)], [(3, 4), (3, 5)],
             # a U-turn: straight back over the cell it came from
             [(1, 1), (2, 1), (3, 1), (2, 1), (2, 2)]]
    for _ in range(300):
        c, r = rng.randrange(20), rng.randrange(20)
        walk = [(c, r)]
        for _ in range(rng.randrange(1, 12)):
            sx, sy = rng.choice(steps)
            for _ in range(rng.randrange(1, 6)):
                c, r = c + sx, r + sy
                walk.append((c, r))
        walks.append(walk)
    assert any(count_corners(w) > 0 for w in walks)
    for cell in (50.0, 100.0):
        grid = GridGraph(40, 40, (-1234.5, 987.25), cell)
        for walk in walks:
            centers = [grid.cell_center(c, r) for c, r in walk]
            assert cells_to_points(grid, walk) == merge_collinear(centers), \
                walk


def test_build_grid_blocks_qubit_keepouts_on_single_face_chips():
    layout = place_qubits(generate_grid(2, 2), "xmon", pitch=2000.0)
    grid = build_grid(layout, cell=50.0, clearance=20.0)
    assert any(grid.blocked)
    q = layout.component_by_id("q0")
    c, r = grid.cell_at(*q.origin)
    assert grid.blocked[r * grid.cols + c]
    # the die corner stays routable
    assert not grid.blocked[0]


def test_build_grid_leaves_the_opposite_face_empty_for_flip_chip():
    layout = place_qubits(generate_grid(2, 2), "xmon", pitch=2000.0)
    layout.flip_chip = True
    grid = build_grid(layout, cell=50.0)
    assert not any(grid.blocked)


@pytest.mark.parametrize("cell", [0.0, -50.0, float("nan"), float("inf")])
def test_build_grid_refuses_a_non_positive_cell(cell):
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    with pytest.raises(DegenerateGrid):
        build_grid(layout, cell=cell)
    # the pipeline refuses the cell before any stage runs
    with pytest.raises(DegenerateGrid, match="maze_cell"):
        run_pipeline(strategy="maze", maze_cell=cell)


def test_a_maze_cell_too_fine_for_the_die_fails_at_route():
    # a 1 um cell on the 2x2 die would be a 5010x3981 grid, about 20 M cells
    with pytest.raises(StageError, match=f"grid 5010x3981 has 19944810 cells, "
                       f"over the bound of {maze.MAX_GRID_CELLS}") as err:
        run_pipeline(rows=2, cols=2, strategy="maze", maze_cell=1.0)
    assert err.value.stage == "route"
    assert isinstance(err.value.cause, DegenerateGrid)


@pytest.mark.parametrize("clearance", [-200.0, -1e-9, float("nan")])
def test_build_grid_refuses_a_negative_clearance(clearance):
    # a negative clearance shrinks the blockage, so nets cut qubit metal
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    with pytest.raises(NonPositiveInput, match="clearance"):
        build_grid(layout, clearance=clearance)
    assert build_grid(layout, clearance=0.0).blocked.count(True) > 0


def test_resolve_target_finds_feedline_ends_and_qubit_ports():
    from sqchip.layout import generate_readout_bus

    layout = place_qubits(generate_grid(1, 2), "xmon", pitch=2000.0)
    generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9)
    feed = next(p for p in layout.paths if p.kind == "feedline")
    pos, off = resolve_target(layout, "bus_q0@west", standoff=100.0)
    assert pos == min(feed.points)
    assert off == (pos[0] - 100.0, pos[1])
    pos, off = resolve_target(layout, "bus_q0@east", standoff=100.0)
    assert pos == max(feed.points)
    q = layout.component_by_id("q0")
    pos, _ = resolve_target(layout, "q0", standoff=50.0)
    assert pos == q.ports["east"].position
    with pytest.raises(NoPath):
        resolve_target(layout, "ghost@west", standoff=10.0)


@pytest.mark.parametrize("target", ["bus_q0@north", "bus_q0@west@x",
                                    "bus_q0@"])
def test_resolve_target_refuses_a_feedline_side_naming_the_target(target):
    from sqchip.layout import generate_readout_bus

    layout = place_qubits(generate_grid(1, 2), "xmon", pitch=2000.0)
    generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9)
    with pytest.raises(UnknownSelector, match=re.escape(repr(target))):
        resolve_target(layout, target, standoff=10.0)


def test_resolve_target_lands_on_each_qubit_kind_s_control_port():
    from sqchip.layout import generate_readout_bus

    layout = place_qubits(generate_grid(1, 2), "transmon", pitch=2000.0)
    generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9)
    q = layout.component_by_id("q0")
    pos, off = resolve_target(layout, "q0", standoff=50.0)
    assert pos == q.ports["south"].position
    assert off == (pos[0], pos[1] - 50.0)
    q.kind = "fluxonium"
    with pytest.raises(NoPath, match="'fluxonium'"):
        resolve_target(layout, "q0", standoff=50.0)
