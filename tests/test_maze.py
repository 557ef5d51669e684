from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest

from sqchip.components import LAYER_PIN, LAYER_QUBIT
from sqchip.errors import (
    BlockedEndpoint,
    DegenerateGrid,
    NoPath,
    UnknownSelector,
)
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
    if grid.blocked[start] or grid.blocked[goal]:
        return None
    seen = {start: 0}
    q = deque([start])
    while q:
        c, r = q.popleft()
        if (c, r) == goal:
            return seen[(c, r)]
        for nc, nr in ((c + 1, r), (c - 1, r), (c, r + 1), (c, r - 1)):
            if 0 <= nc < grid.cols and 0 <= nr < grid.rows \
                    and not grid.blocked[nc, nr] and (nc, nr) not in seen:
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
                    grid.blocked[c, r] = True
        free = [(c, r) for c in range(10) for r in range(10)
                if not grid.blocked[c, r]]
        start, goal = rng.sample(free, 2)
        want = _bfs_distance(grid, start, goal)
        if want is None:
            with pytest.raises(NoPath):
                route_net(grid, start, goal, k_corner=0.0, k_cross=0.0,
                          mark=False)
        else:
            cells = route_net(grid, start, goal, k_corner=0.0, k_cross=0.0,
                              mark=False)
            assert len(cells) - 1 == want


def test_route_rejects_blocked_or_outside_endpoints():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    grid.blocked[2, 2] = True
    with pytest.raises(BlockedEndpoint):
        route_net(grid, (2, 2), (4, 4))
    with pytest.raises(BlockedEndpoint):
        route_net(grid, (0, 0), (9, 0))


def test_route_reports_no_path_for_an_enclosed_goal():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    for c, r in ((3, 3), (3, 4), (4, 3)):
        grid.blocked[c, r] = True
    with pytest.raises(NoPath):
        route_net(grid, (0, 0), (4, 4))


def test_route_degenerate_cases():
    with pytest.raises(DegenerateGrid):
        GridGraph(0, 5, (0.0, 0.0), 50.0)
    grid = GridGraph(3, 3, (0.0, 0.0), 50.0)
    assert route_net(grid, (1, 1), (1, 1)) == [(1, 1)]
    assert grid.occupied[1, 1] == 1


def test_route_rejects_unknown_penalty_mode():
    grid = GridGraph(3, 3, (0.0, 0.0), 50.0)
    with pytest.raises(UnknownSelector, match="estimate-only"):
        route_net(grid, (0, 0), (2, 2), penalty_mode="greedy")


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

    cheap = route_net(build(), (0, 4), (8, 4), k_corner=0.0, k_cross=0.0,
                      mark=False)
    dear = route_net(build(), (0, 4), (8, 4), k_corner=0.0, k_cross=100.0,
                     mark=False)
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
                          k_cross=k_cross, mark=False)
        grid2 = GridGraph(9, 9, (0.0, 0.0), 50.0)
        for col in (2, 4, 6):
            grid2.mark_path([(col, r) for r in range(8)])
        return count_crossings(grid2, cells)

    counts = [routed_crossings(k) for k in (0.0, 0.5, 2.0, 10.0, 1000.0)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_estimate_only_mode_still_finds_shortest_paths_on_open_grids():
    grid = GridGraph(12, 12, (0.0, 0.0), 50.0)
    cells = route_net(grid, (1, 1), (10, 8), penalty_mode="estimate-only",
                      mark=False)
    assert len(cells) - 1 == 9 + 7


def test_route_all_routes_in_order_and_records_failures():
    grid = GridGraph(10, 10, (0.0, 0.0), 50.0)
    grid.blocked[9, 9] = True
    nets = [("a", (0, 0), (9, 0)),
            ("b", (0, 1), (9, 1)),
            ("bad", (0, 2), (9, 9))]
    result = route_all(grid, nets, layer=2, width=10.0)
    assert result.strategy == "maze"
    assert result.nets_routed == 2
    assert [nid for nid, _ in result.failures] == ["bad"]
    assert all(p.cells is not None for p in result.paths)
    assert result.total_corners == sum(p.corner_count for p in result.paths)
    assert result.occupancy.sum() == sum(len(p.cells) for p in result.paths)


def test_cells_to_points_returns_merged_cell_centers():
    grid = GridGraph(5, 5, (0.0, 0.0), 50.0)
    pts = cells_to_points(grid, [(0, 0), (1, 0), (2, 0), (2, 1)])
    assert pts == [(25.0, 25.0), (125.0, 25.0), (125.0, 75.0)]


def test_build_grid_blocks_qubit_keepouts_on_single_face_chips():
    layout = place_qubits(generate_grid(2, 2), "xmon", pitch=2000.0)
    grid = build_grid(layout, cell=50.0, clearance=20.0)
    assert grid.blocked.any()
    q = layout.component_by_id("q0")
    c, r = grid.cell_at(*q.origin)
    assert grid.blocked[c, r]
    # the die corner stays routable
    assert not grid.blocked[0, 0]


def test_build_grid_leaves_the_opposite_face_empty_for_flip_chip():
    layout = place_qubits(generate_grid(2, 2), "xmon", pitch=2000.0)
    layout.flip_chip = True
    grid = build_grid(layout, cell=50.0)
    assert not grid.blocked.any()


@pytest.mark.parametrize("cell", [0.0, -50.0, float("nan")])
def test_build_grid_refuses_a_non_positive_cell(cell):
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    with pytest.raises(DegenerateGrid):
        build_grid(layout, cell=cell)
    # the pipeline refuses the cell before any stage runs
    with pytest.raises(DegenerateGrid, match="maze_cell"):
        run_pipeline(strategy="maze", maze_cell=cell)


def test_build_grid_refuses_the_pin_layer_as_an_obstacle():
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0)
    with pytest.raises(ValueError):
        build_grid(layout, block_layers=(LAYER_PIN,))
    grid = build_grid(layout, block_layers=(LAYER_QUBIT,))
    assert isinstance(grid.blocked, np.ndarray)


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
