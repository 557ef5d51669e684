"""Whole-system acceptance checks.

Every expected number in this file is recomputed by an oracle local to the
test: folded physical constants, breadth-first search, brute-force geometry
scans, an independent least-squares fit. The package never grades its own
output. Wall-clock rails are generous sanity bounds, not benchmarks.
"""

from __future__ import annotations

import heapq
import math
import random
import struct
import time
from collections import deque
from types import SimpleNamespace

import gds_reference
import numpy as np
import pytest

from sqchip import maze
from sqchip.bench import bench_cell, bench_scaling
from sqchip.circuit import (
    charging_energy,
    critical_current,
    josephson_energy,
    josephson_inductance,
    normal_resistance,
    qubit_frequency,
    solve_qubit,
)
from sqchip.devmap import Evaluator, MappingProblem
from sqchip.devmap import solve as devmap_solve
from sqchip.errors import NoPath
from sqchip.gdsio import read_gds, write_gds
from sqchip.layout import (
    ChipLayout,
    DieBox,
    allocate_frequencies,
    generate_readout_bus,
    place_qubits,
)
from sqchip.maze import GridGraph, count_corners, count_crossings, route_all, route_net
from sqchip.pattern import allocate_pins, route_pattern, total_pins
from sqchip.pipeline import PipelineConfig, run_pipeline
from sqchip.process import apply_rules, get_process, insert_air_bridges
from sqchip.topology import generate_grid, rows_bottom_up


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---- staircase router: every grid, no shared nodes -------------------------

def _route_grid(m: int, n: int, lane_pitch: float | None = None,
                pad_size: float | None = None):
    topo = generate_grid(m, n)
    layout = place_qubits(topo, "xmon", 2000.0)
    for row in rows_bottom_up(topo):
        generate_readout_bus(layout, row, 6.535e9, 7.246e9)
    kw = {}
    if lane_pitch is not None:
        kw["lane_pitch"] = lane_pitch
    if pad_size is not None:
        kw["pad_size"] = pad_size
    allocate_pins(layout, topo, **kw)
    return topo, route_pattern(layout)


def _assert_node_disjoint(paths) -> None:
    """Brute-force segment scan: no two nets may share a single point.

    Rectilinear paths decompose into horizontal and vertical segments; two
    segments of different nets touch iff their closed spans intersect. The
    scan is vectorized but uses no routing code.
    """
    hs, vs = [], []
    for pid, p in enumerate(paths):
        for (x0, y0), (x1, y1) in zip(p.points, p.points[1:]):
            if y0 == y1:
                hs.append((y0, min(x0, x1), max(x0, x1), pid))
            else:
                assert x0 == x1, f"diagonal segment in {p.net}"
                vs.append((x0, min(y0, y1), max(y0, y1), pid))
    H = np.array(hs, dtype=float).reshape(-1, 4)
    V = np.array(vs, dtype=float).reshape(-1, 4)

    if len(H) and len(V):
        hit = ((V[None, :, 0] >= H[:, None, 1])
               & (V[None, :, 0] <= H[:, None, 2])
               & (H[:, None, 0] >= V[None, :, 1])
               & (H[:, None, 0] <= V[None, :, 2])
               & (H[:, None, 3] != V[None, :, 3]))
        assert not hit.any(), "segments of different nets share a node"

    for A in (H, V):
        if len(A) < 2:
            continue
        same_axis = A[:, None, 0] == A[None, :, 0]
        overlap = ((A[:, None, 1] <= A[None, :, 2])
                   & (A[None, :, 1] <= A[:, None, 2]))
        other_net = A[:, None, 3] != A[None, :, 3]
        assert not (same_axis & overlap & other_net).any(), \
            "collinear segments of different nets overlap"


def test_staircase_router_connects_every_grid_without_sharing_a_node():
    # narrow lanes and small pads keep the four-edge fan-out feasible on
    # extreme aspect ratios; the layout geometry is otherwise stock
    t0 = time.perf_counter()
    for m in range(1, 25):
        for n in range(1, 25):
            topo, res = _route_grid(m, n, lane_pitch=15.0, pad_size=40.0)
            assert not res.failures
            assert len(res.paths) == total_pins(topo) == 2 * m + m * n
            assert res.total_crossings == 0
            _assert_node_disjoint(res.paths)
    assert time.perf_counter() - t0 < 120.0


def test_flagship_grid_routes_clean_at_default_pad_geometry():
    topo, res = _route_grid(22, 22)
    assert len(res.paths) == total_pins(topo) == 528
    assert res.total_crossings == 0
    _assert_node_disjoint(res.paths)


# ---- pin-count law ----------------------------------------------------------

def test_pin_count_follows_the_edge_plus_cell_law_exhaustively():
    for m in range(1, 65):
        for n in range(1, 65):
            assert total_pins(generate_grid(m, n)) == 2 * m + m * n
    assert total_pins(generate_grid(22, 22)) == 528
    assert total_pins(generate_grid(8, 8)) == 80


# ---- maze router optimality -------------------------------------------------

def _bfs_steps(grid: GridGraph, start, goal) -> int | None:
    if start == goal:
        return 0
    seen = {start}
    q = deque([(start, 0)])
    while q:
        (c, r), d = q.popleft()
        for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (c + dc, r + dr)
            if nxt == goal:
                return d + 1
            if (0 <= nxt[0] < grid.cols and 0 <= nxt[1] < grid.rows
                    and not grid.blocked[nxt[1] * grid.cols + nxt[0]]
                    and nxt not in seen):
                seen.add(nxt)
                q.append((nxt, d + 1))
    return None


def test_maze_router_with_zero_penalties_matches_breadth_first_search():
    t0 = time.perf_counter()
    for trial in range(200):
        rng = random.Random(3000 + trial)
        grid = GridGraph(10, 10, origin=(0.0, 0.0), cell=50.0)
        cells = [(c, r) for c in range(10) for r in range(10)]
        for c, r in rng.sample(cells, 20):
            grid.blocked[r * 10 + c] = True
        free = [(c, r) for c, r in cells if not grid.blocked[r * 10 + c]]
        start, goal = rng.sample(free, 2)
        expect = _bfs_steps(grid, start, goal)
        try:
            path = route_net(grid, start, goal, k_corner=0.0, k_cross=0.0)
            got = len(path) - 1
        except NoPath:
            got = None
        assert got == expect
    assert time.perf_counter() - t0 < 10.0


# ---- corner and crossing counters -------------------------------------------

def test_corner_and_crossing_counters_match_independent_recounts():
    rng = random.Random(41)
    for _ in range(1000):
        grid = GridGraph(16, 16, origin=(0.0, 0.0), cell=50.0)
        marked = set()
        for _ in range(rng.randrange(0, 60)):
            cell = (rng.randrange(16), rng.randrange(16))
            grid.occupied[cell[1] * 16 + cell[0]] += 1
            marked.add(cell)
        walk = [(rng.randrange(16), rng.randrange(16))]
        for _ in range(rng.randrange(1, 40)):
            c, r = walk[-1]
            moves = [(c + dc, r + dr)
                     for dc, dr in ((1, 0), (-1, 0), (0, 1), (0, -1))
                     if 0 <= c + dc < 16 and 0 <= r + dr < 16]
            walk.append(rng.choice(moves))
        # a corner is any triple that is not collinear; for unit steps
        # collinearity means the endpoints sit two steps apart
        bends = sum(1 for a, b, c in zip(walk, walk[1:], walk[2:])
                    if (c[0] - a[0], c[1] - a[1])
                    != (2 * (b[0] - a[0]), 2 * (b[1] - a[1])))
        assert count_corners(walk) == bends
        assert count_crossings(grid, walk) == \
            sum(1 for cell in walk if cell in marked)


# ---- scaling separation ------------------------------------------------------

def _loglog_fit(records) -> tuple[float, float]:
    return _fit({(r.qubits, r.median_s) for r in records})


def _fit(pts) -> tuple[float, float]:
    """Least-squares slope of log(y) on log(x) over (x, y) points, and r^2."""
    pts = sorted(pts)
    xs = np.log([q for q, _ in pts])
    ys = np.log([t for _, t in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot


def test_staircase_scaling_stays_flat_while_maze_scaling_blows_up():
    t0 = time.perf_counter()
    sizes = [(2, 2), (3, 3), (4, 4), (6, 6), (8, 8), (12, 12), (16, 16)]
    result = bench_scaling(sizes, strategies=("pattern", "maze"),
                           repetitions=3)
    assert not result.failures
    by = {s: [r for r in result.records if r.strategy == s]
          for s in ("pattern", "maze")}
    pat_slope, pat_r2 = _loglog_fit(by["pattern"])
    maze_slope, maze_r2 = _loglog_fit(by["maze"])
    assert pat_slope <= 1.4 and pat_r2 >= 0.9
    assert maze_slope >= 1.6 and maze_r2 >= 0.9
    # the package's own fit must agree with the independent one
    for name, slope in (("pattern", pat_slope), ("maze", maze_slope)):
        own_slope, _ = result.exponents[name]
        assert abs(own_slope - slope) < 1e-9
    assert time.perf_counter() - t0 < 300.0


def test_maze_search_work_grows_faster_than_quadratically(monkeypatch):
    # A* heap pops, not wall time, so the maze half of the gate above holds
    # on any host
    pts = []
    for n in (2, 3, 4, 6, 8):
        pops = []

        def heappop(heap):
            pops.append(None)
            return heapq.heappop(heap)
        monkeypatch.setattr(maze, "heapq", SimpleNamespace(
            heappush=heapq.heappush, heappop=heappop))
        bench_cell("maze", n, n, repetitions=1)
        pts.append((n * n, len(pops)))
    slope, r2 = _fit(pts)
    assert slope >= 1.6 and r2 >= 0.9, pts


# ---- electrical chain --------------------------------------------------------

# folded from e = 1.602176634e-19 C, h = 6.62607015e-34 J s,
# kB = 1.380649e-23 J/K, gap voltage 0.182 mV, 20 mK
_EC_NUMERATOR = 1.9370229324659122e-05      # e^2 / (2 h)  -> E_C = this / C_q
_IC_PER_EJ = 3.204353268e-19                # 2 e          -> I_c = this * E_J
_RN_NUMERATOR = 0.00028588493147667116      # pi Vgap/2 * tanh(e Vgap / 2 kB T)
_LJ_NUMERATOR = 3.2910597847545335e-16      # hbar / (2 e) -> L_j = this / I_c


def test_electrical_chain_matches_folded_constant_oracle():
    e_c = charging_energy(65e-15)
    assert _rel(e_c, _EC_NUMERATOR / 65e-15) < 1e-6
    assert _rel(e_c, 2.980e8) < 1e-3

    e_j = josephson_energy(4.3e9, 0.298e9)
    assert _rel(e_j, 0.125 * (4.3e9 + 0.298e9) ** 2 / 0.298e9) < 1e-6
    assert _rel(e_j, 8.868e9) < 1e-3

    i_c = critical_current(e_j)
    r_n = normal_resistance(i_c)
    l_j = josephson_inductance(i_c)
    assert _rel(i_c, _IC_PER_EJ * e_j) < 1e-6
    assert _rel(r_n, _RN_NUMERATOR / (_IC_PER_EJ * e_j)) < 1e-6
    assert _rel(l_j, _LJ_NUMERATOR / (_IC_PER_EJ * e_j)) < 1e-6
    assert _rel(i_c, 2.84e-9) < 1e-3
    assert _rel(r_n, 1.006e5) < 1e-3
    assert _rel(l_j, 115.8e-9) < 1e-3


def test_parameter_solver_round_trips_a_thousand_random_targets():
    rng = random.Random(6)
    for _ in range(1000):
        f_q = rng.uniform(3e9, 7e9)
        c_q = rng.uniform(40e-15, 110e-15)
        q = solve_qubit("q", f_q, C_q=c_q)
        assert _rel(qubit_frequency(q.L_j, q.C_q, q.E_C), f_q) < 1e-9


# ---- frequency allocation ----------------------------------------------------

def test_two_frequency_palette_never_joins_equal_frequencies():
    palette = [5.1e9, 5.3e9]
    for m in range(1, 17):
        for n in range(1, 17):
            topo = generate_grid(m, n)
            freqs = allocate_frequencies(topo, palette)
            assert len(freqs) == m * n
            assert set(freqs.values()) <= set(palette)
            for a, b in topo.edges:
                assert freqs[a] != freqs[b]


# ---- full build: speed, cleanliness, byte determinism -------------------------

@pytest.fixture(scope="module")
def full_build():
    t0 = time.perf_counter()
    result = run_pipeline(rows=8, cols=8)
    return result, time.perf_counter() - t0


def test_full_chip_build_is_fast_clean_and_completely_routed(full_build):
    result, elapsed = full_build
    assert elapsed < 60.0
    assert result.drc_report == []
    assert result.routing.total_crossings == 0
    assert not result.routing.failures
    assert len(result.routing.paths) == total_pins(generate_grid(8, 8)) == 80
    ops = [entry["operation"] for entry in result.document.provenance_log]
    assert ops == ["topology.generate-grid", "circuit.solve",
                   "layout.place-qubits", "layout.readout-bus",
                   "route.pattern", "process.map", "process.air-bridges",
                   "drc:0-violations", "gds.export"]
    # readout ladder endpoints are the library defaults
    cfg = PipelineConfig()
    assert (cfg.readout_start, cfg.readout_stop) == (6.535e9, 7.246e9)


def test_export_stream_is_a_byte_fixpoint_with_exact_unit_records(full_build):
    result, _ = full_build
    stream = result.gds_bytes
    lib = read_gds(stream)
    assert lib.structures and any(s.elements for s in lib.structures)
    # the independent writer renders the parsed model back to the stream
    assert gds_reference.write_library(lib) == stream
    # UNITS payload encoded by hand: 1e-3 user units, 1e-9 meters per dbu
    units = (struct.pack(">HH", 20, 0x0305)
             + bytes.fromhex("3e4189374bc6a7f0")
             + bytes.fromhex("3944b82fa09b5a54"))
    assert units in stream


# ---- parameter mapping loop ---------------------------------------------------

def _bisection_ceiling(lo: float, hi: float, slope: float, target: float,
                       tol: float) -> int:
    # midpoint error after i halvings is (hi - lo) |slope| / 2^(i+1); the
    # first iterate already halves once, so i such that the relative
    # residual clears tol is ceil(log2(span |slope| / (tol |target|)))
    need = (hi - lo) * abs(slope) / (tol * abs(target))
    return max(1, math.ceil(math.log2(need)))


def test_monotone_solver_meets_tolerance_within_the_analytic_bound():
    rng = random.Random(77)
    for _ in range(200):
        lo = rng.uniform(-100.0, 50.0)
        hi = lo + rng.uniform(5.0, 400.0)
        slope = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 40.0)
        offset = rng.uniform(-20.0, 20.0)
        root = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        target = slope * root + offset
        if abs(target) < 1e-9:
            continue
        tol = rng.choice([1e-3, 1e-4])
        problem = MappingProblem("x", lo, hi, target, tolerance=tol)
        direction = "increasing" if slope > 0 else "decreasing"
        ev = Evaluator("line", "um", direction,
                       lambda x, s=slope, b=offset: s * x + b)
        result = devmap_solve(problem, ev)
        assert abs(result.metric - target) <= tol * abs(target)
        assert result.iterations <= _bisection_ceiling(lo, hi, slope,
                                                       target, tol)


# ---- process mapping ----------------------------------------------------------

def _maze_instance(seed: int):
    rng = random.Random(seed)
    grid = GridGraph(12, 12, origin=(0.0, 0.0), cell=50.0)
    for _ in range(14):
        c, r = rng.randrange(12), rng.randrange(12)
        grid.blocked[r * 12 + c] = True
    free = [(c, r) for c in range(12) for r in range(12)
            if not grid.blocked[r * 12 + c]]
    rng.shuffle(free)
    nets = [(f"n{i}", free[2 * i], free[2 * i + 1]) for i in range(8)]
    # a rare walled-in endpoint just drops that net from the instance
    result = route_all(grid, nets)
    layout = ChipLayout("t", DieBox(-100.0, -100.0, 700.0, 700.0))
    layout.paths.extend(result.paths)
    return layout


def _crossing_points(paths) -> set[tuple[float, float]]:
    """Unique interior crossings of different-net rectilinear paths."""
    pts = set()
    for i, a in enumerate(paths):
        for b in paths[i + 1:]:
            if a.net == b.net or a.layer != b.layer:
                continue
            for p1, p2 in zip(a.points, a.points[1:]):
                for q1, q2 in zip(b.points, b.points[1:]):
                    if p1[1] == p2[1] and q1[0] == q2[0]:
                        h, v = (p1, p2), (q1, q2)
                    elif p1[0] == p2[0] and q1[1] == q2[1]:
                        h, v = (q1, q2), (p1, p2)
                    else:
                        continue
                    x, y = v[0][0], h[0][1]
                    hx0, hx1 = sorted((h[0][0], h[1][0]))
                    vy0, vy1 = sorted((v[0][1], v[1][1]))
                    if hx0 < x < hx1 and vy0 < y < vy1:
                        pts.add((round(x, 6), round(y, 6)))
    return pts


def test_air_bridge_count_equals_the_segment_intersection_oracle():
    rules = get_process("generic-10um")
    bridged = 0
    for seed in range(9100, 9200):
        layout = _maze_instance(seed)
        bridges = insert_air_bridges(layout, rules)
        assert len(bridges) == len(_crossing_points(layout.paths))
        bridged += len(bridges)
    assert bridged > 100     # the sample actually exercises the deck placer


def test_process_mapping_twice_leaves_the_layout_byte_identical():
    rules = get_process("generic-10um")
    once = _maze_instance(9300)
    twice = _maze_instance(9300)
    apply_rules(once, rules)
    apply_rules(twice, rules)
    apply_rules(twice, rules)
    assert write_gds(once) == write_gds(twice)
    frozen = write_gds(once)
    apply_rules(once, rules)
    assert write_gds(once) == frozen
