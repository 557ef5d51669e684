from __future__ import annotations

import random

import pytest

from sqchip.components import LAYER_OPPOSITE, LAYER_ROUTING
from sqchip.errors import CorridorExhausted, SpecInfeasible
from sqchip.layout import generate_readout_bus, place_qubits
from sqchip.pattern import (
    allocate_pins,
    edge_pin_counts,
    map_pins,
    route_pattern,
    total_pins,
)
from sqchip.topology import generate_grid, rows_bottom_up


def _routed_grid(m: int, n: int, pitch: float = 2000.0, flip: bool = False):
    topo = generate_grid(m, n)
    layout = place_qubits(topo, "xmon", pitch=pitch)
    layout.flip_chip = flip
    for row in rows_bottom_up(topo):
        generate_readout_bus(layout, row, 6.535e9, 7.246e9)
    pins = allocate_pins(layout, topo)
    return topo, layout, pins


def _assert_node_disjoint(paths):
    """Closed-interval overlap oracle for rectilinear paths: no two nets may
    share even a single point."""
    hsegs, vsegs = [], []
    for i, p in enumerate(paths):
        for (x1, y1), (x2, y2) in zip(p.points, p.points[1:]):
            assert x1 == x2 or y1 == y2, f"{p.net} has a diagonal segment"
            if y1 == y2:
                hsegs.append((i, y1, min(x1, x2), max(x1, x2)))
            else:
                vsegs.append((i, x1, min(y1, y2), max(y1, y2)))
    for i, y, xa, xb in hsegs:
        for j, x, ya, yb in vsegs:
            if i != j and xa <= x <= xb and ya <= y <= yb:
                raise AssertionError(
                    f"{paths[i].net} and {paths[j].net} meet at ({x}, {y})")
    for a in range(len(hsegs)):
        for b in range(a + 1, len(hsegs)):
            i, y1, xa1, xb1 = hsegs[a]
            j, y2, xa2, xb2 = hsegs[b]
            if i != j and y1 == y2 and xa1 <= xb2 and xa2 <= xb1:
                raise AssertionError(
                    f"{paths[i].net} and {paths[j].net} overlap at y={y1}")
    for a in range(len(vsegs)):
        for b in range(a + 1, len(vsegs)):
            i, x1, ya1, yb1 = vsegs[a]
            j, x2, ya2, yb2 = vsegs[b]
            if i != j and x1 == x2 and ya1 <= yb2 and ya2 <= yb1:
                raise AssertionError(
                    f"{paths[i].net} and {paths[j].net} overlap at x={x1}")


def test_pin_budget_is_qubits_plus_two_feed_ends_per_row():
    assert total_pins(generate_grid(1, 1)) == 3
    assert total_pins(generate_grid(8, 8)) == 80
    assert total_pins(generate_grid(22, 22)) == 528
    for m in range(1, 17):
        for n in range(1, 17):
            assert total_pins(generate_grid(m, n)) == m * n + 2 * m


def test_edge_split_balances_the_four_die_edges():
    assert edge_pin_counts(generate_grid(2, 2)) == \
        {"top": 2, "bottom": 2, "left": 2, "right": 2}
    # a 22x22 lattice splits its 528 pins evenly, 132 per edge
    assert set(edge_pin_counts(generate_grid(22, 22)).values()) == {132}
    assert edge_pin_counts(generate_grid(8, 8)) == \
        {"top": 24, "bottom": 24, "left": 16, "right": 16}
    counts = edge_pin_counts(generate_grid(1, 1))
    assert sum(counts.values()) == 3
    assert max(counts.values()) - min(counts.values()) <= 1


def test_edge_split_sums_to_the_pin_budget_for_all_small_grids():
    for m in range(1, 17):
        for n in range(1, 17):
            topo = generate_grid(m, n)
            assert sum(edge_pin_counts(topo).values()) == total_pins(topo)


def test_allocated_pins_sit_on_the_die_ring_with_bond_pads():
    topo, layout, pins = _routed_grid(2, 2)
    assert len(pins) == total_pins(topo)
    assert len({p.pin_id for p in pins}) == len(pins)
    assert sum(1 for c in layout.components if c.kind == "pad") == len(pins)
    assert layout.pin_plan is not None
    die = layout.die
    for p in pins:
        x, y = p.position
        assert die.contains(x, y)
        near_edge = min(x - die.x0, die.x1 - x, y - die.y0, die.y1 - y)
        assert near_edge < 100.0


def test_pin_offsets_ascend_with_the_pin_index_on_each_edge():
    _, _, pins = _routed_grid(3, 4)
    by_edge: dict[str, list] = {}
    for p in pins:
        by_edge.setdefault(p.edge, []).append(p)
    for edge_pins in by_edge.values():
        edge_pins.sort(key=lambda p: int(p.pin_id[1:]))
        offs = [p.offset for p in edge_pins]
        assert all(b > a for a, b in zip(offs, offs[1:]))


def test_map_pins_reproduces_the_stored_assignment():
    rng = random.Random(17)
    dims = [(1, 1), (2, 2), (3, 5), (5, 3)]
    dims += [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(4)]
    for m, n in dims:
        topo, _, pins = _routed_grid(m, n)
        mapping = map_pins(pins, topo)
        for p in pins:
            assert mapping[p.pin_id] == p.target


def test_pin_assignment_is_a_bijection_onto_qubits_and_feed_ends():
    topo, _, pins = _routed_grid(3, 3)
    mapping = map_pins(pins, topo)
    assert len(mapping) == len(pins)
    targets = set(mapping.values())
    assert len(targets) == len(mapping)
    want = set(topo.qubits)
    for row in rows_bottom_up(topo):
        want.add(f"bus_{row[0]}@west")
        want.add(f"bus_{row[0]}@east")
    assert targets == want


def test_pattern_routes_every_net_without_touching_another():
    for m, n in [(1, 1), (2, 2), (3, 4), (5, 2), (4, 4)]:
        topo, layout, _ = _routed_grid(m, n)
        result = route_pattern(layout)
        assert result.nets_routed == total_pins(topo)
        assert result.failures == []
        assert result.total_crossings == 0
        _assert_node_disjoint(result.paths)


def test_pattern_paths_start_at_their_pins_and_reach_their_targets():
    topo, layout, pins = _routed_grid(2, 3)
    result = route_pattern(layout)
    assert sorted(p.points[0] for p in result.paths) == \
        sorted(p.position for p in pins)
    feed_ends = {}
    for p in layout.paths:
        if p.kind == "feedline":
            feed_ends[f"{p.net}@west"] = min(p.points)
            feed_ends[f"{p.net}@east"] = max(p.points)
    ports = {qid: layout.component_by_id(qid).ports["east"].position
             for qid in topo.qubits}
    for path in result.paths:
        if path.kind == "transmission":
            assert path.points[-1] in feed_ends.values()
        else:
            qid = path.net.split("_", 1)[1]
            assert path.points[-1] == ports[qid]


def test_pattern_uses_the_opposite_face_on_flip_chip_stacks():
    _, layout, _ = _routed_grid(2, 2, flip=True)
    result = route_pattern(layout)
    assert {p.layer for p in result.paths} == {LAYER_OPPOSITE}
    _, layout, _ = _routed_grid(2, 2, flip=False)
    result = route_pattern(layout)
    assert {p.layer for p in result.paths} == {LAYER_ROUTING}


def test_pattern_without_a_plan_needs_the_topology():
    topo = generate_grid(2, 2)
    layout = place_qubits(topo, "xmon", pitch=2000.0)
    for row in rows_bottom_up(topo):
        generate_readout_bus(layout, row, 6.535e9, 7.246e9)
    with pytest.raises(SpecInfeasible, match="allocate_pins"):
        route_pattern(layout)
    assert layout.paths == [p for p in layout.paths if p.kind == "feedline"]
    allocate_pins(layout, topo)
    result = route_pattern(layout)
    assert result.nets_routed == total_pins(topo)


def test_overfull_escape_channels_are_reported():
    topo = generate_grid(24, 2)
    layout = place_qubits(topo, "xmon", pitch=2000.0)
    for row in rows_bottom_up(topo):
        generate_readout_bus(layout, row, 6.535e9, 7.246e9)
    with pytest.raises(CorridorExhausted):
        allocate_pins(layout, topo)


def _bused_grid(m: int, n: int):
    topo = generate_grid(m, n)
    layout = place_qubits(topo, "xmon", pitch=2000.0)
    for row in rows_bottom_up(topo):
        generate_readout_bus(layout, row, 6.535e9, 7.246e9)
    return topo, layout


def test_colliding_channel_entries_raise_a_typed_error():
    # entries closer than 1 um cannot host separate escape channels; the
    # check must survive python -O, so it is a raise, not an assert
    topo, layout = _bused_grid(4, 4)
    with pytest.raises(CorridorExhausted, match="entry collision"):
        allocate_pins(layout, topo, lane_pitch=0.5)


def test_pins_out_of_rank_order_raise_a_typed_error(monkeypatch):
    import sqchip.pattern as pattern

    topo, layout = _bused_grid(2, 2)
    monkeypatch.setattr(pattern, "_clear_of_zones",
                        lambda u, zones, forward=False: 0.0)
    with pytest.raises(CorridorExhausted, match="out of order"):
        allocate_pins(layout, topo)
