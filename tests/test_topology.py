from __future__ import annotations

from dataclasses import fields

import pytest

from sqchip.errors import InvalidDimension
from sqchip.topology import Topology, generate_grid, rows_bottom_up


def test_grid_edge_count_law_holds_exhaustively_up_to_32():
    for m in range(1, 33):
        for n in range(1, 33):
            topo = generate_grid(m, n)
            assert len(topo.qubits) == m * n
            assert len(topo.edges) == m * (n - 1) + n * (m - 1)


def test_single_site_grid_has_one_qubit_and_no_edges():
    topo = generate_grid(1, 1)
    assert list(topo.qubits) == ["q0"]
    assert topo.edges == set()
    assert topo.grid_dims == (1, 1)


def test_grid_ids_run_row_major_from_bottom_left():
    topo = generate_grid(2, 3)
    assert topo.qubits["q0"] == (0, 0)
    assert topo.qubits["q2"] == (2, 0)
    assert topo.qubits["q3"] == (0, 1)
    assert topo.qubits["q5"] == (2, 1)


def test_grid_neighbors_are_lattice_adjacent_only():
    topo = generate_grid(3, 3)
    # center site q4 touches all four compass neighbors, corner q0 two
    assert {p for p in topo.edges if "q4" in p} == {
        ("q1", "q4"), ("q3", "q4"), ("q4", "q5"), ("q4", "q7")}
    assert {p for p in topo.edges if "q0" in p} == {("q0", "q1"), ("q0", "q3")}


def test_grid_rejects_non_positive_or_non_integer_dims():
    with pytest.raises(InvalidDimension):
        generate_grid(0, 4)
    with pytest.raises(InvalidDimension):
        generate_grid(3, -1)
    with pytest.raises(InvalidDimension):
        generate_grid(2.0, 2)


def test_rows_bottom_up_orders_rows_then_columns():
    topo = generate_grid(2, 3)
    assert rows_bottom_up(topo) == [["q0", "q1", "q2"], ["q3", "q4", "q5"]]


def test_a_topology_is_its_two_dimensions():
    assert [f.name for f in fields(Topology)] == ["rows", "cols"]
    topo = Topology(2, 3)
    assert topo == generate_grid(2, 3) and topo.grid_dims == (2, 3)
    assert topo.qubit(2, 1) == "q5"
    assert list(topo.qubits) == [f"q{i}" for i in range(6)]
    assert isinstance(topo.edges, frozenset)


@pytest.mark.parametrize("rows, cols", [(0, 3), (2.0, 2), (True, 1)])
def test_topology_refuses_anything_but_two_positive_ints(rows, cols):
    with pytest.raises(InvalidDimension):
        Topology(rows, cols)
