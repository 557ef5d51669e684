from __future__ import annotations

import random

import pytest

from sqchip.components import make_xmon
from sqchip.errors import (
    InsufficientFrequencySet,
    InvalidSubstrate,
    NonPositiveInput,
    PitchTooSmall,
    PlacementOverlap,
    UnknownSelector,
)
from sqchip.layout import (
    ChipLayout,
    DieBox,
    ResonatorSpec,
    allocate_frequencies,
    generate_readout_bus,
    place_qubits,
    readout_ladder,
    resonator_length,
)
from sqchip.topology import Topology, generate_grid

SPEED_OF_LIGHT = 299792458.0

# quarter-wave length at 6.5 GHz on eps_r = 11.45, computed by hand from
# c / sqrt((eps_r + 1) / 2) / (4 f) in um
QW_6P5GHZ_UM = 4621.443810579361


def test_die_box_dimensions_and_containment():
    die = DieBox(0.0, 0.0, 100.0, 50.0)
    assert die.width == 100.0
    assert die.height == 50.0
    assert die.contains(100.0, 50.0)
    assert not die.contains(101.0, 25.0)
    assert die.contains(101.0, 25.0, tol=2.0)


def test_resonator_length_quarter_wave_matches_hand_value():
    got = resonator_length(6.5e9, 11.45)
    assert abs(got - QW_6P5GHZ_UM) / QW_6P5GHZ_UM < 1e-12
    oracle = SPEED_OF_LIGHT / ((11.45 + 1.0) / 2.0) ** 0.5 / (4.0 * 6.5e9) * 1e6
    assert abs(got - oracle) / oracle < 1e-12


def test_resonator_length_mode_and_frequency_scalings():
    q = resonator_length(6.5e9, 11.45, mode="quarter-wave")
    h = resonator_length(6.5e9, 11.45, mode="half-wave")
    assert abs(h - 2.0 * q) / q < 1e-12
    assert abs(resonator_length(13.0e9, 11.45) - q / 2.0) / q < 1e-12


def test_resonator_length_rejects_bad_substrate_and_frequency():
    with pytest.raises(InvalidSubstrate):
        resonator_length(6.5e9, eps_r=35.0)
    with pytest.raises(InvalidSubstrate):
        resonator_length(6.5e9, eps_r=1.0)
    with pytest.raises(NonPositiveInput):
        resonator_length(0.0)
    with pytest.raises(UnknownSelector, match="half-wave"):
        resonator_length(6.5e9, mode="full-wave")
    with pytest.raises(InvalidSubstrate):
        ResonatorSpec("quarter-wave", 6.5e9, 4621.0, 10.0, 6.0, 31.0, 200.0)


def test_readout_ladder_is_inclusive_and_evenly_spaced():
    got = readout_ladder(8, 6.535e9, 7.246e9)
    assert len(got) == 8
    assert got[0] == 6.535e9
    assert got[-1] == pytest.approx(7.246e9, rel=1e-15)
    steps = {round(b - a, 3) for a, b in zip(got, got[1:])}
    assert len(steps) == 1
    assert readout_ladder(1, 6.5e9, 7.0e9) == [6.5e9]
    with pytest.raises(NonPositiveInput):
        readout_ladder(0, 6.5e9, 7.0e9)


def test_single_qubit_die_is_footprint_plus_margins():
    layout = place_qubits(generate_grid(1, 1), "xmon", pitch=2000.0, border=500.0)
    # 2 * (border + half extent) on each side of a single site
    assert layout.die.width == 2.0 * (500.0 + 250.0)
    assert layout.die.height == 1500.0
    q = layout.component_by_id("q0")
    assert q.origin == (750.0, 750.0)


def test_grid_placement_positions_follow_the_pitch():
    layout = place_qubits(generate_grid(2, 3), "xmon", pitch=2000.0, border=500.0)
    assert layout.die.width == 1500.0 + 2.0 * 2000.0
    assert layout.die.height == 1500.0 + 1.0 * 2000.0
    assert layout.component_by_id("q0").origin == (750.0, 750.0)
    assert layout.component_by_id("q5").origin == (750.0 + 2 * 2000.0, 2750.0)
    assert layout.grid_info["dims"] == (2, 3)


def test_placement_rejects_pitch_below_the_footprint():
    with pytest.raises(PitchTooSmall):
        place_qubits(generate_grid(2, 2), "xmon", pitch=500.0)
    with pytest.raises(PitchTooSmall):
        place_qubits(generate_grid(2, 2), "transmon", pitch=440.0)
    # transmon is narrower, so this pitch is fine
    place_qubits(generate_grid(2, 2), "transmon", pitch=441.0)


def test_placement_rejects_unknown_qubit_style_naming_the_styles():
    with pytest.raises(UnknownSelector, match="'xmon', 'transmon'"):
        place_qubits(generate_grid(1, 1), "foo")


def test_layout_rejects_overlapping_components_on_one_layer():
    layout = ChipLayout("t", DieBox(0.0, 0.0, 2000.0, 2000.0))
    layout.add_component(make_xmon("a", (500.0, 500.0)))
    with pytest.raises(PlacementOverlap):
        layout.add_component(make_xmon("b", (700.0, 500.0)))
    with pytest.raises(KeyError):
        layout.component_by_id("b")


def test_die_expansion_only_grows():
    layout = ChipLayout("t", DieBox(0.0, 0.0, 5000.0, 5000.0))
    layout.add_component(make_xmon("a", (500.0, 500.0)))
    before = (layout.die.x0, layout.die.y0, layout.die.x1, layout.die.y1)
    layout.expand_die_to_content(100.0)
    assert (layout.die.x0, layout.die.y0,
            layout.die.x1, layout.die.y1) == before


def test_readout_bus_attaches_ascending_frequencies_left_to_right():
    topo = generate_grid(1, 4)
    layout = place_qubits(topo, "xmon", pitch=2000.0, border=500.0)
    specs, resonators = generate_readout_bus(
        layout, ["q0", "q1", "q2", "q3"], 6.535e9, 7.246e9)
    assert [s.target_frequency for s in specs] == \
        readout_ladder(4, 6.535e9, 7.246e9)
    # higher frequency means shorter quarter-wave resonator
    lengths = [s.length for s in specs]
    assert lengths == sorted(lengths, reverse=True)
    assert all(a > b for a, b in zip(lengths, lengths[1:]))
    # capacitive attach: gap of g above the north arm tip
    q0 = layout.component_by_id("q0")
    north = q0.ports["north"].position
    assert resonators[0].ports["qubit"].position == \
        (north[0], north[1] + 6.0 + 5.0)


def test_readout_bus_adds_one_feedline_above_the_meanders():
    topo = generate_grid(1, 3)
    layout = place_qubits(topo, "xmon", pitch=2000.0, border=500.0)
    generate_readout_bus(layout, ["q0", "q1", "q2"], 6.535e9, 7.246e9)
    feed = [p for p in layout.paths if p.kind == "feedline"]
    assert len(feed) == 1
    assert feed[0].net == "bus_q0"
    ys = {y for _, y in feed[0].points}
    assert len(ys) == 1
    top = max(b for r in layout.components if r.kind == "resonator"
              for b in [r.bounding_box()[3]])
    assert ys.pop() > top
    # the die grew to keep the feedline inside
    assert layout.die.contains(*feed[0].points[0])
    assert layout.die.contains(*feed[0].points[1])


def test_readout_bus_rejects_rows_without_meander_room():
    topo = generate_grid(1, 2)
    layout = place_qubits(topo, "xmon", pitch=2000.0, border=500.0)
    with pytest.raises(PitchTooSmall):
        generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9,
                             cell_clear=1700.0)
    with pytest.raises(ValueError):
        generate_readout_bus(layout, ["q1", "q0"], 6.535e9, 7.246e9)


def test_frequency_allocation_is_a_checkerboard_on_grids():
    topo = generate_grid(3, 3)
    out = allocate_frequencies(topo, [4.3e9, 4.8e9])
    for qid, (c, r) in topo.qubits.items():
        assert out[qid] == [4.3e9, 4.8e9][(c + r) % 2]
    for a, b in topo.edges:
        assert out[a] != out[b]


def test_frequency_allocation_separates_neighbors_on_random_grids():
    rng = random.Random(23)
    for _ in range(40):
        topo = generate_grid(rng.randint(1, 16), rng.randint(1, 16))
        out = allocate_frequencies(topo, [4.3e9, 4.8e9])
        assert all(out[a] != out[b] for a, b in topo.edges)


def test_frequency_allocation_fails_on_an_odd_cycle_with_two_tones():
    triangle = Topology(qubits={"a": (0, 0), "b": (1, 0), "c": (0, 1)},
                        edges={("a", "b"), ("b", "c"), ("a", "c")})
    with pytest.raises(InsufficientFrequencySet):
        allocate_frequencies(triangle, [4.3e9, 4.8e9])
    # a third tone resolves it
    out = allocate_frequencies(triangle, [4.3e9, 4.8e9, 5.3e9])
    assert len(set(out.values())) == 3


def test_frequency_allocation_rejects_degenerate_palettes():
    topo = generate_grid(2, 2)
    with pytest.raises(InsufficientFrequencySet):
        allocate_frequencies(topo, [])
    with pytest.raises(InsufficientFrequencySet):
        allocate_frequencies(topo, [4.3e9, 4.3e9])
