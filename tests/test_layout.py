from __future__ import annotations

import random

import layout_reference
import process_reference
import pytest

from sqchip.components import PlacedComponent, make_xmon
from sqchip.errors import (
    InsufficientFrequencySet,
    InvalidSubstrate,
    NonPositiveInput,
    PitchTooSmall,
    PlacementOverlap,
    SpecInfeasible,
    UnknownSelector,
)
from sqchip.geometry import BinIndex, boxes_overlap, rect
from sqchip.layout import (
    ChipLayout,
    DieBox,
    allocate_frequencies,
    components_overlap,
    generate_readout_bus,
    place_qubits,
    readout_ladder,
    resonator_length,
)
from sqchip.pipeline import run_pipeline
from sqchip.process import drc, get_process
from sqchip.topology import generate_grid

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


def _random_component(rng: random.Random, comp_id: str) -> PlacedComponent:
    """One to three rectangles on layers 1-3, corners on a 50 um grid so
    boxes often touch; some straddle or span the index's bins, some sit at
    negative coordinates."""
    footprint: dict[int, list] = {}
    cx, cy = rng.randint(-10, 70), rng.randint(-10, 70)
    for _ in range(rng.randint(1, 3)):
        x = 50.0 * (cx + rng.randint(-2, 2))
        y = 50.0 * (cy + rng.randint(-2, 2))
        w = 50.0 * rng.choice((1, 2, 2, 4, 25))
        h = 50.0 * rng.choice((1, 2, 2, 4, 25))
        footprint.setdefault(rng.randint(1, 3), []).append(
            rect(x, y, x + w, y + h))
    return PlacedComponent(comp_id, "test", (0.0, 0.0), footprint)


def _touch(a, b) -> bool:
    """Closed boxes a and b meet, but share no area."""
    meet = a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]
    return meet and not boxes_overlap(a, b)


def _overlaps(report):
    return [(v.message, v.where, v.subjects) for v in report
            if v.rule == "overlap"]


def _outcome(add):
    try:
        add()
    except PlacementOverlap as exc:
        return str(exc)
    return None


def test_indexed_placement_check_matches_the_all_pairs_reference():
    rng = random.Random(15)
    refused = touching = resized = 0
    for _ in range(30):
        layout = ChipLayout("t", DieBox(0.0, 0.0, 2500.0, 2500.0))
        held: list[PlacedComponent] = []
        for _ in range(60):
            # ids repeat, so component_by_id must return the first holder
            comp = _random_component(rng, f"c{rng.randrange(40)}")
            checked = rng.random() < 0.8
            want = _outcome(lambda: layout_reference.check_overlap(held, comp)
                            ) if checked else None
            got = _outcome(lambda: layout.add_component(comp, checked))
            assert got == want
            refused += want is not None
            if got is None:
                touching += any(_touch(comp.bounding_box(), c.bounding_box())
                                for c in held)
                held.append(comp)
            if held and rng.random() < 0.2:
                # move, grow, shrink or add a layer of a placed component
                victim = rng.choice(held)
                other = _random_component(rng, "x")
                layer = rng.choice(sorted(other.footprint))
                victim.set_footprint(layer, other.footprint[layer])
                resized += 1
        assert list(layout.components) == held
        # DRC's overlap rule agrees too, after the resizes
        rules = get_process("generic-10um")
        assert _overlaps(drc(layout, rules)) == \
            _overlaps(process_reference.drc(layout, rules))
        for comp in held:
            assert layout.component_by_id(comp.comp_id) is next(
                c for c in held if c.comp_id == comp.comp_id)
    # the sample really refuses, touches and resizes
    assert refused > 300 and touching > 50 and resized > 150


def _wide_rect(rng: random.Random) -> list:
    """A box over BinIndex.WIDE bins of the component index: a long strip
    or a big square, corners on the 50 um grid."""
    x, y = 50.0 * rng.randint(-20, 60), 50.0 * rng.randint(-20, 60)
    w, h = rng.choice(((75.0e3, 100.0), (100.0, 75.0e3), (1.0e4, 1.0e4)))
    return rect(x, y, x + w, y + h)


def test_drc_overlap_rule_matches_the_all_pairs_reference_on_mixed_layouts():
    # exempt and checked kinds, touching edges, multi-layer footprints,
    # boxes over BinIndex.WIDE bins and set_footprint edits, all placed
    # unchecked so that many boxes overlap
    rng = random.Random(35)
    rules = get_process("generic-10um")
    kinds = ("test", "xmon", "airbridge", "imported")
    reported = exempt = touching = wide = edited = 0
    for _ in range(25):
        layout = ChipLayout("t", DieBox(0.0, 0.0, 2500.0, 2500.0))
        for n in range(rng.randint(2, 70)):
            comp = _random_component(rng, f"c{n}")
            comp.kind = rng.choice(kinds)
            if rng.random() < 0.1:
                comp.footprint[rng.randint(1, 3)] = [_wide_rect(rng)]
            layout.add_component(comp, check_overlap=False)
            if rng.random() < 0.2:
                victim = rng.choice(layout.components)
                layer = rng.randint(1, 3)
                victim.set_footprint(layer, [_wide_rect(rng)]
                                     if rng.random() < 0.2 else
                                     _random_component(rng, "x").footprint
                                     .popitem()[1])
                edited += 1
        got = _overlaps(drc(layout, rules))
        assert got == _overlaps(process_reference.drc(layout, rules))
        reported += len(got)
        wide += sum(map(len, layout._boxes._wide.values()))
        comps = list(layout.components)
        for i, a in enumerate(comps):
            box = a.bounding_box()
            for b in comps[i + 1:]:
                if not a.layers() & b.layers():
                    continue
                exempt += components_overlap(a, b) and {a.kind, b.kind} & {
                    "airbridge", "imported"} != set()
                touching += _touch(box, b.bounding_box())
    # the sample really reports, exempts, touches, spans and edits
    assert reported > 300 and exempt > 1000 and touching > 50
    assert wide > 100 and edited > 100


def test_layout_components_are_read_only():
    layout = ChipLayout("t", DieBox(0.0, 0.0, 2000.0, 2000.0))
    layout.add_component(make_xmon("a", (500.0, 500.0)))
    with pytest.raises(AttributeError):
        layout.components.append(make_xmon("b", (1500.0, 500.0)))
    with pytest.raises(TypeError):
        layout.components[0] = make_xmon("b", (1500.0, 500.0))
    assert [c.comp_id for c in layout.components] == ["a"]


def test_placement_box_tests_stay_within_the_component_count(monkeypatch):
    """Host-independent guard against a quadratic placement scan: the
    all-pairs check made 130,816 box tests for the 800 components of a
    16x16 pattern chip."""
    from sqchip.pipeline import run_pipeline

    calls = 0

    def counted(a, b):
        nonlocal calls
        calls += 1
        return boxes_overlap(a, b)
    # placement and the DRC overlap rule both call components_overlap
    monkeypatch.setattr("sqchip.layout.boxes_overlap", counted)
    result = run_pipeline(rows=16, cols=16)
    assert result.drc_report == []
    assert calls <= len(result.document.layout.components)


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
    resonators = generate_readout_bus(
        layout, ["q0", "q1", "q2", "q3"], 6.535e9, 7.246e9)
    assert [r.params["target_frequency"] for r in resonators] == \
        readout_ladder(4, 6.535e9, 7.246e9)
    # higher frequency means shorter quarter-wave resonator
    lengths = [r.params["length"] for r in resonators]
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
    # 900 um of pitch leaves 300 um of meander cell, under two couplers
    layout = place_qubits(topo, "xmon", pitch=900.0, border=500.0)
    with pytest.raises(PitchTooSmall):
        generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9)


def test_readout_bus_refuses_an_unordered_row_with_a_typed_error():
    layout = place_qubits(generate_grid(1, 2), "xmon", pitch=2000.0)
    with pytest.raises(SpecInfeasible, match="ordered left to right"):
        generate_readout_bus(layout, ["q1", "q0"], 6.535e9, 7.246e9)


@pytest.mark.parametrize("knobs", [{"g": 0.0}, {"g": -6.0},
                                   {"coupling_length": 0.0},
                                   {"coupling_length": -50.0}])
def test_readout_bus_refuses_a_non_positive_gap_or_coupling_length(knobs):
    layout = place_qubits(generate_grid(1, 2), "xmon", pitch=2000.0)
    name, bad = next(iter(knobs.items()))
    with pytest.raises(NonPositiveInput, match=f"{name}={bad}"):
        generate_readout_bus(layout, ["q0", "q1"], 6.535e9, 7.246e9, **knobs)
    assert not layout.paths


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


def test_frequency_allocation_rejects_degenerate_palettes():
    topo = generate_grid(2, 2)
    with pytest.raises(InsufficientFrequencySet):
        allocate_frequencies(topo, [])
    with pytest.raises(InsufficientFrequencySet):
        allocate_frequencies(topo, [4.3e9, 4.3e9])


def test_a_400_mm_square_costs_the_component_index_one_entry():
    # filed bin by bin it would take 401 x 401 entries of 1000 um
    layout = ChipLayout("big", DieBox(0.0, 0.0, 1000.0, 1000.0))
    square = rect(-2.0e5, -2.0e5, 2.0e5, 2.0e5)
    layout.add_component(PlacedComponent("plane", "pad", (0.0, 0.0),
                                         {1: [square]}))
    filed = sum(len(f) for f in layout._boxes._bins.values())
    assert filed <= 1
    assert layout.near(1, (5.0e3, 5.0e3, 5.0e3, 5.0e3)) == {0}
    assert layout.near(1, (2.0e5, -2.0e5, 3.0e5, -2.0e5)) == {0}   # corner
    assert layout.near(1, (2.1e5, 0.0, 3.0e5, 1.0)) == set()
    assert layout.near(2, (0.0, 0.0, 1.0, 1.0)) == set()
    # a small pad inside it overlaps it; one beside it does not
    with pytest.raises(PlacementOverlap, match="inner overlaps plane"):
        layout.add_component(PlacedComponent(
            "inner", "pad", (0.0, 0.0), {1: [rect(0.0, 0.0, 50.0, 50.0)]}))
    layout.add_component(PlacedComponent(
        "beside", "pad", (0.0, 0.0), {1: [rect(2.0e5, 0.0, 2.1e5, 50.0)]}))
    # DRC's overlap rule finds nothing to report, until the refused pad is
    # placed unchecked
    rules = get_process("generic-10um")
    assert _overlaps(drc(layout, rules)) == []
    layout.add_component(PlacedComponent(
        "inner", "pad", (0.0, 0.0), {1: [rect(0.0, 0.0, 50.0, 50.0)]}), False)
    assert _overlaps(drc(layout, rules)) == \
        [("plane overlaps inner", (0.0, 0.0), ("plane", "inner"))]


def test_drc_on_a_pattern_8x8_layout_queries_no_component_index(monkeypatch):
    # the overlap rule takes its candidates from one sweep; pattern 8x8 has
    # no same-layer crossing, so deck cover asks nothing either
    layout = run_pipeline(rows=8, cols=8).document.layout
    queries = []
    real = BinIndex.query

    def counted(self, layer, box):
        queries.append(layer)
        return real(self, layer, box)

    monkeypatch.setattr(BinIndex, "query", counted)
    assert drc(layout, get_process("generic-10um")) == []
    assert queries == []
    layout.overlaps(layout.components[0])       # the counter is live
    assert queries
