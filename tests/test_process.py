from __future__ import annotations

import copy
import math
import random

import process_reference
import pytest

from sqchip.components import make_airbridge, make_pad, make_xmon
from sqchip.errors import SpecInfeasible, UnresolvableOverlap
from sqchip.geometry import path_length
from sqchip.layout import ChipLayout, DieBox
from sqchip.process import (
    PROCESS_LIBRARY,
    ProcessRules,
    Violation,
    _bin_size,
    _check_widening,
    apply_rules,
    drc,
    fillet_path,
    get_process,
    insert_air_bridges,
    place_indium_columns,
    select_process,
)
from sqchip.routing import RoutedPath

GENERIC = PROCESS_LIBRARY["generic-10um"]
FINE = PROCESS_LIBRARY["fine-4um"]


def _bare_layout(*paths: RoutedPath, die: float = 1000.0,
                 flip: bool = False) -> ChipLayout:
    lay = ChipLayout("t", DieBox(0.0, 0.0, die, die), flip_chip=flip)
    lay.paths.extend(paths)
    return lay


def test_process_library_ships_the_two_named_rule_sets():
    assert set(PROCESS_LIBRARY) == {"generic-10um", "fine-4um"}
    assert get_process("generic-10um") is GENERIC
    with pytest.raises(SpecInfeasible):
        get_process("imaginary-2um")


def test_fillet_replaces_a_right_angle_with_a_shorter_arc():
    pts = [(0.0, 0.0), (100.0, 0.0), (100.0, 100.0)]
    out = fillet_path(pts, 10.0)
    assert len(out) > 3
    assert out[0] == pts[0] and out[-1] == pts[-1]
    assert path_length(out) < path_length(pts)
    # arc points stay within the corner's bounding square
    for x, y in out:
        assert 0.0 <= x <= 100.0 and 0.0 <= y <= 100.0
    # quarter arc of radius 10 cuts 2r - (pi r / 2) off the corner
    want = path_length(pts) - 20.0 + math.pi * 10.0 / 2.0
    assert abs(path_length(out) - want) < 0.1


def test_fillet_shrinks_the_radius_on_short_legs_and_keeps_straights():
    straight = [(0.0, 0.0), (50.0, 0.0), (100.0, 0.0)]
    assert fillet_path(straight, 10.0) == straight
    # legs of 4 um cannot host a 10 um setback; the radius shrinks to fit
    tight = fillet_path([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0)], 10.0)
    assert len(tight) > 3
    for x, y in tight:
        assert 0.0 <= x <= 4.0 and 0.0 <= y <= 4.0
    # sub-resolution corners stay sharp rather than gaining noise vertices
    tiny = [(0.0, 0.0), (0.8, 0.0), (0.8, 0.8)]
    assert fillet_path(tiny, 10.0) == tiny
    assert fillet_path([(0.0, 0.0), (100.0, 0.0)], 10.0) == \
        [(0.0, 0.0), (100.0, 0.0)]


def test_apply_rules_widens_sub_minimum_traces():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 4.0))
    apply_rules(lay, GENERIC)
    assert lay.paths[0].width == 10.0
    assert not [v for v in drc(lay, GENERIC) if v.rule == "min-feature"]


def test_apply_rules_leaves_compliant_straight_geometry_alone():
    pts = [(100.0, 100.0), (400.0, 100.0)]
    lay = _bare_layout(RoutedPath("a", "control", 2, list(pts), 10.0))
    apply_rules(lay, GENERIC)
    assert lay.paths[0].points == pts
    assert lay.paths[0].width == 10.0


def test_apply_rules_twice_equals_once():
    def fresh():
        return _bare_layout(
            RoutedPath("a", "control", 2,
                       [(100.0, 100.0), (400.0, 100.0), (400.0, 400.0)], 8.0))

    once = apply_rules(fresh(), GENERIC)
    twice = apply_rules(apply_rules(fresh(), GENERIC), GENERIC)
    assert once == twice
    assert once.applied_rules == "generic-10um"


def test_apply_rules_refuses_a_process_switch():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0))
    apply_rules(lay, GENERIC)
    with pytest.raises(SpecInfeasible):
        apply_rules(lay, FINE)


def test_apply_rules_does_not_touch_feedlines():
    pts = [(100.0, 100.0), (400.0, 100.0), (400.0, 400.0)]
    lay = _bare_layout(RoutedPath("bus", "feedline", 1, list(pts), 4.0))
    apply_rules(lay, GENERIC)
    assert lay.paths[0].points == pts
    assert lay.paths[0].width == 4.0


def test_apply_rules_resizes_bond_pads_and_their_ports():
    lay = _bare_layout()
    lay.add_component(make_pad("P0", (500.0, 60.0), 80.0, edge="bottom"))
    apply_rules(lay, GENERIC)
    pad = lay.component_by_id("P0")
    assert pad.params["size"] == 120.0
    x0, y0, x1, y1 = pad.bounding_box()
    assert (x1 - x0, y1 - y0) == (120.0, 120.0)
    assert pad.ports["inner"].position == (500.0, 120.0)
    assert not [v for v in drc(lay, GENERIC) if v.rule == "pad-size"]


def test_widening_into_a_neighbor_is_refused():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 4.0),
        RoutedPath("b", "control", 2, [(100.0, 112.0), (400.0, 112.0)], 4.0))
    with pytest.raises(UnresolvableOverlap):
        apply_rules(lay, GENERIC)


def test_one_bridge_per_perpendicular_crossing():
    lay = _bare_layout(
        RoutedPath("v", "control", 2, [(500.0, 100.0), (500.0, 900.0)], 10.0),
        RoutedPath("h", "control", 2, [(100.0, 500.0), (900.0, 500.0)], 10.0))
    placed = insert_air_bridges(lay, GENERIC)
    assert len(placed) == 1
    assert placed[0].origin == (500.0, 500.0)
    # deck lies along the later net, which passes over
    x0, y0, x1, y1 = placed[0].bounding_box()
    assert (x1 - x0, y1 - y0) == (GENERIC.bridge_span, GENERIC.bridge_width)
    # re-running adds nothing, the crossing is covered
    assert insert_air_bridges(lay, GENERIC) == []


def test_no_bridges_without_crossings():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (900.0, 100.0)], 10.0),
        RoutedPath("b", "control", 2, [(100.0, 200.0), (900.0, 200.0)], 10.0),
        # same-net and cross-layer meetings do not count
        RoutedPath("a", "control", 2, [(500.0, 50.0), (500.0, 150.0)], 10.0),
        RoutedPath("c", "control", 3, [(700.0, 50.0), (700.0, 250.0)], 10.0))
    assert insert_air_bridges(lay, GENERIC) == []


def test_indium_lattice_is_centered_on_an_empty_die():
    rules = ProcessRules("t", 10.0, 10.0, 10.0, 40.0, 10.0, 300.0, 15.0, 30.0)
    lay = _bare_layout(flip=True)
    placed = place_indium_columns(lay, rules)
    assert len(placed) == 9
    xs = sorted({c.origin[0] for c in placed})
    ys = sorted({c.origin[1] for c in placed})
    assert xs == [200.0, 500.0, 800.0]
    assert ys == [200.0, 500.0, 800.0]


def test_indium_columns_skip_the_keepout_around_geometry():
    rules = ProcessRules("t", 10.0, 10.0, 10.0, 40.0, 10.0, 300.0, 15.0, 30.0)
    lay = _bare_layout(flip=True)
    lay.add_component(make_xmon("q0", (500.0, 500.0)))
    placed = place_indium_columns(lay, rules)
    assert len(placed) == 8
    clear = rules.indium_clear + rules.indium_size / 2.0
    qx0, qy0, qx1, qy1 = lay.component_by_id("q0").bounding_box()
    for col in placed:
        x, y = col.origin
        assert not (qx0 - clear <= x <= qx1 + clear
                    and qy0 - clear <= y <= qy1 + clear)


def test_indium_columns_require_a_flip_chip_stack():
    with pytest.raises(SpecInfeasible):
        place_indium_columns(_bare_layout(), GENERIC)


def test_drc_reports_measured_width_against_the_limit():
    lay = _bare_layout(
        RoutedPath("thin", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 2.0))
    report = drc(lay, GENERIC)
    assert [v.rule for v in report] == ["min-feature"]
    assert "2.0" in report[0].message and "10.0" in report[0].message


def test_drc_flags_close_parallel_runs_but_not_endpoint_touches():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0),
        RoutedPath("b", "control", 2, [(100.0, 111.0), (400.0, 111.0)], 10.0))
    assert [v.rule for v in drc(lay, GENERIC)] == ["spacing"]
    touch = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0),
        RoutedPath("b", "control", 2, [(400.0, 100.0), (400.0, 400.0)], 10.0))
    assert drc(touch, GENERIC) == []


def test_drc_wants_a_bridge_on_every_crossing():
    lay = _bare_layout(
        RoutedPath("v", "control", 2, [(500.0, 100.0), (500.0, 900.0)], 10.0),
        RoutedPath("h", "control", 2, [(100.0, 500.0), (900.0, 500.0)], 10.0))
    assert [v.rule for v in drc(lay, GENERIC)] == ["unbridged-crossing"]
    insert_air_bridges(lay, GENERIC)
    assert drc(lay, GENERIC) == []


def test_drc_flags_geometry_leaving_the_die():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (1200.0, 100.0)], 10.0))
    assert [v.rule for v in drc(lay, GENERIC)] == ["die-bounds"]
    comp = _bare_layout()
    comp.add_component(make_xmon("q0", (990.0, 500.0)))
    assert [v.rule for v in drc(comp, GENERIC)] == ["die-bounds"]


def test_drc_flags_overlapping_components_on_one_layer():
    lay = _bare_layout(die=3000.0)
    lay.add_component(make_xmon("q0", (1000.0, 1000.0)))
    lay.add_component(make_xmon("q1", (1200.0, 1000.0)), check_overlap=False)
    assert [v.rule for v in drc(lay, GENERIC)] == ["overlap"]


def test_select_process_scores_candidates_by_weighted_violations():
    alpha = ProcessRules("alpha", 8.0, 4.0, 4.0, 40.0, 10.0, 500.0, 15.0,
                         30.0, pad_size=50.0)
    beta = ProcessRules("beta", 4.0, 4.0, 4.0, 40.0, 10.0, 500.0, 15.0,
                        30.0, pad_size=110.0)
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 6.0))
    lay.add_component(make_pad("P0", (500.0, 500.0), 100.0, edge="bottom"))
    # one min-feature hit under alpha, one pad-size hit under beta: name tie-break
    assert select_process(lay, [alpha, beta]).name == "alpha"
    weights = {"min-feature": 5.0}
    assert select_process(lay, [alpha, beta], weights).name == "beta"
    # positive rescaling never changes the argmin
    scaled = {k: 10.0 * v for k, v in weights.items()}
    assert select_process(lay, [alpha, beta], scaled).name == "beta"


def test_select_process_defaults_to_the_library_and_breaks_ties_by_name():
    clean = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0))
    assert select_process(clean).name == "fine-4um"
    with pytest.raises(SpecInfeasible):
        select_process(clean, [])


def test_apply_rules_invalidates_an_imported_stream_cache():
    from sqchip.gdsio import layout_from_gds, read_gds, write_gds, write_library

    original = write_gds(_bare_layout(
        RoutedPath("a", "control", 2,
                   [(100.0, 100.0), (400.0, 100.0), (400.0, 400.0)], 10.0)))
    imported = layout_from_gds(original)
    assert write_gds(imported) == original      # untouched import is verbatim
    apply_rules(imported, get_process("generic-10um"))
    reshaped = write_gds(imported)
    assert reshaped != original                 # fillet reached the stream
    assert write_library(read_gds(reshaped)) == reshaped


# ---- index-backed scans against the all-pairs reference --------------------

def _violations(report):
    return [(v.rule, v.message, v.where, v.subjects) for v in report]


def _random_layout(rng: random.Random, flip: bool = False) -> ChipLayout:
    """Same-layer clutter: near-spacing lanes, filleted walks, endpoint
    touches, zero-length segments, and vertices on index bin edges."""
    lay = _bare_layout(die=2400.0, flip=flip)
    paths = lay.paths
    for n in range(rng.randint(3, 6)):
        w1, w2 = rng.choice((10.0, 6.0)), rng.choice((10.0, 6.0))
        need = GENERIC.min_spacing + (w1 + w2) / 2.0
        at = 160.0 * rng.randint(1, 12)
        lo, hi = sorted(160.0 * rng.randint(0, 14) + rng.choice((0.0, 40.0))
                        for _ in range(2))
        gap = need + rng.choice((-1e-6, 0.0, 1e-6))
        if rng.random() < 0.5:
            a = [(lo, at), (hi + 1.0, at)]
            b = [(lo + 20.0, at + gap), (hi, at + gap)]
        else:
            a = [(at, lo), (at, hi + 1.0)]
            b = [(at + gap, lo + 20.0), (at + gap, hi)]
        paths.append(RoutedPath(f"lane{n}", "control", 2, a, w1))
        paths.append(RoutedPath(f"lane{n}b", "control", 2, b, w2))
    for n in range(rng.randint(3, 7)):
        x, y = 40.0 * rng.randint(2, 55), 40.0 * rng.randint(2, 55)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                x = 40.0 * rng.randint(2, 55)
            else:
                y = 40.0 * rng.randint(2, 55)
            pts.append((x, y))
        if rng.random() < 0.3:
            pts.insert(1, pts[0])                      # zero-length segment
        if rng.random() < 0.5:
            pts = fillet_path(pts, GENERIC.fillet_radius)
        if rng.random() < 0.3 and paths:
            pts = [paths[rng.randrange(len(paths))].points[-1]] + pts
        paths.append(RoutedPath(f"w{rng.randrange(4)}", "control",
                                rng.choice((2, 2, 3)), pts,
                                rng.choice((10.0, 6.0))))
    for n in range(rng.randint(0, 3)):
        lay.add_component(make_xmon(
            f"q{n}", (100.0 * rng.randint(3, 21), 100.0 * rng.randint(3, 21))),
            check_overlap=False)
    for n in range(rng.randint(0, 2)):
        lay.add_component(make_pad(
            f"P{n}", (100.0 * rng.randint(2, 22), 100.0 * rng.randint(2, 22)),
            rng.choice((80.0, 120.0))), check_overlap=False)
    if rng.random() < 0.3:
        lay.add_component(make_airbridge(
            "ab_pre", (40.0 * rng.randint(2, 55), 40.0 * rng.randint(2, 55)),
            GENERIC.bridge_span, GENERIC.bridge_width), check_overlap=False)
    return lay


def _assert_scans_match_reference(lay: ChipLayout) -> None:
    assert _violations(drc(lay, GENERIC)) == \
        _violations(process_reference.drc(lay, GENERIC))
    fast, slow = copy.deepcopy(lay), copy.deepcopy(lay)
    got = insert_air_bridges(fast, GENERIC)
    want = process_reference.insert_air_bridges(slow, GENERIC)
    assert [(c.comp_id, c.origin, c.params) for c in got] == \
        [(c.comp_id, c.origin, c.params) for c in want]
    assert _violations(drc(fast, GENERIC)) == \
        _violations(process_reference.drc(slow, GENERIC))
    if lay.flip_chip:
        got = place_indium_columns(fast, GENERIC)
        want = process_reference.place_indium_columns(slow, GENERIC)
        assert [(c.comp_id, c.origin) for c in got] == \
            [(c.comp_id, c.origin) for c in want]


def _widening_outcome(check, lay, widened):
    try:
        check(lay, widened, GENERIC)
    except UnresolvableOverlap as exc:
        return str(exc)
    return None


def test_indexed_scans_match_the_all_pairs_reference_on_random_clutter():
    rng = random.Random(2025)
    on_edge = spacing = 0
    for trial in range(40):
        lay = _random_layout(rng, flip=trial % 4 == 0)
        cell = _bin_size(GENERIC, lay.paths)
        on_edge += any(x % cell == 0.0 or y % cell == 0.0
                       for p in lay.paths for x, y in p.points)
        spacing += any(v.rule == "spacing" for v in drc(lay, GENERIC))
        _assert_scans_match_reference(lay)
        widened = [p for p in lay.paths if rng.random() < 0.3]
        assert _widening_outcome(_check_widening, lay, widened) == \
            _widening_outcome(process_reference.check_widening, lay, widened)
    # the sample really reaches bin edges and the spacing break
    assert on_edge > 20 and spacing > 20


def test_indexed_scans_match_the_all_pairs_reference_on_maze_routes():
    from test_acceptance import _maze_instance

    for seed in range(9100, 9115):
        lay = _maze_instance(seed)
        apply_rules(lay, GENERIC)      # fillets the routes first
        _assert_scans_match_reference(lay)
