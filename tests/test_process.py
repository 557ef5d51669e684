from __future__ import annotations

import bisect
import copy
import dataclasses
import heapq
import math
import random
import struct
from types import SimpleNamespace

import gds_reference
import process_reference
import pytest

from sqchip import geometry, process
from sqchip.components import (
    LAYER_AIRBRIDGE,
    make_airbridge,
    make_indium_column,
    make_pad,
    make_xmon,
)
from sqchip.errors import (
    NonPositiveInput,
    SpecInfeasible,
    UnresolvableOverlap,
)
from sqchip.geometry import path_length
from sqchip.layout import ChipLayout, DieBox
from sqchip.pipeline import run_pipeline
from sqchip.process import (
    PROCESS_LIBRARY,
    ProcessRules,
    Violation,
    _check_widening,
    _near_segment_pairs,
    apply_rules,
    drc,
    fillet_path,
    get_process,
    insert_air_bridges,
    place_indium_columns,
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


@pytest.mark.parametrize("name, bad", [
    ("min_spacing", -100.0), ("min_spacing", float("nan")),
    ("min_feature", 0.0), ("bridge_span", float("inf")),
    ("pad_size", -1.0), ("fillet_radius", -1.0),
    ("indium_clear", float("nan")),
])
def test_process_rules_refuse_a_non_finite_or_out_of_range_rule(name, bad):
    # DRC compares against every rule: a NaN or negative one checks clean
    with pytest.raises(NonPositiveInput, match=name):
        dataclasses.replace(GENERIC, **{name: bad})
    # no rounding and bumps flush with geometry stay legal
    assert dataclasses.replace(GENERIC, fillet_radius=0.0, indium_clear=0.0)


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


def _bits(points) -> list[bytes]:
    """Each coordinate's IEEE bits, so -0.0 and 0.0 differ."""
    return [struct.pack(">dd", x, y) for x, y in points]


def _random_polyline(rng) -> list[tuple[float, float]]:
    """Axis-aligned and oblique legs, legs short enough to shrink the
    radius, U-turns and straight runs; a zero coordinate is a signed zero
    of either sign."""
    pts = [(0.0, 0.0)]
    step = (100.0, 0.0)
    for _ in range(rng.randint(2, 9)):
        length = rng.choice((1.5, 4.0, 7.5, 40.0, 250.0))
        kind = rng.randrange(6)
        if kind == 0:
            step = (rng.choice((length, -length)), 0.0)
        elif kind == 1:
            step = (0.0, rng.choice((length, -length)))
        elif kind == 2:
            angle = rng.uniform(-math.pi, math.pi)
            step = (length * math.cos(angle), length * math.sin(angle))
        elif kind == 3:
            step = (-step[0], -step[1])                     # U-turn
        x, y = pts[-1]                                      # else straight
        pts.append((x + step[0], y + step[1]))
    return [tuple(rng.choice((0.0, -0.0)) if v == 0.0 else v for v in pt)
            for pt in pts]


def test_fillet_arcs_from_the_memo_are_bit_exact(monkeypatch):
    monkeypatch.setattr(process, "_ARCS", {})
    rng = random.Random(1906)
    arcs = 0
    for _ in range(300):
        pts = _random_polyline(rng)
        dx, dy = rng.choice((0.0, -0.0, 300.0)), rng.choice((0.0, -0.0, -70.0))
        # the same polyline again, moved: its corners hit the memo
        for poly in (pts, [(x + dx, y + dy) for x, y in pts]):
            for radius in (10.0, 25.0):
                want = process_reference.fillet_path(poly, radius)
                assert _bits(fillet_path(poly, radius)) == _bits(want), poly
                arcs += sum(
                    len(process_reference.fillet_corner(a, b, c, radius)) > 1
                    for a, b, c in zip(poly, poly[1:], poly[2:]))
    assert len(process._ARCS) < arcs / 2, (len(process._ARCS), arcs)
    # an arc that starts at a signed zero angle and turns clockwise, so its
    # first offset is (10.0, a1): the memo tells the signs apart, though
    # -0.0 == 0.0 and both hash alike
    for a1 in (0.0, -0.0, 0.0, -0.0):
        want = [(10.0 * math.cos(a1 + -1.0 * i / 4),
                 10.0 * math.sin(a1 + -1.0 * i / 4)) for i in range(5)]
        assert _bits(process._arc_offsets(10.0, a1, -1.0, 4)) == _bits(want)


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


def test_drc_flags_close_parallel_runs_and_endpoint_touches():
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0),
        RoutedPath("b", "control", 2, [(100.0, 111.0), (400.0, 111.0)], 10.0))
    assert [v.rule for v in drc(lay, GENERIC)] == ["spacing"]
    # two nets meeting end to end are in metal contact: a short
    touch = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 10.0),
        RoutedPath("b", "control", 2, [(400.0, 100.0), (400.0, 400.0)], 10.0))
    assert _violations(drc(touch, GENERIC)) == [(
        "spacing", "nets a and b are 0.00 um apart, need 10.0 um",
        (100.0, 100.0), ("a", "b"))]


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


def test_drc_measures_traces_and_pads_against_custom_rules():
    narrow = ProcessRules("narrow", 8.0, 4.0, 4.0, 40.0, 10.0, 500.0, 15.0,
                          30.0, pad_size=50.0)
    big_pads = ProcessRules("big-pads", 4.0, 4.0, 4.0, 40.0, 10.0, 500.0,
                            15.0, 30.0, pad_size=110.0)
    lay = _bare_layout(
        RoutedPath("a", "control", 2, [(100.0, 100.0), (400.0, 100.0)], 6.0))
    lay.add_component(make_pad("P0", (500.0, 500.0), 100.0, edge="bottom"))
    # the 6 um trace is under the 8 um feature, the 100 um pad under 110 um
    assert [v.rule for v in drc(lay, narrow)] == ["min-feature"]
    report = drc(lay, big_pads)
    assert [v.rule for v in report] == ["pad-size"]
    assert "100.0" in report[0].message and "110.0" in report[0].message
    assert report[0].subjects == ("P0", "")
    assert report[0].where == (500.0, 500.0)


def test_apply_rules_invalidates_an_imported_stream_cache():
    from sqchip.gdsio import layout_from_gds, write_gds

    original = write_gds(_bare_layout(
        RoutedPath("a", "control", 2,
                   [(100.0, 100.0), (400.0, 100.0), (400.0, 400.0)], 10.0)))
    imported = layout_from_gds(original)
    assert write_gds(imported) == original      # untouched import is verbatim
    apply_rules(imported, get_process("generic-10um"))
    reshaped = write_gds(imported)
    assert reshaped != original                 # fillet reached the stream
    assert reshaped == gds_reference.write_gds(imported)   # canonically


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


def test_bridge_decks_run_along_the_later_nets_crossing_segment():
    # net w passes (500, 500) twice, vertically and then horizontally, and
    # the diagonal d crosses both passes there: one bridge, along the first
    twice = _bare_layout(
        RoutedPath("d", "control", 2, [(485.0, 485.0), (515.0, 515.0)], 10.0),
        RoutedPath("w", "control", 2, [(500.0, 480.0), (500.0, 520.0),
                                       (525.0, 520.0), (525.0, 500.0),
                                       (480.0, 500.0)], 10.0))
    # net w first only touches h at (500, 500), at the end of a mostly
    # horizontal leg, then doubles back and crosses h vertically there
    touch = _bare_layout(
        RoutedPath("h", "control", 2, [(400.0, 500.0), (600.0, 500.0)], 10.0),
        RoutedPath("w", "control", 2, [(540.0, 520.0), (500.0, 500.0),
                                       (500.0, 450.0), (500.0, 560.0)], 10.0))
    for lay in (twice, touch):
        _assert_scans_match_reference(lay)
        placed = insert_air_bridges(lay, GENERIC)
        assert [(c.origin, c.params["orientation"]) for c in placed] == \
            [((500.0, 500.0), "v")]


def _widening_outcome(check, lay, widened):
    try:
        check(lay, widened, GENERIC)
    except UnresolvableOverlap as exc:
        return str(exc)
    return None


def _old_bin(paths) -> float:
    # the bin of the former BinIndex segment scan, 8x the spacing reach
    # (160 um for 10 um traces); the clutter below is still sized by it
    return 8.0 * (GENERIC.min_spacing + max(p.width for p in paths))


def test_indexed_scans_match_the_all_pairs_reference_on_random_clutter():
    rng = random.Random(2025)
    on_edge = spacing = 0
    for trial in range(40):
        lay = _random_layout(rng, flip=trial % 4 == 0)
        cell = _old_bin(lay.paths)
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


def _scan_clutter(rng: random.Random) -> list[RoutedPath]:
    """Walks with corners at arbitrary float coordinates, so fillet arcs
    straddle bin edges, plus legs longer than a bin, zero-length segments,
    diagonal legs and repeated net names."""
    paths = []
    for n in range(rng.randint(5, 8)):
        x, y = rng.uniform(0.0, 900.0), rng.uniform(0.0, 900.0)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 4)):
            # short legs, or legs longer than the (at most) 160 um bin
            step = rng.choice((rng.uniform(20.0, 80.0),
                               rng.uniform(160.0, 480.0)))
            step *= rng.choice((-1.0, 1.0))
            move = rng.random()
            if move < 0.45:
                x += step
            elif move < 0.9:
                y += step
            else:
                x, y = x + step, y + step
            pts.append((x, y))
        if rng.random() < 0.3:
            at = rng.randrange(len(pts))
            pts.insert(at, pts[at])                    # zero-length segment
        if rng.random() < 0.7:
            pts = fillet_path(pts, GENERIC.fillet_radius)
        paths.append(RoutedPath(f"n{rng.randrange(4)}", "control",
                                rng.choice((2, 2, 3)), pts,
                                rng.choice((10.0, 6.0))))
    return paths


def _scan_ids(scan, paths):
    at = {id(p): n for n, p in enumerate(paths)}
    return [(at[id(a)], at[id(b)], pairs) for a, b, pairs in scan]


def test_near_segment_pairs_equal_the_all_pairs_oracle_in_order():
    rng = random.Random(9)
    seen = dict.fromkeys(("straddling arc", "long", "zero-length",
                          "same-net", "pairs"), 0)
    for _ in range(40):
        paths = _scan_clutter(rng)
        cell = _old_bin(paths)
        for reach in (0.0, None, 1.5 * cell):
            got = _scan_ids(_near_segment_pairs(paths, GENERIC, reach), paths)
            want = _scan_ids(process_reference.near_segment_pairs(
                paths, GENERIC, reach), paths)
            assert got == want
            seen["pairs"] += sum(len(pairs) for _, _, pairs in want)
        for p in paths:
            for (ax, ay), (bx, by) in zip(p.points, p.points[1:]):
                span = max(abs(bx - ax), abs(by - ay))
                seen["zero-length"] += span == 0.0
                seen["long"] += span > cell
                seen["straddling arc"] += 0.0 < span < GENERIC.fillet_radius \
                    and (math.floor(ax / cell) != math.floor(bx / cell)
                         or math.floor(ay / cell) != math.floor(by / cell))
        seen["same-net"] += any(a.net == b.net and a.layer == b.layer
                                for i, a in enumerate(paths)
                                for b in paths[i + 1:])
    # the sample really holds every shape the run index must get right
    assert all(n > 5 for n in seen.values()), seen


def _sweep_clutter(rng: random.Random) -> list[RoutedPath]:
    """Walks on a 10 um lattice around the origin, so coordinates go
    negative, many segments share an x0 (every walk starts in one of three
    columns) and many boxes sit exactly one reach apart (0, 20 and 30 um
    are lattice steps); plus diagonal legs both taller and wider than a
    run, and copies of paths on another net."""
    paths = []
    for n in range(rng.randint(6, 10)):
        x, y = 200.0 * rng.randint(-1, 1), 10.0 * rng.randint(-40, 40)
        pts = [(x, y)]
        for _ in range(rng.randint(1, 4)):
            dx, dy = (10.0 * rng.randint(2, 40) * rng.choice((-1, 1))
                      for _ in range(2))
            move = rng.random()
            if move < 0.4:
                x += dx
            elif move < 0.8:
                y += dy
            else:
                x, y = x + dx, y + dy
            pts.append((x, y))
        if rng.random() < 0.3:
            pts = fillet_path(pts, GENERIC.fillet_radius)
        paths.append(RoutedPath(f"n{n}", "control", rng.choice((2, 2, 3)),
                                pts, 10.0))
    for twin in rng.sample(paths, 2):
        paths.append(RoutedPath(twin.net + "'", "control", twin.layer,
                                list(twin.points), twin.width))
    rng.shuffle(paths)
    return paths


def _gaps(s1, s2):
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = (
        (min(p[0], q[0]), min(p[1], q[1]), max(p[0], q[0]), max(p[1], q[1]))
        for p, q in (s1, s2))
    return max(bx0 - ax1, ax0 - bx1), max(by0 - ay1, ay0 - by1)


def test_the_sweep_equals_the_all_pairs_oracle_where_a_sweep_can_slip():
    rng = random.Random(18)
    default = GENERIC.min_spacing + 10.0
    seen = dict.fromkeys(("shared x0", "x gap = reach", "y gap = reach",
                          "diagonal", "negative", "coincident"), 0)
    for _ in range(40):
        paths = _sweep_clutter(rng)
        for reach in (0.0, None, 1.5 * default):
            got = _scan_ids(_near_segment_pairs(paths, GENERIC, reach), paths)
            want = _scan_ids(process_reference.near_segment_pairs(
                paths, GENERIC, reach), paths)
            assert got == want, reach
            r = default if reach is None else reach
            for i, j, pairs in want:
                seen["coincident"] += paths[i].points == paths[j].points
                for s1, s2 in pairs:
                    gx, gy = _gaps(s1, s2)
                    seen["x gap = reach"] += gx == r
                    seen["y gap = reach"] += gy == r
                    seen["negative"] += min(c for p in s1 + s2 for c in p) < 0
                    seen["diagonal"] += any(
                        min(abs(q[0] - p[0]), abs(q[1] - p[1])) > default
                        for p, q in (s1, s2))
        x0s = [min(p[0], q[0]) for path in paths
               for p, q in zip(path.points, path.points[1:])]
        seen["shared x0"] += max(x0s.count(x) for x in x0s) >= 4
    # the sample really holds every case a sweep over x can get wrong
    assert all(n > 5 for n in seen.values()), seen


def test_the_keepout_refuses_the_sites_the_all_boxes_oracle_refuses():
    # sites at 200, 500 and 800 um on both axes; a 10 um trace keeps out
    # 5 + 30 + 7.5 = 42.5 um and a 15 um bump 7.5 + 37.5 = 45 um, all exact
    # in binary, so box edges land exactly on lattice lines, or one float
    # step to either side of them
    rules = ProcessRules("t", 10.0, 10.0, 10.0, 40.0, 10.0, 300.0, 15.0, 30.0)
    sites = (200.0, 500.0, 800.0)
    rng = random.Random(18)
    on_line = refused = 0
    for _ in range(60):
        lay = _bare_layout(flip=True)
        for n in range(rng.randint(1, 6)):
            edge = rng.choice(sites) + rng.choice((-1.0, 1.0)) * 42.5
            at = rng.choice((edge, math.nextafter(edge, -math.inf),
                             math.nextafter(edge, math.inf)))
            on_line += at == edge
            a, b = 10.0 * rng.randint(10, 90), rng.choice((0.0, 130.0, 620.0))
            pts = [(a, at), (a + b, at)] if rng.random() < 0.5 \
                else [(at, a), (at, a + b)]
            lay.paths.append(RoutedPath(f"p{n}", "control", 2, pts, 10.0))
        for n in range(rng.randint(0, 2)):
            x, y = (rng.choice(sites) + rng.choice((-1.0, 1.0)) * 45.0
                    for _ in range(2))
            lay.add_component(make_indium_column(f"b{n}", (x, y), 15.0),
                              check_overlap=False)
        got = place_indium_columns(copy.deepcopy(lay), rules)
        want = process_reference.place_indium_columns(copy.deepcopy(lay),
                                                      rules)
        assert [(c.comp_id, c.origin) for c in got] == \
            [(c.comp_id, c.origin) for c in want]
        refused += 9 - len(want)
    assert on_line > 50 and refused > 100, (on_line, refused)


def _counting_modules(counts):
    """Stand-ins for the bisect and heapq modules geometry.sweep_pairs
    calls. Each box enters the sweep through one heappush, and each range
    query hands its lower end to bisect_right as lo, so the boxes queries
    look at number bisect_right's results less lo."""
    def bisect_right(a, x, lo=None):
        if lo is None:
            return bisect.bisect_right(a, x)
        at = bisect.bisect_right(a, x, lo)
        counts["looked at"] += at - lo
        return at

    def heappush(heap, item):
        counts["runs"] += 1
        heapq.heappush(heap, item)

    return (SimpleNamespace(bisect_left=bisect.bisect_left,
                            bisect_right=bisect_right, insort=bisect.insort),
            SimpleNamespace(heappush=heappush, heappop=heapq.heappop))


def test_scan_work_per_run_grows_at_most_half_from_16x16_to_31x31(
        monkeypatch):
    # box comparisons, not wall time, so the guard holds on any host; the
    # former bin index visited 17 bins per query at 16x16 and 33 at 31x31
    per_run = []
    for n in (16, 31):
        counts = {"looked at": 0, "runs": 0}
        shims = _counting_modules(counts)
        monkeypatch.setattr(geometry, "bisect", shims[0])
        monkeypatch.setattr(geometry, "heapq", shims[1])
        run_pipeline(rows=n, cols=n)
        per_run.append(counts["looked at"] / counts["runs"])
    assert per_run[1] <= 1.5 * per_run[0], per_run


def test_bridges_take_crossings_from_the_shared_scan_as_the_reference_does():
    # many crossings, and many of them under a deck placed earlier in the
    # same call, so bridge order and deck cover both show
    rng = random.Random(2025)
    crossings = shared = 0
    for trial in range(40):
        lay = _random_layout(rng, flip=trial % 4 == 0)
        _assert_scans_match_reference(lay)
        points = [pt for i, a in enumerate(lay.paths) for b in lay.paths[i + 1:]
                  if a.layer == b.layer and a.net != b.net
                  for pt, _ in process_reference.path_crossings(a, b)]
        covered = sum(process_reference.bridged(lay, pt) for pt in points)
        crossings += len(points)
        shared += len(points) - covered - len(insert_air_bridges(lay, GENERIC))
    assert crossings > 40 and shared > 40


def test_deck_cover_follows_a_deck_that_moves():
    lay = _bare_layout(
        RoutedPath("h", "control", 2, [(400.0, 500.0), (600.0, 500.0)], 10.0),
        RoutedPath("v", "control", 2, [(500.0, 400.0), (500.0, 600.0)], 10.0))
    (deck,) = insert_air_bridges(lay, GENERIC)
    assert drc(lay, GENERIC) == []
    home = deck.footprint[LAYER_AIRBRIDGE]
    deck.set_footprint(LAYER_AIRBRIDGE,
                       [[(x + 300.0, y) for x, y in poly] for poly in home])
    got = _violations(drc(lay, GENERIC))
    assert [v[0] for v in got] == ["unbridged-crossing"]
    assert got == _violations(process_reference.drc(lay, GENERIC))
    deck.set_footprint(LAYER_AIRBRIDGE, home)
    assert drc(lay, GENERIC) == []


def _unmemoized_drc(lay, rules):
    bare = copy.deepcopy(lay)
    bare.segment_pairs = None
    return _violations(drc(bare, rules))


def test_the_shared_segment_scan_follows_path_edits_and_rules():
    rng = random.Random(15)
    changed = 0
    for trial in range(30):
        lay = _random_layout(rng)
        edit = trial % 3
        # the finer process has the shorter spacing reach, so its scan
        # misses pairs the default one needs
        before = _violations(drc(lay, FINE if edit == 2 else GENERIC))
        assert lay.segment_pairs is not None
        path = rng.choice(lay.paths)
        if edit == 0:        # a new leg to a vertex of another net
            other = rng.choice([p for p in lay.paths if p.net != path.net])
            path.points.append(rng.choice(other.points))
        elif edit == 1:
            path.width += 100.0
        after = _violations(drc(lay, GENERIC))
        assert after == _unmemoized_drc(lay, GENERIC)
        changed += after != before
    assert changed > 15
