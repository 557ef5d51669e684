from __future__ import annotations

import random

import pytest

from sqchip.components import (
    LAYER_JUNCTION,
    LAYER_QUBIT,
    make_airbridge,
    make_pad,
    make_resonator,
    make_transmon,
    make_xmon,
    stroke_centerline,
    synthesize_meander,
)
from sqchip.errors import LengthMismatch, MeanderDoesNotFit
from sqchip.geometry import bbox, path_length


def test_xmon_footprint_is_a_centered_cross_with_junction_below():
    q = make_xmon("q0", (100.0, 200.0), arm_length=250.0, arm_width=50.0)
    assert q.kind == "xmon"
    x0, y0, x1, y1 = bbox(q.footprint[LAYER_QUBIT][0])
    assert (x0, x1) == (100.0 - 250.0, 100.0 + 250.0)
    assert (y0, y1) == (200.0 - 250.0, 200.0 + 250.0)
    jx0, jy0, jx1, jy1 = bbox(q.footprint[LAYER_JUNCTION][0])
    assert jy1 == 200.0 - 250.0
    assert jx0 < 100.0 < jx1
    assert set(q.ports) == {"north", "south", "east", "west"}


def test_transmon_has_two_pads_and_vertical_ports():
    q = make_transmon("q1", (0.0, 0.0))
    assert len(q.footprint[LAYER_QUBIT]) == 2
    assert q.ports["north"].direction == (0.0, 1.0)
    assert q.ports["south"].direction == (0.0, -1.0)


def test_pad_port_points_inward_from_the_die_edge():
    for edge, direction in (("top", (0.0, -1.0)), ("bottom", (0.0, 1.0)),
                            ("left", (1.0, 0.0)), ("right", (-1.0, 0.0))):
        pad = make_pad(f"p_{edge}", (50.0, 50.0), edge=edge)
        assert pad.ports["inner"].direction == direction


def test_airbridge_deck_spans_the_requested_axis():
    h = make_airbridge("ab0", (10.0, 20.0), 40.0, 10.0, "h")
    x0, y0, x1, y1 = h.bounding_box()
    assert (x1 - x0, y1 - y0) == (40.0, 10.0)
    v = make_airbridge("ab1", (10.0, 20.0), 40.0, 10.0, "v")
    x0, y0, x1, y1 = v.bounding_box()
    assert (x1 - x0, y1 - y0) == (10.0, 40.0)


def test_meander_hits_the_target_length_exactly():
    rng = random.Random(5)
    for _ in range(100):
        attach = (rng.uniform(120.0, 900.0), 0.0)
        length = rng.uniform(2500.0, 7000.0)
        pts = synthesize_meander(attach, 1200.0, 100.0, 1000.0, length,
                                 trace_width=10.0, coupling_length=200.0)
        assert abs(path_length(pts) - length) < 1e-6
        assert pts[0] == attach
        assert pts[-1][1] == 1200.0



def test_meander_length_drift_raises_a_typed_error(monkeypatch):
    import sqchip.components as components

    monkeypatch.setattr(components, "path_length", lambda pts: 0.0)
    with pytest.raises(LengthMismatch):
        synthesize_meander((500.0, 0.0), 1200.0, 100.0, 1000.0, 5000.0,
                           10.0, 200.0)

def test_meander_stays_inside_its_horizontal_zone():
    pts = synthesize_meander((500.0, 0.0), 1200.0, 100.0, 1000.0, 5000.0,
                             10.0, 200.0)
    for x, _ in pts:
        assert 100.0 <= x <= 1000.0


def test_meander_rejects_impossible_zones():
    # attach column outside the zone
    with pytest.raises(MeanderDoesNotFit):
        synthesize_meander((50.0, 0.0), 1200.0, 100.0, 1000.0, 5000.0, 10.0, 200.0)
    # target below the geometric minimum
    with pytest.raises(MeanderDoesNotFit):
        synthesize_meander((500.0, 0.0), 1200.0, 100.0, 1000.0, 100.0, 10.0, 200.0)
    # zone narrower than the coupling run
    with pytest.raises(MeanderDoesNotFit):
        synthesize_meander((150.0, 0.0), 1200.0, 100.0, 250.0, 5000.0, 10.0, 200.0)
    # too many runs for the zone height
    with pytest.raises(MeanderDoesNotFit):
        synthesize_meander((500.0, 0.0), 300.0, 100.0, 1000.0, 30000.0, 10.0, 200.0)


def test_stroke_covers_each_segment_with_one_rectangle():
    polys = stroke_centerline([(0.0, 0.0), (100.0, 0.0), (100.0, 50.0)], 10.0)
    assert len(polys) == 2
    # rectangles extend half a width past the segment ends to fill corners
    assert bbox(polys[0]) == (-5.0, -5.0, 105.0, 5.0)
    assert bbox(polys[1]) == (95.0, -5.0, 105.0, 55.0)


def test_resonator_records_its_design_parameters():
    res = make_resonator("r0", (500.0, 0.0), 1200.0, 100.0, 1000.0, 5000.0,
                         10.0, 6.0, 200.0, 6.5e9, qubit_id="q0")
    assert res.params["length"] == 5000.0
    assert res.params["target_frequency"] == 6.5e9
    assert res.params["qubit_id"] == "q0"
    assert res.ports["qubit"].position == (500.0, 0.0)
    assert res.ports["coupler"].position[1] == 1200.0
    assert LAYER_QUBIT in res.footprint
