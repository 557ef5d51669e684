from __future__ import annotations

import math
import random

from sqchip.geometry import (
    BinIndex,
    bbox,
    bbox_union,
    merge_collinear,
    path_length,
    path_segments,
    point_in_polygon,
    point_polygon_distance,
    point_segment_distance,
    rect,
    segment_crossing_point,
    segment_distance,
    segments_intersect,
)


def test_bbox_and_union_cover_all_points():
    assert bbox([(1, 2), (-3, 5), (0, 0)]) == (-3, 0, 1, 5)
    assert bbox_union([(0, 0, 1, 1), (2, -1, 3, 0)]) == (0, -1, 3, 1)


def test_rect_is_counterclockwise_and_closed_by_bbox():
    r = rect(0, 0, 10, 5)
    assert len(r) == 4
    assert bbox(r) == (0, 0, 10, 5)
    area2 = sum(r[i][0] * r[(i + 1) % 4][1] - r[(i + 1) % 4][0] * r[i][1]
                for i in range(4))
    assert area2 > 0


def test_point_in_polygon_includes_the_boundary():
    square = rect(0, 0, 10, 10)
    assert point_in_polygon((5, 5), square)
    assert point_in_polygon((0, 5), square)
    assert point_in_polygon((10, 10), square)
    assert not point_in_polygon((10.001, 5), square)
    assert not point_in_polygon((-1, -1), square)


def test_point_segment_distance_handles_interior_and_endpoints():
    assert point_segment_distance((5, 3), (0, 0), (10, 0)) == 3.0
    assert point_segment_distance((-4, 3), (0, 0), (10, 0)) == 5.0
    assert point_segment_distance((3, 4), (0, 0), (0, 0)) == 5.0


def test_point_polygon_distance_is_zero_inside():
    square = rect(0, 0, 10, 10)
    assert point_polygon_distance((5, 5), square) == 0.0
    assert point_polygon_distance((13, 5), square) == 3.0


def test_segment_distance_matches_hand_cases():
    # parallel horizontal lines 2 apart
    assert segment_distance((0, 0), (10, 0), (0, 2), (10, 2)) == 2.0
    # crossing segments touch
    assert segment_distance((0, 0), (10, 10), (0, 10), (10, 0)) == 0.0
    # disjoint diagonal vs point-like gap
    d = segment_distance((0, 0), (1, 0), (2, 1), (3, 1))
    assert math.isclose(d, math.hypot(1, 1))


def test_segments_intersect_uses_closed_semantics():
    assert segments_intersect((0, 0), (10, 0), (5, -5), (5, 5))
    # shared endpoint counts
    assert segments_intersect((0, 0), (5, 0), (5, 0), (5, 9))
    # collinear overlap counts
    assert segments_intersect((0, 0), (10, 0), (5, 0), (15, 0))
    assert not segments_intersect((0, 0), (10, 0), (0, 1), (10, 1))


def test_crossing_point_requires_strict_interiors():
    # transversal crossing reports the meet point
    assert segment_crossing_point((0, 0), (10, 0), (5, -5), (5, 5)) == (5.0, 0.0)
    # shared endpoint: no crossing
    assert segment_crossing_point((0, 0), (5, 0), (5, 0), (5, 9)) is None
    # T-touch, endpoint of one on the interior of the other: no crossing
    assert segment_crossing_point((0, 0), (10, 0), (5, 0), (5, 9)) is None
    # parallel and collinear overlaps: no crossing
    assert segment_crossing_point((0, 0), (10, 0), (0, 1), (10, 1)) is None
    assert segment_crossing_point((0, 0), (10, 0), (5, 0), (15, 0)) is None


def test_crossing_point_agrees_with_the_boolean_test_on_random_pairs():
    rng = random.Random(3)
    for _ in range(500):
        seg = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(4)]
        pt = segment_crossing_point(seg[0], seg[1], seg[2], seg[3])
        if pt is not None:
            # a proper crossing implies intersection and sits on both segments
            assert segments_intersect(*seg)
            assert point_segment_distance(pt, seg[0], seg[1]) < 1e-6
            assert point_segment_distance(pt, seg[2], seg[3]) < 1e-6


def test_path_length_and_segments_agree():
    pts = [(0, 0), (3, 0), (3, 4)]
    assert path_length(pts) == 7.0
    assert path_segments(pts) == [((0, 0), (3, 0)), ((3, 0), (3, 4))]


def test_merge_collinear_drops_interior_points_only():
    pts = [(0, 0), (1, 0), (2, 0), (2, 3), (2, 5)]
    assert merge_collinear(pts) == [(0, 0), (2, 0), (2, 5)]
    # corners survive
    bend = [(0, 0), (2, 0), (2, 2)]
    assert merge_collinear(bend) == bend
    assert merge_collinear([(0, 0)]) == [(0, 0)]


def test_bin_index_returns_exactly_the_boxes_a_query_meets():
    # coordinates on a coarse lattice, so boxes often touch, degenerate to
    # points or lines, and land exactly on bin edges (cell 20)
    rng = random.Random(11)
    coord = lambda: 5.0 * rng.randint(-20, 20)
    boxes = []
    for _ in range(200):
        x0, x1 = sorted((coord(), coord()))
        y0, y1 = sorted((coord(), coord()))
        boxes.append((rng.choice((1, 2)), (x0, y0, x1, y1)))
    index = BinIndex(20.0)
    for n, (layer, box) in enumerate(boxes):
        index.add(layer, box, n)
    for _ in range(300):
        x0, x1 = sorted((coord(), coord()))
        y0, y1 = sorted((coord(), coord()))
        layer = rng.choice((1, 2))
        want = {n for n, (lay, b) in enumerate(boxes) if lay == layer
                and b[0] <= x1 and x0 <= b[2] and b[1] <= y1 and y0 <= b[3]}
        assert index.query(layer, (x0, y0, x1, y1)) == want
