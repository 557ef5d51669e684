"""Benchmark harness tests: exponent fitting on synthetic data, tiny real
runs, and the CSV shape. Actual scaling assertions live in the acceptance
suite."""

from __future__ import annotations

import csv
import math

import pytest

from sqchip.bench import (
    CSV_COLUMNS,
    BenchRecord,
    bench_cell,
    bench_scaling,
    fit_exponent,
    write_csv,
)
from sqchip.errors import SqchipError
from sqchip.pipeline import run_pipeline


def _record(strategy: str, m: int, n: int, t: float) -> BenchRecord:
    return BenchRecord(strategy, m, n, m * n, t, t, t, 3 * m, 0)


def test_fit_exponent_needs_three_distinct_sizes():
    pts = [_record("pattern", 2, 2, 0.1), _record("pattern", 4, 4, 0.4)]
    assert fit_exponent(pts) is None
    # a duplicate size adds a point but not a size
    assert fit_exponent(pts + [_record("pattern", 2, 2, 0.1)]) is None


def test_fit_exponent_recovers_a_known_power_law():
    sizes = [(2, 2), (3, 3), (4, 4), (6, 6), (8, 8)]
    records = [_record("maze", m, n, 1e-4 * (m * n) ** 1.7)
               for m, n in sizes]
    slope, r2 = fit_exponent(records)
    assert math.isclose(slope, 1.7, rel_tol=1e-9)
    assert r2 == pytest.approx(1.0)


def test_fit_exponent_tolerates_mild_noise():
    noisy = [
        _record("pattern", 2, 2, 1.1e-4 * 4 ** 1.2),
        _record("pattern", 4, 4, 0.9e-4 * 16 ** 1.2),
        _record("pattern", 8, 8, 1.05e-4 * 64 ** 1.2),
        _record("pattern", 12, 12, 0.95e-4 * 144 ** 1.2),
    ]
    slope, r2 = fit_exponent(noisy)
    assert abs(slope - 1.2) < 0.1
    assert r2 > 0.98


def test_bench_cell_times_one_size():
    rec = bench_cell("pattern", 2, 2, repetitions=3)
    assert (rec.strategy, rec.m, rec.n, rec.qubits) == ("pattern", 2, 2, 4)
    assert rec.min_s <= rec.median_s <= rec.max_s
    assert rec.nets == 2 * 2 + 2 * 2
    assert rec.crossings == 0


@pytest.mark.parametrize("strategy, size, overrides", [
    ("pattern", 4, {}),
    ("maze", 3, {"maze_cell": 100.0}),
])
def test_bench_cell_routes_what_the_pipeline_routes(strategy, size, overrides):
    rec = bench_cell(strategy, size, size, repetitions=1)
    routing = run_pipeline(rows=size, cols=size, strategy=strategy,
                           **overrides).routing
    assert (rec.nets, rec.crossings) == \
        (routing.nets_routed, routing.total_crossings)
    assert rec.nets > 0


def test_bench_scaling_validates_inputs():
    with pytest.raises(SqchipError, match="no sizes"):
        bench_scaling([])
    with pytest.raises(SqchipError, match="repetitions"):
        bench_scaling([(2, 2)], repetitions=2)


def test_bench_scaling_records_per_cell_failures():
    # 1x1 maze-routes fine but 0x2 cannot even build a topology
    result = bench_scaling([(2, 2), (0, 2)], strategies=("pattern",),
                           repetitions=3)
    assert [(r.m, r.n) for r in result.records] == [(2, 2)]
    assert len(result.failures) == 1
    strategy, m, n, reason = result.failures[0]
    assert (strategy, m, n) == ("pattern", 0, 2)
    assert reason
    assert "pattern" not in result.exponents   # one surviving size, no fit


def test_csv_round_trips_records(tmp_path):
    records = [_record("pattern", 2, 2, 0.125), _record("maze", 3, 3, 0.5)]
    target = tmp_path / "bench.csv"
    write_csv(records, target)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert rows[1] == ["pattern", "2", "2", "4", "0.125", "0.125", "0.125",
                       "6", "0"]
    assert len(rows) == 3
