"""Router scaling benchmark: wall time vs qubit count for both strategies.

Each cell builds a placed-and-dressed layout once through the pipeline's
topology, layout and readout stages, then times only the pipeline's own
route stage work (``pipeline.ROUTE_CORES``: pin allocation through path
emission) on fresh copies. Medians over repetitions feed a log-log
least-squares fit.
"""

from __future__ import annotations

import copy
import csv
import math
import statistics
import time
from dataclasses import dataclass, field

from .document import DesignDocument
from .errors import SqchipError, check_selector
from .pipeline import ROUTE_CORES, PipelineConfig, run_stages, selected_stages

# Maze cells are 100 um here, twice the pipeline default, which keeps the
# 16x16 maze cell of the scaling gate affordable.
MAZE_CELL = 100.0


@dataclass(frozen=True)
class BenchRecord:
    strategy: str
    m: int
    n: int
    qubits: int
    median_s: float
    min_s: float
    max_s: float
    nets: int
    crossings: int


@dataclass
class BenchResult:
    records: list[BenchRecord] = field(default_factory=list)
    exponents: dict = field(default_factory=dict)   # strategy -> (slope, r2)
    failures: list[tuple[str, int, int, str]] = field(default_factory=list)


def bench_cell(strategy: str, m: int, n: int, repetitions: int = 3
               ) -> BenchRecord:
    """Median routing time for one (strategy, size) cell."""
    cfg = PipelineConfig(rows=m, cols=n, strategy=strategy,
                         maze_cell=MAZE_CELL)
    doc = run_stages(DesignDocument(cfg.name), cfg,
                     ("topology", "layout", "readout"))
    (route,) = selected_stages(cfg, ("route",))
    core, args = ROUTE_CORES[strategy], route.arguments(cfg)
    times = []
    for _ in range(repetitions):
        work = copy.deepcopy(doc.layout)
        t0 = time.perf_counter()
        result = core(work, doc.topology, **args)
        times.append(time.perf_counter() - t0)
    return BenchRecord(strategy, m, n, m * n, statistics.median(times),
                       min(times), max(times), len(result.paths),
                       result.total_crossings)


def fit_exponent(records: list[BenchRecord]) -> tuple[float, float] | None:
    """Least-squares slope of log(median) vs log(qubits), with R^2.

    Needs at least three distinct sizes; returns None below that.
    """
    pts = sorted({(r.qubits, r.median_s) for r in records})
    if len(pts) < 3:
        return None
    xs = [math.log(q) for q, _ in pts]
    ys = [math.log(max(t, 1e-9)) for _, t in pts]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    b = my - slope * mx
    ss_res = sum((y - (slope * x + b)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, r2


def bench_scaling(sizes: list[tuple[int, int]],
                  strategies: tuple[str, ...] = ("pattern", "maze"),
                  repetitions: int = 3) -> BenchResult:
    """Run the full grid of cells; a cell that fails with a SqchipError is
    recorded, not raised, and any other exception is a fault and
    propagates."""
    if not sizes:
        raise SqchipError("no sizes to benchmark")
    if repetitions < 3:
        raise SqchipError("need at least 3 repetitions for a stable median")
    for s in strategies:
        check_selector("strategy", s, tuple(ROUTE_CORES))
    out = BenchResult()
    for s in strategies:
        for m, n in sizes:
            try:
                out.records.append(bench_cell(s, m, n, repetitions))
            except SqchipError as exc:
                out.failures.append((s, m, n, str(exc)))
    for s in strategies:
        fit = fit_exponent([r for r in out.records if r.strategy == s])
        if fit is not None:
            out.exponents[s] = fit
    return out


CSV_COLUMNS = ("strategy", "m", "n", "qubits", "median_s", "min_s", "max_s",
               "nets", "crossings")


def write_csv(records: list[BenchRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([getattr(r, c) for c in CSV_COLUMNS])
