"""sqchip benchmark: mask build time and mask quality on three workloads.

    python3 perfbench/run.py --workload pattern-ladder --seed 0 \
        --seconds 30 --trace 0

Run from the root of a checkout. One client, one build at a time, in this
process (a closed loop with no threads or worker processes). The run
repeats passes over the workload's builds until the next pass would end
after ``--seconds``. Every build's output is checked, and the last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. A failed check makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics from untraced passes, and
makes at least two passes, so a workload whose pass takes more than half
of ``--seconds`` measures for longer than ``--seconds``. ``--trace 1``
builds every build of a pass twice, untraced and traced back to back, and
reports per-layer metrics from the traced builds; it makes at least one
pass. The spans are written to
``perfbench_out/spans-<workload>-seed<seed>.json`` when the run ends.
README.md next to this file explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

SETUP_SAMPLES = 3        # per probe; probes before passes 0 and 1, and after

END_TO_END_UNITS = {
    "setup_s": "s", "sweep_s": "s", "scaling_exp": "1",
    "peak_rss_mb": "MB", "wire_mm": "mm", "die_mm2": "mm2",
}

# per-layer time metric -> span names whose self time it sums; a name
# ending in "." matches every function of that module
LAYER_TIMES = {
    "topology.s": ("topology.",),
    "circuit.s": ("circuit.",),
    "layout.place_s": ("layout.place_qubits",),
    "layout.readout_s": ("layout.generate_readout_bus",),
    "pattern.s": ("pattern.",),
    "maze.grid_s": ("maze.build_grid",),
    "maze.route_s": ("maze.route_all", "maze.resolve_target"),
    "process.apply_rules_s": ("process.apply_rules",),
    "process.air_bridges_s": ("process.insert_air_bridges",),
    "process.drc_s": ("process.drc",),
    "process.indium_s": ("process.place_indium_columns",),
    "gdsio.write_s": ("gdsio.write_gds",),
    "gdsio.read_s": ("gdsio.layout_from_gds",),
    "document.save_s": ("document.save", "document.save_document"),
    "document.load_s": ("document.load", "document.load_document"),
    "document.stage_s": ("document.extract", "document.inject"),
    "devmap.s": ("devmap.",),
}

VIOLATION_RULES = ("spacing", "unbridged-crossing", "die-bounds", "overlap",
                   "min-feature", "pad-size")

LAYER_COUNTS = (
    "layout.components", "pattern.nets", "pattern.corners", "maze.nets",
    "maze.corners", "maze.crossings", "process.segments",
    "process.segment_pairs", "process.bridges", "process.indium_columns",
    "process.violations",
    *(f"process.violations.{r}" for r in VIOLATION_RULES),
    "gdsio.bytes", "gdsio.elements", "devmap.evaluator_calls",
    "devmap.iterations",
)


class SetupProbe:
    """Wall time from starting a fresh interpreter to ``import sqchip`` done.

    Samples are taken before the first two passes and after the last one,
    so their median spans the run rather than one moment of it.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.cmd = [sys.executable, "-c", "import sqchip"]
        self.times: list[float] = []
        # untimed: fills the bytecode cache, as any earlier use would
        subprocess.run(self.cmd, env=self.env, check=True)

    def sample(self) -> None:
        for _ in range(SETUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, check=True)
            self.times.append(time.perf_counter() - t0)


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(qubits)."""
    xs = [math.log(q) for q, _ in points]
    ys = [math.log(s) for _, s in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class Run:
    """State of one benchmark run: passes made, checks failed, samples."""

    def __init__(self, flows, builds, cfgs, work, tracer):
        self.flows = flows
        self.builds = builds
        self.cfgs = cfgs
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, tuple[str, str]] = {}
        self.walls: list[float] = []                # untraced pass seconds
        # label -> (untraced, traced) seconds of each back-to-back pair
        self.pairs: dict[str, list[tuple[float, float]]] = {}
        self.build_secs: dict[str, list[float]] = {}
        self.quality: dict[str, float] | None = None
        self.layer_counts: dict[str, float] | None = None

    def build_once(self, build, workdir, traced: bool):
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            span = self.tracer.span("bench.build") if traced else nullcontext()
            with span:
                out = self.flows.run_build(build, self.cfgs[build], workdir,
                                           self.tracer if traced else None)
        except Exception:
            self.failed += 1
            self.failures.append(f"{build.label} raised:\n"
                                 f"{traceback.format_exc()}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def warm_up(self) -> None:
        """One untimed build, so lazy set-up is not charged to pass 0."""
        first = self.builds[0]
        self.build_once(first, self.flows.fresh_dir(self.work / "warm-up"),
                        False)

    def one_pass(self, k: int, paired: bool) -> float:
        """Builds each build once untraced or, when paired, untraced and
        traced back to back, alternating which of the two goes first."""
        gc.collect()
        pass_dir = self.flows.fresh_dir(self.work / f"pass{k}")
        results = []
        t0 = time.perf_counter()
        for i, b in enumerate(self.builds):
            self.tracer.build = f"pass{k}/{b.label}"
            forms = (False,)
            if paired:
                forms = (False, True) if (k + i) % 2 == 0 else (True, False)
            for traced in forms:
                workdir = pass_dir / f"{b.label}-{int(traced)}"
                results.append((b, traced,
                                *self.build_once(b, workdir, traced)))
        wall = time.perf_counter() - t0
        shutil.rmtree(pass_dir, ignore_errors=True)
        if paired:
            secs = {(b.label, traced): t for b, traced, _, t in results}
            for b in self.builds:
                self.pairs.setdefault(b.label, []).append(
                    (secs[b.label, False], secs[b.label, True]))
        else:
            self.walls.append(wall)
        print(f"pass {k}{' (paired)' if paired else ''}: {wall:.3f} s")
        self.check_pass(k, results)
        return wall

    def check_pass(self, k: int, results) -> None:
        flows = self.flows
        from sqchip.gdsio import layout_from_gds, write_gds

        quality = {"wire_um": 0.0, "die_um2": 0.0}
        counts: dict[str, float] = {}
        for b, traced, out, secs in results:
            if out is None:
                continue
            if not traced:
                self.build_secs.setdefault(b.label, []).append(secs)
            form = "traced" if traced else "untraced"
            where = f"{b.label} pass {k} ({form})"
            if out.nets_routed != out.nets_expected:
                self.failures.append(f"{where}: routed {out.nets_routed} of "
                                     f"{out.nets_expected} nets")
            if b.strategy == "pattern" and out.crossings != 0:
                self.failures.append(f"{where}: pattern flow has "
                                     f"{out.crossings} crossings")
            reimported = layout_from_gds(out.gds)
            if write_gds(reimported) != out.gds:
                self.failures.append(f"{where}: GDS read/write round trip "
                                     f"changes the bytes")
            key = (sha(out.gds), sha(out.design))
            first = self.reference.setdefault(b.label, key)
            if key != first:
                self.failures.append(f"{where}: bytes {key} differ from the "
                                     f"first build's {first}")
            if traced:
                for name, value in {**out.counts,
                                    **flows.gds_counts(out.gds)}.items():
                    counts[name] = counts.get(name, 0) + value
            else:
                final = out.layout if out.layout is not None else reimported
                quality["wire_um"] += flows.wire_um(final)
                quality["die_um2"] += flows.die_um2(final)
            if k < 2:
                print(f"  {b.label} ({form}): {secs:.4f} s, sha256 {key[0]}"
                      f"{self.pin_note(b, key[0])}")
        if self.quality is None:
            self.quality = quality
        if counts and self.layer_counts is None:
            self.layer_counts = counts

    def pin_note(self, b, digest: str) -> str:
        cfg = self.cfgs[b]
        _, band, pitch = self.flows.VARIANTS[0]
        pin = self.flows.PINS.get((b.flow, b.rows, b.cols, b.strategy,
                                   b.flip_chip))
        # the palette never reaches the mask; band and pitch do
        if pin is None or ((cfg.readout_start, cfg.readout_stop),
                           cfg.pitch) != (band, pitch):
            return ""
        return (", matches the ROADMAP pin" if digest == pin
                else f", differs from the ROADMAP pin {pin} (information)")


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    ladder = [(b.qubits, statistics.median(run.build_secs[b.label]))
              for b in run.builds
              if not b.flip_chip and b.label in run.build_secs]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    quality = run.quality or {"wire_um": 0.0, "die_um2": 0.0}
    return {
        "setup_s": setup_s,
        "sweep_s": statistics.median(run.walls),
        "scaling_exp": slope(ladder) if len(ladder) >= 2 else 0.0,
        "peak_rss_mb": peak_kb / 1024.0,
        "wire_mm": quality["wire_um"] / 1e3,
        "die_mm2": quality["die_um2"] / 1e6,
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    tracer = run.tracer
    selfs = tracer.self_times()
    by_pass: dict[str, dict[str, float]] = {}
    for s in tracer.spans:
        for metric, names in LAYER_TIMES.items():
            if any(s.name == n or (n.endswith(".") and s.name.startswith(n))
                   for n in names):
                sums = by_pass.setdefault(s.build.split("/")[0], {})
                sums[metric] = sums.get(metric, 0.0) + selfs[s.span_id]
    out: dict[str, tuple[float, str]] = {}
    for metric in LAYER_TIMES:
        values = [sums.get(metric, 0.0) for sums in by_pass.values()]
        out[metric] = (statistics.median(values) if values else 0.0, "s")
    counts = run.layer_counts or {}
    for metric in LAYER_COUNTS:
        out[metric] = (counts.get(metric, 0), "count")
    pairs = counts.get("process.segment_pairs", 0)
    out["process.bridge_yield"] = (
        counts.get("process.bridges", 0) / pairs if pairs else 0.0, "ratio")
    passes = len(next(iter(run.pairs.values())))
    sweeps = {form: [sum(ab[j][form] for ab in run.pairs.values())
                     for j in range(passes)] for form in (0, 1)}
    overhead = sum(statistics.median([t - u for u, t in ab])
                   for ab in run.pairs.values())
    untraced = statistics.median(sweeps[0])
    out["trace.sweep_s"] = (statistics.median(sweeps[1]), "s")
    out["trace.overhead_s"] = (overhead, "s")
    print(f"process.bridge_yield = {counts.get('process.bridges', 0)} "
          f"bridges / {pairs} segment pairs")
    print(f"trace overhead = {overhead:+.4f} s on an untraced sweep of "
          f"{untraced:.4f} s ({overhead / untraced:+.1%}): the sum over "
          f"{len(run.pairs)} builds of the median traced-minus-untraced "
          f"difference of {passes} back-to-back pair(s) each")
    for label, ab in run.pairs.items():
        diffs = ", ".join(f"{t - u:+.4f}" for u, t in ab)
        print(f"  {label}: traced minus untraced {diffs} s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="picks the design variant (default 0: the default "
                        "design)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measurement time; passes stop before exceeding it")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sqchip" / "__init__.py").is_file():
        print(f"error: no sqchip sources at {SRC}; run from the root of a "
              f"sqchip checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flows
    import spans

    builds = flows.WORKLOADS.get(args.workload)
    if builds is None:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(flows.WORKLOADS)}", file=sys.stderr)
        return 2
    index = args.seed % len(flows.VARIANTS)
    variant = flows.VARIANTS[index]
    print(f"workload {args.workload}, seed {args.seed}: variant {index} "
          f"(palette {variant[0]} Hz, readout band {variant[1]} Hz, "
          f"pitch {variant[2]} um)")

    probe = SetupProbe() if args.trace == 0 else None
    work = flows.fresh_dir(OUT / f"work-{os.getpid()}")
    run = Run(flows, builds, {b: flows.config_for(b, variant) for b in builds},
              work, spans.Tracer())
    try:
        run.warm_up()
        started = time.perf_counter()
        paired = args.trace == 1
        k = 0
        last = 0.0
        while (k < (1 if paired else 2)
               or time.perf_counter() - started + last <= args.seconds):
            if probe is not None and k < 2:
                probe.sample()
            last = run.one_pass(k, paired)
            k += 1
        if probe is not None:
            probe.sample()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace == 0:
        print(f"sweep_s is the median of {len(run.walls)} untraced passes; "
              f"that many samples support no tail percentile (none has 10 "
              f"beyond it)")
        setup_s = statistics.median(probe.times)
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in end_to_end(run, setup_s).items()}
    else:
        metrics = per_layer(run)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        run.tracer.dump(path)
        print(f"{len(run.tracer.spans)} spans -> {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
