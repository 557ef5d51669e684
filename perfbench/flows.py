"""The builds the benchmark runs, untraced or traced.

A one-shot build is ``run_pipeline``; a staged build calls
``sqchip.cli.main`` once per stage. Both forms run exactly that code. For
a traced build, ``instrumented`` replaces the public functions those entry
points look up as module globals with wrappers that record one span per
call, and puts the originals back when the build ends. The benchmark
checks that traced and untraced builds produce the same bytes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from sqchip import cli
from sqchip.components import LAYER_OPPOSITE, LAYER_ROUTING
from sqchip.devmap import CAP_PER_AREA
from sqchip.gdsio import read_gds
from sqchip.geometry import path_length
from sqchip.pattern import total_pins
from sqchip.pipeline import PipelineConfig, run_pipeline
from sqchip.topology import generate_grid

ROUTING_LAYERS = (LAYER_ROUTING, LAYER_OPPOSITE)

# Design variants the workload seed picks from. Every combination was run
# through every workload and passes every output check. Index 0 of each
# menu is the PipelineConfig default, so seed 0 builds the default design.
PALETTES = ((4.3e9, 4.8e9), (4.4e9, 4.9e9), (4.25e9, 4.75e9))
READOUT_BANDS = ((6.535e9, 7.246e9), (6.5e9, 7.2e9), (6.6e9, 7.3e9))
PITCHES = (2000.0, 2010.0, 2020.0)
VARIANTS = [(f, b, p) for f in PALETTES for b in READOUT_BANDS
            for p in PITCHES]

# sha256 prefixes of the default design (ROADMAP "Baseline"), keyed by
# (flow, rows, cols, strategy, flip_chip). They are printed as information
# and never gate a run: a change may alter bytes on purpose. The staged 4x4
# value differs from the one-shot one because the staged flow fillets
# feedlines (a known defect).
PINS = {
    ("oneshot", 4, 4, "pattern", False): "837a3ceb77331f32",
    ("oneshot", 8, 8, "pattern", False): "f1e3025a9b75b201",
    ("oneshot", 3, 3, "maze", False): "4fc207a065af842b",
    ("staged", 4, 4, "pattern", False): "1612b0f68e6b88e0",
}

# (qubit, target capacitance in F) retuned by the staged flow's devmap stage
DEVMAP_TARGETS = (("q0", CAP_PER_AREA * 260.0), ("q5", CAP_PER_AREA * 280.0),
                  ("q9", CAP_PER_AREA * 300.0))
DEVMAP_EVALUATOR = "stub:pad-capacitance"


@dataclass(frozen=True)
class Build:
    flow: str              # oneshot | staged
    rows: int
    cols: int
    strategy: str = "pattern"
    flip_chip: bool = False

    @property
    def label(self) -> str:
        face = "-flip" if self.flip_chip else ""
        return f"{self.flow}-{self.strategy}-{self.rows}x{self.cols}{face}"

    @property
    def qubits(self) -> int:
        return self.rows * self.cols


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    "pattern-ladder": (Build("oneshot", 4, 4), Build("oneshot", 6, 6),
                       Build("oneshot", 8, 8),
                       Build("oneshot", 6, 6, flip_chip=True)),
    "maze-ladder": (Build("oneshot", 3, 3, "maze"),
                    Build("oneshot", 4, 4, "maze"),
                    Build("oneshot", 5, 5, "maze")),
    "staged-resume": (Build("staged", 4, 4), Build("staged", 6, 6)),
}


@dataclass
class Outcome:
    """What one build produced, for the output checks and the metrics."""
    gds: bytes
    layout: object                 # final ChipLayout; None when the flow
                                   # ends on disk (the mask is re-imported)
    nets_routed: int
    nets_expected: int
    crossings: int
    design: bytes = b""            # final .sqd bytes (staged flow only)
    counts: dict = field(default_factory=dict)   # traced form only


def config_for(build: Build, variant) -> PipelineConfig:
    palette, (f_start, f_stop), pitch = variant
    return PipelineConfig(rows=build.rows, cols=build.cols, pitch=pitch,
                          flip_chip=build.flip_chip,
                          qubit_frequencies=palette, readout_start=f_start,
                          readout_stop=f_stop, strategy=build.strategy)


def run_build(build: Build, cfg: PipelineConfig, workdir: Path,
              tracer=None) -> Outcome:
    counts: dict = {}
    with (instrumented(tracer, counts) if tracer is not None
          else contextlib.nullcontext()):
        if build.flow == "oneshot":
            out = _oneshot(cfg)
        else:
            out = _staged(cfg, workdir)
    out.counts = counts
    return out


# ---- the user's entry points ------------------------------------------------

def _oneshot(cfg: PipelineConfig) -> Outcome:
    result = run_pipeline(cfg)
    return Outcome(result.gds_bytes, result.document.layout,
                   result.routing.nets_routed,
                   total_pins(result.document.topology),
                   result.routing.total_crossings)


_ROUTED = re.compile(r"routed (\d+) nets, \d+ corners, (\d+) crossings")


def _stage_argvs(cfg: PipelineConfig, design: Path, mask: Path):
    common = [f"--design={design}", f"--out={mask}"]
    placement = ["--pitch", repr(cfg.pitch),
                 "--readout-start", repr(cfg.readout_start),
                 "--readout-stop", repr(cfg.readout_stop)]
    if cfg.flip_chip:
        placement.append("--flip-chip")
    steps = [
        ["topo", "--rows", str(cfg.rows), "--cols", str(cfg.cols)],
        ["params", "--frequencies",
         ",".join(repr(f) for f in cfg.qubit_frequencies)],
        ["layout", *placement],
        ["route", *placement, "--strategy", cfg.strategy],
        *(["devmap", "--qubit", q, "--param", "arm_length",
           "--target", repr(c), "--evaluator", DEVMAP_EVALUATOR]
          for q, c in DEVMAP_TARGETS),
        ["procmap", "--process", cfg.process],
        ["drc"],
        ["gds"],
    ]
    return [[s[0], *common, *s[1:]] for s in steps]


def _staged_paths(workdir: Path) -> tuple[Path, Path]:
    # the CLI's default design name, so the default design's mask matches
    # the recorded staged digest
    return workdir / "design" / "design.sqd", workdir / "mask"


def _staged(cfg: PipelineConfig, workdir: Path) -> Outcome:
    design, mask = _staged_paths(workdir)
    routed = None
    for argv in _stage_argvs(cfg, design, mask):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sqchip {argv[0]} exited with {code}")
        if argv[0] == "route":
            routed = _ROUTED.search(out.getvalue())
    gds = (mask / f"{design.stem}.gds").read_bytes()
    return Outcome(gds, None, int(routed.group(1)),
                   total_pins(generate_grid(cfg.rows, cfg.cols)),
                   int(routed.group(2)), design.read_bytes())


# ---- tracing: spans around the entry points' own calls ---------------------

# module -> the public functions it looks up as globals when a build runs.
# ``instrumented`` wraps each name in place; a span is named after the module
# that defines the function, e.g. ``process.drc``. ``sqchip.document`` imports
# ``write_gds`` and ``layout_from_gds`` from gdsio at call time, so the
# gdsio entries also cover the sidecar I/O and the layout digest in
# ``inject``.
INSTRUMENTED = {
    "sqchip.pipeline": (
        "dispatch", "extract", "inject", "generate_grid", "rows_bottom_up",
        "allocate_frequencies", "inverse_solve", "place_qubits",
        "generate_readout_bus", "allocate_pins", "map_pins", "route_pattern",
        "build_grid", "resolve_target", "route_all", "apply_rules",
        "insert_air_bridges", "place_indium_columns", "drc", "write_gds"),
    "sqchip.cli": (
        "dispatch", "inject", "make_evaluator", "map_qubit_capacitance",
        "place_qubits", "drc", "write_gds"),
    "sqchip.document": ("load", "save", "load_document", "save_document"),
    "sqchip.gdsio": ("write_gds", "layout_from_gds"),
}


@contextlib.contextmanager
def instrumented(tracer, counts: dict):
    """Wrap every function in INSTRUMENTED for the duration of the block."""
    saved = []
    try:
        for name, attrs in INSTRUMENTED.items():
            module = importlib.import_module(name)
            for attr in attrs:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, _traced(tracer, counts, fn))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _traced(tracer, counts: dict, fn):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _count(name, args, kwargs, result, counts)
        return result
    return call


def _count(name: str, args, kwargs, result, counts: dict) -> None:
    """Per-layer counts, read from what a public call was given and returned.

    Runs outside the call's span, so counting is not charged to the layer.
    """
    if name == "layout.generate_readout_bus":
        counts["layout.components"] = len(args[0].components)
    elif name == "pattern.route_pattern":
        counts["pattern.nets"] = len(result.paths)
        counts["pattern.corners"] = result.total_corners
    elif name == "maze.route_all":
        counts["maze.nets"] = len(result.paths)
        counts["maze.corners"] = result.total_corners
        counts["maze.crossings"] = result.total_crossings
    elif name == "process.apply_rules":
        counts.update(segment_counts(result))
    elif name == "process.insert_air_bridges":
        counts["process.bridges"] = len(result)
    elif name == "process.place_indium_columns":
        counts["process.indium_columns"] = len(result)
    elif name == "process.drc":
        counts["process.violations"] = len(result)
        for rule, n in Counter(v.rule for v in result).items():
            counts[f"process.violations.{rule}"] = n
    elif name == "devmap.map_qubit_capacitance":
        counts["devmap.iterations"] = (counts.get("devmap.iterations", 0)
                                       + result.iterations)
        # each CLI devmap call makes a fresh evaluator
        calls = kwargs["evaluator"].calls
        counts["devmap.evaluator_calls"] = (
            counts.get("devmap.evaluator_calls", 0) + calls)


# ---- counts read from the returned layouts ---------------------------------

def segment_counts(layout) -> dict:
    """Segments after filleting, and the brute-force candidate count of the
    pairwise scans: over same-layer path pairs on different nets, the sum of
    segments x segments."""
    segs = [max(len(p.points) - 1, 0) for p in layout.paths]
    pairs = 0
    paths = layout.paths
    for i, a in enumerate(paths):
        for j in range(i + 1, len(paths)):
            b = paths[j]
            if a.layer == b.layer and a.net != b.net:
                pairs += segs[i] * segs[j]
    return {"process.segments": sum(segs), "process.segment_pairs": pairs}


def gds_counts(gds: bytes) -> dict:
    lib = read_gds(gds)
    return {"gdsio.bytes": len(gds),
            "gdsio.elements": sum(len(s.elements) for s in lib.structures)}


def wire_um(layout) -> float:
    """Centerline length of every routed net, after filleting."""
    return sum(path_length(p.points) for p in layout.paths
               if p.layer in ROUTING_LAYERS)


def die_um2(layout) -> float:
    return layout.die.width * layout.die.height


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

