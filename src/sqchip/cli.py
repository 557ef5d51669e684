"""Command-line front end.

Subcommands mirror the pipeline stages and operate on a design file
(--design, canonical .sqd plus a GDS sidecar). Geometry-producing stages
regenerate placement deterministically from the document's semantic
sections, so a reloaded design never goes stale. Exit codes: 0 success,
2 validation error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from . import document as doc_mod
from .devmap import MappingProblem, make_evaluator, map_qubit_capacitance, solve
from .document import DesignDocument, ParameterBundle, dispatch, inject
from .errors import MissingSubEntity, SqchipError, StageError
from .gdsio import export_svg, write_gds
from .layout import place_qubits
from .pipeline import (
    K_BRIDGES,
    K_CIRCUIT,
    K_PLACE,
    K_PROCESS,
    K_READOUT,
    K_ROUTE_MAZE,
    K_ROUTE_PATTERN,
    K_TOPOLOGY,
    PipelineConfig,
    run_pipeline,
    summarize_routing,
)
from .process import drc, get_process


def _parser() -> argparse.ArgumentParser:
    # accepted before or after the subcommand; SUPPRESS keeps a subparser
    # from stomping a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--design", default=argparse.SUPPRESS,
                        help="design file (.sqd); relative paths resolve "
                             "in --out")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output directory")

    p = argparse.ArgumentParser(
        prog="sqchip",
        description="superconducting chip layout generator",
        parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("topo", help="create a grid topology",
                       parents=[common])
    q.add_argument("--rows", type=int, required=True)
    q.add_argument("--cols", type=int, required=True)

    q = sub.add_parser("params", help="solve the equivalent circuit",
                       parents=[common])
    q.add_argument("--frequencies", default="4.3e9,4.8e9",
                   help="comma-separated drive frequency set, Hz")
    q.add_argument("--qubit-capacitance", type=float, default=65e-15)
    q.add_argument("--coupling", type=float, default=5e6,
                   help="target coupling strength per edge, Hz")

    def layout_flags(q):
        q.add_argument("--style", default="xmon",
                       choices=("xmon", "transmon"))
        q.add_argument("--pitch", type=float, default=2000.0)
        q.add_argument("--border", type=float, default=500.0)
        q.add_argument("--flip-chip", action="store_true")
        q.add_argument("--readout-start", type=float, default=6.535e9)
        q.add_argument("--readout-stop", type=float, default=7.246e9)
        q.add_argument("--trace-width", type=float, default=10.0)
        q.add_argument("--trace-gap", type=float, default=6.0)
        q.add_argument("--eps-r", type=float, default=11.45)
        q.add_argument("--coupling-length", type=float, default=200.0)

    q = sub.add_parser("layout", help="place qubits and the readout bus",
                       parents=[common])
    layout_flags(q)

    q = sub.add_parser("route",
                       help="escape-route all nets (regenerates placement)",
                       parents=[common])
    layout_flags(q)
    q.add_argument("--strategy", default="pattern",
                   choices=("pattern", "maze"))
    q.add_argument("--lane-pitch", type=float, default=25.0)
    q.add_argument("--cell", type=float, default=50.0)
    q.add_argument("--clearance", type=float, default=20.0)
    q.add_argument("--corner-penalty", type=float, default=1.0)
    q.add_argument("--cross-penalty", type=float, default=2.0)
    q.add_argument("--penalty-mode", default="exact",
                   choices=("exact", "estimate-only"))

    q = sub.add_parser("devmap", help="solve a device-mapping problem",
                       parents=[common])
    q.add_argument("--param", required=True)
    q.add_argument("--target", type=float, required=True)
    q.add_argument("--evaluator", required=True,
                   help="stub:<name>[:args] or cmd:<path>")
    q.add_argument("--lo", type=float, default=None)
    q.add_argument("--hi", type=float, default=None)
    q.add_argument("--tolerance", type=float, default=1e-3)
    q.add_argument("--max-iterations", type=int, default=60)
    q.add_argument("--qubit", default=None,
                   help="retune this qubit's capacitance in the design")

    q = sub.add_parser("procmap", help="apply process rules and air bridges",
                       parents=[common])
    q.add_argument("--process", default="generic-10um")

    q = sub.add_parser("drc", help="design-rule check the layout",
                       parents=[common])
    q.add_argument("--process", default=None)

    q = sub.add_parser("gds", help="export the layout as GDSII",
                       parents=[common])
    q.add_argument("--svg", action="store_true", help="also write a preview")

    q = sub.add_parser("pipeline", help="run every stage end to end",
                       parents=[common])
    q.add_argument("--rows", type=int, default=2)
    q.add_argument("--cols", type=int, default=2)
    layout_flags(q)
    q.add_argument("--strategy", default="pattern",
                   choices=("pattern", "maze"))
    q.add_argument("--lane-pitch", type=float, default=25.0)
    q.add_argument("--process", default="generic-10um")

    q = sub.add_parser("bench", help="router scaling benchmark",
                       parents=[common])
    q.add_argument("--sizes", default="2x2,3x3,4x4",
                   help="comma-separated MxN grid sizes")
    q.add_argument("--strategies", default="pattern,maze")
    q.add_argument("--repetitions", type=int, default=3)
    q.add_argument("--parallel", action="store_true")
    q.add_argument("--csv", default="bench.csv")
    return p


def _design_path(args) -> Path:
    p = Path(args.design)
    return p if p.is_absolute() else Path(args.out) / p


def _load_or_new(args) -> DesignDocument:
    path = _design_path(args)
    if path.exists():
        return doc_mod.load_document(path)
    return DesignDocument(path.stem)


def _save(doc: DesignDocument, args) -> Path:
    path = _design_path(args)
    path.parent.mkdir(parents=True, exist_ok=True)
    return doc_mod.save_document(doc, path)


def _require_topology(doc: DesignDocument):
    if doc.topology is None:
        raise MissingSubEntity("design has no topology; run 'topo' first")


def _build_layout(doc, args):
    doc = dispatch(K_PLACE, doc, border=args.border, flip_chip=args.flip_chip,
                   name=doc.name, pitch=args.pitch, qubit_style=args.style)
    return dispatch(K_READOUT, doc, coupling_length=args.coupling_length,
                    eps_r=args.eps_r, f_start=args.readout_start,
                    f_stop=args.readout_stop, gap=args.trace_gap,
                    trace_width=args.trace_width)


def _cmd_topo(args) -> int:
    doc = _load_or_new(args)
    doc = dispatch(K_TOPOLOGY, doc, m=args.rows, n=args.cols)
    path = _save(doc, args)
    print(f"topology {args.rows}x{args.cols} "
          f"({len(doc.topology.qubits)} qubits, {len(doc.topology.edges)} "
          f"couplings) -> {path}")
    return 0


def _cmd_params(args) -> int:
    doc = _load_or_new(args)
    _require_topology(doc)
    freqs = tuple(float(f) for f in args.frequencies.split(","))
    doc = dispatch(K_CIRCUIT, doc, coupling_strength=args.coupling,
                   frequencies=freqs,
                   qubit_capacitance=args.qubit_capacitance)
    path = _save(doc, args)
    print(f"equivalent circuit for {len(doc.circuit.qubits)} qubits -> {path}")
    return 0


def _cmd_layout(args) -> int:
    doc = _load_or_new(args)
    _require_topology(doc)
    doc = _build_layout(doc, args)
    path = _save(doc, args)
    print(f"layout with {len(doc.layout.components)} components -> {path}")
    return 0


def _cmd_route(args) -> int:
    doc = _load_or_new(args)
    _require_topology(doc)
    doc = _build_layout(doc, args)
    if args.strategy == "pattern":
        doc = dispatch(K_ROUTE_PATTERN, doc, lane_pitch=args.lane_pitch,
                       trace_width=args.trace_width)
    else:
        doc = dispatch(K_ROUTE_MAZE, doc, cell=args.cell,
                       clearance=args.clearance,
                       corner_penalty=args.corner_penalty,
                       cross_penalty=args.cross_penalty,
                       lane_pitch=args.lane_pitch,
                       penalty_mode=args.penalty_mode,
                       trace_width=args.trace_width)
    summary = summarize_routing(doc.layout, args.strategy)
    path = _save(doc, args)
    print(f"routed {summary.nets_routed} nets, "
          f"{summary.total_corners} corners, "
          f"{summary.total_crossings} crossings -> {path}")
    return 0


def _cmd_devmap(args) -> int:
    evaluator = make_evaluator(args.evaluator)
    if args.qubit is not None:
        doc = _load_or_new(args)
        _require_topology(doc)
        layout = doc.layout
        # mapping needs parametric components; a reloaded design only has
        # flattened geometry, so solve against a scratch placement and leave
        # the persisted geometry alone (mapped values live in params and
        # never render into footprints anyway)
        scratch = layout is None or not any(
            c.kind in ("xmon", "transmon") for c in layout.components)
        if scratch:
            layout = place_qubits(doc.topology)
        bounds = None
        if args.lo is not None and args.hi is not None:
            bounds = (args.lo, args.hi)
        result = map_qubit_capacitance(
            layout, args.qubit, args.target, evaluator=evaluator,
            bounds=bounds, tolerance=args.tolerance,
            max_iterations=args.max_iterations)
        sections = {} if scratch else {"layout": layout}
        doc = inject(doc, ParameterBundle(doc.version, sections),
                     operation=f"devmap:{args.qubit}")
        _save(doc, args)
    else:
        if args.lo is None or args.hi is None:
            raise MissingSubEntity("standalone devmap needs --lo and --hi")
        problem = MappingProblem(args.param, args.lo, args.hi, args.target,
                                 args.tolerance, args.max_iterations)
        result = solve(problem, evaluator)
    print(f"{args.param} = {result.value:.9g} "
          f"(metric {result.metric:.9g}, {result.iterations} iterations)")
    return 0


def _cmd_procmap(args) -> int:
    doc = _load_or_new(args)
    doc = dispatch(K_PROCESS, doc, process=args.process)
    doc = dispatch(K_BRIDGES, doc)
    bridges = sum(1 for c in doc.layout.components if c.kind == "airbridge")
    path = _save(doc, args)
    print(f"process {args.process}, {bridges} air bridges -> {path}")
    return 0


def _cmd_drc(args) -> int:
    doc = _load_or_new(args)
    if doc.layout is None:
        raise MissingSubEntity("design has no layout")
    if args.process is not None:
        rules = get_process(args.process)
    elif doc.process_rules is not None:
        rules = doc.process_rules
    else:
        raise MissingSubEntity("no process selected; pass --process")
    report = drc(doc.layout, rules)
    for v in report:
        where = f" at ({v.where[0]:.1f}, {v.where[1]:.1f})" if v.where else ""
        print(f"{v.rule}: {v.message}{where}")
    print(f"{len(report)} violations against {rules.name}")
    return 0


def _cmd_gds(args) -> int:
    doc = _load_or_new(args)
    if doc.layout is None:
        raise MissingSubEntity("design has no layout")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gds_path = out / f"{doc.name}.gds"
    data = write_gds(doc.layout, gds_path)
    print(f"{len(data)} bytes -> {gds_path}")
    if args.svg:
        svg_path = out / f"{doc.name}.svg"
        svg_path.write_text(export_svg(doc.layout))
        print(f"preview -> {svg_path}")
    return 0


def _cmd_pipeline(args) -> int:
    cfg = PipelineConfig(
        name=_design_path(args).stem, rows=args.rows, cols=args.cols,
        qubit_style=args.style, pitch=args.pitch, border=args.border,
        flip_chip=args.flip_chip,
        readout_start=args.readout_start, readout_stop=args.readout_stop,
        trace_width=args.trace_width, trace_gap=args.trace_gap,
        eps_r=args.eps_r, coupling_length=args.coupling_length,
        strategy=args.strategy, lane_pitch=args.lane_pitch,
        process=args.process)
    result = run_pipeline(cfg)
    path = _save(result.document, args)
    print(f"pipeline complete: {len(result.document.topology.qubits)} qubits, "
          f"{result.routing.nets_routed} nets "
          f"({result.routing.total_crossings} crossings), "
          f"{len(result.drc_report)} DRC violations -> {path}")
    return 0


def _cmd_bench(args) -> int:
    sizes = []
    for chunk in args.sizes.split(","):
        m, _, n = chunk.lower().partition("x")
        sizes.append((int(m), int(n)))
    strategies = tuple(s.strip() for s in args.strategies.split(","))
    result = bench_mod.bench_scaling(sizes, strategies, args.repetitions,
                                     parallel=args.parallel)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / args.csv
    bench_mod.write_csv(result.records, csv_path)
    for r in result.records:
        print(f"{r.strategy} {r.m}x{r.n}: median {r.median_s:.4f}s, "
              f"{r.nets} nets, {r.crossings} crossings")
    for s, (slope, r2) in sorted(result.exponents.items()):
        print(f"{s}: time ~ qubits^{slope:.2f} (R^2 {r2:.3f})")
    for s, m, n, reason in result.failures:
        print(f"FAILED {s} {m}x{n}: {reason}", file=sys.stderr)
    print(f"csv -> {csv_path}")
    return 0


_COMMANDS = {
    "topo": _cmd_topo, "params": _cmd_params, "layout": _cmd_layout,
    "route": _cmd_route, "devmap": _cmd_devmap, "procmap": _cmd_procmap,
    "drc": _cmd_drc, "gds": _cmd_gds, "pipeline": _cmd_pipeline,
    "bench": _cmd_bench,
}


_GLOBAL_DEFAULTS = {"design": "design.sqd", "out": "."}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # shared flags default via SUPPRESS (set_defaults would mutate the
    # parent actions shared with every subparser), so fill them here
    for dest, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, dest):
            setattr(args, dest, value)
    try:
        return _COMMANDS[args.command](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SqchipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
