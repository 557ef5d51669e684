"""Command-line front end.

Subcommands mirror the pipeline stages and operate on a design file
(--design, canonical .sqd plus a GDS sidecar). Each stage subcommand
builds one PipelineConfig from its flags and runs its slice of the
pipeline's stage table through ``pipeline.run_stages``; its flags are the
PipelineConfig fields those stages read, so ``pipeline`` reaches every
field. Geometry-producing stages regenerate placement deterministically
from the document's semantic sections, so a reloaded design never goes
stale. Exit codes: 0 success, 2 validation error or missing prerequisite,
3 stage failure (naming the stage).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import bench as bench_mod
from . import document as doc_mod
from .devmap import MappingProblem, make_evaluator, map_qubit_capacitance, solve
from .document import DesignDocument, ParameterBundle, inject
# unused here; perfbench's INSTRUMENTED table traces sqchip.cli.dispatch
from .document import dispatch  # noqa: F401
from .errors import MissingSubEntity, SqchipError, StageError
from .gdsio import export_svg, write_gds
from .layout import place_qubits
from .pipeline import (
    SELECTORS,
    STAGES,
    PipelineConfig,
    config_fields,
    run_pipeline,
    run_stages,
    summarize_routing,
)
from .process import drc, get_process


def _route_report(doc, args) -> str:
    summary = summarize_routing(doc.layout, args.strategy)
    return (f"routed {summary.nets_routed} nets, {summary.total_corners} "
            f"corners, {summary.total_crossings} crossings")


def _procmap_report(doc, args) -> str:
    bridges = sum(1 for c in doc.layout.components if c.kind == "airbridge")
    return f"process {args.process}, {bridges} air bridges"


# stage subcommand -> its help, the stages of pipeline.STAGES it runs, the
# design section those stages need, and its report line; pipeline has its
# own handler
_STAGE_COMMANDS = {
    "topo": ("create a grid topology", ("topology",), None,
             lambda doc, args: f"topology {args.rows}x{args.cols} "
                               f"({len(doc.topology.qubits)} qubits, "
                               f"{len(doc.topology.edges)} couplings)"),
    "params": ("solve the equivalent circuit", ("params",), "topology",
               lambda doc, args: f"equivalent circuit for "
                                 f"{len(doc.circuit.qubits)} qubits"),
    "layout": ("place qubits and the readout bus", ("layout", "readout"),
               "topology",
               lambda doc, args: f"layout with {len(doc.layout.components)} "
                                 f"components"),
    "route": ("escape-route all nets (regenerates placement)",
              ("layout", "readout", "route"), "topology", _route_report),
    "procmap": ("apply process rules and air bridges", ("procmap", "bridges"),
                "layout", _procmap_report),
    "pipeline": ("run every stage end to end", tuple(s.name for s in STAGES),
                 None, None),
}

# PipelineConfig fields whose flag is not the field name in dashes
_SPELLINGS = {"qubit_style": "--style", "qubit_frequencies": "--frequencies",
              "coupling_strength": "--coupling", "maze_cell": "--cell",
              "maze_clearance": "--clearance"}
_HELP = {"qubit_frequencies": "comma-separated drive frequency set, Hz",
         "coupling_strength": "target coupling strength per edge, Hz"}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(f) for f in text.split(","))


def _add_stage_command(sub, common, command: str,
                       required: bool = False) -> None:
    """A stage subcommand with one flag per PipelineConfig field its stages
    read; the design name comes from --design instead."""
    help_text, stages, _, _ = _STAGE_COMMANDS[command]
    q = sub.add_parser(command, help=help_text, parents=[common])
    read = config_fields(stages) - {"name"}
    for f in fields(PipelineConfig):
        if f.name not in read:
            continue
        flag = _SPELLINGS.get(f.name, "--" + f.name.replace("_", "-"))
        if isinstance(f.default, bool):
            kind = {"action": "store_true"}
        else:
            kind = {"type": _floats if isinstance(f.default, tuple)
                    else type(f.default),
                    "choices": SELECTORS.get(f.name)}
        q.add_argument(flag, dest=f.name, default=f.default,
                       required=required, help=_HELP.get(f.name), **kind)


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

    _add_stage_command(sub, common, "topo", required=True)
    for command in ("params", "layout", "route"):
        _add_stage_command(sub, common, command)

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

    _add_stage_command(sub, common, "procmap")

    q = sub.add_parser("drc", help="design-rule check the layout",
                       parents=[common])
    q.add_argument("--process", default=None)

    q = sub.add_parser("gds", help="export the layout as GDSII",
                       parents=[common])
    q.add_argument("--svg", action="store_true", help="also write a preview")

    _add_stage_command(sub, common, "pipeline")

    q = sub.add_parser("bench", help="router scaling benchmark",
                       parents=[common])
    q.add_argument("--sizes", default="2x2,3x3,4x4",
                   help="comma-separated MxN grid sizes")
    q.add_argument("--strategies", default="pattern,maze")
    q.add_argument("--repetitions", type=int, default=3)
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


# design section -> the subcommand that makes it
_MADE_BY = {"topology": "topo", "layout": "layout"}


def _require(doc: DesignDocument, section: str):
    if getattr(doc, section) is None:
        raise MissingSubEntity(f"design has no {section}; "
                               f"run '{_MADE_BY[section]}' first")


def _config(args, name: str) -> PipelineConfig:
    return PipelineConfig(name=name, **{f.name: getattr(args, f.name)
                                        for f in fields(PipelineConfig)
                                        if hasattr(args, f.name)})


def _cmd_stages(args) -> int:
    """Run the subcommand's slice of the stage table on the design file."""
    _, stages, needs, report = _STAGE_COMMANDS[args.command]
    doc = _load_or_new(args)
    if needs is not None:
        _require(doc, needs)
    doc = run_stages(doc, _config(args, doc.name), stages)
    print(f"{report(doc, args)} -> {_save(doc, args)}")
    return 0


def _cmd_devmap(args) -> int:
    evaluator = make_evaluator(args.evaluator)
    if args.qubit is not None:
        doc = _load_or_new(args)
        _require(doc, "topology")
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


def _cmd_drc(args) -> int:
    doc = _load_or_new(args)
    _require(doc, "layout")
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
    _require(doc, "layout")
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
    result = run_pipeline(_config(args, _design_path(args).stem))
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
    result = bench_mod.bench_scaling(sizes, strategies, args.repetitions)
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
    **dict.fromkeys(_STAGE_COMMANDS, _cmd_stages),
    "devmap": _cmd_devmap, "drc": _cmd_drc, "gds": _cmd_gds,
    "pipeline": _cmd_pipeline, "bench": _cmd_bench,
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
    except SqchipError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, StageError) else 2


if __name__ == "__main__":
    sys.exit(main())
