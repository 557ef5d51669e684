"""Design document, extract/inject, request dispatch, and .sqd persistence.

The document owns at most one of each sub-entity (topology, equivalent
circuit, chip layout, process rules). Changes reach it through ``inject``,
which re-validates cross-entity references, appends to the provenance log
and returns a new document. ``extract`` hands an outside tool a deep copy
to work on. The pipeline's stage work instead edits the run's one layout
in place before injecting it, so a document passed to a stage must not be
used again. Persistence is canonical sorted-key JSON.

A stage's provenance record keeps the arguments the stage ran with, so a
file may leave its layout out and have ``sqchip.pipeline.rebuild`` replay
it; that is how the CLI keeps a design. ``save_document`` instead stores
the layout, as a GDS sidecar referenced by path, which ``load`` imports:
the one way to keep a layout no record can rebuild, such as an import.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .circuit import CouplingParams, EquivalentCircuit, QubitElectricalParams
from .components import QUBIT_KINDS
from .errors import (
    CrossEntityViolation,
    FieldTypeError,
    MissingSubEntity,
    NonPositiveInput,
    ParseError,
    UnknownSelector,
    UnregisteredRequest,
    VersionMismatch,
    check_selector,
)
from .process import ProcessRules
from .topology import Topology, generate_grid

SCHEMA_VERSION = "sqd-1"
_EPOCH_ISO = "1970-01-01T00:00:00Z"   # pinned: identical runs, identical bytes

_SECTIONS = ("topology", "circuit", "layout", "process_rules")


@dataclass
class DesignDocument:
    name: str = "design"
    version: str = SCHEMA_VERSION
    topology: Topology | None = None
    circuit: EquivalentCircuit | None = None
    layout: object | None = None          # ChipLayout
    process_rules: ProcessRules | None = None
    provenance_log: list[dict] = field(default_factory=list)


@dataclass
class ParameterBundle:
    version: str = SCHEMA_VERSION
    sections: dict[str, object] = field(default_factory=dict)


def _circuit_qubit_ids(circuit: EquivalentCircuit) -> set[str]:
    return set(circuit.qubits).union(*circuit.couplings)


def _layout_qubit_ids(layout) -> set[str]:
    comps = layout.components
    return ({c.comp_id for c in comps if c.kind in QUBIT_KINDS}
            | {c.params["qubit_id"] for c in comps
               if c.kind == "resonator" and c.params.get("qubit_id")})


def validate_references(topology, circuit, layout) -> None:
    """Cross-entity invariant: circuit and layout may only name topology
    qubits."""
    known = set(topology.qubits) if topology is not None else set()
    for name, ids, entity in (("circuit", _circuit_qubit_ids, circuit),
                              ("layout", _layout_qubit_ids, layout)):
        stray = set() if entity is None else ids(entity) - known
        if stray:
            raise CrossEntityViolation(
                f"{name} references unknown qubits {sorted(stray)}")


def extract(doc: DesignDocument, selector: str) -> ParameterBundle:
    """Deep snapshot of one sub-entity (or "all"); the document is untouched."""
    if selector == "all":
        names = [s for s in _SECTIONS if getattr(doc, s) is not None]
    elif selector in _SECTIONS:
        if getattr(doc, selector) is None:
            raise MissingSubEntity(f"document has no {selector}")
        names = [selector]
    else:
        raise UnknownSelector(
            f"selector {selector!r}; expected one of {_SECTIONS} or 'all'")
    return ParameterBundle(doc.version, {
        name: copy.deepcopy(getattr(doc, name)) for name in names})


def inject(doc: DesignDocument, bundle: ParameterBundle,
           operation: str = "inject", args: dict | None = None
           ) -> DesignDocument:
    """Replace the bundle's sub-entities atomically; returns a new document.

    The input document is never modified, so any validation error leaves
    the caller's state exactly as it was. A stage passes the arguments it
    ran with as ``args``, which the record keeps for a replay.
    """
    if bundle.version != doc.version:
        raise VersionMismatch(
            f"bundle is {bundle.version}, document is {doc.version}")
    unknown = set(bundle.sections) - set(_SECTIONS)
    if unknown:
        raise UnknownSelector(f"bundle carries unknown sections "
                              f"{sorted(unknown)}")
    merged = {s: getattr(doc, s) for s in _SECTIONS}
    merged.update(bundle.sections)
    validate_references(merged["topology"], merged["circuit"],
                        merged["layout"])
    record = {
        "operation": operation,
        "timestamp": _EPOCH_ISO,
        "digest": _bundle_digest(bundle),
    }
    if args is not None:
        record["args"] = dict(args)
    return DesignDocument(
        doc.name, doc.version,
        merged["topology"], merged["circuit"], merged["layout"],
        merged["process_rules"],
        doc.provenance_log + [record],
    )


def _bundle_digest(bundle: ParameterBundle) -> str:
    h = hashlib.sha256()
    for name in sorted(bundle.sections):
        h.update(name.encode())
        value = bundle.sections[name]
        if name == "layout" and value is not None:
            # the pieces of the layout's GDS stream: hashing them in turn
            # hashes the stream without joining it
            from .gdsio import stream_pieces
            for piece in stream_pieces(value):
                h.update(piece)
        else:
            data = None if value is None else _CODECS[name][0](value)
            h.update(json.dumps(data, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---- request dispatch ------------------------------------------------------

_CATEGORIES = ("design-entity", "function", "library")


@dataclass(frozen=True)
class RequestKey:
    category: str
    operation: str
    parameter_signature: tuple[str, ...] = ()

    def __post_init__(self):
        check_selector("request category", self.category, _CATEGORIES)
        object.__setattr__(self, "parameter_signature",
                           tuple(sorted(self.parameter_signature)))


_REGISTRY: dict[RequestKey, object] = {}


def register(key: RequestKey, handler) -> None:
    if key in _REGISTRY and _REGISTRY[key] is not handler:
        raise UnknownSelector(f"request {key} already has a handler")
    _REGISTRY[key] = handler


def registered_requests() -> list[RequestKey]:
    from . import pipeline  # noqa: F401  (loading it registers the stages)
    return sorted(_REGISTRY, key=lambda k: (k.category, k.operation))


def dispatch(key: RequestKey, doc: DesignDocument, **args) -> DesignDocument:
    """Route a request to its registered handler (extract-process-inject).

    The argument names must match the key's parameter signature: a different
    combination is a different request and is refused. A key with no handler
    yet loads ``sqchip.pipeline``, whose import registers every stage, before
    it is refused.
    """
    handler = _REGISTRY.get(key)
    if handler is None:
        from . import pipeline  # noqa: F401  (loading it registers the stages)
        handler = _REGISTRY.get(key)
    if handler is None:
        raise UnregisteredRequest(f"no handler for {key}")
    if tuple(sorted(args)) != key.parameter_signature:
        raise UnregisteredRequest(
            f"{key.operation} expects parameters {key.parameter_signature}, "
            f"got {tuple(sorted(args))}")
    return handler(doc, **args)


# ---- persistence -----------------------------------------------------------

def _topology_to_json(t: Topology) -> dict:
    return {
        "qubits": {q: list(pos) for q, pos in sorted(t.qubits.items())},
        "edges": sorted(list(e) for e in t.edges),
        "grid_dims": list(t.grid_dims),
    }


def _pair(value, kind: type, where: str) -> tuple:
    """value as a 2-tuple of kind, or TypeError naming where."""
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, kind) and not isinstance(v, bool)
                    for v in value)):
        raise TypeError(f"{where} must be a pair of {kind.__name__}, "
                        f"got {value!r}")
    return tuple(value)


def _topology_from_json(d: dict) -> Topology:
    """The generate_grid lattice d describes; any other topology is refused
    as a ValueError."""
    m, n = _pair(d.get("grid_dims"), int, "grid_dims")
    # counted before the lattice is built, so huge dims allocate nothing
    if m < 1 or n < 1 or len(d["qubits"]) != m * n:
        raise ValueError(f"grid_dims {m}x{n} do not fit "
                         f"{len(d['qubits'])} qubits")
    topo = generate_grid(m, n)
    want = _topology_to_json(topo)
    if (d["qubits"] != want["qubits"] or sorted(d["edges"]) != want["edges"]
            or any(type(v) is not int
                   for pos in d["qubits"].values() for v in pos)):
        raise ValueError(f"qubits and edges are not the {m}x{n} lattice")
    return topo


_LEAF_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
               "bool": (bool,)}


def check_leaves(cls, data: dict, where: str = "") -> None:
    """Refuse, as a FieldTypeError (a TypeError), a value of the wrong type
    in a float, int, str or bool field of cls (a bool fits only a bool
    field); where prefixes the field name in the message."""
    for f in fields(cls):
        value = data.get(f.name)
        kinds = _LEAF_TYPES.get(f.type)
        if f.name in data and kinds and (isinstance(value, bool) != (
                kinds == (bool,)) or not isinstance(value, kinds)):
            raise FieldTypeError(f"{where}{f.name} must be {f.type}, "
                            f"got {value!r}")


def _record(cls, data: dict, where: str = ""):
    """cls(**data), once check_leaves passes it."""
    check_leaves(cls, data, where)
    return cls(**data)


_QUBIT_FIELDS = tuple(f.name for f in fields(QubitElectricalParams))
_COUPLING_FIELDS = tuple(f.name for f in fields(CouplingParams))


def _circuit_to_json(c: EquivalentCircuit) -> dict:
    # field dicts built directly: equal to asdict's for these flat records
    # (str, float and a tuple of str), without its recursive deep copy
    return {
        "qubits": {q: {n: getattr(p, n) for n in _QUBIT_FIELDS}
                   for q, p in sorted(c.qubits.items())},
        "couplings": {"|".join(e): {n: getattr(p, n)
                                    for n in _COUPLING_FIELDS}
                      for e, p in sorted(c.couplings.items())},
    }


def _circuit_from_json(d: dict) -> EquivalentCircuit:
    qubits = {q: _record(QubitElectricalParams, p, f"qubits.{q}.")
              for q, p in d["qubits"].items()}
    couplings = {}
    for key, p in d["couplings"].items():
        edge = _pair(key.split("|"), str, f"couplings.{key}")
        couplings[edge] = _record(CouplingParams, {**p, "edge": edge},
                                  f"couplings.{key}.")
    return EquivalentCircuit(qubits, couplings)


# section -> (to JSON, from JSON); the layout travels as a GDS sidecar
_CODECS = {
    "topology": (_topology_to_json, _topology_from_json),
    "circuit": (_circuit_to_json, _circuit_from_json),
    "process_rules": (asdict, lambda d: _record(ProcessRules, d)),
}


def save(doc: DesignDocument, layout_ref: str | None = None) -> bytes:
    """Serialize to canonical .sqd bytes.

    The layout itself is not embedded: layout_ref names the GDS sidecar the
    caller writes (save_document handles the pair). A document with a layout
    needs a reference.
    """
    payload: dict = {"meta": {"name": doc.name, "version": doc.version}}
    for name, (to_json, _) in _CODECS.items():
        if getattr(doc, name) is not None:
            payload[name] = to_json(getattr(doc, name))
    if doc.layout is not None:
        if layout_ref is None:
            raise MissingSubEntity(
                "document has a layout; pass layout_ref for the GDS sidecar")
        payload["layout_ref"] = str(layout_ref)
        # the GDS sidecar has no field for the stack, so a flip-chip layout
        # says so here; single-face files keep their bytes
        if doc.layout.flip_chip:
            payload["flip_chip"] = True
    payload["provenance"] = doc.provenance_log
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def load(data: bytes, base_dir: str | Path = ".") -> DesignDocument:
    """Parse .sqd bytes; a layout_ref is resolved relative to base_dir and
    its sidecar imported."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise ParseError("design file is not UTF-8 text", offset=e.start) from e
    except json.JSONDecodeError as e:
        raise ParseError(f"bad design file: {e.msg}", offset=e.pos) from e
    except RecursionError as e:      # nested past the decoder's depth limit
        raise ParseError("design file nests too deeply") from e
    if not isinstance(payload, dict):
        raise ParseError("design file root must be an object", path="$")
    meta = payload.get("meta")
    if not (isinstance(meta, dict) and isinstance(meta.get("name"), str)
            and "version" in meta):
        raise ParseError("missing or malformed meta section", path="meta")
    if meta["version"] != SCHEMA_VERSION:
        raise VersionMismatch(
            f"file is {meta['version']!r}, reader is {SCHEMA_VERSION!r}")

    doc = DesignDocument(meta["name"], meta["version"])
    for name, (_, from_json) in _CODECS.items():
        if name in payload:
            try:
                setattr(doc, name, from_json(payload[name]))
            except (AttributeError, KeyError, TypeError, ValueError,
                    NonPositiveInput) as e:
                raise ParseError(f"malformed {name}: {e}", path=name) from e
    # the layout fields are checked before the sidecar is read
    flip_chip = payload.get("flip_chip", False)
    if not isinstance(flip_chip, bool) or (
            "flip_chip" in payload and "layout_ref" not in payload):
        raise ParseError("flip_chip must be true or false, next to a "
                         "layout_ref", path="flip_chip")
    if "layout_ref" in payload:
        if not isinstance(payload["layout_ref"], str):
            raise ParseError("layout_ref must be a file name",
                             path="layout_ref")
        from .gdsio import layout_from_gds
        ref = Path(payload["layout_ref"])
        if not ref.is_absolute():
            ref = Path(base_dir) / ref
        try:
            data = ref.read_bytes()
        except (OSError, ValueError) as e:     # missing, a directory, a NUL
            raise ParseError(f"layout sidecar {ref} cannot be read: {e}",
                             path="layout_ref") from e
        doc.layout = layout_from_gds(data)
        doc.layout.flip_chip = flip_chip
    provenance = payload.get("provenance", [])
    if not (isinstance(provenance, list) and all(
            isinstance(r, dict) and isinstance(r.get("operation"), str)
            for r in provenance)):
        raise ParseError("provenance must be a list of operation records",
                         path="provenance")
    doc.provenance_log = provenance
    validate_references(doc.topology, doc.circuit, doc.layout)
    return doc


def save_document(doc: DesignDocument, path: str | Path) -> Path:
    """Write <path> plus, when a layout is present, a .gds sidecar next to
    it; the file references the sidecar by bare name so the pair relocates
    together."""
    path = Path(path)
    ref = None
    if doc.layout is not None:
        from .gdsio import write_gds
        sidecar = path.with_suffix(".gds")
        write_gds(doc.layout, sidecar)
        ref = sidecar.name
    path.write_bytes(save(doc, layout_ref=ref))
    return path


def load_document(path: str | Path) -> DesignDocument:
    path = Path(path)
    return load(path.read_bytes(), base_dir=path.parent)
