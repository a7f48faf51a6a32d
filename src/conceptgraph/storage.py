"""Persistence and export formats: graph files, DOT, teach scripts.

Graph files are JSON with sorted keys and 9-decimal fixed float formatting,
so saving the same graph always produces the same bytes.  Loading checks
each concept with the rule that `add` uses (`ConceptGraph._validate`, through
`rebuild_derived`): references point at older concepts of a fitting kind,
so a loaded graph has no dangling reference and no cycle, and any violation
is a `CorruptFile`.  Teach scripts are line-oriented s-expressions in strict
topological order.  Every file is written atomically (`write_text`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os

from . import sexpr
from .core import (
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    Concept,
    ConceptGraph,
    Config,
    Hole,
    Kind,
    Marker,
    Primitive,
    Repeat,
    SlotRef,
    Template,
)
from .errors import (
    CorruptFile,
    GraphError,
    IoFailure,
    UnknownConcept,
    UnresolvedReference,
    VersionMismatch,
)
from .fnsynth import Library, library_from_lines, library_to_lines
from .inducer import Blob, Description, Ref

FORMAT_VERSION = "cg1"

_CONFIG_FLOATS = ("contrast_threshold", "decay", "fast_path_threshold",
                  "valence_decay", "smoothness_threshold")
_CONFIG_INTS = ("repeat_threshold", "assoc_threshold", "generalize_threshold",
                "valence_hop_cap", "beam_base", "pool_base", "synth_size_cap",
                "iter_cap", "value_cap")


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _kind_to_json(kind: Kind):
    if isinstance(kind, Primitive):
        return {"kind": "primitive", "token": kind.token}
    if isinstance(kind, Concat):
        return {"kind": "concat", "children": list(kind.children)}
    if isinstance(kind, Repeat):
        return {"kind": "repeat", "child": kind.child, "count": kind.count}
    if isinstance(kind, Template):
        body = [["hole", s.index] if isinstance(s, Hole) else ["ref", s.concept]
                for s in kind.body]
        return {"kind": "template", "body": body}
    if isinstance(kind, Apply):
        return {"kind": "apply", "template": kind.template, "fillers": list(kind.fillers)}
    if isinstance(kind, Association):
        return {"kind": "association", "a": kind.a, "b": kind.b}
    if isinstance(kind, AffectPrimitive):
        return {"kind": "affect", "sign": kind.sign}
    if isinstance(kind, Marker):
        return {"kind": "marker", "label": kind.label}
    raise TypeError(f"unknown kind {kind!r}")


def _kind_from_json(data) -> Kind:
    name = data["kind"]
    if name == "primitive":
        return Primitive(data["token"])
    if name == "concat":
        return Concat(tuple(int(c) for c in data["children"]))
    if name == "repeat":
        return Repeat(int(data["child"]), int(data["count"]))
    if name == "template":
        body = tuple(Hole(int(v)) if tag == "hole" else SlotRef(int(v))
                     for tag, v in data["body"])
        return Template(body)
    if name == "apply":
        return Apply(int(data["template"]), tuple(int(f) for f in data["fillers"]))
    if name == "association":
        return Association(int(data["a"]), int(data["b"]))
    if name == "affect":
        return AffectPrimitive(int(data["sign"]))
    if name == "marker":
        return Marker(data["label"])
    raise CorruptFile(f"unknown concept kind {name!r}")


def _desc_to_json(desc: Description):
    return [["ref", n.concept] if isinstance(n, Ref) else ["blob", list(n.tokens)]
            for n in desc.nodes]


def _desc_from_json(data, parseable: set[int]) -> Description:
    nodes = []
    for tag, payload in data:
        if tag == "ref":
            cid = int(payload)
            if cid not in parseable:
                raise CorruptFile(f"description references {cid}, which does not expand")
            nodes.append(Ref(cid))
        elif tag == "blob":
            nodes.append(Blob(tuple(payload)))
        else:
            raise CorruptFile(f"unknown description node {tag!r}")
    return Description(tuple(nodes))


def graph_to_json(graph: ConceptGraph) -> dict:
    config = {name: _fmt(getattr(graph.config, name)) for name in _CONFIG_FLOATS}
    config.update({name: getattr(graph.config, name) for name in _CONFIG_INTS})
    return {
        "version": FORMAT_VERSION,
        "alphabet": list(graph.alphabet),
        "config": config,
        "episode": graph.episode,
        "raw_bits_total": _fmt(graph.raw_bits_total),
        "concepts": [
            {"id": c.id, "created_at": c.created_at, "weight": _fmt(c.weight),
             **_kind_to_json(c.kind)}
            for c in graph.concepts
        ],
        "assoc_counts": [[a, b, n] for (a, b), n in sorted(graph.assoc_counts.items())],
        "digram_counts": [[a, b, n] for (a, b), n in sorted(graph.digram_counts.items())],
        "run_observations": {str(k): sorted(v) for k, v in sorted(graph.run_observations.items())},
        "follows_marker": graph.follows_marker_id,
        "refinements": {str(ep): [_desc_to_json(d) for d in chain]
                        for ep, chain in sorted(graph.refinement_store.items())},
        "library": library_to_lines(graph.library if graph.library is not None
                                    else Library.initial()),
    }


def dumps(graph: ConceptGraph) -> str:
    return json.dumps(graph_to_json(graph), sort_keys=True, separators=(",", ":")) + "\n"


def write_text(path: str, text: str) -> None:
    """Replace `path` with `text` via a temp file beside it and `os.replace`,
    so `path` keeps its old bytes or gets all the new ones.  On failure the
    temp file is removed and the error is `IoFailure`.  No fsync: this
    survives a failed or interrupted write, not a power cut."""
    path = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(str(exc)) from exc
        raise


def save(graph: ConceptGraph, path: str) -> None:
    write_text(path, dumps(graph))


def graph_from_json(data) -> ConceptGraph:
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"expected {FORMAT_VERSION!r}, got {version!r}")
    try:
        config_data = dict(data["config"])
        kwargs = {name: float(config_data[name]) for name in _CONFIG_FLOATS}
        kwargs.update({name: int(config_data[name]) for name in _CONFIG_INTS})
        graph = ConceptGraph(tuple(data["alphabet"]), Config(**kwargs))

        base = len(graph.concepts)
        for i, entry in enumerate(data["concepts"]):
            kind = _kind_from_json(entry)
            if int(entry["id"]) != i:
                raise CorruptFile("concept ids must be dense and ascending")
            if i < base:
                if graph.concepts[i].kind != kind:
                    raise CorruptFile("initial concepts do not match the alphabet")
            else:
                graph.concepts.append(Concept(id=i, kind=kind, weight=0.0, created_at=0))
            graph.set_weight(i, float(entry["weight"]))  # rejects NaN, inf and < 0
            graph.concepts[i].created_at = int(entry["created_at"])
        graph.rebuild_derived()  # the growth rule of `ConceptGraph._validate`

        graph.episode = int(data["episode"])
        if graph.episode < 0:
            raise CorruptFile("episode must be non-negative")
        graph.raw_bits_total = float(data["raw_bits_total"])
        if not 0.0 <= graph.raw_bits_total < math.inf:
            raise CorruptFile("raw_bits_total must be finite and non-negative")
        graph.assoc_counts = {(int(a), int(b)): int(n) for a, b, n in data["assoc_counts"]}
        graph.digram_counts = {(int(a), int(b)): int(n) for a, b, n in data["digram_counts"]}
        graph.run_observations = {int(k): set(int(c) for c in v)
                                  for k, v in data["run_observations"].items()}
        marker = data.get("follows_marker")
        graph.follows_marker_id = int(marker) if marker is not None else None
        parseable = set(graph.parseable_ids())
        for ep, chain in data["refinements"].items():
            graph.refinement_store[int(ep)] = [_desc_from_json(d, parseable) for d in chain]
        graph.library = library_from_lines(data["library"])
        return graph
    except (VersionMismatch, CorruptFile):
        raise
    except (GraphError, KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise CorruptFile(f"malformed graph file: {exc}") from exc


def load(path: str) -> ConceptGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CorruptFile("graph file must hold a JSON object")
    return graph_from_json(data)


# ----------------------------------------------------------------------
# DOT export

_KIND_NAMES = {
    Primitive: "primitive", Concat: "concat", Repeat: "repeat",
    Template: "template", Apply: "apply", Association: "association",
    AffectPrimitive: "affect", Marker: "marker",
}


def dot_text(graph: ConceptGraph) -> str:
    lines = ["digraph concepts {"]
    for concept in graph.concepts:
        kind_name = _KIND_NAMES[type(concept.kind)]
        lines.append(f'  c{concept.id} [label="{concept.id}:{kind_name}:{concept.weight:.2f}"];')
    for concept in graph.concepts:
        dashed = isinstance(concept.kind, Association)
        style = " [style=dashed]" if dashed else ""
        for ref in graph.reference_edges(concept.id):
            lines.append(f"  c{concept.id} -> c{ref}{style};")
        if dashed and graph.follows_marker_id is not None:
            lines.append(f"  c{concept.id} -> c{graph.follows_marker_id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(graph: ConceptGraph, path: str) -> None:
    write_text(path, dot_text(graph))


# ----------------------------------------------------------------------
# teach scripts

def export_teach(graph: ConceptGraph, cid: int) -> str:
    """Script rebuilding `cid` bottom-up: every line references earlier lines."""
    graph.concept(cid)  # raises UnknownConcept
    order: list[int] = []  # post-order: each concept after its references
    seen = {cid}
    stack = [(cid, iter(graph.reference_edges(cid)))]
    while stack:
        node, refs = stack[-1]
        for ref in refs:
            if ref not in seen:
                seen.add(ref)
                stack.append((ref, iter(graph.reference_edges(ref))))
                break
        else:
            order.append(node)
            stack.pop()
    index = {node: i for i, node in enumerate(order)}
    lines = []
    for node in order:
        kind = graph.concept(node).kind
        if isinstance(kind, Primitive):
            lines.append(f"(prim {sexpr.quote(kind.token)})")
        elif isinstance(kind, AffectPrimitive):
            lines.append(f"(affect {kind.sign})")
        elif isinstance(kind, Marker):
            lines.append(f"(marker {sexpr.quote(kind.label)})")
        elif isinstance(kind, Concat):
            refs = " ".join(str(index[c]) for c in kind.children)
            lines.append(f"(concat {refs})")
        elif isinstance(kind, Repeat):
            lines.append(f"(repeat {index[kind.child]} {kind.count})")
        elif isinstance(kind, Template):
            slots = " ".join(
                f"(hole {s.index})" if isinstance(s, Hole) else f"(ref {index[s.concept]})"
                for s in kind.body)
            lines.append(f"(template {slots})")
        elif isinstance(kind, Apply):
            refs = " ".join(str(index[c]) for c in (kind.template, *kind.fillers))
            lines.append(f"(apply {refs})")
        elif isinstance(kind, Association):
            lines.append(f"(assoc {index[kind.a]} {index[kind.b]})")
        else:
            raise TypeError(f"unknown kind {kind!r}")
    return "\n".join(lines) + "\n"


def _teach_kind(node, resolve) -> Kind:
    """The concept kind one parsed teach line describes."""
    head = node[0]
    if head == "prim":
        return Primitive(node[1])
    if head == "affect":
        return AffectPrimitive(int(node[1]))
    if head == "marker":
        return Marker(node[1])
    if head == "concat":
        return Concat(tuple(resolve(a) for a in node[1:]))
    if head == "repeat":
        return Repeat(resolve(node[1]), int(node[2]))
    if head == "template":
        slots = []
        for item in node[1:]:
            if item[0] == "hole":
                slots.append(Hole(int(item[1])))
            else:
                slots.append(SlotRef(resolve(item[1])))
        return Template(tuple(slots))
    if head == "apply":
        return Apply(resolve(node[1]), tuple(resolve(a) for a in node[2:]))
    if head == "assoc":
        return Association(resolve(node[1]), resolve(node[2]))
    raise CorruptFile(f"unknown teach head {head!r}")


def import_teach(graph: ConceptGraph, script: str) -> int:
    """Rebuild a taught concept in `graph`; returns the final concept id.

    All or nothing: if any line fails, the concepts the earlier lines
    added are popped again before the error propagates.
    """
    local: list[int] = []
    size = len(graph)

    def resolve(atom) -> int:
        idx = int(atom)
        if not 0 <= idx < len(local):
            raise UnresolvedReference(f"line references entry {idx} before it exists")
        return local[idx]

    try:
        for raw in script.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                local.append(graph.add(_teach_kind(sexpr.parse_one(raw), resolve)))
            except (IndexError, ValueError, TypeError) as exc:  # malformed line
                raise CorruptFile(f"bad teach line {raw!r}: {exc}") from exc
        if not local:
            raise CorruptFile("empty teach script")
    except BaseException:
        while len(graph) > size:
            graph.pop_last()
        raise
    return local[-1]
