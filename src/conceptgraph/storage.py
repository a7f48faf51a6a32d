"""Persistence and export formats: graph files, DOT, teach scripts.

Graph files are JSON with sorted keys and 9-decimal fixed float formatting,
so saving the same graph always produces the same bytes.  Loading checks
each concept with the rule that `add` uses (`ConceptGraph._validate`, through
`rebuild_derived`): references point at older concepts of a fitting kind,
so a loaded graph has no dangling reference and no cycle, and any violation
is a `CorruptFile`, as is a file that is not UTF-8 JSON, a section of the
wrong JSON type, an integer field holding anything but a JSON integer, a
blob other than a list of one or more alphabet tokens, or a `digram_counts`
section other than the association counts of distinct pairs.  Teach
scripts are line-oriented s-expressions in strict topological order.  One
kind table (`_KINDS`) gives each concept kind's names and typed fields to
every reader and writer.  Every file is written atomically (`write_text`).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import fields
from itertools import chain

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
from .inducer import Description

FORMAT_VERSION = "cg1"

_CONFIG_INTS = tuple(f.name for f in fields(Config) if f.type == "int")
_CONFIG_FLOATS = tuple(f.name for f in fields(Config) if f.type == "float")

REF, REFS, BODY, INT, STR = "ref", "refs", "body", "int", "str"  # field tags

# The one kind table: a concept kind's name in graph files and DOT labels,
# its teach head, and a tag per dataclass field, in field order.
_KINDS = {
    Primitive: ("primitive", "prim", STR),
    Concat: ("concat", "concat", REFS),
    Repeat: ("repeat", "repeat", REF, INT),
    Template: ("template", "template", BODY),
    Apply: ("apply", "apply", REF, REFS),
    Association: ("association", "assoc", REF, REF),
    AffectPrimitive: ("affect", "affect", INT),
    Marker: ("marker", "marker", STR),
}
_FIELDS = {cls: tuple(zip([f.name for f in fields(cls)], tags, strict=True))
           for cls, (_, _, *tags) in _KINDS.items()}  # class -> ((field, tag), ...)
_BY_NAME = {row[0]: cls for cls, row in _KINDS.items()}
_BY_HEAD = {row[1]: cls for cls, row in _KINDS.items()}


def _fmt(x: float) -> str:
    return f"{x:.9f}"


def _exact(cls):
    """Reader of a value of type `cls` exactly: `_int` takes no float, bool or string."""
    def read(value):
        if type(value) is not cls:
            raise CorruptFile(f"expected {cls.__name__}, got {type(value).__name__}")
        return value
    return read


_int, _str, _list, _dict = _exact(int), _exact(str), _exact(list), _exact(dict)


def _ints(values):
    """`values` if each is a JSON integer (no bool or float), in one bulk check."""
    if not set(map(type, values)) <= {int}:
        raise CorruptFile("expected integers")
    return values


def _key(text: str) -> int:
    """A section key: the canonical decimal that `str` writes."""
    if str(value := int(text)) != text:
        raise CorruptFile(f"key {text!r} is not a canonical integer")
    return value


def _readers(ref, number) -> dict:
    """Field readers by tag: `ref` reads a reference, `number` another integer."""
    slot = {"hole": lambda v: Hole(number(v)), "ref": lambda v: SlotRef(ref(v))}
    return {REF: ref, REFS: lambda v: tuple(map(ref, v)), INT: number, STR: _str,
            BODY: lambda v: tuple(slot[tag](x) for tag, x in v)}


def _writers(ref) -> dict:
    """Field writers by tag, the inverse of `_readers`: `ref` maps a reference."""
    return {REF: ref, REFS: lambda v: [ref(c) for c in v], INT: int, STR: str,
            BODY: lambda v: [["hole", s.index] if isinstance(s, Hole) else ["ref", ref(s.concept)]
                             for s in v]}


_FROM_JSON, _TO_JSON = _readers(_int, _int), _writers(int)


def _desc_to_json(desc: Description):
    return [["ref", n] if type(n) is int else ["blob", list(n)] for n in desc.nodes]


def _desc_from_json(data, parseable: set[int], alphabet: set[str]) -> Description:
    """A stored level: a ref names a parseable concept, and a blob is a JSON
    list of one or more alphabet tokens."""
    nodes = []
    for tag, node in data:
        if tag == "ref":
            if type(node) is not int or node not in parseable:
                raise CorruptFile(f"description references {node!r}, which does not expand")
        elif tag == "blob":
            node = tuple(_list(node))  # a non-string is no alphabet token
            if not node or not alphabet.issuperset(node):
                raise CorruptFile(f"blob {node!r} is not one or more alphabet tokens")
        else:
            raise CorruptFile(f"unknown description node {tag!r}")
        nodes.append(node)
    return Description(tuple(nodes))


def _digram_section(graph: ConceptGraph) -> list[list[int]]:
    """The file's `digram_counts`: the association counts of distinct pairs."""
    return [[a, b, n] for (a, b), n in sorted(graph.assoc_counts.items()) if a != b]


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
             "kind": _KINDS[type(c.kind)][0],
             **{name: _TO_JSON[tag](getattr(c.kind, name)) for name, tag in _FIELDS[type(c.kind)]}}
            for c in graph.concepts
        ],
        "assoc_counts": [[a, b, n] for (a, b), n in sorted(graph.assoc_counts.items())],
        "digram_counts": _digram_section(graph),
        "run_observations": {str(k): sorted(v) for k, v in sorted(graph.run_observations.items())},
        "follows_marker": graph.follows_marker_id,
        "refinements": {str(ep): [_desc_to_json(d) for d in chain]
                        for ep, chain in sorted(graph.refinement_store.items())},
        "library": library_to_lines(graph.library if graph.library is not None
                                    else Library.initial()),
    }


def dumps(graph: ConceptGraph) -> str:
    return json.dumps(graph_to_json(graph), sort_keys=True, separators=(",", ":"),
                      check_circular=False) + "\n"  # a fresh tree: no cycle to look for


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
    version = _dict(data).get("version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"expected {FORMAT_VERSION!r}, got {version!r}")
    try:
        config_data = _dict(data["config"])
        kwargs = {name: float(config_data[name]) for name in _CONFIG_FLOATS}
        kwargs.update({name: _int(config_data[name]) for name in _CONFIG_INTS})
        graph = ConceptGraph(tuple(_list(data["alphabet"])), Config(**kwargs))

        concepts = graph.concepts  # the initial ones, which the file repeats; then appended
        for i, entry in enumerate(data["concepts"]):
            cls = _BY_NAME.get(entry["kind"])
            if cls is None:
                raise CorruptFile(f"unknown concept kind {entry['kind']!r}")
            kind = cls(*[_FROM_JSON[tag](entry[name]) for name, tag in _FIELDS[cls]])
            weight = float(entry["weight"])
            if _int(entry["id"]) != i or not 0.0 <= weight < math.inf:
                raise CorruptFile(f"concept {i}: id out of order or weight not finite and >= 0")
            if i < len(concepts) and concepts[i].kind != kind:
                raise CorruptFile("initial concepts do not match the alphabet")
            concepts[i:i + 1] = [Concept(i, kind, weight, _int(entry["created_at"]))]
        graph.rebuild_derived()  # the growth rule of `ConceptGraph._validate`; the code mass

        graph.episode = _int(data["episode"])
        if graph.episode < 0:
            raise CorruptFile("episode must be non-negative")
        graph.raw_bits_total = float(data["raw_bits_total"])
        if not 0.0 <= graph.raw_bits_total < math.inf:
            raise CorruptFile("raw_bits_total must be finite and non-negative")
        for name in ("assoc_counts", "digram_counts"):  # row lengths: unpacking, comparison
            _ints(chain.from_iterable(_list(data[name])))
        graph.assoc_counts = {(a, b): n for a, b, n in data["assoc_counts"]}
        if data["digram_counts"] != _digram_section(graph):
            raise CorruptFile("digram_counts differs from the association counts")
        graph.run_observations = {_key(k): set(_ints(_list(v)))
                                  for k, v in _dict(data["run_observations"]).items()}
        marker = data.get("follows_marker")
        graph.follows_marker_id = _int(marker) if marker is not None else None
        parseable, alphabet = set(graph.parseable_ids()), set(graph.alphabet)
        for ep, levels in _dict(data["refinements"]).items():
            graph.refinement_store[_key(ep)] = [_desc_from_json(d, parseable, alphabet)
                                                for d in levels]
        graph.library = library_from_lines(_list(data["library"]))
        return graph
    except (GraphError, KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise CorruptFile(f"malformed graph file: {exc}") from exc


def load(path: str) -> ConceptGraph:
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # or nested too deep
        raise CorruptFile(f"not UTF-8 JSON: {exc}") from exc
    return graph_from_json(data)


# ----------------------------------------------------------------------
# DOT export

def dot_text(graph: ConceptGraph) -> str:
    lines = ["digraph concepts {"]
    for concept in graph.concepts:
        kind_name = _KINDS[type(concept.kind)][0]
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
    lines, write = [], _writers(index.__getitem__)
    for node in order:
        kind = graph.concept(node).kind
        parts = [_KINDS[type(kind)][1]]
        for name, tag in _FIELDS[type(kind)]:
            value = write[tag](getattr(kind, name))
            if tag == REFS:
                parts += map(str, value)
            elif tag == BODY:
                parts += (f"({t} {v})" for t, v in value)
            else:
                parts.append(sexpr.quote(value) if tag == STR else str(value))
        lines.append("(" + " ".join(parts) + ")")
    return "\n".join(lines) + "\n"


def _teach_kind(node, read: dict) -> Kind:
    """The concept kind one parsed teach line describes."""
    cls = _BY_HEAD.get(node[0])
    if cls is None:
        raise CorruptFile(f"unknown teach head {node[0]!r}")
    tags, values = [tag for _, tag in _FIELDS[cls]], node[1:]
    if tags[-1] in (REFS, BODY):  # the last field takes the rest of the line
        values = [*values[:len(tags) - 1], values[len(tags) - 1:]]
    if len(values) != len(tags):
        raise CorruptFile(f"{node[0]} takes {len(tags)} field(s), got {len(values)}")
    return cls(*[read[tag](v) for tag, v in zip(tags, values)])


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

    read = _readers(resolve, int)
    try:
        for raw in script.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                local.append(graph.add(_teach_kind(sexpr.parse_one(raw), read)))
            except (IndexError, KeyError, ValueError, TypeError) as exc:  # malformed line
                raise CorruptFile(f"bad teach line {raw!r}: {exc}") from exc
        if not local:
            raise CorruptFile("empty teach script")
    except BaseException:
        while len(graph) > size:
            graph.pop_last()
        raise
    return local[-1]
