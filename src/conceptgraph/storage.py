"""Persistence and export formats: graph files, DOT, teach scripts.

Graph files (format cg7) are JSON with sorted keys, so saving the same graph
always produces the same bytes, and loading them gives back that graph
exactly.  Each fact is stated once, in the sections `version`, `alphabet`,
`config`, `concepts`, `run_observations` and `refinements`.  A concept is
the row `[kind, weight, *fields]` at the position that is its id, its fields
in its kind record's `_fields` order, and a refinement chain is the entry at
the position that is its episode id.  A float (a weight, a float `Config`
field) is a JSON float as `json` writes it, in the shortest spelling that
`repr` reads back to the same float; NaN and infinity make `save` raise
before it writes.  A description node is a JSON integer (a concept ref) or
a JSON list of one or more alphabet tokens (a blob).  Load derives what the
chains hold: the episode count is their number, and the adjacent-pair
counts (the digram counts too) are recounted over each level 0 as `ingest`
counted them (`ConceptGraph.chain_pair_counts`); since no file can hold
other counts, `dumps` refuses a graph whose counts differ with a
`GraphError`, as it refuses a NaN; `mdl.graph_report` sums the raw
bits over the level-0 lengths.  The follows marker's id is not stored
either.  The file holds exactly the sections the saver writes, its config
exactly the fields of `Config`, and each float in `repr`'s spelling:
anything else ("1.00", "1e0", an int for a float) is a `CorruptFile`, since
its resave would differ.  Any version but cg7 is a `VersionMismatch`: a cg6
config held the parse's beam width, which the parse no longer has (it
keeps one state per position); a cg5 or cg4 config held settings no
learning step reads (the valence decay and hop cap; two thresholds), and a
cg3 file restated derived counts.

Loading hands the concept rows to `ConceptGraph`, the one path from rows to
a graph: they must start with the birth rows (a primitive per alphabet
symbol, then pleasure and pain), and each is checked once by the row
derivation that `add` uses (`ConceptGraph._enter`): its weight is one
`set_weight` takes, and its references point at older concepts of a fitting
kind, so a loaded graph has no dangling reference and no cycle.  Each
stored level is reconstructed, so its nodes keep `core`'s node rule, and
must spell what its chain's level 0 spells, as `refine` promises.  Any
violation is a `CorruptFile`, as is a file that is not UTF-8 JSON, an
integer too long for `int` to read, a section of the wrong JSON type, a
concept row of an unknown kind or the wrong length, an integer field
holding anything but a JSON integer, an empty refinement chain, a run
length below 2, or a run's members that are not a non-empty, strictly
increasing list (as the saver writes it) of parseable concepts (a run
member is a description ref).  A message bounds outside input, and the
text of an error it wraps, to `QUOTE_CHARS` (`_clip`).

A teach script is one concept's subcircuit bottom-up, a line per concept:
its row without the weight, `[kind, *fields]`, as one compact JSON array,
each reference renumbered to the line that defines it; `import_teach`
reads a line with `load`'s row reader (`_kind_from_json`).  One kind table
(`_KINDS`) gives each concept kind's name and typed fields to every reader
and writer.  Every file is written atomically (`write_text`).
"""

from __future__ import annotations

import contextlib
import json
import os
from itertools import chain

from .core import (
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    Concept,
    ConceptGraph,
    Config,
    Description,
    Hole,
    Kind,
    Marker,
    Primitive,
    Repeat,
    SlotRef,
    Template,
    reconstruct,
)
from .errors import (
    CorruptFile,
    GraphError,
    IoFailure,
    UnresolvedReference,
    VersionMismatch,
)

FORMAT_VERSION = "cg7"
QUOTE_CHARS = 60  # the longest quote of outside input an error message holds

_CONFIG_INTS = tuple(f for f in Config._fields if Config.__annotations__[f] == "int")
_CONFIG_FLOATS = tuple(f for f in Config._fields if Config.__annotations__[f] == "float")
_CONFIG_FIELDS = set(Config._fields)
# the top-level keys of a graph file, each written by `graph_to_json`
_SECTIONS = {"version", "alphabet", "config", "concepts", "run_observations", "refinements"}

REF, REFS, BODY, INT, STR = "ref", "refs", "body", "int", "str"  # field tags

# The one kind table: a concept kind's name in graph files, teach scripts
# and DOT labels, and a tag per record field, in field order.
_KINDS = {
    Primitive: ("primitive", STR),
    Concat: ("concat", REFS),
    Repeat: ("repeat", REF, INT),
    Template: ("template", BODY),
    Apply: ("apply", REF, REFS),
    Association: ("association", REF, REF),
    AffectPrimitive: ("affect", INT),
    Marker: ("marker", STR),
}
_FIELDS = {cls: tuple(zip(cls._fields, tags, strict=True))
           for cls, (_, *tags) in _KINDS.items()}  # class -> ((field, tag), ...)


def _clip(text: str) -> str:
    """`text` (a `repr` of outside input, a wrapped error's text) for an error
    message: if long, its prefix and length."""
    return text if len(text) <= QUOTE_CHARS else f"{text[:QUOTE_CHARS]}... ({len(text)} chars)"


def _exact(cls):
    """Reader of a value of type `cls` exactly: `_int` takes no float, bool
    or string, and `_float` no int, bool or string."""
    def read(value):
        if type(value) is not cls:
            raise CorruptFile(f"expected {cls.__name__}, got {type(value).__name__}")
        return value
    return read


_int, _float, _str, _list, _dict = map(_exact, (int, float, str, list, dict))


def _parse_float(text: str) -> float:
    """`load`'s reader of a JSON float: only the spelling `repr` gives, which
    is what `json.dumps` writes, since another ("1.00", "1e0") resaves
    differently."""
    if repr(number := float(text)) != text:
        raise CorruptFile(f"float {_clip(repr(text))} is not written as the saver writes it")
    return number


def _ints(values):
    """`values` if each is a JSON integer (no bool or float), in one bulk check."""
    if not set(map(type, values)) <= {int}:
        raise CorruptFile("expected integers")
    return values


def _key(text: str) -> int:
    """A section key: the canonical decimal that `str` writes."""
    if str(value := int(text)) != text:
        raise CorruptFile(f"key {_clip(repr(text))} is not a canonical integer")
    return value


def _readers(ref) -> dict:
    """Row readers by kind name: the class and a reader per field, where
    `ref` reads a reference."""
    slot = {"hole": lambda v: Hole(_int(v)), "ref": lambda v: SlotRef(ref(v))}
    by_tag = {REF: ref, REFS: lambda v: tuple(map(ref, v)), INT: _int, STR: _str,
              BODY: lambda v: tuple(slot[tag](x) for tag, x in v)}
    return {name: (cls, tuple(map(by_tag.get, tags))) for cls, (name, *tags) in _KINDS.items()}


def _writers(ref) -> dict:
    """Field writers by tag, each the inverse of its `_readers` field reader:
    `ref` maps a reference."""
    return {REF: ref, REFS: lambda v: [ref(c) for c in v], INT: int, STR: str,
            BODY: lambda v: [["hole", s.index] if isinstance(s, Hole) else ["ref", ref(s.concept)]
                             for s in v]}


# A concept row is [kind, weight, *fields].  The file writes every field
# but a template body as it is: JSON writes a tuple as an array.
_ROW_READERS = _readers(_int)
_TO_JSON = {**_writers(int), **dict.fromkeys((REF, REFS, INT, STR), lambda v: v)}
_ROW_WRITERS = {cls: (_KINDS[cls][0], tuple((name, _TO_JSON[tag]) for name, tag in named))
                for cls, named in _FIELDS.items()}  # by class: kind name, field writers


def _concept_to_json(concept: Concept) -> list:
    kind = concept.kind
    name, writers = _ROW_WRITERS[type(kind)]
    return [name, float(concept.weight), *[write(getattr(kind, field)) for field, write in writers]]


def _kind_from_json(name, values: list, readers: dict) -> Kind:
    """The kind of the row `[name, *values]`, its fields read by the row
    readers `readers` (`_readers`)."""
    if name not in readers:
        raise CorruptFile(f"unknown concept kind {_clip(repr(name))}")
    cls, fields = readers[name]
    if len(values) != len(fields):
        raise CorruptFile(f"{name} takes {len(fields)} field(s)")
    return cls(*[read(value) for read, value in zip(fields, values)])


def _concept_from_json(row) -> Concept:
    name, weight, *values = _list(row)
    return Concept(_kind_from_json(name, values, _ROW_READERS), _float(weight))


def _desc_from_json(level) -> Description:
    """A stored level, each JSON list (a blob) read as a tuple."""
    return tuple([tuple(node) if type(node) is list else node for node in _list(level)])


def graph_to_json(graph: ConceptGraph) -> dict:
    config = {name: float(getattr(graph.config, name)) for name in _CONFIG_FLOATS}
    config.update({name: getattr(graph.config, name) for name in _CONFIG_INTS})
    return {
        "version": FORMAT_VERSION,
        "alphabet": list(graph.alphabet),
        "config": config,
        "concepts": [_concept_to_json(c) for c in graph.concepts],
        "run_observations": {str(k): sorted(v) for k, v in sorted(graph.run_observations.items())},
        "refinements": list(graph.refinement_store.values()),  # in episode order
    }


def dumps(graph: ConceptGraph) -> str:
    """The graph file's text.  A `GraphError` if the pair counts are not
    those of the stored level-0 descriptions, which is all a load derives
    them from (a direct `record_associations` call, or a hand edit, makes
    counts the file cannot hold)."""
    if graph.assoc_counts != graph.chain_pair_counts():
        raise GraphError("the pair counts are not the stored level 0's, so a file cannot hold them")
    return json.dumps(graph_to_json(graph), sort_keys=True, separators=(",", ":"),
                      allow_nan=False,  # a NaN or infinity is a ValueError, as load refuses it
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
        raise VersionMismatch(f"expected {FORMAT_VERSION!r}, got {_clip(repr(version))}")
    if odd := sorted(map(str, data.keys() ^ _SECTIONS)):
        raise CorruptFile(f"extra or missing sections: {_clip(repr(odd))}")
    try:
        config_data = _dict(data["config"])
        if odd := sorted(map(str, config_data.keys() ^ _CONFIG_FIELDS)):
            raise CorruptFile(f"extra or missing config fields: {_clip(repr(odd))}")
        kwargs = {name: _float(config_data[name]) for name in _CONFIG_FLOATS}
        kwargs.update({name: _int(config_data[name]) for name in _CONFIG_INTS})
        concepts = [_concept_from_json(row) for row in _list(data["concepts"])]
        graph = ConceptGraph(tuple(_list(data["alphabet"])), Config(**kwargs), concepts)
        runs = {_key(k): _ints(_list(v)) for k, v in _dict(data["run_observations"]).items()}
        if min(runs, default=2) < 2 or not all(v and v == sorted(set(v)) for v in runs.values()):
            raise CorruptFile("a run length is below 2, or its members are not increasing")
        if not set(graph.parseable_ids()).issuperset(chain(*runs.values())):
            raise CorruptFile("a run_observations member is not a parseable concept")
        graph.run_observations = {k: set(v) for k, v in runs.items()}
        for ep, stored in enumerate(_list(data["refinements"])):
            levels = graph.refinement_store[ep] = [_desc_from_json(v) for v in _list(stored)]
            if not levels:
                raise CorruptFile("a refinement chain is empty")
            spelled = reconstruct(graph, levels[0])  # which holds each node to the rule
            if any(reconstruct(graph, level) != spelled for level in levels[1:]):
                raise CorruptFile("a refinement level does not spell its episode's level 0")
            if len(levels) > 1:
                graph.deep_chains.add(ep)
        graph.assoc_counts = graph.chain_pair_counts()  # as `ingest` counted them
        return graph
    except (GraphError, KeyError, ValueError, TypeError, IndexError, OverflowError) as exc:
        raise CorruptFile(f"malformed graph file: {_clip(str(exc))}") from exc


def load(path: str) -> ConceptGraph:
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read().decode("utf-8"), parse_float=_parse_float)
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, an integer too long, too deep
        raise CorruptFile(f"unreadable graph file: {_clip(str(exc))}") from exc
    return graph_from_json(data)


# ----------------------------------------------------------------------
# DOT export

def dot_text(graph: ConceptGraph) -> str:
    lines = ["digraph concepts {"]
    for cid, concept in enumerate(graph.concepts):
        kind_name = _KINDS[type(concept.kind)][0]
        lines.append(f'  c{cid} [label="{cid}:{kind_name}:{concept.weight:.2f}"];')
    for cid, concept in enumerate(graph.concepts):
        dashed = isinstance(concept.kind, Association)
        style = " [style=dashed]" if dashed else ""
        for ref in graph.reference_edges(cid):
            lines.append(f"  c{cid} -> c{ref}{style};")
        if dashed and graph.follows_marker_id is not None:
            lines.append(f"  c{cid} -> c{graph.follows_marker_id} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(graph: ConceptGraph, path: str) -> None:
    write_text(path, dot_text(graph))


# ----------------------------------------------------------------------
# teach scripts

def export_teach(graph: ConceptGraph, cid: int) -> str:
    """Script rebuilding `cid` bottom-up: one line per concept of its
    subcircuit, each its graph-file row without the weight, `[kind,
    *fields]`, and each reference the index of an earlier line."""
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
        row = [_KINDS[type(kind)][0],
               *[write[tag](getattr(kind, name)) for name, tag in _FIELDS[type(kind)]]]
        lines.append(json.dumps(row, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def import_teach(graph: ConceptGraph, script: str) -> int:
    """Rebuild a taught concept in `graph`; returns the final concept id.

    A line that is not a JSON row `load` reads is a `CorruptFile`, a
    reference to no earlier line an `UnresolvedReference`, and a kind that
    `add` refuses raises `add`'s own error, its text bounded (`_clip`).  All
    or nothing: if any line fails, the concepts the earlier lines added are
    popped again before the error propagates.  A script that is not a `str`
    is a `CorruptFile`.
    """
    if not isinstance(script, str):
        raise CorruptFile(f"a teach script is a str, not {type(script).__name__}")
    local: list[int] = []
    size = len(graph)

    def resolve(value) -> int:
        if not 0 <= _int(value) < len(local):
            raise UnresolvedReference(f"line references entry {value} before it exists")
        return local[value]

    readers = _readers(resolve)
    try:
        for raw in script.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                name, *values = _list(json.loads(raw))
                kind = _kind_from_json(name, values, readers)
            except (IndexError, KeyError, ValueError, TypeError, RecursionError) as exc:
                raise CorruptFile(f"bad teach line {_clip(repr(raw))}: {_clip(str(exc))}") from exc
            try:
                local.append(graph.add(kind))
            except GraphError as exc:  # add's own error, its text bounded
                raise type(exc)(_clip(str(exc))) from exc
        if not local:
            raise CorruptFile("empty teach script")
    except BaseException:
        while len(graph) > size:
            graph.pop_last()
        raise
    return local[-1]
