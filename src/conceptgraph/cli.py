"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 data error.  All reports are plain
deterministic text.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional

from . import mdl, storage
from .core import ConceptGraph, Config, Description
from .errors import GraphError
from .fnsynth import learn_all, library_to_lines, parse_examples_text
from .inducer import contrast_cuts, ingest, parse, refine
from .mdl import DLReport, description_dl, model_dl, raw_dl

THETA_C = 1.0  # `ingest --scalar`'s contrast threshold when `--theta-c` is not given


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are 1
        raise UsageError(message)


@functools.cache  # built on the first `main` call, then reused: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="conceptgraph")
    sub = parser.add_subparsers(dest="command", required=True)
    graph = _Parser(add_help=False)  # the one definition of --graph, first in each command
    graph.add_argument("--graph", required=True)

    p = sub.add_parser("init", help="create a fresh graph file")
    p.add_argument("--alphabet", required=True, help="alphabet symbols, one character each")
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", parents=[graph], help="ingest episodes (one per input line)")
    p.add_argument("--input", required=True)
    p.add_argument("--scalar", action="store_true",
                   help="input lines are whitespace-separated integer levels")
    p.add_argument("--theta-c", type=float, default=None,  # `main` refuses it without --scalar
                   help=f"contrast threshold for scalar segmentation (default {THETA_C})")

    p = sub.add_parser("parse", parents=[graph], help="parse the first input line without mutating")
    p.add_argument("--input", required=True)
    p.add_argument("--report", action="store_true")

    p = sub.add_parser("refine", parents=[graph], help="append one refinement level to an episode")
    p.add_argument("--episode", type=int, required=True)

    sub.add_parser("stats", parents=[graph], help="graph summary and cumulative DL report")

    p = sub.add_parser("export", parents=[graph], help="export the concept graph as DOT")
    p.add_argument("--dot", required=True)

    p = sub.add_parser("teach", parents=[graph], help="emit a teach script for one concept")
    p.add_argument("--concept", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("learn-fn", help="learn a function library from examples")
    p.add_argument("--examples", required=True)
    p.add_argument("--report", action="store_true")

    p = sub.add_parser("segment", help="contrast-segment a scalar input")
    p.add_argument("--input", required=True)
    p.add_argument("--theta-c", type=float, required=True)
    return parser


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _desc_text(desc: Description) -> str:
    return " ".join(f"[{node}]" if type(node) is int else "'" + "".join(node) + "'"
                    for node in desc)


def _quantize(graph: ConceptGraph, levels: list[int]) -> tuple[str, ...]:
    top = len(graph.alphabet) - 1
    return tuple(graph.alphabet[min(max(level, 0), top)] for level in levels)


def _cmd_init(args) -> int:
    symbols = list(args.alphabet)
    graph = ConceptGraph(symbols, Config())
    storage.save(graph, args.out)
    print(f"initialized graph over {len(symbols)} symbols: {args.out}")
    return 0


def _cmd_ingest(args) -> int:
    graph = storage.load(args.graph)
    theta = THETA_C if args.theta_c is None else args.theta_c
    for line in _read_text(args.input).splitlines():
        if args.scalar:
            levels = [int(v) for v in line.split()]
            report = ingest(graph, _quantize(graph, levels), contrast_cuts(levels, theta))
        else:
            report = ingest(graph, line)
        print(f"episode {report.episode}: nodes={len(report.description)} "
              f"new_concepts={len(report.new_concepts)} "
              f"described_bits={description_dl(graph, report.description):.9f}")
    storage.save(graph, args.graph)
    return 0


def _cmd_parse(args) -> int:
    graph = storage.load(args.graph)
    lines = _read_text(args.input).splitlines()
    tokens = tuple(lines[0]) if lines else ()
    desc = parse(graph, tokens)
    print(f"desc: {_desc_text(desc)}")
    if args.report:
        report = DLReport(
            raw_bits=raw_dl(len(tokens), len(graph.alphabet)),
            described_bits=description_dl(graph, desc),
            model_bits=model_dl(graph),
        )
        sys.stdout.write(report.as_text())
    return 0


def _cmd_refine(args) -> int:
    graph = storage.load(args.graph)
    desc = refine(graph, args.episode)
    storage.save(graph, args.graph)
    chain = graph.refinement_store[args.episode]
    print(f"episode {args.episode} chain length {len(chain)}: "
          f"described_bits={description_dl(graph, desc):.9f}")
    return 0


def _cmd_stats(args) -> int:
    graph = storage.load(args.graph)
    kinds: dict[str, int] = {}
    for concept in graph.concepts:
        name = type(concept.kind).__name__.lower()
        kinds[name] = kinds.get(name, 0) + 1
    print(f"concepts: {len(graph)}")
    for name in sorted(kinds):
        print(f"  {name}: {kinds[name]}")
    print(f"episode: {graph.episode}")
    sys.stdout.write(mdl.graph_report(graph).as_text())
    return 0


def _cmd_export(args) -> int:
    graph = storage.load(args.graph)
    storage.export_dot(graph, args.dot)
    print(f"wrote {args.dot}")
    return 0


def _cmd_teach(args) -> int:
    graph = storage.load(args.graph)
    storage.write_text(args.out, storage.export_teach(graph, args.concept))
    print(f"wrote {args.out}")
    return 0


def _cmd_learn_fn(args) -> int:
    sets = parse_examples_text(_read_text(args.examples))
    library, unsolved = learn_all(sets)
    for line in library_to_lines(library):
        print(line)
    if args.report:
        print(f"unsolved: {' '.join(unsolved) if unsolved else '(none)'}")
    return 0


def _cmd_segment(args) -> int:
    levels = [int(v) for v in _read_text(args.input).split()]
    bounds = [0, *contrast_cuts(levels, args.theta_c), len(levels)]
    for a, b in zip(bounds, bounds[1:] if levels else ()):  # an empty stream has no segment
        print(f"{a} {b}: {' '.join(map(str, levels[a:b]))}")
    return 0


_COMMANDS = {
    "init": _cmd_init, "ingest": _cmd_ingest, "parse": _cmd_parse,
    "refine": _cmd_refine, "stats": _cmd_stats, "export": _cmd_export,
    "teach": _cmd_teach, "learn-fn": _cmd_learn_fn, "segment": _cmd_segment,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "ingest" and args.theta_c is not None and not args.scalar:
            raise UsageError("--theta-c needs --scalar")  # a text episode has no levels to cut
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (GraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
