"""The four seeded workloads: input generation, timed ops and output checks.

A run is a sequence of units.  A unit is one complete, independent piece of
user work from a fresh state: a stream ingested into a new graph, one
synthesized ensemble, or one CLI session on a new graph file.  Unit k of
seed s is generated from sub-seed s * 1000 + k, so every run of a seed sees
the same inputs in the same order, and a run's median covers several
independent draws of the generator instead of one.

`run_unit` times a unit's ops, calling the program through the module
attribute its own callers use, so the traced run sees every call.  `check`
(the output checks, returning the number of failed ops) and `quality`
(determinism numbers and hashes) run after the unit's clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

CLOCK = time.perf_counter

RANDOM_SIGMA = "abcdefghijklmnop"
EPISODE_TOKENS = 64
# Raised caps for the truth check only: the synthesizer's caps bound search
# cost, and a correct term such as succ(dbl(dbl(mul(x, y)))) for quadp
# exceeds the default iteration cap on part of the grid.
CHECK_ITER_CAP = 10**4
CHECK_VALUE_CAP = 10**9

# Unit sizes and the fixed number of units a run measures.  "full" is what
# the benchmark measures, and every commit measures the same units.  The
# counts make two passes take about 12 s at the reference speed of run.py
# on the seed commit; fn_ensemble takes about 26 s, because its unit is one
# 3.3-s learn_all and fewer than four units left its median spreading 8-13%
# across seeds.  "tiny" keeps the smoke test to a few seconds and
# exercises the same code paths.
SIZES = {
    "full": {"random_episodes": 100, "grammar_episodes": 200,
             "fn_labels": None, "fn_examples": 32,
             "cli_lines": 120, "cli_refines": 120,
             "units": {"random_stream": 8, "grammar_stream": 16,
                       "fn_ensemble": 4, "cli_session": 5}},
    "tiny": {"random_episodes": 8, "grammar_episodes": 16,
             "fn_labels": ("add", "dbl", "mul", "sq"), "fn_examples": 32,
             "cli_lines": 4, "cli_refines": 6,
             "units": {"random_stream": 1, "grammar_stream": 1,
                       "fn_ensemble": 1, "cli_session": 1}},
}


@dataclass
class UnitResult:
    wall_s: float                  # unit clock: its ops and the glue between them
    op_s: list[float]              # one latency per timed op
    attempted: int                 # ops whose output is checked
    state: dict = field(default_factory=dict)
    ref_s: float = 0.0             # wall_s at the calibration's reference speed


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_failure(what: str) -> None:
    print(f"FAILED {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Workload:
    def __init__(self, mods: dict, seed: int, size: dict, workdir: str):
        self.mods = mods
        self.seed = seed
        self.size = size
        self.workdir = workdir


class StreamWorkload(Workload):
    """Episodes ingested one `ingest` call (one op) at a time."""

    def run_unit(self, unit) -> UnitResult:
        graph = self.mods["core"].ConceptGraph(unit["alphabet"])
        ingest = self.mods["inducer"].ingest
        descs: list = []
        op_s: list[float] = []
        t_unit = CLOCK()
        for tokens in unit["episodes"]:
            t0 = CLOCK()
            try:
                descs.append(ingest(graph, tokens).description)
            except Exception:
                _report_failure(f"ingest of episode {len(descs)}")
                descs.append(None)
            op_s.append(CLOCK() - t0)
        return UnitResult(CLOCK() - t_unit, op_s, len(op_s), {"graph": graph, "descs": descs})

    def check(self, unit, result: UnitResult) -> int:
        """Every ingested episode reconstructs exactly, at the end of the stream."""
        reconstruct = self.mods["inducer"].reconstruct
        graph = result.state["graph"]
        failed = 0
        for i, (tokens, desc) in enumerate(zip(unit["episodes"], result.state["descs"])):
            try:
                ok = desc is not None and reconstruct(graph, desc) == tokens
            except Exception:
                _report_failure(f"reconstruct of episode {i}")
                ok = False
            if not ok:
                print(f"FAILED episode {i} does not reconstruct", file=sys.stderr)
                failed += 1
        return failed

    def quality(self, unit, result: UnitResult) -> dict:
        graph = result.state["graph"]
        return {"two_part_bits": self.mods["mdl"].two_part_total(graph),
                "concepts": len(graph),
                "graph_sha256": _sha256(self.mods["storage"].dumps(graph)),
                **unit.get("extra", {})}


class RandomStream(StreamWorkload):
    def make_unit(self, k: int) -> dict:
        # the acceptance-01 generator: uniform symbols, lengths 0..256
        rng = random.Random(sub_seed(self.seed, k))
        episodes = [tuple(rng.choice(RANDOM_SIGMA) for _ in range(rng.randint(0, 256)))
                    for _ in range(self.size["random_episodes"])]
        return {"alphabet": RANDOM_SIGMA, "episodes": episodes}


class GrammarStream(StreamWorkload):
    def make_unit(self, k: int) -> dict:
        corpus = self.mods["corpus"]
        n = self.size["grammar_episodes"]
        tokens, generator_bits = corpus.gen_grammar_corpus(
            sub_seed(self.seed, k), 5, n * EPISODE_TOKENS, rules_per_level=3)
        episodes = [tokens[i:i + EPISODE_TOKENS]
                    for i in range(0, n * EPISODE_TOKENS, EPISODE_TOKENS)]
        return {"alphabet": "".join(corpus.GRAMMAR_ALPHABET), "episodes": episodes,
                "extra": {"generator_bits": generator_bits}}


class FnEnsemble(Workload):
    """One `learn_all` over a seeded ensemble is one op; each label is checked.

    The op is the whole ensemble because its six `synthesize` calls differ
    in cost by four orders of magnitude, and timing them one by one would
    need wrappers in the untraced run.  Examples are 32 per label: with the
    generator's default of 8, about a quarter of seeds admit a size-6 quadp
    that is found 20 times sooner, which makes the cost bimodal across seeds.
    """

    def make_unit(self, k: int) -> list:
        sets, _ = self.mods["corpus"].gen_fn_ensemble(sub_seed(self.seed, k),
                                                      self.size["fn_examples"])
        labels = self.size["fn_labels"]
        return [entry for entry in sets if labels is None or entry[0] in labels]

    def run_unit(self, sets) -> UnitResult:
        learn_all = self.mods["fnsynth"].learn_all
        t0 = CLOCK()
        try:
            library, unsolved = learn_all(sets)
        except Exception:
            _report_failure("learn_all")
            library, unsolved = None, [label for label, _ in sets]
        wall = CLOCK() - t0
        return UnitResult(wall, [wall], len(sets), {"library": library, "unsolved": unsolved})

    def check(self, sets, result: UnitResult) -> int:
        """Labels left unsolved, or learned but wrong on the 0..10 input grid."""
        library, unsolved = result.state["library"], result.state["unsolved"]
        failed = 0
        for label, _ in sets:
            if label in unsolved:
                print(f"FAILED {label} was not learned", file=sys.stderr)
                failed += 1
            elif not self._agrees(library, label):
                print(f"FAILED {label} disagrees with the truth table", file=sys.stderr)
                failed += 1
        return failed

    def _agrees(self, library, label: str) -> bool:
        arity, truth = self.mods["corpus"].ENSEMBLE_TRUTH[label]
        definition = library.fn(label).definition
        eval_term = self.mods["fnsynth"].eval_term
        try:
            return all(eval_term(definition, inputs, library, CHECK_ITER_CAP,
                                 CHECK_VALUE_CAP) == truth(*inputs)
                       for inputs in itertools.product(range(11), repeat=arity))
        except Exception:
            _report_failure(f"truth check of {label}")
            return False

    def quality(self, sets, result: UnitResult) -> dict:
        library = result.state["library"]
        lines = self.mods["fnsynth"].library_to_lines(library) if library else []
        return {"fns_learned": len(sets) - len(result.state["unsolved"]),
                "library_sha256": _sha256("\n".join(lines) + "\n")}


class CliSession(Workload):
    """`cli.main` runs init, ingest, refines cycling over episodes, stats.

    Each command is one op.  The corpus is a short hidden-grammar sample cut
    into lines of 16..48 tokens, half of them with 1..4 random symbols
    spliced in, so refine has blob residue to improve on.
    """

    def make_unit(self, k: int) -> dict:
        corpus = self.mods["corpus"]
        seed = sub_seed(self.seed, k)
        rng = random.Random(seed)
        n_lines = self.size["cli_lines"]
        tokens, _ = corpus.gen_grammar_corpus(seed, 4, n_lines * 48, rules_per_level=3)
        alphabet = "".join(corpus.GRAMMAR_ALPHABET)
        lines, pos = [], 0
        for _ in range(n_lines):
            n = rng.randint(16, 48)
            piece = list(tokens[pos:pos + n])
            pos += n
            if rng.random() < 0.5:
                at = rng.randint(0, len(piece))
                piece[at:at] = [rng.choice(alphabet) for _ in range(rng.randint(1, 4))]
            lines.append("".join(piece))
        unit_dir = os.path.join(self.workdir, f"unit{k}")
        os.makedirs(unit_dir)
        corpus_path = os.path.join(unit_dir, "corpus.txt")
        with open(corpus_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        graph_path = os.path.join(unit_dir, "graph.cg")
        commands = [["init", "--alphabet", alphabet, "--out", graph_path],
                    ["ingest", "--graph", graph_path, "--input", corpus_path]]
        commands += [["refine", "--graph", graph_path, "--episode", str(i % n_lines)]
                     for i in range(self.size["cli_refines"])]
        commands.append(["stats", "--graph", graph_path])
        return {"lines": lines, "graph_path": graph_path, "commands": commands}

    def run_unit(self, unit) -> UnitResult:
        main = self.mods["cli"].main
        out, err = io.StringIO(), io.StringIO()
        op_s: list[float] = []
        codes: list[int] = []
        t_unit = CLOCK()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for argv in unit["commands"]:
                t0 = CLOCK()
                try:
                    codes.append(main(argv))
                except Exception:
                    _report_failure(" ".join(argv))
                    codes.append(-1)
                op_s.append(CLOCK() - t0)
        wall = CLOCK() - t_unit
        if err.getvalue():
            print(err.getvalue(), end="", file=sys.stderr)
        return UnitResult(wall, op_s, len(op_s), {"codes": codes, "stdout": out.getvalue()})

    def check(self, unit, result: UnitResult) -> int:
        """Commands that exit non-zero or whose stored level fails to
        reconstruct its line.  Level 0 of episode e comes from the ingest
        command (index 1) and level j from the j-th refine of e."""
        inducer, storage = self.mods["inducer"], self.mods["storage"]
        commands, lines = unit["commands"], unit["lines"]
        bad = {i for i, code in enumerate(result.state["codes"]) if code != 0}
        producer = {(e, 0): 1 for e in range(len(lines))}
        depth = [1] * len(lines)
        for i, argv in enumerate(commands):
            if argv[0] == "refine":
                e = int(argv[-1])
                producer[(e, depth[e])] = i
                depth[e] += 1
        try:
            graph = storage.load(unit["graph_path"])
            chains = graph.refinement_store
        except Exception:
            _report_failure("load of the final graph")
            graph, chains = None, {}
        for (e, level), i in producer.items():
            chain = chains.get(e, [])
            try:
                ok = (level < len(chain)
                      and inducer.reconstruct(graph, chain[level]) == tuple(lines[e]))
            except Exception:
                _report_failure(f"reconstruct of episode {e} level {level}")
                ok = False
            if not ok:
                bad.add(i)
        for i in sorted(bad):
            print(f"FAILED command {' '.join(commands[i])}", file=sys.stderr)
        return len(bad)

    def quality(self, unit, result: UnitResult) -> dict:
        storage, mdl = self.mods["storage"], self.mods["mdl"]
        with open(unit["graph_path"], "rb") as handle:
            data = handle.read()
        graph = storage.load(unit["graph_path"])
        return {"two_part_bits": mdl.two_part_total(graph), "concepts": len(graph),
                "graph_sha256": hashlib.sha256(data).hexdigest(),
                "stdout_sha256": _sha256(result.state["stdout"])}


WORKLOADS = {
    "random_stream": RandomStream,
    "grammar_stream": GrammarStream,
    "fn_ensemble": FnEnsemble,
    "cli_session": CliSession,
}
