"""Synthetic worlds for acceptance testing, and the tiny-scale MDL oracle.

The grammar generator builds a random hierarchy of concatenation rules and
samples a corpus from the top level, reporting the hierarchy's own two-part
description length as the yardstick an inducer should approach.  The oracle
exhaustively searches all small concatenation grammars and all parses, under
the exact cost formulas at initial weights.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from . import mdl
from .core import Concat, ConceptGraph, Token
from .errors import TooLarge, UnknownToken
from .fnsynth import FunctionExample
from .mdl import description_dl, gamma_len, model_dl

GRAMMAR_ALPHABET = tuple("abcdefgh")


def gen_grammar_corpus(seed: int, depth: int, target_len: int,
                       rules_per_level: int = 2) -> tuple[tuple[Token, ...], float]:
    """Sample ~target_len tokens from a seeded random rule hierarchy.

    Returns (tokens, generator two-part DL): the model bits of the hierarchy
    plus the description bits of the sampled top-rule sequence, both at
    initial weights.  Deterministic per seed.
    """
    if depth < 1 or rules_per_level < 1:
        raise ValueError("depth and rules_per_level must be >= 1")
    rng = random.Random(seed)
    graph = ConceptGraph(GRAMMAR_ALPHABET)
    level_ids = list(range(len(GRAMMAR_ALPHABET)))
    for _ in range(depth):
        next_level: list[int] = []
        for _ in range(rules_per_level):
            body = (rng.choice(level_ids), rng.choice(level_ids))
            cid = graph.add(Concat(body))
            if cid not in next_level:
                next_level.append(cid)
        level_ids = next_level

    refs: list[int] = []
    tokens: list[Token] = []
    while len(tokens) < target_len:
        cid = rng.choice(level_ids)
        refs.append(cid)
        tokens.extend(graph.expansion(cid))
    generator_dl = model_dl(graph) + description_dl(graph, tuple(refs))
    return tuple(tokens), generator_dl


# ----------------------------------------------------------------------
# function-ensemble world

def _truth_add(x: int, y: int) -> int:
    return x + y


def _truth_dbl(x: int) -> int:
    return 2 * x


def _truth_mul(x: int, y: int) -> int:
    return x * y


def _truth_sq(x: int) -> int:
    return x * x


def _truth_cube(x: int) -> int:
    return x * x * x


def _truth_quadp(x: int, y: int) -> int:
    return 4 * x * y + 1


ENSEMBLE_TRUTH = {
    "add": (2, _truth_add), "dbl": (1, _truth_dbl), "mul": (2, _truth_mul),
    "sq": (1, _truth_sq), "cube": (1, _truth_cube), "quadp": (2, _truth_quadp),
}
ENSEMBLE_LEVELS = {"add": 1, "dbl": 1, "mul": 2, "sq": 2, "cube": 3, "quadp": 3}
_ENSEMBLE_RANGES = {"add": 10, "dbl": 10, "mul": 10, "sq": 10, "cube": 7, "quadp": 10}


def gen_fn_ensemble(seed: int, examples_per_fn: int = 8):
    """Seeded example sets for the three-level six-function ensemble.

    Returns (example_sets, interleaved_lines): the sets in label order and
    the same examples as interleaved `label arity in... out` text lines.
    """
    rng = random.Random(seed)
    sets: list[tuple[str, list[FunctionExample]]] = []
    for label, (arity, fn) in ENSEMBLE_TRUTH.items():
        top = _ENSEMBLE_RANGES[label]
        domain = ([(x,) for x in range(top + 1)] if arity == 1
                  else [(x, y) for x in range(top + 1) for y in range(top + 1)])
        picks = rng.sample(domain, min(examples_per_fn, len(domain)))
        sets.append((label, [FunctionExample(label, inputs, fn(*inputs))
                             for inputs in picks]))
    examples = [ex for _, batch in sets for ex in batch]
    rng.shuffle(examples)
    lines = [f"{ex.label} {len(ex.inputs)} "
             + " ".join(str(v) for v in ex.inputs) + f" {ex.output}"
             for ex in examples]
    return sets, lines


# ----------------------------------------------------------------------
# exhaustive MDL oracle

ORACLE_MAX_LEN = 12
ORACLE_MAX_SIGMA = 3
ORACLE_MAX_RULES = 4


def _best_parse_dl(graph: ConceptGraph, tokens: tuple[Token, ...]) -> float:
    """Exact minimum description bits over refs and blobs (DP over
    position and node count; the node-count header is settled at the end)."""
    n = len(tokens)
    sigma_bits = math.log2(len(graph.alphabet))
    escape = mdl.escape_cost(graph)
    options = [(graph.expansion(cid), mdl.ref_cost(graph, cid))
               for cid in graph.parseable_ids()]
    inf = float("inf")
    dp = [[inf] * (n + 1) for _ in range(n + 1)]
    dp[0][0] = 0.0
    for pos in range(n):
        row = dp[pos]
        for count in range(pos + 1):
            base = row[count]
            if base == inf:
                continue
            for exp, cost in options:
                end = pos + len(exp)
                if end <= n and tokens[pos:end] == exp:
                    if base + cost < dp[end][count + 1]:
                        dp[end][count + 1] = base + cost
            for length in range(1, n - pos + 1):
                cost = base + escape + gamma_len(length) + length * sigma_bits
                if cost < dp[pos + length][count + 1]:
                    dp[pos + length][count + 1] = cost
    return min(dp[n][count] + gamma_len(count + 1)
               for count in range(n + 1) if dp[n][count] < inf)


def mdl_oracle(tokens: Sequence[Token], alphabet: Optional[Sequence[Token]] = None) -> float:
    """Optimal two-part DL over all small concatenation grammars.

    Enumerates every grammar of up to `ORACLE_MAX_RULES` rules whose bodies pair
    primitives or earlier rules, scores model bits plus the exact best parse
    at initial weights, and prunes any grammar whose model bits alone already
    exceed the best total found.
    """
    tokens = tuple(tokens)
    if alphabet is None:
        alphabet = sorted(set(tokens)) or ("a",)
    if len(tokens) > ORACLE_MAX_LEN or len(alphabet) > ORACLE_MAX_SIGMA:
        raise TooLarge(f"oracle capped at {ORACLE_MAX_LEN} tokens over "
                       f"{ORACLE_MAX_SIGMA} symbols")
    graph = ConceptGraph(tuple(alphabet))
    if not graph.alphabet_set.issuperset(tokens):
        bad = next(t for t in tokens if t not in graph.alphabet_set)
        raise UnknownToken(f"token {bad!r} not in alphabet")
    best = [float("inf")]

    def explore(rules: int) -> None:
        model = model_dl(graph)
        if model >= best[0]:
            return  # growing the grammar only raises the model term
        total = model + _best_parse_dl(graph, tokens)
        if total < best[0]:
            best[0] = total
        if rules >= ORACLE_MAX_RULES:
            return
        symbols = graph.parseable_ids()
        for left in symbols:
            for right in symbols:
                before = len(graph)
                cid = graph.add(Concat((left, right)))
                if cid < before:
                    continue  # structural duplicate of an existing rule
                explore(rules + 1)
                graph.pop_last()

    explore(0)
    return best[0]
