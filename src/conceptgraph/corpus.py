"""Synthetic worlds for acceptance testing, and the tiny-scale MDL oracle.

The grammar generator builds a random hierarchy of concatenation rules and
samples a corpus from the top level, reporting the hierarchy's own two-part
description length as the yardstick an inducer should approach.  The oracle
exhaustively searches all small concatenation grammars and all parses, under
the exact cost formulas at initial weights.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Optional, Sequence

from . import mdl
from .core import Concat, ConceptGraph, Token
from .errors import TooLarge
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


def _best_parse_dl(tokens: tuple[Token, ...], escape: float, sigma_bits: float,
                   options: Sequence[tuple[tuple[Token, ...], float]]) -> float:
    """Exact minimum description bits over refs and blobs (DP over
    position and node count; the node-count header is settled at the end).
    `options` are the (expansion, ref cost) pairs of the parseable concepts."""
    n = len(tokens)
    gammas = [0] + [gamma_len(k) for k in range(1, n + 2)]
    refs_at = [[(pos + len(exp), cost) for exp, cost in options
                if tokens[pos:pos + len(exp)] == exp] for pos in range(n)]
    inf = float("inf")
    dp = [[inf] * (n + 1) for _ in range(n + 1)]
    dp[0][0] = 0.0
    for pos in range(n):
        row = dp[pos]
        for count in range(pos + 1):
            base = row[count]
            if base == inf:
                continue
            for end, cost in refs_at[pos]:
                if base + cost < dp[end][count + 1]:
                    dp[end][count + 1] = base + cost
            opened = base + escape
            for length in range(1, n - pos + 1):
                cost = opened + gammas[length] + length * sigma_bits
                if cost < dp[pos + length][count + 1]:
                    dp[pos + length][count + 1] = cost
    return min(dp[n][count] + gammas[count + 1]
               for count in range(n + 1) if dp[n][count] < inf)


@functools.lru_cache(maxsize=16)  # a few alphabets of up to ORACLE_MAX_SIGMA symbols
def _oracle_grammars(alphabet: tuple[Token, ...], rules: int) -> tuple[tuple, ...]:
    """Every grammar of exactly `rules` rules over the alphabet, as (model
    bits, escape cost, parse options) at initial weights, sorted by model
    bits.  A rule's body pairs primitives or earlier rules; a structural
    duplicate of an existing rule is no new grammar.  Grammars that differ
    only in rule order come out equal and are kept once.  The walk is the
    same for every input, so it runs once per alphabet and rule count."""
    graph = ConceptGraph(alphabet)
    shared: dict = {}  # one object per distinct option, across grammars
    found = set()

    def explore(depth: int) -> None:
        symbols = graph.parseable_ids()
        if depth == rules:
            options = sorted(shared.setdefault(option, option) for option in (
                (graph.expansion(cid), mdl.ref_cost(graph, cid)) for cid in symbols))
            found.add((model_dl(graph), mdl.escape_cost(graph), tuple(options)))
            return
        for left in symbols:
            for right in symbols:
                before = len(graph)
                cid = graph.add(Concat((left, right)))
                if cid < before:
                    continue  # structural duplicate of an existing rule
                explore(depth + 1)
                graph.pop_last()

    explore(0)
    return tuple(sorted(found))


def mdl_oracle(tokens: Sequence[Token], alphabet: Optional[Sequence[Token]] = None) -> float:
    """Optimal two-part DL over all small concatenation grammars.

    Scores every grammar of up to `ORACLE_MAX_RULES` rules whose bodies pair
    primitives or earlier rules: model bits plus the exact best parse at
    initial weights.  The grammars are scanned in order of model bits, and
    the scan stops at the first whose model bits alone reach the best total
    found, so the minimum is exact.  At initial weights a grammar's model
    bits grow with its rule count, so the grammars are listed a rule count
    at a time (`_oracle_grammars`), and a rule count the scan never reaches
    is never enumerated.  Each grammar's parse needs only the options that
    occur in `tokens`, and grammars that agree on those share one parse.
    A token that is not an alphabet symbol (or not a `str`) is `UnknownToken`.
    """
    tokens = tuple(tokens)
    if alphabet is None:  # a token that is not a str is left out, for the check to name
        alphabet = sorted({t for t in tokens if isinstance(t, str)}) or ("a",)
    if len(tokens) > ORACLE_MAX_LEN or len(alphabet) > ORACLE_MAX_SIGMA:
        raise TooLarge(f"oracle capped at {ORACLE_MAX_LEN} tokens over "
                       f"{ORACLE_MAX_SIGMA} symbols")
    graph = ConceptGraph(tuple(alphabet))
    graph.check_tokens(tokens)
    sigma_bits = math.log2(len(graph.alphabet))
    spans = {tokens[i:j] for i in range(len(tokens)) for j in range(i + 1, len(tokens) + 1)}
    parsed: dict[tuple, float] = {}
    best = float("inf")
    for rules in range(ORACLE_MAX_RULES + 1):
        for model, escape, options in _oracle_grammars(graph.alphabet, rules):
            if model >= best:
                return best  # a later grammar's model bits are no smaller
            usable = (escape, tuple(o for o in options if o[0] in spans))
            dl = parsed.get(usable)
            if dl is None:
                dl = parsed[usable] = _best_parse_dl(tokens, escape, sigma_bits, usable[1])
            best = min(best, model + dl)
    return best
