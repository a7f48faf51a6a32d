"""Synthetic worlds for acceptance testing and the benchmark workloads.

The grammar generator builds a random hierarchy of concatenation rules and
samples a corpus from the top level, reporting the hierarchy's own two-part
description length as the yardstick an inducer should approach.  The
function ensemble is seeded example sets for three levels of functions.
"""

from __future__ import annotations

import random

from .core import Concat, ConceptGraph, Token
from .fnsynth import FunctionExample
from .mdl import description_dl, model_dl

GRAMMAR_ALPHABET = tuple("abcdefgh")


def gen_grammar_corpus(seed: int, depth: int, target_len: int,
                       rules_per_level: int = 2) -> tuple[tuple[Token, ...], float]:
    """Sample ~target_len tokens from a seeded random rule hierarchy.

    Returns (tokens, generator two-part DL): the model bits of the hierarchy
    plus the description bits of the sampled top-rule sequence, both at
    initial weights.  Deterministic per seed.  Each count must be an `int`.
    """
    if not all(type(n) is int for n in (depth, target_len, rules_per_level)):
        raise ValueError("depth, target_len and rules_per_level must be ints")
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
_ENSEMBLE_RANGES = {"add": 10, "dbl": 10, "mul": 10, "sq": 10, "cube": 7, "quadp": 10}


def gen_fn_ensemble(seed: int, examples_per_fn: int = 8):
    """Seeded example sets for the three-level six-function ensemble.

    Returns (example_sets, interleaved_lines): the sets in label order and
    the same examples as interleaved `label arity in... out` text lines.
    `examples_per_fn` must be an `int` of at least 1.
    """
    if type(examples_per_fn) is not int or examples_per_fn < 1:
        raise ValueError("examples_per_fn must be an int >= 1")
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
