"""The test oracles: the reference code's per-concept costs and its Kraft sum,
description bits node by node, the attention of a description, and the
exhaustive tiny-scale MDL oracle that acceptance 02 scores the engine
against.  Each is computed from what the engine itself uses:
`mdl.escape_cost`, the weights and the expansion table.  Beside them, the
exact parse over a parse context's candidates with the bound on how far
`inducer.parse` may miss it, and the level of each function in the
synthesizer's ensemble."""

import functools
import math
from typing import Optional, Sequence

from conceptgraph.core import (Concat, ConceptGraph, Description, Template, Token, node_tokens,
                               reconstruct)
from conceptgraph.errors import ReconstructionMismatch, TooLarge, UnknownConcept
from conceptgraph.mdl import description_dl, escape_cost, gamma_len, model_dl, raw_dl

ORACLE_MAX_LEN = 12
ORACLE_MAX_SIGMA = 3
ORACLE_MAX_RULES = 4
# the level of each function in `corpus.gen_fn_ensemble`'s ensemble: a level-n
# function is built from functions of lower levels
ENSEMBLE_LEVELS = {"add": 1, "dbl": 1, "mul": 2, "sq": 2, "cube": 3, "quadp": 3}


def is_codeable(graph: ConceptGraph, cid: int) -> bool:
    """In the reference code: a parseable concept or a template."""
    return cid in graph.expansion_table() or isinstance(graph.concept(cid).kind, Template)


def ref_cost(graph: ConceptGraph, cid: int) -> float:
    """Bits for a reference to `cid`: the escape symbol's cost, log2 of the
    code denominator, less log2(w + 1)."""
    weight = graph.concept(cid).weight  # raises UnknownConcept
    if not is_codeable(graph, cid):
        raise UnknownConcept(f"concept {cid} is not in the reference code")
    return escape_cost(graph) - math.log2(weight + 1.0)


def kraft_sum(graph: ConceptGraph) -> float:
    """Sum of 2^-cost over the reference code plus the escape symbol."""
    total = 2.0 ** -escape_cost(graph)
    for cid in range(len(graph)):
        if is_codeable(graph, cid):
            total += 2.0 ** -ref_cost(graph, cid)
    return total


def per_node_description_dl(graph: ConceptGraph, desc: Description) -> float:
    """`mdl.description_dl` as a loop that holds every node to
    `core.node_tokens`'s rule before pricing it: the header, then each
    node's bits added left to right."""
    total = float(gamma_len(len(desc) + 1))
    sigma_bits = math.log2(len(graph.alphabet))
    log_d = escape_cost(graph)
    for node in desc:
        node_tokens(graph, node)  # raises InvalidDescription
        if type(node) is int:
            total += log_d - math.log2(graph.concepts[node].weight + 1.0)
        else:
            total += log_d + gamma_len(len(node)) + len(node) * sigma_bits
    return total


def attention(graph: ConceptGraph, tokens, desc: Description) -> float:
    """Raw bits minus described bits: large when a complex input maps to a
    simple description (`DLReport.attention` over a whole graph)."""
    tokens = tuple(tokens)
    if reconstruct(graph, desc) != tokens:
        raise ReconstructionMismatch("description does not reconstruct the tokens")
    return raw_dl(len(tokens), len(graph.alphabet)) - description_dl(graph, desc)


def _best_parse_dl(tokens: tuple[Token, ...], escape: float, sigma_bits: float,
                   options: Sequence[tuple[tuple[Token, ...], float]],
                   node_extra: float = 0.0, token_extra: float = 0.0) -> float:
    """Exact minimum description bits over refs and blobs (DP over
    position and node count; the node-count header is settled at the end).
    `options` are the (expansion, ref cost) pairs of the parseable concepts.
    A surcharge of `node_extra` bits a node and `token_extra` bits for each
    token a blob holds beyond its first is added to each description's
    bits; adding the default 0.0 leaves every sum as it was."""
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
                if base + cost + node_extra < dp[end][count + 1]:
                    dp[end][count + 1] = base + cost + node_extra
            opened = base + escape + node_extra
            for length in range(1, n - pos + 1):
                cost = opened + gammas[length] + length * sigma_bits + (length - 1) * token_extra
                if cost < dp[pos + length][count + 1]:
                    dp[pos + length][count + 1] = cost
    return min(dp[n][count] + gammas[count + 1]
               for count in range(n + 1) if dp[n][count] < inf)


def exact_parse_dl(graph: ConceptGraph, tokens: Sequence[Token], context) -> float:
    """The fewest description bits of `tokens` over the candidates that
    `inducer.parse` searches with `context` (an `inducer._ParseContext`):
    refs to its members, at their entries' bits, and blobs of any length.
    `_best_parse_dl`'s dynamic program over position and node count is
    exact, where `parse` keeps one state per position."""
    options = [(graph.expansion(cid), bits) for cid, _, bits in context.entries]
    return _best_parse_dl(tuple(tokens), context.log_d, context.sigma_bits, options)


def parse_gap_bound(graph: ConceptGraph, tokens: Sequence[Token], context) -> float:
    """The most bits `inducer.parse` may spend with `context`, as its
    docstring proves: the least, over every description D over the same
    candidates, of D's bits plus 2 a node plus log_d + 3 for each token a
    blob of D holds beyond its first."""
    options = [(graph.expansion(cid), bits) for cid, _, bits in context.entries]
    return _best_parse_dl(tuple(tokens), context.log_d, context.sigma_bits, options,
                          2.0, context.log_d + 3.0)


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
                (graph.expansion(cid), ref_cost(graph, cid)) for cid in symbols))
            found.add((model_dl(graph), escape_cost(graph), tuple(options)))
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
