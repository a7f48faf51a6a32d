"""The exhaustive tiny-scale MDL oracle that acceptance 02 scores the engine against."""

import functools
import math
from typing import Optional, Sequence

from conceptgraph import mdl
from conceptgraph.core import Concat, ConceptGraph, Token
from conceptgraph.errors import TooLarge
from conceptgraph.mdl import gamma_len, model_dl

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
