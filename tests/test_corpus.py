import math
import random

import pytest

from conceptgraph.core import Concat, ConceptGraph
from conceptgraph.corpus import (
    ENSEMBLE_TRUTH,
    gen_fn_ensemble,
    gen_grammar_corpus,
)
from conceptgraph.errors import TooLarge, UnknownToken
from conceptgraph.inducer import parse
from conceptgraph import mdl
from conceptgraph.mdl import description_dl, gamma_len, model_dl
from oracle import ENSEMBLE_LEVELS, mdl_oracle, ref_cost


def test_grammar_corpus_deterministic_per_seed():
    a = gen_grammar_corpus(7, 3, 500)
    b = gen_grammar_corpus(7, 3, 500)
    assert a[0] == b[0]
    assert a[1] == pytest.approx(b[1])
    c = gen_grammar_corpus(8, 3, 500)
    assert c[0] != a[0]


def test_grammar_corpus_depth_one_repeats_pair_rules():
    tokens, dl = gen_grammar_corpus(7, 1, 40)
    assert len(tokens) >= 40
    assert len(tokens) % 2 == 0  # concatenation of 2-token rule expansions
    assert dl > 0


def test_grammar_corpus_empty_target():
    tokens, dl = gen_grammar_corpus(7, 2, 0)
    assert tokens == ()
    assert dl == pytest.approx(model_dl_of_seed7_depth2() + gamma_len(1))


def model_dl_of_seed7_depth2():
    # rebuild the same hierarchy to price its model bits independently
    import random
    from conceptgraph.core import Concat
    rng = random.Random(7)
    g = ConceptGraph(tuple("abcdefgh"))
    level = list(range(8))
    for _ in range(2):
        nxt = []
        for _ in range(2):
            cid = g.add(Concat((rng.choice(level), rng.choice(level))))
            if cid not in nxt:
                nxt.append(cid)
        level = nxt
    return model_dl(g)


def test_oracle_trivial_and_bounds():
    assert mdl_oracle(()) == pytest.approx(1.0)
    tokens = tuple("abab")
    g = ConceptGraph("ab")
    primitive_parse = description_dl(g, parse(g, tokens))
    assert mdl_oracle(tokens, alphabet="ab") <= primitive_parse + 1e-9
    with pytest.raises(TooLarge):
        mdl_oracle(tuple("a" * 13))
    with pytest.raises(TooLarge):
        mdl_oracle(tuple("abcd"), alphabet="abcd")


@pytest.mark.parametrize("depth, rules_per_level", [(0, 2), (1, 0), (2, -1)])
def test_grammar_corpus_refuses_an_empty_level(depth, rules_per_level):
    with pytest.raises(ValueError):
        gen_grammar_corpus(1, depth, 10, rules_per_level=rules_per_level)


def test_oracle_refuses_tokens_outside_its_alphabet():
    with pytest.raises(UnknownToken, match="'x'"):
        mdl_oracle("xyz", alphabet="ab")
    with pytest.raises(UnknownToken, match="'c'"):
        mdl_oracle("abc", alphabet="ab")


def test_oracle_refuses_an_unhashable_token_with_a_given_alphabet():
    with pytest.raises(UnknownToken, match=r"\['b'\]"):
        mdl_oracle(["a", ["b"]], "ab")


@pytest.mark.parametrize("tokens", [[["a"]], ["a", ["b"]], ["a", 1], [None]])
def test_oracle_refuses_a_token_that_is_not_a_str_when_it_builds_the_alphabet(tokens):
    with pytest.raises(UnknownToken):
        mdl_oracle(tokens)


def test_oracle_deterministic():
    tokens = tuple("aabbab")
    assert mdl_oracle(tokens, alphabet="ab") == pytest.approx(
        mdl_oracle(tokens, alphabet="ab"))


def walked_best_parse_dl(graph, tokens):
    """The oracle's exact parse DP over the graph's parseable concepts."""
    n = len(tokens)
    sigma_bits = math.log2(len(graph.alphabet))
    escape = mdl.escape_cost(graph)
    options = [(graph.expansion(cid), ref_cost(graph, cid))
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


def walked_oracle(tokens, alphabet):
    """The reference oracle: a walk of the grammar tree per input, adding
    and popping rules, that cuts a subtree once its model bits reach the
    best total found."""
    tokens = tuple(tokens)
    graph = ConceptGraph(tuple(alphabet))
    best = [float("inf")]

    def explore(rules):
        model = model_dl(graph)
        if model >= best[0]:
            return
        best[0] = min(best[0], model + walked_best_parse_dl(graph, tokens))
        if rules >= 4:
            return
        symbols = graph.parseable_ids()
        for left in symbols:
            for right in symbols:
                before = len(graph)
                if graph.add(Concat((left, right))) < before:
                    continue
                explore(rules + 1)
                graph.pop_last()

    explore(0)
    return best[0]


@pytest.mark.parametrize("alphabet, seed", [("ab", 1), ("abc", 2)])
def test_oracle_scan_matches_the_grammar_walk(alphabet, seed):
    rng = random.Random(seed)
    inputs = [(), tuple(alphabet * 4)[:12]]
    inputs += [tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 12))) for _ in range(30)]
    motifs = [m for m in ("ab", "ba", "aab", "cab", "cc") if set(m) <= set(alphabet)]
    inputs += [tuple("".join(rng.choice(motifs) for _ in range(4)))[:12] for _ in range(10)]
    for tokens in inputs:
        assert abs(mdl_oracle(tokens, alphabet=alphabet) - walked_oracle(tokens, alphabet)) <= 1e-9
    assert mdl_oracle("abab") == pytest.approx(walked_oracle("abab", "ab"), abs=1e-9)


def test_fn_ensemble_shape():
    sets, lines = gen_fn_ensemble(11)
    assert [label for label, _ in sets] == ["add", "dbl", "mul", "sq", "cube", "quadp"]
    assert all(len(examples) == 8 for _, examples in sets)
    assert len(lines) == 48
    # outputs agree with the ground-truth functions
    for label, examples in sets:
        _, fn = ENSEMBLE_TRUTH[label]
        for ex in examples:
            assert ex.output == fn(*ex.inputs)
    assert set(ENSEMBLE_LEVELS.values()) == {1, 2, 3}


@pytest.mark.parametrize("per_fn", ["x", -1, 0, 2.0, True, None])
def test_fn_ensemble_refuses_a_count_that_is_not_an_int_of_at_least_1(per_fn):
    """Unchecked, "x" raised a bare `TypeError` and -1 `random`'s own error."""
    with pytest.raises(ValueError, match="examples_per_fn"):
        gen_fn_ensemble(1, per_fn)


def test_fn_ensemble_deterministic_and_interleaved():
    _, lines_a = gen_fn_ensemble(11)
    _, lines_b = gen_fn_ensemble(11)
    assert lines_a == lines_b
    labels = [line.split()[0] for line in lines_a]
    assert labels != sorted(labels)  # genuinely interleaved
