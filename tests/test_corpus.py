import pytest

from conceptgraph.core import ConceptGraph
from conceptgraph.corpus import (
    ENSEMBLE_LEVELS,
    ENSEMBLE_TRUTH,
    gen_fn_ensemble,
    gen_grammar_corpus,
    mdl_oracle,
)
from conceptgraph.errors import TooLarge, UnknownToken
from conceptgraph.inducer import parse
from conceptgraph.mdl import description_dl, gamma_len, model_dl


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


def test_oracle_deterministic():
    tokens = tuple("aabbab")
    assert mdl_oracle(tokens, alphabet="ab") == pytest.approx(
        mdl_oracle(tokens, alphabet="ab"))


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


def test_fn_ensemble_deterministic_and_interleaved():
    _, lines_a = gen_fn_ensemble(11)
    _, lines_b = gen_fn_ensemble(11)
    assert lines_a == lines_b
    labels = [line.split()[0] for line in lines_a]
    assert labels != sorted(labels)  # genuinely interleaved
