import math
import random

import pytest

from conceptgraph.core import Association, Concat, ConceptGraph, Hole, Repeat, SlotRef, Template
from conceptgraph.errors import (
    InvalidDescription,
    NonPositive,
    ReconstructionMismatch,
    UnknownConcept,
)
from conceptgraph.inducer import ingest, parse, refine
from conceptgraph.mdl import (
    DLReport,
    description_dl,
    escape_cost,
    gamma_len,
    model_dl,
    raw_dl,
)
from conceptgraph.storage import _desc_from_json
from oracle import attention, kraft_sum, per_node_description_dl, ref_cost
from test_storage import BAD_NODES


def test_gamma_len_values():
    assert gamma_len(1) == 1
    assert gamma_len(5) == 5
    assert gamma_len(16) == 9
    with pytest.raises(NonPositive):
        gamma_len(0)


def test_gamma_len_step_is_two_at_powers_of_two():
    """The closed form `parse` uses for gamma_len(k + 1) - gamma_len(k)."""
    for k in range(1, 2**17 + 1):
        x = k + 1
        assert gamma_len(x) - gamma_len(k) == (2 if (x & (x - 1)) == 0 else 0)


def test_raw_dl_values():
    assert raw_dl(4, 2) == pytest.approx(9.0)
    assert raw_dl(0, 7) == pytest.approx(1.0)
    assert raw_dl(3, 4) == pytest.approx(11.0)


@pytest.mark.parametrize("k", [2.0, "3", True, False, None, 1.5])
def test_gamma_len_refuses_what_is_not_an_int(k):
    with pytest.raises(ValueError, match="needs an int"):
        gamma_len(k)


@pytest.mark.parametrize("n, sigma_size", [(2.5, 4), (3, 2.5), (4.0, 2), (3, 4.0),
                                           (True, 2), (3, True), ("3", 2), (3, None)])
def test_raw_dl_refuses_what_is_not_an_int(n, sigma_size):
    with pytest.raises(ValueError, match="int"):
        raw_dl(n, sigma_size)


def test_raw_dl_refuses_a_length_too_large_for_a_float():
    """`n * log2(sigma_size)` raised a bare OverflowError; an n that a float
    holds still gives bits."""
    with pytest.raises(ValueError, match="n must be finite"):
        raw_dl(10 ** 400, 2)
    assert raw_dl(10 ** 300, 2) == pytest.approx(1e300)


def test_ref_and_escape_cost_single_concept():
    g = ConceptGraph("a")  # one expanding concept, w = 1
    assert ref_cost(g, 0) == pytest.approx(-math.log2(2 / 3), abs=1e-9)
    assert escape_cost(g) == pytest.approx(-math.log2(1 / 3), abs=1e-9)
    with pytest.raises(UnknownConcept):
        ref_cost(g, g.pleasure_id)


def test_ref_cost_decreases_with_weight():
    g = ConceptGraph("ab")
    previous = ref_cost(g, 0)
    for _ in range(6):
        g.set_weight(0, g.concepts[0].weight * 2)
        current = ref_cost(g, 0)
        assert current < previous
        previous = current


def blob_cost(graph, length):
    """A one-blob description's bits less its node-count header."""
    return description_dl(graph, ((graph.alphabet[0],) * length,)) - gamma_len(2)


def test_blob_cost_formula_and_monotonicity():
    assert blob_cost(ConceptGraph("ab"), 2) == pytest.approx(math.log2(5) + 3 + 2)  # W = N = 2
    g = ConceptGraph("a")  # W = 1, N = 1
    assert blob_cost(g, 1) == pytest.approx(escape_cost(g) + 1)
    for length in range(1, 8):
        assert blob_cost(g, 2 * length) > blob_cost(g, length)


def test_description_dl_single_ref():
    g = ConceptGraph("a")
    expected = gamma_len(2) + ref_cost(g, 0)
    assert description_dl(g, (0,)) == pytest.approx(expected)


def test_description_dl_empty_and_blob():
    g = ConceptGraph("ab")
    assert description_dl(g, ()) == pytest.approx(1.0)
    d = (("a", "b"),)
    expected = gamma_len(2) + escape_cost(g) + gamma_len(2) + 2 * math.log2(2)
    assert description_dl(g, d) == pytest.approx(expected)


def test_description_dl_rejects_bad_nodes():
    g = ConceptGraph("abcd")
    for node in BAD_NODES:
        with pytest.raises(InvalidDescription):
            description_dl(g, _desc_from_json([node]))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_description_dl_matches_the_per_node_reference(seed):
    """On ingested graphs, `description_dl` gives the reference's bits, bit
    for bit, for every stored level, for each episode's parse and for a mix
    of refs and blobs; and both raise `InvalidDescription` for a bool, ids
    out of range, a template, an association and malformed blobs."""
    rng = random.Random(seed)
    g = ConceptGraph("abc")
    episodes = ["".join(rng.choice("abc") for _ in range(rng.randint(0, 30)))
                for _ in range(25)]
    for text in episodes:
        ingest(g, text)
    for episode_id in range(0, len(episodes), 5):
        refine(g, episode_id)
    descs = [d for chain in g.refinement_store.values() for d in chain]
    descs += [parse(g, text) for text in episodes]
    refs = g.parseable_ids()
    descs += [tuple(rng.choice(refs) if rng.random() < 0.7 else tuple(rng.choices("abc", k=3))
                    for _ in range(rng.randint(0, 12))) for _ in range(20)]
    for desc in descs:
        assert description_dl(g, desc).hex() == per_node_description_dl(g, desc).hex()
    template = g.add(Template((SlotRef(0), Hole(0))))
    association = g.add(Association(0, 1))
    for bad in (True, -1, len(g), template, association, (), ("z",), ["a"]):
        for dl in (description_dl, per_node_description_dl):
            with pytest.raises(InvalidDescription):
                dl(g, (0, ("a",), bad, 1))


def test_model_dl_fresh_graph_is_zero():
    assert model_dl(ConceptGraph("abcd")) == 0.0


def test_model_dl_concat_plugs_current_code_state():
    g = ConceptGraph("ab")
    g.add(Concat((0, 1)))
    # two children coded at the post-add state
    expected = 2 + gamma_len(2) + ref_cost(g, 0) + ref_cost(g, 1)
    assert model_dl(g) == pytest.approx(expected)


def test_model_dl_strictly_increases_per_concept():
    g = ConceptGraph("ab")
    previous = model_dl(g)
    for kind in (Concat((0, 1)), Repeat(0, 3), Concat((1, 0))):
        g.add(kind)
        current = model_dl(g)
        assert current > previous
        previous = current


def test_attention_is_raw_minus_described():
    g = ConceptGraph("ab")
    tokens = ("a", "b")
    desc = parse(g, tokens)
    value = attention(g, tokens, desc)
    assert value == pytest.approx(raw_dl(2, 2) - description_dl(g, desc))


def test_attention_checks_reconstruction():
    g = ConceptGraph("ab")
    with pytest.raises(ReconstructionMismatch):
        attention(g, ("a", "b"), (0,))


def test_attention_negative_for_all_blob():
    g = ConceptGraph("ab")
    tokens = tuple("abba")
    assert attention(g, tokens, (tokens,)) < 0


def test_attention_invariant_under_symbol_renaming():
    mapping = {"a": "x", "b": "y"}
    episodes = ["abab", "aabb", "ab" * 20]
    g1 = ConceptGraph("ab")
    g2 = ConceptGraph("xy")
    for ep in episodes:
        ingest(g1, ep)
        ingest(g2, "".join(mapping[t] for t in ep))
    probe = "abab"
    renamed = "".join(mapping[t] for t in probe)
    a1 = attention(g1, tuple(probe), parse(g1, probe))
    a2 = attention(g2, tuple(renamed), parse(g2, renamed))
    assert a1 == pytest.approx(a2, abs=1e-9)


def test_kraft_sum_is_exactly_one():
    rng = random.Random(3)
    for _ in range(100):
        sigma = "abcdefgh"[: rng.randint(1, 3)]
        g = ConceptGraph(sigma)
        for _ in range(rng.randint(0, 6)):
            ids = g.parseable_ids()
            g.add(Concat((rng.choice(ids), rng.choice(ids))))
        for cid in range(len(g)):
            g.set_weight(cid, rng.random() * 10)
        assert kraft_sum(g) <= 1 + 1e-9
        assert kraft_sum(g) == pytest.approx(1.0, abs=1e-9)


def test_report_formatting_nine_decimals():
    report = DLReport(raw_bits=9.0, described_bits=3.5, model_bits=0.0)
    text = report.as_text()
    assert "raw_bits: 9.000000000" in text
    assert "attention: 5.500000000" in text
