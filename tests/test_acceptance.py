"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance and time budget is asserted, not just printed.
"""

import itertools
import random
import time

import pytest

from conceptgraph.core import (
    Apply,
    Association,
    Concat,
    ConceptGraph,
    Config,
    Hole,
    Template,
)
from conceptgraph.corpus import (
    ENSEMBLE_LEVELS,
    ENSEMBLE_TRUTH,
    gen_fn_ensemble,
    gen_grammar_corpus,
)
from conceptgraph.cli import main as cli_main
from conceptgraph.fnsynth import (
    FunctionExample,
    Library,
    eval_term,
    learn_all,
    synthesize,
)
from conceptgraph.inducer import ingest, parse, reconstruct
from conceptgraph.mdl import (
    attention,
    description_dl,
    kraft_sum,
    model_dl,
    raw_dl,
    two_part_total,
)
from conceptgraph.storage import export_teach, import_teach
from oracle import mdl_oracle
from test_inducer import hot, linear_parse


def report(n, name, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.1f}s)")


def test_01_lossless_roundtrip():
    started = time.monotonic()
    rng = random.Random(42)
    sigma = "abcdefghijklmnop"
    graph = ConceptGraph(sigma)
    for _ in range(1000):
        tokens = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 256)))
        out = ingest(graph, tokens)
        assert reconstruct(graph, out.description) == tokens
    report(1, "lossless roundtrip", started, 30)


def test_02_tiny_scale_mdl_oracle():
    started = time.monotonic()
    for n in range(0, 11):
        for tokens in itertools.product("ab", repeat=n):
            graph = ConceptGraph("ab")
            engine = model_dl(graph) + description_dl(graph, parse(graph, tokens))
            assert engine <= 1.25 * mdl_oracle(tokens, alphabet="ab") + 1e-9, tokens
    report(2, "tiny-scale MDL oracle", started, 60)


def test_03_hidden_grammar_compression():
    started = time.monotonic()
    tokens, generator_dl = gen_grammar_corpus(7, 4, 10_000)
    graph = ConceptGraph("abcdefgh")
    for i in range(0, len(tokens), 64):
        ingest(graph, tokens[i:i + 64])
    total = two_part_total(graph)
    assert total <= 1.5 * generator_dl
    assert total < raw_dl(len(tokens), 8)
    report(3, "hidden-grammar compression", started, 60)


RED = [FunctionExample("red", i, o) for i, o in [((1, 3), 4), ((2, 3), 5), ((5, 2), 7)]]
GREEN = [FunctionExample("green", i, o) for i, o in [((2, 4), 8), ((3, 4), 12), ((2, 5), 10)]]


def test_04_red_green_function_pair():
    started = time.monotonic()
    # pass structure: green needs red, red needs only the builtin
    assert synthesize(GREEN, Library.initial(), size_cap=7) is None
    pass1 = Library.initial()
    red_term = synthesize(RED, pass1, size_cap=7)
    assert red_term is not None
    pass1.define("red", 2, red_term)
    green_term = synthesize(GREEN, pass1, size_cap=7)
    assert green_term is not None

    library, unsolved = learn_all([("green", GREEN), ("red", RED)])
    assert unsolved == []
    for x, y in itertools.product(range(21), range(21)):
        assert eval_term(library.fn("red").definition, (x, y), library) == x + y
    for x, y in itertools.product(range(11), range(11)):
        assert eval_term(library.fn("green").definition, (x, y), library) == x * y
    report(4, "red/green function pair", started, 120)


def test_05_hierarchy_scaling():
    started = time.monotonic()
    sets, _ = gen_fn_ensemble(11)
    # bounded-pass protocol, reimplemented here as an independent check
    library = Library.initial()
    unsolved = [label for label, _ in sets]
    examples = dict(sets)
    for _ in range(3):
        still = []
        for label in unsolved:
            term = synthesize(examples[label], library)
            if term is None:
                still.append(label)
            else:
                library.define(label, len(examples[label][0].inputs), term)
        unsolved = still
    assert unsolved == [], f"not recovered within 3 passes: {unsolved}"
    for label, (arity, truth) in ENSEMBLE_TRUTH.items():
        for inputs in itertools.product(range(11), repeat=arity):
            assert eval_term(library.fn(label).definition, inputs, library) == truth(*inputs)
    # removing any level-1 label leaves at least one dependent unlearnable
    for removed in [label for label, level in ENSEMBLE_LEVELS.items() if level == 1]:
        reduced = [(label, exs) for label, exs in sets if label != removed]
        _, failed = learn_all(reduced)
        assert failed, f"no dependent failed after removing {removed}"
    report(5, "hierarchy scaling", started, 300)


def test_06_closed_forms():
    started = time.monotonic()
    graph = ConceptGraph("ab", Config(decay=0.9))
    graph.set_weight(0, 3.0)
    for _ in range(10):
        graph.tick_weights(set())
    assert abs(graph.concepts[0].weight - 3.0 * 0.9**10) < 1e-9

    g2 = ConceptGraph("ab", Config(valence_decay=0.5))
    assoc = g2.add(Association(0, g2.pleasure_id))
    valences = g2.propagate_valence()
    assert valences[assoc] == 0.5
    assert valences[0] == 0.25

    rng = random.Random(6)
    for _ in range(100):
        sigma = "abcdefgh"[: rng.randint(1, 4)]
        g3 = ConceptGraph(sigma)
        for _ in range(rng.randint(0, 8)):
            ids = g3.parseable_ids()
            g3.add(Concat((rng.choice(ids), rng.choice(ids))))
        for cid in range(len(g3)):
            g3.set_weight(cid, rng.random() * 12)
        assert kraft_sum(g3) <= 1 + 1e-9
    report(6, "closed forms", started, 60)


def test_07_number_concept():
    started = time.monotonic()
    graph = ConceptGraph("xozq")
    for episode in ("xx", "oo", "zz"):
        ingest(graph, episode)
    num2 = graph.find(Template((Hole(0), Hole(0))))
    assert num2 is not None
    assert sum(1 for c in graph.concepts if isinstance(c.kind, Template)) == 1
    out = ingest(graph, "qq")
    assert len(out.description) == 1
    kind = graph.concepts[out.description[0]].kind
    assert isinstance(kind, Apply) and kind.template == num2
    report(7, "number concept", started, 60)


def test_08_attention_ordering():
    started = time.monotonic()
    graph = ConceptGraph("ab")
    ingest(graph, "ab" * 50)
    probe = tuple("ab" * 4)
    trained = attention(graph, probe, parse(graph, probe))
    for seed in range(1, 11):
        rng = random.Random(seed)
        noise = tuple(rng.choice("ab") for _ in range(8))
        assert trained > attention(graph, noise, parse(graph, noise)), seed
    report(8, "attention ordering", started, 60)


def test_09_teach_roundtrip():
    started = time.monotonic()
    rng = random.Random(99)
    sigma = "abcdef"
    graph = ConceptGraph(sigma)
    for _ in range(40):
        tokens = [rng.choice(sigma) for _ in range(rng.randint(0, 40))]
        ingest(graph, tokens)
    candidates = [cid for cid in range(len(graph)) if graph.is_parseable(cid)]
    picks = [rng.choice(candidates) for _ in range(100)]
    for cid in picks:
        script = export_teach(graph, cid)
        fresh = ConceptGraph(sigma)
        assert fresh.expansion(import_teach(fresh, script)) == graph.expansion(cid)
    report(9, "teach roundtrip", started, 60)


def test_10_fast_path_equivalence():
    started = time.monotonic()
    rng = random.Random(10)
    sigma = "abcd"
    graph = ConceptGraph(sigma)
    for _ in range(30):
        ingest(graph, "".join(rng.choice("ab") for _ in range(rng.randint(2, 6))) * 8)
    assert hot(graph), "need a populated fast path for the check to bite"
    for _ in range(200):
        tokens = tuple(rng.choice(sigma) for _ in range(rng.randint(0, 64)))
        with_index = parse(graph, tokens)
        without = linear_parse(graph, tokens)
        assert repr(with_index) == repr(without)
    report(10, "fast-path equivalence", started, 60)


def test_11_cli_determinism(tmp_path, capsys):
    started = time.monotonic()
    corpus = tmp_path / "corpus.txt"
    rng = random.Random(3)
    corpus.write_text("\n".join(
        "".join(rng.choice("ab") for _ in range(rng.randint(1, 40)))
        for _ in range(20)) + "\n")
    blobs = []
    for name in ("run1.cg", "run2.cg"):
        path = tmp_path / name
        assert cli_main(["init", "--alphabet", "ab", "--out", str(path)]) == 0
        assert cli_main(["ingest", "--graph", str(path), "--input", str(corpus)]) == 0
        assert cli_main(["refine", "--graph", str(path), "--episode", "0"]) == 0
        assert cli_main(["stats", "--graph", str(path)]) == 0
        blobs.append(path.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]
    report(11, "CLI determinism", started, 60)
