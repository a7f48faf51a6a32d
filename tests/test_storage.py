import errno
import functools
import hashlib
import json
import math
import os
import random
import typing
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conceptgraph import inducer, storage
from conceptgraph.cli import main
from conceptgraph.corpus import GRAMMAR_ALPHABET, gen_grammar_corpus
from conceptgraph.core import (
    FOLLOWS,
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    ConceptGraph,
    Hole,
    Kind,
    Marker,
    Primitive,
    Repeat,
    SlotRef,
    Template,
)
from conceptgraph.errors import (
    CorruptFile,
    DanglingReference,
    GraphError,
    InvalidCount,
    IoFailure,
    TooLarge,
    UnknownConcept,
    UnresolvedReference,
    VersionMismatch,
    WrongKind,
)
from conceptgraph.inducer import (
    FORGET_WEIGHT,
    ingest,
    parse,
    reconstruct,
    record_associations,
    refine,
)
from conceptgraph.mdl import graph_report, stored_description_dl
from conceptgraph.storage import (
    dot_text,
    dumps,
    export_dot,
    export_teach,
    graph_from_json,
    graph_to_json,
    import_teach,
    load,
    save,
)
from oracle import ref_cost


# A concept row is [kind, weight, *fields], fields in record order.
WEIGHT = 1
KIND_CLASSES = {"primitive": Primitive, "concat": Concat, "repeat": Repeat,
                "template": Template, "apply": Apply, "association": Association,
                "affect": AffectPrimitive, "marker": Marker}


def set_field(row: list, name: str, value) -> None:
    """Set the named kind field of a concept row."""
    row[2 + KIND_CLASSES[row[0]]._fields.index(name)] = value


def trained_graph():
    g = ConceptGraph("abcd")
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(0, 30)
        ingest(g, [rng.choice("abcd") for _ in range(n)])
    return g


def test_save_load_save_byte_identical(tmp_path):
    g = trained_graph()
    p1, p2 = tmp_path / "g1.cg", tmp_path / "g2.cg"
    save(g, str(p1))
    save(load(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_a_loaded_graph_reloads_to_the_same_state(monkeypatch):
    """Load derives the caches and the follows marker's id, which the file
    does not store: a reload equals the first load in every attribute."""
    monkeypatch.setattr(inducer, "ASSOC_THRESHOLD", 1)  # each adjacent pair is an association
    g = ConceptGraph("abcd")
    for episode in ("abcd", "dcba", "abab"):
        ingest(g, episode)
    first = graph_from_json(json.loads(dumps(g)))
    assert vars(graph_from_json(json.loads(dumps(first)))) == vars(first)
    assert [cid for cid, c in enumerate(first.concepts) if c.kind == FOLLOWS] == [
        first.follows_marker_id]


def test_a_reload_keeps_the_episode_order():
    """The file lists the chains in episode order, and a load keeps that
    order, as the live graph holds them, so the stored description bits, a
    float sum in chain order, are the live graph's to the last bit."""
    rng = random.Random(4)
    for _ in range(20):
        g = ConceptGraph("abcd")
        for _ in range(25):
            ingest(g, [rng.choice("abcd") for _ in range(rng.randint(0, 24))])
        back = graph_from_json(json.loads(dumps(g)))
        assert list(back.refinement_store) == list(g.refinement_store) == list(range(25))
        assert stored_description_dl(back) == stored_description_dl(g)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_a_reload_holds_the_pair_counts_and_report_of_the_live_graph(data):
    """After every ingest and every `refine` of a random or hidden-grammar
    stream, the graph read back from its file holds the live graph's
    adjacent-pair counts and its `graph_report`, float for float."""
    if data.draw(st.booleans(), label="grammar"):
        corpus, _ = gen_grammar_corpus(data.draw(st.integers(1, 10**6)), 3, 600)
        start = st.integers(0, len(corpus))
        episodes = st.tuples(start, st.integers(0, 40)).map(lambda s: corpus[s[0]:s[0] + s[1]])
        alphabet = GRAMMAR_ALPHABET
    else:
        alphabet = "abcdefghijklmnop"
        episodes = st.text(alphabet[:data.draw(st.integers(2, 16))], max_size=40)
    g = ConceptGraph(alphabet)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inducer, "ASSOC_THRESHOLD", data.draw(st.integers(1, 3)))
        for _ in range(data.draw(st.integers(1, 12))):
            if g.episode and data.draw(st.integers(0, 2)) == 0:
                refine(g, data.draw(st.integers(0, g.episode - 1)))
            else:
                ingest(g, data.draw(episodes))
            back = graph_from_json(json.loads(dumps(g)))
            assert back.assoc_counts == g.assoc_counts
            assert graph_report(back) == graph_report(g)


def test_load_restores_structure_and_behavior(tmp_path):
    g = trained_graph()
    path = tmp_path / "g.cg"
    save(g, str(path))
    restored = load(str(path))
    assert len(restored) == len(g)
    assert restored.episode == g.episode
    assert restored.assoc_counts == g.assoc_counts
    assert restored.run_observations == g.run_observations
    for a, b in zip(g.concepts, restored.concepts):
        assert a.kind == b.kind and a.weight == b.weight
    r1 = ingest(g, "abab")
    r2 = ingest(restored, "abab")
    assert r1.description == r2.description


def test_fresh_graph_file_has_sigma_plus_two_concepts(tmp_path):
    path = tmp_path / "fresh.cg"
    save(ConceptGraph("abc"), str(path))
    data = json.loads(path.read_text())
    assert len(data["concepts"]) == 5


_SYMBOLS = st.one_of(st.text(max_size=3), st.integers(), st.floats(), st.booleans(),
                     st.none(), st.binary(max_size=2), st.lists(st.text(max_size=1), max_size=1))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=6), st.lists(_SYMBOLS, max_size=5)))
def test_every_accepted_alphabet_round_trips(alphabet):
    """The constructor takes exactly the non-empty alphabets of distinct
    strings (else `ValueError`), and each saves a file that loads back to
    the same bytes."""
    strings = all(isinstance(sym, str) for sym in alphabet)
    try:
        g = ConceptGraph(alphabet)
    except ValueError:
        assert not (alphabet and strings and len(set(alphabet)) == len(alphabet))
        event("rejected")
        return
    assert strings
    text = dumps(g)
    assert dumps(graph_from_json(json.loads(text))) == text


def test_load_errors(tmp_path):
    missing = tmp_path / "nope.cg"
    with pytest.raises(IoFailure):
        load(str(missing))
    truncated = tmp_path / "trunc.cg"
    truncated.write_text(dumps(ConceptGraph("ab"))[:40])
    with pytest.raises(CorruptFile):
        load(str(truncated))
    not_utf8 = tmp_path / "utf16.cg"
    not_utf8.write_bytes(b"\xff\xfe{}")
    with pytest.raises(CorruptFile):
        load(str(not_utf8))
    wrong = tmp_path / "wrong.cg"
    data = json.loads(dumps(ConceptGraph("ab")))
    data["version"] = "cg0"
    wrong.write_text(json.dumps(data))
    with pytest.raises(VersionMismatch):
        load(str(wrong))


def test_load_of_an_integer_too_long_for_int_is_corrupt_file(tmp_path):
    """`json.loads` refuses an integer literal of over 4,300 digits with a
    bare ValueError, which load let through."""
    path = tmp_path / "huge.cg"
    huge = '["affect",1.0,' + "9" * 5000 + "]"
    path.write_text(dumps(ConceptGraph("ab")).replace('["affect",1.0,1]', huge))
    with pytest.raises(CorruptFile, match="unreadable graph file"):
        load(str(path))


# the saver writes a weight only as a finite, non-negative JSON float: a string,
# a bool or an integer is refused ("1_0" would load as 10.0), as is a negative
# float, NaN or an infinity
@pytest.mark.parametrize("weight", ["nan", "1e400", "-inf", "-1", True, "0.5", 1,
                                    "1_0", " 2.5 ", "1e0", "1.0", -1.0, -5e-324,
                                    pytest.param(math.nan, id="float-nan"),
                                    pytest.param(math.inf, id="float-inf"),
                                    pytest.param(-math.inf, id="float--inf")])
def test_load_rejects_non_finite_or_negative_weight(tmp_path, weight):
    data = json.loads(dumps(ConceptGraph("ab")))
    data["concepts"][0][WEIGHT] = weight
    path = tmp_path / "bad.cg"
    path.write_text(json.dumps(data))
    with pytest.raises(CorruptFile):
        load(str(path))


# A `None` section is a top-level key, and a `concepts` field is the row
# whose weight is set, the one float field a file holds.  The episode
# counter, the pair counts and the raw-bit total come from the chains, so a
# file that states any of them (`episode`, `assoc_counts`, `raw_bits_total`)
# is refused, whatever the value.
@pytest.mark.parametrize("section, field, value", [
    ("concepts", 0, "nan"),
    ("concepts", 0, "NaN"),
    ("concepts", 0, "-1"),
    (None, "raw_bits_total", "nan"),
    (None, "raw_bits_total", "-3"),
    (None, "episode", -5),
    # a run is at least 2 long: run length 0 would make every later ingest
    # fail, and 1 would grow the one-hole identity template
    ("run_observations", "0", [0]),
    ("run_observations", "1", [0]),
    # a run member is a ref node, so a parseable concept: these would count
    # toward the 2-fold number template as children that do not exist, and
    # as the affect primitive 2
    ("run_observations", "2", [-7, 999, 1000000]),
    ("run_observations", "2", [2]),
    (None, "assoc_counts", [[999, 1000, 5]]),
    (None, "assoc_counts", [[0, 1, -7]]),
    (None, "assoc_counts", [[0, 1, 0]]),
    (None, "assoc_counts", [[2, 3, 100]]),
    (None, "assoc_counts", [[0, 1, 5], [0, 1, 6]]),
    # the saver writes every float field as a JSON float, so a bool, an
    # integer or a string is an edit whose resave would differ
    ("concepts", 0, True),
    ("concepts", 0, "0.5"),
    ("concepts", 0, 1),
    (None, "raw_bits_total", 12),
    (None, "raw_bits_total", "12.0"),
    (None, "raw_bits_total", False),
    ("concepts", 0, "1_0"),
    ("concepts", 0, " 0.5 "),
    (None, "raw_bits_total", "1e0"),
    (None, "raw_bits_total", "1.0"),
    # a weight out of range
    ("concepts", 0, -1.0),
    ("concepts", 0, -2.5),
    pytest.param("concepts", 0, math.inf, id="concepts-0-inf"),
    pytest.param("concepts", 0, math.nan, id="concepts-0-float-nan"),
    (None, "raw_bits_total", -3.0),
    pytest.param(None, "raw_bits_total", math.nan, id="None-raw_bits_total-float-nan"),
    pytest.param(None, "raw_bits_total", math.inf, id="None-raw_bits_total-inf"),
    # the saver writes a run's members once each, in increasing order, and
    # ingest never keeps a run length with no member
    ("run_observations", "2", []),
    ("run_observations", "4", [0, 0]),
    ("run_observations", "2", [1, 0]),
])
def test_load_rejects_bad_config_and_counters(section, field, value):
    data = json.loads(dumps(ConceptGraph("ab")))
    if section == "concepts":
        data["concepts"][field][WEIGHT] = value
    else:
        (data[section] if section else data)[field] = value
    with pytest.raises(CorruptFile):
        graph_from_json(data)


# a float field of a fresh graph's file, by the path to it
FLOAT_FIELDS = {"weight": ("concepts", 0, WEIGHT)}


def file_with(tmp_path, where: str, spelling: str) -> str:
    """A fresh graph's file over "ab", laid out as the saver lays it out, with
    one float field spelled `spelling`."""
    data = json.loads(dumps(ConceptGraph("ab")))
    *path, last = FLOAT_FIELDS[where]
    field = data
    for key in path:
        field = field[key]
    field[last] = "@float@"
    file = tmp_path / f"{where}.cg"
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    file.write_text(text.replace('"@float@"', spelling))
    return str(file)


@pytest.mark.parametrize("spelling", ["1.00", "1e0", "1", '"0.9"', "1e400", "0.90"])
@pytest.mark.parametrize("where", list(FLOAT_FIELDS))
def test_load_refuses_a_float_not_spelled_as_the_saver_writes_it(tmp_path, where, spelling):
    """The saver writes a float as `repr` spells it, and `load` refuses any
    other spelling of a float, a JSON integer and a string, whose resave
    would differ; the saver's spelling of the same value loads."""
    with pytest.raises(CorruptFile):
        load(file_with(tmp_path, where, spelling))
    value = float(json.loads(spelling))
    if value < math.inf:
        file = file_with(tmp_path, where, repr(value))
        assert dumps(load(file)) == Path(file).read_text()


EDGE_FLOATS = st.one_of(
    st.sampled_from([5e-324, FORGET_WEIGHT, 0.1 + 0.2, 1 / 3, 1e16, 0.0, 2]),
    st.integers(0, 400).map(lambda k: 0.9 ** k),
    st.floats(0, 1e300))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_float_survives_a_save_and_load(tmp_path_factory, data):
    """Weights load back `==` to what was saved, at edge values and as an
    int given for a float, and saving the loaded graph gives the same
    bytes."""
    g = ConceptGraph("ab")
    g.add(Repeat(g.add(Concat((0, 1))), 2))
    for cid in range(len(g)):
        g.set_weight(cid, data.draw(EDGE_FLOATS))
    path = str(tmp_path_factory.mktemp("floats") / "g.cg")
    save(g, path)
    text = Path(path).read_text()
    loaded = load(path)
    assert [c.weight for c in loaded.concepts] == [c.weight for c in g.concepts]
    save(loaded, path)
    assert Path(path).read_text() == text


@pytest.mark.parametrize("edit", [
    pytest.param(lambda g: setattr(g.concepts[4], "weight", math.nan), id="weight-nan"),
])
def test_save_refuses_a_float_that_load_refuses(tmp_path, edit):
    """A graph holding a float that `load` would refuse saves no file:
    `save` raises before writing, and the old file keeps its bytes."""
    path = tmp_path / "g.cg"
    save(trained_graph(), str(path))
    old = path.read_bytes()
    g = trained_graph()
    edit(g)
    with pytest.raises(ValueError):
        save(g, str(path))
    assert path.read_bytes() == old


@pytest.mark.parametrize("edit", [
    pytest.param(lambda g: record_associations(g, (0, 1, 0, 1)), id="direct-count"),
    pytest.param(lambda g: g.assoc_counts.update({(0, 1): 99}), id="hand-edit"),
    pytest.param(lambda g: g.assoc_counts.clear(), id="cleared"),
])
def test_save_refuses_pair_counts_that_no_level_0_holds(tmp_path, edit):
    """A load recounts the pair counts over the stored level 0s, so counts
    that differ would silently change in a save and load: `save` raises a
    `GraphError` before writing, and the old file keeps its bytes."""
    path = tmp_path / "g.cg"
    save(trained_graph(), str(path))
    old = path.read_bytes()
    g = trained_graph()
    assert g.assoc_counts and g.assoc_counts == g.chain_pair_counts()
    edit(g)
    with pytest.raises(GraphError, match="pair counts"):
        save(g, str(path))
    assert path.read_bytes() == old


def cyclic_graph_data(cycle):
    """A saved graph whose concat 4 ("ab") and 5 ("aba") are edited into a cycle."""
    g = ConceptGraph("ab")
    g.add(Concat((g.add(Concat((0, 1))), 0)))
    data = json.loads(dumps(g))
    if cycle == "self":
        set_field(data["concepts"][4], "children", [4, 1])
    else:
        set_field(data["concepts"][4], "children", [5, 1])
    return data


@pytest.mark.parametrize("cycle", ["self", "pair"])
def test_load_rejects_reference_cycles(cycle):
    with pytest.raises(CorruptFile):
        graph_from_json(cyclic_graph_data(cycle))


def test_load_rejects_missing_reference_and_accepts_newer_template():
    data = json.loads(dumps(ConceptGraph("ab")))
    data["concepts"].append(["concat", 1.0, [0, 99]])
    with pytest.raises(CorruptFile):
        graph_from_json(data)
    # an Apply rewritten to name a template added after it is not a cycle
    g = ConceptGraph("abc")
    x = g.add(Concat((0, 1, 2)))
    tpl = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    g.replace_kind(x, Apply(tpl, (1,)))
    assert graph_from_json(json.loads(dumps(g))).expansion(x) == ("a", "b", "c")


def reference_kinds_data():
    """A saved graph with every reference kind: 5 = "ab", 6 = a two-hole
    template, 7 = "ab" + "c" through it, 8 = "abab", 9 = an association,
    10 = "ababa" and 11 = a template whose slot ref 8 is newer than 7."""
    g = ConceptGraph("abc")
    ab = g.add(Concat((0, 1)))
    tpl = g.add(Template((Hole(0), Hole(1))))
    g.add(Apply(tpl, (ab, 2)))
    abab = g.add(Repeat(ab, 2))
    g.add(Association(ab, abab))
    g.add(Concat((abab, 0)))
    g.add(Template((SlotRef(abab), Hole(0), Hole(1))))
    return json.loads(dumps(g))


def test_dot_and_teach_bytes_are_pinned():
    """Every kind's DOT label and teach line, affect primitives, a quoted
    marker label and the follows marker's dashed edges included."""
    g = graph_from_json(reference_kinds_data())
    g.add(Marker('follows "x" \\'))
    g.add(FOLLOWS)
    g.set_weight(8, 2.5)
    teach = "".join(export_teach(g, cid) for cid in range(len(g)))
    assert hashlib.sha256(dot_text(g).encode()).hexdigest() == (
        "75bc62002f731d9774cb5bf48d0ed2fc2a5046a4a42a2d970e98122401d7754b")
    assert hashlib.sha256(teach.encode()).hexdigest() == (
        "1105fbd02b2418fcfd4e4629bb6fa25b7bf93feeb2f33769fe335aa749d22cef")


def test_every_kind_has_one_row_in_the_kind_table():
    rows = storage._KINDS
    assert set(rows) == set(typing.get_args(Kind))
    assert len({row[0] for row in rows.values()}) == len(rows)  # file, teach and DOT name
    for cls, named_tags in storage._FIELDS.items():
        assert [name for name, _ in named_tags] == list(cls._fields)


@pytest.mark.parametrize("cid, field, value", [
    pytest.param(7, "template", 3, id="apply-names-an-affect-primitive"),
    pytest.param(7, "fillers", [], id="two-hole-apply-without-fillers"),
    pytest.param(6, "body", [["hole", 0], ["hole", 5]], id="hole-indices-0-5"),
    pytest.param(8, "count", -2, id="negative-repeat-count"),
    pytest.param(10, "children", [9, 0], id="concat-child-is-an-association"),
    pytest.param(7, "template", 11, id="newer-template-with-a-newer-slot-ref"),
])
def test_load_rejects_invalid_concepts(cid, field, value):
    data = reference_kinds_data()
    assert graph_from_json(data).expansion(10) == tuple("ababa")
    set_field(data["concepts"][cid], field, value)
    with pytest.raises(CorruptFile):
        graph_from_json(data)


def test_load_rejects_an_expansion_past_the_cap():
    g = ConceptGraph("ab")
    g.add(Repeat(g.add(Concat((0, 1))), 2))
    doc = json.loads(dumps(g))
    set_field(doc["concepts"][5], "count", 10**9)  # 2 * 10**9 tokens, refused unbuilt
    with pytest.raises(CorruptFile):
        graph_from_json(doc)


def test_load_rejects_a_refinement_ref_that_does_not_expand():
    g = trained_graph()
    data = json.loads(dumps(g))
    level = data["refinements"][0][0]
    i = next(i for i, node in enumerate(level) if type(node) is int)
    for bad in (g.pleasure_id, len(g)):
        level[i] = bad
        with pytest.raises(CorruptFile):
            graph_from_json(data)


# The description nodes that break the node rule, as a graph file holds
# them, for a graph over "abcd", whose pleasure primitive is 4.  A node is a
# JSON integer (a ref to a parseable concept) or a blob (a JSON list of one
# or more alphabet tokens, read as a tuple); a string is not split into its
# characters, and a bool is no ref.  `reconstruct` and `description_dl`
# refuse each one as the loader reads it (`storage._desc_from_json`).
BAD_NODES = [[["a"]], [], ["z"], [5], [None], "ab", None, True, 3.0, {}, 4, -1, 10**6]


@pytest.mark.parametrize("payload", BAD_NODES)
def test_load_rejects_a_malformed_blob(payload):
    data = json.loads(dumps(trained_graph()))
    data["refinements"][0][0].append(payload)
    with pytest.raises(CorruptFile):
        graph_from_json(data)


def test_load_reads_a_blob_as_a_token_tuple():
    data = json.loads(dumps(trained_graph()))
    data["refinements"][0][0].append(["d", "a"])
    assert graph_from_json(data).refinement_store[0][0][-1] == ("d", "a")


@pytest.mark.parametrize("cid, row", [
    pytest.param(10, {"kind": "concat", "created_at": 0, "weight": "1.000000000",
                      "children": [8, 0]}, id="a-cg1-object"),
    pytest.param(10, "concat", id="a-string"),
    pytest.param(10, None, id="null"),
    pytest.param(10, [], id="empty"),
    pytest.param(10, ["concat", [8, 0]], id="no-weight"),
    pytest.param(10, ["concat", 1.0], id="no-fields"),
    pytest.param(10, ["concat", 1.0, [8, 0], [0]], id="an-extra-field"),
    pytest.param(8, ["repeat", 1.0, 5], id="repeat-without-count"),
    pytest.param(10, ["wobble", 1.0, [8, 0]], id="unknown-kind"),
    pytest.param(10, [["concat"], 1.0, [8, 0]], id="a-list-as-kind"),
])
def test_load_rejects_a_misshapen_concept_row(cid, row):
    data = reference_kinds_data()
    assert data["concepts"][10] == ["concat", 1.0, [8, 0]]
    data["concepts"][cid] = row
    with pytest.raises(CorruptFile):
        graph_from_json(data)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda rows: rows.__setitem__(0, ["primitive", 1.0, "b"]),
                 id="tokens-out-of-order"),
    pytest.param(lambda rows: rows.__setitem__(4, ["affect", 1.0, 1]),
                 id="two-pleasure-primitives"),
    pytest.param(lambda rows: rows.__setitem__(3, ["marker", 1.0, "x"]),
                 id="a-marker-for-pleasure"),
    pytest.param(lambda rows: rows.pop(4), id="no-pain-primitive"),
    pytest.param(lambda rows: rows.clear(), id="no-concepts"),
])
def test_load_rejects_initial_rows_other_than_the_alphabet_and_affects(edit):
    """The file repeats the primitives, in alphabet order, then pleasure and pain."""
    data = json.loads(dumps(ConceptGraph("abc")))
    edit(data["concepts"])
    with pytest.raises(CorruptFile):
        graph_from_json(data)


def test_load_validates_each_concept_once(monkeypatch):
    """`ConceptGraph` validates the initial concepts, and load the rest, an
    Apply that names a newer template included."""
    doc = json.loads(dumps(ConceptGraph("abcd")))
    rows = doc["concepts"]
    # 6-21: the template 22 + a (token a, then a hole) applied to each token
    # b, so 16 Applies name a newer template; 26-39: concats of Applies
    rows += [["apply", 1.0, 22 + a, [b]] for a in range(4) for b in range(4)]
    rows += [["template", 1.0, [["ref", a], ["hole", 0]]] for a in range(4)]
    rows += [["concat", 1.0, [cid, cid + 1]] for cid in range(6, 20)]
    forward = [i for i, row in enumerate(rows) if row[0] == "apply" and row[2] > i]
    assert len(rows) == 40 and len(forward) == 16
    calls = []
    validate = ConceptGraph._validate

    def counting(self, kind, cid):
        calls.append(cid)
        return validate(self, kind, cid)

    monkeypatch.setattr(ConceptGraph, "_validate", counting)
    g = graph_from_json(doc)
    assert len(g) == 40 and calls == list(range(len(g)))
    calls.clear()
    g = graph_from_json(json.loads(dumps(g)))
    assert calls == list(range(len(g)))


def int_fields(row) -> list[tuple]:
    """Paths of the integer reference and count fields of one concept row,
    whose fields start at column 2."""
    kind = row[0]
    if kind == "concat":
        return [(2, i) for i in range(len(row[2]))]
    if kind == "template":
        return [(2, i, 1) for i in range(len(row[2]))]
    if kind == "apply":
        return [(2,)] + [(3, i) for i in range(len(row[3]))]
    if kind in ("repeat", "association"):  # child and count, a and b
        return [(2,), (3,)]
    return []


@functools.cache
def trained_graph_text() -> str:
    return dumps(trained_graph())


@settings(max_examples=300, deadline=1000)
@given(st.data())
def test_load_of_a_graph_with_one_edited_integer(data):
    """Each edit either loads a graph that parses and reconstructs, or is a
    `CorruptFile`; no other exception."""
    doc = json.loads(trained_graph_text())
    concepts = doc["concepts"]
    cid = data.draw(st.sampled_from([i for i, e in enumerate(concepts) if int_fields(e)]))
    *path, last = data.draw(st.sampled_from(int_fields(concepts[cid])))
    field = concepts[cid]
    for key in path:
        field = field[key]
    field[last] = data.draw(st.integers(-2, len(concepts) + 2))
    try:
        g = graph_from_json(doc)
    except CorruptFile:
        return
    tokens = tuple("abcdabcaabbbddcab")
    assert reconstruct(g, parse(g, tokens)) == tokens


def numeric_paths(doc) -> list[tuple]:
    """Paths of every numeric field of a saved graph: weights, references and
    counts, the run members, and the refinement refs."""
    paths = []
    for i, row in enumerate(doc["concepts"]):
        paths.append(("concepts", i, WEIGHT))
        paths += [("concepts", i) + field for field in int_fields(row)]
    for k, members in doc["run_observations"].items():
        paths += [("run_observations", k, i) for i in range(len(members))]
    for ep, chain in enumerate(doc["refinements"]):
        paths += [("refinements", ep, level, i) for level, desc in enumerate(chain)
                  for i, node in enumerate(desc) if type(node) is int]
    return paths


NOT_AN_INTEGER = st.one_of(
    st.sampled_from(["3", "x", "", "1.5", "-1", True, False, None, [], [1], {},
                     2.0, 2.5, -0.5, 1e300, math.inf, -math.inf, math.nan]),
    st.text(max_size=3), st.floats(), st.lists(st.integers(0, 3), max_size=2))


@settings(max_examples=300, deadline=1000)
@given(st.data())
def test_load_of_a_graph_with_one_non_integer_field(data):
    """A string, float, bool, list or null in place of an integer is a
    `CorruptFile`.  A weight is a float, so in its place the value either is
    a `CorruptFile` or loads a graph whose save -> load -> save is
    byte-stable."""
    doc = json.loads(trained_graph_text())
    *path, last = data.draw(st.sampled_from(numeric_paths(doc)))
    field = doc
    for key in path:
        field = field[key]
    field[last] = data.draw(NOT_AN_INTEGER)
    if not (len(path) == 2 and path[0] == "concepts" and last == WEIGHT):
        with pytest.raises(CorruptFile):
            graph_from_json(doc)
        return
    try:
        g = graph_from_json(doc)
    except CorruptFile:
        return
    text = dumps(g)
    assert dumps(graph_from_json(json.loads(text))) == text


NOT_A_LIST = st.sampled_from(["", "12", "abcd", {}, {"1": 2}, None, 7, 2.5, True, False])
NOT_A_DICT = st.sampled_from([[], [["2", [0]]], "", "ab", None, 7, 2.5, True])
SECTION_TYPES = {"alphabet": NOT_A_LIST, "concepts": NOT_A_LIST,
                 "run_observations": NOT_A_DICT, "refinements": NOT_A_LIST}


@settings(max_examples=300, deadline=1000)
@given(st.data())
def test_load_of_a_graph_with_one_misshapen_row_or_section(data):
    """A refinement chain or level that is not a list, a run member list
    that is not a list, and a section of the wrong JSON type are each a
    `CorruptFile`."""
    doc = json.loads(trained_graph_text())
    where = data.draw(st.sampled_from(["row", "members", "section"]))
    if where == "row":
        chains = doc["refinements"]
        chain = chains[data.draw(st.integers(0, len(chains) - 1))]
        rows = data.draw(st.sampled_from([chains, chain]))
        rows[data.draw(st.integers(0, len(rows) - 1))] = data.draw(NOT_A_LIST)
    elif where == "members":
        doc["run_observations"][data.draw(st.sampled_from(sorted(doc["run_observations"])))] = \
            data.draw(NOT_A_LIST)
    else:
        section = data.draw(st.sampled_from(sorted(SECTION_TYPES)))
        doc[section] = data.draw(SECTION_TYPES[section])
    with pytest.raises(CorruptFile):
        graph_from_json(doc)


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1.0", "-0", "x", ""])
@pytest.mark.parametrize("section", ["run_observations"])
def test_load_rejects_a_non_canonical_key(section, key):
    doc = json.loads(trained_graph_text())
    doc[section][key] = doc[section].pop("2")
    with pytest.raises(CorruptFile):
        graph_from_json(doc)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d.__setitem__("episode", 0), id="episode-0"),
    pytest.param(lambda d: d.__setitem__("episode", len(d["refinements"]) - 1),
                 id="episode-at-the-last-key"),
    pytest.param(lambda d: d["refinements"].__setitem__(1, []), id="an-empty-chain"),
    pytest.param(lambda d: d.__setitem__("episode", len(d["refinements"]) + 1),
                 id="episode-past-the-last-key"),
    pytest.param(lambda d: (d.__setitem__("episode", -1), d["refinements"].clear()),
                 id="episode--1-and-no-chains"),
])
def test_load_rejects_a_refinement_chain_not_of_an_episode(edit):
    """A chain's position is its episode id and the chain count is the
    episode count, so the file states no counter: a file that states one,
    at any value, is refused.  Each chain holds level 0; an empty chain
    would leave an episode that `refine` cannot find."""
    doc = json.loads(trained_graph_text())
    assert "episode" not in doc and len(doc["refinements"]) == 12
    edit(doc)
    with pytest.raises(CorruptFile):
        graph_from_json(doc)


def test_a_cg1_document_is_a_version_mismatch():
    """The reader reads cg9 alone: a cg1 file is refused by its version."""
    with pytest.raises(VersionMismatch, match="expected 'cg9', got 'cg1'"):
        graph_from_json({"version": "cg1", "alphabet": ["a", "b"], "concepts": [],
                         "digram_counts": []})


# The config section of a cg8 file: the four thresholds that are now constants.
CG8_CONFIG = {"assoc_threshold": 3, "decay": 0.9, "generalize_threshold": 3, "repeat_threshold": 2}


def with_config(**fields):
    """An edit that gives a file a config section: cg8's, with `fields`
    added (or, given None, dropped)."""
    config = {k: v for k, v in {**CG8_CONFIG, **fields}.items() if v is not None}
    return lambda d: d.__setitem__("config", config)


# Edits that leave a file other than the saver writes, whose resave would
# differ: older files held the `library` and `follows_marker` sections and
# a config section, with four more fields in old files, the two thresholds
# the engine never read in cg4 files, the valence decay and hop cap in cg5
# files, the beam base in cg6 files, the pool base in cg7 files and the
# four thresholds alone in cg8 files.
UNSAVED_EDITS = {
    "an-extra-section": lambda d: d.__setitem__("junk", 1),
    "a-library-section": lambda d: d.__setitem__("library", ["(builtin succ 1)"]),
    "a-follows-marker-section": lambda d: d.__setitem__("follows_marker", 5),
    "a-missing-section": lambda d: d.pop("run_observations"),
    "an-extra-config-field": with_config(bogus="1.0"),
    "a-dropped-config-field": with_config(iter_cap=100),
    "a-cg4-config-field": with_config(fast_path_threshold=8.0),
    "a-cg5-config-field": with_config(valence_hop_cap=6),
    "a-cg6-config-field": with_config(beam_base=4),
    "a-cg7-config-field": with_config(pool_base=64),
    "a-missing-config-field": with_config(decay=None),
    "a-cg8-config-section": with_config(),
}


@pytest.mark.parametrize("edit", list(UNSAVED_EDITS))
def test_a_section_or_config_field_the_saver_does_not_write_is_corrupt_file(
        tmp_path, capsys, edit):
    doc = json.loads(trained_graph_text())
    UNSAVED_EDITS[edit](doc)
    with pytest.raises(CorruptFile):
        graph_from_json(doc)
    path = tmp_path / "g.cg"
    path.write_text(json.dumps(doc))
    assert main(["stats", "--graph", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_deeply_nested_graph_file_is_corrupt_file(tmp_path):
    path = tmp_path / "nested.cg"
    path.write_text("[" * 1000 + "]" * 1000)
    with pytest.raises(CorruptFile):
        load(str(path))


class HalfWriter:
    """A file handle that writes half of the text, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fail_writes_in_storage(monkeypatch):
    def fake_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        return HalfWriter(handle) if "w" in mode else handle
    monkeypatch.setattr(storage, "open", fake_open, raising=False)


@pytest.mark.parametrize("write", [save, export_dot])
def test_a_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out"
    target.write_text("old bytes\n")
    fail_writes_in_storage(monkeypatch)
    with pytest.raises(IoFailure):
        write(ConceptGraph("ab"), str(target))
    assert target.read_text() == "old bytes\n"
    assert os.listdir(tmp_path) == ["out"]
    monkeypatch.undo()
    write(ConceptGraph("ab"), str(target))
    assert target.read_text() != "old bytes\n"
    assert os.listdir(tmp_path) == ["out"]


def test_save_through_a_symlink_keeps_the_link(tmp_path):
    real, link = tmp_path / "real.cg", tmp_path / "link.cg"
    save(ConceptGraph("a"), str(real))
    link.symlink_to(real)
    save(ConceptGraph("ab"), str(link))
    assert link.is_symlink() and load(str(real)).alphabet == ("a", "b")
    assert sorted(os.listdir(tmp_path)) == ["link.cg", "real.cg"]


def test_a_failed_teach_write_keeps_the_old_file(tmp_path, monkeypatch):
    graph, target = tmp_path / "g.cg", tmp_path / "out.teach"
    save(ConceptGraph("ab"), str(graph))
    target.write_text("old bytes\n")
    fail_writes_in_storage(monkeypatch)
    argv = ["teach", "--graph", str(graph), "--concept", "0", "--out", str(target)]
    assert main(argv) == 2
    assert target.read_text() == "old bytes\n"
    assert sorted(os.listdir(tmp_path)) == ["g.cg", "out.teach"]


def test_dot_fresh_graph():
    text = dot_text(ConceptGraph("a"))
    assert text.count("[label=") == 3
    assert "->" not in text


def test_dot_edges_and_styles():
    g = ConceptGraph("ab")
    c = g.add(Concat((0, 1)))
    a = g.add(Association(0, 1))
    text = dot_text(g)
    assert f"c{c} -> c0;" in text and f"c{c} -> c1;" in text
    assert f"c{a} -> c0 [style=dashed];" in text
    assert f"c{a} -> c1 [style=dashed];" in text


def test_teach_export_is_topological_and_deterministic():
    g = ConceptGraph("ab")
    p = g.add(Concat((0, 1)))
    tpl = g.add(Template((Hole(0), Hole(0))))
    app = g.add(Apply(tpl, (p,)))
    script = export_teach(g, app)
    lines = script.strip().splitlines()
    assert lines[-1].startswith('["apply",')
    assert script == export_teach(g, app)


def test_teach_import_preserves_expansion():
    g = ConceptGraph("ab")
    p = g.add(Concat((0, 1)))
    r = g.add(Repeat(p, 3))
    script = export_teach(g, r)
    fresh = ConceptGraph("ab")
    cid = import_teach(fresh, script)
    assert fresh.expansion(cid) == g.expansion(r)


def test_teach_roundtrip_random_concepts():
    g = trained_graph()
    rng = random.Random(15)
    candidates = g.parseable_ids()
    for cid in rng.sample(candidates, min(25, len(candidates))):
        script = export_teach(g, cid)
        fresh = ConceptGraph("abcd")
        new_id = import_teach(fresh, script)
        assert fresh.expansion(new_id) == g.expansion(cid)


def test_teach_roundtrip_of_quote_and_backslash():
    """Primitive tokens `"` and `\\` and a marker label with both are
    written with JSON's escapes and read back through them."""
    g = ConceptGraph(['"', "\\", "a"])
    word = g.add(Concat((0, 1, 0, 2)))
    label = g.add(Marker('x"\\y'))
    fresh = ConceptGraph(['"', "\\", "a"])
    assert fresh.expansion(import_teach(fresh, export_teach(g, word))) == ('"', "\\", '"', "a")
    assert fresh.concept(import_teach(fresh, export_teach(g, label))).kind == Marker('x"\\y')
    assert export_teach(g, label) == '["marker","x\\"\\\\y"]\n'


@pytest.mark.parametrize("script", [None, pytest.param(b'["primitive","a"]', id='(prim "a")'),
                                    ['["primitive","a"]'], 7])
def test_a_teach_script_that_is_not_a_str_is_corrupt(script):
    g = ConceptGraph("ab")
    with pytest.raises(CorruptFile, match="teach script"):
        import_teach(g, script)
    assert len(g) == 4


def chain_teach_script(depth: int) -> str:
    """Teach lines for a concat chain (... ((a b) b) ... b), `depth` concats deep."""
    lines = ['["primitive","a"]', '["primitive","b"]', '["concat",[0,1]]']
    lines += [f'["concat",[{i},1]]' for i in range(2, depth + 1)]
    return "\n".join(lines) + "\n"


def test_deep_chain_from_teach_parses_and_reconstructs():
    g = ConceptGraph("ab")
    top = import_teach(g, chain_teach_script(3000))
    g.set_weight(top, 50.0)
    tokens = g.expansion(top)
    assert tokens == ("a",) + ("b",) * 3000
    desc = parse(g, tokens)
    assert reconstruct(g, desc) == tokens


def test_deep_chain_exports_and_reimports():
    g = ConceptGraph("ab")
    top = import_teach(g, chain_teach_script(3000))
    script = export_teach(g, top)
    assert script == chain_teach_script(3000)
    fresh = ConceptGraph("ab")
    assert fresh.expansion(import_teach(fresh, script)) == g.expansion(top)


def test_teach_repeat_past_the_cap_raises():
    g = ConceptGraph("ab")
    with pytest.raises(TooLarge):
        import_teach(g, '["primitive","a"]\n["repeat",0,1000000000]\n')
    assert len(g) == 4


def test_teach_forward_reference_rejected():
    with pytest.raises(UnresolvedReference):
        import_teach(ConceptGraph("ab"), '["concat",[0,1]]\n["primitive","a"]\n')


def test_teach_unknown_concept_and_bad_script():
    g = ConceptGraph("ab")
    with pytest.raises(UnknownConcept):
        export_teach(g, 99)
    with pytest.raises(CorruptFile):
        import_teach(g, '["wobble",1]\n')


def test_a_failed_teach_import_leaves_the_graph_as_it_was():
    g = ConceptGraph("ab")
    text = dumps(g)
    with pytest.raises(TooLarge):
        import_teach(g, '["primitive","a"]\n["primitive","b"]\n["concat",[0,1]]\n'
                        '["repeat",2,1000000000]\n')
    assert dumps(g) == text


@functools.cache
def teach_lines(lines: int):
    """Teach rows, with bad kinds, field counts, references, counts and
    values mixed in, and lines that are no row at all."""
    ref = st.one_of(st.integers(-1, lines + 1), st.sampled_from(["0", 1.5, True, None, []]))
    count = st.sampled_from([-1, 0, 1, 2, 3, 1000000000, "2", 2.0, False])
    slot = st.one_of(st.tuples(st.just("hole"), st.sampled_from([0, 1, 2, -1, "0", True])),
                     st.tuples(st.just("ref"), ref),
                     st.sampled_from([["wobble", 0], [], ["hole"], ["hole", 0, 1], 0]))
    token = st.sampled_from(["a", "b", "z", "", 0, None, ["a"]])

    def row(name, *fields):
        return st.tuples(*fields).map(lambda values: json.dumps([name, *values]))

    return st.one_of(
        row("primitive", token),
        row("affect", st.sampled_from([1, -1, 0, 2, "1", True])),
        row("marker", token),
        row("concat", st.one_of(st.lists(ref, max_size=4), ref)),
        row("repeat", ref, count),
        row("template", st.lists(slot, max_size=3)),
        row("apply", ref, st.lists(ref, max_size=3)),
        row("association", ref, ref),
        st.sampled_from(['["wobble",1]', "[]", '["primitive"]', '["repeat",0]', '"primitive"',
                         "[", "]", '["association",0]', '["primitive","a","b"]',
                         '[["primitive"],0]', '["prim","a"]', '(prim "a")', '{"marker":"a"}']),
    )


@settings(max_examples=300, deadline=1000)
@given(st.data())
def test_teach_script_fuzz_imports_or_leaves_the_graph_unchanged(data):
    """Each script either imports, or raises a `GraphError` and leaves the
    saved bytes of the graph as they were."""
    g = ConceptGraph("ab")
    text = dumps(g)
    size = data.draw(st.integers(1, 6))
    script = "\n".join(data.draw(st.lists(teach_lines(size), min_size=1, max_size=size)))
    try:
        top = import_teach(g, script)
    except GraphError as exc:
        event(type(exc).__name__)
        assert dumps(g) == text
        return
    event("imported")
    assert 0 <= top < len(g)


# A case ported from the s-expression teach syntax keeps that line as its id.
@pytest.mark.parametrize("script", [
    pytest.param("[]", id="()"),
    pytest.param('["primitive"]', id="(prim)"),
    pytest.param('["primitive","a"]\n["repeat",0]', id="(prim a)\n(repeat 0)"),
    pytest.param('["primitive","a"]\n["template",[["hole"]]]', id="(prim a)\n(template (hole))"),
    pytest.param('["primitive","a"]\n["template",[["ref"]]]', id="(prim a)\n(template (ref))"),
    pytest.param('["primitive","a"]\n["concat",[0,"x"]]', id="(prim a)\n(concat 0 x)"),
    pytest.param('["primitive",["a"]]', id="(prim (a))"),
    pytest.param('["primitive","a","b"]', id='(prim "a" "b")'),
    pytest.param('["affect",1,1]', id="(affect 1 1)"),
    pytest.param('["primitive","a"]\n["repeat",0,2,2]', id="(prim a)\n(repeat 0 2 2)"),
    pytest.param('["primitive","a"]\n["primitive","b"]\n["association",0,1,1]',
                 id="(prim a)\n(prim b)\n(assoc 0 1 1)"),
    pytest.param('["primitive","a"]\n["template",[["hole",0],["wobble",0]]]',
                 id="(prim a)\n(template (hole 0) (wobble 0))"),
    pytest.param('["primitive","a"]\n["concat",' + "[" * 2000 + "]" * 2000 + "]", id="deep-list"),
    pytest.param("[" * 100000, id="deep-nesting"),
    pytest.param('["primitive","a"]\n["concat",0]', id="refs-not-a-list"),
    pytest.param('["primitive","a"]\n["repeat",0,2.0]', id="count-a-float"),
    pytest.param('["primitive","a"]\n["repeat",true,2]', id="ref-a-bool"),
    pytest.param('["wobble",1]', id="unknown-kind"),
    pytest.param('["prim","a"]', id="unknown-kind-prim"),
    pytest.param('["primitive","a"]\n["assoc",0,0]', id="unknown-kind-assoc"),
    pytest.param('"primitive"', id="a-string"),
    pytest.param('{"primitive":"a"}', id="an-object"),
    pytest.param('(prim "a")', id="an-s-expression"),
    pytest.param('["primitive","a"', id="unclosed"),
])
def test_teach_malformed_line_is_corrupt_file(script):
    with pytest.raises(CorruptFile):
        import_teach(ConceptGraph("ab"), script)


@pytest.mark.parametrize("script", [
    pytest.param("[" * 100000, id="nested-too-deep"),
    pytest.param('["' + "k" * 100000 + '"]', id="long-kind-name"),
])
def test_a_corrupt_teach_line_is_quoted_to_a_prefix_and_its_length(script):
    """The message keeps a prefix of the line and its length, not the line:
    a 100,000-character line gave a 100,101-character message."""
    with pytest.raises(CorruptFile, match="100002 chars") as info:
        import_teach(ConceptGraph("ab"), script)
    assert len(str(info.value)) < 300


def test_the_error_of_a_teach_line_that_add_refuses_is_bounded():
    """`add`'s own error keeps its class and bounds its text: a
    100,000-character token gave a 100,024-character `DanglingReference`."""
    g = ConceptGraph("ab")
    text = dumps(g)
    with pytest.raises(DanglingReference, match=" chars\\)") as info:
        import_teach(g, json.dumps(["primitive", "x" * 100000]))
    assert len(str(info.value)) < 300 and dumps(g) == text


@pytest.mark.parametrize("script, error", [
    pytest.param('["affect",2]', WrongKind, id="affect-sign-2"),
    pytest.param('["primitive","a"]\n["repeat",0,1]', InvalidCount, id="repeat-count-1"),
    pytest.param('["primitive","z"]', DanglingReference, id="token-not-in-alphabet"),
])
def test_a_teach_line_that_add_refuses_raises_adds_error(script, error):
    """A line that reads as a kind is refused with `add`'s own error, and
    only a line that cannot be read is a `CorruptFile`; either way the
    graph keeps its bytes."""
    g = ConceptGraph("ab")
    text = dumps(g)
    with pytest.raises(error):
        import_teach(g, script)
    assert dumps(g) == text



# By kind, the tag of each field that holds references: one, a list of them,
# or a template body, whose ["ref", id] slots hold them.
REF_FIELDS = {"concat": ("refs",), "repeat": ("ref", None), "apply": ("ref", "refs"),
              "association": ("ref", "ref"), "template": ("body",)}


def renumbered(row: list, new) -> list:
    """The weightless row `[kind, *fields]` with each reference `r` as `new(r)`."""
    name, *fields = row
    for i, tag in enumerate(REF_FIELDS.get(name, ())):
        if tag == "ref":
            fields[i] = new(fields[i])
        elif tag == "refs":
            fields[i] = [new(r) for r in fields[i]]
        elif tag == "body":
            fields[i] = [[t, new(x) if t == "ref" else x] for t, x in fields[i]]
    return [name, *fields]


def subcircuit(graph: ConceptGraph, cid: int, order: list) -> list:
    """`order` extended by `cid` and the concepts it is built from that it
    lacks, each after its references, depth first."""
    for ref in graph.reference_edges(cid):
        if ref not in order:
            subcircuit(graph, ref, order)
    order.append(cid)
    return order


def grammar_episodes(seed: int, depth: int, episodes: int) -> list:
    """A hidden-grammar stream cut into 64-token episodes."""
    tokens = gen_grammar_corpus(seed, depth, 64 * episodes)[0]
    return [tokens[i:i + 64] for i in range(0, len(tokens), 64)]


_STREAMS = st.one_of(
    st.tuples(st.just("abcd"), st.lists(st.text("abcd", max_size=24), min_size=1, max_size=6)),
    st.tuples(st.just(GRAMMAR_ALPHABET), st.builds(
        grammar_episodes, st.integers(0, 10**6), st.integers(1, 3), st.integers(1, 4))))


@settings(max_examples=40, deadline=None)
@given(_STREAMS)
def test_a_teach_line_is_its_concepts_file_row(stream):
    """Each `export_teach` line is its concept's `graph_to_json` row without
    the weight, references renumbered to line indices; a script of another
    syntax is a `CorruptFile` that leaves the graph as it was."""
    alphabet, episodes = stream
    g = ConceptGraph(alphabet)
    for episode in episodes:
        ingest(g, list(episode))
    rows = graph_to_json(g)["concepts"]
    for cid in range(len(g)):
        order = subcircuit(g, cid, [])
        line_of = {c: i for i, c in enumerate(order)}
        assert export_teach(g, cid).splitlines() == [
            json.dumps(renumbered([rows[c][0], *rows[c][2:]], line_of.__getitem__),
                       separators=(",", ":")) for c in order]
    text = dumps(g)
    with pytest.raises(CorruptFile):
        import_teach(g, '(prim "a")')
    assert dumps(g) == text


def small_graph():
    """A graph of every kind over "ab": ids 0-3 the birth rows, then a concat,
    a template, an apply, a marker and an association."""
    g = ConceptGraph("ab")
    ab = g.add(Concat((0, 1)))
    tpl = g.add(Template((SlotRef(0), Hole(0))))
    g.add(Apply(tpl, (ab,)))
    g.add(Marker("m"))
    g.add(Association(0, ab))
    return g


ID_CALLS = {
    "concept": lambda g, cid: g.concept(cid),
    "expansion": lambda g, cid: g.expansion(cid),
    "reference_edges": lambda g, cid: g.reference_edges(cid),
    "set_weight": lambda g, cid: g.set_weight(cid, 2.0),
    "tick_weights": lambda g, cid: g.tick_weights([cid]),
    "export_teach": export_teach,
    "ref_cost": ref_cost,
}


@pytest.mark.parametrize("cid", [True, 1.0, [1], "1"], ids=repr)
@pytest.mark.parametrize("call", sorted(ID_CALLS))
def test_a_non_int_concept_id_is_unknown(call, cid):
    """`True == 1.0 == 1`, so without a type check these would name concept
    1; a list or a string is no id either."""
    g = small_graph()
    text = dumps(g)
    with pytest.raises(UnknownConcept):
        ID_CALLS[call](g, cid)
    assert dumps(g) == text


_IDS = st.integers(-1, 10)
_ATOMS = st.one_of(_IDS, st.booleans(), st.floats(-1, 10), st.text("abm", max_size=2))
_SLOTS = st.one_of(st.builds(Hole, _IDS), st.builds(SlotRef, _IDS), st.builds(Hole, _ATOMS),
                   st.builds(SlotRef, _ATOMS), _ATOMS)
_FIELDS = st.one_of(_ATOMS, st.lists(_IDS, max_size=3).map(tuple),
                    st.lists(_SLOTS, max_size=3).map(tuple), st.lists(_SLOTS, max_size=3))
# a kind with fields of every shape, or now and then a bare field (no kind)
_DRAWN_KINDS = st.sampled_from([*KIND_CLASSES.values(), None]).flatmap(
    lambda cls: _FIELDS if cls is None else st.builds(cls, *[_FIELDS] * len(cls._fields)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_DRAWN_KINDS, min_size=1, max_size=4))
def test_add_takes_only_kinds_that_save_and_load(kinds):
    """`add` refuses, with a `GraphError` and no change, every kind whose
    file its loader would refuse: a bool or float reference, count, sign or
    hole index, a non-string label, a list field or a non-kind.  Whatever
    it takes saves a file that loads back to the same bytes."""
    g = small_graph()
    for kind in kinds:
        before = dumps(g)
        try:
            g.add(kind)
        except GraphError as exc:
            event(type(exc).__name__)
            assert dumps(g) == before
            continue
        event("taken")
        text = dumps(g)
        assert dumps(graph_from_json(json.loads(text))) == text
