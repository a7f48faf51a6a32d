import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conceptgraph import core, inducer
from conceptgraph.core import (
    FOLLOWS,
    MAX_EXPANSION,
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    Concept,
    ConceptGraph,
    EmotionTemplate,
    Hole,
    Marker,
    Primitive,
    Repeat,
    SlotConstraint,
    SlotRef,
    Template,
    VALENCE_DECAY,
    VALENCE_HOP_CAP,
    default_emotion_templates,
    match_emotion,
)
from conceptgraph.errors import (
    ArityMismatch,
    DanglingReference,
    GraphError,
    InvalidCount,
    MalformedTemplate,
    NonExpandingConcept,
    TooLarge,
    UnknownConcept,
)
from conceptgraph.inducer import _ParseContext, ingest
from conceptgraph.storage import dumps, graph_from_json
from oracle import is_codeable, ref_cost


def fresh(alphabet="ab"):
    return ConceptGraph(alphabet)


def test_initial_graph_contents():
    g = fresh("ab")
    assert len(g) == 4  # 2 primitives + pleasure + pain
    assert g.concepts[0].kind == Primitive("a")
    assert g.concepts[1].kind == Primitive("b")
    assert g.pleasure_id == 2 and g.pain_id == 3
    assert g.concepts[2].kind == AffectPrimitive(1)
    assert g.concepts[3].kind == AffectPrimitive(-1)


def rows_of(g):
    """A graph's concept rows as (kind, weight) pairs, as a load hands them over."""
    return [(c.kind, c.weight) for c in g.concepts]


def test_a_graph_given_its_own_rows_is_the_same_graph():
    """One path from rows to a graph: a fresh graph makes the birth rows,
    a load passes its rows, and both build the same tables."""
    g = fresh("abc")
    x = g.add(Concat((0, 1)))
    tpl = g.add(Template((SlotRef(2), Hole(0))))
    g.add(Repeat(x, 3))
    g.add(Apply(tpl, (x,)))
    g.add(Association(0, x))
    g.tick_weights({x})
    assert vars(ConceptGraph("abc", rows_of(g))) == vars(g)
    assert vars(ConceptGraph("abc", rows_of(fresh("abc")))) == vars(fresh("abc"))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda rows: rows.clear(), id="no-rows"),
    pytest.param(lambda rows: rows.pop(), id="no-pain"),
    pytest.param(lambda rows: rows.reverse(), id="reversed"),
    pytest.param(lambda rows: rows.__setitem__(0, (Primitive("b"), 1.0)), id="b-for-a"),
    pytest.param(lambda rows: rows.__setitem__(2, (AffectPrimitive(-1), 1.0)),
                 id="pain-for-pleasure"),
    pytest.param(lambda rows: rows.insert(0, (Primitive("c"), 1.0)),
                 id="a-primitive-outside-the-alphabet"),
])
def test_rows_that_do_not_start_with_the_birth_rows_are_refused(edit):
    rows = rows_of(fresh("ab"))
    edit(rows)
    with pytest.raises(ValueError, match="initial concepts do not match the alphabet"):
        ConceptGraph("ab", rows)


@pytest.mark.parametrize("row", [
    (Concat((0, 1)), -1.0), (Concat((0, 1)), math.nan),
    (Concat((0, 1)), math.inf), (Concat((0, 1)), 10**400),
    (Concat((0, 1)), "x"), (Concat((0, 1)), True), (Concat((0, 1)), None),
    Concept(Concat((0, 1)), 1.0), None, [Concat((0, 1)), 1.0], (Concat((0, 1)),),
    (Concat((0, 1)), 1.0, 1.0)])
def test_a_row_that_is_not_a_concept_or_has_a_bad_weight_is_refused(row):
    """A concept row is a (kind, weight) pair, and one weight rule holds for
    every row: the constructor takes a weight that `set_weight` takes, so
    every graph it builds saves a file that loads."""
    with pytest.raises(ValueError, match="weight|pair"):
        ConceptGraph("ab", rows_of(fresh("ab")) + [row])


def test_a_birth_row_with_a_bad_weight_is_refused():
    """Affect primitives are outside the code, but their weights are saved."""
    rows = rows_of(fresh("ab"))
    rows[2] = (rows[2][0], -1.0)
    with pytest.raises(ValueError, match="weight"):
        ConceptGraph("ab", rows)


def test_alphabet_must_be_unique_and_nonempty():
    with pytest.raises(ValueError):
        ConceptGraph("")
    with pytest.raises(ValueError):
        ConceptGraph("aa")


def test_alphabet_symbols_must_be_strings():
    """A token is a string: a graph over other symbols would save a file
    its own loader refuses."""
    for alphabet in ([1, 2], ["a", None], [b"a"], [["a"]]):
        with pytest.raises(ValueError):
            ConceptGraph(alphabet)


@pytest.mark.parametrize("alphabet", [{"a", "b", "c"}, frozenset("abc"), dict.fromkeys("abc"),
                                      iter("abc")])
def test_an_unordered_or_one_shot_alphabet_is_refused(alphabet):
    """The primitive ids follow the alphabet's order, and a set's follows the
    hash seed: `{'a', 'b', 'c'}` gave `('c', 'b', 'a')` under PYTHONHASHSEED=2."""
    with pytest.raises(ValueError, match="alphabet"):
        ConceptGraph(alphabet)


@pytest.mark.parametrize("alphabet, rows", [
    (None, None), (5, None), ("ab", "cfg"), ("ab", {"decay": 0.5}), ("ab", (1.0, 2)), ("ab", 5)])
def test_graph_arguments_of_the_wrong_type_are_refused(alphabet, rows):
    """An alphabet that is not a sequence, or rows that are not an iterable
    of (kind, weight) pairs, are refused at construction: unchecked, the
    first raised a bare `TypeError`."""
    with pytest.raises(ValueError, match="alphabet|rows|pair"):
        ConceptGraph(alphabet, rows)


def test_expansion_base_cases():
    g = fresh("abc")
    assert g.expansion(0) == ("a",)
    p = g.add(Concat((0, 1)))
    r = g.add(Repeat(p, 3))
    assert "".join(g.expansion(r)) == "ababab"
    tpl = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    app = g.add(Apply(tpl, (1,)))
    assert "".join(g.expansion(app)) == "abc"


def test_expansion_errors():
    g = fresh("ab")
    with pytest.raises(UnknownConcept):
        g.expansion(99)
    with pytest.raises(NonExpandingConcept):
        g.expansion(g.pleasure_id)
    assoc = g.add(Association(0, 1))
    with pytest.raises(NonExpandingConcept):
        g.expansion(assoc)
    tpl = g.add(Template((Hole(0), Hole(0))))
    with pytest.raises(NonExpandingConcept):
        g.expansion(tpl)


def test_repeat_length_law():
    rng = random.Random(7)
    g = fresh("ab")
    base = g.add(Concat((0, 1)))
    for _ in range(50):
        n = rng.randint(2, 9)
        child = rng.choice([0, 1, base])
        rid = g.add(Repeat(child, n))
        assert len(g.expansion(rid)) == n * len(g.expansion(child))


def test_add_assigns_next_id_and_dedups():
    g = fresh("ab")
    cid = g.add(Concat((0, 1)))
    assert cid == 4
    assert g.add(Concat((0, 1))) == 4
    assert len(g) == 5


def test_add_validation_errors():
    g = fresh("ab")
    with pytest.raises(DanglingReference):
        g.add(Concat((0, 17)))
    with pytest.raises(ArityMismatch):
        g.add(Concat((0,)))
    with pytest.raises(InvalidCount):
        g.add(Repeat(0, 1))
    tpl = g.add(Template((SlotRef(0), Hole(0))))
    with pytest.raises(ArityMismatch):
        g.add(Apply(tpl, (0, 1)))
    with pytest.raises(ArityMismatch):
        g.add(Template((SlotRef(0), SlotRef(1))))  # no hole
    with pytest.raises(ArityMismatch):
        g.add(Apply(0, (1,)))  # not a template
    with pytest.raises(NonExpandingConcept):
        g.add(Concat((0, g.pleasure_id)))


def test_tick_weights_decay_then_reward():
    g = fresh("ab")
    g.set_weight(0, 5.0)
    g.set_weight(1, 5.0)
    g.tick_weights({1})
    assert g.concepts[0].weight == pytest.approx(4.5)
    assert g.concepts[1].weight == pytest.approx(5.5)


@pytest.mark.parametrize("used", [[0, 999], [999, 0], [-1], [0, 1, 10**6]])
def test_tick_weights_with_an_unknown_id_changes_nothing(used):
    g = ConceptGraph("ab")
    ingest(g, "abab")
    weights, codeable = [c.weight for c in g.concepts], g.codeable_weight()
    with pytest.raises(UnknownConcept):
        g.tick_weights(used)
    assert [c.weight for c in g.concepts] == weights
    assert g.codeable_weight() == codeable
    assert codeable == sum(w for cid, w in enumerate(weights) if is_codeable(g, cid))


def test_decay_closed_form():
    g = fresh("ab")
    for _ in range(10):
        g.tick_weights(set())
    assert g.concepts[0].weight == pytest.approx(0.9**10, abs=1e-9)


def test_affect_weight_exempt_from_decay():
    g = fresh("ab")
    for _ in range(5):
        g.tick_weights(set())
    assert g.concepts[g.pleasure_id].weight == 1.0


def test_valence_decay_along_path():
    assert VALENCE_DECAY == 0.5
    g = fresh("ab")
    # pleasure -- assoc -- concept chain
    assoc = g.add(Association(0, g.pleasure_id))
    v = g.propagate_valence()
    assert v[assoc] == pytest.approx(0.5)
    assert v[0] == pytest.approx(0.25)
    assert v[g.pleasure_id] == 1.0 and v[g.pain_id] == -1.0


def test_valence_symmetric_cancellation_and_isolation():
    g = fresh("ab")
    both = g.add(Association(g.pleasure_id, g.pain_id))
    v = g.propagate_valence()
    assert v[both] == pytest.approx(0.0)
    assert v[1] == 0.0  # isolated primitive


def test_valence_hop_cap():
    g = fresh("abcdefgh")
    # chain: pleasure <- a0 <- a1 <- ..., a_k at distance k + 1
    chain = [g.add(Association(0, g.pleasure_id))]
    for k in range(1, VALENCE_HOP_CAP + 1):
        chain.append(g.add(Association(k, chain[-1])))
    v = g.propagate_valence()
    for k, cid in enumerate(chain[:-1]):
        assert v[cid] == pytest.approx(VALENCE_DECAY ** (k + 1))
    assert v[chain[-1]] == 0.0  # beyond the cap contributes nothing


def test_match_emotion_anger_example():
    g = fresh("ab")
    action = g.add(Concat((0, 1)))
    hurt = g.add(Concat((1, 0)))
    desc = (action, hurt)
    valences = {hurt: -0.5}
    labels = {action: "other_action"}
    out = match_emotion(desc, default_emotion_templates(), valences, labels)
    assert out == [("anger", (0, 2))]


def test_match_emotion_requires_negative_valence():
    g = fresh("ab")
    action = g.add(Concat((0, 1)))
    desc = (action, 0)
    out = match_emotion(desc, default_emotion_templates(), {0: 0.3},
                        {action: "other_action"})
    assert out == []


def test_match_emotion_frustration_repetition():
    g = fresh("ab")
    try_ = g.add(Concat((0, 1)))
    fail = g.add(Concat((1, 0)))
    desc = (try_, fail) * 3
    out = match_emotion(desc, default_emotion_templates(), {fail: -1.0},
                        {try_: "attempt"})
    assert ("frustration", (0, 6)) in out
    # two repetitions are below the k=3 threshold
    short = (try_, fail) * 2
    out = match_emotion(short, default_emotion_templates(), {fail: -1.0},
                        {try_: "attempt"})
    assert all(emotion != "frustration" for emotion, _ in out)


def test_match_emotion_spans_ascending_and_maximal():
    g = fresh("ab")
    x = g.add(Concat((0, 1)))
    template = EmotionTemplate("neg", (SlotConstraint(kind="valence", sign=-1),))
    desc = (0, x, x, 0, x)
    out = match_emotion(desc, [template], {x: -1.0, 0: 1.0})
    assert out == [("neg", (1, 3)), ("neg", (4, 5))]


def test_match_emotion_wildcard_and_exact():
    g = fresh("ab")
    template = EmotionTemplate("pair", (
        SlotConstraint(kind="exact", concept=0),
        SlotConstraint(kind="any"),
    ))
    desc = (0, ("b",))
    assert match_emotion(desc, [template], {}) == [("pair", (0, 2))]


def test_an_exact_constraint_names_an_int_id_not_a_bool():
    """`True == 1`, so a bool id would match concept 1."""
    template = EmotionTemplate("x", (SlotConstraint(kind="exact", concept=True),))
    with pytest.raises(MalformedTemplate, match="'x'"):
        match_emotion((1,), [template], {})


def test_match_emotion_blob_meets_only_wildcards():
    blob = ("a", "b")
    for constraint in (SlotConstraint(kind="exact", concept=0),
                       SlotConstraint(kind="label", label="x"),
                       SlotConstraint(kind="valence", sign=-1)):
        template = EmotionTemplate("one", (constraint,))
        assert match_emotion((blob,), [template], {}, {}) == []
    assert match_emotion((blob,), [EmotionTemplate("one", (SlotConstraint(kind="any"),))],
                         {}) == [("one", (0, 1))]


@pytest.mark.parametrize("constraint", [
    SlotConstraint(kind="exactly", concept=0),
    SlotConstraint(kind="valence"),
    SlotConstraint(kind="valence", sign=0),
    SlotConstraint(kind="valence", sign=2),
    SlotConstraint(kind="label"),
    SlotConstraint(kind="exact"),
    SlotConstraint(kind="exact", concept="0"),
    SlotConstraint(kind="valence", sign=True),
    SlotConstraint(kind="valence", sign=-1.0),
    "any",
])
def test_match_emotion_rejects_a_malformed_constraint_before_matching(constraint):
    """Checked before the first node: a label without a label would match
    every unlabelled ref, and an unknown kind would pass over blobs."""
    template = EmotionTemplate("x", (SlotConstraint(kind="any"), constraint))
    for desc in ((), (("a",), ("b",)), (0, 1)):
        with pytest.raises(MalformedTemplate, match="'x'"):
            match_emotion(desc, [template], {})


def test_match_emotion_rejects_empty_pattern():
    with pytest.raises(MalformedTemplate):
        match_emotion((), [EmotionTemplate("bad", ())], {})


ANY = SlotConstraint(kind="any")


@pytest.mark.parametrize("template", [
    pytest.param(EmotionTemplate("x", (ANY,), min_repeats="2"), id="repeats-str"),
    pytest.param(EmotionTemplate("x", (ANY,), min_repeats=1.5), id="repeats-float"),
    pytest.param(EmotionTemplate("x", (ANY,), min_repeats=True), id="repeats-bool"),
    pytest.param(EmotionTemplate("x", 5), id="pattern-int"),
    pytest.param(EmotionTemplate("x", [ANY]), id="pattern-list"),
])
def test_match_emotion_rejects_a_malformed_pattern_or_repeat_count(template):
    """A template is data from the caller: a repeat count that is not an int
    >= 1 or a pattern that is not a tuple is a `MalformedTemplate`, checked
    before the first node is matched."""
    for desc in ((), (0, 1)):
        with pytest.raises(MalformedTemplate, match="'x'"):
            match_emotion(desc, [template], {0: -1.0, 1: -1.0})


def test_match_emotion_rejects_a_template_that_is_not_one():
    with pytest.raises(MalformedTemplate, match="not an emotion template"):
        match_emotion((0,), [None], {})


def test_replace_kind_preserves_expansion_and_dedup():
    g = fresh("abc")
    x = g.add(Concat((0, 1, 2)))
    tpl = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    before = g.expansion(x)
    g.replace_kind(x, Apply(tpl, (1,)))
    assert g.expansion(x) == before
    assert g.find(Apply(tpl, (1,))) == x
    assert g.find(Concat((0, 1, 2))) is None


def test_a_repeated_kind_keeps_its_first_id_through_pop_and_rewrite():
    """A loaded file may repeat a kind (ingest writes repeated Applies); the
    dedup table names the first id, and changing the repeat leaves it."""
    g = fresh("abc")
    x = g.add(Concat((0, 1)))
    tpl = g.add(Template((SlotRef(0), Hole(0))))

    def restore_twin():  # as load restores rows
        nonlocal g
        g = ConceptGraph(g.alphabet, rows_of(g) + [(Concat((0, 1)), 1.0)])
        return len(g) - 1

    restore_twin()
    g.pop_last()
    assert g.find(Concat((0, 1))) == x
    twin = restore_twin()
    g.replace_kind(twin, Apply(tpl, (1,)))
    assert g.find(Concat((0, 1))) == x
    g.replace_kind(x, Apply(tpl, (1,)))  # the older of the two now holds the Apply
    assert g.find(Concat((0, 1))) is None and g.find(Apply(tpl, (1,))) == x != twin


def test_replace_kind_rejects_an_expansion_change():
    g = fresh("abc")
    x = g.add(Concat((0, 1, 2)))
    tpl = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    with pytest.raises(GraphError):
        g.replace_kind(x, Apply(tpl, (0,)))  # "aac" != "abc"
    with pytest.raises(GraphError):
        g.replace_kind(x, Apply(tpl, (x,)))  # x would contain itself
    assert g.concept(x).kind == Concat((0, 1, 2))
    assert g.expansion(x) == ("a", "b", "c")
    assert g.find(Concat((0, 1, 2))) == x and g.find(Apply(tpl, (0,))) is None


def test_replace_kind_rejects_a_template_with_a_newer_slot_ref():
    g = fresh("abc")
    x = g.add(Concat((0, 1, 2)))
    ab = g.add(Concat((0, 1)))  # newer than x
    tpl = g.add(Template((SlotRef(ab), Hole(0))))
    with pytest.raises(DanglingReference):
        g.replace_kind(x, Apply(tpl, (2,)))  # same expansion "abc", but x would reach ab
    assert g.concept(x).kind == Concat((0, 1, 2))
    assert g.find(Concat((0, 1, 2))) == x and g.find(Apply(tpl, (2,))) is None
    older = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    g.replace_kind(x, Apply(older, (1,)))  # a newer template with older slot refs
    assert g.expansion(x) == ("a", "b", "c")


def test_expansion_is_capped():
    """`add`, `replace_kind` and the constructor refuse an expansion longer
    than the cap before building it, and leave the graph as it was."""
    g = fresh("ab")
    with pytest.raises(TooLarge):
        g.add(Repeat(0, MAX_EXPANSION + 1))
    half = g.add(Repeat(0, MAX_EXPANSION // 2))
    full = g.add(Concat((half, half)))  # exactly the cap
    assert len(g.expansion(full)) == MAX_EXPANSION
    tpl = g.add(Template((SlotRef(full), Hole(0))))
    size = len(g)
    for kind in (Concat((full, 1)), Apply(tpl, (1,))):
        with pytest.raises(TooLarge):
            g.add(kind)
    assert len(g) == size
    ab = g.add(Concat((0, 1)))
    with pytest.raises(TooLarge):
        g.replace_kind(ab, Repeat(0, MAX_EXPANSION + 1))
    assert g.concept(ab).kind == Concat((0, 1)) and g.expansion(ab) == ("a", "b")
    g.concepts[ab].kind = Repeat(0, MAX_EXPANSION + 1)
    with pytest.raises(TooLarge):
        ConceptGraph(g.alphabet, rows_of(g))


def test_set_weight_rejects_negative_and_non_finite():
    g = fresh("ab")
    for bad in (-1.0, float("inf"), float("nan"), "x", None, True, [1.0]):
        with pytest.raises(ValueError):
            g.set_weight(0, bad)
    assert g.concepts[0].weight == 1.0


@pytest.mark.parametrize("cid", [0, 2])  # a primitive; an affect primitive, outside the code
def test_set_weight_refuses_an_int_too_large_for_a_float(cid):
    """The saver writes `float(weight)`, which would raise OverflowError."""
    g = fresh("ab")
    with pytest.raises(ValueError):
        g.set_weight(cid, 10**400)
    assert g.concepts[cid].weight == 1.0 and g.codeable_weight() == 2.0
    g.set_weight(cid, 10**300)  # an int that a float holds is a weight
    assert ",1e+300," in dumps(g)


def test_rebuild_derived_matches_incremental_counters():
    g = fresh("ab")
    g.add(Concat((0, 1)))
    g.add(Repeat(0, 4))
    g.tick_weights({0, 1})
    count, weight = g.codeable_count(), g.codeable_weight()
    g = ConceptGraph(g.alphabet, rows_of(g))
    assert g.codeable_count() == count
    assert g.codeable_weight() == weight


def id_order_sum(g):
    """The codeable weights added up one by one in id order."""
    total = 0.0
    for cid, concept in enumerate(g.concepts):
        if is_codeable(g, cid):
            total += concept.weight
    return total


def test_a_weight_set_and_reset_leaves_the_code_mass_exact():
    """A running total would lose the small weights to a huge one set and
    reset (W 0.0 of a true 7.0), and a reference would then cost < 0 bits."""
    g = fresh("ab")
    c = g.add(Concat((0, 1)))
    g.set_weight(0, 5.0)
    g.set_weight(c, 1e20)
    g.set_weight(c, 1.0)
    assert g.codeable_weight() == 7.0
    assert ref_cost(g, 0) >= 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_code_mass_is_the_sum_a_reload_derives(data):
    """After every `add`, `set_weight` (0 to 1e300), `pop_last` or
    `tick_weights`, the code mass is the id-order sum of the codeable
    weights, bit for bit, and a reload derives the same; so no parse
    candidate's reference costs less than 0 bits.  The row lists the tick
    and the sum walk hold the graph's own rows, as the constructor derives
    them."""
    g = fresh("ab")
    weights = st.one_of(st.sampled_from([0.0, 1.0, 5.0, 1e20, 1e300]), st.floats(0, 1e300))
    for _ in range(data.draw(st.integers(1, 25))):
        step = data.draw(st.sampled_from(["add", "weight", "pop", "tick"]))
        ids = range(len(g))
        if step == "add":
            a, b = (data.draw(st.sampled_from(g.parseable_ids())) for _ in range(2))
            g.add(Concat((a, b)))
        elif step == "weight":
            g.set_weight(data.draw(st.sampled_from(ids)), data.draw(weights))
        elif step == "pop":
            if len(g) > 4:  # past the birth rows
                g.pop_last()
        else:
            g.tick_weights(data.draw(st.sets(st.sampled_from(ids), max_size=3)))
        assert g.codeable_weight() == id_order_sum(g)
        assert same_rows(row_lists(g), derived_tables(g)[5])
        assert graph_from_json(json.loads(dumps(g))).codeable_weight() == g.codeable_weight()
        assert all(bits >= 0 for _, _, bits in _ParseContext(g, 128).entries)


def two_pass_tick(g, used):
    """`tick_weights` as two passes, the reference: decay every weight,
    then reward the used concepts, then sum the code mass afresh."""
    rewarded = {cid: g.concept(cid) for cid in used}
    for concept in g.concepts:
        if not isinstance(concept.kind, AffectPrimitive):
            concept.weight *= core.DECAY
    for concept in rewarded.values():
        if not isinstance(concept.kind, AffectPrimitive):
            concept.weight += 1.0
    g._codeable_weight = g._code_mass()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_row_list_tick_matches_the_two_pass_tick(data):
    """Over graphs with concats, repeats, associations, the follows marker
    and the affect primitives, any weights and decays, and used lists with
    repeated ids and affect primitives, `tick_weights`' passes over the
    graph's row lists leave every weight and the code mass equal to the
    reference's, which decays and rewards over a scan of every row, bit for
    bit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "DECAY", data.draw(st.sampled_from([0.9, 0.5, 1.0, 0.999, 1e-3])))
        row_list_tick_matches_two_pass_tick(data)


def row_list_tick_matches_two_pass_tick(data):
    pair = [fresh("abc") for _ in range(2)]
    for _ in range(data.draw(st.integers(0, 6))):
        ids = pair[0].parseable_ids()
        a, b = data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))
        kind = data.draw(st.sampled_from([Concat((a, b)), Repeat(a, 3), Association(a, b), FOLLOWS]))
        for g in pair:
            g.add(kind)
    weights = st.one_of(st.sampled_from([0.0, 1.0, 2.0**-30, 1e20]), st.floats(0, 1e300))
    for cid in range(len(pair[0])):
        weight = data.draw(weights)
        for g in pair:
            g.set_weight(cid, weight)
    for _ in range(data.draw(st.integers(1, 4))):
        used = data.draw(st.lists(st.sampled_from(range(len(pair[0]))), max_size=8))
        pair[0].tick_weights(iter(used))
        two_pass_tick(pair[1], used)
        one, two = ([c.weight.hex() for c in g.concepts] for g in pair)
        assert one == two
        assert pair[0].codeable_weight().hex() == pair[1].codeable_weight().hex()
        assert pair[0].codeable_weight() == id_order_sum(pair[0])


def test_the_expansion_table_is_the_parseable_set_in_id_order():
    """`parseable_ids` and membership read the expansion table; it keeps
    id order through add, pop_last, replace_kind and the constructor."""
    g = fresh("abc")

    def scanned():
        return [cid for cid, c in enumerate(g.concepts)
                if isinstance(c.kind, (Primitive, Concat, Repeat, Apply))]

    def check():
        assert g.parseable_ids() == scanned()
        assert [cid for cid in range(len(g)) if cid in g.expansion_table()] == scanned()

    check()
    x = g.add(Concat((0, 1, 2)))
    g.add(Association(0, 1))
    tpl = g.add(Template((SlotRef(0), Hole(0), SlotRef(2))))
    g.add(Repeat(x, 2))
    check()
    g.replace_kind(x, Apply(tpl, (1,)))
    check()
    g.add(Concat((1, 2)))
    g.pop_last()
    g.add(Marker("m"))
    check()
    g = ConceptGraph(g.alphabet, rows_of(g))
    check()
    with pytest.raises(UnknownConcept):
        g.expansion(len(g))


def derived_tables(g):
    """The dedup table, the expansion table (in order), the codeable count,
    the code mass, the kind facts and the row lists (the rows that decay,
    the codeable rows) that the constructor derives from copies of the rows;
    each row list as `g`'s own rows at the ids its copies hold."""
    built = ConceptGraph(g.alphabet, rows_of(g))
    position = {id(row): cid for cid, row in enumerate(built.concepts)}
    lists = tuple([g.concepts[position[id(row)]] for row in rows]
                  for rows in row_lists(built))
    return (built._dedup, list(built._expansions.items()), built.codeable_count(),
            built.codeable_weight(), kind_facts(built), lists)


def row_lists(g):
    """The rows that decay and the codeable rows, as the graph keeps them."""
    return g._decaying_rows, g._codeable_rows


def same_rows(got, want):
    """Whether two tuples of row lists hold the same row objects in the same order."""
    return [list(map(id, rows)) for rows in got] == [list(map(id, rows)) for rows in want]


def kind_facts(g):
    """The concat buckets, the Repeat children by count and the Association count."""
    return g.concat_buckets, g.repeat_children, g.association_count


def kinds(ref):
    """Kinds over ids drawn by `ref`: ones `add` takes and ones it refuses."""
    return st.one_of(
        st.builds(Concat, st.tuples(ref, ref)), st.builds(Concat, st.tuples(ref)),
        st.builds(Repeat, ref, st.integers(1, 3)),
        st.builds(Template, st.tuples(st.builds(SlotRef, ref), st.builds(Hole, st.integers(0, 1)))),
        st.builds(Apply, ref, st.tuples(ref)), st.builds(Association, ref, ref),
        st.builds(Marker, st.sampled_from(["m", "follows", 7])),
        st.builds(AffectPrimitive, st.sampled_from([1, -1, 0])),
        st.builds(Primitive, st.sampled_from(["a", "z"])))


def rewrites(g, cid):
    """Kinds with the expansion of `cid`: those of the other concepts that
    spell the same tokens, a concat abstracted into an application of a
    (new) one-hole template, and an application flattened into a concat."""
    tokens = g._expansions.get(cid)
    yield from (c.kind for i, c in enumerate(g.concepts)
                if i != cid and tokens is not None and g._expansions.get(i) == tokens)
    kind = g.concepts[cid].kind
    if isinstance(kind, Concat):
        for i, differ in enumerate(kind.children):
            body = tuple(Hole(0) if j == i else SlotRef(c) for j, c in enumerate(kind.children))
            yield Apply(g.add(Template(body)), (differ,))
    elif isinstance(kind, Apply):
        body = g.concepts[kind.template].kind.body
        yield Concat(tuple(kind.fillers[s.index] if isinstance(s, Hole) else s.concept
                           for s in body))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_step_keeps_the_tables_the_constructor_derives(data):
    """The row derivation contract: after each `add` (of a kind it takes or
    refuses), `pop_last` (of a row nothing references), `replace_kind` (a
    rewrite it takes or one it refuses) or `tick_weights` on an ingested
    graph, the dedup table, the expansion table, the codeable count and the
    kind facts equal those the constructor derives from copies of the rows
    (a bucket's members in any order), and so does the code mass, bit for
    bit; the row lists that `tick_weights` walks hold the graph's own rows
    at the ids the constructor puts in them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inducer, "GENERALIZE_THRESHOLD", 2)
        every_step_keeps_the_tables_the_constructor_derives(data)


def every_step_keeps_the_tables_the_constructor_derives(data):
    g = ConceptGraph("abc")
    for episode in data.draw(st.lists(st.text("abc", max_size=40), max_size=6)):
        ingest(g, episode)
    cid = 0
    for _ in range(data.draw(st.integers(1, 20))):
        step = data.draw(st.sampled_from(["add", "pop", "replace", "tick"]))
        if cid >= len(g) or data.draw(st.booleans()):  # else the last step's concept again
            cid = data.draw(st.integers(0, len(g) - 1))
        twins = [*rewrites(g, cid)]  # which may add templates
        n = len(g)
        # mostly a twin by expansion of `cid`, which makes kinds repeat, else a
        # kind over ids up to n, which is no concept yet
        kind = data.draw(st.sampled_from(twins) if twins and data.draw(st.integers(0, 3))
                         else kinds(st.integers(0, n)))
        if step == "pop":
            if n > 5 and not any(n - 1 in g.reference_edges(c) for c in range(n - 1)):
                g.pop_last()
        elif step == "tick":
            g.tick_weights(data.draw(st.sets(st.integers(0, n - 1), max_size=4)))
        else:
            try:
                g.add(kind) if step == "add" else g.replace_kind(cid, kind)
            except GraphError:
                pass
        dedup, expansions, count, weight, facts, lists = derived_tables(g)
        assert g._dedup == dedup
        assert kind_facts(g) == facts
        assert list(g._expansions.items()) == expansions
        assert g.codeable_count() == count
        assert g.codeable_weight() == weight
        assert same_rows(row_lists(g), lists)


def test_a_rewrite_keeps_the_first_id_of_a_repeated_kind():
    """Where kinds repeat, `replace_kind` keeps the dedup table that the
    constructor derives: a rewrite to a kind that a newer concept holds
    names the rewritten id, and a rewrite away from a kind that a newer
    twin holds passes the kind to the twin."""
    g = fresh("abc")
    x = g.add(Concat((0, 1)))
    tpl = g.add(Template((SlotRef(0), Hole(0))))
    y = g.add(Apply(tpl, (1,)))  # a newer concept that also spells "ab"
    g.replace_kind(x, Apply(tpl, (1,)))
    assert g.find(Apply(tpl, (1,))) == x and g.find(Concat((0, 1))) is None
    assert g._dedup == derived_tables(g)[0]
    g.replace_kind(x, Concat((0, 1)))
    assert g.find(Apply(tpl, (1,))) == y and g.find(Concat((0, 1))) == x
    assert g._dedup == derived_tables(g)[0]


def test_config_validation():
    """The engine's thresholds are in range: each count a positive int, so a
    comparison with a count means what it says, and the decay in (0, 1], so
    a weight never grows by decaying and never reaches 0 in one tick."""
    for count in (inducer.REPEAT_THRESHOLD, inducer.ASSOC_THRESHOLD, inducer.GENERALIZE_THRESHOLD):
        assert type(count) is int and count > 0
    assert type(core.DECAY) is float and 0.0 < core.DECAY <= 1.0
