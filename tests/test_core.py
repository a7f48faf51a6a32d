import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conceptgraph.core import (
    MAX_EXPANSION,
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    Concept,
    ConceptGraph,
    Config,
    EmotionTemplate,
    Hole,
    Marker,
    Primitive,
    Repeat,
    SlotConstraint,
    SlotRef,
    Template,
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
from conceptgraph.inducer import Budget, _ParseContext, ingest
from conceptgraph.storage import dumps


def fresh(alphabet="ab", **overrides):
    return ConceptGraph(alphabet, Config(**overrides))


def test_initial_graph_contents():
    g = fresh("ab")
    assert len(g) == 4  # 2 primitives + pleasure + pain
    assert g.concepts[0].kind == Primitive("a")
    assert g.concepts[1].kind == Primitive("b")
    assert g.pleasure_id == 2 and g.pain_id == 3
    assert g.concepts[2].kind == AffectPrimitive(1)
    assert g.concepts[3].kind == AffectPrimitive(-1)


def rows_of(g):
    """Copies of a graph's concept rows, as a load hands them over."""
    return [Concept(c.kind, c.weight) for c in g.concepts]


def test_a_graph_given_its_own_rows_is_the_same_graph():
    """One path from rows to a graph: a fresh graph makes the birth rows,
    a load passes its rows, and both build the same tables."""
    g = fresh("abc", decay=0.5)
    x = g.add(Concat((0, 1)))
    tpl = g.add(Template((SlotRef(2), Hole(0))))
    g.add(Repeat(x, 3))
    g.add(Apply(tpl, (x,)))
    g.add(Association(0, x))
    g.tick_weights({x})
    assert vars(ConceptGraph("abc", g.config, rows_of(g))) == vars(g)
    assert vars(ConceptGraph("abc", None, rows_of(fresh("abc")))) == vars(fresh("abc"))


@pytest.mark.parametrize("edit", [
    pytest.param(lambda rows: rows.clear(), id="no-rows"),
    pytest.param(lambda rows: rows.pop(), id="no-pain"),
    pytest.param(lambda rows: rows.reverse(), id="reversed"),
    pytest.param(lambda rows: rows.__setitem__(0, Concept(Primitive("b"), 1.0)),
                 id="b-for-a"),
    pytest.param(lambda rows: rows.__setitem__(2, Concept(AffectPrimitive(-1), 1.0)),
                 id="pain-for-pleasure"),
    pytest.param(lambda rows: rows.insert(0, Concept(Primitive("c"), 1.0)),
                 id="a-primitive-outside-the-alphabet"),
])
def test_rows_that_do_not_start_with_the_birth_rows_are_refused(edit):
    rows = rows_of(fresh("ab"))
    edit(rows)
    with pytest.raises(ValueError, match="initial concepts do not match the alphabet"):
        ConceptGraph("ab", None, rows)


@pytest.mark.parametrize("row", [
    Concept(Concat((0, 1)), -1.0), Concept(Concat((0, 1)), math.nan),
    Concept(Concat((0, 1)), math.inf), Concept(Concat((0, 1)), 10**400),
    Concept(Concat((0, 1)), "x"), Concept(Concat((0, 1)), True), Concept(Concat((0, 1)), None),
    (Concat((0, 1)), 1.0), None])
def test_a_row_that_is_not_a_concept_or_has_a_bad_weight_is_refused(row):
    """One weight rule for every row: the constructor takes a weight that
    `set_weight` takes, so every graph it builds saves a file that loads."""
    with pytest.raises(ValueError, match="weight|not a Concept"):
        ConceptGraph("ab", None, rows_of(fresh("ab")) + [row])


def test_a_birth_row_with_a_bad_weight_is_refused():
    """Affect primitives are outside the code, but their weights are saved."""
    rows = rows_of(fresh("ab"))
    rows[2].weight = -1.0
    with pytest.raises(ValueError, match="weight"):
        ConceptGraph("ab", None, rows)


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


@pytest.mark.parametrize("alphabet, config", [
    (None, None), (5, None), ("ab", "cfg"), ("ab", {"decay": 0.5}), ("ab", (1.0, 2))])
def test_graph_arguments_of_the_wrong_type_are_refused(alphabet, config):
    """An alphabet that is not a sequence, or a config that is not a
    `Config`, is refused at construction: unchecked, the first raised a bare
    `TypeError` and the second built a graph that failed in `ingest`."""
    with pytest.raises(ValueError, match="alphabet|config"):
        ConceptGraph(alphabet, config)


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
    g = fresh("ab", decay=0.9)
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
    assert codeable == sum(w for cid, w in enumerate(weights) if g.is_codeable(cid))


def test_decay_closed_form():
    g = fresh("ab", decay=0.9)
    for _ in range(10):
        g.tick_weights(set())
    assert g.concepts[0].weight == pytest.approx(0.9**10, abs=1e-9)


def test_affect_weight_exempt_from_decay():
    g = fresh("ab")
    for _ in range(5):
        g.tick_weights(set())
    assert g.concepts[g.pleasure_id].weight == 1.0


def test_fast_path_threshold():
    g = fresh("ab", fast_path_threshold=8.0)
    c1 = g.add(Concat((0, 1)))
    c2 = g.add(Concat((1, 0)))
    g.set_weight(c1, 9.0)
    g.set_weight(c2, 7.9)
    assert _ParseContext(g, Budget(1, 0)).members == [c1]


def test_fast_path_zero_threshold_admits_all_expanding():
    g = fresh("ab", fast_path_threshold=1e-12)
    c1 = g.add(Concat((0, 1)))
    assert _ParseContext(g, Budget(1, 0)).members == [0, 1, c1]


def test_valence_decay_along_path():
    g = fresh("ab", valence_decay=0.5)
    # pleasure -- assoc -- concept chain
    assoc = g.add(Association(0, g.pleasure_id))
    v = g.propagate_valence()
    assert v[assoc] == pytest.approx(0.5)
    assert v[0] == pytest.approx(0.25)
    assert v[g.pleasure_id] == 1.0 and v[g.pain_id] == -1.0


def test_valence_symmetric_cancellation_and_isolation():
    g = fresh("ab", valence_decay=0.5)
    both = g.add(Association(g.pleasure_id, g.pain_id))
    v = g.propagate_valence()
    assert v[both] == pytest.approx(0.0)
    assert v[1] == 0.0  # isolated primitive


def test_valence_hop_cap():
    g = fresh("abcdefgh", valence_decay=0.5, valence_hop_cap=2)
    # chain: pleasure <- a0 <- a1 <- a2, distances 1, 2, 3
    a0 = g.add(Association(0, g.pleasure_id))
    a1 = g.add(Association(1, a0))
    a2 = g.add(Association(2, a1))
    v = g.propagate_valence()
    assert v[a0] == pytest.approx(0.5)
    assert v[a1] == pytest.approx(0.25)
    assert v[a2] == 0.0  # beyond the cap contributes nothing


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
        g.concepts.append(Concept(Concat((0, 1)), 1.0))
        g = ConceptGraph(g.alphabet, g.config, g.concepts)
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
        ConceptGraph(g.alphabet, g.config, g.concepts)


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


@pytest.mark.parametrize("name", [f for f in Config._fields if Config.__annotations__[f] == "float"])
def test_config_refuses_an_int_too_large_for_a_float(name):
    with pytest.raises(ValueError, match=name):
        Config(**{name: 10**400})


def test_rebuild_derived_matches_incremental_counters():
    g = fresh("ab")
    g.add(Concat((0, 1)))
    g.add(Repeat(0, 4))
    g.tick_weights({0, 1})
    count, weight = g.codeable_count(), g.codeable_weight()
    g = ConceptGraph(g.alphabet, g.config, g.concepts)
    assert g.codeable_count() == count
    assert g.codeable_weight() == pytest.approx(weight)


@pytest.mark.parametrize("name", [f for f in Config._fields if Config.__annotations__[f] == "int"])
@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_config_refuses_a_non_integer_for_an_int_field(name, bad):
    with pytest.raises(ValueError, match=name):
        Config(**{name: bad})


@pytest.mark.parametrize("name, value", [
    ("decay", 5.0), ("assoc_threshold", 0), ("generalize_threshold", True),
    ("fast_path_threshold", float("nan")), ("pool_base", 8)])
def test_a_config_field_cannot_be_assigned(name, value):
    """A graph's thresholds are fixed for its life: an edit in place would
    skip `Config`'s checks, and a kept index would have to follow it."""
    g = fresh("ab")
    with pytest.raises(AttributeError):
        setattr(g.config, name, value)
    assert g.config == Config()


def test_a_graphs_config_cannot_be_reassigned():
    g = fresh("ab", decay=0.5)
    with pytest.raises(AttributeError):
        g.config = Config()
    assert g.config == Config(decay=0.5)


def test_the_expansion_table_is_the_parseable_set_in_id_order():
    """`parseable_ids` and `is_parseable` read the expansion table; it keeps
    id order through add, pop_last, replace_kind and the constructor."""
    g = fresh("abc")

    def scanned():
        return [cid for cid, c in enumerate(g.concepts)
                if isinstance(c.kind, (Primitive, Concat, Repeat, Apply))]

    def check():
        assert g.parseable_ids() == scanned()
        assert [cid for cid in range(len(g)) if g.is_parseable(cid)] == scanned()

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
    g = ConceptGraph(g.alphabet, g.config, g.concepts)
    check()
    with pytest.raises(UnknownConcept):
        g.is_parseable(len(g))


def derived_tables(g):
    """The dedup table, the expansion table (in order), the codeable count,
    the code mass and the kind facts that the constructor derives from
    copies of the rows."""
    built = ConceptGraph(g.alphabet, g.config, rows_of(g))
    return (built._dedup, list(built._expansions.items()), built.codeable_count(),
            built.codeable_weight(), kind_facts(built))


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
    (a bucket's members in any order).  The code mass matches to float
    rounding: a `pop_last` after a tick subtracts a weight from a sum, so it
    can differ from the constructor's sum in the last bit."""
    g = ConceptGraph("abc", Config(generalize_threshold=2))
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
        dedup, expansions, count, weight, facts = derived_tables(g)
        assert g._dedup == dedup
        assert kind_facts(g) == facts
        assert list(g._expansions.items()) == expansions
        assert g.codeable_count() == count
        assert g.codeable_weight() == pytest.approx(weight, rel=1e-12)


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
    with pytest.raises(ValueError):
        Config(decay=0.0)
    with pytest.raises(ValueError):
        Config(valence_decay=1.0)
    with pytest.raises(ValueError):
        Config(pool_base=0)
    for f in Config._fields:  # every int must be positive, every float finite and >= 0
        ints = Config.__annotations__[f] == "int"
        # a float field takes a number by the weight rule: no string, list or bool
        for bad in (0,) if ints else (float("nan"), float("inf"), -1.0, "x", [1], True, None):
            with pytest.raises(ValueError):
                Config(**{f: bad})
