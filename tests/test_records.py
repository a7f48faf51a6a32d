"""The value semantics every kind, term, report and settings type keeps:
strict equality by class, the hash of its field values, a fixed repr, no
assignment and no ordering."""

import pytest

from conceptgraph.core import (
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
)
from conceptgraph.errors import ArityMismatch, MalformedTemplate
from conceptgraph.fnsynth import Call, Const, FunctionExample, Iter, LibraryFn, Section, Var
from conceptgraph.inducer import Budget, IngestReport
from conceptgraph.mdl import DLReport
from conceptgraph.records import record
from conceptgraph.segmenter import Segment

# one instance of each immutable value type: (instance, repr, field values)
FROZEN = [
    (Hole(0), "Hole(index=0)", (0,)),
    (SlotRef(3), "SlotRef(concept=3)", (3,)),
    (Primitive("a"), "Primitive(token='a')", ("a",)),
    (Concat((0, 1)), "Concat(children=(0, 1))", ((0, 1),)),
    (Repeat(3, 2), "Repeat(child=3, count=2)", (3, 2)),
    (Template((SlotRef(0), Hole(0))), "Template(body=(SlotRef(concept=0), Hole(index=0)))",
     ((SlotRef(0), Hole(0)),)),
    (Apply(5, (1,)), "Apply(template=5, fillers=(1,))", (5, (1,))),
    (Association(3, 4), "Association(a=3, b=4)", (3, 4)),
    (AffectPrimitive(-1), "AffectPrimitive(sign=-1)", (-1,)),
    (Marker("follows"), "Marker(label='follows')", ("follows",)),
    (Config(), "Config(contrast_threshold=1.0, repeat_threshold=2, decay=0.9, "
     "fast_path_threshold=8.0, assoc_threshold=3, generalize_threshold=3, valence_decay=0.5, "
     "valence_hop_cap=6, beam_base=4, pool_base=64)", (1.0, 2, 0.9, 8.0, 3, 3, 0.5, 6, 4, 64)),
    (SlotConstraint(kind="valence", sign=-1),
     "SlotConstraint(kind='valence', concept=None, label=None, sign=-1)",
     ("valence", None, None, -1)),
    (EmotionTemplate("anger", (SlotConstraint("any"),)),
     "EmotionTemplate(emotion='anger', pattern=(SlotConstraint(kind='any', concept=None, "
     "label=None, sign=None),), min_repeats=1)", ("anger", (SlotConstraint("any"),), 1)),
    (Var(0), "Var(index=0)", (0,)),
    (Const(1), "Const(value=1)", (1,)),
    (Call("succ", (Var(0),)), "Call(fn='succ', args=(Var(index=0),))", ("succ", (Var(0),))),
    (Section("add", 1, (Var(0),)), "Section(fn='add', open_slot=1, fillers=(Var(index=0),))",
     ("add", 1, (Var(0),))),
    (Iter(Section("succ", 0, ()), Var(0), Const(0)),
     "Iter(section=Section(fn='succ', open_slot=0, fillers=()), count=Var(index=0), "
     "seed=Const(value=0))", (Section("succ", 0, ()), Var(0), Const(0))),
    (FunctionExample("add", (1, 2), 3), "FunctionExample(label='add', inputs=(1, 2), output=3)",
     ("add", (1, 2), 3)),
    (Budget(4, 64), "Budget(beam=4, pool=64)", (4, 64)),
    (DLReport(1.0, 0.5, 2.0), "DLReport(raw_bits=1.0, described_bits=0.5, model_bits=2.0)",
     (1.0, 0.5, 2.0)),
    (Segment(1, 3, ("a", "b")), "Segment(start=1, end=3, payload=('a', 'b'))", (1, 3, ("a", "b"))),
    (Segment(0, 2, (1, 2)), "Segment(start=0, end=2, payload=(1, 2))", (0, 2, (1, 2))),
]
# the types whose values hold a list or that change in place: (instance, repr)
OTHER = [
    (IngestReport(0, (0, ("a",)), [5], [(0, 1)], 1.5, 0.25),
     "IngestReport(episode=0, description=(0, ('a',)), new_concepts=[5], "
     "new_associations=[(0, 1)], raw_bits=1.5, described_bits=0.25)"),
    (Concept(Primitive("a"), 1.0), "Concept(kind=Primitive(token='a'), weight=1.0)"),
    (LibraryFn("succ", 1, None), "LibraryFn(name='succ', arity=1, definition=None)"),
]
TWINS = [  # equal field values, different classes
    (Repeat(3, 2), Association(3, 2), (3, 2)),
    (Primitive("a"), Marker("a"), ("a",)),
    (Hole(0), SlotRef(0), (0,)),
    (Var(0), Const(0), (0,)),
]


@pytest.mark.parametrize("value, text", [(v, t) for v, t, _ in FROZEN] + OTHER)
def test_repr_is_pinned(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, _, fields", FROZEN)
def test_hash_is_the_hash_of_the_field_values(value, _, fields):
    """So no set or dict of records iterates in a different order."""
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, _, fields", FROZEN)
def test_a_field_cannot_be_assigned(value, _, fields):
    name = repr(value).split("(", 1)[1].split("=", 1)[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(value, name, fields[0])
    with pytest.raises(AttributeError):
        delattr(value, name)


@pytest.mark.parametrize("a, b, values", TWINS)
def test_equality_is_strict_by_class(a, b, values):
    assert a != b and b != a and not a == b
    assert a != values and values != a and not a == values
    assert len({a, b}) == 2 and len({a: 1, b: 2}) == 2
    assert type(a)(*values) == a and type(b)(*values) == b


def test_equal_values_of_different_kinds_are_different_concepts():
    """`add` deduplicates by kind: a twin of another class is a new concept."""
    g = ConceptGraph("abcd")
    ids = [g.add(kind) for kind in (
        Repeat(3, 2), Association(3, 2), Marker("a"),
        Template((Hole(0), Hole(0))), Template((Hole(0), SlotRef(0))))]
    assert ids == [6, 7, 8, 9, 10] and g.find(Primitive("a")) == 0
    assert [g.add(kind) for kind in (Association(3, 2), Repeat(3, 2))] == [7, 6]


def test_terms_of_different_classes_are_different_keys():
    assert len({Call("succ", (Var(0),)), Call("succ", (Const(0),))}) == 2


@pytest.mark.parametrize("a, b", [
    (Repeat(3, 2), Repeat(3, 3)), (Primitive("a"), Primitive("b")),
    (Repeat(3, 2), Association(3, 3)), (Var(0), Var(1)), (Repeat(3, 2), (3, 3)),
    ((3, 3), Repeat(3, 2)), (Budget(1, 1), Budget(2, 2))])
def test_records_have_no_order(a, b):
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
        with pytest.raises(TypeError):
            compare()


def test_a_concept_compares_by_value_and_has_no_hash():
    assert Concept(Primitive("a"), 1.0) == Concept(kind=Primitive("a"), weight=1.0)
    assert Concept(Primitive("a"), 1.0) != Concept(Primitive("a"), 0.5)
    with pytest.raises(TypeError):
        hash(Concept(Primitive("a"), 1.0))


@pytest.mark.parametrize("body, error", [
    ((), MalformedTemplate), ((SlotRef(0),), ArityMismatch), ((Hole(1),), ArityMismatch),
    ((Hole(0), "x"), MalformedTemplate)])
def test_a_malformed_template_raises_only_when_add_reads_its_holes(body, error):
    template = Template(body)  # constructs: `holes` is computed on first read
    g = ConceptGraph("ab")
    with pytest.raises(error):
        g.add(template)
    assert len(g) == 4
    with pytest.raises(error):
        template.holes


@pytest.mark.parametrize("build", [
    lambda: Config()._replace(decay=5.0), lambda: Config._make([0.0] * 10),
    lambda: Budget(4, 64)._replace(beam=0), lambda: Segment(0, 2, (1, 2))._replace(end=0)])
def test_a_checked_record_is_checked_however_it_is_built(build):
    with pytest.raises(ValueError):
        build()


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    """namedtuple gives defaults to the last fields, so `b` would take 1."""
    with pytest.raises(TypeError, match="follows"):
        @record
        class Bad:
            a: int = 1
            b: int
