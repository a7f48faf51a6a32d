import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conceptgraph.errors import (
    ArityMismatch,
    GraphError,
    IterCountExceeded,
    MalformedTerm,
    Overflow,
)
from conceptgraph.fnsynth import (
    DEFAULT_ITER_CAP,
    DEFAULT_VALUE_CAP,
    Call,
    Const,
    FunctionExample,
    Iter,
    Library,
    Section,
    Var,
    eval_term,
    learn_all,
    library_from_lines,
    library_to_lines,
    parse_examples_text,
    synthesize,
    term_from_sexpr,
    term_size,
    term_to_sexpr,
)
from conceptgraph import sexpr

SUCC = Section("succ", 0, ())

RED = [FunctionExample("red", i, o) for i, o in [((1, 3), 4), ((2, 3), 5), ((5, 2), 7)]]
GREEN = [FunctionExample("green", i, o) for i, o in [((2, 4), 8), ((3, 4), 12), ((2, 5), 10)]]


def test_eval_iteration_basics():
    lib = Library.initial()
    assert eval_term(Iter(SUCC, Var(0), Const(0)), (3,), lib) == 3
    assert eval_term(Iter(SUCC, Var(0), Var(1)), (1, 3), lib) == 4
    assert eval_term(Call("succ", (Const(1),)), (), lib) == 2


def test_eval_caps():
    lib = Library.initial()
    with pytest.raises(IterCountExceeded):
        eval_term(Iter(SUCC, Var(0), Const(0)), (101,), lib, iter_cap=100)
    with pytest.raises(Overflow):
        eval_term(Iter(SUCC, Var(0), Const(0)), (50,), lib, value_cap=10)


def test_eval_malformed():
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        eval_term(Var(2), (1, 2), lib)
    with pytest.raises(MalformedTerm):
        eval_term(Call("succ", (Const(0), Const(0))), (), lib)
    with pytest.raises(MalformedTerm):
        eval_term(Call("nope", ()), (), lib)


def test_term_size_counts_section_fillers():
    assert term_size(Iter(SUCC, Var(0), Var(1))) == 4
    assert term_size(Call("succ", (Call("succ", (Call("succ", (Var(0),)),)),))) == 4
    plus_section = Section("red", 0, (Var(0),))
    assert term_size(Iter(plus_section, Var(1), Const(0))) == 5


def test_synthesize_red_finds_addition():
    term = synthesize(RED, Library.initial())
    assert term == Iter(SUCC, Var(0), Var(1))
    lib = Library.initial()
    for x, y in itertools.product(range(21), range(21)):
        assert eval_term(term, (x, y), lib) == x + y


def test_synthesize_underdetermined_red_prefers_succ_chain():
    # the two examples alone admit a same-size constant-shift solution that
    # enumerates earlier (calls before iterations)
    two = RED[:2]
    term = synthesize(two, Library.initial())
    assert term == Call("succ", (Call("succ", (Call("succ", (Var(0),)),)),))


def test_synthesize_green_unlearnable_without_red():
    assert synthesize(GREEN, Library.initial(), size_cap=7) is None


def test_synthesize_input_validation():
    with pytest.raises(ArityMismatch):
        synthesize([], Library.initial())
    mixed = [FunctionExample("f", (1,), 2), FunctionExample("f", (1, 2), 3)]
    with pytest.raises(ArityMismatch):
        synthesize(mixed, Library.initial())


def naive_enumerate(library, arity, max_size):
    """Independent size-ordered enumeration used to cross-check minimality."""
    leaves = [Var(i) for i in range(arity)] + [Const(0), Const(1)]
    sections = []
    for fn in library.entries:
        for slot in range(fn.arity):
            for fillers in itertools.product(leaves, repeat=fn.arity - 1):
                sections.append(Section(fn.name, slot, tuple(fillers)))
    by_size = {1: list(leaves)}
    for size in range(2, max_size + 1):
        out = []
        for fn in library.entries:
            for shape in itertools.product(range(1, size), repeat=fn.arity):
                if sum(shape) != size - 1:
                    continue
                for args in itertools.product(*(by_size[s] for s in shape)):
                    out.append(Call(fn.name, args))
        for section in sections:
            remaining = size - 2 - len(section.fillers)
            for count_size in range(1, remaining):
                for count in by_size[count_size]:
                    for seed in by_size[remaining - count_size]:
                        out.append(Iter(section, count, seed))
        by_size[size] = out
    for size in range(1, max_size + 1):
        yield from by_size[size]


@pytest.mark.parametrize("examples", [
    [FunctionExample("f", (2,), 3), FunctionExample("f", (5,), 6)],
    [FunctionExample("f", (1, 1), 2), FunctionExample("f", (2, 3), 5)],
    [FunctionExample("f", (4,), 0)],
    [FunctionExample("f", (0, 3), 3), FunctionExample("f", (2, 0), 2),
     FunctionExample("f", (2, 2), 4)],
])
def test_minimality_cross_checked_naively(examples):
    lib = Library.initial()
    term = synthesize(examples, lib, size_cap=4)
    assert term is not None

    def consistent(t):
        try:
            return all(eval_term(t, ex.inputs, lib) == ex.output for ex in examples)
        except (Overflow, IterCountExceeded):
            return False

    assert consistent(term)
    naive_best = next(t for t in naive_enumerate(lib, len(examples[0].inputs), 4)
                      if consistent(t))
    assert term_size(term) == term_size(naive_best)


def _with_add():
    lib = Library.initial()
    lib.define("add", 2, Iter(SUCC, Var(0), Var(1)))
    return lib


LIBRARIES = {"initial": Library.initial(), "add": _with_add()}


@functools.lru_cache(maxsize=None)
def _naive_terms(lib_name, arity):
    return tuple(naive_enumerate(LIBRARIES[lib_name], arity, 5))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lib_name=st.sampled_from(sorted(LIBRARIES)),
       arity=st.integers(1, 2), iter_cap=st.integers(0, 6),
       value_cap=st.integers(1, 12))
def test_synthesize_returns_first_naive_term(data, lib_name, arity, iter_cap, value_cap):
    # tight caps make overflow and the iteration cap prune terms
    lib = LIBRARIES[lib_name]
    rows = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 4)] * arity),
                                        st.integers(0, 6)), min_size=1, max_size=3))
    examples = [FunctionExample("f", inputs, output) for inputs, output in rows]

    def consistent(t):
        try:
            return all(eval_term(t, ex.inputs, lib, iter_cap, value_cap) == ex.output
                       for ex in examples)
        except (Overflow, IterCountExceeded):
            return False

    naive_first = next((t for t in _naive_terms(lib_name, arity) if consistent(t)), None)
    assert synthesize(examples, lib, size_cap=5, iter_cap=iter_cap,
                      value_cap=value_cap) == naive_first


def test_succ_only_terms_are_affine_sums():
    # with succ alone, every evaluable term computes a variable-sum plus a
    # constant; checked exhaustively at the full search cap.  The enumerator
    # keeps one term per vector on the probes, and the property depends only
    # on those values, so it covers every term.
    lib = Library.initial()
    from conceptgraph.fnsynth import _Enumerator, _Evaluator
    probes = [(0, 0), (1, 0), (0, 1), (3, 5), (7, 2)]
    enum = _Enumerator(_Evaluator(lib, DEFAULT_ITER_CAP, DEFAULT_VALUE_CAP), probes)
    for size in range(1, 8):
        for term in enum.terms_of(size):
            try:
                values = [eval_term(term, p, lib) for p in probes]
            except (Overflow, IterCountExceeded, MalformedTerm):
                continue
            base = values[0]
            cx = values[1] - base
            cy = values[2] - base
            for (x, y), value in zip(probes, values):
                assert value == base + cx * x + cy * y


def test_learn_all_with_a_nullary_function():
    # a learned constant joins the library but is never enumerated as a call
    two = [FunctionExample("two", (), 2)]
    inc = [FunctionExample("inc", (1,), 2), FunctionExample("inc", (4,), 5)]
    lib, unsolved = learn_all([("two", two), ("inc", inc)])
    assert unsolved == []
    assert lib.fn("two").definition == Call("succ", (Const(1),))
    assert lib.fn("inc").definition == Call("succ", (Var(0),))


def test_learn_all_red_then_green():
    lib, unsolved = learn_all([("red", RED), ("green", GREEN)])
    assert unsolved == []
    assert [fn.name for fn in lib.entries] == ["succ", "red", "green"]
    green = lib.fn("green").definition
    assert green == Iter(Section("red", 0, (Var(0),)), Var(1), Const(0))
    for x, y in itertools.product(range(11), range(11)):
        assert eval_term(green, (x, y), lib) == x * y


def test_learn_all_green_alone_unsolved():
    lib, unsolved = learn_all([("green", GREEN)])
    assert unsolved == ["green"]
    assert [fn.name for fn in lib.entries] == ["succ"]


def test_learn_all_empty_input():
    lib, unsolved = learn_all([])
    assert unsolved == []
    assert [fn.name for fn in lib.entries] == ["succ"]


def test_learn_all_deterministic():
    first = learn_all([("red", RED), ("green", GREEN)])
    second = learn_all([("red", RED), ("green", GREEN)])
    assert [fn.definition for fn in first[0].entries] == \
        [fn.definition for fn in second[0].entries]


def test_hierarchy_monotonicity_extra_member_keeps_labels_learnable():
    base = Library.initial()
    with_extra = Library.initial()
    with_extra.define("noise", 1, Call("succ", (Call("succ", (Var(0),)),)))
    for examples in (RED,):
        assert synthesize(examples, base) is not None
        assert synthesize(examples, with_extra) is not None


def test_examples_text_roundtrip_and_errors():
    text = "red 2 1 3 4\nred 2 2 3 5\ngreen 2 2 4 8\n\n# comment\n"
    sets = parse_examples_text(text)
    assert [label for label, _ in sets] == ["red", "green"]
    assert sets[0][1][0] == FunctionExample("red", (1, 3), 4)
    with pytest.raises(ValueError):
        parse_examples_text("red 2 1 3\n")  # wrong number count
    with pytest.raises(ArityMismatch):
        parse_examples_text("red 2 1 3 4\nred 1 1 2\n")


@pytest.mark.parametrize("label", ["f)", "(f", '"f"', '"f', "succ"])
def test_examples_text_rejects_a_label_no_library_line_holds(label):
    with pytest.raises(ValueError, match="line 2"):
        parse_examples_text(f"red 2 1 3 4\n{label} 1 0 1\n")


LABEL = st.one_of(st.text("ab", min_size=1, max_size=2),
                  st.text('ab()"\\#;', min_size=1, max_size=4),
                  st.sampled_from(["succ", "f)", '"f"', "def", "var", "0"]))
EXAMPLE_LINE = st.one_of(
    st.tuples(LABEL, st.integers(-1, 3)).flatmap(lambda head: st.lists(
        st.integers(-3, 9), min_size=head[1] + 1, max_size=head[1] + 1).map(
        lambda numbers: " ".join([head[0], str(head[1]), *map(str, numbers)]))),
    st.text(max_size=16))


@settings(max_examples=300, deadline=None)
@given(st.lists(EXAMPLE_LINE, max_size=6))
def test_examples_text_fuzz_yields_labels_the_library_format_holds(lines):
    """Parsing example lines either fails cleanly or yields labels that
    survive a library's text round trip."""
    try:
        sets = parse_examples_text("\n".join(lines))
    except (ValueError, GraphError):
        return
    lib = Library.initial()
    for label, examples in sets:
        arity = len(examples[0].inputs)
        lib.define(label, arity, Var(0) if arity else Const(0))
    restored = library_from_lines(library_to_lines(lib))
    assert [fn.name for fn in restored.entries] == [fn.name for fn in lib.entries]


def test_library_sexpr_roundtrip():
    lib, _ = learn_all([("red", RED), ("green", GREEN)])
    lines = library_to_lines(lib)
    assert lines[0] == "(builtin succ 1)"
    restored = library_from_lines(lines)
    assert [fn.name for fn in restored.entries] == [fn.name for fn in lib.entries]
    assert restored.fn("green").definition == lib.fn("green").definition


def test_term_sexpr_roundtrip():
    term = Iter(Section("red", 1, (Const(1),)), Call("succ", (Var(0),)), Const(0))
    assert term_from_sexpr(sexpr.parse_one(term_to_sexpr(term))) == term


@pytest.mark.parametrize("lines", [
    ["(builtin succ 1)", "(def f 1 (call f (var 0)))"],                # self call
    ["(builtin succ 1)", "(def f 1 (call g (var 0)))", "(def g 1 (var 0))"],  # later
    ["(builtin succ 1)", "(def f 1 (call nope (var 0)))"],             # unknown
    ["(builtin succ 1)", "(def f 1 (call succ (var 0) (var 0)))"],     # arg count
    ["(builtin succ 1)", "(def f 1 (iter (sec succ 1) (var 0) (var 0)))"],  # slot
    ["(builtin succ 1)", "(def f 1 (iter (sec succ 0 (var 0)) (var 0) (var 0)))"],
    ["(builtin succ 1)", "(def f 1 (iter (sec f 0) (var 0) (var 0)))"],  # self section
    ["(builtin succ 1)", "(def f 1 (var 1))"],                         # var range
    ["(builtin succ 1)", "(def f -1 (const 0))"],
    ["(builtin pred 1)"],
    ["(builtin succ 2)"],
    ["(builtin succ 1)", "(def f 1)"],
    ["(builtin succ 1)", "(def f 1 (var x))"],
])
def test_malformed_library_rejected(lines):
    with pytest.raises(MalformedTerm):
        library_from_lines(lines)


def test_define_checks_the_definition():
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        lib.define("f", 1, Call("f", (Var(0),)))
    with pytest.raises(MalformedTerm):
        lib.define("f", 1, Iter(Section("succ", 0, ()), Var(0), Call("succ", ())))
    assert [fn.name for fn in lib.entries] == ["succ"]
