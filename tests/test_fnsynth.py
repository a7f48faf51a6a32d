import functools
import hashlib
import itertools

import pytest
from hypothesis import event, given, settings, strategies as st

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
    LibraryFn,
    Section,
    Var,
    _Evaluator,
    eval_term,
    learn_all,
    library_to_lines,
    parse_examples_text,
    synthesize,
    term_size,
)
from conceptgraph import fnsynth, sexpr
from conceptgraph.corpus import gen_fn_ensemble

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
    # a cap that is not an int is refused, as `synthesize` refuses it:
    # unchecked, "x" and None raised a bare TypeError, 2.5 ran against a
    # float and True counted as 1
    for caps in ({"iter_cap": "x"}, {"value_cap": None}, {"value_cap": 2.5},
                 {"iter_cap": True}):
        with pytest.raises(ValueError, match="must be an int"):
            eval_term(Iter(SUCC, Var(0), Const(0)), (1,), lib, **caps)


@pytest.mark.parametrize("inputs", [(1.5,), (True,), ("1",), (1, 2.0)])
def test_eval_term_refuses_an_input_that_is_not_an_int(inputs):
    with pytest.raises(ValueError, match="integers"):
        eval_term(Call("succ", (Var(0),)), inputs, Library.initial())


def test_eval_malformed():
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        eval_term(Var(2), (1, 2), lib)
    with pytest.raises(MalformedTerm):
        eval_term(Call("succ", (Const(0), Const(0))), (), lib)
    with pytest.raises(MalformedTerm):
        eval_term(Call("nope", ()), (), lib)


def test_eval_checks_the_whole_term_first_in_field_order():
    """A term is checked before any of it runs, and the fault reported is the
    first in field order: an iteration's fillers, then count, then seed."""
    lib = Library([LibraryFn("succ", 1, None), LibraryFn("add", 2, Iter(SUCC, Var(0), Var(1)))])
    for (filler, count, seed), fault in [((Var(5), Call("nope", ()), Var(9)), "var 5"),
                                         ((Var(0), Call("nope", ()), Var(9)), "'nope'"),
                                         ((Var(0), Var(0), Var(9)), "var 9")]:
        with pytest.raises(MalformedTerm, match=fault):
            eval_term(Iter(Section("add", 0, (filler,)), count, seed), (1,), lib)
    # run unchecked, the first argument would exceed the iteration cap
    with pytest.raises(MalformedTerm):
        eval_term(Call("add", (Iter(SUCC, Var(0), Const(0)), Call("nope", ()))), (101,), lib)


@pytest.mark.parametrize("term", [Const("x"), Const(7), Const(True), Const(1.0), Var(True),
                                  Var(0.0), Iter(Section("succ", False, ()), Var(0), Var(0)),
                                  Call(["succ"], (Var(0),)), Call("succ", [Var(0)]),
                                  Iter(Section(["succ"], 0, ()), Var(0), Var(0)),
                                  Iter(Section("succ", 0, []), Var(0), Var(1)),
                                  Iter(None, Var(0), Var(0))],
                         ids=repr)
def test_the_term_check_takes_int_leaves_only(term):
    """A constant is the int 0 or 1, a variable index or open slot an int,
    a callee's name a str and its arguments or fillers a tuple: unchecked,
    `Const("x")` evaluated to 'x', `Var(True)` read input 1, `Call("succ",
    [Var(0)])` gave 4, a name in a list raised a bare TypeError and an
    iteration without a `Section` a bare AttributeError."""
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        eval_term(term, (3, 4), lib)
    with pytest.raises(MalformedTerm):
        lib.define("f", 2, term)
    assert library_to_lines(lib) == ["(builtin succ 1)"]


@pytest.mark.parametrize("arity", [1.5, True, 1.0, "1"], ids=repr)
def test_a_library_entry_has_an_int_arity(arity):
    """Unchecked, `define("f", 1.5, ...)` printed `(def f 1.5 (var 0))`."""
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        lib.define("f", arity, Var(0))
    with pytest.raises(MalformedTerm):
        Library([LibraryFn("succ", arity, None)])
    assert library_to_lines(lib) == ["(builtin succ 1)"]


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
    """Bad examples and caps that are not ints (a bool is not) are refused;
    unchecked, `size_cap=7.5` and `value_cap=None` raised a bare TypeError,
    `iter_cap="x"` was taken and `value_cap=2.5` ran.  `learn_all` refuses a
    cap before any search, so even with nothing to learn.  An int cap keeps
    its meaning: a `size_cap` below 1 finds nothing."""
    with pytest.raises(ArityMismatch):
        synthesize([], Library.initial())
    mixed = [FunctionExample("f", (1,), 2), FunctionExample("f", (1, 2), 3)]
    with pytest.raises(ArityMismatch):
        synthesize(mixed, Library.initial())
    for caps in [{"size_cap": 7.5}, {"size_cap": True}, {"size_cap": None}, {"iter_cap": "x"},
                 {"iter_cap": 100.0}, {"value_cap": None}, {"value_cap": 2.5},
                 {"value_cap": False}]:
        for search in (lambda: synthesize(RED, Library.initial(), **caps),
                       lambda: learn_all([("red", RED)], **caps), lambda: learn_all([], **caps)):
            with pytest.raises(ValueError, match="must be an int"):
                search()
    for size_cap in (0, -3):
        assert synthesize(RED, Library.initial(), size_cap=size_cap) is None
        assert learn_all([("red", RED)], size_cap=size_cap)[1] == ["red"]


@pytest.mark.parametrize("inputs, output", [
    (("a",), 2), ((1.5,), 2), ((True,), 2), ((1,), 2.0), ((1,), "2")])
def test_synthesize_refuses_a_value_that_is_not_an_int(inputs, output):
    examples = [FunctionExample("f", (1,), 2), FunctionExample("f", inputs, output)]
    with pytest.raises(ValueError, match="integers"):
        synthesize(examples, Library.initial())


@pytest.mark.parametrize("search", [
    lambda: synthesize([5], Library.initial()),
    lambda: synthesize([FunctionExample("f", (1,), 2), ("f", (2,), 3)], Library.initial()),
    lambda: learn_all([("f", [5])])])
def test_an_example_that_is_not_a_function_example_is_refused(search):
    """Unchecked, each of these raised a bare `AttributeError`."""
    with pytest.raises(ValueError, match="FunctionExample"):
        search()


def test_learn_all_refuses_a_repeated_label_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing the repeated label")

    monkeypatch.setattr(fnsynth, "synthesize", no_search)
    sets = [("f", [FunctionExample("f", (1,), 2)]), ("g", RED),
            ("f", [FunctionExample("f", (1,), 3)])]
    with pytest.raises(ValueError, match="function 'f' already defined"):
        learn_all(sets)


@pytest.mark.parametrize("sets", [
    [("succ", [FunctionExample("succ", (5,), 6)])], [("f", 5)], [("f", None)],
    [("g", RED), ("f", iter(RED))], [("g", RED), ("f", [RED])]])
def test_learn_all_refuses_a_known_label_or_a_malformed_set_before_searching(monkeypatch, sets):
    """Unchecked, a known label was skipped without a word and a set that is
    not a list raised a bare `TypeError`, after searching the labels before."""
    def no_search(*args, **kwargs):
        raise AssertionError("searched before refusing the set")

    monkeypatch.setattr(fnsynth, "synthesize", no_search)
    with pytest.raises(ValueError, match="already defined|FunctionExamples"):
        learn_all(sets)


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
       arity=st.integers(1, 2), size_cap=st.integers(1, 5), iter_cap=st.integers(0, 6),
       value_cap=st.integers(1, 12))
def test_synthesize_returns_first_naive_term(data, lib_name, arity, size_cap, iter_cap,
                                             value_cap):
    # tight caps make overflow and the iteration cap prune terms; every size
    # cap puts the searched (not built) last level at another size
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

    naive = itertools.takewhile(lambda t: term_size(t) <= size_cap, _naive_terms(lib_name, arity))
    naive_first = next((t for t in naive if consistent(t)), None)
    assert synthesize(examples, lib, size_cap=size_cap, iter_cap=iter_cap,
                      value_cap=value_cap) == naive_first


@pytest.mark.parametrize("lib_name, rows, caps, skipped, found", [
    # the seed y passes a count of zero on the second row unchecked, as
    # nothing else can give 6 under the value cap
    ("initial", [((0, 0, 1), 1), ((5, 6, 0), 6)], {"value_cap": 5},
     Iter(SUCC, Var(0), Const(1)), Iter(SUCC, Var(2), Var(1))),
    ("add", [((1, 0), 1), ((7, 2), 9)], {"iter_cap": 5},
     Call("add", (Var(0), Var(1))), Call("add", (Var(1), Var(0))))],
    ids=["overflow", "iteration cap"])
@pytest.mark.parametrize("last", [True, False], ids=["searched", "built"])
def test_a_candidate_that_fails_after_matching_rows_is_skipped(lib_name, rows, caps, skipped,
                                                               found, last):
    """`skipped` comes before `found` in the order, with its size, and
    matches the target on the first row but overflows or exceeds the
    iteration cap on the second, so the search passes over it, both when
    that size is the last (searched row by row) and when it is built."""
    lib = LIBRARIES[lib_name]
    (first_inputs, first_output), (second_inputs, _) = rows
    assert eval_term(skipped, first_inputs, lib, **caps) == first_output
    with pytest.raises((Overflow, IterCountExceeded)):
        eval_term(skipped, second_inputs, lib, **caps)
    size = term_size(found)
    order = list(naive_enumerate(lib, len(first_inputs), size))
    assert term_size(skipped) == size and order.index(skipped) < order.index(found)
    examples = [FunctionExample("f", inputs, output) for inputs, output in rows]
    assert synthesize(examples, lib, size_cap=size if last else size + 1, **caps) == found


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
    read back as themselves from the library lines that name them."""
    try:
        sets = parse_examples_text("\n".join(lines))
    except (ValueError, GraphError):
        return
    lib = Library.initial()
    for label, examples in sets:
        arity = len(examples[0].inputs)
        lib.define(label, arity, Var(0) if arity else Const(0))
    names = [sexpr.parse_one(line)[1] for line in library_to_lines(lib)]
    assert names == [fn.name for fn in lib.entries]


def _lib(*defs):
    """Library entries after the builtin: (name, arity, definition)."""
    return [LibraryFn("succ", 1, None), *(LibraryFn(*d) for d in defs)]


def _iter(fn, slot, fillers=()):
    return Iter(Section(fn, slot, fillers), Var(0), Var(0))


# One case per rule an entry is held to when it joins a library (`Library._append`
# and `_compile`): each case is a library, one entry per line.
@pytest.mark.parametrize("lines", [
    _lib(("f", 1, Call("f", (Var(0),)))),                                 # self call
    _lib(("f", 1, Call("g", (Var(0),))), ("g", 1, Var(0))),              # later
    _lib(("f", 1, Call("nope", (Var(0),)))),                             # unknown
    _lib(("f", 1, Call("succ", (Var(0), Var(0))))),                      # arg count
    _lib(("f", 1, _iter("succ", 1))),                                    # slot
    _lib(("f", 1, _iter("succ", 0, (Var(0),)))),                         # filler count
    _lib(("f", 1, _iter("f", 0))),                                       # self section
    _lib(("f", 1, Var(1))),                                              # var range
    _lib(("f", -1, Const(0))),                                           # negative arity
    [LibraryFn("pred", 1, None)],                                        # unknown builtin
    [LibraryFn("succ", 2, None)],                                        # builtin arity
])
def test_malformed_library_rejected(lines):
    with pytest.raises(MalformedTerm):
        Library(lines)


def test_define_checks_the_definition():
    lib = Library.initial()
    with pytest.raises(MalformedTerm):
        lib.define("f", 1, Call("f", (Var(0),)))
    with pytest.raises(MalformedTerm):
        lib.define("f", 1, Iter(Section("succ", 0, ()), Var(0), Call("succ", ())))
    assert [fn.name for fn in lib.entries] == ["succ"]


INPUT = st.integers(-3, 6)


def _reference_eval(term, inputs, lib, iter_cap, value_cap):
    """Memo-free evaluation with the plain semantics: count, seed, then
    fillers are evaluated; a count over `iter_cap` raises, and otherwise
    `range(count)` steps run (none for a count of zero or less); a call
    whose result exceeds `value_cap` overflows."""
    def ev(t, env):
        if isinstance(t, Var):
            return env[t.index]
        if isinstance(t, Const):
            return t.value
        if isinstance(t, Call):
            return call(lib.fn(t.fn), [ev(a, env) for a in t.args])
        section = t.section
        count, value = ev(t.count, env), ev(t.seed, env)
        fillers = [ev(f, env) for f in section.fillers]
        if count > iter_cap:
            raise IterCountExceeded(count)
        for _ in range(count):
            value = call(lib.fn(section.fn),
                         fillers[:section.open_slot] + [value] + fillers[section.open_slot:])
        return value

    def call(fn, values):
        result = values[0] + 1 if fn.definition is None else ev(fn.definition, values)
        if result > value_cap:
            raise Overflow(result)
        return result

    return ev(term, tuple(inputs))


def _outcome(thunk):
    try:
        return thunk()
    except (Overflow, IterCountExceeded) as exc:
        return type(exc)


def _shared_seed_pair(section, count_a, count_b, seed):
    """Two iterations with one section and seed (one orbit) as the count and
    seed of a third: the second reads what the first computed."""
    return Iter(section, Iter(section, count_a, seed), Iter(section, count_b, seed))


def _eval_terms(lib):
    """Terms of arity 2 over `lib`, shared-seed pairs included."""
    leaves = [Var(0), Var(1), Const(0), Const(1)]
    sections = st.sampled_from([
        Section(fn.name, slot, fillers) for fn in lib.entries for slot in range(fn.arity)
        for fillers in itertools.product(leaves, repeat=fn.arity - 1)])

    def extend(children):
        calls = [st.tuples(*[children] * fn.arity).map(
            lambda args, name=fn.name: Call(name, args)) for fn in lib.entries]
        return st.one_of(*calls, st.builds(Iter, sections, children, children),
                         st.builds(_shared_seed_pair, sections, children, children, children))

    return st.recursive(st.sampled_from(leaves), extend, max_leaves=8)


TERMS = {name: _eval_terms(lib) for name, lib in LIBRARIES.items()}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), lib_name=st.sampled_from(sorted(LIBRARIES)),
       iter_cap=st.integers(0, 6), value_cap=st.integers(1, 12))
def test_eval_agrees_with_a_memo_free_reference(data, lib_name, iter_cap, value_cap):
    # negative inputs give negative counts; one evaluator shared across
    # terms and rows reuses its memos the way a search does
    lib = LIBRARIES[lib_name]
    terms = data.draw(st.lists(TERMS[lib_name], min_size=1, max_size=4))
    rows = data.draw(st.lists(st.tuples(INPUT, INPUT), min_size=1, max_size=4))
    shared = _Evaluator(lib, iter_cap, value_cap)
    for term in terms:
        for row in rows:
            expected = _outcome(lambda: _reference_eval(term, row, lib, iter_cap, value_cap))
            assert _outcome(lambda: eval_term(term, row, lib, iter_cap, value_cap)) == expected
            assert _outcome(lambda: shared.eval(term, row)) == expected


def _row_library():
    """A builtin, `add` and `mul`, and a projection whose result is its
    argument, so its memo holds results above the cap."""
    lib = _with_add()
    lib.define("mul", 2, Iter(Section("add", 0, (Var(0),)), Var(1), Const(0)))
    lib.define("snd", 2, Var(1))
    return lib


ROW_LIBRARY = _row_library()


@settings(max_examples=300, deadline=None)
@given(data=st.data(), iter_cap=st.integers(0, 6), value_cap=st.integers(1, 8),
       n_rows=st.integers(1, 4))
def test_row_kernels_agree_with_a_per_row_reference(data, iter_cap, value_cap, n_rows):
    """`apply_rows` and `iterate_rows` give the reference's value per row, or
    raise the type of the first row that fails.  Given a target, they run
    the rows in order up to the first that fails, and raise there, or that
    differs from the target, and give None there; else the target.  The
    targets drawn differ from the values from some row on, or nowhere.  On
    one shared evaluator, some rows first go through `apply`, or `iterate`
    with another count, and each kernel call runs twice, so later calls meet
    memo results above the cap, counts of zero or less or over the cap on a
    kept orbit, and orbits whose next step failed before."""
    lib = ROW_LIBRARY
    shared = _Evaluator(lib, iter_cap, value_cap)
    vector = st.lists(INPUT, min_size=n_rows, max_size=n_rows).map(tuple)

    def reference(term, row):
        return _outcome(lambda: _reference_eval(term, row, lib, iter_cap, value_cap))

    for _ in range(data.draw(st.integers(1, 6))):
        fn = data.draw(st.sampled_from(lib.entries))
        leaves = tuple(Var(i) for i in range(fn.arity - 1))
        if data.draw(st.booleans()):
            arg_vectors = [data.draw(vector) for _ in range(fn.arity)]
            call = Call(fn.name, (*leaves, Var(fn.arity - 1)))
            rows = list(zip(*arg_vectors))
            for row in rows:
                if data.draw(st.booleans()):
                    assert _outcome(lambda: shared.apply(fn, row)) == reference(call, row)
            outcomes = [reference(call, row) for row in rows]

            def kernel(target):
                if any(shared.memo.get((fn.name, row), 0) > value_cap for row in rows):
                    event("memo hit above the cap")
                return shared.apply_rows(fn, arg_vectors, target)
        else:
            slot = data.draw(st.integers(0, fn.arity - 1))
            fillers = list(zip(*[data.draw(vector) for _ in leaves])) or [()] * n_rows
            counts, seeds = data.draw(vector), data.draw(vector)
            iteration = Iter(Section(fn.name, slot, leaves), Var(len(leaves)),
                             Var(len(leaves) + 1))
            rows = [(*f, c, s) for f, c, s in zip(fillers, counts, seeds)]
            for f, seed in zip(fillers, seeds):
                warm = data.draw(st.one_of(st.none(), INPUT))
                if warm is not None:
                    assert (_outcome(lambda: shared.iterate(fn, slot, f, warm, seed))
                            == reference(iteration, (*f, warm, seed)))
            outcomes = [reference(iteration, row) for row in rows]
            failing = {row[:-2] + row[-1:] for row, outcome in zip(rows, outcomes)
                       if outcome is Overflow}

            def kernel(target):
                for f, c, seed in zip(fillers, counts, seeds):
                    orbit = shared.orbits.get((fn.name, slot, f, seed))
                    if orbit and c <= 0:
                        event("count of zero or less on a kept orbit")
                    elif orbit and c > iter_cap:
                        event("count over the cap on a kept orbit")
                    elif orbit and c >= len(orbit) and (*f, seed) in failing:
                        event("an orbit step that failed before")
                return shared.iterate_rows(fn, slot, fillers, counts, seeds, target)
        failed = [outcome for outcome in outcomes if isinstance(outcome, type)]
        for _ in range(2):
            assert _outcome(lambda: kernel(None)) == (failed[0] if failed else tuple(outcomes))
            values = [0 if isinstance(outcome, type) else outcome for outcome in outcomes]
            cut = data.draw(st.integers(0, n_rows))
            target = tuple(values[:cut] + [value + 1 for value in values[cut:]])
            expected = target
            for outcome, want in zip(outcomes, target):
                if isinstance(outcome, type):
                    expected = outcome
                    break
                if outcome != want:
                    expected = None
                    break
            assert _outcome(lambda: kernel(target)) == expected


def test_iteration_with_a_negative_count_returns_the_seed():
    lib = Library.initial()
    inner = Iter(SUCC, Var(0), Var(1))
    assert eval_term(Iter(SUCC, Var(0), inner), (-3, 5), lib) == 5
    ev = _Evaluator(lib, DEFAULT_ITER_CAP, DEFAULT_VALUE_CAP)
    assert ev.eval(inner, (4, 5)) == 9
    assert ev.eval(inner, (-1, 5)) == 5
    assert ev.eval(inner, (2, 5)) == 7
    lib, unsolved = learn_all([("f", [FunctionExample("f", (-2, 4), 4),
                                      FunctionExample("f", (3, 1), 7)])])
    assert unsolved == [] and "f" in lib


def test_failed_orbit_step_fails_again_the_same_way():
    lib = Library.initial()
    ev = _Evaluator(lib, iter_cap=5, value_cap=7)
    assert ev.eval(Iter(SUCC, Var(0), Var(1)), (2, 4)) == 6
    for _ in range(2):
        with pytest.raises(Overflow):
            ev.eval(Iter(SUCC, Var(0), Var(1)), (4, 4))
        with pytest.raises(IterCountExceeded):
            ev.eval(Iter(SUCC, Var(0), Var(1)), (6, 4))
    assert ev.eval(Iter(SUCC, Var(0), Var(1)), (3, 4)) == 7


_QUADP_SIZE_6 = "0ebeff2d6e9a2ce99e692077e8640630ffdad84341f99d6024357141000d5a88"
_QUADP_SIZE_7 = "7cf05c8606f71cf82a2b6dc3281c8b0fdd64cf1f1ea59d1ba6d9287a6051923e"
LIBRARY_PINS = (
    [(s, 8, {}, _QUADP_SIZE_6 if s in (1, 2, 7) else _QUADP_SIZE_7) for s in range(1, 11)]
    + [(s, 32, {}, _QUADP_SIZE_7) for s in (1, 2, 3)]
    + [(1, 8, {"value_cap": 300},
        "59e6219733e0c4779eb97415678eae41f011cb3f77bb4f61088895d7615aa26f"),
       (3, 8, {"value_cap": 300},
        "a6c10a2a422f46fd488bfa5ebe62c2dfe257c815f062b63b9804c34ae5971f2d"),
       (5, 8, {"value_cap": 300},
        "ad345ade6ee6cd3a779e169dfc9b575110774b7f88a497165c17b7776a95eaff"),
       (1, 8, {"iter_cap": 30, "value_cap": 2000},
        "f7a9def4f63f4e698c4b8161127375a4f4ad7b83bac0f744f61b14ef0955516e"),
       (3, 8, {"iter_cap": 12},
        "5f558548e0d2b183dc6fa68b40413c9d8e7b676e3548be344295c13def925a93"),
       (3, 8, {"size_cap": 6},
        "5a44b1a3eccbb41768568fbe69c70a0f7ef82328f0b9fabb178d24696165719e")])


@pytest.mark.parametrize("seed, per_fn, caps, digest", LIBRARY_PINS)
def test_learned_library_is_pinned(seed, per_fn, caps, digest):
    """The library text and unsolved labels of `learn_all` on the ensemble.
    With 8 examples about a quarter of the seeds admit a size-6 quadp; the
    tight caps leave labels unsolved."""
    lib, unsolved = learn_all(gen_fn_ensemble(seed * 1000, per_fn)[0], **caps)
    text = "\n".join(library_to_lines(lib) + unsolved)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_ensemble_search_reuses_its_evaluations(monkeypatch):
    """A work count, not a time: the search of one ensemble unit calls
    `_Evaluator.apply` at most 12,800 times and `iterate` at most 41,500
    times (11,662 and 37,700 when the last size is searched row by row for
    the target; 14,192 and 52,585 when it was built in full, as every
    smaller size is; 147,636 and 121,030 when every row went through the
    one-row calls, and 1,128,853 applies without the orbit memo)."""
    calls = {"apply": 0, "iterate": 0}

    def counted(name):
        method = getattr(_Evaluator, name)

        def run(self, *args):
            calls[name] += 1
            return method(self, *args)
        return run

    for name in calls:
        monkeypatch.setattr(_Evaluator, name, counted(name))
    _, unsolved = learn_all(gen_fn_ensemble(1000, 32)[0])
    assert unsolved == []
    assert calls["apply"] <= 12_800
    assert calls["iterate"] <= 41_500
