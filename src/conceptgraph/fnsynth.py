"""Bottom-up synthesis of an ensemble of integer functions from examples.

Terms are built from variables, the constants 0 and 1, calls to library
functions, and a bounded iteration combinator that applies a one-open-slot
section of a library function n times to a seed.  Enumeration is by
ascending term size with a fixed order inside each size, so the returned
term is the canonical smallest one consistent with every example.  Each
learned function joins the library and becomes a building block for the
rest, which is what lets later, harder functions become reachable at all.

Terms are enumerated together with their value vectors on the example
inputs, and only the first term of each vector is kept (observational
equivalence).  A call's vector is computed from its argument vectors and an
iteration's from its count, seed and filler vectors, so no subterm is
evaluated twice.  Terms that overflow or exceed the iteration cap on any
example are dropped as well, and the search stops at the first kept term
whose vector equals the example outputs.  The last size is searched
rather than built: no later size reads its terms, so it needs neither the
record of seen vectors nor full vectors, and a candidate there is dropped
at its first row that misses the outputs.  Pruning keeps the canonical
answer: the pruned order is a subsequence of the full order, and evaluation
is strict and compositional, so a first consistent term with a pruned
subterm would give an earlier consistent term by swapping in the earlier
equivalent one.  Library definitions only call earlier entries, so
evaluation terminates.

The evaluator keeps two memos, both exact because evaluation is pure: a
call's result per (function, arguments), and an iteration's orbit `[seed,
f(seed), f(f(seed)), ...]` per (function, open slot, fillers, seed).  Many
candidate iterations walk the same chains of library calls, and with the
orbit memo they share one walk.  An iteration count over the cap raises
first; a count of zero or less applies the section zero times and so
returns the seed, whatever the orbit holds.

Nothing walks a term tree at evaluation time.  Each library definition is
compiled once, when it joins the library, into a closure that calls its
callees through the evaluator, so the caps and memos hold for it as for
any call; a body runs only when the call memo misses.  The compile is also
the one check of a term: int variable indices in range, constants the int
0 or 1, and callees named by `str` and earlier in the library, each with
a tuple of its int arity in arguments.  The enumerator computes a value
vector per candidate with the evaluator's row kernels, which read
call-memo and orbit hits inline and hand every other row to the one-row
`apply` or `iterate`; given a target vector, they stop at the first row
that differs from it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional, Sequence, Union

from .core import as_tuple
from .errors import ArityMismatch, IterCountExceeded, MalformedTerm, Overflow
from .records import record

DEFAULT_ITER_CAP = 100
DEFAULT_VALUE_CAP = 10**6
DEFAULT_SIZE_CAP = 7


@record
class Var:
    index: int


@record
class Const:
    value: int  # 0 or 1


@record
class Call:
    fn: str
    args: tuple


@record
class Section:
    """A library function with exactly one open slot; other slots hold leaves."""

    fn: str
    open_slot: int
    fillers: tuple  # Var/Const leaves for the remaining slots, in order


@record
class Iter:
    section: Section
    count: "Term"
    seed: "Term"


Term = Union[Var, Const, Call, Iter]
Vector = tuple[int, ...]  # a term's values on the example inputs, in order


def section_size(section: Section) -> int:
    return 1 + len(section.fillers)


@record
class LibraryFn:
    name: str
    arity: int
    definition: Optional[Term]  # None marks a builtin


def _builtin_succ(x: int) -> int:
    return x + 1


_BUILTINS: dict[str, tuple[int, Callable]] = {"succ": (1, _builtin_succ)}


def _compile(term: Term, arity: int, known: dict[str, LibraryFn]) -> Callable:
    """The closure `(evaluator, inputs) -> int` that evaluates `term` on
    `arity` inputs, built in the one walk that checks it: MalformedTerm
    unless the term reads only int variables below `arity` and the int
    constants 0 and 1, and calls only `known` functions by their `str`
    names, each with a tuple of its arity in arguments or fillers, and an
    iteration through a `Section` with an int open slot in range.  A node is
    checked before its subterms, which are compiled in field order (an
    iteration's fillers, then count, then seed).

    The closure evaluates an iteration's count, then seed, then fillers,
    and makes every call through the evaluator's `apply` and `iterate`, so
    its caps and memos apply.  Callees are resolved here, once.  The closure
    takes the evaluator as an argument rather than holding it, so a library
    never keeps an evaluator's memos alive."""
    if isinstance(term, Var):
        index = term.index
        if type(index) is not int or not 0 <= index < arity:
            raise MalformedTerm(f"var {index!r} out of range for arity {arity}")
        return lambda ev, inputs: inputs[index]
    if isinstance(term, Const):
        value = term.value
        if type(value) is not int or value not in (0, 1):
            raise MalformedTerm(f"constant {value!r} is not 0 or 1")
        return lambda ev, inputs: value
    if isinstance(term, Call):
        fn = known.get(term.fn) if type(term.fn) is str else None
        if fn is None or type(term.args) is not tuple or fn.arity != len(term.args):
            raise MalformedTerm(f"call to {term.fn!r} with args {term.args!r} does not "
                                "match an earlier library entry")
        args = [_compile(a, arity, known) for a in term.args]
        return lambda ev, inputs: ev.apply(fn, tuple([a(ev, inputs) for a in args]))
    if isinstance(term, Iter) and isinstance(term.section, Section):
        section = term.section
        fn = known.get(section.fn) if type(section.fn) is str else None
        slot = section.open_slot
        if (fn is None or type(section.fillers) is not tuple
                or len(section.fillers) != fn.arity - 1 or type(slot) is not int
                or not 0 <= slot < fn.arity):
            raise MalformedTerm(f"section of {section.fn!r} does not fit an earlier "
                                "library entry")
        fillers = [_compile(f, arity, known) for f in section.fillers]
        count, seed = _compile(term.count, arity, known), _compile(term.seed, arity, known)
        if not fillers:  # the common case, without a comprehension (costly before 3.12)
            return lambda ev, inputs: ev.iterate(fn, slot, (), count(ev, inputs), seed(ev, inputs))

        def iterate(ev, inputs):
            n, value = count(ev, inputs), seed(ev, inputs)
            return ev.iterate(fn, slot, tuple([f(ev, inputs) for f in fillers]), n, value)
        return iterate
    raise MalformedTerm(f"unknown term {term!r}")


class Library:
    """Ordered function store; definitions only reference earlier entries.

    Each definition is compiled once, when it is added, into `bodies` by
    name; `_compile` checks it in the same walk.  So evaluating a library
    term always terminates (iteration counts are capped) and never meets an
    unknown function or a wrong argument count.  A builtin entry must name
    a builtin with its arity; an entry that is no `LibraryFn`, or whose name
    breaks the label rule (`_label_fits`), is a ValueError.
    """

    def __init__(self, entries: Optional[list[LibraryFn]] = None):
        self.entries: list[LibraryFn] = []
        self._by_name: dict[str, LibraryFn] = {}
        self.bodies: dict[str, Callable] = {}
        for fn in as_tuple(() if entries is None else entries, "an iterable of LibraryFns"):
            self._append(fn)

    @staticmethod
    def initial() -> "Library":
        return Library([LibraryFn("succ", 1, None)])

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def fn(self, name: str) -> LibraryFn:
        fn = self._by_name.get(name)
        if fn is None:
            raise MalformedTerm(f"unknown function {name!r}")
        return fn

    def define(self, name: str, arity: int, definition: Term) -> None:
        self._append(LibraryFn(name, arity, definition))

    def _append(self, fn: LibraryFn) -> None:
        if type(fn) is not LibraryFn or not _label_fits(fn.name):
            raise ValueError(f"{fn!r} is not a LibraryFn whose name fits the label rule")
        if fn.name in self._by_name:
            raise ValueError(f"function {fn.name!r} already defined")
        if type(fn.arity) is not int or fn.arity < 0:
            raise MalformedTerm(f"{fn.name!r} has arity {fn.arity!r}, not an int >= 0")
        if fn.definition is None:
            builtin = _BUILTINS.get(fn.name)
            if builtin is None or builtin[0] != fn.arity:
                raise MalformedTerm(f"no builtin {fn.name!r} of arity {fn.arity}")
        else:
            self.bodies[fn.name] = _compile(fn.definition, fn.arity, self._by_name)
        self._by_name[fn.name] = fn
        self.entries.append(fn)


class _Evaluator:
    """Caps and memos for evaluating compiled terms: a value cap, an
    iteration cap, a per-fn memo and an iteration orbit memo.  Library
    bodies and `eval` are compiled, and so checked, by `_compile`; the
    enumerator's candidates are built to fit and never compiled.

    `apply` and `iterate` evaluate one row; a library entry's body runs
    only when the memo misses.  `apply_rows` and `iterate_rows` give a
    whole value vector at once: they read memo and orbit hits inline and
    fall back to the one-row calls otherwise, so they return what those
    calls would, row by row, or raise what they would raise first.  Given
    a target vector, they run the rows in order only up to the first whose
    value differs from the target's, and return None there."""

    def __init__(self, library: Library, iter_cap: int, value_cap: int):
        if type(library) is not Library:
            raise ValueError(f"expected a Library, not {type(library).__name__}")
        self.library = library
        self.iter_cap = iter_cap
        self.value_cap = value_cap
        self.memo: dict[tuple[str, tuple[int, ...]], int] = {}
        self.orbits: dict[tuple[str, int, tuple[int, ...], int], list[int]] = {}

    def eval(self, term: Term, inputs: tuple[int, ...]) -> int:
        return _compile(term, len(inputs), self.library._by_name)(self, inputs)

    def apply(self, fn: LibraryFn, values: tuple[int, ...]) -> int:
        if fn.definition is None:
            result = _BUILTINS[fn.name][1](*values)
        else:
            key = (fn.name, values)
            result = self.memo.get(key)
            if result is None:
                result = self.memo[key] = self.library.bodies[fn.name](self, values)
        if result > self.value_cap:
            raise Overflow("a value exceeds the value cap")
        return result

    def apply_rows(self, fn: LibraryFn, arg_vectors: Sequence[Vector],
                   target: Optional[Vector]) -> Optional[Vector]:
        """`apply(fn, row)` for each row of `zip(*arg_vectors)`, as a vector;
        with a `target`, the target when every row's value equals it, else
        None, running the rows only up to the first that differs."""
        get, name, apply, cap = self.memo.get, fn.name, self.apply, self.value_cap
        # a miss (every builtin row), or a hit above the cap (which must
        # raise), goes through `apply`
        if target is not None:
            for values, want in zip(zip(*arg_vectors), target):
                if (result := get((name, values))) is None or result > cap:
                    result = apply(fn, values)
                if result != want:
                    return None
            return target
        if fn.definition is None:
            out = tuple(map(_BUILTINS[name][1], *arg_vectors))
            if max(out) > cap:
                raise Overflow("a value exceeds the value cap")
            return out
        return tuple([result if (result := get((name, values))) is not None and result <= cap
                      else apply(fn, values) for values in zip(*arg_vectors)])

    def iterate(self, fn: LibraryFn, slot: int, fillers: tuple[int, ...],
                count: int, value: int) -> int:
        """`value` after `count` applications of `fn` with `value` in `slot`
        and `fillers` in the other slots: the one meaning of an Iter.

        A count over the cap raises first, and a count of zero or less
        returns the seed (no steps, as in `range(count)`).  Otherwise the
        answer is read from the orbit `[seed, f(seed), f(f(seed)), ...]`
        kept per (fn, slot, fillers, seed), extended from its last value
        when `count` reaches past it.  That is exact because evaluation is
        pure.  A step that raises is not appended, so a later call raises
        again at the same step.  Steps read the apply memo but do not write
        it, since the orbit already holds them.
        """
        if count > self.iter_cap:
            raise IterCountExceeded("an iteration count exceeds the iteration cap")
        if count <= 0:
            return value
        key = (fn.name, slot, fillers, value)
        orbit = self.orbits.get(key)
        if orbit is None:
            orbit = self.orbits[key] = [value]
        elif count < len(orbit):
            return orbit[count]
        head, tail = fillers[:slot], fillers[slot:]
        name, get, cap = fn.name, self.memo.get, self.value_cap
        body = None if fn.definition is None else self.library.bodies[name]
        builtin = _BUILTINS[name][1] if body is None else None
        value = orbit[-1]
        for _ in range(len(orbit), count + 1):
            args = head + (value,) + tail
            if body is None:
                value = builtin(*args)
            elif (value := get((name, args))) is None:
                value = body(self, args)
            if value > cap:
                raise Overflow("a value exceeds the value cap")
            orbit.append(value)
        return value

    def iterate_rows(self, fn: LibraryFn, slot: int, fillers: Sequence[tuple[int, ...]],
                     counts: Vector, seeds: Vector, target: Optional[Vector]
                     ) -> Optional[Vector]:
        """`iterate(fn, slot, f, c, s)` for each row of `zip(fillers, counts,
        seeds)`, as a vector, or with a `target` as `apply_rows` has it.  A
        count inside a kept orbit reads it; every other row (a count of zero
        or less, past the orbit or over the cap) goes through `iterate`."""
        get, name, iterate = self.orbits.get, fn.name, self.iterate
        if target is not None:
            for f, c, s, want in zip(fillers, counts, seeds, target):
                if (orbit := get((name, slot, f, s))) and 0 < c < len(orbit):
                    value = orbit[c]
                else:
                    value = iterate(fn, slot, f, c, s)
                if value != want:
                    return None
            return target
        return tuple([orbit[c] if (orbit := get((name, slot, f, s))) and 0 < c < len(orbit)
                      else iterate(fn, slot, f, c, s)
                      for f, c, s in zip(fillers, counts, seeds)])


def eval_term(term: Term, inputs: Sequence[int], library: Library,
              iter_cap: int = DEFAULT_ITER_CAP,
              value_cap: int = DEFAULT_VALUE_CAP) -> int:
    """Evaluate a term on integer inputs with int caps and a `Library` (else
    ValueError); raises MalformedTerm (before any evaluation), Overflow or
    IterCountExceeded."""
    inputs = as_tuple(inputs, "an iterable of integers")
    if any(type(v) is not int for v in inputs):
        raise ValueError("inputs must be integers")
    _check_caps(iter_cap=iter_cap, value_cap=value_cap)
    return _Evaluator(library, iter_cap, value_cap).eval(term, inputs)


@record
class FunctionExample:
    label: str
    inputs: tuple[int, ...]
    output: int


def _sections(library: Library, leaves: list[tuple[Term, Vector]], size: int
              ) -> list[tuple[Section, LibraryFn, list[tuple[int, ...]]]]:
    """The one-open-slot sections over `leaves` that fit an iteration of
    `size`, in (fn index, slot, filler order), each with its library entry
    and its filler values per input.  A section of an arity-k entry has
    size k, which leaves room for a count and a seed only when k <= size - 3,
    so a wide entry never builds its (leaves^(k-1) * k) sections."""
    rows = range(len(leaves[0][1]))
    out = []
    for fn in library.entries:
        if fn.arity > size - 3:
            continue
        for slot in range(fn.arity):
            for fillers in itertools.product(leaves, repeat=fn.arity - 1):
                section = Section(fn.name, slot, tuple(term for term, _ in fillers))
                values = [tuple(vector[r] for _, vector in fillers) for r in rows]
                out.append((section, fn, values))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Ordered compositions of `total` into `parts` positive integers.

    None for zero parts: a nullary call would have size 1, and size 1 holds
    only the leaves."""
    if parts <= 1:
        return [(total,)] if parts == 1 and total >= 1 else []
    out = []
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            out.append((head,) + rest)
    return out


class _Enumerator:
    """Kept terms by ascending size, each with its vector on `inputs`.

    Order inside a size: Var < Const < Calls by registration index (argument
    sizes, then arguments, first argument slowest) < Iter (sections by fn
    index, slot, fillers; then count size, count, seed), every subterm
    drawn from the kept terms.  A term is kept only when it evaluates on
    every input without overflow or an iteration count over the cap, and
    its vector differs from every earlier kept term's.

    The kept order is a subsequence of the full order and keeps the first
    term of every vector.  Evaluation is strict and compositional: a term
    with a dropped subterm either fails too or has the same vector as the
    term with the subterm's earlier equivalent in its place, which comes
    earlier in the order.  So the first kept term with a vector is the first
    term with that vector in the full order, and a search that stops at the
    first kept match returns the canonical smallest term.

    A candidate's vector comes from one row-kernel call on its subterms'
    vectors (`apply_rows` for a call, `iterate_rows` for an iteration); a
    candidate that fails on any row raises there and is dropped.

    A level is kept only so that larger sizes can draw subterms from it,
    and no size follows the last one the search reaches.  So the last size
    is searched for the target instead of built: a candidate's rows run in
    order and stop at the first that differs from the target or raises,
    and nothing is recorded in `seen` or `levels`.  That yields the same
    first match in the same candidate order: the target is in no smaller
    level (the search would have stopped there), so the first candidate of
    the last size whose vector is the target is also the first kept one,
    and skipping rows changes only which memo entries are filled, since
    evaluation is pure.
    """

    def __init__(self, evaluator: _Evaluator, inputs: Sequence[tuple[int, ...]]):
        self.evaluator = evaluator
        self.seen: set[Vector] = set()
        leaves = [(Var(i), tuple(row[i] for row in inputs)) for i in range(len(inputs[0]))]
        leaves += [(Const(c), (c,) * len(inputs)) for c in (0, 1)]
        self.levels: dict[int, list[tuple[Term, Vector]]] = {
            1: [leaf for leaf in leaves if self._keep(leaf[1], None)]}

    def _keep(self, vector: Optional[Vector], target: Optional[Vector]) -> bool:
        """Whether a candidate with this kernel result is yielded.  Without a
        target it is when its vector is new, which is then recorded; with
        one it is when the kernel matched (its result is not None)."""
        if target is not None:
            return vector is not None
        if vector in self.seen:
            return False
        self.seen.add(vector)
        return True

    def grow(self, size: int, target: Optional[Vector]) -> Iterator[tuple[Term, Vector]]:
        """Yield the kept (term, vector) pairs of `size`, in order, or with a
        `target` only the candidates whose vector is the target.

        The level is built on first use from the complete smaller levels.
        A target search stores and records nothing, and its first yield is
        the first kept term with that vector when the caller has searched
        every smaller size for it.  A caller that stops a build early must
        drop the enumerator, since the vectors seen so far are already
        recorded.
        """
        if size in self.levels:
            yield from (pair for pair in self.levels[size] if target is None or pair[1] == target)
            return
        level: list[tuple[Term, Vector]] = []
        apply_rows, iterate_rows = self.evaluator.apply_rows, self.evaluator.iterate_rows
        for fn in self.evaluator.library.entries:
            for shape in _compositions(size - 1, fn.arity):
                for args in itertools.product(*(self.levels[s] for s in shape)):
                    try:
                        vector = apply_rows(fn, [v for _, v in args], target)
                    except (Overflow, IterCountExceeded):
                        continue
                    if self._keep(vector, target):
                        level.append((Call(fn.name, tuple(t for t, _ in args)), vector))
                        yield level[-1]
        iter_cap = self.evaluator.iter_cap
        for section, fn, fillers in _sections(self.evaluator.library, self.levels[1], size):
            budget = size - 1 - section_size(section)
            for count_size in range(1, budget):
                seeds = self.levels[budget - count_size]
                for count, counts in self.levels[count_size]:
                    if max(counts) > iter_cap:
                        continue  # over the cap on some input, whatever the seed
                    for seed, seed_values in seeds:
                        try:
                            vector = iterate_rows(fn, section.open_slot, fillers, counts,
                                                  seed_values, target)
                        except (Overflow, IterCountExceeded):
                            continue
                        if self._keep(vector, target):
                            level.append((Iter(section, count, seed), vector))
                            yield level[-1]
        if target is None:
            self.levels[size] = level

    def terms_of(self, size: int) -> list[Term]:
        """The kept terms of `size`, building every level below it first."""
        for s in range(2, size + 1):
            for _ in self.grow(s, None):
                pass
        return [term for term, _ in self.levels[size]]


def _check_caps(**caps: int) -> None:
    """ValueError unless every cap is an `int` (a bool is not)."""
    for name, cap in caps.items():
        if type(cap) is not int:
            raise ValueError(f"{name} must be an int, not {cap!r}")


def _check_examples(examples: Sequence[FunctionExample]) -> None:
    """`synthesize`'s example rule, which `learn_all` checks for every set first."""
    if type(examples) not in (list, tuple) or any(
            type(ex) is not FunctionExample for ex in examples):
        raise ValueError("examples must be a list or tuple of FunctionExamples")
    if not examples:
        raise ArityMismatch("need at least one example")
    arity = len(examples[0].inputs)
    if any(len(ex.inputs) != arity for ex in examples):
        raise ArityMismatch("inconsistent example arity")
    if any(type(v) is not int for ex in examples for v in (*ex.inputs, ex.output)):
        raise ValueError("example inputs and outputs must be integers")


def synthesize(examples: Sequence[FunctionExample], library: Library,
               size_cap: int = DEFAULT_SIZE_CAP,
               iter_cap: int = DEFAULT_ITER_CAP,
               value_cap: int = DEFAULT_VALUE_CAP) -> Optional[Term]:
    """Smallest term consistent with every example, or None if unlearnable.

    Overflow and iteration-cap breaches count as inconsistency, not errors.
    The search stops at the first kept term whose vector equals the outputs.
    Examples that are not a list or tuple of `FunctionExample`s, a library
    that is no `Library`, or an input, output or cap that is not an `int` (a
    float, a bool, a string), are a ValueError; `size_cap` < 1 finds nothing.
    """
    _check_caps(size_cap=size_cap, iter_cap=iter_cap, value_cap=value_cap)
    _check_examples(examples)
    target = tuple(ex.output for ex in examples)
    enum = _Enumerator(_Evaluator(library, iter_cap, value_cap),
                       [ex.inputs for ex in examples])
    for size in range(1, size_cap + 1):
        for term, vector in enum.grow(size, target if size == size_cap else None):
            if vector == target:
                return term
    return None


def _label_fits(label) -> bool:
    """The label rule: a `str` that a library line holds unquoted and reads
    back as itself, so no whitespace, no `(` or `)` and no leading `"`."""
    return (type(label) is str and label.split() == [label] and "(" not in label
            and ")" not in label and not label.startswith('"'))


def learn_all(example_sets: Sequence[tuple[str, Sequence[FunctionExample]]],
              size_cap: int = DEFAULT_SIZE_CAP,
              iter_cap: int = DEFAULT_ITER_CAP,
              value_cap: int = DEFAULT_VALUE_CAP) -> tuple[Library, list[str]]:
    """Learn every label it can, in repeated passes over the input order.

    Each success is appended to the library immediately, so later labels in
    the same pass can already build on it.  A label is only re-attempted
    after the library has grown (the search is deterministic, so an
    unchanged library would repeat the same failure).  Input that is not a
    list or tuple of (label, examples) pairs, a label that breaks the label
    rule (`_label_fits`), is given twice or is already known, or a cap that
    is not an `int` is a ValueError, and a set that `synthesize` would
    refuse (`_check_examples`) raises as it would, all before any search.
    """
    _check_caps(size_cap=size_cap, iter_cap=iter_cap, value_cap=value_cap)
    if type(example_sets) not in (list, tuple) or not all(
            type(item) in (list, tuple) and len(item) == 2 for item in example_sets):
        raise ValueError("example sets must be a list or tuple of (label, examples) pairs")
    library = Library.initial()
    labels = [label for label, _ in example_sets]
    for i, (label, examples) in enumerate(example_sets):
        if not _label_fits(label):
            raise ValueError(f"label {label!r} cannot name a library entry")
        if label in labels[:i] or label in library:
            raise ValueError(f"function {label!r} already defined")
        _check_examples(examples)
    sets = dict(example_sets)
    unsolved = list(labels)
    attempted_at: dict[str, int] = {}
    progress = True
    while progress and unsolved:
        progress = False
        still: list[str] = []
        for label in unsolved:
            if attempted_at.get(label) == len(library):
                still.append(label)
                continue
            attempted_at[label] = len(library)
            term = synthesize(sets[label], library, size_cap, iter_cap, value_cap)
            if term is None:
                still.append(label)
            else:
                library.define(label, len(sets[label][0].inputs), term)
                progress = True
        unsolved = still
    return library, unsolved


# ----------------------------------------------------------------------
# external text formats

def parse_examples_text(text: str) -> list[tuple[str, list[FunctionExample]]]:
    """`label arity in1 .. inN out` per line; returns sets in input order.

    A library line writes a label unquoted, so a label holds no `(` or `)`,
    does not start with `"` (`_label_fits`) and names no builtin; any other
    label, or a `text` that is not a str, is a ValueError."""
    if not isinstance(text, str):
        raise ValueError(f"expected the examples as a str, not {type(text).__name__}")
    sets: dict[str, list[FunctionExample]] = {}
    order: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 'label arity in... out'")
        label = parts[0]
        if not _label_fits(label) or label in _BUILTINS:
            raise ValueError(f"line {lineno}: label {label!r} cannot name a library entry")
        try:
            arity = int(parts[1])
            numbers = [int(p) for p in parts[2:]]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if len(numbers) != arity + 1:
            raise ValueError(f"line {lineno}: arity {arity} needs {arity + 1} numbers")
        example = FunctionExample(label, tuple(numbers[:-1]), numbers[-1])
        if label not in sets:
            sets[label] = []
            order.append(label)
        if sets[label] and len(sets[label][0].inputs) != arity:
            raise ArityMismatch(f"line {lineno}: arity mismatch for {label!r}")
        sets[label].append(example)
    return [(label, sets[label]) for label in order]


def term_to_sexpr(term: Term) -> str:
    if isinstance(term, Var):
        return f"(var {term.index})"
    if isinstance(term, Const):
        return f"(const {term.value})"
    if isinstance(term, Call):
        inner = " ".join(term_to_sexpr(a) for a in term.args)
        return f"(call {term.fn} {inner})" if inner else f"(call {term.fn})"
    if isinstance(term, Iter):
        sec = term.section
        fillers = "".join(" " + term_to_sexpr(f) for f in sec.fillers)
        return (f"(iter (sec {sec.fn} {sec.open_slot}{fillers}) "
                f"{term_to_sexpr(term.count)} {term_to_sexpr(term.seed)})")
    raise MalformedTerm(f"unknown term {term!r}")


def library_to_lines(library: Library) -> list[str]:
    """One s-expression per entry, already in dependency order."""
    if type(library) is not Library:
        raise ValueError(f"expected a Library, not {type(library).__name__}")
    lines = []
    for fn in library.entries:
        if fn.definition is None:
            lines.append(f"(builtin {fn.name} {fn.arity})")
        else:
            lines.append(f"(def {fn.name} {fn.arity} {term_to_sexpr(fn.definition)})")
    return lines

