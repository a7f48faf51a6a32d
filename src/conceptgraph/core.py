"""Concept-graph data model: concepts, expansion, weights, valence, emotions.

A graph holds an append-only list of concepts over a fixed alphabet, and a
concept's id is its position in that list.  Most concepts denote a token
sequence (their "expansion"); associations, affect primitives and markers
are relational nodes that never expand.  Templates carry holes and only
expand through an Apply that fills them.

A description, the compressed form of one experience, is a plain tuple of
nodes: a reference is the concept id it names and a blob the non-empty
tuple of alphabet tokens it spells.  `node_tokens` holds the one rule for
a node, which `reconstruct`, `mdl`, `inducer` and the graph loader apply.
"""

from __future__ import annotations

import sys
from collections import deque
from itertools import chain
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    DanglingReference,
    InvalidCount,
    InvalidDescription,
    MalformedTemplate,
    NonExpandingConcept,
    ReconstructionMismatch,
    TooLarge,
    UnknownConcept,
    UnknownToken,
    WrongKind,
)
from .records import record

Token = str

Node = Union[int, tuple[Token, ...]]
"""A reference is its concept id, a blob its non-empty token tuple; a tuple
never equals an int, so nodes match by plain equality."""

Description = tuple[Node, ...]
"""One experience as a sequence of nodes: the unit that refinement chains,
ingest reports and graph files hold."""

PLEASURE = 1
PAIN = -1

VALENCE_DECAY = 0.5  # `propagate_valence`'s factor per hop (nothing that learns reads it)
VALENCE_HOP_CAP = 6  # and its hop cap

# Longest expansion of one concept, in tokens (`_expand` checks it).  `ingest`
# refuses longer episodes, so induction, whose expansions are substrings of
# episodes, never meets the cap.
MAX_EXPANSION = 1 << 20

# The largest finite float: a weight or a float `Config` field is a number
# from 0 to it, so NaN, infinity and an int too large for a float (which the
# saver's `float()` would raise on) are all refused.
_MAX_FLOAT = sys.float_info.max


@record
class Hole:
    index: int


@record
class SlotRef:
    concept: int


Slot = Union[Hole, SlotRef]


@record
class Primitive:
    token: Token


@record
class Concat:
    children: tuple[int, ...]


@record
class Repeat:
    child: int
    count: int


@record
class Template:
    """A body of slots.  A malformed body constructs, and `holes` raises."""

    body: tuple[Slot, ...]

    @property
    def holes(self) -> int:
        """The number of distinct holes; raises unless the body is a non-empty
        tuple of slot refs and holes whose int indices run from 0 without a gap."""
        if type(self.body) is not tuple or not self.body or not all(
                type(s) is SlotRef or type(s) is Hole and type(s.index) is int for s in self.body):
            raise MalformedTemplate("template body is not a non-empty tuple of slots")
        indices = {s.index for s in self.body if isinstance(s, Hole)}
        if not indices:
            raise ArityMismatch("template needs at least 1 hole")
        if indices != set(range(len(indices))):
            raise ArityMismatch("hole indices must be contiguous from 0")
        return len(indices)


@record
class Apply:
    template: int
    fillers: tuple[int, ...]


@record
class Association:
    a: int
    b: int


@record
class AffectPrimitive:
    sign: int  # PLEASURE or PAIN


@record
class Marker:
    label: str


FOLLOWS = Marker("follows")  # the generic marker that association edges point at


Kind = Union[Primitive, Concat, Repeat, Template, Apply, Association, AffectPrimitive, Marker]

# Kinds that take part in the reference code (weights count toward the
# code denominator).  Templates are codeable (their definitions cost model
# bits, Apply bodies reference them) but cannot expand on their own.
_CODEABLE = (Primitive, Concat, Repeat, Template, Apply)
# Kinds that denote a token sequence and may appear in descriptions.
_PARSEABLE = (Primitive, Concat, Repeat, Apply)


@record
class Config:
    """Engine thresholds, frozen for a graph's life; desk-scale defaults."""

    repeat_threshold: int = 2
    decay: float = 0.9
    assoc_threshold: int = 3
    generalize_threshold: int = 3
    pool_base: int = 64

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, self):
            if self.__annotations__[name] == "int":  # the annotations are strings (PEP 563)
                # a bool or a float would save a file its loader refuses
                if type(value) is not int or value <= 0:
                    raise ValueError(f"{name} must be a positive integer")
            else:
                _check_number(value, name)
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")


class Concept:
    """One row of a graph, whose id is its position: a kind and a weight."""

    __slots__ = ("kind", "weight")

    def __init__(self, kind: Kind, weight: float):
        self.kind = kind
        self.weight = weight

    def __eq__(self, other):
        if type(other) is not Concept:
            return NotImplemented
        return (self.kind, self.weight) == (other.kind, other.weight)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        return f"Concept(kind={self.kind!r}, weight={self.weight!r})"


def _check_number(value, name: str = "weight") -> None:
    """The one number rule, for weights and the float `Config` fields: an int
    or a float (no bool) from 0 to the largest float."""
    if type(value) not in (int, float) or not 0 <= value <= _MAX_FLOAT:
        raise ValueError(f"{name} must be finite and non-negative")


class ConceptGraph:
    """Single-writer graph of concepts plus the state the inducer keeps.

    Concepts are appended, so an id is a row's position, and deduplicated
    structurally.  The circuit grows bottom-up: a concept may only reference
    older concepts, except that an Apply may name a newer template whose
    slot refs are older than the Apply (`_validate` holds the rule).  So
    references never form a cycle, and each parseable concept's expansion
    is built from its references' stored ones.  The birth rows (a primitive
    per alphabet symbol, then pleasure and pain) lead every graph: a fresh
    one makes them, and rows given to the constructor (a load) must start
    with them.  One row derivation (`_enter`) keeps the dedup table, the
    expansions (the parseable set, in id order), the row lists that
    `tick_weights` walks (the rows that decay, all but the affect
    primitives, and the codeable rows, each in id order), the code mass
    (the codeable weights, which with the codeable count make the code
    denominator) and the kind facts that induction reads, for each row the
    constructor is given and each row `add` appends; `pop_last` undoes it
    and `replace_kind` moves a row between kinds.  A rewrite goes from one
    parseable kind to another, so it never changes a row's lists.  The
    kind facts are the concat buckets, (length, position, head, tail) ->
    {concat id: its child at the position}, with the buckets a concat joined
    since `abstract_common` last took them (every bucket, in a graph just
    built), the Repeat children by count and the Association count.  The
    graph also holds the refinement store, whose chain count is the episode
    count, with the ids of its chains of two or more levels (`deep_chains`),
    the run counts and the adjacent-pair counts over the chains' level
    0 (`count_pairs`) that associations and digrams share.  `ingest`,
    `refine`, forgetting and `load` are the store's only writers, and each
    keeps `deep_chains`: a chain grown any other way is never forgotten.
    Description lengths come from `mdl`.  The config is fixed.  The follows
    marker is the concept that is `FOLLOWS`, by structure.
    """

    def __init__(self, alphabet: Sequence[Token], config: Optional[Config] = None,
                 concepts: Optional[Sequence[Concept]] = None):
        if type(alphabet) not in (str, list, tuple):  # a set's order follows the hash seed
            raise ValueError("alphabet must be a str, list or tuple of symbols")
        alphabet = tuple(alphabet)
        if len(alphabet) < 1:
            raise ValueError("alphabet must contain at least one symbol")
        if not all(isinstance(sym, str) for sym in alphabet):
            raise ValueError("alphabet symbols must be strings")
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be unique")
        if config is not None and type(config) is not Config:
            raise ValueError(f"config must be a Config, not {config!r}")
        self.alphabet: tuple[Token, ...] = alphabet
        self.alphabet_set: frozenset[Token] = frozenset(alphabet)
        self._config = config or Config()
        # the birth rows: a primitive per symbol, then pleasure and pain
        self.pleasure_id, self.pain_id = len(self.alphabet), len(self.alphabet) + 1
        birth = [*map(Primitive, self.alphabet), AffectPrimitive(PLEASURE), AffectPrimitive(PAIN)]
        if concepts is None:
            concepts = [Concept(kind, 1.0) for kind in birth]
        self.concepts: list[Concept] = list(as_tuple(concepts, "an iterable of concepts"))
        if [getattr(c, "kind", None) for c in self.concepts[:len(birth)]] != birth:
            raise ValueError("initial concepts do not match the alphabet")
        # adjacent ref pair counts over the stored level-0 descriptions
        self.assoc_counts: dict[tuple[int, int], int] = {}
        # episode id -> refinement chain (level 0 first); the ids run from 0
        self.refinement_store: dict[int, list[Description]] = {}
        # the episode ids whose chain has two or more levels: the chains that
        # forgetting can shorten (`refine`, the forgetting pop and a load keep it)
        self.deep_chains: set[int] = set()
        # run-length observations feeding number generalization: k -> child ids
        self.run_observations: dict[int, set[int]] = {}
        # the derived tables: kind -> first id, parseable id -> expansion, the
        # rows that decay and the codeable rows (the graph's own, in id order)
        # and the code mass
        self._dedup, self._expansions, self._codeable_weight = {}, {}, 0.0
        self._decaying_rows: list[Concept] = []
        self._codeable_rows: list[Concept] = []
        # the kind facts: concat buckets, the buckets joined since `abstract_common`
        # took them, count -> Repeat children, and the number of Associations
        self.concat_buckets: dict[tuple, dict[int, int]] = {}
        self.touched_buckets: set[tuple] = set()
        self.repeat_children: dict[int, set[int]] = {}
        self.association_count = 0
        for cid, concept in enumerate(self.concepts):
            self._enter(cid, concept)

    # ------------------------------------------------------------------
    # basic accessors

    def __len__(self) -> int:
        return len(self.concepts)

    @property
    def config(self) -> Config:
        """The engine thresholds, fixed for the graph's life."""
        return self._config

    @property
    def episode(self) -> int:
        """The number of episodes ingested: one refinement chain each."""
        return len(self.refinement_store)

    def count_pairs(self, desc: Description) -> list[tuple[tuple[int, int], int]]:
        """Count `desc`'s adjacent ref pairs into `assoc_counts`: each, with its new count."""
        counted: list[tuple[tuple[int, int], int]] = []
        _count_pairs_into(self.assoc_counts, desc, counted)
        return counted

    def chain_pair_counts(self) -> dict[tuple[int, int], int]:
        """The adjacent ref pair counts over the stored level-0 descriptions:
        `assoc_counts` as `ingest` keeps it, and as a load derives it."""
        counts: dict[tuple[int, int], int] = {}
        for chain in self.refinement_store.values():
            _count_pairs_into(counts, chain[0])
        return counts

    def concept(self, cid: int) -> Concept:
        if type(cid) is not int or not 0 <= cid < len(self.concepts):  # True is no id
            raise UnknownConcept(f"no concept {cid!r}")
        return self.concepts[cid]

    def codeable_count(self) -> int:
        return len(self._codeable_rows)

    def codeable_weight(self) -> float:
        return self._codeable_weight

    def parseable_ids(self) -> list[int]:
        """The parseable ids in id order: the keys of the expansion table."""
        return list(self._expansions)

    def expansion_table(self) -> dict[int, tuple[Token, ...]]:
        """The expansion table itself, parseable id -> expansion in id order;
        callers only read it."""
        return self._expansions

    def check_tokens(self, tokens: Sequence[Token]) -> None:
        """Raise `UnknownToken` unless every token is an alphabet symbol."""
        try:
            if self.alphabet_set.issuperset(tokens):
                return
        except TypeError:  # an unhashable token is no alphabet token
            pass
        bad = next(t for t in tokens if not isinstance(t, str) or t not in self.alphabet_set)
        raise UnknownToken(f"token {bad!r} not in alphabet")

    def find(self, kind: Kind) -> Optional[int]:
        """Id of a structurally identical concept, if one exists."""
        return self._dedup.get(kind)

    @property
    def follows_marker_id(self) -> Optional[int]:
        """Id of the `FOLLOWS` marker, or None while the graph has none."""
        return self._dedup.get(FOLLOWS)

    # ------------------------------------------------------------------
    # construction

    def _validate(self, kind: Kind, cid: int) -> None:
        """Raise a `GraphError` unless `kind` may be concept `cid`.

        The one growth rule, for `add`, `replace_kind` and the constructor: every
        reference names a concept older than `cid`, and a reference that
        must expand names a parseable concept.  The one exception is an
        Apply's template, which may be any existing template (an older
        concat is rewritten as an application of a new template), as long
        as the template's slot refs are older than `cid`; the template's
        other checks run at its own id.  So no concept reaches itself, and
        expansions can be built in id order.  Each field has the type a graph
        file writes (an exact int, a string or a tuple), so what passes saves
        a file that loads; a non-kind or an unhashable field is `WrongKind`.
        """
        try:
            hash(kind)
        except TypeError:
            raise WrongKind(f"{kind!r} has an unhashable field") from None
        expands = True  # whether the references below must expand
        if isinstance(kind, Apply):
            tid = kind.template
            if type(tid) is not int or not 0 <= tid < len(self.concepts):
                raise DanglingReference(f"reference to missing concept {tid}")
            tpl = self.concepts[tid].kind
            if not isinstance(tpl, Template):
                raise ArityMismatch(f"concept {tid} is not a template")
            if type(kind.fillers) is not tuple or len(kind.fillers) != tpl.holes:
                raise ArityMismatch(
                    f"template {tid} has {tpl.holes} holes, got fillers {kind.fillers!r}")
            refs = kind.fillers
            if tid > cid:  # the template's own checks run at its id; its slot refs must be older
                refs = chain(refs, (s.concept for s in tpl.body if isinstance(s, SlotRef)))
        elif isinstance(kind, Concat):
            if type(kind.children) is not tuple or len(kind.children) < 2:
                raise ArityMismatch("concat needs a tuple of at least 2 children")
            refs = kind.children
        elif isinstance(kind, Template):
            kind.holes  # raises for a malformed body
            refs = [s.concept for s in kind.body if isinstance(s, SlotRef)]
        elif isinstance(kind, Repeat):
            if type(kind.count) is not int or kind.count < 2:
                raise InvalidCount("repeat count must be an int >= 2")
            refs = (kind.child,)
        elif isinstance(kind, Association):
            refs, expands = (kind.a, kind.b), False
        elif isinstance(kind, Primitive):
            if kind.token not in self.alphabet:
                raise DanglingReference(f"token {kind.token!r} not in alphabet")
            return
        elif isinstance(kind, AffectPrimitive):
            if type(kind.sign) is not int or kind.sign not in (PLEASURE, PAIN):
                raise WrongKind("affect sign must be +1 or -1")
            return
        elif isinstance(kind, Marker):
            if type(kind.label) is not str:
                raise WrongKind("marker label must be a string")
            return
        else:
            raise WrongKind(f"unknown kind {kind!r}")
        stored = self._expansions  # held for every parseable concept older than `cid`
        for ref in refs:
            if type(ref) is not int or not 0 <= ref < cid:
                raise DanglingReference(f"concept {cid} references {ref}, which is not older")
            if expands and ref not in stored:
                raise NonExpandingConcept(f"concept {cid} references {ref}, which does not expand")

    def _expand(self, kind: Kind) -> tuple[Token, ...]:
        """Expansion of a validated parseable kind, one level deep: its
        references' expansions are already stored; `TooLarge` past the cap."""
        stored = self._expansions
        if isinstance(kind, Apply):
            fillers = kind.fillers
            parts = [stored[fillers[s.index] if isinstance(s, Hole) else s.concept]
                     for s in self.concepts[kind.template].kind.body]
        elif isinstance(kind, Concat):
            parts = [stored[child] for child in kind.children]
        elif isinstance(kind, Repeat):
            child = stored[kind.child]
            if len(child) * kind.count > MAX_EXPANSION:
                raise TooLarge(f"expansion exceeds {MAX_EXPANSION} tokens")
            return child * kind.count
        else:
            return (kind.token,)
        if sum(map(len, parts)) > MAX_EXPANSION:
            raise TooLarge(f"expansion exceeds {MAX_EXPANSION} tokens")
        return tuple(chain.from_iterable(parts))

    def _enter(self, cid: int, concept: Concept) -> None:
        """The one row derivation: check the row at `cid` (else raise before any
        table changes) and enter it in the dedup table, where a repeated kind
        keeps its first id, the expansion table, the kind facts, the row lists
        and the code mass."""
        if type(concept) is not Concept:
            raise ValueError(f"row {cid} is not a Concept: {concept!r}")
        _check_number(concept.weight)
        kind = concept.kind
        self._validate(kind, cid)
        if isinstance(kind, _PARSEABLE):
            self._expansions[cid] = self._expand(kind)
        self._dedup.setdefault(kind, cid)
        self._enter_kind(cid, kind)
        if not isinstance(kind, AffectPrimitive):  # an affect weight is unused and never decays
            self._decaying_rows.append(concept)
        if isinstance(kind, _CODEABLE):
            self._codeable_rows.append(concept)
            self._codeable_weight += concept.weight

    def _enter_kind(self, cid: int, kind: Kind) -> None:
        """Enter row `cid`'s kind in the kind facts."""
        if isinstance(kind, Concat):
            for key, differ in _buckets_of(kind):
                self.concat_buckets.setdefault(key, {})[cid] = differ
                self.touched_buckets.add(key)
        elif isinstance(kind, Repeat):
            self.repeat_children.setdefault(kind.count, set()).add(kind.child)
        elif isinstance(kind, Association):
            self.association_count += 1

    def _leave_kind(self, cid: int, kind: Kind) -> None:
        """Take `kind`, which row `cid` no longer holds, out of the kind facts;
        the dedup table is already without the row."""
        if isinstance(kind, Concat):
            buckets = self.concat_buckets
            for key, _ in _buckets_of(kind):
                members = buckets[key]
                del members[cid]
                if not members:
                    del buckets[key]
        elif isinstance(kind, Repeat):
            if kind not in self._dedup:  # no twin row still holds the kind
                children = self.repeat_children[kind.count]
                children.remove(kind.child)
                if not children:
                    del self.repeat_children[kind.count]
        elif isinstance(kind, Association):
            self.association_count -= 1

    def add(self, kind: Kind) -> int:
        """Append a concept, or return the existing id of a structural twin."""
        try:
            existing = self._dedup.get(kind)
        except TypeError:  # an unhashable field, which `_validate` refuses
            existing = None
        if existing is not None:
            return existing
        cid = len(self.concepts)
        self._enter(cid, concept := Concept(kind, 1.0))
        self.concepts.append(concept)
        return cid

    def pop_last(self) -> None:
        """Remove the last row, the exact inverse of `_enter` (`import_teach`'s rollback)."""
        concept = self.concepts.pop()
        cid = len(self.concepts)
        if self._dedup.get(concept.kind) == cid:  # a loaded file may repeat a kind
            del self._dedup[concept.kind]
        self._leave_kind(cid, concept.kind)
        self._expansions.pop(cid, None)
        if not isinstance(concept.kind, AffectPrimitive):
            self._decaying_rows.pop()
        if isinstance(concept.kind, _CODEABLE):
            self._codeable_rows.pop()
            self._codeable_weight = self._code_mass()

    def replace_kind(self, cid: int, kind: Kind) -> None:
        """Structural rewrite (Concat -> Apply abstraction).

        `kind` must be valid at `cid` under `_validate`'s rule, so it may
        name a newer template whose slot refs are older than `cid`, and its
        expansion must equal the stored one (else `ReconstructionMismatch`).
        On any error the graph is left as it was; id and weight are kept.
        The dedup table and the kind facts stay the ones `_enter` derives,
        where kinds repeat too.
        """
        concept = self.concept(cid)
        old = concept.kind
        if type(old) is type(kind) and old == kind:
            return
        before = self.expansion(cid)
        self._validate(kind, cid)
        if not isinstance(kind, _PARSEABLE) or self._expand(kind) != before:
            raise ReconstructionMismatch(f"rewrite of concept {cid} changed its expansion")
        concept.kind = kind
        dedup, rows = self._dedup, self.concepts
        if dedup.get(old) == cid:
            del dedup[old]
            if len(dedup) + 1 < len(rows):  # some kind repeats: a newer twin takes `old` over
                twin = next((i for i in range(cid + 1, len(rows)) if rows[i].kind == old), None)
                if twin is not None:
                    dedup[old] = twin
        if dedup.setdefault(kind, cid) > cid:  # `kind` has a newer twin: `cid` comes first
            dedup[kind] = cid
        self._leave_kind(cid, old)
        self._enter_kind(cid, kind)

    # ------------------------------------------------------------------
    # expansion

    def expansion(self, cid: int) -> tuple[Token, ...]:
        """Token sequence denoted by `cid`; raises for relational concepts."""
        tokens = self._expansions.get(cid) if type(cid) is int else None  # 1.0 finds 1
        if tokens is None:
            kind = self.concept(cid).kind  # raises UnknownConcept
            raise NonExpandingConcept(f"concept {cid} ({type(kind).__name__}) does not expand")
        return tokens

    # ------------------------------------------------------------------
    # weight dynamics

    def _code_mass(self) -> float:
        """The codeable weights summed one by one over the codeable rows, in
        id order, as `_enter` adds them up: the code mass, bit for bit.  A
        running total that subtracted weights could lose small ones to
        rounding, and a reference would then cost less than 0 bits and a
        reload would code differently.  The sum is a plain loop: `sum()` is
        compensated from CPython 3.12, so its bits would differ by version."""
        total = 0.0
        for concept in self._codeable_rows:
            total += concept.weight
        return total

    def set_weight(self, cid: int, weight: float) -> None:
        """Set one weight directly, keeping the code mass in sync."""
        _check_number(weight)
        concept = self.concept(cid)
        concept.weight = weight
        if isinstance(concept.kind, _CODEABLE):
            self._codeable_weight = self._code_mass()

    def tick_weights(self, used: Iterable[int]) -> None:
        """Decay every weight geometrically, then reward the used concepts.

        Affect primitives are exempt from decay and reward (their weight is
        unused).  Every used id is checked before any weight changes (ids
        that are not iterable are a ValueError), and a repeated id is
        rewarded once.  Three tight passes over the graph's row lists
        follow: each decaying row's weight times `decay`, then `+ 1.0`
        on each used row that decays, then the code mass as `_code_mass`
        sums it.  A row's new weight is (w * decay) + 1.0 either way, so the
        bits are those of one pass that decays and rewards row by row.
        """
        rewarded = {cid: self.concept(cid)  # raises UnknownConcept
                    for cid in as_tuple(used, "an iterable of concept ids")}
        gamma = self.config.decay
        for concept in self._decaying_rows:
            concept.weight *= gamma
        for concept in rewarded.values():
            if not isinstance(concept.kind, AffectPrimitive):
                concept.weight += 1.0
        self._codeable_weight = self._code_mass()

    # ------------------------------------------------------------------
    # valence

    def reference_edges(self, cid: int) -> list[int]:
        """Concepts directly referenced by `cid` (the affinity-graph edges)."""
        return list(kind_references(self.concept(cid).kind))

    def propagate_valence(self) -> dict[int, float]:
        """Signed proximity to pleasure/pain over the undirected reference graph.

        valence(c) = clamp(alpha^d+ - alpha^d-, -1, +1), alpha = `VALENCE_DECAY`;
        unreachable or beyond-cap (`VALENCE_HOP_CAP`) distances contribute 0.
        """
        adjacency = {cid: set(self.reference_edges(cid)) for cid in range(len(self.concepts))}
        for cid in range(len(self.concepts)):
            for ref in self.reference_edges(cid):
                adjacency[ref].add(cid)

        def distances(source: int) -> dict[int, int]:
            dist = {source: 0}
            frontier = deque([source])
            while frontier:
                node = frontier.popleft()
                d = dist[node]
                if d >= VALENCE_HOP_CAP:
                    continue
                for other in adjacency[node]:
                    if other not in dist:
                        dist[other] = d + 1
                        frontier.append(other)
            return dist

        d_plus = distances(self.pleasure_id)
        d_minus = distances(self.pain_id)
        valences: dict[int, float] = {}
        for cid in adjacency:
            pos = VALENCE_DECAY ** d_plus[cid] if cid in d_plus else 0.0
            neg = VALENCE_DECAY ** d_minus[cid] if cid in d_minus else 0.0
            valences[cid] = max(-1.0, min(1.0, pos - neg))
        valences[self.pleasure_id] = 1.0
        valences[self.pain_id] = -1.0
        return valences


def kind_references(kind: Kind) -> Sequence[int]:
    """The ids a kind references directly, in order: the one edge rule, which
    `reference_edges` applies after checking the id.  A concat's children come
    back as its own tuple, so a walk over many rows copies nothing."""
    if isinstance(kind, Concat):
        return kind.children
    if isinstance(kind, Repeat):
        return (kind.child,)
    if isinstance(kind, Template):
        return [s.concept for s in kind.body if isinstance(s, SlotRef)]
    if isinstance(kind, Apply):
        return (kind.template, *kind.fillers)
    if isinstance(kind, Association):
        return (kind.a, kind.b)
    return ()


def _count_pairs_into(counts: dict, desc: Description, counted: Optional[list] = None) -> None:
    """Count `desc`'s adjacent ref pairs into `counts`, listing each with its
    new count in `counted` if one is given."""
    for pair in zip(desc, desc[1:]):
        if type(pair[0]) is int and type(pair[1]) is int:
            counts[pair] = n = counts.get(pair, 0) + 1
            if counted is not None:
                counted.append((pair, n))


def _buckets_of(kind: Concat):
    """(bucket key, differing child) for each position of a concat."""
    ch = kind.children
    for i in range(len(ch)):
        yield (len(ch), i, ch[:i], ch[i + 1:]), ch[i]


def node_tokens(graph: ConceptGraph, node) -> tuple[Token, ...]:
    """The tokens a node spells, by the one node rule: a ref to a parseable
    concept or a non-empty tuple of alphabet tokens, else `InvalidDescription`."""
    if type(node) is int and node in graph._expansions:  # held for each parseable concept
        return graph._expansions[node]
    try:  # an unhashable token is no alphabet token
        if type(node) is tuple and node and graph.alphabet_set.issuperset(node):
            return node
    except TypeError:
        pass
    raise InvalidDescription(f"node {node!r} is neither a ref to a parseable "
                             "concept nor a non-empty blob of alphabet tokens")


def as_tuple(values, what: str) -> tuple:
    """`values` as a tuple, or a ValueError if they are not iterable (`what`)."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"expected {what}, not {type(values).__name__}") from None


def reconstruct(graph: ConceptGraph, desc: Description) -> tuple[Token, ...]:
    """Exact inverse of parse: concatenated expansions and blob payloads."""
    out: list[Token] = []
    for node in as_tuple(desc, "an iterable of nodes"):
        out.extend(node_tokens(graph, node))
    return tuple(out)


# ----------------------------------------------------------------------
# emotion templates

@record
class SlotConstraint:
    """One pattern slot: exact id, label, valence sign, or wildcard."""

    kind: str  # "exact" | "label" | "valence" | "any"
    concept: Optional[int] = None
    label: Optional[str] = None
    sign: Optional[int] = None


@record
class EmotionTemplate:
    emotion: str
    pattern: tuple[SlotConstraint, ...]
    min_repeats: int = 1


def default_emotion_templates() -> list[EmotionTemplate]:
    """The two built-in templates; users supply more as data."""
    anger = EmotionTemplate(
        emotion="anger",
        pattern=(
            SlotConstraint(kind="label", label="other_action"),
            SlotConstraint(kind="valence", sign=-1),
        ),
    )
    frustration = EmotionTemplate(
        emotion="frustration",
        pattern=(
            SlotConstraint(kind="label", label="attempt"),
            SlotConstraint(kind="valence", sign=-1),
        ),
        min_repeats=3,
    )
    return [anger, frustration]


def _check_template(template: EmotionTemplate) -> None:
    """Raise `MalformedTemplate` unless the pattern is a non-empty tuple of
    constraints of known kinds, each with the field its kind reads (an int id,
    a label, or a sign of exactly +1 or -1), and the repeat count an int >= 1."""
    if type(template) is not EmotionTemplate:
        raise MalformedTemplate(f"{template!r} is not an emotion template")
    emotion, pattern, repeats = template
    if type(pattern) is not tuple or not pattern or type(repeats) is not int or repeats < 1:
        raise MalformedTemplate(f"emotion {emotion!r}: malformed pattern or repeat count")
    for constraint in pattern:
        kind = constraint.kind if type(constraint) is SlotConstraint else None
        if kind == "exact":
            ok = type(constraint.concept) is int
        elif kind == "label":
            ok = isinstance(constraint.label, str)
        elif kind == "valence":
            ok = type(constraint.sign) is int and constraint.sign in (PLEASURE, PAIN)
        else:
            ok = kind == "any"
        if not ok:
            raise MalformedTemplate(f"emotion {emotion!r}: malformed constraint {constraint!r}")


def _constraint_matches(constraint: SlotConstraint, node, valences,
                        labels: dict[int, str]) -> bool:
    """Whether a checked constraint matches a node."""
    if constraint.kind == "any":
        return True
    if type(node) is not int:  # blob: only wildcards match
        return False
    if constraint.kind == "exact":
        return node == constraint.concept
    if constraint.kind == "label":
        return labels.get(node) == constraint.label
    v = valences.get(node, 0.0)  # a valence constraint
    return v > 0 if constraint.sign > 0 else v < 0


def match_emotion(desc: Description, templates: Sequence[EmotionTemplate],
                  valences: dict[int, float],
                  labels: Optional[dict[int, str]] = None) -> list[tuple[str, tuple[int, int]]]:
    """Match emotion templates against top-level description spans.

    Returns (emotion, (start, end)) for every maximal contiguous span where
    the template pattern repeats at least `min_repeats` times, scanning left
    to right.  Spans are reported in ascending start order.  Each template
    is checked before it is matched (`MalformedTemplate`).
    """
    desc = as_tuple(desc, "an iterable of nodes")
    templates = as_tuple(templates, "an iterable of emotion templates")
    labels = labels or {}
    results: list[tuple[str, tuple[int, int]]] = []
    for template in templates:
        _check_template(template)
        pattern = template.pattern
        width = len(pattern)
        i = 0
        while i + width <= len(desc):
            repeats = 0
            j = i
            while j + width <= len(desc) and all(
                    _constraint_matches(pattern[k], desc[j + k], valences, labels)
                    for k in range(width)):
                repeats += 1
                j += width
            if repeats >= template.min_repeats:
                results.append((template.emotion, (i, i + repeats * width)))
                i = i + repeats * width
            else:
                i += 1
    results.sort(key=lambda item: (item[1][0], item[1][1], item[0]))
    return results
