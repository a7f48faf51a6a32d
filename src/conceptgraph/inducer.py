"""The induction loop: parse token episodes, grow concepts, keep refinements.

Parsing is a left-to-right beam search over concept references and raw
blobs, minimizing description bits.  A beam state is a plain tuple whose
parent chain spells the partial description; a frontier bucket larger
than the beam is sorted in place by cost and cut, and a node signature is
built only to break an exact cost tie at the cut.  Candidate lookups walk
a token trie of the candidates' expansions; `ingest` keeps that trie
across episodes while the candidates and their expansions are unchanged
(the circuit changes only when a node is formed), refreshing only the
reference bits.  Induction scans candidate steps,
digram concats then runs, takes the first that pays (one gate: the
episode's description bits strictly drop) and scans again.  The gate does
not charge the new definition's model bits (`mdl.model_dl`): creation is
paid for by the data side, which lets structure bootstrap from short
experiences.  The gate decides from counts: a step's bit change follows in
closed form from the occurrences it replaces, the node count and the code
denominator, and only a change within float rounding of the margin is
recomputed from whole descriptions.  The episode lives in a pair index
(Re-Pair, Larsson & Moffat 1999; digram counts kept as in Sequitur,
Nevill-Manning & Witten 1997), so the scan after a step re-reads only the
pairs the step changed; it reads the graph's association counts as its
one pair table.  Every step is applied through the index, and the
recompute reads the episode after a step from it without applying it.
Number templates, their applications to runs and the
common-component abstractions are forced by generalization thresholds
instead: their payoff is expressive, not an immediate bit gain.

An episode adds a handful of concepts, so what induction reads of the
concepts' kinds is not rescanned: the concat buckets that agree everywhere
but one position, the Repeat children by count and the association count
are kind facts that the graph derives with each row it takes in
(`ConceptGraph`).  The one thing kept beside a graph is `ingest`'s level-0
parse context (`_KEPT`).

Descriptions are the plain tuples of nodes that `core` defines (a
reference is the concept id it names, a blob the tuple of raw tokens it
spells); `reconstruct`, their inverse of `parse`, lives there too.
"""

from __future__ import annotations

import heapq
import math
import weakref
from bisect import bisect_left, bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Collection, Optional, Sequence

from . import mdl
from .core import (
    FOLLOWS,
    MAX_EXPANSION,
    Apply,
    Association,
    Concat,
    ConceptGraph,
    Config,
    Description,
    Hole,
    Node,
    Repeat,
    SlotRef,
    Template,
    Token,
    reconstruct,
)
from .errors import TooLarge, UnknownEpisode
from .mdl import description_dl, gamma_len, raw_dl
from .records import record
from .segmenter import Segment


MAX_BUDGET_LEVEL = 8  # parse time about doubles per level: a long refine chain stops here


@record
class Budget:
    """Search effort: beam width and candidate pool double per level, up to
    `MAX_BUDGET_LEVEL`; a higher level gets that level's budget."""

    beam: int
    pool: int

    def __post_init__(self) -> None:
        # a beam of at least 1 keeps a state at every position `parse` reaches
        if not (type(self.beam) is int and type(self.pool) is int
                and self.beam >= 1 and self.pool >= 0):
            raise ValueError("beam must be an integer >= 1 and pool an integer >= 0")

    @staticmethod
    def from_config(config: Config, level: int = 0) -> "Budget":
        if type(level) is not int or level < 0:
            raise ValueError("budget level must be an int >= 0")
        level = min(level, MAX_BUDGET_LEVEL)
        return Budget(beam=config.beam_base << level, pool=config.pool_base << level)


@record
class IngestReport:
    episode: int
    description: Description
    new_concepts: list[int]
    new_associations: list[tuple[int, int]]
    raw_bits: float
    described_bits: float


# ----------------------------------------------------------------------
# parsing

def _signature(state: tuple, tokens: tuple) -> tuple:
    """A state's nodes in order as (0, id) / (1, tokens) pairs: the exact-tie key."""
    parts = []
    _, _, node, parent, blob_len = state
    while parent is not None:
        parts.append((1, tokens[node:node + blob_len]) if blob_len else (0, node))
        _, _, node, parent, blob_len = parent
    parts.reverse()
    return tuple(parts)


_COST = itemgetter(0)


def _select_beam(bucket: list[tuple], k: int, tokens: tuple) -> list[tuple]:
    """The `k` cheapest states; exact cost ties at the cut go by signature.

    Equals sorting the whole bucket by (cost, signature) and keeping the
    first `k`: the bucket is sorted in place by cost alone, and signatures
    are built only for the tie group that straddles the cut.  The kept set
    does not depend on the bucket's order, since no two states in a bucket
    share a signature (a blob successor extends a trailing blob instead of
    opening a second one), so sorting the caller's list is safe.  Callers
    re-select or take the one state of k = 1, so the order of the returned
    states does not matter.
    """
    if len(bucket) <= k:
        return bucket
    bucket.sort(key=_COST)
    cut = bucket[k - 1][0]
    if bucket[k][0] != cut:
        return bucket[:k]
    lo = bisect_left(bucket, cut, 0, k - 1, key=_COST)
    hi = bisect_right(bucket, cut, k, key=_COST)
    tied = sorted(bucket[lo:hi], key=lambda s: _signature(s, tokens))
    return bucket[:lo] + tied[:k - lo]


class _ParseContext:
    """Parse machinery for one code state: candidate entries, their trie, ref costs.

    The candidates are the top-pool concepts by weight plus the fast-path
    set, each with its mutable [id, length, reference bits] entry.  Their
    expansions are merged into a token trie whose nodes list the entries
    ending there (the same lists as `entries`), so a lookup walks only as
    far as the longest match and builds nothing but its result.  Weights
    are constant between ticks, so one context serves every parse call an
    ingest makes (segments plus blob residue).

    `refresh` moves the context to the graph's current code state.  It
    sorts the graph's parseable ids once by weight; the fast-path concepts
    are a prefix of that order, so the members are its first max(pool,
    fast-path count) ids.  The trie depends only on the member ids and their
    expansions, so it is kept when both are unchanged and only each entry's
    bits are rewritten in place; the check is a list comparison, which finds
    an unchanged member's stored expansion by identity.  `ingest` builds its
    level-0 context once per graph (the config, so the budget, is fixed),
    keeps it in `_KEPT` and refreshes it each episode:
    between episodes the members change only when a node is formed or a
    weight crosses into the pool or the fast path.  `refine` and direct
    `parse` calls build a fresh context per call.
    """

    __slots__ = ("budget", "log_d", "sigma_bits", "entries", "trie",
                 "members", "member_expansions")

    def __init__(self, graph: ConceptGraph, budget: Budget):
        self.budget = budget
        self.sigma_bits = math.log2(len(graph.alphabet))
        self.members = self.member_expansions = None  # no trie yet
        self.refresh(graph)

    def refresh(self, graph: ConceptGraph) -> None:
        """Take the graph's current candidates and reference bits, rebuilding
        the trie only if a member or a member's expansion changed."""
        concepts = graph.concepts

        def heaviest_first(cid: int) -> float:
            return -concepts[cid].weight

        # a stable sort of the ids in id order: weight ties stay in id order
        ranked = sorted(graph.parseable_ids(), key=heaviest_first)
        hot = bisect_right(ranked, -graph.config.fast_path_threshold, key=heaviest_first)
        members = sorted(ranked[:max(self.budget.pool, hot)])
        expansions = [graph.expansion(cid) for cid in members]
        if members != self.members or expansions != self.member_expansions:
            self.entries = [[cid, len(e), 0.0] for cid, e in zip(members, expansions)]
            self.trie = ({}, [])
            for entry, expansion in zip(self.entries, expansions):
                node = self.trie
                for token in expansion:
                    node = node[0].setdefault(token, ({}, []))
                node[1].append(entry)
        self.members, self.member_expansions = members, expansions
        self.log_d = log_d = mdl.escape_cost(graph)
        for entry in self.entries:
            entry[2] = log_d - math.log2(concepts[entry[0]].weight + 1.0)

    def candidates_at(self, tokens: tuple, pos: int) -> list[list]:
        """Entries of the candidates whose expansion prefixes tokens[pos:]."""
        found = []
        node = self.trie
        for i in range(pos, len(tokens)):
            node = node[0].get(tokens[i])
            if node is None:
                break
            found.extend(node[1])
        return found


# Each graph's level-0 parse context.  Weak keys keep the graph's own state
# and saved bytes free of it, and let a dropped graph free its trie; the
# context holds no reference to the graph.
_KEPT: "weakref.WeakKeyDictionary[ConceptGraph, _ParseContext]" = weakref.WeakKeyDictionary()


def parse(graph: ConceptGraph, tokens: Sequence[Token],
          budget: Optional[Budget] = None, *,
          context: Optional[_ParseContext] = None) -> Description:
    """Minimum-description-length parse of `tokens` against the graph.

    Candidates at each position are the fast-path and top-pool concepts
    (by weight) whose expansion prefixes the remainder, and a single-token
    blob.  The all-blob description is always considered.  The budget is
    the context's if one is passed.  Refs come out as concept ids, blobs
    as token tuples; exact cost ties go to the smallest (0, id) / (1,
    tokens) signature.

    The frontier holds one bucket per position 0..n of the states reaching
    it; the last holds the finals.  A state is a tuple (cost, count, node,
    parent, blob_len): a node count and a parent chain, whose `node` is a
    ref's concept id or, when blob_len > 0, the start of a trailing blob.
    Its position is its bucket's index, so it is not stored.  A bucket is
    cut to the beam (`_select_beam`) only when it holds more states than
    that, and successors go straight into the buckets of their end
    positions.  Every state has a blob successor at the next position, so
    no bucket before the last is empty when it is read.  `_signature`
    walks a parent chain only for exact cost ties and for the winner.
    """
    tokens = tuple(tokens)
    graph.check_tokens(tokens)
    n = len(tokens)
    if n == 0:
        return ()
    ctx = context or _ParseContext(graph, budget or Budget.from_config(graph.config, 0))
    beam = ctx.budget.beam
    log_d = ctx.log_d
    sigma_bits = ctx.sigma_bits

    start = (float(gamma_len(1)), 0, None, None, 0)
    frontier = [[start]] + [[] for _ in range(n)]
    # blob cost steps, summed as `header + log_d + gamma_len(1) + sigma_bits`
    # left to right so that exact cost ties stay where they were
    open_plain = 0 + log_d + gamma_len(1) + sigma_bits
    open_pow2 = 2 + log_d + gamma_len(1) + sigma_bits
    grow_pow2 = 2 + sigma_bits

    for pos in range(n):
        bucket, frontier[pos] = frontier[pos], None  # so the states a cut drops are freed
        if len(bucket) > beam:
            bucket = _select_beam(bucket, beam, tokens)
        targets = [(cid, bits, frontier[pos + length])
                   for cid, length, bits in ctx.candidates_at(tokens, pos)]
        blob_target = frontier[pos + 1]
        for state in bucket:
            cost, count, node, parent, blob_len = state
            # gamma_len(x) - gamma_len(x - 1) is 2 at a power of two x, else 0
            header_grows = ((count + 2) & (count + 1)) == 0
            ref_base = cost + 2 if header_grows else cost
            for cid, bits, target in targets:
                target.append((ref_base + bits, count + 1, cid, state, 0))
            if blob_len:  # extend the trailing blob by one token
                grown = cost + (grow_pow2 if ((blob_len + 1) & blob_len) == 0 else sigma_bits)
                blob_target.append((grown, count, node, parent, blob_len + 1))
            else:
                opened = cost + (open_pow2 if header_grows else open_plain)
                blob_target.append((opened, count + 1, pos, state, 1))

    # the all-blob description is always a candidate
    frontier[n].append((gamma_len(2) + log_d + gamma_len(n) + n * sigma_bits, 1, 0, start, n))
    best = _select_beam(frontier[n], 1, tokens)[0]
    return tuple(payload for _, payload in _signature(best, tokens))


# ----------------------------------------------------------------------
# induction rules

GATE_MARGIN = 1e-9   # an accepted step must save more than this many bits
FALLBACK_BAND = 1e-6  # closed-form deltas this close to the margin are recomputed


def _gate_delta(graph: ConceptGraph, kind, n: int, k: int, twin: Optional[int]) -> float:
    """Change in an episode's description bits when `k` occurrences of
    `kind`'s children (out of `n` nodes) become refs to `kind`, or to its
    existing `twin`, charged at the post-add code state.

    Only the header, the code denominator D = W + C + 1 (which a new
    concept of weight 1 moves by 2) and the rewritten refs change; blobs
    and the other refs keep their per-node costs.
    """
    children = kind.children if isinstance(kind, Concat) else (kind.child,) * kind.count
    n_after = n - k * (len(children) - 1)
    weight, count = graph.codeable_weight(), graph.codeable_count()
    log_d = math.log2(weight + count + 1.0)
    if twin is None:
        log_d_after, w_new = math.log2((weight + 1.0) + (count + 1) + 1.0), 1.0
    else:
        log_d_after, w_new = log_d, graph.concept(twin).weight
    removed = sum(math.log2(graph.concept(c).weight + 1.0) for c in children)
    return (gamma_len(n_after + 1) - gamma_len(n + 1) + n_after * log_d_after - n * log_d
            + k * (removed - math.log2(w_new + 1.0)))


def _gated_add(graph: ConceptGraph, kind, index: "_PairIndex", firsts: Collection[int],
               span: int) -> tuple[bool, Optional[int]]:
    """Rewrite the `span` nodes from each of `firsts` in the episode `index`
    into a ref to `kind` (or its existing twin) iff the episode's description
    bits strictly drop, charged at the post-add code state.

    The decision is `_gate_delta`'s closed form against the margin, unless
    the delta lies within `FALLBACK_BAND` of it: then two full
    `description_dl` calls decide, on the episode as it is and as
    `index.rewritten` reads it after a speculative add, so float rounding
    cannot flip a decision.  Returns (accepted, the id the occurrences now
    name, or None); the graph and the index change only on acceptance.
    """
    twin = graph.find(kind)
    delta = _gate_delta(graph, kind, len(index), len(firsts), twin)
    if abs(delta + GATE_MARGIN) > FALLBACK_BAND:
        if not delta < -GATE_MARGIN:
            return False, None
        cid = graph.add(kind) if twin is None else twin
    else:
        before = description_dl(graph, tuple(index))
        cid = graph.add(kind) if twin is None else twin
        if not description_dl(graph, index.rewritten(firsts, span, cid)) < before - GATE_MARGIN:
            if twin is None:
                graph.pop_last()
            return False, None
    index.rewrite(firsts, span, cid)
    return True, cid


class _PairIndex:
    """An episode's nodes as a linked list with a pair index (Re-Pair).

    Nodes keep their original positions as order keys: a rewrite replaces
    an occurrence by a ref at its first position and unlinks the rest, so
    the relative order never changes.  `at` maps every adjacent ref pair to
    the positions where it starts; a rewrite updates only the pairs around
    each replaced occurrence.  Pairs of distinct concepts never overlap, so
    their position count is the greedy left-to-right count; equal pairs
    mark the runs.  A heap orders the candidate digrams (distinct pairs whose
    episode count plus stored count, `graph.assoc_counts`, reaches the
    threshold) by (-combined count, first position, pair), with stale
    entries skipped.  Iterating yields the current nodes.
    """

    __slots__ = ("node", "nxt", "prv", "size", "at",
                 "stored", "threshold", "heap", "live", "aside")

    def __init__(self, nodes: Sequence[Node], stored: dict, threshold: int):
        n = len(nodes)
        self.node = node = list(nodes)
        self.nxt = list(range(1, n + 1))
        self.prv = list(range(-1, n - 1))
        if n:
            self.nxt[-1] = -1
        self.size = n
        self.at: dict[tuple[int, int], set[int]] = {}
        for i in range(n - 1):
            a, b = node[i], node[i + 1]
            if type(a) is int and type(b) is int:
                self.at.setdefault((a, b), set()).add(i)
        self.stored, self.threshold = stored, threshold
        self.live: dict[tuple[int, int], Optional[tuple]] = {}  # pair -> its heap entry
        self.heap: list[tuple] = []
        self.aside: list[tuple] = []
        for pair in self.at:
            self._rekey(pair)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        node, nxt, i = self.node, self.nxt, 0 if self.size else -1  # the head stays linked
        while i >= 0:
            yield node[i]
            i = nxt[i]

    def _rekey(self, pair: tuple[int, int]) -> None:
        """Push the pair's current heap entry if it changed (None: not a candidate)."""
        if pair[0] == pair[1]:
            return
        where = self.at.get(pair)
        key = None
        if where:
            combined = len(where) + self.stored.get(pair, 0)
            if combined >= self.threshold:
                key = (-combined, min(where), pair)
        if key is None:
            self.live[pair] = None
        elif key != self.live.get(pair):
            self.live[pair] = key
            heapq.heappush(self.heap, key)

    def digram_pass(self):
        """Candidate digrams in order; resuming the generator means the last
        one was rejected.  Those rejected are tried again in the next pass,
        since an accepted step moves the code."""
        heap, live = self.heap, self.live
        for key in self.aside:
            if key[2] not in live:  # unchanged since it was tried
                live[key[2]] = key
                heapq.heappush(heap, key)
        self.aside = aside = []
        while heap:
            key = heapq.heappop(heap)
            pair = key[2]
            if live.get(pair) is key:
                del live[pair]
                aside.append(key)
                yield pair

    def runs(self) -> list[tuple[int, int, int]]:
        """Maximal runs of identical refs as (concept, length, start), in order."""
        starts = sorted(p for (a, b), where in self.at.items() if a == b for p in where)
        found = []
        node, nxt, prv = self.node, self.nxt, self.prv
        for p in starts:
            c = node[p]
            if prv[p] >= 0 and node[prv[p]] == c:
                continue  # inside a run
            length, q = 2, nxt[nxt[p]]
            while q >= 0 and node[q] == c:
                length, q = length + 1, nxt[q]
            found.append((c, length, p))
        return found

    def _replace(self, first: int, span: int, cid: int, touched: set) -> None:
        """Replace the `span` nodes from position `first` by a ref to `cid`."""
        node, nxt, prv, at = self.node, self.nxt, self.prv, self.at
        left = prv[first]
        ends = [first] if left < 0 else [left, first]
        last = first
        for _ in range(span - 1):
            last = nxt[last]
            ends.append(last)
        right = nxt[last]
        for p in ends:  # drop every pair touching the occurrence
            q = nxt[p]
            if q >= 0 and type(node[p]) is int and type(node[q]) is int:
                pair = (node[p], node[q])
                at[pair].discard(p)
                touched.add(pair)
        node[first] = cid
        nxt[first] = right
        if right >= 0:
            prv[right] = first
        self.size -= span - 1
        for p in (left, first):
            q = nxt[p] if p >= 0 else -1
            if q >= 0 and type(node[p]) is int and type(node[q]) is int:
                pair = (node[p], node[q])
                at.setdefault(pair, set()).add(p)
                touched.add(pair)

    def rewrite(self, firsts: Collection[int], span: int, cid: int) -> None:
        """Replace the `span` nodes from each position of `firsts` by a ref
        to `cid`, in position order (`firsts` may be a set of `at`, which
        the rewrite changes)."""
        touched: set = set()
        for first in sorted(firsts):
            self._replace(first, span, cid, touched)
        for pair in touched:
            self._rekey(pair)

    def rewritten(self, firsts: Collection[int], span: int, cid: int) -> tuple[Node, ...]:
        """The nodes `rewrite(firsts, span, cid)` would leave, without applying it."""
        starts, out = set(firsts), []
        node, nxt, i = self.node, self.nxt, 0 if self.size else -1
        while i >= 0:
            if i in starts:
                out.append(cid)
                for _ in range(span):
                    i = nxt[i]
            else:
                out.append(node[i])
                i = nxt[i]
        return tuple(out)


def _number_template_id(graph: ConceptGraph, k: int) -> Optional[int]:
    return graph.find(Template((Hole(0),) * k))


def _steps(graph: ConceptGraph, index: _PairIndex):
    """One scan's candidate steps, as (kind, first positions, span, gated):
    digram concats, then runs, as a Repeat or, once the k-fold number
    template exists, an ungated application.  A step rewrites the `span`
    nodes from each first position.  The caller stops at the first step
    taken, so runs are observed only in a scan where no digram was
    accepted."""
    for pair in index.digram_pass():
        yield Concat(pair), index.at[pair], 2, True
    runs = index.runs()
    starts: dict[tuple[int, int], list[int]] = {}
    for concept, length, start in runs:
        graph.run_observations.setdefault(length, set()).add(concept)
        starts.setdefault((concept, length), []).append(start)
    for concept, length, _ in runs:
        firsts = starts[concept, length]
        num_tpl = _number_template_id(graph, length)
        if num_tpl is None:
            yield Repeat(concept, length), firsts, length, True
        else:
            yield Apply(num_tpl, (concept,)), firsts, length, False


def induce_repeats(graph: ConceptGraph, desc: Description) -> tuple[Description, list[int]]:
    """Grow concepts from within-episode repetition and rewrite the episode.

    Take the first of `_steps` that pays (`_gated_add`; ungated steps
    always do) and scan again, until a scan takes none; then create the
    number templates whose runs span enough children.  A rejected step
    adds nothing, so the new ids are those from the old length on.  The
    episode lives in a `_PairIndex`, so a scan after a step reads the
    pairs it changed instead of the whole episode.
    """
    before = len(graph)
    index = _PairIndex(desc, graph.assoc_counts, graph.config.repeat_threshold)
    while True:
        for kind, firsts, span, gated in _steps(graph, index):
            if not gated:
                index.rewrite(firsts, span, graph.add(kind))
                break
            if _gated_add(graph, kind, index, firsts, span)[0]:
                break
        else:
            break  # no step paid
    _generalize_numbers(graph)
    return tuple(index), list(range(before, len(graph)))


def _generalize_numbers(graph: ConceptGraph) -> None:
    """Create the k-fold template once runs of length k span enough children."""
    m = graph.config.generalize_threshold
    observed, repeats = graph.run_observations, graph.repeat_children
    for k in sorted(observed.keys() | repeats.keys()):
        children = observed.get(k, set()) | repeats.get(k, set())
        if len(children) >= m and _number_template_id(graph, k) is None:
            graph.add(Template((Hole(0),) * k))


def abstract_common(graph: ConceptGraph) -> list[int]:
    """Abstract concats that agree everywhere but one position into a
    one-hole template, rewriting each as an application (same expansion).

    A bucket of concats that agree everywhere but one position qualifies
    once its members differ there in at least `generalize_threshold`
    children.  Each round templates the qualifying bucket with the smallest
    (first member id, position) and rewrites its members.  The buckets are
    the graph's kind facts: only a bucket that a concat joined since the
    last call can qualify (a rewrite or a `pop_last` only takes members
    out), and a rewritten concat leaves its buckets as `replace_kind` moves
    it.  A rewrite from one concat to another can join a bucket after newer
    members, so a bucket ranks by its smallest member id, as one rebuilt in
    id order would.
    """
    m = graph.config.generalize_threshold
    before = len(graph)
    buckets, touched = graph.concat_buckets, graph.touched_buckets
    while True:
        best = rank = None
        for key in list(touched):
            members = buckets.get(key)
            if members is None or len(set(members.values())) < m:
                touched.discard(key)  # it only loses members until a concat joins it
            else:
                here = (min(members), key[1])  # smallest member id, position
                if best is None or here < rank:
                    best, rank = key, here
        if best is None:
            return list(range(before, len(graph)))
        _, _, head, tail = best
        body = tuple(SlotRef(c) for c in head) + (Hole(0),) + tuple(SlotRef(c) for c in tail)
        tpl = graph.add(Template(body))
        for cid, differ in list(buckets[best].items()):
            graph.replace_kind(cid, Apply(tpl, (differ,)))


def record_associations(graph: ConceptGraph, desc: Description) -> list[tuple[int, int]]:
    """Count adjacent ref pairs; reify an Association at the threshold, and
    add the generic follows marker once enough distinct associations exist.
    A description that breaks the node rule raises `InvalidDescription`
    before anything is counted."""
    reconstruct(graph, desc)  # holds every node to the rule
    cfg = graph.config
    reified: list[tuple[int, int]] = []
    for pair in zip(desc, desc[1:]):
        if type(pair[0]) is not int or type(pair[1]) is not int:
            continue
        count = graph.assoc_counts.get(pair, 0) + 1
        graph.assoc_counts[pair] = count
        if count == cfg.assoc_threshold:
            before = len(graph)
            graph.add(Association(*pair))
            if len(graph) > before:
                reified.append(pair)
    if (graph.follows_marker_id is None
            and cfg.generalize_threshold <= graph.association_count):
        graph.add(FOLLOWS)
    return reified


# ----------------------------------------------------------------------
# episode pipeline

def _transitive_refs(graph: ConceptGraph, desc: Description) -> set[int]:
    """Everything exercised by expanding the description: a concept's use
    fires its whole subcircuit, so children share the usage reward."""
    seen: set[int] = set()
    stack = [n for n in desc if type(n) is int]
    while stack:
        cid = stack.pop()
        if cid in seen:
            continue
        seen.add(cid)
        stack.extend(graph.reference_edges(cid))
    return seen


FORGET_WEIGHT = 2.0 ** -20


def _apply_forgetting(graph: ConceptGraph) -> None:
    """Drop a chain's deepest level once its exclusive concepts fade away."""
    for chain in graph.refinement_store.values():
        if len(chain) < 2:
            continue
        shallow = set().union(*chain[:-1])  # its blobs never match a ref
        exclusive = {n for n in chain[-1] if type(n) is int} - shallow
        if exclusive and all(graph.concept(c).weight < FORGET_WEIGHT for c in exclusive):
            chain.pop()


def _resegment_blobs(graph: ConceptGraph, desc: Description,
                     context: _ParseContext) -> Description:
    """One round of recursive contrast on blob residue.

    Unexplained stretches are re-divided at the finest contrast (symbol
    runs) and parsed again, so induction always gets reference material to
    work with; the caller keeps the original description if this ends up
    costlier even after induction.  Neither the graph nor the context
    changes during the call, so each distinct run is parsed once.
    """
    out: list[Node] = []
    parsed: dict[tuple, tuple[Node, ...]] = {}
    for node in desc:
        if type(node) is tuple and len(node) > 1:
            for _, run in groupby(node):
                run = tuple(run)
                nodes = parsed.get(run)
                if nodes is None:
                    nodes = parsed[run] = parse(graph, run, context=context)
                out.extend(nodes)
        else:
            out.append(node)
    return tuple(out)


def ingest(graph: ConceptGraph, tokens: Sequence[Token],
           segments: Optional[list[Segment]] = None) -> IngestReport:
    """Run the full episode pipeline and return what changed.

    Segment by contrast, parse each segment, grow concepts from repetition,
    abstract commonality, record associations, decay-and-reward weights,
    store the description as level 0 of a new refinement chain (which
    counts the episode).  The parses share the graph's kept level-0
    context, refreshed first.  The tokens (a str is its characters) are
    parsed whole or in the contrast segments given.  Tokens that are not
    iterable are a ValueError and one that is no alphabet symbol (an int
    level too) `UnknownToken`, with the graph unchanged.
    """
    try:
        tokens = tuple(tokens)
    except TypeError:
        raise ValueError("ingest takes an iterable of tokens") from None
    if len(tokens) > MAX_EXPANSION:
        raise TooLarge(f"episode exceeds {MAX_EXPANSION} tokens")

    if segments is None:
        segments = [Segment(0, len(tokens), tokens)] if tokens else []
    elif (type(segments) not in (list, tuple) or any(type(s) is not Segment for s in segments)
          # each starts where the one before ends, and a payload is end - start long
          or [s.start for s in segments] != [0, *(s.end for s in segments)][:len(segments)]
          or tuple(t for s in segments for t in s.payload) != tokens):
        raise ValueError("segments must cover the stream exactly, in order")
    if (context := _KEPT.get(graph)) is None:  # built once: the config, so the budget, is fixed
        context = _KEPT[graph] = _ParseContext(graph, Budget.from_config(graph.config, 0))
    else:
        context.refresh(graph)
    nodes: list[Node] = []
    for seg in segments:
        nodes.extend(parse(graph, seg.payload, context=context))
    first_pass = tuple(nodes)

    pre_count = len(graph)
    desc, _ = induce_repeats(graph, _resegment_blobs(graph, first_pass, context))
    if description_dl(graph, first_pass) < description_dl(graph, desc):
        desc = first_pass
    abstract_common(graph)
    new_pairs = record_associations(graph, desc)
    new_concepts = list(range(pre_count, len(graph)))

    graph.tick_weights(_transitive_refs(graph, desc))
    episode_id = graph.episode
    graph.refinement_store[episode_id] = [desc]  # which counts the episode
    raw_bits = raw_dl(len(tokens), len(graph.alphabet))
    graph.raw_bits_total += raw_bits
    _apply_forgetting(graph)
    return IngestReport(episode=episode_id, description=desc,
                        new_concepts=new_concepts, new_associations=new_pairs,
                        raw_bits=raw_bits, described_bits=description_dl(graph, desc))


def refine(graph: ConceptGraph, episode_id: int) -> Description:
    """Append one refinement level: re-parse at a larger budget, never worse.

    Level n parses at budget level n, held at `MAX_BUDGET_LEVEL` for a
    longer chain.  The previous chain tail stays a candidate, so description
    bits are non-increasing along the chain and every level reconstructs
    exactly.  An id that is not an `int` has no chain, even if it equals one.
    """
    chain = graph.refinement_store.get(episode_id) if type(episode_id) is int else None
    if not chain:
        raise UnknownEpisode(f"no refinement chain for episode {episode_id}")
    tokens = reconstruct(graph, chain[0])
    budget = Budget.from_config(graph.config, len(chain))
    candidate = parse(graph, tokens, budget)
    previous = chain[-1]
    if description_dl(graph, previous) <= description_dl(graph, candidate):
        candidate = previous
    chain.append(candidate)
    return candidate
