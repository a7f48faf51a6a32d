"""The induction loop: parse token episodes, grow concepts, keep refinements.

Both contrast rules live here: `contrast_cuts` cuts a level stream where
a level jumps by more than the contrast threshold, for `ingest` to parse
between, and `_resegment_blobs` re-divides blob residue at symbol runs.

Parsing is a left-to-right shortest path over token positions, through
concept references and raw blobs, minimizing description bits: each
position keeps the one cheapest state that reaches it, a plain tuple whose
parent chain spells the partial description, and an exact cost tie is
broken where the tied states' chains meet.  A position is skipped when its
state cannot finish under a complete description already found, charging
each remaining token the fewest bits any step pays per token (an exact,
admissible bound: no step pays less).  Candidate lookups walk
a token trie of the candidates' expansions; `ingest` keeps that trie
across episodes while the candidates and their expansions are unchanged
(the circuit changes only when a node is formed), refreshing only the
reference bits.  Induction scans candidate steps, digram concats then runs,
takes the first that pays (one gate: the episode's description bits strictly
drop) and scans again.  The gate does not charge the new definition's model
bits (`mdl.model_dl`): creation is paid for by the data side, which lets
structure bootstrap from short experiences.  The gate decides from counts
alone: a step's bit change follows in closed form from the occurrences it
replaces, the node count and the code denominator, and the margin it must
beat is widened by a proven bound on the float rounding, so no description
is recomputed.  The episode lives in a pair index (Re-Pair, Larsson & Moffat
1999; digram counts kept as in Sequitur, Nevill-Manning & Witten 1997), so
the scan after a step re-reads only the pairs the step changed; it reads the
graph's association counts as its one pair table, and every step is applied
through it.  Number templates, their applications to runs and the
common-component abstractions are forced by generalization thresholds
instead: their payoff is expressive, not an immediate bit gain.

An episode adds a handful of concepts, so what induction reads of the
concepts' kinds is not rescanned: the concat buckets that agree everywhere
but one position, the Repeat children by count and the association count
are kind facts that the graph derives with each row it takes in
(`ConceptGraph`).  The one thing kept beside a graph is `ingest`'s parse
context (`_KEPT`).  The rest of an episode's upkeep also pays for
what changed: the context ranks weights only when the graph has more
parseable concepts than the pool, the reward walk reads each row's
references from its kind, the weight tick walks the row lists the graph
keeps (the rows that decay, then the used ones, then the codeable rows
for the code mass) without testing a row's kind, `description_dl` prices
a ref straight from the expansion table, and forgetting visits only the
chains of two or more levels, which the graph keeps (`deep_chains`).

Descriptions are the plain tuples of nodes that `core` defines (a
reference is the concept id it names, a blob the tuple of raw tokens it
spells); `reconstruct`, their inverse of `parse`, lives there too.
"""

from __future__ import annotations

import heapq
import math
import weakref
from itertools import groupby
from typing import Collection, Iterable, Optional, Sequence

from . import mdl
from .core import (
    FOLLOWS,
    MAX_EXPANSION,
    Apply,
    Association,
    Concat,
    ConceptGraph,
    Description,
    Hole,
    Node,
    Repeat,
    SlotRef,
    Template,
    Token,
    _check_number,
    as_tuple,
    check_graph,
    kind_references,
    node_tokens,
    reconstruct,
)
from .errors import TooLarge, UnknownEpisode
from .mdl import description_dl, gamma_len
from .records import record


BOUND_SLACK = 2.0 ** -48  # `parse`'s bound slack per token: more than its sums can round away
POOL = 64  # the candidates `ingest`'s parses rank down to
REPEAT_THRESHOLD = 2  # the count (episode plus stored) at which a digram is a candidate
ASSOC_THRESHOLD = 3  # the pair count at which an Association is reified
GENERALIZE_THRESHOLD = 3  # the distinct children that force a template, and the follows marker


@record
class IngestReport:
    episode: int
    description: Description
    new_concepts: list[int]


# ----------------------------------------------------------------------
# parsing

def _tie_order(a: tuple, b: tuple) -> int:
    """-1, 0 or 1 as state a's signature sorts before, with or after b's.

    States form one tree under `start` (`count` is the depth), so signatures
    first differ just below the lowest common ancestor, where a ref's key is
    (0, id) and a blob's (1, blob_len): the blobs under one parent start at
    its end.  Equal keys there mean one state's nodes prefix the other's.
    """
    x, y = a, b
    for _ in range(a[1] - b[1]):
        x = x[3]
    for _ in range(b[1] - a[1]):
        y = y[3]
    while x[3] is not y[3]:
        x, y = x[3], y[3]
    kx, ky = ((1, x[4]) if x[4] else (0, x[2])), ((1, y[4]) if y[4] else (0, y[2]))
    if kx == ky:  # the shorter description first, or the same description twice
        kx, ky = a[1], b[1]
    return (kx > ky) - (kx < ky)


class _ParseContext:
    """Parse machinery for one code state: candidate entries, their trie, ref costs.

    The candidates are every parseable concept while they fit the `pool`,
    else the top `pool` by (-weight, id), each with its mutable [id, length,
    reference bits] entry.  Their expansions are merged into a token trie
    whose nodes list the entries ending there (the same lists as `entries`),
    so a lookup walks only as far as the longest match and builds nothing
    but its result.  Weights are constant between ticks, so one context
    serves every parse call an ingest makes (segments plus blob residue).

    `refresh` moves the context to the graph's current code state.  It
    ranks only when the parseable concepts outnumber the pool, with one
    stable reverse sort of the ids by weight, so ties stay in id order.
    The member expansions are the graph's own table entries.  The trie
    depends only on the member ids and their expansions, so it is kept when
    both are unchanged and only each entry's bits are rewritten in place;
    the check is a list comparison, which finds an unchanged member's
    stored expansion by identity.  A rebuild makes a node only for a token
    the trie does not have yet.  `ingest` builds its context, at `POOL`,
    once per graph, keeps it in `_KEPT` and refreshes it each episode:
    between episodes the members change only when a node is formed or a
    weight crosses into the pool.  A `parse` call without a context (a
    `refine` too) builds one the whole graph fits in.

    The same pass sets `per_token`, the fewest bits any parse step pays per
    token it covers: min(sigma_bits, bits / length over the entries), since
    a blob step pays at least sigma_bits for its one token.  `parse` charges
    it for the tokens a state has left (its completion bound).
    """

    __slots__ = ("pool", "log_d", "sigma_bits", "per_token", "entries", "trie",
                 "members", "member_expansions")

    def __init__(self, graph: ConceptGraph, pool: int):
        self.pool = pool
        self.sigma_bits = math.log2(len(graph.alphabet))
        self.members = self.member_expansions = None  # no trie yet
        self.refresh(graph)

    def refresh(self, graph: ConceptGraph) -> None:
        """Take the graph's current candidates and reference bits, rebuilding
        the trie only if a member or a member's expansion changed."""
        concepts = graph.concepts
        table = graph.expansion_table()
        members, expansions = list(table), list(table.values())
        if len(members) > self.pool:  # else every parseable concept is a member: nothing to rank
            weights = [concept.weight for concept in concepts]
            # a stable reverse sort of the ids in id order: weight ties stay in id order
            members = sorted(sorted(members, key=weights.__getitem__, reverse=True)[:self.pool])
            expansions = [table[cid] for cid in members]
        if members != self.members or expansions != self.member_expansions:
            self.entries = [[cid, len(e), 0.0] for cid, e in zip(members, expansions)]
            self.trie = ({}, [])
            for entry, expansion in zip(self.entries, expansions):
                node = self.trie
                for token in expansion:
                    child = node[0].get(token)
                    if child is None:  # build a node only where the trie has none
                        child = node[0][token] = ({}, [])
                    node = child
                node[1].append(entry)
        self.members, self.member_expansions = members, expansions
        self.log_d = log_d = mdl.escape_cost(graph)
        per_token = self.sigma_bits
        for entry in self.entries:
            bits = entry[2] = log_d - math.log2(concepts[entry[0]].weight + 1.0)
            if bits / entry[1] < per_token:  # no `min` call: this runs every episode
                per_token = bits / entry[1]
        self.per_token = per_token

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


# Each graph's `ingest` parse context.  Weak keys keep the graph's own state
# and saved bytes free of it, and let a dropped graph free its trie; the
# context holds no reference to the graph.
_KEPT: "weakref.WeakKeyDictionary[ConceptGraph, _ParseContext]" = weakref.WeakKeyDictionary()


def parse(graph: ConceptGraph, tokens: Sequence[Token], *,
          context: Optional[_ParseContext] = None) -> Description:
    """Minimum-description-length parse of `tokens` against the graph.

    Candidates at each position are the context's members whose expansion
    prefixes the remainder, and a single-token blob; with no context, the
    members are every parseable concept.  The all-blob description is
    always considered.  Refs come out as concept ids, blobs as token
    tuples; exact cost ties go to the smallest (0, id) / (1, tokens)
    signature.

    The frontier holds one state per position 0..n: the cheapest that
    reaches it (the Viterbi recursion, Viterbi 1967, a shortest path over
    positions).  A successor replaces the held state when it costs less, or
    the same and `_tie_order` puts it first, so each position keeps the
    (cost, signature) minimum of the states offered to it.  Positions are
    taken in order, passing over those no state reached, and position n
    holds the final; the all-blob description is offered to it last.  A
    state is a tuple (cost, count, node, parent, blob_len): a node count
    (its depth under `start`) and a parent chain, whose `node` is a ref's
    concept id or, when blob_len > 0, the start of a trailing blob.  Its
    position is its frontier index, so it is not stored.

    What is exact and what is not.  The completion bound below never
    changes the answer, but keeping one state per position is not exact:
    what a state's successors pay depends on more than its cost.  The
    header grows by 2 bits when the node count reaches a power of two, and
    a blob token costs about log_d + 1 more when it opens a blob than when it
    extends a trailing one, so a state that wins a position by a hair can
    cost its successors more than the loser would have.  The miss is
    bounded: in exact arithmetic, for every description D over the same
    candidates, the answer costs at most D's bits plus 2 a node plus
    log_d + 3 for each token a blob of D holds beyond its first.  Let e_p
    bound how much the held state at a position p that D passes costs over
    D's prefix there (e_0 = 0).  D's next step is offered from the held
    state too, since the candidates depend on the position alone, and the
    state held at the step's end costs no more than that offer.  Against
    D's step, the held state pays at most 2 more for a ref (a header
    increment) or for a blob D opens (it opens one too, or extends its own
    for at most sigma_bits + 2 where D pays sigma_bits + log_d + 1), and at
    most log_d + 3 more for a token that D's blob extends (it opens a blob,
    where D pays sigma_bits or more).  The search without the completion
    bound gives the same answer, so the bound holds.  `tests/oracle.py`
    computes it and the exact parse over the same candidates.

    Branch and bound (Land & Doig 1960) with an admissible completion bound
    (A*, Hart, Nilsson & Raphael 1968): once a final exists, `bound` is the
    cheaper of it and the all-blob description, and the state at position
    p is not extended when it costs more than `bound` + slack - (n - p) *
    per_token, so a later position may never be reached.
    No step lowers a cost: a ref adds log2(D) - log2(w + 1) >= 0, as the
    code denominator D = W + C + 1 exceeds w + 1 (`codeable_weight` is the
    exact sum W, which float rounding keeps >= w), a blob step adds
    sigma_bits, log_d and gamma increments, each >= 0, and adding a
    non-negative float never rounds a sum down.  Nor does a step over k
    tokens pay less than k * per_token (the context's): a ref adds its bits
    >= length * per_token, plus 2 when the header grows, and a blob step
    adds at least sigma_bits >= per_token for its one token.
    So in exact arithmetic a state at position p reaches no final cheaper
    than its cost + (n - p) * per_token.  Let T be the cost of the unbounded
    search's answer and u = 2**-53.  On the way to a final costing <= T the
    floats lose at most (2 (n - p) + 5) * u * T: two rounded sums a step,
    u * T over the quotients bits / length, and a few u * T in the product,
    the slack and the subtraction.  The slack, bound * (n + 1) *
    BOUND_SLACK = 32 (n + 1) * u * bound, is over nine times that.  So there
    are thresholds t_p, T - (n - p) * per_token raised by the rounding still
    ahead, with t_n = T, such that a skipped state costs more than t_p, and
    a state costing more than t_p has only successors costing more than t
    at their positions.  By induction over positions, a position whose held
    state costs <= t_p holds the same state with and without the bound: the
    offers costing <= t_p come from held states costing <= t_q, the same in
    both searches and never skipped, and every other offer ranks after
    them.  And `bound` >= T throughout, since no offer to position n costs
    less than T.  Without the slack, a state whose remaining
    tokens cost exactly (n - p) * per_token could be dropped when the
    product rounds up, though it may reach a final of cost T with a smaller
    signature.
    """
    check_graph(graph)
    if context is not None and not isinstance(context, _ParseContext):
        raise ValueError(f"context must be a _ParseContext, not {type(context).__name__}")
    tokens = as_tuple(tokens, "an iterable of tokens")
    graph.check_tokens(tokens)
    n = len(tokens)
    if n == 0:
        return ()
    ctx = context or _ParseContext(graph, len(graph))
    log_d = ctx.log_d
    sigma_bits = ctx.sigma_bits
    per_token = ctx.per_token

    start = (1.0, 0, None, None, 0)  # gamma_len(1) = 1 bit: the header of no nodes
    frontier = [start] + [None] * n  # the state held at each position, once one reaches it
    # blob cost steps, summed as `header + log_d + gamma_len(1) + sigma_bits`
    # left to right so that exact cost ties stay where they were
    open_plain = 0 + log_d + 1 + sigma_bits
    open_pow2 = 2 + log_d + 1 + sigma_bits
    grow_pow2 = 2 + sigma_bits
    all_blob = 3 + log_d + gamma_len(n) + n * sigma_bits  # gamma_len(2) = 3
    slack = (n + 1) * BOUND_SLACK

    for pos in range(n):
        state = frontier[pos]
        if state is None:
            continue  # no state reached this position
        cost, count, node, parent, blob_len = state
        final = frontier[n]
        if final is not None:
            bound = final[0] if final[0] < all_blob else all_blob
            if cost > bound + bound * slack - (n - pos) * per_token:
                continue  # this state cannot reach a final costing <= bound
        # gamma_len(x) - gamma_len(x - 1) is 2 at a power of two x, else 0
        header_grows = ((count + 2) & (count + 1)) == 0
        ref_base = cost + 2 if header_grows else cost
        for cid, length, bits in ctx.candidates_at(tokens, pos):
            held, ref_cost = frontier[pos + length], ref_base + bits
            if held is None or ref_cost < held[0]:
                frontier[pos + length] = (ref_cost, count + 1, cid, state, 0)
            elif ref_cost == held[0]:  # an exact tie: the smaller signature is held
                new = (ref_cost, count + 1, cid, state, 0)
                if _tie_order(new, held) < 0:
                    frontier[pos + length] = new
        if blob_len:  # extend the trailing blob by one token
            grown = cost + (grow_pow2 if ((blob_len + 1) & blob_len) == 0 else sigma_bits)
            new = (grown, count, node, parent, blob_len + 1)
        else:
            new = (cost + (open_pow2 if header_grows else open_plain), count + 1, pos, state, 1)
        held = frontier[pos + 1]
        if held is None or new[0] < held[0] or new[0] == held[0] and _tie_order(new, held) < 0:
            frontier[pos + 1] = new

    # A final exists: a state is skipped only once one does, and otherwise
    # every position's blob step reaches the next.  The all-blob description
    # ties the blob chain's own final (the same signature), which then stays.
    final, new = frontier[n], (all_blob, 1, 0, start, n)
    if all_blob < final[0] or all_blob == final[0] and _tie_order(new, final) < 0:
        final = new
    _, _, node, parent, blob_len = final
    nodes = []
    while parent is not None:  # spell the winner's nodes, last first
        nodes.append(tokens[node:node + blob_len] if blob_len else node)
        _, _, node, parent, blob_len = parent
    return tuple(reversed(nodes))


# ----------------------------------------------------------------------
# induction rules

GATE_MARGIN = 1e-9  # an accepted step must save more than this many bits


def _gate_delta(graph: ConceptGraph, kind, n: int, k: int, twin: Optional[int],
                blob_bits: float) -> tuple[float, float]:
    """Change in an episode's description bits when `k` occurrences of
    `kind`'s children (out of `n` nodes) become refs to `kind`, or to its
    existing `twin`, charged at the post-add code state, and the bound on
    its rounding (`_gated_add`), which reads the episode's `blob_bits`.

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
    delta = (gamma_len(n_after + 1) - gamma_len(n + 1) + n_after * log_d_after - n * log_d
             + k * (removed - math.log2(w_new + 1.0)))
    # 4 (n + 16) u B, u = 2**-53, B the bits either description can reach
    return delta, (n + 16) * 2.0 ** -51 * (gamma_len(n + 1) + n * log_d_after + blob_bits)


def _gated_add(graph: ConceptGraph, kind, index: "_PairIndex", firsts: Collection[int],
               span: int) -> tuple[bool, Optional[int]]:
    """Rewrite the `span` nodes from each of `firsts` in the episode `index`
    into a ref to `kind` (or its existing twin) iff `_gate_delta`'s closed
    form is below -(GATE_MARGIN + bound).  Returns (accepted, the id the
    occurrences now name, or None); nothing changes on a rejection.

    Then `description_dl` drops by more than the margin in floats, for any n
    <= MAX_EXPANSION.  Let u = 2**-53, so n u <= 2**-33.  Both sides read
    the same floats: L = log2 D, L' = log2 D' (D' summed as `add` sums the
    code mass; L' = L for a twin), each ref's r = log2(w + 1) and each
    blob's beta = gamma_len(len) + len * sigma_bits.  As exact reals, they
    give B* = H + sum(L - r) over refs + sum(L + beta) over blobs (H the
    header), A* alike, and A* - B* = the closed form.  As 0 <= r <= L (see
    `parse`) and L <= L', every term is >= 0, and both descriptions, the
    closed form's products and k times the s children's summed r (k s <= n)
    are at most B = gamma_len(n + 1) + n L' + blob bits.  By recursive
    summation (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., 2002, (4.4) and Lemma 3.3), `description_dl`, which rounds a term
    at most three times and sums n + 1 terms, is within (n + 2) u B of B*
    (of A* after).  The closed form's sum of the children's r is within s u
    of its value (left to right or compensated), and its seven other
    roundings, the one multiplied by k counted after it, are of magnitudes
    <= B, but 2B and 3B for its last two additions: it is within (s + 10) u
    B of A* - B*.  So, to first order and with the rest under 2**-30 of it,
    |delta - (after - before)| <= (3n + 14) u B = bound - (n + 50) u B.  An
    accepted delta gives after - before < -GATE_MARGIN - (n + 49) u B, and
    the float before - GATE_MARGIN is within u B of the real one: after <
    before - GATE_MARGIN.
    """
    twin = graph.find(kind)
    delta, bound = _gate_delta(graph, kind, len(index), len(firsts), twin, index.blob_bits)
    if not delta < -(GATE_MARGIN + bound):
        return False, None
    cid = graph.add(kind) if twin is None else twin
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
    episode count plus stored count, `graph.assoc_counts`, reaches
    `REPEAT_THRESHOLD`) by (-combined count, first position, pair), with stale
    entries skipped.  Iterating yields the current nodes; no rewrite
    changes `blob_bits`, what the blobs cost beside their escapes.
    """

    __slots__ = ("node", "nxt", "prv", "size", "at",
                 "stored", "heap", "live", "aside", "blob_bits")

    def __init__(self, graph: ConceptGraph, nodes: Sequence[Node]):
        self.node = node = list(as_tuple(nodes, "an iterable of nodes"))
        n = len(node)
        sigma_bits, table = math.log2(len(graph.alphabet)), graph.expansion_table()
        blob_bits = 0.0  # added left to right, as `description_dl` adds its terms
        for b in node:  # held to core's node rule as `description_dl` holds them
            if not (type(b) is int and b in table):
                node_tokens(graph, b)  # a blob, else InvalidDescription before a step
                blob_bits += gamma_len(len(b)) + len(b) * sigma_bits
        self.blob_bits = blob_bits
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
        self.stored = graph.assoc_counts
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
            if combined >= REPEAT_THRESHOLD:
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


def induce_repeats(graph: ConceptGraph, desc: Description) -> Description:
    """Grow concepts from within-episode repetition and rewrite the episode.

    Take the first of `_steps` that pays (`_gated_add`; ungated steps
    always do) and scan again, until a scan takes none; then create the
    number templates whose runs span enough children.  A rejected step
    adds nothing, so the new ids are those from the old length on.  The
    episode lives in a `_PairIndex`, so a scan after a step reads the
    pairs it changed instead of the whole episode.  A node that breaks
    `core`'s rule raises `InvalidDescription` with the graph unchanged.
    """
    check_graph(graph)
    index = _PairIndex(graph, desc)
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
    return tuple(index)


def _generalize_numbers(graph: ConceptGraph) -> None:
    """Create the k-fold template once runs of length k span enough children."""
    observed, repeats = graph.run_observations, graph.repeat_children
    for k in sorted(observed.keys() | repeats.keys()):
        children = observed.get(k, set()) | repeats.get(k, set())
        if len(children) >= GENERALIZE_THRESHOLD and _number_template_id(graph, k) is None:
            graph.add(Template((Hole(0),) * k))


def abstract_common(graph: ConceptGraph) -> list[int]:
    """Abstract concats that agree everywhere but one position into a
    one-hole template, rewriting each as an application (same expansion).

    A bucket of concats that agree everywhere but one position qualifies
    once its members differ there in at least `GENERALIZE_THRESHOLD`
    children.  Each round templates the qualifying bucket with the smallest
    (first member id, position) and rewrites its members.  The buckets are
    the graph's kind facts: only a bucket that a concat joined since the
    last call can qualify (a rewrite or a `pop_last` only takes members
    out), and a rewritten concat leaves its buckets as `replace_kind` moves
    it.  A rewrite from one concat to another can join a bucket after newer
    members, so a bucket ranks by its smallest member id, as one rebuilt in
    id order would.
    """
    check_graph(graph)
    before = len(graph)
    buckets, touched = graph.concat_buckets, graph.touched_buckets
    while True:
        best = rank = None
        for key in list(touched):
            members = buckets.get(key)
            if members is None or len(set(members.values())) < GENERALIZE_THRESHOLD:
                touched.discard(key)  # it only loses members until a concat joins it
            else:
                here = (min(members), len(key[0]))  # smallest member id, position
                if best is None or here < rank:
                    best, rank = key, here
        if best is None:
            return list(range(before, len(graph)))
        head, tail = best
        body = tuple(SlotRef(c) for c in head) + (Hole(0),) + tuple(SlotRef(c) for c in tail)
        tpl = graph.add(Template(body))
        for cid, differ in list(buckets[best].items()):
            graph.replace_kind(cid, Apply(tpl, (differ,)))


def record_associations(graph: ConceptGraph, desc: Description) -> None:
    """Count adjacent ref pairs, as a load recounts a stored level 0; reify an
    Association at the threshold, and add the generic follows marker once
    enough distinct associations exist.  A description that breaks the node
    rule raises `InvalidDescription` before anything is counted."""
    check_graph(graph)
    desc = as_tuple(desc, "an iterable of nodes")
    for node in desc:
        node_tokens(graph, node)  # holds every node to the rule
    for pair, count in graph.count_pairs(desc):
        if count == ASSOC_THRESHOLD:
            graph.add(Association(*pair))
    if graph.follows_marker_id is None and GENERALIZE_THRESHOLD <= graph.association_count:
        graph.add(FOLLOWS)


# ----------------------------------------------------------------------
# episode pipeline

def _transitive_refs(graph: ConceptGraph, desc: Description) -> set[int]:
    """Everything exercised by expanding the description: a concept's use
    fires its whole subcircuit, so children share the usage reward.  The
    description's refs are valid ids, so each row's references are read
    from its kind without `reference_edges`' id check."""
    concepts = graph.concepts
    seen: set[int] = set()
    stack = [n for n in desc if type(n) is int]
    while stack:
        cid = stack.pop()
        if cid not in seen:
            seen.add(cid)
            stack.extend(kind_references(concepts[cid].kind))
    return seen


FORGET_WEIGHT = 2.0 ** -20


def _apply_forgetting(graph: ConceptGraph) -> None:
    """Drop a chain's deepest level once its exclusive concepts fade away.

    Only a chain of two or more levels can lose one, so the walk visits the
    graph's `deep_chains`, not every chain.  Each chain's test reads only the
    weights and its own levels, so the order of the visits does not matter.
    """
    store, deep = graph.refinement_store, graph.deep_chains
    for episode_id in list(deep):
        chain = store[episode_id]
        shallow = set().union(*chain[:-1])  # its blobs never match a ref
        exclusive = {n for n in chain[-1] if type(n) is int} - shallow
        if exclusive and all(graph.concept(c).weight < FORGET_WEIGHT for c in exclusive):
            chain.pop()
            if len(chain) < 2:
                deep.discard(episode_id)


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


def contrast_cuts(levels: Iterable[int], threshold: float) -> list[int]:
    """The positions where an `int` level jumps from the one before by more
    than `threshold`, which keeps core's number rule: the cuts `ingest`
    takes."""
    _check_number(threshold, "contrast threshold")
    levels = as_tuple(levels, "an iterable of integers")
    if not set(map(type, levels)) <= {int}:
        raise ValueError("scalar levels must be integers")
    return [i for i in range(1, len(levels)) if abs(levels[i] - levels[i - 1]) > threshold]


def ingest(graph: ConceptGraph, tokens: Sequence[Token], cuts: Sequence[int] = ()) -> IngestReport:
    """Run the full episode pipeline and return what changed.

    Parse each segment `tokens[a:b]` between consecutive bounds `[0, *cuts,
    len(tokens)]` (`contrast_cuts` gives a level stream's cuts), grow
    concepts from repetition, abstract commonality, record associations,
    decay-and-reward weights, store the description as level 0 of a new
    refinement chain (which counts the episode).  The parses share the
    graph's kept `POOL` context, refreshed first; a str is its characters.
    Cuts that are not a list or tuple of ints strictly increasing inside
    (0, len(tokens)), or tokens that are not iterable, are a ValueError and
    a token that is no alphabet symbol (an int level too) `UnknownToken`,
    with the graph unchanged.
    """
    check_graph(graph)
    tokens = as_tuple(tokens, "an iterable of tokens")
    if len(tokens) > MAX_EXPANSION:
        raise TooLarge(f"episode exceeds {MAX_EXPANSION} tokens")
    if type(cuts) not in (list, tuple) or not set(map(type, cuts)) <= {int}:
        raise ValueError("cuts must be a list or tuple of int positions")
    bounds = [0, *cuts, len(tokens)]
    if cuts and not all(a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError("cuts must increase strictly inside the tokens")
    if (context := _KEPT.get(graph)) is None:  # built once per graph
        context = _KEPT[graph] = _ParseContext(graph, POOL)
    else:
        context.refresh(graph)
    nodes: list[Node] = []
    for a, b in zip(bounds, bounds[1:] if tokens else ()):  # an empty stream has no segment
        nodes.extend(parse(graph, tokens[a:b], context=context))
    first_pass = tuple(nodes)

    pre_count = len(graph)
    desc = induce_repeats(graph, _resegment_blobs(graph, first_pass, context))
    if desc != first_pass and description_dl(graph, first_pass) < description_dl(graph, desc):
        desc = first_pass
    abstract_common(graph)
    record_associations(graph, desc)
    new_concepts = list(range(pre_count, len(graph)))

    graph.tick_weights(_transitive_refs(graph, desc))
    episode_id = graph.episode
    graph.refinement_store[episode_id] = [desc]  # which counts the episode
    _apply_forgetting(graph)
    return IngestReport(episode=episode_id, description=desc, new_concepts=new_concepts)


def refine(graph: ConceptGraph, episode_id: int) -> Description:
    """Append one refinement level: the episode described under today's code.

    The parse is `parse`'s with no context, so its candidates are every
    parseable concept, whatever the chain's length.  The previous tail
    stays a candidate and wins a tie, so description bits never rise along
    the chain and every level reconstructs exactly.  An id that is not an
    `int` has no chain, even if it equals one.
    """
    check_graph(graph)
    chain = graph.refinement_store.get(episode_id) if type(episode_id) is int else None
    if not chain:
        raise UnknownEpisode(f"no refinement chain for episode {episode_id}")
    tokens = reconstruct(graph, chain[0])
    candidate = parse(graph, tokens)
    previous = chain[-1]
    if description_dl(graph, previous) <= description_dl(graph, candidate):
        candidate = previous
    chain.append(candidate)
    graph.deep_chains.add(episode_id)
    return candidate
