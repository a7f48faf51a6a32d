"""Description-length accounting: the engine's minimized objective.

Costs are real-valued bits, never emitted as an actual bitstream.  The code
over concept references is weight-proportional with Laplace smoothing: a
concept c costs -log2((w_c + 1) / (W + N + 1)) bits, where W and N sum over
the codeable concepts and the trailing +1 reserves mass for the blob-escape
symbol.  The Kraft sum of this code is exactly 1 (`tests/oracle.py` sums
it, and `test_kraft_sum_is_exactly_one` checks it).
"""

from __future__ import annotations

import math

from .errors import NonPositive
from .core import (Apply, Concat, ConceptGraph, Description, Hole, Repeat, Template,
                   _check_number, as_tuple, check_graph, node_tokens, reconstruct)
from .records import record


@record
class DLReport:
    raw_bits: float
    described_bits: float
    model_bits: float

    @property
    def attention(self) -> float:
        return self.raw_bits - self.described_bits

    def as_text(self) -> str:
        return (
            f"raw_bits: {self.raw_bits:.9f}\n"
            f"described_bits: {self.described_bits:.9f}\n"
            f"model_bits: {self.model_bits:.9f}\n"
            f"attention: {self.attention:.9f}\n"
        )


def gamma_len(k: int) -> int:
    """Elias-gamma code length for a positive integer: 2*floor(log2 k) + 1."""
    if type(k) is not int:  # a bool or a float is no count
        raise ValueError(f"gamma_len needs an int, got {type(k).__name__}")
    if k < 1:
        raise NonPositive(f"gamma_len needs k >= 1, got {k}")
    return 2 * (k.bit_length() - 1) + 1


def raw_dl(n: int, sigma_size: int) -> float:
    """Bits to store n tokens verbatim: length header plus n symbols."""
    if type(n) is not int or type(sigma_size) is not int or sigma_size < 1:
        raise ValueError("need int n >= 0 and int sigma_size >= 1")
    _check_number(n, "n")  # a negative n, or one too large for a float, is no count
    return gamma_len(n + 1) + n * math.log2(sigma_size)


def _denominator(graph: ConceptGraph) -> float:
    return graph.codeable_weight() + graph.codeable_count() + 1.0


def escape_cost(graph: ConceptGraph) -> float:
    """Cost of the escape symbol that introduces a raw blob."""
    return math.log2(_denominator(graph))


def description_dl(graph: ConceptGraph, desc: Description) -> float:
    """Bits for one description: node-count header plus per-node costs.

    Referenced concept definitions are not recounted here; they live in
    model_dl (two-part code).  Each node is held to `core.node_tokens`'s
    rule: a ref to a parseable concept is priced straight from the
    expansion table, and any other node goes through `node_tokens`, which
    passes a blob and raises `InvalidDescription` for the rest.  The node
    costs are added one by one, left to right.
    """
    check_graph(graph)
    desc = as_tuple(desc, "an iterable of nodes")
    total = float(gamma_len(len(desc) + 1))
    sigma_bits = math.log2(len(graph.alphabet))
    log_d = math.log2(_denominator(graph))
    table, concepts = graph.expansion_table(), graph.concepts
    for node in desc:
        if type(node) is int and node in table:
            total += log_d - math.log2(concepts[node].weight + 1.0)
        else:
            node_tokens(graph, node)  # a blob, else InvalidDescription
            total += log_d + gamma_len(len(node)) + len(node) * sigma_bits
    return total


def concept_model_dl(graph: ConceptGraph, cid: int, log_d: float) -> float:
    """Model bits for one definition: 2-bit kind header, body-count gamma,
    children coded at their reference cost under code denominator 2^log_d;
    Repeat adds gamma_len(count), holes are coded as escape plus their
    index.  A kind that defines nothing (primitive, association, affect,
    marker) costs 0."""

    def rc(child: int) -> float:
        return log_d - math.log2(graph.concept(child).weight + 1.0)

    kind = graph.concept(cid).kind
    if isinstance(kind, Concat):
        return 2.0 + gamma_len(len(kind.children)) + sum(rc(c) for c in kind.children)
    if isinstance(kind, Repeat):
        return 2.0 + gamma_len(1) + rc(kind.child) + gamma_len(kind.count)
    if isinstance(kind, Template):
        bits = 2.0 + gamma_len(len(kind.body))
        for slot in kind.body:
            if isinstance(slot, Hole):
                bits += log_d + gamma_len(slot.index + 1)
            else:
                bits += rc(slot.concept)
        return bits
    if isinstance(kind, Apply):
        return (2.0 + gamma_len(1 + len(kind.fillers)) + rc(kind.template)
                + sum(rc(c) for c in kind.fillers))
    return 0.0


def model_dl(graph: ConceptGraph) -> float:
    """Total model bits over every concept (`concept_model_dl`)."""
    check_graph(graph)
    log_d = math.log2(_denominator(graph))
    total = 0.0
    for cid in range(len(graph.concepts)):
        total += concept_model_dl(graph, cid, log_d)
    return total


def stored_description_dl(graph: ConceptGraph) -> float:
    """Sum of description bits over every stored refinement level."""
    total = 0.0
    for chain in graph.refinement_store.values():
        for desc in chain:
            total += description_dl(graph, desc)
    return total


def two_part_total(graph: ConceptGraph) -> float:
    """model bits + stored description bits: the induction objective."""
    return model_dl(graph) + stored_description_dl(graph)


def graph_report(graph: ConceptGraph) -> DLReport:
    """Cumulative accounting: raw bits seen vs stored description bits.  The
    raw bits are each chain's `raw_dl` of its level-0 length, in episode order."""
    check_graph(graph)
    raw_bits, sigma = 0.0, len(graph.alphabet)
    for chain in graph.refinement_store.values():
        raw_bits += raw_dl(len(reconstruct(graph, chain[0])), sigma)
    return DLReport(raw_bits=raw_bits, described_bits=stored_description_dl(graph),
                    model_bits=model_dl(graph))
