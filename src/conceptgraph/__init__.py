"""Incremental concept-graph induction engine.

Streams of token experiences are segmented by contrast, described as
compositions of learned concepts, and grown into new concepts whenever
repetition pays off under a two-part description-length objective.  A
companion module learns an ensemble of integer functions bottom-up from
examples, each learned function feeding the next.
"""

from .core import (
    AffectPrimitive,
    Apply,
    Association,
    Concat,
    Concept,
    ConceptGraph,
    Config,
    Description,
    EmotionTemplate,
    Hole,
    Marker,
    Node,
    Primitive,
    Repeat,
    SlotConstraint,
    SlotRef,
    Template,
    default_emotion_templates,
    match_emotion,
    reconstruct,
)
from .inducer import (
    Budget,
    IngestReport,
    abstract_common,
    induce_repeats,
    ingest,
    parse,
    record_associations,
    refine,
)
from .mdl import (
    DLReport,
    attention,
    blob_cost,
    description_dl,
    gamma_len,
    kraft_sum,
    model_dl,
    raw_dl,
    ref_cost,
    two_part_total,
)
from .segmenter import Segment, segment_scalar
from .fnsynth import (
    Call,
    Const,
    FunctionExample,
    Iter,
    Library,
    Section,
    Term,
    Var,
    eval_term,
    learn_all,
    synthesize,
)
from .corpus import gen_fn_ensemble, gen_grammar_corpus
from .storage import export_dot, export_teach, import_teach, load, save

__version__ = "0.1.0"
