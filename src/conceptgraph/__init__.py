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
    IngestReport,
    abstract_common,
    contrast_cuts,
    induce_repeats,
    ingest,
    parse,
    record_associations,
    refine,
)
from .mdl import (
    DLReport,
    description_dl,
    gamma_len,
    model_dl,
    raw_dl,
    two_part_total,
)
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
