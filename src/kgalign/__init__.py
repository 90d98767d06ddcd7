"""Cross-lingual knowledge-graph alignment toolkit.

Aligns entities, relations, attributes, and literal values between two
graphs by combining an interaction-based attribute similarity view with a
structure-embedding view inside an iterative bootstrap.
"""

from .kg import (
    AlignmentStore,
    KnowledgeGraph,
    ParseError,
    ValueText,
    build_initial_seeds,
    frequent_attributes,
    load_graph,
    tokenize,
    top_m_attr_slots,
)
from .translator import (
    TranslationTable,
    WordVectorProvider,
    train_translation,
    translate_tokens,
)
from .attribute_model import (
    ValueEmbeddingMatrix,
    build_attr_slot_matrix,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
)
from .relationship_model import (
    EmbeddingTable,
    TrainConfig,
    entity_similarity_rel,
    swap_triplets,
    train_transe,
)
from .pipeline import (
    PipelineResult,
    PipelineSettings,
    Thresholds,
    merge_rank,
    merge_score,
    merge_standard,
    run_pipeline,
    tune_thresholds,
)
from .metrics import EvalReport, SimilarityMatrix, evaluate, split_ills
from .synth import SynthSpec, SynthResult, generate_synth, write_dataset

__version__ = "0.1.0"
