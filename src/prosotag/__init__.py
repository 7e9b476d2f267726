"""Unsupervised word-level prosody tagging.

Two stages: a binary decision tree over phonetic questions groups words by
how their prosody embeddings distribute (grown greedily by Gaussian
log-likelihood gain), then a per-leaf Gaussian mixture clusters each leaf's
embeddings. A token's tag is its leaf letter plus its maximum-posterior
component index, e.g. ``"d3"``. Unseen words still tag: routing only needs
the word's phonemes and syllable structure.

Typical use::

    from prosotag import TaggerConfig, fit, tag

    model = fit(lexicon, samples, questions, classes, TaggerConfig(seed=7))
    print(tag(model, lexicon[0], samples[0].embedding))
"""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyNodeError,
    InsufficientDataError,
    ModelFormatError,
    ParseError,
    ProsotagError,
    ValidationError,
)
from .gaussian import (
    Corpus,
    ProsodySample,
    SufficientStats,
    load_samples,
    node_log_likelihood,
    save_samples,
    stats_from_matrix,
)
from .gmm import LeafGmm, assign_component, fit_gmm, posterior_log_scores
from .phonetics import (
    PhonemeClassTable,
    Question,
    QuestionKind,
    WordEntry,
    answer_question,
    default_classes,
    default_questions,
    describe_question,
    load_classes,
    load_lexicon,
    load_questions,
    save_classes,
    save_lexicon,
    save_questions,
)
from .synth import (
    GroundTruth,
    SynthSpec,
    adjusted_rand_index,
    generate,
    growth_report,
    load_ground_truth,
    save_ground_truth,
    write_growth_csv,
)
from .tagger import (
    FORMAT_VERSION,
    ProsodyTag,
    TaggerConfig,
    TaggerModel,
    fit,
    load_model,
    model_to_json,
    save_model,
    tag,
    tag_inventory,
    tag_tokens,
)
from .tree import (
    DecisionTree,
    GrowthTrace,
    InternalNode,
    LeafNode,
    SplitRecord,
    grow_tree,
    leaf_letter,
    route_word,
)

__version__ = "0.1.0"

__all__ = [
    "ProsotagError",
    "ValidationError",
    "ParseError",
    "ConfigError",
    "DimensionMismatchError",
    "EmptyNodeError",
    "InsufficientDataError",
    "ModelFormatError",
    "ProsodySample",
    "Corpus",
    "SufficientStats",
    "stats_from_matrix",
    "node_log_likelihood",
    "load_samples",
    "save_samples",
    "WordEntry",
    "PhonemeClassTable",
    "Question",
    "QuestionKind",
    "answer_question",
    "describe_question",
    "default_classes",
    "default_questions",
    "load_lexicon",
    "save_lexicon",
    "load_questions",
    "save_questions",
    "load_classes",
    "save_classes",
    "DecisionTree",
    "InternalNode",
    "LeafNode",
    "GrowthTrace",
    "SplitRecord",
    "leaf_letter",
    "grow_tree",
    "route_word",
    "LeafGmm",
    "fit_gmm",
    "posterior_log_scores",
    "assign_component",
    "FORMAT_VERSION",
    "ProsodyTag",
    "TaggerConfig",
    "TaggerModel",
    "fit",
    "tag",
    "tag_tokens",
    "tag_inventory",
    "save_model",
    "load_model",
    "model_to_json",
    "SynthSpec",
    "GroundTruth",
    "generate",
    "adjusted_rand_index",
    "growth_report",
    "write_growth_csv",
    "save_ground_truth",
    "load_ground_truth",
    "__version__",
]
