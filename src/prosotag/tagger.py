"""Two-stage word prosody tagger: question tree, then per-leaf mixtures.

``fit`` grows the decision tree over all tokens, then fits one GMM per leaf
on that leaf's embeddings. A tag is text: the leaf letter, then the chosen
mixture component, e.g. "d3". ``tag_tokens`` tags a batch and returns leaf
and component index arrays; ``tag`` is its batch of one and returns the text.
The fitted model serializes to a single self-contained JSON document
(questions and phoneme classes embedded) so tagging never needs side files.
Each section of it is coded by the module that owns its type (``phonetics``
the classes and questions, ``tree`` the tree and the growth trace, ``gmm``
the mixtures, keyed by leaf letter); ``model_to_json`` and ``load_model``
put the sections together and check the format version.

Per-leaf EM seeds are ``config.seed XOR leaf_index``: reproducible, and a
changed question set cannot silently reshuffle every leaf's initialization.
A one-component mixture starts from its leaf's mean and variance and draws
nothing from its seed, so with ``m`` = 1 the seed changes no mixture. No fit
loads ``numpy.random``: k-means++ draws from ``gmm._Pcg64``. A leaf holding
fewer tokens than ``m`` falls back to one component per token; its later tag
digits simply never occur.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ._io import _from_fields, read_json, write_bytes
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ModelFormatError,
    ParseError,
    ValidationError,
    _check_knobs,
)
from .gaussian import Corpus, ProsodySample, _in_float64_range
from .gmm import LeafGmm, _columns, _gmm_from_dict, fit_gmm
from .phonetics import (
    PhonemeClassTable,
    Question,
    WordColumns,
    WordEntry,
    _classes_from_dict,
    _question_from_dict,
    question_index,
)
from .tree import (
    DecisionTree,
    GrowthTrace,
    InternalNode,
    _route_tokens,
    _trace_from_rows,
    _tree_from_dict,
    _word_columns,
    grow_tree,
)
# route_word no longer runs here; perfbench/traced.py wraps it by name
from .tree import route_word  # noqa: F401

__all__ = [
    "FORMAT_VERSION",
    "TaggerConfig",
    "TaggerModel",
    "fit",
    "tag",
    "tag_tokens",
    "tag_inventory",
    "save_model",
    "load_model",
    "model_to_json",
]

FORMAT_VERSION = 1


@dataclass(frozen=True)
class TaggerConfig:
    """Fit-time knobs. ``d`` may be None before fitting (inferred from data).

    Every knob is checked by ``errors._check_knobs``, whose rules ``SynthSpec``,
    ``grow_tree`` and ``fit_gmm`` share.
    """

    d: int | None = None
    m: int = 5
    max_leaves: int = 10
    min_gain: float = 0.0
    min_leaf: int = 10
    floor: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        _check_knobs(**{k: v for k, v in vars(self).items() if k != "d" or v is not None})


@dataclass(frozen=True)
class TaggerModel:
    """A fitted two-stage tagger; immutable and safe to share across threads.

    ``question_by_id`` is derived from ``questions`` at construction, which
    also checks that the ids are unique and cover every question the tree asks.
    """

    config: TaggerConfig
    classes: PhonemeClassTable
    questions: tuple[Question, ...]
    tree: DecisionTree
    gmms: Mapping[str, LeafGmm]
    growth_trace: GrowthTrace
    question_by_id: Mapping[int, Question] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "questions", tuple(self.questions))
        object.__setattr__(self, "gmms", dict(self.gmms))
        if self.config.d is None:
            raise ConfigError("a fitted model must record the embedding dimension")
        for letter in self.tree.leaf_letters:
            gmm = self.gmms.get(letter)
            if gmm is None:
                raise ModelFormatError(f"leaf {letter!r} has no mixture")
            if gmm.d != self.config.d:
                raise ModelFormatError(
                    f"leaf {letter!r} mixture dimension {gmm.d} does not match model d={self.config.d}"
                )
        extra = set(self.gmms) - set(self.tree.leaf_letters)
        if extra:
            raise ModelFormatError(f"mixtures for unknown leaves: {sorted(extra)}")
        try:
            index = question_index(self.questions)
        except ValidationError as exc:
            raise ModelFormatError(str(exc)) from None
        for node in self.tree.nodes:
            if isinstance(node, InternalNode) and node.question_id not in index:
                raise ModelFormatError(
                    f"tree references unknown question id {node.question_id}"
                )
        object.__setattr__(self, "question_by_id", index)

    @property
    def num_leaves(self) -> int:
        return self.tree.num_leaves

    @property
    def num_tags(self) -> int:
        return sum(self.gmms[letter].m for letter in self.tree.leaf_letters)


def fit(
    lexicon: Sequence[WordEntry],
    samples: Sequence[ProsodySample],
    questions: Sequence[Question],
    classes: PhonemeClassTable,
    config: TaggerConfig,
) -> TaggerModel:
    """Fit both stages on a token corpus. Deterministic given config.seed."""
    corpus = Corpus.of(samples)
    if not corpus:
        raise ValidationError("corpus is empty")
    dim = corpus.dim
    if config.d is not None and config.d != dim:
        raise DimensionMismatchError(
            f"config.d={config.d} but embeddings have dimension {dim}"
        )
    columns = _word_columns(lexicon, corpus.words)
    tree, trace = grow_tree(
        columns,
        corpus,
        questions,
        classes,
        max_leaves=config.max_leaves,
        min_gain=config.min_gain,
        min_leaf=config.min_leaf,
        floor=config.floor,
    )
    _, leaf_rows = _route_tokens(
        tree, question_index(questions), classes, columns, corpus.word_index
    )
    gmms: dict[str, LeafGmm] = {}
    for leaf_index, letter in enumerate(tree.leaf_letters):
        x = corpus.x[leaf_rows[leaf_index]]
        m_eff = min(config.m, x.shape[0])
        gmm, _ = fit_gmm(
            x,
            m_eff,
            config.seed ^ leaf_index,
            leaf=letter,
            floor=config.floor,
        )
        gmms[letter] = gmm
    return TaggerModel(
        config=replace(config, d=dim),
        classes=classes,
        questions=tuple(questions),
        tree=tree,
        gmms=gmms,
        growth_trace=trace,
    )


def _tag_corpus(
    model: TaggerModel, columns: WordColumns, corpus: Corpus
) -> tuple[np.ndarray, np.ndarray]:
    """``tag_tokens`` on a non-empty corpus whose words are the rows of ``columns``."""
    if corpus.dim != model.config.d:
        raise DimensionMismatchError(
            f"embedding dimension {corpus.dim} of token {corpus.token_ids[0]!r} "
            f"does not match model dimension {model.config.d}"
        )
    leaves, leaf_rows = _route_tokens(
        model.tree, model.question_by_id, model.classes, columns, corpus.word_index
    )
    components = np.empty(len(corpus), dtype=np.intp)
    for leaf, rows in enumerate(leaf_rows):
        if rows.size:
            letter = model.tree.leaf_letters[leaf]
            with _in_float64_range(letter):
                components[rows] = model.gmms[letter].assign(_columns(corpus.x[rows]))
    return leaves, components


def tag_tokens(
    model: TaggerModel,
    lexicon: Sequence[WordEntry],
    samples: Sequence[ProsodySample],
) -> tuple[np.ndarray, np.ndarray]:
    """Tag a batch of tokens; every token's word must be in ``lexicon``.

    Returns two integer arrays aligned with ``samples``: each token's leaf
    index (into ``model.tree.leaf_letters``) and its maximum-posterior
    component, ties to the smallest index. Each leaf's tokens are scored
    together, one leaf at a time; a squared distance that overflows float64
    raises a ``ValidationError`` naming the leaf.
    """
    corpus = Corpus.of(samples)
    if not corpus:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    return _tag_corpus(model, _word_columns(lexicon, corpus.words), corpus)


def tag(model: TaggerModel, word: WordEntry, e: np.ndarray) -> str:
    """Tag one token, e.g. ``"d3"``: ``tag_tokens`` on a one-token corpus."""
    e = np.array(e, dtype=np.float64)  # a copy: the corpus freezes its matrix
    if e.shape != (model.config.d,):
        raise DimensionMismatchError(
            f"embedding shape {e.shape} does not match model dimension {model.config.d}"
        )
    if not np.isfinite(e).all():
        raise ValidationError(f"word {word.word!r}: embedding has non-finite values")
    corpus = Corpus((word.word,), (word.word,), np.zeros(1, dtype=np.int32), e[None, :])
    leaves, components = _tag_corpus(model, WordColumns.of((word,)), corpus)
    return f"{model.tree.leaf_letters[leaves[0]]}{components[0]}"


def tag_inventory(model: TaggerModel) -> list[str]:
    """All emittable tags: leaves in letter order, components ascending."""
    letters = model.tree.leaf_letters
    return [f"{letter}{k}" for letter in letters for k in range(model.gmms[letter].m)]


# ---------------------------------------------------------------------------
# model file: each section is coded by the module that owns its type


def model_to_json(model: TaggerModel) -> str:
    """Canonical JSON text for a model; identical models give identical text."""
    doc = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "classes": model.classes.to_dict(),
        "questions": [q.to_dict() for q in model.questions],
        "tree": model.tree.to_dict(),
        "gmms": {letter: model.gmms[letter].to_dict() for letter in model.tree.leaf_letters},
        "growth_trace": model.growth_trace.to_rows(),
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=False, indent=1) + "\n"


def save_model(model: TaggerModel, sink: str | Path | IO[bytes]) -> None:
    write_bytes(sink, (model_to_json(model).encode("utf-8"),))


def _require(doc: dict, key: str) -> object:
    try:
        return doc[key]
    except KeyError:
        raise ModelFormatError(f"model file is missing {key!r}") from None


def load_model(source: str | Path | IO[bytes]) -> TaggerModel:
    """Parse and validate a model file; never returns a partial model."""
    doc = read_json(source, "model file")
    if not isinstance(doc, dict):
        raise ModelFormatError(
            "model file must contain a JSON object holding the format version, "
            "config, class table, questions, tree and gmms"
        )

    version = _require(doc, "format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {version!r} is not supported; "
            f"this build reads version {FORMAT_VERSION}"
        )
    raw_cfg = _require(doc, "config")
    if not isinstance(raw_cfg, dict):
        raise ModelFormatError("config must be an object")
    try:
        config = _from_fields(TaggerConfig, raw_cfg)
    except (ParseError, ConfigError) as exc:
        raise ModelFormatError(f"malformed config: {exc}") from exc

    try:
        classes = _classes_from_dict(_require(doc, "classes"))
    except (ParseError, ValidationError) as exc:
        raise ModelFormatError(f"malformed class table: {exc}") from exc

    raw_questions = _require(doc, "questions")
    if not isinstance(raw_questions, list):
        raise ModelFormatError("questions must be an array")
    questions: list[Question] = []
    for pos, obj in enumerate(raw_questions):
        if not isinstance(obj, dict):
            raise ModelFormatError(f"question {pos} is not an object")
        try:
            q = _question_from_dict(obj)
            q.validate_against(classes)
        except (ParseError, ConfigError, ValidationError) as exc:
            raise ModelFormatError(f"malformed question {pos}: {exc}") from exc
        questions.append(q)

    tree = _tree_from_dict(_require(doc, "tree"))
    raw_gmms = _require(doc, "gmms")
    if not isinstance(raw_gmms, dict):
        raise ModelFormatError("gmms must be an object")
    gmms = {letter: _gmm_from_dict(letter, obj) for letter, obj in raw_gmms.items()}
    trace = _trace_from_rows(_require(doc, "growth_trace"))
    try:
        return TaggerModel(
            config=config,
            classes=classes,
            questions=tuple(questions),
            tree=tree,
            gmms=gmms,
            growth_trace=trace,
        )
    except (ConfigError, ValidationError) as exc:
        raise ModelFormatError(f"inconsistent model: {exc}") from exc
