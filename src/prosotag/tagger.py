"""Two-stage word prosody tagger: question tree, then per-leaf mixtures.

``fit`` grows the decision tree over all tokens, then fits one GMM per leaf
on that leaf's embeddings. A tag pairs the leaf letter with the chosen
mixture component, written "d3" style. The fitted model serializes to a
single self-contained JSON document (questions and phoneme classes embedded)
so tagging never needs side files.

Per-leaf EM seeds are ``config.seed XOR leaf_index``: reproducible, and a
changed question set cannot silently reshuffle every leaf's initialization.
A leaf holding fewer tokens than ``m`` falls back to one component per token;
its later tag digits simply never occur.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ._io import read_json, write_bytes
from .errors import (
    ConfigError,
    DimensionMismatchError,
    ModelFormatError,
    ParseError,
    ValidationError,
    _check_knobs,
)
from .gaussian import _NUMBER_TYPES, Corpus, ProsodySample, _in_float64_range
from .gmm import LeafGmm, _columns, fit_gmm
from .phonetics import (
    PhonemeClassTable,
    Question,
    WordColumns,
    WordEntry,
    _classes_from_dict,
    _field,
    _question_from_dict,
    question_index,
)
from .tree import (
    DecisionTree,
    GrowthTrace,
    InternalNode,
    LeafNode,
    SplitRecord,
    TreeNode,
    _route_tokens,
    _word_columns,
    grow_tree,
)
# route_word no longer runs here; perfbench/traced.py wraps it by name
from .tree import route_word  # noqa: F401

__all__ = [
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
]

FORMAT_VERSION = 1

_TAG_RE = re.compile(r"^([a-z]+)([0-9]+)$")


@dataclass(frozen=True, order=True)
class ProsodyTag:
    """Leaf letter plus component index; prints as e.g. "d3"."""

    leaf: str
    component: int

    def __post_init__(self) -> None:
        if not self.leaf or not self.leaf.isalpha() or not self.leaf.islower():
            raise ValidationError(f"tag leaf must be lowercase alphabetic, got {self.leaf!r}")
        if self.component < 0:
            raise ValidationError(f"tag component must be non-negative, got {self.component}")

    def __str__(self) -> str:
        return f"{self.leaf}{self.component}"

    @classmethod
    def parse(cls, text: str) -> "ProsodyTag":
        match = _TAG_RE.match(text)
        if match is None:
            raise ValidationError(f"malformed prosody tag {text!r}")
        return cls(leaf=match.group(1), component=int(match.group(2)))


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
    format_version: int = FORMAT_VERSION
    question_by_id: Mapping[int, Question] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "questions", tuple(self.questions))
        object.__setattr__(self, "gmms", dict(self.gmms))
        if self.format_version != FORMAT_VERSION:
            raise ModelFormatError(
                f"model format version {self.format_version} is not supported; "
                f"this build reads version {FORMAT_VERSION}"
            )
        if self.config.d is None:
            raise ConfigError("a fitted model must record the embedding dimension")
        for letter in self.tree.leaf_letters:
            gmm = self.gmms.get(letter)
            if gmm is None:
                raise ModelFormatError(f"leaf {letter!r} has no mixture")
            if gmm.leaf != letter:
                raise ModelFormatError(
                    f"mixture stored under {letter!r} is labeled {gmm.leaf!r}"
                )
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


def tag(model: TaggerModel, word: WordEntry, e: np.ndarray) -> ProsodyTag:
    """Tag one token: ``tag_tokens`` on a one-token corpus."""
    e = np.array(e, dtype=np.float64)  # a copy: the corpus freezes its matrix
    if e.shape != (model.config.d,):
        raise DimensionMismatchError(
            f"embedding shape {e.shape} does not match model dimension {model.config.d}"
        )
    if not np.isfinite(e).all():
        raise ValidationError(f"word {word.word!r}: embedding has non-finite values")
    corpus = Corpus((word.word,), (word.word,), np.zeros(1, dtype=np.int32), e[None, :])
    leaves, components = _tag_corpus(model, WordColumns.of((word,)), corpus)
    return ProsodyTag(
        leaf=model.tree.leaf_letters[leaves[0]], component=int(components[0])
    )


def tag_inventory(model: TaggerModel) -> list[ProsodyTag]:
    """All emittable tags: leaves in letter order, components ascending."""
    return [
        ProsodyTag(leaf=letter, component=k)
        for letter in model.tree.leaf_letters
        for k in range(model.gmms[letter].m)
    ]


# ---------------------------------------------------------------------------
# model file

def _node_from_obj(obj: dict, pos: int) -> TreeNode:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"tree node {pos} is not an object")
    try:
        if "leaf_index" in obj:
            return LeafNode(leaf_index=_field(obj, "leaf_index", int))
        return InternalNode(
            question_id=_field(obj, "question_id", int),
            yes_child=_field(obj, "yes_child", int),
            no_child=_field(obj, "no_child", int),
        )
    except ParseError as exc:
        raise ModelFormatError(f"tree node {pos}: {exc}") from None


def _trace_to_rows(trace: GrowthTrace) -> list[dict]:
    rows = [
        {
            "step": 0,
            "leaf_split": None,
            "question_id": None,
            "gain": None,
            "total_leaf_ll": trace.initial_ll,
            "avg_samples_per_leaf": float(trace.num_tokens),
            "num_tokens": trace.num_tokens,
        }
    ]
    rows += map(asdict, trace.records)
    return rows


def _trace_from_rows(rows: list) -> GrowthTrace:
    if not isinstance(rows, list) or not rows:
        raise ModelFormatError("growth_trace must be a non-empty array")
    head = rows[0]
    if not isinstance(head, dict) or head.get("step") != 0:
        raise ModelFormatError("growth_trace must start with the step-0 row")
    pos = 0
    try:
        initial_ll = _field(head, "total_leaf_ll", float)
        num_tokens = _field(head, "num_tokens", int)
        records = []
        for pos, r in enumerate(rows[1:], 1):
            if not isinstance(r, dict):
                raise ParseError("not an object")
            records.append(
                SplitRecord(
                    step=_field(r, "step", int),
                    leaf_split=_field(r, "leaf_split", str),
                    question_id=_field(r, "question_id", int),
                    gain=_field(r, "gain", float),
                    total_leaf_ll=_field(r, "total_leaf_ll", float),
                    avg_samples_per_leaf=_field(r, "avg_samples_per_leaf", float),
                )
            )
    except ParseError as exc:
        raise ModelFormatError(f"malformed growth_trace row {pos}: {exc}") from None
    return GrowthTrace(initial_ll=initial_ll, num_tokens=num_tokens, records=tuple(records))


def model_to_json(model: TaggerModel) -> str:
    """Canonical JSON text for a model; identical models give identical text."""
    doc = {
        "format_version": model.format_version,
        "config": asdict(model.config),
        "classes": model.classes.to_dict(),
        "questions": [q.to_dict() for q in model.questions],
        "tree": {
            "nodes": [asdict(n) for n in model.tree.nodes],
            "leaf_letters": list(model.tree.leaf_letters),
        },
        "gmms": {
            letter: {
                "weights": model.gmms[letter].weights.tolist(),
                "means": model.gmms[letter].means.tolist(),
                "vars": model.gmms[letter].variances.tolist(),
                "n_samples": model.gmms[letter].n_samples,
            }
            for letter in model.tree.leaf_letters
        },
        "growth_trace": _trace_to_rows(model.growth_trace),
    }
    # tolist() yields Python floats; json emits the shortest exact repr
    return json.dumps(doc, ensure_ascii=False, sort_keys=False, indent=1) + "\n"


def save_model(model: TaggerModel, sink: str | Path | IO[bytes]) -> None:
    write_bytes(sink, (model_to_json(model).encode("utf-8"),))


def _require(doc: dict, key: str) -> object:
    try:
        return doc[key]
    except KeyError:
        raise ModelFormatError(f"model file is missing {key!r}") from None


def _numbers(value: object, ndim: int) -> bool:
    """Whether ``value`` is a JSON array of numbers nested ``ndim`` deep; a
    bool or a string is not a number."""
    if ndim == 0:
        return type(value) in _NUMBER_TYPES
    return type(value) is list and all(_numbers(v, ndim - 1) for v in value)


def _number_array(obj: Mapping, key: str, ndim: int) -> np.ndarray:
    """``obj[key]`` as a float64 array, if it holds numbers only."""
    value = obj[key]
    if not _numbers(value, ndim):
        raise ParseError(f"{key} must be a {ndim}-d array of numbers")
    return np.asarray(value, dtype=np.float64)


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
        config = TaggerConfig(**{f.name: raw_cfg[f.name] for f in fields(TaggerConfig)})
    except KeyError as exc:
        raise ModelFormatError(f"malformed config: missing field {exc}") from None
    except ConfigError as exc:
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
        try:
            q = _question_from_dict(obj)
            q.validate_against(classes)
        except (TypeError, ParseError, ConfigError, ValidationError) as exc:
            raise ModelFormatError(f"malformed question {pos}: {exc}") from exc
        questions.append(q)

    raw_tree = _require(doc, "tree")
    if not isinstance(raw_tree, dict):
        raise ModelFormatError("tree must be an object")
    raw_nodes = raw_tree.get("nodes")
    raw_letters = raw_tree.get("leaf_letters")
    if not isinstance(raw_nodes, list) or not isinstance(raw_letters, list):
        raise ModelFormatError("tree must carry nodes and leaf_letters arrays")
    try:
        tree = DecisionTree(
            nodes=tuple(_node_from_obj(o, i) for i, o in enumerate(raw_nodes)),
            leaf_letters=tuple(str(s) for s in raw_letters),
        )
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed tree: {exc}") from exc
    tree.validate()

    raw_gmms = _require(doc, "gmms")
    if not isinstance(raw_gmms, dict):
        raise ModelFormatError("gmms must be an object")
    gmms: dict[str, LeafGmm] = {}
    for letter, obj in raw_gmms.items():
        if not isinstance(obj, dict):
            raise ModelFormatError(f"gmm for leaf {letter!r} is not an object")
        try:
            gmms[letter] = LeafGmm(
                leaf=letter,
                weights=_number_array(obj, "weights", 1),
                means=_number_array(obj, "means", 2),
                variances=_number_array(obj, "vars", 2),
                n_samples=_field(obj, "n_samples", int),
            )
        except (
            KeyError, TypeError, ValueError, OverflowError, ParseError, ValidationError
        ) as exc:
            raise ModelFormatError(f"malformed gmm for leaf {letter!r}: {exc}") from exc

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
