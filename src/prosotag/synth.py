"""Synthetic corpora with planted two-stage structure, plus evaluation.

The generator plants both layers the tagger is supposed to find. Archetype i
gets words of exactly 3*(i+1) phonemes (3, 6, 9, ...), so a PhonemeCountGt
question between adjacent counts separates archetypes perfectly: counts
{3, 6} split on "more than 4 phonemes". Within an archetype, each token's
embedding is drawn from one of ``components_per_archetype`` planted
Gaussians whose means sit ``component_separation`` apart (within-component
sigma fixed at 1, so separation is the single difficulty knob).

Geometry: archetype base means are spaced along embedding coordinate 0;
component means within an archetype sit at separation/sqrt(2) along distinct
later coordinates, a regular simplex with exact pairwise distance equal to
the separation. This needs d >= components_per_archetype + 1.

The planted labels are a plain dict from token id to (archetype index,
component index); ``adjusted_rand_index`` scores recovered tags against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Hashable, Iterable, Mapping

import numpy as np

from ._io import _field, json_lines, write_lines
from .errors import ConfigError, ParseError, ValidationError, _check_knobs
from .gaussian import Corpus
from .phonetics import (
    PhonemeClassTable,
    Question,
    QuestionKind,
    WordEntry,
    default_classes,
)

__all__ = [
    "SynthSpec",
    "generate",
    "adjusted_rand_index",
    "save_ground_truth",
    "load_ground_truth",
]

# profiles use one phoneme-count slot per archetype; word length caps at 78
MAX_ARCHETYPES = 26


@dataclass(frozen=True)
class SynthSpec:
    """Generator knobs; all counts are per the level above them."""

    num_leaf_archetypes: int = 10
    words_per_archetype: int = 50
    tokens_per_word: int = 10
    components_per_archetype: int = 5
    d: int = 16
    component_separation: float = 8.0
    seed: int = 0
    class_distinctions: bool = False

    def __post_init__(self) -> None:
        _check_knobs(**{k: v for k, v in vars(self).items() if k != "class_distinctions"})
        if self.num_leaf_archetypes > MAX_ARCHETYPES:
            raise ConfigError(
                f"cannot construct {self.num_leaf_archetypes} distinct phonetic "
                f"profiles; at most {MAX_ARCHETYPES} are supported"
            )
        if self.d < self.components_per_archetype + 1:
            raise ConfigError(
                f"d={self.d} is too small to separate {self.components_per_archetype} "
                f"components; need d >= components_per_archetype + 1"
            )

    @property
    def total_tokens(self) -> int:
        return self.num_leaf_archetypes * self.words_per_archetype * self.tokens_per_word


def _phoneme_count(archetype: int) -> int:
    return 3 * (archetype + 1)


def _planted_questions(spec: SynthSpec) -> list[Question]:
    questions: list[Question] = []
    for a in range(spec.num_leaf_archetypes - 1):
        # counts 3(a+1) vs 3(a+2): any threshold between them works; pick count+1
        questions.append(
            Question(
                id=len(questions),
                kind=QuestionKind.PHONEME_COUNT_GT,
                int_param=_phoneme_count(a) + 1,
            )
        )
    if spec.class_distinctions:
        questions.append(
            Question(
                id=len(questions),
                kind=QuestionKind.STARTS_WITH_CLASS,
                class_param="Vowel",
            )
        )
    return questions


def _component_means(spec: SynthSpec) -> np.ndarray:
    """(components, d) simplex with exact pairwise distance = separation."""
    means = np.zeros((spec.components_per_archetype, spec.d))
    for k in range(spec.components_per_archetype):
        means[k, 1 + k] = spec.component_separation / np.sqrt(2.0)
    return means


def _make_word(
    name: str,
    rng: np.random.Generator,
    highs: np.ndarray,
    shift: np.ndarray,
    symbols: list[str],
    vowels: list[str],
    vowel_initial: bool,
) -> WordEntry:
    """One word; all its phonemes come from one bounded draw.

    ``symbols`` is the consonant pool followed by the vowel pool. Position j
    draws below ``highs[j]`` (the size of its pool) and ``shift[j]`` moves
    the draw into that pool, so the stream equals one draw per phoneme.
    """
    phonemes = [symbols[i] for i in (rng.integers(0, highs) + shift).tolist()]
    if vowel_initial:
        phonemes[0] = vowels[rng.integers(len(vowels))]
    breaks = tuple(range(0, len(phonemes), 3))
    stress = int(rng.integers(len(breaks)))
    return WordEntry(
        word=name,
        phonemes=tuple(phonemes),
        syllable_breaks=breaks,
        stress_syllable=stress,
    )


def generate(
    spec: SynthSpec, classes: PhonemeClassTable | None = None
) -> tuple[list[WordEntry], list[Question], Corpus, dict[str, tuple[int, int]]]:
    """Build a corpus with planted structure; identical bytes for one seed.

    Each word draws its phonemes, then its ``tokens_per_word x d`` normals in
    one call; token t of a word has planted component ``t % components``.
    """
    if classes is None:
        classes = default_classes()
    vowels = sorted(classes.members("Vowel"))
    consonant_set: set[str] = set()
    for name in classes.classes:
        if name != "Vowel":
            consonant_set |= classes.members(name)
    consonants = sorted(consonant_set - set(vowels))
    if not consonants:
        raise ConfigError("class table has no consonant phonemes to build words from")
    symbols = consonants + vowels

    rng = np.random.default_rng(spec.seed)
    per_word, d = spec.tokens_per_word, spec.d
    comps = np.arange(per_word) % spec.components_per_archetype
    comp_rows = _component_means(spec)[comps]
    x = np.empty((spec.total_tokens, d))
    lexicon: list[WordEntry] = []
    for a in range(spec.num_leaf_archetypes):
        base = np.zeros(d)
        base[0] = a * spec.component_separation
        means = base + comp_rows  # per-token planted means of one word
        vowel_pos = np.arange(_phoneme_count(a)) % 3 == 1
        highs = np.where(vowel_pos, len(vowels), len(consonants))
        shift = np.where(vowel_pos, len(consonants), 0)
        vowel_initial = spec.class_distinctions and a % 2 == 1
        for w in range(spec.words_per_archetype):
            row = len(lexicon) * per_word
            lexicon.append(
                _make_word(f"w{a:02d}_{w:03d}", rng, highs, shift, symbols, vowels, vowel_initial)
            )
            np.add(means, rng.standard_normal((per_word, d)), out=x[row : row + per_word])

    words = [entry.word for entry in lexicon]
    suffixes = [f":{t:03d}" for t in range(per_word)]
    token_ids = [word + suffix for word in words for suffix in suffixes]
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValidationError(f"token {token_ids[int(bad[0])]!r}: embedding has non-finite values")
    word_index = np.repeat(np.arange(len(words), dtype=np.int32), per_word)
    tokens_per_archetype = spec.words_per_archetype * per_word
    archetypes = [a for a in range(spec.num_leaf_archetypes) for _ in range(tokens_per_archetype)]
    labels = dict(zip(token_ids, zip(archetypes, comps.tolist() * len(words))))
    corpus = Corpus(token_ids, words, word_index, x)
    return lexicon, _planted_questions(spec), corpus, labels


# ---------------------------------------------------------------------------
# evaluation


def _pairs(counts: np.ndarray) -> float:
    c = counts.astype(np.float64)
    return float((c * (c - 1.0) / 2.0).sum())


def _codes(labels: Iterable[Hashable]) -> np.ndarray:
    """Each label's index among the distinct labels, numbered in order of
    first appearance; labels are the same exactly when they are equal."""
    index: dict[Hashable, int] = {}
    try:
        return np.array([index.setdefault(label, len(index)) for label in labels], dtype=np.intp)
    except TypeError as exc:
        raise ValidationError(f"labels must be hashable: {exc}") from None


def adjusted_rand_index(pred: Mapping[str, Hashable], truth: Mapping[str, Hashable]) -> float:
    """Chance-corrected partition agreement over a shared, non-empty token set."""
    if pred.keys() != truth.keys():
        only_pred = len(pred.keys() - truth.keys())
        only_truth = len(truth.keys() - pred.keys())
        raise ValidationError(
            f"token sets differ: {only_pred} only in prediction, {only_truth} only in truth"
        )
    if not pred:
        raise ValidationError("no tokens to compare")
    row, col = _codes(pred.values()), _codes(map(truth.__getitem__, pred))
    table = np.zeros((row.max() + 1, col.max() + 1), dtype=np.int64)
    np.add.at(table, (row, col), 1)

    index = _pairs(table.ravel())
    sum_rows = _pairs(table.sum(axis=1))
    sum_cols = _pairs(table.sum(axis=0))
    total = _pairs(np.array([len(pred)]))
    expected = sum_rows * sum_cols / total if total > 0 else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # both partitions trivial (all-singletons or one cluster): agreement is exact
        return 1.0
    return (index - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# ground-truth file


def _is_label_pair(label: object) -> bool:
    """Whether ``label`` holds exactly two integers, neither a bool."""
    try:
        pair = tuple(label)  # type: ignore[call-overload]
    except TypeError:
        return False
    return len(pair) == 2 and all(
        type(v) is not bool and isinstance(v, (int, np.integer)) for v in pair
    )


def save_ground_truth(truth: Mapping[str, tuple[int, int]], sink: str | Path | IO[bytes]) -> None:
    """One JSON line per token, as ``json.dumps`` writes it. As
    ``load_ground_truth`` requires, there is at least one token, each token
    id is a string and each label a pair of integers, not bools (numpy
    integers are written as plain integers); any fault is a
    ``ValidationError`` before anything is written."""
    if not truth:
        raise ValidationError("ground truth has no tokens")
    labels = truth.values()
    if not (
        set(map(type, truth)) <= {str}
        and set(map(type, labels)) <= {tuple}
        and set(map(len, labels)) == {2}
        and set(map(type, chain.from_iterable(labels))) <= {int}
    ):
        for token, label in truth.items():  # the first fault, for its message
            if not (isinstance(token, str) and _is_label_pair(label)):
                raise ValidationError(
                    f"token {token!r}: ground truth needs a string token id "
                    f"and a pair of integer labels, got {label!r}"
                )
    lines = [
        f'{{"token_id": {encode_basestring_ascii(token)}, "archetype": {a}, "component": {c}}}'
        for token, (a, c) in truth.items()
    ]
    write_lines(sink, lines)


def load_ground_truth(source: str | Path | IO[bytes]) -> dict[str, tuple[int, int]]:
    """The labels ``save_ground_truth`` wrote; a file of none is a ``ValidationError``."""
    labels: dict[str, tuple[int, int]] = {}
    for lineno, obj in json_lines(source):
        try:
            token = _field(obj, "token_id", str)
            pair = (_field(obj, "archetype", int), _field(obj, "component", int))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: malformed ground-truth record: {exc}") from None
        if token in labels:
            raise ParseError(f"line {lineno}: duplicate token id {token!r}")
        labels[token] = pair
    if not labels:
        raise ValidationError("ground truth has no tokens")
    return labels
