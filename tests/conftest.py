"""Shared fixtures and random-instance builders."""

from __future__ import annotations

import numpy as np
import pytest

from prosotag import (
    PhonemeClassTable,
    ProsodySample,
    Question,
    QuestionKind,
    WordEntry,
    default_classes,
)


# bad knob values; every function that takes knobs rejects each one it takes
KNOB_REJECTS = [
    {"m": 0},
    {"max_leaves": 0},
    {"min_leaf": -1},
    {"min_gain": -0.5},
    {"floor": 0.0},
    {"seed": -1},
    {"d": 0},
    {"seed": 1.5},
    {"seed": True},
    {"m": 2.5},
    {"max_leaves": 2.5},
    {"min_leaf": True},
    {"d": 16.9},
    {"min_gain": "0"},
    {"min_gain": float("nan")},
    {"floor": float("inf")},
    {"floor": None},
    {"floor": float("nan")},
    {"m": True},
    {"m": 2.0},
    {"d": 16.0},
    {"seed": None},
]


def knob_rejects(*names: str) -> list[dict]:
    """The ``KNOB_REJECTS`` cases that set only knobs among ``names``."""
    return [kwargs for kwargs in KNOB_REJECTS if set(kwargs) <= set(names)]


@pytest.fixture(scope="session")
def classes() -> PhonemeClassTable:
    return default_classes()


def assert_monotone_trace(trace, rel_tol: float = 1e-9) -> None:
    """Every EM fit must produce a non-decreasing LL trace within tolerance."""
    for prev, curr in zip(trace, trace[1:]):
        assert curr >= prev - rel_tol * max(1.0, abs(prev)), (
            f"LL trace decreased: {prev} -> {curr}"
        )


def random_word(rng: np.random.Generator, name: str, classes: PhonemeClassTable) -> WordEntry:
    """A structurally valid word; phonemes may fall outside every class."""
    pool = sorted(set().union(*classes.classes.values())) + ["ZZ", "Q7", "XX"]
    count = int(rng.integers(1, 11))
    phonemes = tuple(pool[rng.integers(len(pool))] for _ in range(count))
    breaks = [0]
    for pos in range(1, count):
        if rng.random() < 0.35:
            breaks.append(pos)
    stress = int(rng.integers(len(breaks))) if rng.random() < 0.8 else None
    return WordEntry(
        word=name,
        phonemes=phonemes,
        syllable_breaks=tuple(breaks),
        stress_syllable=stress,
    )


def random_question(rng: np.random.Generator, qid: int, classes: PhonemeClassTable) -> Question:
    kind = list(QuestionKind)[rng.integers(len(QuestionKind))]
    names = sorted(classes.classes)
    if kind in (
        QuestionKind.PHONEME_COUNT_GT,
        QuestionKind.SYLLABLE_COUNT_GT,
        QuestionKind.STRESS_ON_SYLLABLE,
    ):
        return Question(id=qid, kind=kind, int_param=int(rng.integers(0, 10)))
    if kind is QuestionKind.ENDS_CLOSED_SYLLABLE:
        return Question(id=qid, kind=kind)
    return Question(id=qid, kind=kind, class_param=names[rng.integers(len(names))])


def random_instance(
    rng: np.random.Generator,
    classes: PhonemeClassTable,
    *,
    max_words: int = 50,
    max_questions: int = 8,
    max_tokens: int = 500,
    max_d: int = 8,
):
    """A random corpus for tree-growth testing.

    Returns (words, samples, vectors_by_word, questions). Question ids are
    non-contiguous on purpose, to exercise id-order tie-breaking.
    """
    num_words = int(rng.integers(2, max_words + 1))
    d = int(rng.integers(1, max_d + 1))
    words = [random_word(rng, f"word{i:03d}", classes) for i in range(num_words)]

    num_questions = int(rng.integers(1, max_questions + 1))
    id_pool = rng.permutation(max_questions * 3)[:num_questions]
    questions = [random_question(rng, int(qid), classes) for qid in sorted(id_pool)]

    samples: list[ProsodySample] = []
    vectors_by_word: dict[str, list[list[float]]] = {w.word: [] for w in words}
    budget = int(rng.integers(num_words, max_tokens + 1))
    per_word = np.maximum(rng.multinomial(budget - num_words, np.full(num_words, 1.0 / num_words)) + 1, 1)
    for w, count in zip(words, per_word):
        for t in range(int(count)):
            vec = rng.normal(scale=2.0, size=d)
            samples.append(
                ProsodySample(token_id=f"{w.word}:{t}", word=w.word, embedding=vec)
            )
            vectors_by_word[w.word].append([float(x) for x in vec])
    return words, samples, vectors_by_word, questions


def every_kind(classes: PhonemeClassTable, big_param: int) -> list[Question]:
    """Questions of all seven kinds: every class, count thresholds 0..10 and
    one parameter past int64."""
    kinds = []
    for kind in (
        QuestionKind.PHONEME_COUNT_GT,
        QuestionKind.SYLLABLE_COUNT_GT,
        QuestionKind.STRESS_ON_SYLLABLE,
    ):
        kinds += [(kind, param, None) for param in [*range(11), big_param]]
    kinds.append((QuestionKind.ENDS_CLOSED_SYLLABLE, None, None))
    for kind in (
        QuestionKind.STARTS_WITH_CLASS,
        QuestionKind.ENDS_WITH_CLASS,
        QuestionKind.CONTAINS_CLASS,
    ):
        kinds += [(kind, None, name) for name in sorted(classes.classes)]
    return [
        Question(id=i, kind=kind, int_param=ip, class_param=cp)
        for i, (kind, ip, cp) in enumerate(kinds)
    ]
