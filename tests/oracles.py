"""Independent reference implementations used to verify the package.

Everything here is deliberately written the slow, obvious way - pure Python
loops, math.log, explicit pair counting, one question for one word, one word
down the tree - and shares no code with the package under test: only its
data types are imported. ``answer_question`` and ``route_word`` are the
scalar references for the package's column code (``WordColumns.answer`` and
``tree._route_tokens``, and the public one-row calls built on them).
``embedding_records`` is the reference JSON-lines embedding reader: one
``json.loads`` a line. ``binary_corpus`` is the reference binary embedding
reader: one record at a time, checked as it is read.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Hashable, Mapping, Sequence

import numpy as np

from prosotag import (
    ConfigError,
    Corpus,
    DecisionTree,
    LeafNode,
    ModelFormatError,
    ParseError,
    PhonemeClassTable,
    Question,
    QuestionKind,
    ValidationError,
    WordEntry,
)


def answer_question(q: Question, w: WordEntry, classes: PhonemeClassTable) -> bool:
    """Evaluate one question against one word.

    A word "ends with a closed syllable" iff its final phoneme is not in the
    "Vowel" class. A stress question answers False for words with unmarked
    stress. Unknown class names raise :class:`ConfigError`.
    """
    kind = q.kind
    if kind is QuestionKind.PHONEME_COUNT_GT:
        return len(w.phonemes) > q.int_param
    if kind is QuestionKind.SYLLABLE_COUNT_GT:
        return w.num_syllables > q.int_param
    if kind is QuestionKind.ENDS_CLOSED_SYLLABLE:
        return w.phonemes[-1] not in classes.members("Vowel")
    if kind is QuestionKind.STARTS_WITH_CLASS:
        return w.phonemes[0] in classes.members(q.class_param)
    if kind is QuestionKind.ENDS_WITH_CLASS:
        return w.phonemes[-1] in classes.members(q.class_param)
    if kind is QuestionKind.CONTAINS_CLASS:
        members = classes.members(q.class_param)
        return any(p in members for p in w.phonemes)
    if kind is QuestionKind.STRESS_ON_SYLLABLE:
        return w.stress_syllable == q.int_param
    raise ConfigError(f"unhandled question kind {kind!r}")


def route_word(
    tree: DecisionTree,
    word: WordEntry,
    questions: Sequence[Question] | Mapping[int, Question],
    classes: PhonemeClassTable,
) -> str:
    """Walk one word from the root to its leaf letter, one node at a time.

    A question id stored in the tree but absent from the question set, or a
    walk longer than the node count, is a :class:`ModelFormatError`.
    """
    index = questions if isinstance(questions, Mapping) else {q.id: q for q in questions}
    pos = 0
    for _ in range(len(tree.nodes)):
        node = tree.nodes[pos]
        if isinstance(node, LeafNode):
            return tree.leaf_letters[node.leaf_index]
        try:
            question = index[node.question_id]
        except KeyError:
            raise ModelFormatError(
                f"tree references unknown question id {node.question_id}"
            ) from None
        pos = node.yes_child if answer_question(question, word, classes) else node.no_child
    raise ModelFormatError("tree walk did not terminate; node graph is cyclic")


def embedding_records(data: bytes) -> list[tuple[str, str, list[float]]]:
    """(token id, word, embedding) of each non-blank line of a JSON-lines
    embedding file: each line decoded by ``json.loads``, each number
    converted by ``float``. No record is checked."""
    records = []
    for line in data.decode("utf-8").split("\n"):
        if line.strip(" \t\r"):
            obj = json.loads(line)
            records.append((obj["token_id"], obj["word"], [float(v) for v in obj["embedding"]]))
    return records


def binary_corpus(data: bytes) -> Corpus:
    """A binary embedding file from the bytes after its magic, read one
    record at a time: each string is decoded where it is read (a word only
    where it first appears), and the first fault raises, naming its record.
    Non-finite values, then repeated token ids, are checked once every record
    is read."""
    size = len(data)
    if size < 4:
        raise ParseError("binary embedding file truncated before header")
    (dim,) = struct.unpack_from("<I", data)
    if dim == 0:
        raise ParseError("binary embedding file declares dimension 0")
    width = 4 * dim
    token_ids: list[str] = []
    word_index: list[int] = []
    position: dict[bytes, int] = {}
    words: list[str] = []
    rows: list[tuple[float, ...]] = []
    offset = 4
    while offset < size:
        record = len(token_ids)
        strings = []
        for _ in range(2):  # word, then token id
            if offset + 2 > size:
                raise ParseError(f"record {record}: truncated record header")
            end = offset + 2 + (data[offset] | data[offset + 1] << 8)
            if end > size:
                raise ParseError(f"record {record}: truncated string payload")
            strings.append(data[offset + 2 : end])
            offset = end
        if offset + width > size:
            raise ParseError(f"record {record}: truncated embedding payload")
        rows.append(struct.unpack_from(f"<{dim}f", data, offset))
        offset += width
        word, token = strings
        try:
            token_ids.append(token.decode("utf-8"))
            index = position.get(word)
            if index is None:
                index = position[word] = len(words)
                words.append(word.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ParseError(f"record {record}: text is not valid UTF-8: {exc.reason}") from None
        word_index.append(index)
    for record, row in enumerate(rows):
        if not all(math.isfinite(v) for v in row):
            raise ValidationError(
                f"record {record}: token {token_ids[record]!r}: embedding has non-finite values"
            )
    seen: set[str] = set()
    for record, token_id in enumerate(token_ids):
        if token_id in seen:
            raise ParseError(f"record {record}: duplicate token id {token_id!r}")
        seen.add(token_id)
    x = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return Corpus(token_ids, words, np.array(word_index, dtype=np.int32), x)


def closed_form_ll(vectors: Sequence[Sequence[float]], floor: float = 1e-6) -> float:
    """Self-modeled Gaussian log-likelihood, dimension by dimension."""
    n = len(vectors)
    assert n > 0
    d = len(vectors[0])
    total = 0.0
    for j in range(d):
        column = [float(v[j]) for v in vectors]
        mean = sum(column) / n
        var = sum(x * x for x in column) / n - mean * mean
        var = max(var, floor)
        total += -(n / 2.0) * (math.log(2.0 * math.pi * var) + 1.0)
    return total


def per_sample_ll(vectors: Sequence[Sequence[float]], floor: float = 1e-6) -> float:
    """Sum of per-sample log densities under the node's own ML Gaussian."""
    n = len(vectors)
    d = len(vectors[0])
    means = [sum(v[j] for v in vectors) / n for j in range(d)]
    variances = []
    for j in range(d):
        var = sum((v[j] - means[j]) ** 2 for v in vectors) / n
        variances.append(max(var, floor))
    total = 0.0
    for v in vectors:
        for j in range(d):
            total += -0.5 * (
                math.log(2.0 * math.pi * variances[j])
                + (v[j] - means[j]) ** 2 / variances[j]
            )
    return total


def diag_gaussian_log_density(
    e: Sequence[float], mean: Sequence[float], var: Sequence[float]
) -> float:
    total = 0.0
    for x, mu, v in zip(e, mean, var):
        total += -0.5 * (math.log(2.0 * math.pi * v) + (x - mu) ** 2 / v)
    return total


def pair_counting_ari(
    a: Mapping[str, Hashable], b: Mapping[str, Hashable]
) -> float:
    """Adjusted Rand index by brute force over all token pairs."""
    assert a.keys() == b.keys()
    tokens = sorted(a)
    same_same = same_diff = diff_same = diff_diff = 0
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens)):
            in_a = a[tokens[i]] == a[tokens[j]]
            in_b = b[tokens[i]] == b[tokens[j]]
            if in_a and in_b:
                same_same += 1
            elif in_a:
                same_diff += 1
            elif in_b:
                diff_same += 1
            else:
                diff_diff += 1
    numerator = 2.0 * (same_same * diff_diff - same_diff * diff_same)
    denominator = (same_same + same_diff) * (same_diff + diff_diff) + (
        same_same + diff_same
    ) * (diff_same + diff_diff)
    if denominator == 0:
        return 1.0
    return numerator / denominator


def greedy_oracle(
    words: Sequence[WordEntry],
    vectors_by_word: Mapping[str, Sequence[Sequence[float]]],
    questions: Sequence[Question],
    classes: PhonemeClassTable,
    *,
    max_leaves: int,
    min_gain: float = 0.0,
    min_leaf: int = 10,
    floor: float = 1e-6,
) -> tuple[list[list[int]], list[tuple[int, int, float]]]:
    """Exhaustive greedy growth: all (leaf, question) gains recomputed fresh
    every step. Returns final leaves as word-index lists in creation order,
    plus one (leaf_position, question_id, gain) triple per split.

    Ties: strictly-greater comparisons keep the earliest leaf and, within a
    leaf, the smallest question id.
    """
    ordered = sorted(questions, key=lambda q: q.id)
    min_child = max(min_leaf, 1)

    def vectors_of(widxs: Sequence[int]) -> list[Sequence[float]]:
        out: list[Sequence[float]] = []
        for i in widxs:
            out.extend(vectors_by_word[words[i].word])
        return out

    def token_count(widxs: Sequence[int]) -> int:
        return sum(len(vectors_by_word[words[i].word]) for i in widxs)

    leaves: list[list[int]] = [list(range(len(words)))]
    splits: list[tuple[int, int, float]] = []
    while len(leaves) < max_leaves:
        best: tuple[float, int, int, list[int], list[int]] | None = None
        for pos, widxs in enumerate(leaves):
            parent = closed_form_ll(vectors_of(widxs), floor)
            for q in ordered:
                yes = [i for i in widxs if answer_question(q, words[i], classes)]
                no = [i for i in widxs if not answer_question(q, words[i], classes)]
                if token_count(yes) < min_child or token_count(no) < min_child:
                    continue
                gain = (
                    closed_form_ll(vectors_of(yes), floor)
                    + closed_form_ll(vectors_of(no), floor)
                    - parent
                )
                if best is None or gain > best[0]:
                    best = (gain, pos, q.id, yes, no)
        if best is None:
            break
        gain, pos, qid, yes, no = best
        if gain < min_gain:
            break
        splits.append((pos, qid, gain))
        leaves.pop(pos)
        leaves.append(yes)
        leaves.append(no)
    return leaves, splits
