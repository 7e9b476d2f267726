"""Binary decision tree grown by greedy log-likelihood gain.

Growth starts from a single root leaf holding every corpus word. At each step
the (leaf, question) pair with the largest likelihood gain is split, until the
leaf budget is reached, the best gain falls below the threshold, or no valid
split remains. Words move as whole types: a question partitions a leaf's word
set, and every token of a word follows its word.

Determinism rules: question ties break toward the smallest question id, leaf
ties toward the earliest-created leaf, and a split creates its yes child
before its no child. Leaf letters ("a", "b", ..., "aa" after 26) name the
current leaves in creation order; the letter recorded in a trace row is the
split leaf's letter at that step, and the final tree's letters are therefore
contiguous starting at "a".

A ``DecisionTree`` checks its structure when built, so the walk from the
root of any tree ends at a leaf. ``_route_tokens`` routes a word list down
the tree as index sets, for ``fit`` and tagging; ``route_word`` is its
one-word call. The model file's tree and growth-trace sections are coded
here, and ``growth_report`` / ``write_growth_csv`` tabulate the trace.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Mapping, Sequence

import numpy as np

from ._io import _exact_fields, _field, _from_fields, write_bytes
from .errors import ModelFormatError, ParseError, ValidationError, _check_knobs
from .gaussian import Corpus, ProsodySample, _in_float64_range, _ll_from_moments
from .phonetics import (
    PhonemeClassTable,
    Question,
    WordColumns,
    WordEntry,
    _offsets,
    question_index,
)
# answer_question no longer runs here; perfbench/traced.py wraps it by name
from .phonetics import answer_question  # noqa: F401

__all__ = [
    "InternalNode",
    "LeafNode",
    "TreeNode",
    "DecisionTree",
    "SplitRecord",
    "GrowthTrace",
    "leaf_letter",
    "grow_tree",
    "route_word",
    "growth_report",
    "write_growth_csv",
]


def leaf_letter(index: int) -> str:
    """Letter for a leaf index: 0 -> "a", 25 -> "z", 26 -> "aa"."""
    if type(index) is not int or index < 0:
        raise ValidationError(f"leaf index must be a non-negative int, got {index!r}")
    letters: list[str] = []
    index += 1
    while index:
        index, rem = divmod(index - 1, 26)
        letters.append(chr(ord("a") + rem))
    return "".join(reversed(letters))


@dataclass(frozen=True)
class InternalNode:
    question_id: int
    yes_child: int
    no_child: int

    __post_init__ = _exact_fields


@dataclass(frozen=True)
class LeafNode:
    leaf_index: int

    __post_init__ = _exact_fields


TreeNode = InternalNode | LeafNode


@dataclass(frozen=True)
class DecisionTree:
    """Immutable fitted tree; node 0 is the root. ``leaf_letters`` is derived:
    leaf index i is lettered ``leaf_letter(i)``."""

    nodes: tuple[TreeNode, ...]
    leaf_letters: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """One rooted tree, leaf indices 0..num_leaves-1 once each."""
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ModelFormatError("tree has no nodes")
        referenced: set[int] = set()
        leaf_indices: list[int] = []
        for pos, node in enumerate(self.nodes):
            if isinstance(node, InternalNode):
                for child in (node.yes_child, node.no_child):
                    if not (0 <= child < len(self.nodes)) or child == pos:
                        raise ModelFormatError(f"node {pos}: child index {child} out of range")
                    if child in referenced:
                        raise ModelFormatError(f"node {child} has multiple parents")
                    if child == 0:
                        raise ModelFormatError(f"node {pos}: the root node cannot be a child")
                    referenced.add(child)
            else:
                leaf_indices.append(node.leaf_index)
        # each node has at most one parent and the root none, so the walk
        # from the root meets no node twice; it must meet them all
        reached, pending = 0, [0]
        while pending:
            node = self.nodes[pending.pop()]
            reached += 1
            if isinstance(node, InternalNode):
                pending += (node.yes_child, node.no_child)
        if reached != len(self.nodes):
            raise ModelFormatError("tree nodes are not a single rooted structure")
        if sorted(leaf_indices) != list(range(len(leaf_indices))):
            raise ModelFormatError(
                "tree leaf indices must cover 0..num_leaves-1 exactly once"
            )
        letters = tuple(map(leaf_letter, range(len(leaf_indices))))
        object.__setattr__(self, "leaf_letters", letters)

    @property
    def num_leaves(self) -> int:
        return len(self.leaf_letters)

    def to_dict(self) -> dict:
        return {
            "nodes": [asdict(n) for n in self.nodes],
            "leaf_letters": list(self.leaf_letters),
        }


def _node_from_obj(obj: object, pos: int) -> TreeNode:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"tree node {pos} is not an object")
    try:
        return _from_fields(LeafNode if "leaf_index" in obj else InternalNode, obj)
    except (ParseError, ValidationError) as exc:
        raise ModelFormatError(f"tree node {pos}: {exc}") from None


def _tree_from_dict(obj: object) -> DecisionTree:
    """A tree record (the ``DecisionTree.to_dict`` form, letters included) as a
    checked tree; any fault is a ``ModelFormatError``."""
    if not isinstance(obj, dict):
        raise ModelFormatError("tree must be an object")
    nodes, letters = obj.get("nodes"), obj.get("leaf_letters")
    if not isinstance(nodes, list) or not isinstance(letters, list):
        raise ModelFormatError("tree must carry nodes and leaf_letters arrays")
    tree = DecisionTree(tuple(_node_from_obj(o, i) for i, o in enumerate(nodes)))
    if letters != list(tree.leaf_letters):
        raise ModelFormatError("tree leaf letters are not contiguous from 'a'")
    return tree


@dataclass(frozen=True)
class SplitRecord:
    step: int
    leaf_split: str
    question_id: int
    gain: float
    total_leaf_ll: float
    avg_samples_per_leaf: float

    __post_init__ = _exact_fields


@dataclass(frozen=True)
class GrowthTrace:
    """Per-split growth log, plus the initial single-leaf state.

    After step k the tree has k+1 leaves; ``records`` is empty for a fit that
    never split.
    """

    initial_ll: float
    num_tokens: int
    records: tuple[SplitRecord, ...] = ()

    __post_init__ = _exact_fields

    def to_rows(self) -> list[dict]:
        """The model file's ``growth_trace`` rows: a step-0 row for the single
        root leaf, then one row per ``SplitRecord``."""
        head = {
            "step": 0,
            "leaf_split": None,
            "question_id": None,
            "gain": None,
            "total_leaf_ll": self.initial_ll,
            "avg_samples_per_leaf": float(self.num_tokens),
            "num_tokens": self.num_tokens,
        }
        return [head, *map(asdict, self.records)]


def _trace_from_rows(rows: object) -> GrowthTrace:
    """``GrowthTrace.to_rows`` rows as a trace; any fault is a ``ModelFormatError``."""
    if not isinstance(rows, list) or not rows:
        raise ModelFormatError("growth_trace must be a non-empty array")
    head = rows[0]
    if not isinstance(head, dict) or type(head.get("step")) is not int or head["step"]:
        raise ModelFormatError("growth_trace must start with the step-0 row")
    pos = 0
    try:
        # the head row's keys are not the trace's field names: checked as keys
        initial_ll = _field(head, "total_leaf_ll", float)
        num_tokens = _field(head, "num_tokens", int)
        records = []
        for pos, r in enumerate(rows[1:], 1):
            if not isinstance(r, dict):
                raise ParseError("not an object")
            records.append(_from_fields(SplitRecord, r))
    except (ParseError, ValidationError) as exc:
        raise ModelFormatError(f"malformed growth_trace row {pos}: {exc}") from None
    return GrowthTrace(initial_ll=initial_ll, num_tokens=num_tokens, records=tuple(records))


def growth_report(trace: GrowthTrace) -> list[tuple[int, float, float]]:
    """Rows of (num_leaves, total_leaf_ll, avg_samples_per_leaf), initial row first."""
    return [
        (row["step"] + 1, row["total_leaf_ll"], row["avg_samples_per_leaf"])
        for row in trace.to_rows()
    ]


def _growth_csv(trace: GrowthTrace) -> bytes:
    """``growth_report`` as CSV with a header row; floats in shortest repr."""
    rows = [f"{leaves},{ll!r},{avg!r}\n" for leaves, ll, avg in growth_report(trace)]
    return ("num_leaves,total_leaf_ll,avg_samples_per_leaf\n" + "".join(rows)).encode("ascii")


def write_growth_csv(trace: GrowthTrace, sink: str | Path | IO[bytes]) -> None:
    write_bytes(sink, (_growth_csv(trace),))


# ---------------------------------------------------------------------------
# growth internals


@dataclass(eq=False)
class _Leaf:
    node_pos: int
    widx: np.ndarray
    ll: float
    best: tuple[int, float] | None = None  # (question column, gain)


# rows of one gathered block of word tokens in ``_Growth``: bounds its
# temporaries whatever the corpus size
_GATHER_ROWS = 4096


class _Growth:
    """Per-fit arrays: word stats, question answers, and split evaluation."""

    def __init__(
        self,
        columns: WordColumns,
        corpus: Corpus,
        questions: Sequence[Question],
        classes: PhonemeClassTable,
        floor: float,
        min_leaf: int,
    ) -> None:
        self.floor = floor
        self.min_child = max(min_leaf, 1)
        counts = np.bincount(corpus.word_index, minlength=len(columns)).astype(np.int64, copy=False)
        order = np.argsort(corpus.word_index, kind="stable")
        starts = _offsets(counts)  # each word's first row in ``order``
        self.counts = counts
        self.sums = np.empty((len(columns), corpus.dim))
        self.sumsqs = np.empty((len(columns), corpus.dim))
        # words with c tokens each, gathered as a (words, c, d) block of about
        # _GATHER_ROWS rows and summed over axis 1: numpy reduces that axis in
        # the order a word's own (c, d) block sums over axis 0 (pairwise when
        # d == 1), so each word's sums equal its own block's bit for bit;
        # np.add.reduceat differs from 3 tokens a word on
        by_count = np.argsort(counts, kind="stable")
        ends = (np.flatnonzero(np.diff(counts[by_count])) + 1).tolist()
        for first, end in zip([0, *ends], [*ends, len(by_count)]):
            c = int(counts[by_count[first]])
            step = max(_GATHER_ROWS // max(c, 1), 1)
            for lo in range(first, end, step):
                ws = by_count[lo : min(lo + step, end)]
                block = corpus.x[order[starts[ws, None] + np.arange(c)]]
                self.sums[ws] = block.sum(axis=1)
                np.multiply(block, block, out=block)
                self.sumsqs[ws] = block.sum(axis=1)
                del block  # before the next gather: one block at a time
        self.qids = np.array([q.id for q in questions], dtype=np.int64)
        self.answers = np.empty((len(columns), len(questions)), dtype=bool)
        for qi, q in enumerate(questions):
            self.answers[:, qi] = columns.answer(q, classes)

    def leaf_stats(self, widx: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
        return (
            int(self.counts[widx].sum()),
            self.sums[widx].sum(axis=0),
            self.sumsqs[widx].sum(axis=0),
        )

    def leaf_ll(self, widx: np.ndarray) -> float:
        n, s, ss = self.leaf_stats(widx)
        return float(_ll_from_moments(n, s, ss, self.floor))

    def best_split(self, leaf: _Leaf) -> tuple[int, float] | None:
        """Best (question column, gain) for a leaf, or None if nothing is valid."""
        widx = leaf.widx
        side = self.answers[widx].astype(np.float64)  # the yes side, then the no side
        counts = self.counts[widx]
        n_parent = int(counts.sum())
        # exact: integer counts stay far below 2**53
        n_yes = (side.T @ counts.astype(np.float64)).astype(np.int64)
        n_no = n_parent - n_yes
        valid = np.flatnonzero((n_yes >= self.min_child) & (n_no >= self.min_child))
        if valid.size == 0:
            return None
        # both sides go through the same matmul path: questions inducing
        # complementary or identical partitions then tie bitwise, so the
        # first-max argmax resolves them to the smallest question id
        sums, sumsqs = self.sums[widx], self.sumsqs[widx]
        sum_yes = side.T @ sums
        sumsq_yes = side.T @ sumsqs
        np.subtract(1.0, side, out=side)
        sum_no = side.T @ sums
        sumsq_no = side.T @ sumsqs
        ll_yes = _ll_from_moments(n_yes[valid], sum_yes[valid], sumsq_yes[valid], self.floor)
        ll_no = _ll_from_moments(n_no[valid], sum_no[valid], sumsq_no[valid], self.floor)
        gains = ll_yes + ll_no - leaf.ll
        # first-maximum argmax over id-ordered columns gives the smallest-id tie-break
        pos = int(np.argmax(gains))
        return int(valid[pos]), float(gains[pos])


def _word_columns(lexicon: Sequence[WordEntry], words: Sequence[str]) -> WordColumns:
    """The lexicon's rows of ``words``, in order, as ``WordColumns.take``
    gives them; a list of entries is first made columns by ``WordColumns.of``
    (``load_lexicon`` returns columns already)."""
    lexicon = WordColumns.of(lexicon)
    return lexicon.take(lexicon.rows(words))


def grow_tree(
    lexicon: Sequence[WordEntry],
    samples: Sequence[ProsodySample],
    questions: Sequence[Question],
    classes: PhonemeClassTable,
    *,
    max_leaves: int = 10,
    min_gain: float = 0.0,
    min_leaf: int = 10,
    floor: float = 1e-6,
) -> tuple[DecisionTree, GrowthTrace]:
    """Grow the tree over a corpus of word tokens.

    Stops when the leaf count reaches ``max_leaves``, when the best available
    gain drops below ``min_gain``, or when no leaf can be split with at least
    ``min_leaf`` tokens per child. Deterministic for identical inputs.
    """
    _check_knobs(max_leaves=max_leaves, min_gain=min_gain, min_leaf=min_leaf, floor=floor)
    if not samples:
        raise ValidationError("corpus is empty")
    corpus = Corpus.of(samples)
    columns = _word_columns(lexicon, corpus.words)

    ordered = list(question_index(questions).values())
    for q in ordered:
        q.validate_against(classes)
    root_widx = np.arange(len(columns))
    # every node's moments sum a subset of the root's non-negative squares
    with _in_float64_range(leaf_letter(0)):
        growth = _Growth(columns, corpus, ordered, classes, floor, min_leaf)
        root_ll = growth.leaf_ll(root_widx)
    total_tokens = int(growth.counts.sum())
    root = _Leaf(node_pos=0, widx=root_widx, ll=root_ll)
    root.best = growth.best_split(root)
    nodes: list[TreeNode | None] = [None]
    leaves: list[_Leaf] = [root]  # creation order
    records: list[SplitRecord] = []
    total_ll = root.ll

    while len(leaves) < max_leaves:
        splittable = [leaf for leaf in leaves if leaf.best is not None]
        # max keeps the first of equal gains: ties go to the earliest leaf
        best_leaf = max(splittable, key=lambda leaf: leaf.best[1], default=None)
        if best_leaf is None:
            break
        col, gain = best_leaf.best
        if gain < min_gain:
            break

        letter = leaf_letter(leaves.index(best_leaf))
        mask = growth.answers[best_leaf.widx, col]
        children: list[_Leaf] = []
        for side_widx in (best_leaf.widx[mask], best_leaf.widx[~mask]):
            child = _Leaf(node_pos=len(nodes), widx=side_widx, ll=growth.leaf_ll(side_widx))
            child.best = growth.best_split(child)
            nodes.append(None)
            children.append(child)
        yes_child, no_child = children
        nodes[best_leaf.node_pos] = InternalNode(
            question_id=int(growth.qids[col]),
            yes_child=yes_child.node_pos,
            no_child=no_child.node_pos,
        )
        leaves.remove(best_leaf)
        leaves.extend(children)
        total_ll += gain
        records.append(
            SplitRecord(
                step=len(records) + 1,
                leaf_split=letter,
                question_id=int(growth.qids[col]),
                gain=gain,
                total_leaf_ll=total_ll,
                avg_samples_per_leaf=total_tokens / len(leaves),
            )
        )

    for index, leaf in enumerate(leaves):
        nodes[leaf.node_pos] = LeafNode(leaf_index=index)
    tree = DecisionTree(tuple(nodes))  # type: ignore[arg-type]
    trace = GrowthTrace(
        initial_ll=root.ll, num_tokens=total_tokens, records=tuple(records)
    )
    return tree, trace


def _grouped(keys: np.ndarray, size: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Stable sort of ``keys`` (values in 0..size-1): the row order, and each
    key's (start, end) span in it."""
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys, minlength=size)).tolist()
    return order, list(zip([0] + ends, ends))


def _route_tokens(
    tree: DecisionTree,
    questions: Mapping[int, Question],
    classes: PhonemeClassTable,
    columns: WordColumns,
    word_index: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Route every distinct word at once, as index sets down the tree.

    Row w of ``columns`` is word w and ``word_index`` gives each token's
    word. Each internal node answers its question for the words that reached
    it only, and an empty side goes no further. Returns each token's leaf
    index and, per leaf index, its token rows in token order.
    """
    word_leaf = np.empty(len(columns), dtype=np.intp)
    pending = [(0, np.arange(len(columns)))]
    while pending:  # a checked tree has no cycle: each node is reached at most once
        pos, rows = pending.pop()
        node = tree.nodes[pos]
        if isinstance(node, LeafNode):
            word_leaf[rows] = node.leaf_index
            continue
        try:
            question = questions[node.question_id]
        except KeyError:
            raise ModelFormatError(
                f"tree references unknown question id {node.question_id}"
            ) from None
        yes = columns.answer(question, classes, rows)
        count = np.count_nonzero(yes)
        if count == rows.size:
            pending.append((node.yes_child, rows))
        elif count == 0:
            pending.append((node.no_child, rows))
        else:
            pending.extend(((node.yes_child, rows[yes]), (node.no_child, rows[~yes])))
    leaves = word_leaf[word_index]
    order, spans = _grouped(leaves, tree.num_leaves)
    return leaves, [order[start:end] for start, end in spans]


def route_word(
    tree: DecisionTree,
    word: WordEntry,
    questions: Sequence[Question],
    classes: PhonemeClassTable,
) -> str:
    """Route a word (seen or unseen) to its leaf letter: ``_route_tokens``
    on a one-word list.

    Any structurally valid word routes successfully; a question id stored in
    the tree but absent from the question set means the model is corrupt.
    """
    leaves, _ = _route_tokens(
        tree, question_index(questions), classes, WordColumns.of((word,)), np.zeros(1, np.intp)
    )
    return tree.leaf_letters[leaves[0]]
