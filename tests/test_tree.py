"""Tree growth: greedy splitting, letter naming, trace bookkeeping, routing."""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosotag import (
    ConfigError,
    Corpus,
    DecisionTree,
    DimensionMismatchError,
    InternalNode,
    LeafNode,
    ModelFormatError,
    ProsodySample,
    Question,
    QuestionKind,
    ValidationError,
    WordEntry,
    grow_tree,
    leaf_letter,
    route_word,
)
from prosotag import tree as tree_module
from prosotag.phonetics import WordColumns
from prosotag.tree import _Growth, _route_tokens, _tree_from_dict, _word_columns
from conftest import knob_rejects, random_instance, random_question, random_word
from oracles import closed_form_ll, greedy_oracle
import oracles


def word(name, phonemes, breaks=(0,), stress=None):
    return WordEntry(name, tuple(phonemes), tuple(breaks), stress)


def tokens(entry, values, prefix=""):
    return [
        ProsodySample(f"{prefix}{entry.word}:{i}", entry.word, np.atleast_1d(np.asarray(v, dtype=float)))
        for i, v in enumerate(values)
    ]


class TestLeafLetter:
    def test_single_letters(self):
        assert leaf_letter(0) == "a"
        assert leaf_letter(9) == "j"
        assert leaf_letter(25) == "z"

    def test_double_letters(self):
        assert leaf_letter(26) == "aa"
        assert leaf_letter(27) == "ab"
        assert leaf_letter(51) == "az"
        assert leaf_letter(52) == "ba"
        assert leaf_letter(701) == "zz"
        assert leaf_letter(702) == "aaa"

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="non-negative int, got -1"):
            leaf_letter(-1)

    def test_bool_rejected(self):
        with pytest.raises(ValidationError, match="got True"):
            leaf_letter(True)


class TestBasicGrowth:
    def setup_method(self):
        self.classes_table = None  # set lazily from fixture-free default
        from prosotag import default_classes

        self.classes_table = default_classes()
        self.short = word("short", ["K", "AE"])
        self.long = word("long", ["K", "AE", "T", "IH", "NG"], (0, 3))
        self.question = Question(id=2, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)

    def corpus(self):
        samples = tokens(self.short, [0.0, 0.5, 1.0, 0.5]) + tokens(
            self.long, [10.0, 10.5, 11.0, 10.5]
        )
        return [self.short, self.long], samples

    def test_single_split(self):
        lexicon, samples = self.corpus()
        tree, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=2
        )
        assert tree.leaf_letters == ("a", "b")
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.step == 1
        assert record.leaf_split == "a"
        assert record.question_id == 2
        # yes child is created first, so the long word gets letter "a"
        assert route_word(tree, self.long, [self.question], self.classes_table) == "a"
        assert route_word(tree, self.short, [self.question], self.classes_table) == "b"

    def test_gain_matches_independent_formula(self):
        lexicon, samples = self.corpus()
        _, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=2
        )
        short_vecs = [[0.0], [0.5], [1.0], [0.5]]
        long_vecs = [[10.0], [10.5], [11.0], [10.5]]
        expected = (
            closed_form_ll(long_vecs)
            + closed_form_ll(short_vecs)
            - closed_form_ll(long_vecs + short_vecs)
        )
        assert trace.records[0].gain == pytest.approx(expected, rel=1e-9)
        assert trace.records[0].total_leaf_ll == pytest.approx(
            trace.initial_ll + expected, rel=1e-9
        )

    def test_min_leaf_blocks_split(self):
        lexicon, samples = self.corpus()
        tree, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=5
        )
        assert tree.leaf_letters == ("a",)
        assert trace.records == ()

    def test_single_word_unsplittable(self):
        # every token follows its word, so no question can split one word
        lexicon, samples = [self.long], tokens(self.long, [0.0, 1.0, 5.0, 9.0])
        tree, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=1
        )
        assert tree.leaf_letters == ("a",)
        assert trace.records == ()

    def test_min_gain_stops_growth(self):
        lexicon, samples = self.corpus()
        tree, _ = grow_tree(
            lexicon,
            samples,
            [self.question],
            self.classes_table,
            max_leaves=2,
            min_leaf=2,
            min_gain=1e9,
        )
        assert tree.num_leaves == 1

    def test_max_leaves_one(self):
        lexicon, samples = self.corpus()
        tree, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=1
        )
        assert tree.nodes == (LeafNode(leaf_index=0),)
        assert trace.records == ()
        assert trace.num_tokens == 8

    def test_trace_counts_tokens(self):
        lexicon, samples = self.corpus()
        _, trace = grow_tree(
            lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=2
        )
        assert trace.num_tokens == 8
        assert trace.records[0].avg_samples_per_leaf == 4.0

    def test_determinism(self):
        lexicon, samples = self.corpus()
        results = [
            grow_tree(lexicon, samples, [self.question], self.classes_table, max_leaves=2, min_leaf=2)
            for _ in range(2)
        ]
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]


class TestTieBreaks:
    def test_duplicate_question_takes_smallest_id(self, classes):
        short = word("short", ["K", "AE"])
        long = word("long", ["K", "AE", "T", "IH", "NG"], (0, 3))
        q_hi = Question(id=7, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        q_lo = Question(id=3, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        samples = tokens(short, [0.0, 1.0]) + tokens(long, [10.0, 11.0])
        _, trace = grow_tree(
            [short, long], samples, [q_hi, q_lo], classes, max_leaves=2, min_leaf=1
        )
        assert trace.records[0].question_id == 3

    def test_complementary_questions_take_smallest_id(self, classes):
        # the two questions induce opposite partitions of the same pair, so
        # their gains are equal by symmetry; the smaller id must win
        vowel_short = word("ash", ["AE", "SH"])
        long = word("casting", ["K", "AE", "S", "T", "IH", "NG"], (0, 3))
        by_count = Question(id=6, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        by_onset = Question(id=2, kind=QuestionKind.STARTS_WITH_CLASS, class_param="Vowel")
        samples = tokens(vowel_short, [0.0, 1.0]) + tokens(long, [10.0, 11.0])
        _, trace = grow_tree(
            [vowel_short, long], samples, [by_count, by_onset], classes, max_leaves=2, min_leaf=1
        )
        assert trace.records[0].question_id == 2

    def test_tied_leaves_split_earliest_created(self, classes):
        # Leaves after the first split hold bitwise-identical data, so their
        # best gains tie exactly (both 0.0) and the earlier leaf must split.
        a1 = word("a1", ["AA", "K"])
        b1 = word("b1", ["K", "AA"])
        a2 = word("a2", ["AA", "K", "T", "S", "P"])
        b2 = word("b2", ["K", "AA", "T", "S", "P"])
        q_count = Question(id=9, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        q_onset = Question(id=4, kind=QuestionKind.STARTS_WITH_CLASS, class_param="Vowel")
        samples = (
            tokens(a1, [0.0, 1.0])
            + tokens(b1, [0.0, 1.0])
            + tokens(a2, [10.0, 11.0])
            + tokens(b2, [10.0, 11.0])
        )
        lexicon = [a1, b1, a2, b2]
        tree, trace = grow_tree(
            lexicon, samples, [q_count, q_onset], classes, max_leaves=3, min_leaf=2
        )
        assert [r.question_id for r in trace.records] == [9, 4]
        # step 2 splits the yes child of step 1, lettered "a" at that moment
        assert trace.records[1].leaf_split == "a"
        assert trace.records[1].gain == 0.0
        # surviving leaves lettered by creation order: the untouched no child
        # of step 1 is oldest and becomes "a"
        routes = {w.word: route_word(tree, w, [q_count, q_onset], classes) for w in lexicon}
        assert routes == {"a1": "a", "b1": "a", "a2": "b", "b2": "c"}


class TestValidation:
    def test_empty_corpus(self, classes):
        with pytest.raises(ValidationError):
            grow_tree([word("w", ["K"])], [], [], classes)

    def test_unknown_word(self, classes):
        w = word("known", ["K"])
        orphan = ProsodySample("t0", "ghost", np.array([1.0]))
        with pytest.raises(ValidationError, match="ghost"):
            grow_tree([w], [orphan], [], classes)

    def test_mixed_dimensions(self, classes):
        w = word("w", ["K"])
        samples = tokens(w, [[1.0, 2.0]]) + tokens(w, [[1.0, 2.0, 3.0]], prefix="odd-")
        with pytest.raises(DimensionMismatchError, match="odd-w:0"):
            grow_tree([w], samples, [], classes)

    def test_bad_max_leaves(self, classes):
        w = word("w", ["K"])
        with pytest.raises(ConfigError):
            grow_tree([w], tokens(w, [1.0]), [], classes, max_leaves=0)

    def test_bad_floor(self, classes):
        w = word("w", ["K"])
        with pytest.raises(ConfigError):
            grow_tree([w], tokens(w, [1.0]), [], classes, floor=0.0)

    @pytest.mark.parametrize("kwargs", knob_rejects("max_leaves", "min_gain", "min_leaf", "floor"))
    def test_rejects_knob(self, classes, kwargs):
        w = word("w", ["K"])
        with pytest.raises(ConfigError):
            grow_tree([w], tokens(w, [1.0]), [], classes, **kwargs)

    def test_duplicate_lexicon_word(self, classes):
        w = word("w", ["K"])
        with pytest.raises(ValidationError):
            grow_tree([w, w], tokens(w, [1.0]), [], classes)


class TestRouting:
    def build(self, classes):
        short = word("short", ["K", "AE"])
        long = word("long", ["K", "AE", "T", "IH", "NG"], (0, 3))
        question = Question(id=2, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        samples = tokens(short, [0.0, 1.0]) + tokens(long, [10.0, 11.0])
        tree, _ = grow_tree(
            [short, long], samples, [question], classes, max_leaves=2, min_leaf=1
        )
        return tree, question

    def test_unseen_word_routes(self, classes):
        tree, question = self.build(classes)
        unseen = word("mystery", ["Z", "Z", "Z", "Z"])
        assert route_word(tree, unseen, [question], classes) == "a"

    def test_missing_question_is_model_error(self, classes):
        tree, _ = self.build(classes)
        other = Question(id=99, kind=QuestionKind.ENDS_CLOSED_SYLLABLE)
        with pytest.raises(ModelFormatError):
            route_word(tree, word("w", ["K"]), [other], classes)
        with pytest.raises(ModelFormatError, match="unknown question id 2$"):
            _route_tokens(
                tree, {99: other}, classes, WordColumns.of([word("w", ["K"])]),
                np.zeros(1, dtype=np.int32),
            )


class TestTreeValidate:
    def test_grown_tree_validates(self, classes):
        short = word("short", ["K", "AE"])
        long = word("long", ["K", "AE", "T", "IH", "NG"], (0, 3))
        question = Question(id=2, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        samples = tokens(short, [0.0, 1.0]) + tokens(long, [10.0, 11.0])
        # construction checks the structure: a grown tree passes
        tree, _ = grow_tree(
            [short, long], samples, [question], classes, max_leaves=2, min_leaf=1
        )
        assert tree.nodes == (InternalNode(2, 1, 2), LeafNode(0), LeafNode(1))

    def test_child_out_of_range(self):
        with pytest.raises(ModelFormatError, match="node 0: child index 5 out of range"):
            DecisionTree(nodes=(InternalNode(0, 1, 5), LeafNode(0), LeafNode(1)))

    def test_duplicate_leaf_index(self):
        with pytest.raises(ModelFormatError, match="leaf indices"):
            DecisionTree(nodes=(InternalNode(0, 1, 2), LeafNode(0), LeafNode(0)))

    def test_cycle_apart_from_root(self):
        # every node but the root has one parent, yet the walk from the leaf
        # root never reaches the cycle 1 -> 2 -> 1 or leaves b and c
        with pytest.raises(ModelFormatError, match="not a single rooted structure"):
            DecisionTree(
                nodes=(LeafNode(0), InternalNode(0, 2, 3), InternalNode(0, 1, 4), LeafNode(1), LeafNode(2)),
            )

    def test_letters_follow_leaf_indices(self):
        tree = DecisionTree((InternalNode(0, 2, 1), LeafNode(1), LeafNode(0)))
        assert tree.leaf_letters == ("a", "b")
        assert tree.to_dict()["leaf_letters"] == ["a", "b"]

    def test_non_contiguous_letters(self):
        # the model file stores the letters the tree derives; any other list is corrupt
        for letters in (["b"], ["a", "b"], [], ["A"], [0]):
            with pytest.raises(ModelFormatError, match="not contiguous from 'a'"):
                _tree_from_dict({"nodes": [{"leaf_index": 0}], "leaf_letters": letters})


class TestTraceInvariants:
    @given(seed=st.integers(0, 200))
    @settings(max_examples=12, deadline=None)
    def test_growth_bookkeeping(self, seed):
        from prosotag import default_classes

        table = default_classes()
        rng = np.random.default_rng(seed)
        words, samples, _, questions = random_instance(
            rng, table, max_words=20, max_questions=5, max_tokens=120, max_d=4
        )
        max_leaves = int(rng.integers(2, 7))
        min_leaf = int(rng.integers(1, 5))
        tree, trace = grow_tree(
            words, samples, questions, table, max_leaves=max_leaves, min_leaf=min_leaf
        )
        assert trace.num_tokens == len(samples)
        assert tree.num_leaves == len(trace.records) + 1
        assert tree.num_leaves <= max_leaves
        previous = trace.initial_ll
        for k, record in enumerate(trace.records, start=1):
            assert record.step == k
            assert record.gain >= -1e-9
            assert record.total_leaf_ll >= previous - 1e-9
            assert record.avg_samples_per_leaf == len(samples) / (k + 1)
            previous = record.total_leaf_ll
        # every word routes to a fitted leaf
        for w in words:
            assert route_word(tree, w, questions, table) in tree.leaf_letters


class TestOracleAgreement:
    """Spot checks against the exhaustive oracle; the acceptance suite runs
    the full 25-instance comparison."""

    @pytest.mark.parametrize("seed", [11, 42, 137])
    def test_matches_exhaustive_greedy(self, seed, classes):
        rng = np.random.default_rng(seed)
        words, samples, vectors_by_word, questions = random_instance(
            rng, classes, max_words=15, max_questions=5, max_tokens=100, max_d=3
        )
        max_leaves = int(rng.integers(2, 6))
        min_leaf = int(rng.integers(1, 4))
        tree, trace = grow_tree(
            words, samples, questions, classes, max_leaves=max_leaves, min_leaf=min_leaf
        )
        oracle_leaves, oracle_splits = greedy_oracle(
            words,
            vectors_by_word,
            questions,
            classes,
            max_leaves=max_leaves,
            min_leaf=min_leaf,
        )
        assert len(trace.records) == len(oracle_splits)
        for record, (pos, qid, gain) in zip(trace.records, oracle_splits):
            assert record.leaf_split == leaf_letter(pos)
            assert record.question_id == qid
            assert record.gain == pytest.approx(gain, abs=1e-6)
        for leaf_pos, widxs in enumerate(oracle_leaves):
            for wi in widxs:
                assert oracles.route_word(tree, words[wi], questions, classes) == leaf_letter(
                    leaf_pos
                )


class TestWordStats:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_columnar_stats_equal_per_word_stacking(self, seed, classes):
        # the per-word loop the columnar sums replaced, kept as the reference
        rng = np.random.default_rng(seed)
        words, samples, _, questions = random_instance(rng, classes)
        rng.shuffle(samples)  # interleave the words' tokens
        corpus = Corpus.of(samples)
        by_word: dict[str, list[np.ndarray]] = {}
        for sample in samples:
            by_word.setdefault(sample.word, []).append(sample.embedding)
        assert list(by_word) == corpus.words
        growth = _Growth(
            _word_columns(words, corpus.words), corpus, questions, classes, 1e-6, 1
        )
        matrices = [np.stack(vectors) for vectors in by_word.values()]
        np.testing.assert_array_equal(growth.counts, [m.shape[0] for m in matrices])
        np.testing.assert_array_equal(growth.sums, [m.sum(axis=0) for m in matrices])
        np.testing.assert_array_equal(growth.sumsqs, [(m * m).sum(axis=0) for m in matrices])


    @given(
        seed=st.integers(0, 10_000),
        d=st.sampled_from([1, 2, 3, 16]),
        gather_rows=st.sampled_from([1, 7, 64, tree_module._GATHER_ROWS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_zipf_counts_equal_per_word_sums(self, seed, d, gather_rows, classes):
        # Zipf-like token counts: many one-token words, some with 8 or more
        # tokens (past numpy's unrolled 8-way sum), magnitudes from 1e-3 to
        # 1e3; a small gather bound splits buckets and single words
        rng = np.random.default_rng(seed)
        counts = np.minimum(rng.zipf(1.5, size=int(rng.integers(2, 80))), 200)
        counts[:2] = 1, 8 + rng.integers(0, 60)
        word_index = rng.permutation(np.repeat(np.arange(counts.size, dtype=np.int32), counts))
        scale = 10.0 ** rng.uniform(-3, 3, size=(word_index.size, 1))
        x = rng.normal(size=(word_index.size, d)) * scale
        names = [f"w{i}" for i in range(counts.size)]
        corpus = Corpus([f"t{i}" for i in range(word_index.size)], names, word_index, x)
        columns = _word_columns([word(name, ["K"]) for name in names], names)
        with mock.patch.object(tree_module, "_GATHER_ROWS", gather_rows):
            growth = _Growth(columns, corpus, [], classes, 1e-6, 1)
        np.testing.assert_array_equal(growth.counts, counts)
        for w in range(counts.size):
            block = x[word_index == w]  # the word's rows in token order
            np.testing.assert_array_equal(growth.sums[w], block.sum(axis=0))
            np.testing.assert_array_equal(growth.sumsqs[w], (block * block).sum(axis=0))


class TestBoundedMemory:
    """Growth allocates, above its inputs, less than two float64 (words x
    questions) blocks: one answer block per split evaluation, no integer copy
    and no separate no-side block."""

    def test_word_stats_peak(self, classes):
        # the per-word stats gather word-sorted rows in chunks: above what
        # _Growth keeps, the token order and two per-word index arrays, no
        # more than one gathered block of 4,096 rows and its two index arrays
        # (an unchunked gather holds the whole (tokens, d) matrix: 2.6 MB here)
        rng = np.random.default_rng(0)
        names = [f"w{i:05d}" for i in range(20_000)]
        word_index = np.repeat(np.arange(len(names), dtype=np.int32), 2)
        d = 8
        corpus = Corpus(
            [f"t{i}" for i in range(word_index.size)],
            names,
            word_index,
            rng.normal(size=(word_index.size, d)),
        )
        columns = _word_columns([word(name, ["K", "AA"]) for name in names], names)
        questions = [random_question(rng, qid, classes) for qid in range(16)]
        for q in questions:  # build the lazy columns before measuring
            columns.answer(q, classes)
        tracemalloc.start()
        try:
            growth = _Growth(columns, corpus, questions, classes, 1e-6, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (growth.answers, growth.counts, growth.sums, growth.sumsqs))
        indices = (word_index.size + 2 * len(names)) * 8
        chunk = 4096 * (d + 2) * 8
        assert peak < kept + indices + chunk

    def test_grow_tree_peak(self, classes):
        rng = np.random.default_rng(0)
        words = [random_word(rng, f"w{i:04d}", classes) for i in range(4000)]
        questions = [random_question(rng, qid, classes) for qid in range(64)]
        word_index = np.repeat(np.arange(len(words), dtype=np.int32), 2)
        corpus = Corpus(
            [f"t{i}" for i in range(word_index.size)],
            [w.word for w in words],
            word_index,
            rng.normal(size=(word_index.size, 2)),
        )
        tracemalloc.start()
        try:
            grow_tree(words, corpus, questions, classes, max_leaves=8, min_leaf=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(words) * len(questions) * 8
