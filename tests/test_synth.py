"""Synthetic corpus generator, ARI scoring, and growth reports."""

from __future__ import annotations

import io
import json
from types import MappingProxyType

import numpy as np
import pytest

from prosotag import (
    ConfigError,
    Corpus,
    GrowthTrace,
    ParseError,
    QuestionKind,
    SynthSpec,
    ValidationError,
    adjusted_rand_index,
    answer_question,
    default_classes,
    generate,
    grow_tree,
    growth_report,
    load_ground_truth,
    save_ground_truth,
    write_growth_csv,
)
from conftest import knob_rejects
from oracles import pair_counting_ari


def tiny_spec(**overrides):
    base = dict(
        num_leaf_archetypes=3,
        words_per_archetype=4,
        tokens_per_word=4,
        components_per_archetype=2,
        d=3,
        component_separation=8.0,
        seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec()
        assert spec.num_leaf_archetypes == 10
        assert spec.components_per_archetype == 5
        assert spec.total_tokens == 5000

    def test_total_tokens(self):
        assert tiny_spec().total_tokens == 48

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_leaf_archetypes": 0},
            {"num_leaf_archetypes": 27},
            {"words_per_archetype": 0},
            {"tokens_per_word": 0},
            {"components_per_archetype": 0},
            {"component_separation": 0.0},
            {"seed": -1},
            *knob_rejects("d", "seed"),
            {"num_leaf_archetypes": True},
            {"words_per_archetype": 2.5},
            {"tokens_per_word": None},
            {"components_per_archetype": "2"},
            {"component_separation": float("nan")},
            {"component_separation": float("inf")},
            {"component_separation": "8"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_spec(**kwargs)

    def test_d_must_exceed_components(self):
        with pytest.raises(ConfigError):
            tiny_spec(components_per_archetype=4, d=4)
        tiny_spec(components_per_archetype=4, d=5)


class TestGenerate:
    def test_determinism(self):
        first = generate(tiny_spec())
        second = generate(tiny_spec())
        assert first[0] == second[0]
        assert first[1] == second[1]
        assert [s.token_id for s in first[2]] == [s.token_id for s in second[2]]
        for a, b in zip(first[2], second[2]):
            np.testing.assert_array_equal(a.embedding, b.embedding)
        assert first[3] == second[3]

    def test_seed_changes_embeddings(self):
        first = generate(tiny_spec())
        second = generate(tiny_spec(seed=1))
        assert not np.array_equal(first[2][0].embedding, second[2][0].embedding)

    def test_corpus_sizes(self):
        spec = tiny_spec()
        lexicon, questions, samples, truth = generate(spec)
        assert len(lexicon) == 12
        assert len(samples) == spec.total_tokens
        assert len(truth) == spec.total_tokens
        assert len(questions) == spec.num_leaf_archetypes - 1

    def test_tokens_are_a_corpus(self):
        spec = tiny_spec()
        lexicon, _, samples, _ = generate(spec)
        assert isinstance(samples, Corpus)
        assert samples.words == [w.word for w in lexicon]
        assert samples.word_index.dtype == np.int32
        assert samples.word_index.tolist() == [i // 4 for i in range(48)]
        assert samples.token_ids[:5] == [f"w00_000:00{t}" for t in range(4)] + ["w00_001:000"]
        assert samples.x.shape == (48, 3) and not samples.x.flags.writeable
        rebuilt = Corpus.of(list(samples))
        assert rebuilt.token_ids == samples.token_ids and rebuilt.words == samples.words
        np.testing.assert_array_equal(rebuilt.x, samples.x)

    def test_two_archetypes_separated_by_planted_question(self, classes):
        spec = tiny_spec(num_leaf_archetypes=2)
        lexicon, questions, _, _ = generate(spec)
        counts = sorted({len(w.phonemes) for w in lexicon})
        assert counts == [3, 6]
        assert len(questions) == 1
        q = questions[0]
        assert q.kind == QuestionKind.PHONEME_COUNT_GT
        assert q.int_param == 4
        for w in lexicon:
            expected = len(w.phonemes) == 6
            assert answer_question(q, w, classes) is expected

    def test_planted_questions_shatter_all_archetypes(self, classes):
        spec = tiny_spec(num_leaf_archetypes=5, d=3)
        lexicon, questions, _, _ = generate(spec)
        patterns = {}
        for w in lexicon:
            key = tuple(answer_question(q, w, classes) for q in questions)
            archetype = int(w.word[1:3])
            patterns.setdefault(key, set()).add(archetype)
        assert len(patterns) == 5
        assert all(len(v) == 1 for v in patterns.values())

    def test_word_structure(self):
        lexicon, _, _, _ = generate(tiny_spec())
        vowels = default_classes().members("Vowel")
        for w in lexicon:
            assert len(w.phonemes) % 3 == 0
            for j, p in enumerate(w.phonemes):
                assert (p in vowels) is (j % 3 == 1)
            assert w.syllable_breaks == tuple(range(0, len(w.phonemes), 3))
            assert w.stress_syllable is not None

    def test_class_distinctions_flag(self, classes):
        spec = tiny_spec(class_distinctions=True)
        lexicon, questions, _, _ = generate(spec)
        assert questions[-1].kind == QuestionKind.STARTS_WITH_CLASS
        vowels = classes.members("Vowel")
        for w in lexicon:
            archetype = int(w.word[1:3])
            assert (w.phonemes[0] in vowels) is (archetype % 2 == 1)

    def test_ground_truth_matches_token_layout(self):
        spec = tiny_spec()
        _, _, samples, truth = generate(spec)
        for sample in samples:
            archetype, component = truth[sample.token_id]
            assert sample.word.startswith(f"w{archetype:02d}_")
            t = int(sample.token_id.rsplit(":", 1)[1])
            assert component == t % spec.components_per_archetype

    def test_planted_separation_is_realized(self):
        spec = tiny_spec(
            words_per_archetype=10, tokens_per_word=10, component_separation=8.0
        )
        _, _, samples, truth = generate(spec)
        by_label: dict[tuple[int, int], list[np.ndarray]] = {}
        for s in samples:
            by_label.setdefault(truth[s.token_id], []).append(s.embedding)
        centers = {k: np.mean(v, axis=0) for k, v in by_label.items()}
        for a in range(spec.num_leaf_archetypes):
            gap = np.linalg.norm(centers[(a, 0)] - centers[(a, 1)])
            assert abs(gap - 8.0) < 1.5


class TestAdjustedRandIndex:
    def test_identical(self):
        labels = {f"t{i}": i % 3 for i in range(30)}
        assert adjusted_rand_index(labels, labels) == 1.0

    def test_relabeling_invariant(self):
        pred = {f"t{i}": f"tag{i % 3}" for i in range(30)}
        truth = {f"t{i}": (i % 3 + 7) * 2 for i in range(30)}
        assert adjusted_rand_index(pred, truth) == 1.0

    def test_one_cluster_vs_many_is_zero(self):
        pred = {f"t{i}": "only" for i in range(20)}
        truth = {f"t{i}": i % 4 for i in range(20)}
        assert abs(adjusted_rand_index(pred, truth)) < 1e-12

    def test_both_trivial(self):
        pred = {f"t{i}": "x" for i in range(10)}
        truth = {f"t{i}": "y" for i in range(10)}
        assert adjusted_rand_index(pred, truth) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        pred = {f"t{i}": int(rng.integers(4)) for i in range(60)}
        truth = {f"t{i}": int(rng.integers(3)) for i in range(60)}
        assert adjusted_rand_index(pred, truth) == pytest.approx(
            adjusted_rand_index(truth, pred), rel=1e-12
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        tokens = [f"t{i}" for i in range(100)]
        pred = {t: int(rng.integers(5)) for t in tokens}
        truth = {t: int(rng.integers(4)) for t in tokens}
        expected = pair_counting_ari(pred, truth)
        assert adjusted_rand_index(pred, truth) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "pred, truth",
        [
            ({"a": 1, "b": "1"}, {"a": 0, "b": 1}),
            ({"a": 1, "b": 1, "c": "1", "d": "1"}, {"a": 0, "b": 0, "c": 1, "d": 1}),
        ],
    )
    def test_labels_compared_by_equality_not_text(self, pred, truth):
        # 1 and "1" print alike but are distinct labels
        assert adjusted_rand_index(pred, truth) == 1.0

    def test_unhashable_labels_refused(self):
        with pytest.raises(ValidationError, match="labels must be hashable: unhashable type: 'list'"):
            adjusted_rand_index({"a": 0, "b": 1}, {"a": [0, 1], "b": [0, 2]})

    def test_token_set_mismatch(self):
        pred = {"a": 0, "b": 1}
        truth = {"a": 0, "c": 1}
        with pytest.raises(ValidationError):
            adjusted_rand_index(pred, truth)

    def test_no_tokens(self):
        with pytest.raises(ValidationError, match="no tokens"):
            adjusted_rand_index({}, {})


class TestGrowthReport:
    def test_single_leaf(self):
        trace = GrowthTrace(initial_ll=-5.25, num_tokens=10)
        assert growth_report(trace) == [(1, -5.25, 10.0)]

    def test_rows_follow_growth(self, classes):
        spec = tiny_spec()
        lexicon, questions, samples, _ = generate(spec)
        _, trace = grow_tree(
            lexicon, samples, questions, classes, max_leaves=3, min_leaf=1
        )
        rows = growth_report(trace)
        assert [r[0] for r in rows] == [1, 2, 3]
        n = float(len(samples))
        for leaves, total_ll, avg in rows:
            assert avg == n / leaves
        assert rows[0][1] == trace.initial_ll

    def test_csv_round_trip(self, classes, tmp_path):
        spec = tiny_spec()
        lexicon, questions, samples, _ = generate(spec)
        _, trace = grow_tree(
            lexicon, samples, questions, classes, max_leaves=3, min_leaf=1
        )
        path = tmp_path / "trace.csv"
        write_growth_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "num_leaves,total_leaf_ll,avg_samples_per_leaf"
        rows = growth_report(trace)
        assert len(lines) == len(rows) + 1
        for line, (leaves, total_ll, avg) in zip(lines[1:], rows):
            cells = line.split(",")
            assert int(cells[0]) == leaves
            assert float(cells[1]) == total_ll
            assert float(cells[2]) == avg

    def test_csv_to_stream(self, classes):
        trace = GrowthTrace(initial_ll=-1.5, num_tokens=4)
        buf = io.BytesIO()
        write_growth_csv(trace, buf)
        assert buf.getvalue() == (
            b"num_leaves,total_leaf_ll,avg_samples_per_leaf\n1,-1.5,4.0\n"
        )


class TestGroundTruthIO:
    def test_round_trip(self, tmp_path):
        _, _, _, truth = generate(tiny_spec())
        path = tmp_path / "truth.jsonl"
        save_ground_truth(truth, path)
        assert load_ground_truth(path) == truth
        assert type(truth) is dict and len(truth) == tiny_spec().total_tokens

    def test_no_tokens_not_saved(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        with pytest.raises(ValidationError, match="ground truth has no tokens"):
            save_ground_truth({}, path)
        assert not path.exists()
        save_ground_truth({"t0": (1, 2)}, path)
        assert load_ground_truth(path) == {"t0": (1, 2)}

    @pytest.mark.parametrize("content", [b"", b"\n\n"])
    def test_empty_file(self, tmp_path, content):
        path = tmp_path / "truth.jsonl"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match="ground truth has no tokens"):
            load_ground_truth(path)

    def test_saves_any_mapping(self):
        labels = {"t0": (1, 2), "t1": (0, 0)}
        buf, proxy = io.BytesIO(), io.BytesIO()
        save_ground_truth(labels, buf)
        save_ground_truth(MappingProxyType(labels), proxy)
        assert proxy.getvalue() == buf.getvalue()
        assert load_ground_truth(io.BytesIO(buf.getvalue())) == labels

    def test_lines_match_json_dumps(self):
        labels = {"w00_000:000": (0, 1), 'q"\\\n\u00e9\U0001f600': (12, 0), "": (3, 25)}
        buf = io.BytesIO()
        save_ground_truth(labels, buf)
        expected = "".join(
            json.dumps({"token_id": t, "archetype": a, "component": c}) + "\n"
            for t, (a, c) in labels.items()
        )
        assert buf.getvalue() == expected.encode("utf-8")

    def test_numpy_integer_labels_written_as_integers(self):
        buf = io.BytesIO()
        save_ground_truth({"t": (np.int64(3), np.uint8(1))}, buf)
        assert buf.getvalue() == b'{"token_id": "t", "archetype": 3, "component": 1}\n'
        assert load_ground_truth(io.BytesIO(buf.getvalue())) == {"t": (3, 1)}

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        line = '{"token_id": "t0", "archetype": 0, "component": 1}\n'
        path.write_text(line + line)
        with pytest.raises(ParseError, match="line 2"):
            load_ground_truth(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"token_id": "t0", "archetype": 0}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_ground_truth(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"token_id": "t", "archetype": true, "component": 1}',
            '{"token_id": "t", "archetype": 0, "component": 2.7}',
            '{"token_id": 7, "archetype": 0, "component": 1}',
        ],
    )
    def test_mistyped_field_line_numbered(self, tmp_path, record):
        path = tmp_path / "truth.jsonl"
        path.write_text('{"token_id": "t0", "archetype": 0, "component": 1}\n' + record + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_ground_truth(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "truth.jsonl"
        path.write_text("archetype,component\n")
        with pytest.raises(ParseError):
            load_ground_truth(path)
