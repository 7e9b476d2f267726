"""Two-stage tagger: fitting, tag assignment, inventories, model files."""

from __future__ import annotations

import io
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prosotag
from prosotag import (
    ConfigError,
    DimensionMismatchError,
    ModelFormatError,
    ParseError,
    ProsodySample,
    Question,
    QuestionKind,
    SynthSpec,
    TaggerConfig,
    ValidationError,
    DecisionTree,
    GrowthTrace,
    InternalNode,
    LeafGmm,
    LeafNode,
    PhonemeClassTable,
    SplitRecord,
    WordEntry,
    answer_question,
    default_classes,
    default_questions,
    fit,
    generate,
    load_model,
    model_to_json,
    posterior_log_scores,
    route_word,
    save_model,
    tag,
    tag_inventory,
    tag_tokens,
)
from prosotag.gmm import _gmm_from_dict
from prosotag.phonetics import WordColumns
from prosotag.tree import _route_tokens, _trace_from_rows, _tree_from_dict
from conftest import KNOB_REJECTS, every_kind, random_instance, random_question, random_word
import oracles


def _leaf_node(doc):
    return next(n for n in doc["tree"]["nodes"] if "leaf_index" in n)


class TestTaggerConfig:
    def test_defaults(self):
        config = TaggerConfig()
        assert config.m == 5
        assert config.max_leaves == 10
        assert config.min_leaf == 10
        assert config.seed == 0

    @pytest.mark.parametrize("kwargs", KNOB_REJECTS)
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            TaggerConfig(**kwargs)


def small_corpus(seed=0):
    spec = SynthSpec(
        num_leaf_archetypes=2,
        words_per_archetype=6,
        tokens_per_word=8,
        components_per_archetype=2,
        d=4,
        component_separation=8.0,
        seed=seed,
    )
    lexicon, questions, samples, _ = generate(spec)
    return lexicon, questions, samples


class TestFit:
    def test_trivial_config_gives_single_tag(self):
        lexicon, questions, samples = small_corpus()
        config = TaggerConfig(max_leaves=1, m=1, min_leaf=1)
        model = fit(lexicon, samples, questions, default_classes(), config)
        assert model.num_leaves == 1
        assert [str(t) for t in tag_inventory(model)] == ["a0"]
        for sample in samples[:10]:
            entry = next(w for w in lexicon if w.word == sample.word)
            assert str(tag(model, entry, sample.embedding)) == "a0"

    def test_inventory_order(self):
        lexicon, questions, samples = small_corpus()
        config = TaggerConfig(max_leaves=2, m=2, min_leaf=1)
        model = fit(lexicon, samples, questions, default_classes(), config)
        assert [str(t) for t in tag_inventory(model)] == ["a0", "a1", "b0", "b1"]
        assert model.num_tags == 4

    def test_config_d_recorded(self):
        lexicon, questions, samples = small_corpus()
        model = fit(
            lexicon, samples, questions, default_classes(), TaggerConfig(min_leaf=1)
        )
        assert model.config.d == 4

    def test_config_d_mismatch(self):
        lexicon, questions, samples = small_corpus()
        with pytest.raises(DimensionMismatchError):
            fit(
                lexicon,
                samples,
                questions,
                default_classes(),
                TaggerConfig(d=9, min_leaf=1),
            )

    def test_component_fallback_on_small_leaf(self, classes):
        # one word with 2 tokens on its own leaf cannot support m=4
        rare = WordEntry("rare", ("AA",), (0,), None)
        common = WordEntry("common", ("K", "AE", "T", "S"), (0,), None)
        question = Question(id=0, kind=QuestionKind.PHONEME_COUNT_GT, int_param=2)
        rng = np.random.default_rng(0)
        samples = [
            ProsodySample(f"rare:{i}", "rare", rng.normal(size=2)) for i in range(2)
        ] + [
            ProsodySample(f"common:{i}", "common", rng.normal(size=2) + 5.0)
            for i in range(12)
        ]
        config = TaggerConfig(max_leaves=2, m=4, min_leaf=2)
        model = fit([rare, common], samples, [question], classes, config)
        sizes = {letter: gmm.m for letter, gmm in model.gmms.items()}
        rare_leaf = route_word(model.tree, rare, [question], classes)
        common_leaf = route_word(model.tree, common, [question], classes)
        assert sizes[rare_leaf] == 2
        assert sizes[common_leaf] == 4
        assert model.num_tags == 6

    def test_training_tokens_get_plausible_components(self):
        lexicon, questions, samples = small_corpus()
        config = TaggerConfig(max_leaves=2, m=2, min_leaf=1, seed=3)
        model = fit(lexicon, samples, questions, default_classes(), config)
        inventory = {str(t) for t in tag_inventory(model)}
        by_word = {w.word: w for w in lexicon}
        for sample in samples:
            result = tag(model, by_word[sample.word], sample.embedding)
            assert str(result) in inventory

    def test_empty_corpus(self, classes):
        with pytest.raises(ValidationError):
            fit([], [], [], classes, TaggerConfig())

    def test_deterministic(self):
        lexicon, questions, samples = small_corpus()
        config = TaggerConfig(max_leaves=3, m=2, min_leaf=1, seed=11)
        a = fit(lexicon, samples, questions, default_classes(), config)
        b = fit(lexicon, samples, questions, default_classes(), config)
        assert model_to_json(a) == model_to_json(b)


class TestTagging:
    def fitted(self, seed=0):
        lexicon, questions, samples = small_corpus(seed)
        config = TaggerConfig(max_leaves=3, m=2, min_leaf=1, seed=seed)
        model = fit(lexicon, samples, questions, default_classes(), config)
        return model, lexicon

    def test_tags_are_text(self):
        # a tag is the leaf letter, then the component index
        model, lexicon = self.fitted()
        result = tag(model, lexicon[0], np.zeros(4))
        assert type(result) is str and result in tag_inventory(model)
        assert tag_inventory(model) == [
            f"{letter}{k}" for letter in model.tree.leaf_letters for k in range(2)
        ]

    def test_unseen_word(self):
        model, _ = self.fitted()
        novel = WordEntry("novel", ("ZH", "UH", "P"), (0,), 0)
        result = tag(model, novel, np.zeros(4))
        assert result in tag_inventory(model)

    def test_random_unseen_words_all_tag(self, classes):
        model, _ = self.fitted()
        rng = np.random.default_rng(77)
        inventory = set(tag_inventory(model))
        for i in range(100):
            entry = random_word(rng, f"probe{i}", classes)
            embedding = rng.normal(scale=4.0, size=4)
            assert tag(model, entry, embedding) in inventory

    def test_dimension_mismatch(self):
        model, lexicon = self.fitted()
        with pytest.raises(DimensionMismatchError):
            tag(model, lexicon[0], np.zeros(7))
        with pytest.raises(DimensionMismatchError):
            tag(model, lexicon[0], np.zeros((1, 4)))

    def test_non_finite_embedding_names_word(self):
        model, lexicon = self.fitted()
        with pytest.raises(ValidationError, match=repr(lexicon[0].word)):
            tag(model, lexicon[0], np.array([0.0, np.nan, 0.0, 0.0]))

    def test_unknown_word_names_it(self):
        model, lexicon = self.fitted()
        sample = ProsodySample("t0", "ghost", np.zeros(4))
        with pytest.raises(ValidationError, match="ghost"):
            tag_tokens(model, lexicon, [sample])

    def test_batch_dimension_mismatch_names_token(self):
        model, lexicon = self.fitted()
        samples = [
            ProsodySample("ok", lexicon[0].word, np.zeros(4)),
            ProsodySample("wide", lexicon[0].word, np.zeros(5)),
        ]
        with pytest.raises(DimensionMismatchError, match="wide"):
            tag_tokens(model, lexicon, samples)

    def test_overflowing_embeddings_name_the_leaf(self):
        # finite, but their squared distances to a leaf's means overflow
        # float64: an error, not a numpy warning and component 0 everywhere
        model, lexicon = self.fitted()
        huge = np.full(4, 1e160)
        samples = [ProsodySample(f"t{i}", w.word, huge) for i, w in enumerate(lexicon)]
        letter = route_word(model.tree, lexicon[0], model.questions, model.classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError, match="^leaf 'a': samples too large in magnitude: float64 "
            ):
                tag_tokens(model, lexicon, samples)
            with pytest.raises(
                ValidationError, match=f"^leaf '{letter}': samples too large in magnitude"
            ):
                tag(model, lexicon[0], huge)

    def test_empty_batch(self):
        model, lexicon = self.fitted()
        leaves, components = tag_tokens(model, lexicon, [])
        assert leaves.shape == components.shape == (0,)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_single(self, seed):
        classes = default_classes()
        rng = np.random.default_rng(seed)
        words, samples, _, questions = random_instance(
            rng, classes, max_words=12, max_tokens=120, max_d=4
        )
        config = TaggerConfig(max_leaves=4, m=3, min_leaf=1, seed=seed)
        model = fit(words, samples, questions, classes, config)
        d = model.config.d
        unseen = [random_word(rng, f"unseen{i}", classes) for i in range(5)]
        lexicon = words + unseen
        batch = samples + [
            ProsodySample(f"u{i}", unseen[i % 5].word, rng.normal(scale=3.0, size=d))
            for i in range(20)
        ]
        leaves, components = tag_tokens(model, lexicon, batch)
        by_word = {w.word: w for w in lexicon}
        for sample, leaf, k in zip(batch, leaves, components):
            entry = by_word[sample.word]
            letter = model.tree.leaf_letters[leaf]
            assert tag(model, entry, sample.embedding) == f"{letter}{k}"
            assert letter == route_word(model.tree, entry, model.questions, classes)
            scores = posterior_log_scores(sample.embedding, model.gmms[letter])
            assert k == int(np.argmax(scores))

    def test_probe_near_component_mean_gets_it(self):
        model, lexicon = self.fitted()
        by_word = {w.word: w for w in lexicon}
        for letter, gmm in model.gmms.items():
            entry = next(
                w
                for w in lexicon
                if route_word(model.tree, w, model.questions, model.classes) == letter
            )
            for k in range(gmm.m):
                probe = gmm.means[k] + 0.01
                result = tag(model, by_word[entry.word], probe)
                assert result == f"{letter}{k}"


def random_tree(rng, questions, num_leaves):
    """A random tree: a random leaf split on a random question until there
    are ``num_leaves``; a path may ask one question twice."""
    nodes = [None]
    leaves = [0]
    while len(leaves) < num_leaves:
        pos = leaves.pop(int(rng.integers(len(leaves))))
        question = questions[int(rng.integers(len(questions)))]
        nodes[pos] = InternalNode(question.id, len(nodes), len(nodes) + 1)
        leaves += [len(nodes), len(nodes) + 1]
        nodes += [None, None]
    for index, pos in enumerate(rng.permutation(leaves)):
        nodes[pos] = LeafNode(index)
    return DecisionTree(tuple(nodes))


def assert_routes_like_route_word(tree, questions, classes, words, word_index):
    leaves, leaf_rows = _route_tokens(
        tree, {q.id: q for q in questions}, classes, WordColumns.of(words), word_index
    )
    expected = [
        tree.leaf_letters.index(oracles.route_word(tree, w, questions, classes)) for w in words
    ]
    np.testing.assert_array_equal(leaves, np.array(expected, dtype=np.intp)[word_index])
    assert len(leaf_rows) == tree.num_leaves
    for leaf, rows in enumerate(leaf_rows):
        np.testing.assert_array_equal(rows, np.flatnonzero(leaves == leaf))


class TestRouting:
    """``_route_tokens`` (word index sets down the tree) against the scalar
    ``oracles.route_word``."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_trees(self, seed, classes):
        rng = np.random.default_rng(seed)
        questions = [random_question(rng, 3 * i + 1, classes) for i in range(6)]
        tree = random_tree(rng, questions, int(rng.integers(1, 12)))
        words = [random_word(rng, f"w{i}", classes) for i in range(int(rng.integers(1, 40)))]
        word_index = rng.integers(len(words), size=int(rng.integers(0, 100)), dtype=np.int32)
        assert_routes_like_route_word(tree, questions, classes, words, word_index)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_grown_trees_with_unseen_words(self, seed, classes):
        rng = np.random.default_rng(seed)
        words, samples, _, questions = random_instance(rng, classes, max_words=20, max_tokens=150)
        model = fit(words, samples, questions, classes, TaggerConfig(max_leaves=6, m=1, min_leaf=1))
        unseen = [random_word(rng, f"unseen{i}", classes) for i in range(10)]
        lexicon = words + unseen
        word_index = rng.integers(len(lexicon), size=200, dtype=np.int32)
        assert_routes_like_route_word(model.tree, questions, classes, lexicon, word_index)

    @given(seed=st.integers(0, 10_000), big_param=st.integers(2**63 + 1, 2**70))
    @settings(max_examples=30, deadline=None)
    def test_public_calls_equal_oracles(self, seed, big_param, classes):
        # answer_question and route_word are one-row calls of the column code
        rng = np.random.default_rng(seed)
        words = [random_word(rng, f"w{i}", classes) for i in range(int(rng.integers(0, 8)))]
        # one phoneme, outside every class, stress unmarked
        words.insert(int(rng.integers(len(words) + 1)), WordEntry("zz", ("ZZ",), (0,)))
        questions = every_kind(classes, big_param)
        for q in questions:
            for w in words:
                assert answer_question(q, w, classes) is oracles.answer_question(q, w, classes)
        asked = [questions[i] for i in rng.choice(len(questions), 8, replace=False)]
        tree = random_tree(rng, asked, int(rng.integers(1, 12)))
        for w in words:  # no word was seen when the tree was built
            assert route_word(tree, w, asked, classes) == oracles.route_word(
                tree, w, asked, classes
            )

    def test_cyclic_tree_rejected(self):
        # a tree is checked when built, so no cyclic tree reaches the walk
        with pytest.raises(ModelFormatError, match="node 1: the root node cannot be a child"):
            DecisionTree((InternalNode(0, 1, 2), InternalNode(0, 0, 2), LeafNode(0)))

    def test_fit_and_tag_ask_no_scalar_question(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a question was answered one word at a time")

        monkeypatch.setattr(prosotag.tree, "answer_question", refuse)
        monkeypatch.setattr(prosotag.tagger, "route_word", refuse)
        lexicon, questions, samples = small_corpus(2)
        classes = default_classes()
        questions += [
            Question(id=10 + q.id, kind=q.kind, int_param=q.int_param, class_param=q.class_param)
            for q in default_questions(classes)
        ]
        model = fit(lexicon, samples, questions, classes, TaggerConfig(max_leaves=4, m=2, min_leaf=1))
        assert model.num_leaves == 4
        leaves, _ = tag_tokens(model, lexicon, samples)
        assert leaves.shape == (len(samples),)
        assert tag(model, lexicon[0], samples[0].embedding) in tag_inventory(model)


class TestModelFiles:
    def fitted(self):
        lexicon, questions, samples = small_corpus(4)
        config = TaggerConfig(max_leaves=3, m=2, min_leaf=1, seed=4)
        return fit(lexicon, samples, questions, default_classes(), config), lexicon

    def test_round_trip_bytes(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_json(loaded) == model_to_json(model)
        save_model(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_round_trip_preserves_tags(self, classes):
        model, lexicon = self.fitted()
        buffer = io.BytesIO()
        save_model(model, buffer)
        buffer.seek(0)
        loaded = load_model(buffer)
        rng = np.random.default_rng(5)
        for i in range(200):
            entry = random_word(rng, f"p{i}", classes)
            embedding = rng.normal(scale=3.0, size=4)
            assert tag(model, entry, embedding) == tag(loaded, entry, embedding)

    def test_growth_trace_survives(self):
        model, _ = self.fitted()
        buffer = io.BytesIO()
        save_model(model, buffer)
        buffer.seek(0)
        loaded = load_model(buffer)
        assert loaded.growth_trace == model.growth_trace

    def test_future_version_rejected(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=r"2.*1|1.*2"):
            load_model(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(path)

    def test_truncated_document(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ParseError, ModelFormatError)):
            load_model(path)

    def test_missing_key(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["tree"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="tree"):
            load_model(path)

    def test_corrupt_weights_rejected(self, tmp_path):
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        letter = sorted(doc["gmms"])[0]
        doc["gmms"][letter]["weights"] = [0.9] * len(doc["gmms"][letter]["weights"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_tree_question_missing_from_set(self, tmp_path):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        asked = {n["question_id"] for n in doc["tree"]["nodes"] if "question_id" in n}
        doc["questions"] = [q for q in doc["questions"] if q["id"] not in asked]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="unknown question id"):
            load_model(path)

    def test_tree_with_detached_cycle_rejected(self, tmp_path):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        q = doc["tree"]["nodes"][0]["question_id"]
        doc["tree"] = {
            "nodes": [
                {"leaf_index": 0},
                {"question_id": q, "yes_child": 2, "no_child": 3},
                {"question_id": q, "yes_child": 1, "no_child": 4},
                {"leaf_index": 1},
                {"leaf_index": 2},
            ],
            "leaf_letters": ["a", "b", "c"],
        }
        doc["gmms"]["c"] = doc["gmms"]["b"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="not a single rooted structure"):
            load_model(path)

    def test_duplicate_question_ids(self, tmp_path):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        doc["questions"].append(doc["questions"][0])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="duplicate question id"):
            load_model(path)

    @pytest.mark.parametrize("field, value", [("id", True), ("id", 1.5), ("int_param", 2.5)])
    def test_mistyped_question_field(self, tmp_path, field, value):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        record = next(q for q in doc["questions"] if q["int_param"] is not None)
        record[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=f"{field} must be int"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, where",
        [
            pytest.param(
                lambda doc: doc["config"].update(d=doc["config"]["d"] + 0.9), "config", id="config-d"
            ),
            pytest.param(lambda doc: doc["config"].update(seed=True), "config", id="config-seed"),
            pytest.param(lambda doc: doc["config"].update(min_gain="0"), "config", id="config-min_gain"),
            pytest.param(lambda doc: doc["config"].pop("floor"), "config", id="config-missing"),
            pytest.param(
                lambda doc: _leaf_node(doc).update(leaf_index=_leaf_node(doc)["leaf_index"] + 0.5),
                "tree node",
                id="leaf_index",
            ),
            pytest.param(
                lambda doc: doc["tree"]["nodes"][0].update(yes_child="1"), "tree node 0", id="yes_child"
            ),
            pytest.param(
                lambda doc: doc["gmms"]["a"].update(n_samples=2.5), "gmm for leaf 'a'", id="n_samples"
            ),
            pytest.param(
                lambda doc: doc["growth_trace"][1].update(step=1.7), "growth_trace row 1", id="step"
            ),
            pytest.param(
                lambda doc: doc["growth_trace"][1].update(leaf_split=None),
                "growth_trace row 1",
                id="leaf_split",
            ),
            pytest.param(
                lambda doc: doc["growth_trace"][0].update(num_tokens=True),
                "growth_trace row 0",
                id="num_tokens",
            ),
            pytest.param(lambda doc: doc["gmms"].pop("a"), "has no mixture", id="missing-mixture"),
            pytest.param(
                lambda doc: doc["gmms"].update(zz=doc["gmms"]["a"]),
                "mixtures for unknown leaves",
                id="extra-mixture",
            ),
            pytest.param(
                lambda doc: doc["config"].update(d=None),
                "must record the embedding dimension",
                id="config-d-null",
            ),
            pytest.param(
                lambda doc: doc["gmms"]["a"].update(
                    means=[row[:3] for row in doc["gmms"]["a"]["means"]],
                    vars=[row[:3] for row in doc["gmms"]["a"]["vars"]],
                ),
                "mixture dimension 3",
                id="mixture-d",
            ),
            pytest.param(lambda doc: doc["tree"].update(nodes=[]), "tree has no nodes", id="no-nodes"),
            pytest.param(lambda doc: doc.update(tree=[]), "tree must be an object", id="tree-array"),
            pytest.param(
                lambda doc: doc["tree"]["nodes"].__setitem__(0, 5),
                "tree node 0 is not an object",
                id="node-number",
            ),
            pytest.param(
                lambda doc: doc["tree"]["nodes"][0].update(no_child=doc["tree"]["nodes"][0]["yes_child"]),
                "multiple parents",
                id="shared-child",
            ),
            pytest.param(lambda doc: doc.update(growth_trace=[]), "non-empty array", id="empty-trace"),
            pytest.param(lambda doc: doc["growth_trace"][0].update(step=1), "step-0 row", id="head-step"),
            *(
                pytest.param(
                    lambda doc, value=value: doc["growth_trace"][0].update(step=value),
                    "step-0 row",
                    id=f"head-step-{type(value).__name__}",
                )
                for value in (False, 0.0)
            ),
            pytest.param(
                lambda doc: doc["growth_trace"].__setitem__(1, 3), "growth_trace row 1", id="trace-row-number"
            ),
            pytest.param(
                lambda doc: doc["growth_trace"][1].update(step=9),
                "^growth_trace row 1 records step 9$",
                id="trace-step",
            ),
            pytest.param(
                lambda doc: doc["growth_trace"].pop(),
                "^growth trace records 0 splits for a tree of 2 leaves$",
                id="trace-short",
            ),
            pytest.param(
                lambda doc: doc["growth_trace"].append({**doc["growth_trace"][1], "step": 2}),
                "^growth trace records 2 splits for a tree of 2 leaves$",
                id="trace-long",
            ),
            pytest.param(
                lambda doc: doc["gmms"].update(a=3), "gmm for leaf 'a' is not an object", id="gmm-number"
            ),
            pytest.param(
                lambda doc: doc["gmms"]["a"].update(n_samples=0, means=[[], []], vars=[[], []]),
                "gmm for leaf 'a'",
                id="empty-mixture",
            ),
            pytest.param(lambda doc: doc.update(config=[]), "config must be an object", id="config-array"),
            pytest.param(
                lambda doc: doc.update(questions={}), "questions must be an array", id="questions-object"
            ),
            *(
                pytest.param(
                    lambda doc, value=value: doc["questions"].__setitem__(0, value),
                    "^question 0 is not an object$",
                    id=f"question-{name}",
                )
                for name, value in [("number", 5), ("string", "x"), ("array", [1])]
            ),
            pytest.param(lambda doc: doc.update(gmms=[]), "gmms must be an object", id="gmms-array"),
            pytest.param(
                lambda doc: doc["tree"].pop("leaf_letters"),
                "tree must carry nodes and leaf_letters arrays",
                id="no-leaf-letters",
            ),
        ],
    )
    def test_mistyped_model_field(self, tmp_path, edit, where):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=where):
            load_model(path)

    @pytest.mark.parametrize(
        "build, edit, message",
        [
            pytest.param(
                lambda: LeafGmm(np.ones(1), np.zeros((1, 1)), np.ones((1, 1)), True),
                lambda doc: doc["gmms"]["a"].update(n_samples=True),
                "n_samples must be int, got bool",
                id="n_samples",
            ),
            pytest.param(
                lambda: LeafNode(False),
                lambda doc: _leaf_node(doc).update(leaf_index=False),
                "leaf_index must be int, got bool",
                id="leaf_index",
            ),
            pytest.param(
                lambda: InternalNode(0, 1, 2.0),
                lambda doc: doc["tree"]["nodes"][0].update(no_child=2.0),
                "no_child must be int, got float",
                id="no_child",
            ),
            pytest.param(
                lambda: Question(id=True, kind=QuestionKind.ENDS_CLOSED_SYLLABLE),
                lambda doc: doc["questions"][0].update(id=True),
                "id must be int, got bool",
                id="question-id",
            ),
            pytest.param(
                lambda: Question(id=0, kind=QuestionKind.PHONEME_COUNT_GT, int_param=2.5),
                lambda doc: next(q for q in doc["questions"] if q["int_param"] is not None).update(
                    int_param=2.5
                ),
                "int_param must be int, got float",
                id="int_param",
            ),
            pytest.param(
                lambda: SplitRecord(True, "a", 0, -1.0, -2.0, 3.0),
                lambda doc: doc["growth_trace"][1].update(step=True),
                "step must be int, got bool",
                id="split-step",
            ),
            pytest.param(
                lambda: GrowthTrace(initial_ll=0.0, num_tokens=1.5),
                lambda doc: doc["growth_trace"][0].update(num_tokens=1.5),
                "num_tokens must be int, got float",
                id="trace-num_tokens",
            ),
            pytest.param(
                lambda: PhonemeClassTable({"Vowel": ["AA", 3]}),
                lambda doc: doc["classes"].update(Vowel=["AA", 3]),
                "class 'Vowel' must be a",
                id="class-member",
            ),
            pytest.param(
                lambda: PhonemeClassTable({"Vowel": "AEIOU"}),
                lambda doc: doc["classes"].update(Vowel="AEIOU"),
                "class 'Vowel' must be a",
                id="class-string",
            ),
        ],
    )
    def test_constructor_refuses_what_load_model_refuses(self, tmp_path, build, edit, message):
        """A value the model file cannot hold cannot be built either, so
        ``save_model`` never writes a file ``load_model`` refuses."""
        with pytest.raises(ValidationError, match=message):
            build()
        model, _ = self.fitted()
        path = tmp_path / "model.json"
        save_model(model, path)
        assert model_to_json(load_model(path)) == model_to_json(model)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    @pytest.mark.parametrize(
        "record, updates, dropped, message",
        [
            pytest.param(
                lambda doc: doc["tree"]["nodes"][0],
                {"question_id": "1"},
                ("no_child",),
                "tree node 0: missing field 'no_child'",
                id="tree-node",
            ),
            pytest.param(
                lambda doc: doc["growth_trace"][1],
                {"step": True},
                ("avg_samples_per_leaf",),
                "malformed growth_trace row 1: missing field 'avg_samples_per_leaf'",
                id="trace-row",
            ),
            pytest.param(
                lambda doc: doc["gmms"]["a"],
                {},
                ("n_samples",),
                "malformed gmm for leaf 'a': missing field 'n_samples'",
                id="gmm",
            ),
            pytest.param(
                lambda doc: doc["config"],
                {"seed": True},
                ("floor",),
                "malformed config: missing field 'floor'",
                id="config",
            ),
        ],
    )
    def test_missing_field_reported_before_mistyped_ones(self, tmp_path, record, updates, dropped, message):
        """A record's keys are found first, then the record type checks the
        values, so a missing field is named even after a mistyped one."""
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        record(doc).update(updates)
        for key in dropped:
            del record(doc)[key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as info:
            load_model(path)
        assert str(info.value) == message

    def test_trace_that_disagrees_with_the_tree_cannot_be_built(self):
        """``save_model`` cannot write the traces ``load_model`` refuses."""
        model, _ = self.fitted()
        trace = model.growth_trace
        (record,) = trace.records
        with pytest.raises(ModelFormatError, match="^growth_trace row 1 records step 2$"):
            GrowthTrace(trace.initial_ll, trace.num_tokens, (replace(record, step=2),))
        for records in ((), (record, replace(record, step=2))):
            with pytest.raises(ModelFormatError, match="splits for a tree of 2 leaves$"):
                replace(model, growth_trace=replace(trace, records=records))

    def test_integer_floats_stored_as_floats(self):
        """An int given for a float trace field is kept as the float that
        ``load_model`` reads back, so the saved text does not change."""
        record = SplitRecord(1, "a", 0, 7, -2, 3)
        trace = GrowthTrace(initial_ll=-5, num_tokens=6, records=(record,))
        values = (record.gain, record.total_leaf_ll, record.avg_samples_per_leaf, trace.initial_ll)
        assert [(type(v), v) for v in values] == [(float, 7.0), (float, -2.0), (float, 3.0), (float, -5.0)]

    def test_integer_gain_loads_as_float(self, tmp_path):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        doc["growth_trace"][1]["gain"] = 7
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        gain = load_model(path).growth_trace.records[0].gain
        assert type(gain) is float and gain == 7.0

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda gmm: gmm.update(weights=[str(w) for w in gmm["weights"]]), id="string-weights"),
            pytest.param(lambda gmm: gmm["weights"].__setitem__(0, True), id="bool-weight"),
            pytest.param(lambda gmm: gmm["means"][0].__setitem__(0, True), id="bool-mean"),
            pytest.param(lambda gmm: gmm["vars"][0].__setitem__(0, "1.0"), id="string-var"),
            pytest.param(lambda gmm: gmm["means"].__setitem__(0, 1.0), id="flat-means"),
            pytest.param(lambda gmm: gmm["means"][0].__setitem__(0, 10**400), id="huge-mean"),
        ],
    )
    def test_non_numeric_mixture_rejected(self, tmp_path, edit):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        edit(doc["gmms"]["b"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="gmm for leaf 'b'"):
            load_model(path)

    @pytest.mark.parametrize("members", ["MN", ["M", 1], ["M", None]], ids=["string", "int", "null"])
    def test_class_members_must_be_strings(self, tmp_path, members):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        doc["classes"]["Nasal"] = members
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match="class table.*'Nasal'"):
            load_model(path)

    def test_serialized_floats_shortest_repr(self):
        model, _ = self.fitted()
        doc = json.loads(model_to_json(model))
        letter = sorted(doc["gmms"])[0]
        value = doc["gmms"][letter]["means"][0][0]
        assert value == model.gmms[letter].means[0, 0]


class TestSectionCodecs:
    """Each model-file section read back by its own module, through JSON text."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip(self, seed, classes):
        def through_json(value):
            return json.loads(json.dumps(value))

        rng = np.random.default_rng(seed)
        asked = [random_question(rng, 3 * i + 1, classes) for i in range(6)]
        tree = random_tree(rng, asked, int(rng.integers(1, 12)))
        assert _tree_from_dict(through_json(tree.to_dict())) == tree
        words, samples, _, questions = random_instance(rng, classes, max_words=20, max_tokens=150)
        config = TaggerConfig(max_leaves=5, m=3, min_leaf=1, seed=seed)
        model = fit(words, samples, questions, classes, config)
        assert _tree_from_dict(through_json(model.tree.to_dict())) == model.tree
        trace = model.growth_trace
        assert _trace_from_rows(through_json(trace.to_rows())) == trace
        for letter, gmm in model.gmms.items():
            back = _gmm_from_dict(letter, through_json(gmm.to_dict()))
            assert back.n_samples == gmm.n_samples
            for name in ("weights", "means", "variances"):
                assert getattr(back, name).tobytes() == getattr(gmm, name).tobytes()


def test_public_names_resolve():
    namespace: dict = {}
    exec("from prosotag import *", namespace)
    assert len(set(prosotag.__all__)) == len(prosotag.__all__)
    for name in prosotag.__all__:
        assert name in namespace, name
