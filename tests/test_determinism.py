"""Byte identity of every file the CLI writes, pinned by sha256.

The model and tag digests were recorded before the embedding files were read
into a columnar corpus; the ``synth`` output and growth-trace digests before
every writer went through one atomic file layer. The ``kinds`` corpus, whose
question file also carries the shipped default questions so that growth asks
all seven question kinds, was recorded before questions were answered by
column; the ``long`` synth corpus before ``synth`` drew each word's phonemes
and normals in one call. Any refactor of the load, growth, fitting, tagging
or writing path must keep them. A change that alters output on purpose
updates them and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from prosotag import ProsodySample, TaggerConfig, fit, model_to_json
from prosotag.cli import main
from prosotag.gaussian import load_samples
from prosotag.phonetics import (
    Question,
    QuestionKind,
    WordEntry,
    default_questions,
    load_classes,
    load_lexicon,
    load_questions,
    save_questions,
)

CORPORA = {
    "jsonl": (
        ["--archetypes", "4", "--words-per-archetype", "10", "--tokens-per-word", "6",
         "--components", "3", "--d", "5", "--seed", "3", "--class-distinctions"],
        ["--max-leaves", "5", "--components", "3", "--min-leaf", "4", "--seed", "2"],
    ),
    "binary": (
        ["--archetypes", "3", "--words-per-archetype", "12", "--tokens-per-word", "5",
         "--components", "2", "--d", "7", "--seed", "11", "--binary"],
        ["--max-leaves", "4", "--components", "2", "--min-leaf", "3"],
    ),
    "kinds": (
        ["--archetypes", "6", "--words-per-archetype", "12", "--tokens-per-word", "3",
         "--components", "2", "--d", "4", "--seed", "4", "--class-distinctions"],
        ["--max-leaves", "24", "--components", "2", "--min-leaf", "2", "--seed", "1"],
    ),
}

# corpora whose synth outputs alone are pinned; "long" has words of up to 78
# phonemes, whose draws alternate between the consonant and vowel pool bounds
SYNTH_ONLY = {
    "long": ["--archetypes", "26", "--words-per-archetype", "3", "--tokens-per-word", "2",
             "--components", "1", "--binary"],
}

# corpora whose synth question file is extended with the default questions
EXTENDED = {"kinds"}

DIGESTS = {
    "jsonl": {
        "model": "485d9dabfef73ff690c3cd8601787f5ab85e935ef752ef3fc7d2359c9464c0fc",
        "tags": "bead00b57abd1da26bbec53530d4e983d219daaa7b6039bdcac1470162b6553c",
        "trace": "099ddc306a883dafab24abdeeca43fda59d96f86de13991331ef2cbe36f0a701",
    },
    "binary": {
        "model": "b0c282dca4fba24a4e8215be862f972ab3f2df6728982d60244089c25304ded5",
        "tags": "49c2c3ac9945f223943fd97e5cad795e078d77b148d804f09909619a3bb935e7",
        "trace": "b3f20fabf4be8330f0b7a9b2fbc8323f649d8cb736831bd3328f110a49d5667e",
    },
    "kinds": {
        "model": "ceddc5918aba16aff4d77ccccdd64b11457d455a4acd566907edccf4d04062e2",
        "tags": "e22528794aff9de1bc95e61bb1be729fceca11f76ea0bcb3def4fed51a1f97a6",
        "trace": "64e1b28c9a8435649699b7de297a58cc1072eb08e4cbb9fc84760c98ec4a2b52",
    },
}

SYNTH_DIGESTS = {
    "jsonl": {
        "lexicon.jsonl": "4fbab1e8519c47d44ffde16630694972314fd0b31e43787634f0d4a0b6ac5c94",
        "questions.jsonl": "629da33ee7aef7ae808d4ff5468fa7c772bd79c946287ec260ed3f5542088c3b",
        "classes.json": "f34f6cf62817045d7f1d695dafc5c391516ac73deccae9c4a1b462003c5767a8",
        "embeddings": "d32b4b71998fe6891b194b1d8890597b141c6eb0f1a510fba1d6b5f574d981a0",
        "truth.jsonl": "6df2e339567563b00f0f6d1921277399a5fe513476efa81be9550cd927ed095a",
    },
    "binary": {
        "lexicon.jsonl": "878c4c156e370d872f08a574abf0d7078726e0981809068358ee8966e76722c6",
        "questions.jsonl": "bcbe4267195c49daee3cc29ab4a9408b12b508da9d4cbf8f46bae66764830d7f",
        "classes.json": "f34f6cf62817045d7f1d695dafc5c391516ac73deccae9c4a1b462003c5767a8",
        "embeddings": "0f68e309b46bcd3f195f25a180150fd3f4e8f350374018c4e1c73e2e09c744cd",
        "truth.jsonl": "bdc1839987920c6bb6dc6b645d0519451034ba82feed77149f49dbd2c4374ef6",
    },
    "kinds": {
        "lexicon.jsonl": "c151a0419b3e84139497ef2b219dde04b365f2ab7966c5e4780c813efa791329",
        "questions.jsonl": "8f584d2645b2801d932956f77398e256cc614b9a8078d4be4786bdf3f5fc8972",
        "classes.json": "f34f6cf62817045d7f1d695dafc5c391516ac73deccae9c4a1b462003c5767a8",
        "embeddings": "3cb1718d78d49c5047a08f7f5c4abf48504c764cee01fcd4aaa10d13f2515553",
        "truth.jsonl": "794c6fbf95442fd6474a615296051ecccfa2fae214cb8a967754a9f0bc810c11",
    },
    "long": {
        "lexicon.jsonl": "cc9f9fcd2d01be14ed52dddda1bf14942d277d9058fed5e00501d2b0a9fb3b84",
        "questions.jsonl": "f26e3d17ce23126b4a780c296e70384e352e79e19bfca431d65bfeed241c501f",
        "classes.json": "f34f6cf62817045d7f1d695dafc5c391516ac73deccae9c4a1b462003c5767a8",
        "embeddings": "2a3dea4b7862c88c2a303ac614e37d67dcf057e9ea45e188057004e918316ccd",
        "truth.jsonl": "5007932e991ea914703a53cfc48b91855330c92fb801a3ecd3ee4e21774c95e4",
    },
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inputs(root) -> list[str]:
    return [
        "--lexicon", str(root / "lexicon.jsonl"),
        "--questions", str(root / "questions.jsonl"),
        "--classes", str(root / "classes.json"),
        "--embeddings", str(root / "embeddings"),
    ]


def _extend_questions(root) -> None:
    """Append the default questions, ids offset past the synth set."""
    classes = load_classes(root / "classes.json")
    questions = load_questions(root / "questions.jsonl", classes)
    offset = max(q.id for q in questions) + 1
    extra = [
        Question(id=offset + q.id, kind=q.kind, int_param=q.int_param, class_param=q.class_param)
        for q in default_questions(classes)
    ]
    save_questions(questions + extra, root / "questions.jsonl")


def _synth(root, name: str) -> None:
    flags = CORPORA[name][0] if name in CORPORA else SYNTH_ONLY[name]
    args = ["synth", *_inputs(root), "--ground-truth", str(root / "truth.jsonl"), *flags]
    assert main(args) == 0
    if name in EXTENDED:
        _extend_questions(root)


def _fit_and_tag(root, name: str) -> dict[str, bytes]:
    """CLI ``fit --out`` then ``tag`` on the same corpus; returns the output bytes."""
    fit_flags = CORPORA[name][1]
    model = root / "model.json"
    fit_tags = root / "fit_tags.jsonl"
    tags = root / "tags.jsonl"
    assert main(["fit", *_inputs(root), "--model", str(model), "--out", str(fit_tags),
                 *fit_flags]) == 0
    assert main(["tag", "--model", str(model), "--lexicon", str(root / "lexicon.jsonl"),
                 "--embeddings", str(root / "embeddings"), "--out", str(tags)]) == 0
    return {"model": model.read_bytes(), "fit_tags": fit_tags.read_bytes(),
            "tags": tags.read_bytes(), "trace": (root / "model.json.trace.csv").read_bytes()}


def test_extended_corpus_asks_every_kind(tmp_path, capsys):
    _synth(tmp_path, "kinds")
    classes = load_classes(tmp_path / "classes.json")
    questions = load_questions(tmp_path / "questions.jsonl", classes)
    assert {q.kind for q in questions} == set(QuestionKind)


def _synth_digests(root) -> dict[str, str]:
    return {file: _sha((root / file).read_bytes()) for file in SYNTH_DIGESTS["jsonl"]}


def _refuse(self):
    raise AssertionError("a per-token ProsodySample was built")


@pytest.mark.parametrize("name", sorted(SYNTH_DIGESTS))
def test_synth_outputs_pinned(name, tmp_path, capsys):
    _synth(tmp_path, name)
    assert _synth_digests(tmp_path) == SYNTH_DIGESTS[name]


@pytest.mark.parametrize("name", ["binary", "jsonl"])
def test_synth_builds_no_token_objects(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ProsodySample, "__post_init__", _refuse)
    _synth(tmp_path, name)
    assert _synth_digests(tmp_path) == SYNTH_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_cli_outputs_pinned(name, tmp_path, capsys):
    _synth(tmp_path, name)
    out = _fit_and_tag(tmp_path, name)
    assert _sha(out["model"]) == DIGESTS[name]["model"]
    assert _sha(out["tags"]) == DIGESTS[name]["tags"]
    assert _sha(out["trace"]) == DIGESTS[name]["trace"]
    assert out["fit_tags"] == out["tags"]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_api_model_pinned(name, tmp_path, capsys):
    _synth(tmp_path, name)
    classes = load_classes(tmp_path / "classes.json")
    flags = CORPORA[name][1]
    opts = dict(zip(flags[::2], flags[1::2]))
    config = TaggerConfig(
        m=int(opts["--components"]),
        max_leaves=int(opts["--max-leaves"]),
        min_leaf=int(opts["--min-leaf"]),
        seed=int(opts.get("--seed", 0)),
    )
    model = fit(
        load_lexicon(tmp_path / "lexicon.jsonl"),
        load_samples(tmp_path / "embeddings"),
        load_questions(tmp_path / "questions.jsonl", classes),
        classes,
        config,
    )
    assert _sha(model_to_json(model).encode("utf-8")) == DIGESTS[name]["model"]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_cli_builds_no_token_objects(name, tmp_path, monkeypatch, capsys):
    _synth(tmp_path, name)
    monkeypatch.setattr(ProsodySample, "__post_init__", _refuse)
    out = _fit_and_tag(tmp_path, name)
    assert _sha(out["tags"]) == DIGESTS[name]["tags"]


def _refuse_word(self):
    raise AssertionError("a WordEntry was built")


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_cli_builds_no_word_entries(name, tmp_path, monkeypatch, capsys):
    # the lexicon is read into columns and growth, routing and tagging gather
    # rows from them
    _synth(tmp_path, name)
    monkeypatch.setattr(WordEntry, "__post_init__", _refuse_word)
    out = _fit_and_tag(tmp_path, name)
    assert _sha(out["model"]) == DIGESTS[name]["model"]
    assert _sha(out["tags"]) == DIGESTS[name]["tags"]
