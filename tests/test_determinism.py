"""Byte identity of fitted models and tag files, pinned by sha256.

The digests were recorded before the embedding files were read into a
columnar corpus; any refactor of the load, growth, fitting or tagging path
must keep them. A change that alters output on purpose updates them and
says so.
"""

from __future__ import annotations

import hashlib

import pytest

from prosotag import ProsodySample, TaggerConfig, fit, model_to_json
from prosotag.cli import main
from prosotag.gaussian import load_samples
from prosotag.phonetics import load_classes, load_lexicon, load_questions

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
}

DIGESTS = {
    "jsonl": {
        "model": "485d9dabfef73ff690c3cd8601787f5ab85e935ef752ef3fc7d2359c9464c0fc",
        "tags": "bead00b57abd1da26bbec53530d4e983d219daaa7b6039bdcac1470162b6553c",
    },
    "binary": {
        "model": "b0c282dca4fba24a4e8215be862f972ab3f2df6728982d60244089c25304ded5",
        "tags": "49c2c3ac9945f223943fd97e5cad795e078d77b148d804f09909619a3bb935e7",
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


def _synth(root, name: str) -> None:
    flags = CORPORA[name][0]
    args = ["synth", *_inputs(root), "--ground-truth", str(root / "truth.jsonl"), *flags]
    assert main(args) == 0


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
            "tags": tags.read_bytes()}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_cli_outputs_pinned(name, tmp_path, capsys):
    _synth(tmp_path, name)
    out = _fit_and_tag(tmp_path, name)
    assert _sha(out["model"]) == DIGESTS[name]["model"]
    assert _sha(out["tags"]) == DIGESTS[name]["tags"]
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

    def refuse(self):
        raise AssertionError("a per-token ProsodySample was built")

    monkeypatch.setattr(ProsodySample, "__post_init__", refuse)
    out = _fit_and_tag(tmp_path, name)
    assert _sha(out["tags"]) == DIGESTS[name]["tags"]
