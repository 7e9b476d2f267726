"""The benchmark's workloads: how each one's inputs are made and what is timed.

Every input is generated through the program's own ``synth`` command from the
workload seed, so the program only ever sees the generated files. A step is
``("cli", argv)`` for ``python -m prosotag.cli argv`` or ``("extend", args)``
for ``extend_questions.py args``.

Sizes keep each timed command at about 2-3 s and each set-up at 2-4 s on a
2-core host, so a run of 36 s takes six or more samples of the command
besides its three set-ups.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

Step = tuple[str, list[str]]


@dataclass(frozen=True)
class Corpus:
    """The file set one ``synth`` call writes, named by a prefix."""

    work: Path
    prefix: str

    def path(self, kind: str) -> str:
        return str(self.work / f"{self.prefix}_{kind}")

    def inputs(self) -> list[str]:
        return [
            "--lexicon", self.path("lexicon.jsonl"),
            "--questions", self.path("questions.jsonl"),
            "--classes", self.path("classes.json"),
            "--embeddings", self.path("embeddings"),
        ]

    def synth(self, seed: int, *size: str) -> Step:
        return ("cli", ["synth", *self.inputs(), "--ground-truth", self.truth, "--seed", str(seed), *size])

    @property
    def truth(self) -> str:
        return self.path("truth.jsonl")


@dataclass(frozen=True)
class Plan:
    """One workload instance: set-up steps, the timed command, and its checks.

    Outputs of the timed command are named by a ``run`` label so that repeats,
    the traced run and the untraced run can be compared byte for byte.
    """

    name: str
    work: Path
    setup: list[Step]
    tokens: int
    corpus: Corpus  # the corpus the tags are checked against
    fits: bool  # timed command is ``fit``; otherwise ``tag``
    fit_args: tuple[str, ...] = ()
    model: str = ""  # model the timed ``tag`` reads

    def model_path(self, run: str) -> str:
        return str(self.work / f"{run}_model.json") if self.fits else self.model

    def tags_path(self, run: str) -> str:
        return str(self.work / f"{run}_tags.jsonl")

    def timed(self, run: str) -> list[str]:
        if self.fits:
            return ["fit", *self.corpus.inputs(), "--model", self.model_path(run), *self.fit_args]
        return self.tag_argv(run)

    def outputs(self, run: str) -> list[str]:
        """Files the timed command writes."""
        if self.fits:
            return [self.model_path(run), self.model_path(run) + ".trace.csv"]
        return [self.tags_path(run)]

    def tag_argv(self, run: str) -> list[str]:
        """Tags the check corpus with the run's model; untimed after a fit."""
        c = self.corpus
        return [
            "tag", "--model", self.model_path(run),
            "--lexicon", c.path("lexicon.jsonl"), "--embeddings", c.path("embeddings"),
            "--out", self.tags_path(run),
        ]


NAMES = ("fit_planted", "tag_unseen", "grow_wide")


def plan(name: str, seed: int, work: Path) -> Plan:
    if name == "fit_planted":
        # gmm-bound: 10 leaves of 3,000 tokens each, JSON-lines input
        corpus = Corpus(work, "corpus")
        size = ["--archetypes", "10", "--words-per-archetype", "150", "--tokens-per-word", "20",
                "--components", "5", "--d", "16"]
        return Plan(name, work, [corpus.synth(seed, *size)], 10 * 150 * 20, corpus, fits=True)
    if name == "tag_unseen":
        # no fitting in the timed command; the tagged corpus comes from another seed
        train = Corpus(work, "train")
        corpus = Corpus(work, "corpus")
        model = str(work / "train_model.json")
        setup = [
            train.synth(2 * seed, "--words-per-archetype", "50", "--tokens-per-word", "20"),
            ("cli", ["fit", *train.inputs(), "--model", model]),
            corpus.synth(2 * seed + 1, "--words-per-archetype", "250", "--tokens-per-word", "20",
                         "--binary"),
        ]
        return Plan(name, work, setup, 10 * 250 * 20, corpus, fits=False, model=model)
    if name == "grow_wide":
        # tree-bound: 10,400 words of 2 tokens, 25 planted + 20 default questions
        corpus = Corpus(work, "corpus")
        size = ["--archetypes", "26", "--words-per-archetype", "400", "--tokens-per-word", "2",
                "--components", "1", "--binary"]
        setup = [
            corpus.synth(seed, *size),
            ("extend", [corpus.path("questions.jsonl"), corpus.path("classes.json")]),
        ]
        return Plan(name, work, setup, 26 * 400 * 2, corpus, fits=True,
                    fit_args=("--max-leaves", "40", "--components", "1"))
    raise ValueError(f"unknown workload {name!r}")
