"""End-to-end command-line behavior: exit codes, files, idempotence."""

from __future__ import annotations

import ast
import errno
import importlib
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from prosotag import (
    Corpus,
    DecisionTree,
    GrowthTrace,
    InternalNode,
    LeafGmm,
    LeafNode,
    Question,
    QuestionKind,
    TaggerConfig,
    TaggerModel,
    cli,
    default_classes,
    leaf_letter,
    load_lexicon,
    load_model,
    save_model,
    tag_tokens,
)
from prosotag._io import CHUNK_LINES, write_bytes
from prosotag.cli import _format_tags, main


CORPUS_FLAGS = [
    "--archetypes", "2",
    "--words-per-archetype", "6",
    "--tokens-per-word", "6",
    "--components", "2",
    "--d", "4",
    "--separation", "8.0",
    "--seed", "0",
]


def synth_args(root, **extra):
    args = [
        "synth",
        "--lexicon", str(root / "lexicon.jsonl"),
        "--questions", str(root / "questions.jsonl"),
        "--classes", str(root / "classes.json"),
        "--embeddings", str(root / "embeddings.jsonl"),
        "--ground-truth", str(root / "truth.jsonl"),
    ] + CORPUS_FLAGS
    for flag, value in extra.items():
        name = "--" + flag.replace("_", "-")
        if value is True:
            args.append(name)
        else:
            idx = args.index(name)
            args[idx + 1] = str(value)
    return args


def fit_args(root, model_path, **extra):
    args = [
        "fit",
        "--lexicon", str(root / "lexicon.jsonl"),
        "--embeddings", str(root / "embeddings.jsonl"),
        "--questions", str(root / "questions.jsonl"),
        "--classes", str(root / "classes.json"),
        "--model", str(model_path),
        "--max-leaves", "2",
        "--components", "2",
        "--min-leaf", "1",
    ]
    for flag, value in extra.items():
        args += ["--" + flag.replace("_", "-"), str(value)]
    return args


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(synth_args(root)) == 0
    return root


@pytest.fixture(scope="module")
def fitted(corpus, tmp_path_factory):
    root = tmp_path_factory.mktemp("fitted")
    model_path = root / "model.json"
    assert main(fit_args(corpus, model_path)) == 0
    return model_path


class TestSynth:
    def test_writes_all_files(self, corpus, capsys):
        for name in (
            "lexicon.jsonl",
            "questions.jsonl",
            "classes.json",
            "embeddings.jsonl",
            "truth.jsonl",
        ):
            assert (corpus / name).exists()

    def test_summary_line(self, tmp_path, capsys):
        assert main(synth_args(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "synth: 12 words, 72 tokens, 1 questions (seed 0)" in out

    def test_deterministic_bytes(self, corpus, tmp_path):
        assert main(synth_args(tmp_path)) == 0
        for name in (
            "lexicon.jsonl",
            "questions.jsonl",
            "classes.json",
            "embeddings.jsonl",
            "truth.jsonl",
        ):
            assert (tmp_path / name).read_bytes() == (corpus / name).read_bytes()

    def test_binary_embeddings(self, tmp_path):
        assert main(synth_args(tmp_path, binary=True)) == 0
        assert (tmp_path / "embeddings.jsonl").read_bytes()[:4] == b"PTE1"

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        assert main(synth_args(tmp_path, d=2)) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert not (tmp_path / "lexicon.jsonl").exists()

    @pytest.mark.parametrize("separation", ["nan", "inf"])
    def test_non_finite_separation_exits_2(self, tmp_path, capsys, separation):
        assert main(synth_args(tmp_path, separation=separation)) == 2
        err = capsys.readouterr().err
        assert err.startswith("prosotag: invalid configuration: component_separation")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_embedding_exits_1_before_writing(self, tmp_path, capsys):
        # archetype 2's base mean is 2 * 1e308, which overflows to inf
        assert main(synth_args(tmp_path, separation="1e308", archetypes=3)) == 1
        err = capsys.readouterr().err
        assert "token 'w02_000:000': embedding has non-finite values" in err
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_outputs_and_summary(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(fit_args(corpus, model_path)) == 0
        out = capsys.readouterr().out
        assert "fit: 2 leaves, 4 tags, final total leaf log-likelihood" in out
        assert model_path.exists()
        assert (tmp_path / "model.json.trace.csv").exists()
        model = load_model(model_path)
        assert model.num_leaves == 2

    def test_trace_csv_flag(self, corpus, tmp_path):
        model_path = tmp_path / "model.json"
        trace_path = tmp_path / "curve.csv"
        assert main(fit_args(corpus, model_path, trace_csv=trace_path)) == 0
        assert trace_path.exists()
        assert not (tmp_path / "model.json.trace.csv").exists()

    def test_idempotent(self, corpus, fitted, tmp_path):
        again = tmp_path / "model.json"
        assert main(fit_args(corpus, again)) == 0
        assert again.read_bytes() == fitted.read_bytes()

    def test_fit_out_matches_tag(self, corpus, fitted, tmp_path, capsys):
        trained_tags = tmp_path / "train.tags.jsonl"
        model_path = tmp_path / "model.json"
        assert main(fit_args(corpus, model_path, out=trained_tags)) == 0
        tagged = tmp_path / "tagged.jsonl"
        assert (
            main(
                [
                    "tag",
                    "--model", str(fitted),
                    "--lexicon", str(corpus / "lexicon.jsonl"),
                    "--embeddings", str(corpus / "embeddings.jsonl"),
                    "--out", str(tagged),
                ]
            )
            == 0
        )
        assert tagged.read_bytes() == trained_tags.read_bytes()
        assert "tag: wrote 72 tags to" in capsys.readouterr().out

    def test_missing_embeddings_leaves_no_model(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        args = fit_args(corpus, model_path)
        args[args.index("--embeddings") + 1] = str(tmp_path / "absent.jsonl")
        assert main(args) == 1
        assert not model_path.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_line",
        [
            b'{"token_id": "x", "word": "w00_000", "embedding": "abc"}',
            b'{"token_id": "x", "word": "w00_000", "embedding": [[1, 2], [3]]}',
            b'{"token_id": "x", "word": "w00_000", "embedding": [1, 2, 3, 4]}\xff',
        ],
    )
    def test_malformed_embeddings_exit_1(self, corpus, tmp_path, capsys, bad_line):
        lines = (corpus / "embeddings.jsonl").read_bytes().splitlines()
        bad = tmp_path / "embeddings.jsonl"
        bad.write_bytes(b"\n".join(lines[:3] + [bad_line] + lines[3:]) + b"\n")
        model_path = tmp_path / "model.json"
        args = fit_args(corpus, model_path)
        args[args.index("--embeddings") + 1] = str(bad)
        assert main(args) == 1
        assert "line 4" in capsys.readouterr().err
        assert not model_path.exists()

    def test_bad_config_exits_2(self, corpus, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(fit_args(corpus, model_path, min_gain="-1.0")) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_non_utf8_lexicon_exit_1(self, corpus, tmp_path, capsys):
        lines = (corpus / "lexicon.jsonl").read_bytes().splitlines()
        bad = tmp_path / "lexicon.jsonl"
        bad.write_bytes(b"\n".join(lines[:2] + [lines[2].replace(b"w", b"w\xff", 1)]) + b"\n")
        model_path = tmp_path / "model.json"
        args = fit_args(corpus, model_path)
        args[args.index("--lexicon") + 1] = str(bad)
        assert main(args) == 1
        assert "line 3: not valid UTF-8" in capsys.readouterr().err
        assert not model_path.exists()


    def test_huge_embeddings_exit_1_naming_the_leaf(self, tmp_path):
        # finite, but their squares overflow float64; a fresh process shows
        # any numpy warning on stderr as well
        assert main(synth_args(tmp_path, d=8)) == 0
        path = tmp_path / "embeddings.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        path.write_text("".join(
            json.dumps({**r, "embedding": [v * 1e160 for v in r["embedding"]]}) + "\n"
            for r in records
        ))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-m", "prosotag.cli", *fit_args(tmp_path, tmp_path / "model.json")],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr.startswith("prosotag: error: leaf 'a': samples too large in magnitude")
        assert out.stderr.count("\n") == 1
        assert not (tmp_path / "model.json").exists()

    def test_fit_leaves_numpy_random_unloaded(self, corpus, tmp_path):
        # one-component leaves draw nothing; k-means++ draws from gmm._Pcg64,
        # so no fit imports numpy.random or the hashlib and secrets it pulls in
        one = fit_args(corpus, tmp_path / "one.json", components=1)
        five = fit_args(corpus, tmp_path / "five.json", components=5)
        unloaded = "assert not {'numpy.random', 'hashlib', 'secrets'} & sys.modules.keys()\n"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from prosotag import fit_gmm\n"
            "from prosotag.cli import main\n"
            + unloaded
            + "x = np.sin(np.arange(60.0)).reshape(20, 3)\n"
            "fit_gmm(x, 1, 7)\n"
            "fit_gmm(x, 2, 7)\n"
            + unloaded
            + f"assert main({one!r}) == 0\n"
            f"assert main({five!r}) == 0\n"
            + unloaded
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


class TestTag:
    def test_tag_lines_shape(self, corpus, fitted, tmp_path):
        out = tmp_path / "tags.jsonl"
        assert (
            main(
                [
                    "tag",
                    "--model", str(fitted),
                    "--lexicon", str(corpus / "lexicon.jsonl"),
                    "--embeddings", str(corpus / "embeddings.jsonl"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 72
        record = json.loads(lines[0])
        assert set(record) == {"token_id", "word", "tag"}
        assert record["tag"][0] in "ab"

    def test_dimension_mismatch(self, fitted, tmp_path, capsys):
        assert main(synth_args(tmp_path, d=6)) == 0
        capsys.readouterr()
        code = main(
            [
                "tag",
                "--model", str(fitted),
                "--lexicon", str(tmp_path / "lexicon.jsonl"),
                "--embeddings", str(tmp_path / "embeddings.jsonl"),
                "--out", str(tmp_path / "tags.jsonl"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "6" in err and "4" in err
        assert not (tmp_path / "tags.jsonl").exists()

    def test_huge_embeddings_exit_1_naming_the_leaf(self, corpus, fitted, tmp_path, capsys):
        # finite, but their squared distances to the means overflow float64
        path = tmp_path / "embeddings.jsonl"
        records = [json.loads(line) for line in (corpus / "embeddings.jsonl").read_text().splitlines()]
        path.write_text("".join(
            json.dumps({**r, "embedding": [v * 1e160 for v in r["embedding"]]}) + "\n"
            for r in records
        ))
        args = [
            "tag",
            "--model", str(fitted),
            "--lexicon", str(corpus / "lexicon.jsonl"),
            "--embeddings", str(path),
            "--out", str(tmp_path / "tags.jsonl"),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("prosotag: error: leaf 'a': samples too large in magnitude")
        assert err.count("\n") == 1
        assert not (tmp_path / "tags.jsonl").exists()

    def test_word_missing_from_lexicon(self, corpus, fitted, tmp_path, capsys):
        kept = (corpus / "lexicon.jsonl").read_text().splitlines()
        dropped = json.loads(kept[0])["word"]
        (tmp_path / "partial.jsonl").write_text("\n".join(kept[1:]) + "\n")
        code = main(
            [
                "tag",
                "--model", str(fitted),
                "--lexicon", str(tmp_path / "partial.jsonl"),
                "--embeddings", str(corpus / "embeddings.jsonl"),
                "--out", str(tmp_path / "tags.jsonl"),
            ]
        )
        assert code == 1
        assert dropped in capsys.readouterr().err


class TestStats:
    def test_report(self, fitted, corpus, tmp_path, capsys):
        out_csv = tmp_path / "curve.csv"
        assert main(["stats", "--model", str(fitted), "--out", str(out_csv)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "num_leaves,total_leaf_ll,avg_samples_per_leaf"
        blank = lines.index("")
        csv_part = "\n".join(lines[:blank]) + "\n"
        assert out_csv.read_text() == csv_part
        leaf_lines = [l for l in lines[blank + 1 :] if l.startswith("leaf ")]
        assert len(leaf_lines) == 2
        total = sum(int(l.split(":")[1].split()[0]) for l in leaf_lines)
        assert total == 72

    def test_corrupt_model(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("{]")
        assert main(["stats", "--model", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestInspect:
    def test_render(self, fitted, capsys):
        assert main(["inspect", "--model", str(fitted)]) == 0
        out = capsys.readouterr().out
        assert "model: d=4, 2 leaves, 4 tags" in out
        assert "tag inventory: a0 a1 b0 b1" in out
        assert "yes -> " in out and "no  -> " in out

    def test_missing_model(self, tmp_path, capsys):
        assert main(["inspect", "--model", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_chain_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        # node 2k asks question 0: yes goes to leaf k (node 2k + 1), no on
        # down the chain; the last no side is leaf `depth` (node 2 * depth)
        depth = sys.getrecursionlimit() + 100
        nodes = [LeafNode(depth)]
        for k in reversed(range(depth)):
            nodes[:0] = (InternalNode(0, 2 * k + 1, 2 * k + 2), LeafNode(k))
        tree = DecisionTree(nodes)
        gmm = LeafGmm(np.ones(1), np.zeros((1, 1)), np.ones((1, 1)), 1)
        model = TaggerModel(
            config=TaggerConfig(d=1),
            classes=default_classes(),
            questions=(Question(id=0, kind=QuestionKind.PHONEME_COUNT_GT, int_param=2),),
            tree=tree,
            gmms=dict.fromkeys(tree.leaf_letters, gmm),
            growth_trace=GrowthTrace(initial_ll=0.0, num_tokens=1),
        )
        save_model(model, tmp_path / "chain.json")
        assert main(["inspect", "--model", str(tmp_path / "chain.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(nodes) + 2
        summary = "1 samples, 1 components, weights [1.0000]"
        for k in range(depth):
            label = "no  -> " if k else ""
            assert lines[1 + 2 * k].startswith(f"{'  ' * k}{label}[node {2 * k}] Q0: ")
            assert lines[2 + 2 * k] == (
                f"{'  ' * (k + 1)}yes -> [node {2 * k + 1}] leaf {leaf_letter(k)!r}: {summary}"
            )
        assert lines[-2] == f"{'  ' * depth}no  -> [node {2 * depth}] leaf {leaf_letter(depth)!r}: {summary}"
        assert lines[-1] == "tag inventory: " + " ".join(f"{t}0" for t in tree.leaf_letters)


def test_output_files_get_the_umask_mode(tmp_path, capsys):
    old = os.umask(0o022)
    try:
        assert main(synth_args(tmp_path)) == 0
        model = tmp_path / "model.json"
        assert main(fit_args(tmp_path, model, out=tmp_path / "fit_tags.jsonl")) == 0
        assert main(["tag", "--model", str(model),
                     "--lexicon", str(tmp_path / "lexicon.jsonl"),
                     "--embeddings", str(tmp_path / "embeddings.jsonl"),
                     "--out", str(tmp_path / "tags.jsonl")]) == 0
        assert main(["stats", "--model", str(model), "--out", str(tmp_path / "curve.csv")]) == 0
    finally:
        os.umask(old)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert sorted(modes) == sorted([
        "lexicon.jsonl", "questions.jsonl", "classes.json", "embeddings.jsonl", "truth.jsonl",
        "model.json", "model.json.trace.csv", "fit_tags.jsonl", "tags.jsonl", "curve.csv",
    ])
    assert set(modes.values()) == {0o644}


LONG_INT = b"1" + b"0" * 5000  # past Python's 4,300-digit limit on int conversion


@pytest.mark.parametrize("kind", ["embeddings", "lexicon", "model", "class table"])
def test_integer_over_the_digit_limit_exits_1(kind, corpus, fitted, tmp_path, capsys):
    if kind in ("embeddings", "lexicon"):
        name, where = f"{kind}.jsonl", "line 3"
        lines = (corpus / name).read_bytes().splitlines()
        lines[2] = (
            b'{"token_id": "x", "word": "w00_000", "embedding": [%b, 0, 0, 0]}'
            if kind == "embeddings"
            else b'{"word": "x", "phonemes": ["K"], "syllable_breaks": [0], "stress_syllable": %b}'
        ) % LONG_INT
        data = b"\n".join(lines) + b"\n"
    elif kind == "model":
        name, where = "model.json", "model file"
        data = fitted.read_bytes().replace(b'"seed": 0', b'"seed": %b' % LONG_INT, 1)
        assert LONG_INT in data
    else:
        name, where, data = "classes.json", "class table", b'{"Vowel": [%b]}' % LONG_INT
    bad = tmp_path / name
    bad.write_bytes(data)
    argv = {
        "embeddings": ["tag", "--model", str(fitted), "--lexicon", str(corpus / "lexicon.jsonl"),
                       "--embeddings", str(bad), "--out", str(tmp_path / "tags.jsonl")],
        "model": ["inspect", "--model", str(bad)],
        # fit_args gives the flag a second time, and the last one wins
        "lexicon": fit_args(corpus, tmp_path / "out.json", lexicon=bad),
        "class table": fit_args(corpus, tmp_path / "out.json", classes=bad),
    }[kind]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"prosotag: error: {where}: integer literal has too many digits to convert\n"
    assert os.listdir(tmp_path) == [name]


DEEP = b"[" * 100_000  # deeper than the JSON decoders recurse


@pytest.mark.parametrize("kind", ["embeddings", "model"])
def test_deeply_nested_json_exits_1(kind, corpus, fitted, tmp_path, capsys):
    if kind == "embeddings":
        name, where = "embeddings.jsonl", "line 3"
        lines = (corpus / name).read_bytes().splitlines()
        lines[2] = b'{"token_id": "x", "word": "w00_000", "embedding": %b}' % DEEP
        data = b"\n".join(lines) + b"\n"
        argv = ["tag", "--model", str(fitted), "--lexicon", str(corpus / "lexicon.jsonl"),
                "--embeddings", str(tmp_path / name), "--out", str(tmp_path / "tags.jsonl")]
    else:
        name, where = "model.json", "model file"
        data = fitted.read_bytes().replace(b'"seed": 0', b'"seed": %b' % DEEP, 1)
        argv = ["inspect", "--model", str(tmp_path / name)]
    (tmp_path / name).write_bytes(data)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"prosotag: error: {where}: JSON nested too deeply to decode\n"
    assert os.listdir(tmp_path) == [name]


@pytest.mark.parametrize("target", ["missing_dir/tags.jsonl", "adir"])
def test_failed_write_names_the_out_path(target, corpus, fitted, tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    out = tmp_path / target
    args = ["tag", "--model", str(fitted), "--lexicon", str(corpus / "lexicon.jsonl"),
            "--embeddings", str(corpus / "embeddings.jsonl"), "--out", str(out)]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    number = errno.ENOENT if target.startswith("missing") else errno.EISDIR
    assert err == f"prosotag: error: [Errno {number}] {os.strerror(number)}: {str(out)!r}\n"
    assert os.listdir(tmp_path) == ["adir"] and os.listdir(tmp_path / "adir") == []


def test_tracer_finds_every_name_it_wraps(monkeypatch):
    # perfbench/traced.py wraps program functions by module and name; a
    # binding it needs that goes away breaks the traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # only read perfbench/
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        traced = importlib.import_module("traced")
        swaps = traced.install(traced.Tracer())
    finally:
        for name in ("traced", "extend_questions"):
            sys.modules.pop(name, None)
    assert len(swaps) == 12
    for module, attr, wrapped, original in swaps:
        assert callable(wrapped)
        assert getattr(module, attr) is original  # install swaps nothing in


def _module_bindings(body: list[ast.stmt], lines: list[str]) -> Iterator[tuple[int, str, bool]]:
    """(line, name, whether an import binds it) for each def, class,
    assignment and import in a module body, ``if`` blocks included; star,
    ``__future__`` and ``# noqa: F401`` imports and dunder names left out."""
    for stmt in body:
        if isinstance(stmt, ast.If):
            yield from _module_bindings(stmt.body + stmt.orelse, lines)
            continue
        imported = isinstance(stmt, ast.Import) or (
            isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__"
        )
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif imported and "# noqa: F401" not in lines[stmt.lineno - 1]:  # kept for traced.py
            names = [a.asname or a.name.partition(".")[0] for a in stmt.names if a.name != "*"]
        else:
            continue
        yield from ((stmt.lineno, name, imported) for name in names if not name.startswith("__"))


def test_every_module_level_name_is_used():
    # a name bound at module level is dead code unless its module reads or
    # exports it, another module imports it from there, or (for a def, class
    # or assignment) some module reads an attribute of that name
    reads: dict[str, set[str]] = {}  # module -> names it reads or exports
    attrs: set[str] = set()
    bound: list[tuple[str, int, str, bool]] = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        module, text = path.stem, path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        names = reads.setdefault(module, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reads.setdefault(node.module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Assign) and "__all__" in [getattr(t, "id", "") for t in node.targets]:
                names.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
        bound += [(module, *binding) for binding in _module_bindings(tree.body, text.splitlines())]
    dead = [
        f"{module}.py:{line}: {name}"
        for module, line, name, imported in bound
        if name not in reads[module] and (imported or name not in attrs)
    ]
    assert dead == []


class TestUsage:
    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["tag", "--model", "m.json"])
        assert info.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transmogrify"])
        assert info.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestTagWriter:
    @staticmethod
    def tokens(corpus_dir, n):
        """The corpus's lexicon and ``n`` tokens of its words, some words and
        token ids with quotes, backslashes and non-ASCII text."""
        lexicon = [
            replace(entry, word=f'{entry.word}"\\é') if i % 2 else entry
            for i, entry in enumerate(load_lexicon(corpus_dir / "lexicon.jsonl"))
        ]
        names = [entry.word for entry in lexicon]
        rng = np.random.default_rng(n)
        return lexicon, Corpus(
            [f't{i}"\\é' if i % 3 == 0 else f"t{i}" for i in range(n)],
            names,
            rng.integers(0, len(names), n).astype(np.int32),
            rng.normal(size=(n, 4)),
        )

    @pytest.mark.parametrize(
        "n", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1]
    )
    def test_chunks_match_json_dumps(self, corpus, fitted, n):
        model = load_model(fitted)
        lexicon, tokens = self.tokens(corpus, n)
        leaves, components = tag_tokens(model, lexicon, tokens)
        letters = model.tree.leaf_letters
        expected = "".join(
            json.dumps({"token_id": s.token_id, "word": s.word, "tag": f"{letters[leaf]}{k}"})
            + "\n"
            for s, leaf, k in zip(tokens, leaves, components)
        ).encode("ascii")
        chunks = [bytes(chunk) for chunk in _format_tags(model, lexicon, tokens)]
        assert b"".join(chunks) == expected
        lines = [chunk.count(b"\n") for chunk in chunks]
        assert lines == [min(CHUNK_LINES, n - i) for i in range(0, n, CHUNK_LINES)]

    def test_writing_tags_peak(self, corpus, fitted, tmp_path, monkeypatch):
        """Writing the tags of 50,000 tokens allocates, above the model, the
        tokens and their tags, less than two chunks of text (a chunk is
        ``CHUNK_LINES`` lines, about 0.2 MiB here). Holding every line,
        their joined text and its bytes reads about 8 MiB."""
        model = load_model(fitted)
        lexicon, tokens = self.tokens(corpus, 50_000)
        tagged = tag_tokens(model, lexicon, tokens)
        monkeypatch.setattr(cli, "tag_tokens", lambda *args: tagged)
        out = tmp_path / "tags.jsonl"
        tracemalloc.start()
        try:
            write_bytes(out, _format_tags(model, lexicon, tokens))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.read_bytes().count(b"\n") == len(tokens)
        assert peak < 2 * out.stat().st_size * CHUNK_LINES / len(tokens)
