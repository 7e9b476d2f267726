"""The file layer: atomic path writes, and loaders that report bad text."""

from __future__ import annotations

import ast
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prosotag
from prosotag import (
    EMBEDDING_MAGIC,
    Corpus,
    ParseError,
    ProsodySample,
    ProsotagError,
    default_classes,
    load_samples,
    save_samples,
)
from prosotag import _io
from prosotag._io import write_bytes
from prosotag.cli import main as cli_main
from prosotag.tagger import TaggerConfig, fit, load_model, save_model
from prosotag.phonetics import (
    load_classes,
    load_lexicon,
    load_questions,
    save_classes,
    save_lexicon,
    save_questions,
)
from prosotag.synth import (
    SynthSpec,
    generate,
    load_ground_truth,
    save_ground_truth,
)

SRC = Path(prosotag.__file__).parent

FILE_METHODS = {"open", "fdopen", "read_bytes", "write_bytes", "read_text", "write_text"}


def test_only_io_module_touches_files():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Name) and func.id == "open") or (
                    isinstance(func, ast.Attribute) and func.attr in FILE_METHODS
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                if any(alias.name == "tempfile" for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "tempfile":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


class TestWriteBytes:
    def test_replaces_path(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        write_bytes(target, [b"ne", b"", b"w"])
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("failure", ["write", "replace", "chunks"])
    def test_failure_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch, failure):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        data = [b"new"]
        if failure == "write":
            data = [b"new", "not bytes"]  # the write into the temporary raises TypeError
            error = TypeError
        elif failure == "chunks":

            def chunks():  # the producer fails after its first chunk is written
                yield b"new"
                raise ValueError("producer failed")

            data = chunks()
            error = ValueError
        else:

            def refuse(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", refuse)
            error = OSError
        with pytest.raises(error):
            write_bytes(target, data)
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_error_names_the_path_not_the_temporary(self, tmp_path):
        (tmp_path / "adir").mkdir()
        for target, error in [
            (tmp_path / "missing" / "out.bin", FileNotFoundError),
            (tmp_path / "adir", IsADirectoryError),
        ]:
            with pytest.raises(error) as info:
                write_bytes(target, [b"new"])
            assert str(info.value) == f"[Errno {info.value.errno}] {info.value.strerror}: {str(target)!r}"
        assert os.listdir(tmp_path) == ["adir"] and os.listdir(tmp_path / "adir") == []

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        real = tmp_path / "real.bin"
        real.write_bytes(b"old")
        link = tmp_path / "link.bin"
        link.symlink_to(real)
        write_bytes(link, [b"new"])
        assert not link.is_symlink()
        assert link.read_bytes() == b"new"
        assert real.read_bytes() == b"old"


GOOD_LINES = {
    "lexicon": b'{"word": "a", "phonemes": ["K"], "syllable_breaks": [0]}\n',
    "questions": b'{"id": 0, "kind": "EndsClosedSyllable"}\n',
    "ground truth": b'{"token_id": "t0", "archetype": 0, "component": 1}\n',
}

LOADERS = {
    "lexicon": load_lexicon,
    "questions": lambda path: load_questions(path, default_classes()),
    "ground truth": load_ground_truth,
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_json_lines_loaders_name_the_non_utf8_line(name, tmp_path):
    path = tmp_path / "input.jsonl"
    path.write_bytes(GOOD_LINES[name] + GOOD_LINES[name].replace(b'0', b'0\xff', 1))
    with pytest.raises(ParseError, match="line 2: not valid UTF-8"):
        LOADERS[name](path)


def test_class_table_names_the_file_for_non_utf8(tmp_path):
    path = tmp_path / "classes.json"
    path.write_bytes(b'{"Vowel": ["A\xff"]}\n')
    with pytest.raises(ParseError, match="class table: not valid UTF-8"):
        load_classes(path)


# ---------------------------------------------------------------------------
# streamed readers: every JSON-lines loader, and both embedding formats


def _entries(loaded):
    if isinstance(loaded, dict):  # ground truth
        return loaded
    if isinstance(loaded, Corpus):
        return loaded.token_ids, loaded.words, loaded.word_index.tolist(), loaded.x.tolist()
    return list(loaded)


EMBEDDING_LINES = [
    b'{"token_id": "t0", "word": "a", "embedding": [1.0, 2.0]}',
    b'{"token_id": "t1", "word": "b", "embedding": [3, -4.5]}',
    b'{"token_id": "t2", "word": "a", "embedding": [5e-3, 6.0]}',
]

# three good lines per JSON-lines loader, and the loader
LINE_FILES = {
    "lexicon": (
        [
            b'{"word": "a", "phonemes": ["K"], "syllable_breaks": [0]}',
            b'{"word": "b", "phonemes": ["K", "AA"], "syllable_breaks": [0], "stress_syllable": 0}',
            b'{"word": "c", "phonemes": ["S"], "syllable_breaks": [0], "stress_syllable": null}',
        ],
        load_lexicon,
    ),
    "questions": (
        [
            b'{"id": 0, "kind": "EndsClosedSyllable"}',
            b'{"id": 1, "kind": "PhonemeCountGt", "int_param": 2}',
            b'{"id": 2, "kind": "ContainsClass", "class_param": "Vowel"}',
        ],
        lambda source: load_questions(source, default_classes()),
    ),
    "ground truth": (
        [
            b'{"token_id": "t0", "archetype": 0, "component": 1}',
            b'{"token_id": "t1", "archetype": 1, "component": 0}',
            b'{"token_id": "t2", "archetype": 0, "component": 0}',
        ],
        load_ground_truth,
    ),
    "embeddings": (EMBEDDING_LINES, load_samples),
}


# deeper than the standard library decoder recurses (and than orjson's limit)
DEEP = b"[" * 100_000


class TestStreamedLines:
    @pytest.mark.parametrize("name", sorted(LINE_FILES))
    @pytest.mark.parametrize(
        "variant",
        ["crlf", "no final newline", "blank lines", "crlf blank lines"],
    )
    def test_line_endings_and_blank_lines_keep_the_result(self, name, variant, tmp_path):
        lines, load = LINE_FILES[name]
        expected = _entries(load(io.BytesIO(b"\n".join(lines) + b"\n")))
        data = {
            "crlf": b"\r\n".join(lines) + b"\r\n",
            "no final newline": b"\n".join(lines),
            "blank lines": b"\n \t\n".join(lines) + b"\n\n\r\n",
            "crlf blank lines": b"\r\n\r\n".join(lines),
        }[variant]
        path = tmp_path / "input.jsonl"
        path.write_bytes(data)
        assert _entries(load(path)) == expected
        assert _entries(load(io.BytesIO(data))) == expected

    @pytest.mark.parametrize("name", sorted(LINE_FILES))
    @pytest.mark.parametrize(
        "bad, message",
        [
            (b"not json", "invalid JSON"),
            (b'{"a": "\xff"}', "not valid UTF-8"),
            pytest.param(b'{"a": %b}' % DEEP, "JSON nested too deeply to decode", id="deep"),
        ],
    )
    def test_bad_line_named_after_crlf_and_blank_lines(self, name, bad, message, tmp_path):
        lines, load = LINE_FILES[name]
        path = tmp_path / "input.jsonl"
        path.write_bytes(lines[0] + b"\r\n\r\n \r\n" + lines[1] + b"\r\n" + bad)
        with pytest.raises(ParseError, match=f"line 5: {message}"):
            load(path)

    @pytest.mark.parametrize("name", sorted(LINE_FILES))
    @pytest.mark.parametrize("space", ["\f", "\x1c", "\v", "\u3000", "\u2028", " \f "])
    def test_line_of_non_json_whitespace_is_invalid_json(self, name, space):
        # json.loads rejects each of these lines; only JSON whitespace
        # (space, tab, CR, LF) makes a line blank
        lines, load = LINE_FILES[name]
        data = lines[0] + b"\n" + space.encode("utf-8") + b"\n" + lines[1] + b"\n"
        with pytest.raises(json.JSONDecodeError):
            json.loads(space)
        with pytest.raises(ParseError, match="line 2: invalid JSON"):
            load(io.BytesIO(data))

    @pytest.mark.parametrize("name", sorted(LINE_FILES))
    def test_stream_read_from_its_position(self, name):
        lines, load = LINE_FILES[name]
        stream = io.BytesIO(b"skipped\n" + b"\n".join(lines))
        stream.readline()
        assert _entries(load(stream)) == _entries(load(io.BytesIO(b"\n".join(lines))))

    @pytest.mark.parametrize("name", sorted(LINE_FILES))
    @pytest.mark.parametrize("fault", [None, b"not json", b'{"a": 1}'])
    def test_path_is_closed_when_the_read_ends(self, name, fault, tmp_path, monkeypatch):
        # a JSON error, a record error raised by the loader, or the last line
        lines, load = LINE_FILES[name]
        path = tmp_path / "input.jsonl"
        path.write_bytes(b"\n".join([lines[0], fault or lines[1], lines[2]]) + b"\n")
        handles = []

        def spy(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(_io, "open", spy, raising=False)
        if fault is None:
            load(path)
        else:
            with pytest.raises(ProsotagError, match="line 2"):
                load(path)
        assert len(handles) == 1 and handles[0].closed


@pytest.mark.parametrize("what, load", [("model file", load_model), ("class table", load_classes)])
def test_deeply_nested_json_names_the_file(what, load):
    with pytest.raises(ParseError, match=f"^{what}: JSON nested too deeply to decode$"):
        load(io.BytesIO(b'{"a": %b' % DEEP))


def test_orjson_imported_only_to_decode_json_lines_embeddings(tmp_path):
    path = tmp_path / "embeddings.jsonl"
    path.write_bytes(b"\n".join(EMBEDDING_LINES) + b"\n")
    code = (
        "import sys, prosotag.cli\n"
        "assert 'orjson' not in sys.modules\n"
        "from prosotag import load_samples\n"
        f"load_samples({str(path)!r})\n"
        "assert 'orjson' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


class Unseekable(io.RawIOBase):
    """A pipe-like stream: cannot seek, and returns at most 7 bytes a read."""

    def __init__(self, data: bytes) -> None:
        self._data = io.BytesIO(data)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        chunk = self._data.read(min(len(buffer), 7))
        buffer[: len(chunk)] = chunk
        return len(chunk)


def _embedding_file(binary: bool) -> bytes:
    rng = np.random.default_rng(3)
    samples = [
        ProsodySample(f"t{i}", f"wé{i % 4}", rng.normal(size=3)) for i in range(40)
    ]
    buffer = io.BytesIO()
    save_samples(samples, buffer, binary=binary)
    return buffer.getvalue()


class TestLoadSamplesStreams:
    @pytest.mark.parametrize("binary", [False, True])
    def test_unseekable_stream_loads_as_a_path(self, binary, tmp_path):
        data = _embedding_file(binary)
        path = tmp_path / "embeddings"
        path.write_bytes(data)
        stream = Unseekable(data)
        assert not stream.seekable()
        assert _entries(load_samples(stream)) == _entries(load_samples(path))

    @pytest.mark.parametrize("name", ["lexicon", "questions", "ground truth"])
    def test_unseekable_stream_for_line_loaders(self, name):
        lines, load = LINE_FILES[name]
        data = b"\n".join(lines) + b"\n"
        assert _entries(load(Unseekable(data))) == _entries(load(io.BytesIO(data)))

    def test_unseekable_binary_faults_match_seekable(self):
        # an unseekable stream's bytes are decoded from just past the magic:
        # every truncation, a zero dimension and bad UTF-8 read as from a seekable stream
        def outcome(stream):
            try:
                return _entries(load_samples(stream))
            except ProsotagError as exc:
                return type(exc), str(exc)

        data = _embedding_file(binary=True)
        bad_text = data.replace("é".encode(), b"\xff\xfe", 3)
        for damaged in (data, bad_text, data[:4] + bytes(4) + data[8:]):
            for size in range(len(EMBEDDING_MAGIC), len(damaged) + 1, 3):
                want = outcome(io.BytesIO(damaged[:size]))
                assert outcome(Unseekable(damaged[:size])) == want, size

    def test_binary_stream_read_from_its_position(self):
        data = _embedding_file(binary=True)
        stream = io.BytesIO(b"header" + data)
        stream.seek(6)
        assert _entries(load_samples(stream)) == _entries(load_samples(io.BytesIO(data)))

    @pytest.mark.parametrize("source", ["path", "stream", "unseekable"])
    def test_inputs_shorter_than_the_magic(self, source, tmp_path):
        def load(data):
            if source == "path":
                path = tmp_path / "short"
                path.write_bytes(data)
                return load_samples(path)
            return load_samples(io.BytesIO(data) if source == "stream" else Unseekable(data))

        assert len(load(b"")) == 0
        assert len(load(b"\n")) == 0
        with pytest.raises(ParseError, match="line 1: malformed embedding record: missing 'token_id'"):
            load(b"{}")
        with pytest.raises(ParseError, match="line 1: invalid JSON"):
            load(b"PTE")
        with pytest.raises(ParseError, match="truncated before header"):
            load(b"PTE1\x03")


# ---------------------------------------------------------------------------
# fuzzing the streamed readers: damaged files raise package errors only


def _valid_files() -> dict[str, bytes]:
    lexicon, questions, samples, truth = generate(
        SynthSpec(
            num_leaf_archetypes=2,
            words_per_archetype=3,
            tokens_per_word=2,
            components_per_archetype=1,
            d=2,
            seed=5,
        )
    )
    files = {}
    for name, save, value in [
        ("lexicon", save_lexicon, lexicon),
        ("questions", save_questions, questions),
        ("ground truth", save_ground_truth, truth),
        ("embeddings", save_samples, samples),
        ("binary embeddings", partial(save_samples, binary=True), samples),
    ]:
        buffer = io.BytesIO()
        save(value, buffer)
        files[name] = buffer.getvalue()
    return files


VALID_FILES = _valid_files()
FUZZ_LOADERS = {
    **{name: load for name, (_, load) in LINE_FILES.items()},
    "binary embeddings": load_samples,
}


@st.composite
def damaged(draw, files=VALID_FILES):
    name = draw(st.sampled_from(sorted(files)))
    data = bytearray(files[name])
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["truncate", "flip", "newline"]))
        at = draw(st.integers(0, max(len(data) - 1, 0)))
        if action == "truncate":
            del data[at:]
        elif data and action == "flip":
            data[at] ^= draw(st.integers(1, 255))
        elif action == "newline":
            data[at:at] = b"\n"
    return name, bytes(data)


# an integer literal past Python's 4,300-digit limit on int conversion
LONG_INT = b"1" + b"0" * 5000


class TestFuzzedReaders:
    @settings(max_examples=400, deadline=None)
    @given(case=damaged(), as_path=st.booleans())
    @example(case=("embeddings", b'{"token_id": "t", "word": "w", "embedding": [%b]}' % LONG_INT), as_path=False)
    @example(case=("lexicon", b'{"word": "w", "phonemes": ["K"], "syllable_breaks": [%b]}' % LONG_INT), as_path=False)
    def test_only_package_errors_escape(self, case, as_path, tmp_path_factory):
        name, data = case
        if as_path:
            source = tmp_path_factory.mktemp("fuzz") / "input"
            source.write_bytes(data)
        else:
            source = io.BytesIO(data)
        try:
            FUZZ_LOADERS[name](source)
        except ProsotagError:
            pass

    @pytest.mark.parametrize("command", ["fit", "tag"])
    @pytest.mark.parametrize("binary", [False, True])
    def test_cli_on_truncated_embeddings_exits_1(self, command, binary, tmp_path, capsys):
        paths = {
            kind: str(tmp_path / f"{kind}.jsonl")
            for kind in ("lexicon", "questions", "classes", "embeddings", "truth")
        }
        common = ["--lexicon", paths["lexicon"], "--embeddings", paths["embeddings"]]
        synth = ["synth", *common, "--questions", paths["questions"], "--classes", paths["classes"],
                 "--ground-truth", paths["truth"], "--archetypes", "2", "--words-per-archetype", "4",
                 "--tokens-per-word", "4", "--components", "1", "--d", "2"]
        model = str(tmp_path / "model.json")
        fit = ["fit", *common, "--questions", paths["questions"], "--classes", paths["classes"],
               "--model", model, "--max-leaves", "2", "--components", "1", "--min-leaf", "1"]
        assert cli_main(synth + (["--binary"] if binary else [])) == 0
        if command == "tag":
            assert cli_main(fit) == 0
        embeddings = tmp_path / "embeddings.jsonl"
        data = embeddings.read_bytes()
        embeddings.write_bytes(data[: len(data) - 7])  # inside the last record
        out = tmp_path / "out.jsonl"
        argv = fit if command == "fit" else ["tag", *common, "--model", model, "--out", str(out)]
        capsys.readouterr()
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("prosotag: error: ")
        assert "Traceback" not in err
        assert ("record 31" if binary else "line 32") in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzing the model and class-table readers, and the commands that read models


def _model_files() -> dict[str, bytes]:
    lexicon, questions, samples, _ = generate(
        SynthSpec(
            num_leaf_archetypes=2,
            words_per_archetype=3,
            tokens_per_word=4,
            components_per_archetype=2,
            d=3,
            seed=5,
        )
    )
    config = TaggerConfig(m=2, max_leaves=2, min_leaf=1)
    model = fit(lexicon, samples, questions, default_classes(), config)
    files = {}
    for name, save, value in [
        ("model", save_model, model),
        ("class table", save_classes, default_classes()),
    ]:
        buffer = io.BytesIO()
        save(value, buffer)
        files[name] = buffer.getvalue()
    return files


MODEL_FILES = _model_files()
MODEL_LOADERS = {"model": load_model, "class table": load_classes}
# where a parse stopped, or the model section or class the error is about
PARSE_LOCATION = re.compile(r"line \d+ column \d+")
SECTION = re.compile(
    r"\b(format version|config|class table|class '|question|tree|node \d+|leaf '|"
    r"mixture|growth_trace|gmms)|missing '\w+'"
)


def assert_names_a_location(message: str) -> None:
    if "invalid JSON" in message or "not valid UTF-8" in message:
        assert PARSE_LOCATION.search(message), message
    else:
        assert SECTION.search(message), message


class TestFuzzedModelReaders:
    @settings(max_examples=400, deadline=None)
    @given(case=damaged(MODEL_FILES), as_path=st.booleans())
    @example(case=("model", b"9"), as_path=False)  # valid JSON, but not an object
    @example(case=("class table", b'{"Vowel": [%b]}' % LONG_INT), as_path=False)
    def test_only_package_errors_escape(self, case, as_path, tmp_path_factory):
        name, data = case
        if as_path:
            source = tmp_path_factory.mktemp("fuzz") / "input"
            source.write_bytes(data)
        else:
            source = io.BytesIO(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                MODEL_LOADERS[name](source)
        except ProsotagError as exc:
            assert_names_a_location(str(exc))

    @settings(max_examples=150, deadline=None)
    @given(case=damaged({"model": MODEL_FILES["model"]}), command=st.sampled_from(["stats", "inspect"]))
    def test_commands_exit_with_one_line(self, case, command, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "model.json"
        path.write_bytes(case[1])
        err = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            code = cli_main([command, "--model", str(path)])
        if code == 0:
            assert err.getvalue() == ""
            return
        assert code in (1, 2)
        message = err.getvalue()
        assert message.startswith("prosotag: ") and message.count("\n") == 1, message
        assert "Traceback" not in message
        assert_names_a_location(message)
