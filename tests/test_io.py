"""The file layer: atomic path writes, and loaders that report bad text."""

from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

import prosotag
from prosotag import ParseError, default_classes
from prosotag._io import write_bytes
from prosotag.phonetics import load_classes, load_lexicon, load_questions
from prosotag.synth import load_ground_truth

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
        write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("failure", ["write", "replace"])
    def test_failure_leaves_old_file_and_no_temporary(self, tmp_path, monkeypatch, failure):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        data = b"new"
        if failure == "write":
            data = "not bytes"  # the write into the temporary raises TypeError
            error = TypeError
        else:

            def refuse(src, dst):
                raise OSError("disk full")

            monkeypatch.setattr(os, "replace", refuse)
            error = OSError
        with pytest.raises(error):
            write_bytes(target, data)
        assert target.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_symlink_is_replaced_not_followed(self, tmp_path):
        real = tmp_path / "real.bin"
        real.write_bytes(b"old")
        link = tmp_path / "link.bin"
        link.symlink_to(real)
        write_bytes(link, b"new")
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
