"""The package's one file layer: every data file is read and written here.

Sources and sinks are a filesystem path or an open binary file object. A path
is replaced atomically on write. Text files are UTF-8; the JSON and JSON-lines
readers raise ``ParseError`` naming the file or the line for bad UTF-8 or bad
JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from typing import IO, Iterator

from .errors import ParseError

_JSON_SPACE = " \t\n\r"
_decode_json = json.JSONDecoder().raw_decode  # json.loads without its whitespace scans


def read_bytes(source: str | os.PathLike | IO[bytes]) -> bytes:
    if isinstance(source, (str, os.PathLike)):
        return Path(source).read_bytes()
    return source.read()


def write_bytes(sink: str | os.PathLike | IO[bytes], data: bytes) -> None:
    """Write ``data`` to an open binary file, or replace the file at a path.

    A path is written through a temporary sibling that is renamed over it and
    removed if anything fails, so the path holds either its old content or all
    of ``data``. The new file gets the mode ``open(path, "wb")`` gives a new
    file under the umask; a symlink at the path is replaced, not followed.
    """
    if not isinstance(sink, (str, os.PathLike)):
        sink.write(data)
        return
    path = os.fspath(sink)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def json_lines(data: bytes) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of UTF-8 JSON-lines ``data`` as (line number, object).

    Lines are split on newline bytes and decoded one at a time, so a large
    file is never held as one string.
    """
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        try:
            text = raw.decode("utf-8").strip(_JSON_SPACE)
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: not valid UTF-8: {exc.reason}") from None
        if not text or text.isspace():
            continue
        try:
            obj, end = _decode_json(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        if end != len(text):
            raise ParseError(f"line {lineno}: invalid JSON: Extra data")
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected a JSON object")
        yield lineno, obj


def read_json(source: str | os.PathLike | IO[bytes], what: str) -> object:
    """The one JSON document in a UTF-8 file; ``what`` names the file in errors."""
    data = read_bytes(source)
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what}: not valid UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what}: invalid JSON: {exc.msg}") from exc
