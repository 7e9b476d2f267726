"""The package's one file layer: every data file is read and written here.

Sources and sinks are a filesystem path or an open binary file object. A path
is opened here and closed when the read ends; a file object is used as given,
from its current position. Readers stream: JSON lines are decoded one line at
a time, so no text file is held whole. A binary embedding file is read
whole; its bytes are freed, and a path it was read from is closed, once its
records are decoded, before the corpus is checked (see
``gaussian.load_samples``). Writers take byte chunks, and a path is replaced
atomically. Text files are UTF-8; the JSON and JSON-lines readers
raise ``ParseError`` naming the file or the line for bad UTF-8, bad JSON or an
integer literal longer than Python converts to an int, or JSON nested deeper
than the standard library decoder recurses. JSON is decoded by the standard
library, except that the embedding reader has orjson decode each line first
(see ``json_lines``); orjson is imported only then.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import IO, Iterable, Iterator, Mapping

from .errors import ParseError

_JSON_SPACE = " \t\n\r"
_decode_json = json.JSONDecoder().raw_decode  # json.loads without its whitespace scans
_LONG_INT = "integer literal has too many digits to convert"
_TOO_DEEP = "JSON nested too deeply to decode"

Source = str | os.PathLike | IO[bytes]


@contextlib.contextmanager
def opened(source: Source) -> Iterator[IO[bytes]]:
    """``source`` as a binary file: a path is opened, and closed on exit; an
    open file is used as given and left open."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as stream:
            yield stream
    else:
        yield source


def write_bytes(sink: Source, chunks: Iterable[bytes]) -> None:
    """Write byte ``chunks`` in order to an open binary file, or replace the
    file at a path with them.

    Only the chunk being written is held here, so a generator of chunks is
    written without its whole output in memory. A path is written through a
    temporary sibling that is renamed over it and removed if anything fails,
    the iteration of ``chunks`` included, so the path holds either its old
    content or all of the chunks. An ``OSError`` about the temporary names
    the path instead. The new file gets the mode ``open(path,
    "wb")`` gives a new file under the umask; a symlink at the path is
    replaced, not followed.
    """
    if not isinstance(sink, (str, os.PathLike)):
        sink.writelines(chunks)
        return
    path = os.fspath(sink)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.writelines(chunks)  # releases each chunk before taking the next
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the path asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from None


def json_lines(source: Source, *, exact_ints: bool = True) -> Iterator[tuple[int, dict]]:
    """Each non-blank line of a UTF-8 JSON-lines file as (line number, object).

    The file is read line by line from ``source`` (see ``opened``), and a line
    is decoded only when it is reached. A blank line, empty or JSON
    whitespace only, is skipped; any other line that is not one JSON object
    is a ``ParseError`` naming it.

    With ``exact_ints=False`` each line is first decoded by orjson, a strict
    RFC 8259 parser. Where orjson and the standard library both accept a
    line, they differ only for an integer outside [-2**63, 2**64), which
    orjson gives as the nearest float; a reader that converts every number to
    float sees no difference. A line orjson refuses, or that is not an
    object, is decoded as ``exact_ints=True`` decodes it: blank lines, NaN,
    Infinity, numbers beyond float range, lone surrogates and every error
    take that path.
    """
    if not exact_ints:
        import orjson  # here, not at module level: only this path decodes with it
    with opened(source) as stream:
        for lineno, raw in enumerate(stream, start=1):
            if not exact_ints:
                try:
                    obj = orjson.loads(raw)
                except orjson.JSONDecodeError:
                    pass
                else:
                    if type(obj) is dict:
                        yield lineno, obj
                        continue
            try:
                text = raw.decode("utf-8").strip(_JSON_SPACE)
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: not valid UTF-8: {exc.reason}") from None
            if not text:
                continue
            try:
                obj, end = _decode_json(text)
            except json.JSONDecodeError as exc:
                raise ParseError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
            except ValueError:  # Python's limit on the digits of an int
                raise ParseError(f"line {lineno}: {_LONG_INT}") from None
            except RecursionError:
                raise ParseError(f"line {lineno}: {_TOO_DEEP}") from None
            if end != len(text):
                raise ParseError(f"line {lineno}: invalid JSON: Extra data")
            if not isinstance(obj, dict):
                raise ParseError(f"line {lineno}: expected a JSON object")
            yield lineno, obj


def read_json(source: Source, what: str) -> object:
    """The one JSON document in a UTF-8 file; ``what`` names the file in errors."""
    with opened(source) as stream:
        data = stream.read()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        raise ParseError(
            f"{what}: not valid UTF-8: {exc.reason} at line {line} column {column}"
        ) from None
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{what}: invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError:  # Python's limit on the digits of an int
        raise ParseError(f"{what}: {_LONG_INT}") from None
    except RecursionError:
        raise ParseError(f"{what}: {_TOO_DEEP}") from None


def _field(obj: Mapping, key: str, kind: type, *, optional: bool = False, error: type = ParseError):
    """``obj[key]`` of a decoded JSON record if its type is exactly ``kind``
    (a bool is not an int, a string not a list, but a float field takes a
    JSON integer as a float); None for an absent or null optional field.
    A fault raises ``error``; a record type checking its own fields
    (``vars(self)``) passes ``ValidationError``."""
    if key not in obj:
        if optional:
            return None
        raise error(f"missing field {key!r}")
    value = obj[key]
    if type(value) is kind or (optional and value is None):
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise error(f"{key} must be {kind.__name__}, got {type(value).__name__}")
