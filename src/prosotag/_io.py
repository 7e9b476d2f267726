"""Whole-file byte I/O for a filesystem path or an open binary file object."""

from __future__ import annotations

from pathlib import Path
from typing import IO


def read_bytes(source: str | Path | IO[bytes]) -> bytes:
    if isinstance(source, (str, Path)):
        return Path(source).read_bytes()
    return source.read()


def write_bytes(sink: str | Path | IO[bytes], data: bytes) -> None:
    if isinstance(sink, (str, Path)):
        Path(sink).write_bytes(data)
    else:
        sink.write(data)
