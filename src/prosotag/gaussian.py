"""Sufficient statistics and closed-form diagonal-Gaussian log-likelihood.

A node's samples are modeled by the maximum-likelihood diagonal Gaussian
fitted to those same samples. With ML variances (divide by n) the summed
log-density collapses to

    LL = -(n/2) * sum_j [ ln(2*pi*var_j) + 1 ]

where var_j = max(floor, sumsq_j/n - (sum_j/n)^2). The floor is applied per
dimension after estimation; when it is inactive the closed form equals the
per-sample density sum exactly. Splitting quality is the gain
LL(left) + LL(right) - LL(parent).

Also hosts the token ``Corpus`` (token ids, a word index and one embedding
matrix) and the embedding file readers and writers (JSON lines, plus a binary
format selected by sniffing the "PTE1" magic).
"""

from __future__ import annotations

import io
import struct
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._io import _exact_fields, json_lines, opened, token_lines, write_bytes
from .errors import DimensionMismatchError, EmptyNodeError, ParseError, ValidationError, _check_knobs

__all__ = [
    "ProsodySample",
    "Corpus",
    "SufficientStats",
    "stats_from_matrix",
    "node_log_likelihood",
    "load_samples",
    "save_samples",
    "EMBEDDING_MAGIC",
]

EMBEDDING_MAGIC = b"PTE1"


@dataclass(frozen=True)
class ProsodySample:
    """One word token's prosody embedding, held as a read-only float64 copy
    of the input."""

    token_id: str
    word: str
    embedding: np.ndarray

    def __post_init__(self) -> None:
        _exact_fields(self)
        vec = np.array(self.embedding, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValidationError(
                f"token {self.token_id!r}: embedding must be a non-empty vector"
            )
        if not np.all(np.isfinite(vec)):
            raise ValidationError(f"token {self.token_id!r}: embedding has non-finite values")
        vec.setflags(write=False)
        object.__setattr__(self, "embedding", vec)

    @property
    def dim(self) -> int:
        return self.embedding.size


@dataclass(frozen=True)
class SufficientStats:
    """Count, componentwise sum, and sum of squares for a set of embeddings.

    Stats are additive over disjoint sample sets, which is what makes split
    evaluation cheap: children stats are sums or differences of parents'.
    """

    n: int
    sum: np.ndarray
    sumsq: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.sum, dtype=np.float64)
        ss = np.asarray(self.sumsq, dtype=np.float64)
        if s.shape != ss.shape or s.ndim != 1:
            raise ValidationError("sum and sumsq must be vectors of equal dimension")
        if self.n < 0:
            raise ValidationError("sample count must be non-negative")
        s.setflags(write=False)
        ss.setflags(write=False)
        object.__setattr__(self, "sum", s)
        object.__setattr__(self, "sumsq", ss)

    def ml_variances(self, floor: float) -> np.ndarray:
        """Per-dimension ML variance (divide by n), floored from below."""
        if self.n == 0:
            raise EmptyNodeError("variance of an empty node is undefined")
        return _ml_gaussian(self.n, self.sum, self.sumsq, floor)[1]


def stats_from_matrix(x: np.ndarray) -> SufficientStats:
    """Stats for a (n, d) matrix of embeddings, one row per sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("expected a 2-d sample matrix")
    return SufficientStats(n=x.shape[0], sum=x.sum(axis=0), sumsq=(x * x).sum(axis=0))


@contextmanager
def _in_float64_range(leaf: str) -> Iterator[None]:
    """Raise a ``ValidationError`` naming the leaf when float64 arithmetic
    in the block overflows or gives an invalid value."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(
            f"leaf {leaf!r}: samples too large in magnitude: float64 {exc}"
        ) from None


def _ml_gaussian(n, s: np.ndarray, ss: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and floored variance of the ML diagonal Gaussian of ``n`` samples
    (``n`` broadcasts) of sum ``s`` and sum of squares ``ss``; tree and EM share it."""
    mean = s / n
    return mean, np.maximum(ss / n - mean * mean, floor)


def _ll_from_moments(
    n: np.ndarray | int, s: np.ndarray, ss: np.ndarray, floor: float
) -> np.ndarray | float:
    """Closed-form LL from raw moments; broadcasts over leading axes.

    ``n`` may be a scalar or a vector matching ``s``'s leading axis. Callers
    guarantee n >= 1 wherever the result is consumed.
    """
    n_arr = np.asarray(n, dtype=np.float64)
    _, var = _ml_gaussian(n_arr if n_arr.ndim == 0 else n_arr[:, None], s, ss, floor)
    return -0.5 * n_arr * (np.log(2.0 * np.pi * var) + 1.0).sum(axis=-1)


def node_log_likelihood(stats: SufficientStats, floor: float) -> float:
    """Log-likelihood of a node's samples under their own ML diagonal Gaussian."""
    _check_knobs(floor=floor)
    if stats.n == 0:
        raise EmptyNodeError("log-likelihood of an empty node is undefined")
    return float(_ll_from_moments(stats.n, stats.sum, stats.sumsq, floor))


# ---------------------------------------------------------------------------
# token corpora


class Corpus(Sequence[ProsodySample]):
    """A token corpus held as arrays; what the embedding readers return.

    Token ``i`` is named ``token_ids[i]``, belongs to word
    ``words[word_index[i]]`` and has embedding ``x[i]``. ``words`` lists the
    distinct words in order of first appearance, ``word_index`` is int32 and
    ``x`` is a read-only, finite ``(n, d)`` float64 matrix. Growth, fitting and
    tagging work on these arrays; indexing builds a ``ProsodySample`` only for
    the token asked for.
    """

    __slots__ = ("token_ids", "words", "word_index", "x")

    def __init__(
        self,
        token_ids: Sequence[str],
        words: Sequence[str],
        word_index: np.ndarray,
        x: np.ndarray,
    ) -> None:
        self.token_ids = token_ids
        self.words = words
        self.word_index = word_index
        self.x = x
        x.setflags(write=False)

    @classmethod
    def of(cls, samples: Sequence[ProsodySample]) -> "Corpus":
        """``samples`` itself if it is a corpus, else its tokens as a corpus.

        All samples must share one dimension.
        """
        if isinstance(samples, Corpus):
            return samples
        if not samples:
            return cls([], [], np.empty(0, dtype=np.int32), np.empty((0, 0)))
        dim = samples[0].dim
        position: dict[str, int] = {}
        word_index: list[int] = []
        for sample in samples:
            if sample.dim != dim:
                raise DimensionMismatchError(
                    f"token {sample.token_id!r} has dimension {sample.dim}, expected {dim}"
                )
            word_index.append(position.setdefault(sample.word, len(position)))
        return cls(
            [s.token_id for s in samples],
            list(position),
            np.array(word_index, dtype=np.int32),
            np.stack([s.embedding for s in samples]),
        )

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return len(self.token_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return ProsodySample(
            self.token_ids[index], self.words[self.word_index[index]], self.x[index]
        )


def _checked_corpus(
    token_ids: list[str],
    words: list[str],
    word_index: list[int],
    x: np.ndarray,
    locate: Callable[[int], str],
) -> Corpus:
    """The loaders' shared checks; ``locate(i)`` names token i's line or record."""
    _check_tokens(token_ids, x, locate, ParseError)
    return Corpus(token_ids, words, np.array(word_index, dtype=np.int32), x)


def _check_tokens(
    token_ids: Sequence[str], x: np.ndarray, locate: Callable[[int], str], repeat_error: type
) -> None:
    """Raise a ``ValidationError`` for the first token whose row of ``x`` is
    not finite, else a ``repeat_error`` for the first token id equal to an
    earlier one; ``locate(i)`` names token i's place. The embedding loaders
    and ``save_samples`` share these checks."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"{locate(i)}: token {token_ids[i]!r}: embedding has non-finite values"
        )
    repeat = _first_repeat(token_ids)
    if repeat >= 0:
        raise repeat_error(f"{locate(repeat)}: duplicate token id {token_ids[repeat]!r}")


def _first_repeat(token_ids: list[str]) -> int:
    """The index of the first token id (or word) equal to an earlier one, or -1.

    Works on an int64 array of the ids' hashes, at most 24 bytes a token
    where a set of the ids holds 60-130: sorted, the hashes show whether any
    two ids may be equal, and only ids of equal hash are compared as strings.
    """
    hashes = np.fromiter(map(hash, token_ids), dtype=np.int64, count=len(token_ids))
    ranked = np.sort(hashes)
    if not (ranked[1:] == ranked[:-1]).any():
        return -1
    order = np.argsort(hashes, kind="stable")  # equal hashes keep file order
    ranked = hashes[order]
    later = order[np.flatnonzero(ranked[1:] == ranked[:-1]) + 1]
    for i in np.sort(later).tolist():
        h = hash(token_ids[i])
        run = order[np.searchsorted(ranked, h) : np.searchsorted(ranked, h, side="right")]
        if any(token_ids[j] == token_ids[i] for j in run[run < i].tolist()):
            return i
    return -1


# ---------------------------------------------------------------------------
# embedding files
#
# Text form: JSON lines {"token_id", "word", "embedding"}. Binary form: magic
# "PTE1", u32 LE dimension, then per record a u16 LE byte length + UTF-8 word,
# u16 LE byte length + UTF-8 token id, and d float32 LE values. Readers accept
# both by sniffing the magic. Where a binary record ends shows only from its two
# lengths, so the reader walks the headers once, then decodes the records a
# block at a time; both passes read the file in bounded pieces.

_NUMBER_TYPES = {int, float}
_BLOCK_RECORDS = 1024  # binary records decoded at a time, from one read
_READ_SIZE = 1 << 20  # bytes of one read of the binary record walk
_LONGEST_HEADER = 2 * (2 + 0xFFFF)  # a word and a token id at their longest


def load_samples(source: str | Path | IO[bytes]) -> Corpus:
    """Read an embedding file in either supported format into a ``Corpus``.

    All records must share one dimension, embeddings must be finite and
    token ids must be unique; errors name the line or record. A JSON-lines
    file is parsed in one pass, one line at a time, by orjson; each line
    orjson refuses is decoded by the standard library, as the other
    JSON-lines readers decode it (see ``_io.json_lines``). An integer converts
    to the nearest float. A binary file is never held whole: its records
    are found and decoded in bounded reads (see ``_decode_binary``), and a
    path is closed before the corpus is checked. A stream that cannot seek
    is read into memory whole, for the sniff of the magic, and its bytes
    are freed before the corpus is checked.
    """
    with opened(source) as stream:
        if not stream.seekable():
            stream = io.BytesIO(stream.read())
        start = stream.tell()
        if stream.read(len(EMBEDDING_MAGIC)) != EMBEDDING_MAGIC:
            stream.seek(start)
            return _read_jsonl(stream)
        decoded = _decode_binary(stream)
        del stream  # frees the bytes of a stream that was read whole
    return _checked_corpus(*decoded, lambda i: f"record {i}")


def _read_jsonl(stream: IO[bytes]) -> Corpus:
    # one pass, one line at a time: each embedding is appended to one growable
    # float64 buffer, which the returned matrix views
    values = array("d")
    dim = 0
    token_ids: list[str] = []
    word_index: list[int] = []
    linenos = array("q")
    position: dict[str, int] = {}
    for lineno, obj in json_lines(stream, exact_ints=False):
        try:
            token_id, word, embedding = obj["token_id"], obj["word"], obj["embedding"]
        except KeyError as exc:
            raise ParseError(f"line {lineno}: malformed embedding record: missing {exc}") from None
        if type(token_id) is not str or type(word) is not str:
            raise ParseError(f"line {lineno}: token_id and word must be strings")
        if (
            type(embedding) is not list
            or not embedding
            or not set(map(type, embedding)) <= _NUMBER_TYPES
        ):
            raise ParseError(
                f"line {lineno}: embedding of token {token_id!r} must be a "
                "non-empty flat list of numbers"
            )
        if not dim:
            dim = len(embedding)
        elif len(embedding) != dim:
            raise DimensionMismatchError(
                f"line {lineno}: token {token_id!r} has dimension {len(embedding)}, "
                f"file started with {dim}"
            )
        try:
            values.extend(embedding)  # an int rounds to nearest, as numpy converts it
        except OverflowError:
            raise ValidationError(
                f"line {lineno}: token {token_id!r}: embedding has non-finite values"
            ) from None
        token_ids.append(token_id)
        word_index.append(position.setdefault(word, len(position)))
        linenos.append(lineno)
    if not dim:
        return Corpus.of([])
    return _checked_corpus(
        token_ids,
        list(position),
        word_index,
        np.frombuffer(values).reshape(-1, dim),
        lambda i: f"line {linenos[i]}",
    )


def _decode_binary(stream: IO[bytes]) -> tuple[list[str], list[str], list[int], np.ndarray]:
    """The token ids, words, word indices and embeddings of a binary embedding
    file, from a seekable ``stream`` just past its magic.

    One walk over the record headers (``_record_starts``) finds where each
    complete record starts; the records are then decoded ``_BLOCK_RECORDS``
    at a time, each block from its own read, their string and payload
    offsets computed in numpy, into the preallocated matrix. So the decode
    holds the corpus plus one read, and nothing returned refers to a read.
    Decoding errors name the first faulty record, as a record-by-record
    read finds them.
    """
    header = stream.read(4)
    if len(header) < 4:
        raise ParseError("binary embedding file truncated before header")
    (dim,) = struct.unpack("<I", header)
    if dim == 0:
        raise ParseError("binary embedding file declares dimension 0")
    width = 4 * dim
    begin = stream.tell()
    size = stream.seek(0, io.SEEK_END)
    starts = _record_starts(stream, begin, size, width)
    count = len(starts) - 1
    offsets = np.frombuffer(starts, dtype=np.int64)
    token_ids: list[str] = []
    word_index: list[int] = []
    position: dict[bytes, int] = {}  # encoded word -> index into words
    words: list[str] = []
    x = np.empty((count, dim))
    for first in range(0, count, _BLOCK_RECORDS):
        last = min(first + _BLOCK_RECORDS, count)
        base = starts[first]
        stream.seek(base)
        data = stream.read(starts[last] - base)
        if len(data) != starts[last] - base:
            raise ParseError("binary embedding file changed while it was read")
        u8 = np.frombuffer(data, dtype=np.uint8)
        lengths = sliding_window_view(u8, 2).view("<u2")[:, 0]  # the u16 LE at each offset
        # row i views the ``width`` bytes at offset i; gathering the block's
        # rows converts them without a float32 copy of the read
        rows = sliding_window_view(u8, width)
        at = offsets[first:last] - base  # the block's records, as offsets in ``data``
        word_end = at + 2 + lengths[at]
        payload = word_end + 2 + lengths[word_end]
        word_a, word_b, token_a, token_b = (
            span.tolist() for span in (at + 2, word_end, word_end + 2, payload)
        )
        known = len(position)
        index = [position.setdefault(data[a:b], len(position)) for a, b in zip(word_a, word_b)]
        try:
            token_ids += [data[a:b].decode() for a, b in zip(token_a, token_b)]
            fresh = list(islice(reversed(position), len(position) - known))
            words += [word.decode() for word in reversed(fresh)]
        except UnicodeDecodeError:
            raise _utf8_fault(data, first, word_a, word_b, token_a, token_b) from None
        word_index += index
        x[first:last] = rows[payload].view("<f4")
    if starts[-1] < size:
        stream.seek(starts[-1])
        raise _truncation(stream.read(_LONGEST_HEADER), size - starts[-1], count)
    return token_ids, words, word_index, x


def _record_starts(stream: IO[bytes], begin: int, size: int, width: int) -> array:
    """The offset of each complete record in ``stream``, a binary file of
    ``size`` bytes whose first record starts at ``begin``, then the offset
    of the first incomplete record, or ``size``; ``width`` is the payload
    size of a record.

    The headers are walked in reads of ``_READ_SIZE`` bytes. Each read
    starts at the first record the read before did not hold whole, so a
    payload past the end of a read is skipped by seeking; a read too short
    for one header is doubled.
    """
    starts = array("q")
    append = starts.append
    want = _READ_SIZE
    while True:
        stream.seek(begin)
        data = stream.read(want)
        limit = size - begin  # the end of the file, as an offset in ``data``
        offset = 0
        try:  # an IndexError ends the read where a header lies past its data
            while True:
                token = offset + 2 + (data[offset] | data[offset + 1] << 8)
                end = token + 2 + (data[token] | data[token + 1] << 8) + width
                if end > limit:
                    break
                append(begin + offset)
                offset = end
        except IndexError:
            if len(data) < limit:  # the header lies in the rest of the file
                want = _READ_SIZE if offset else 2 * want
                begin += offset
                continue
        append(begin + offset)
        return starts


def _utf8_fault(data: bytes, first: int, *spans: list[int]) -> ParseError:
    """The error for the first record, of the block that starts with record
    ``first``, whose token id or word is not UTF-8; ``spans`` are the word
    and token id offsets. A word decodes as it did where it first appeared,
    so a faulty one is met there first."""
    for record, (a, b, c, e) in enumerate(zip(*spans), first):
        try:
            data[c:e].decode()
            data[a:b].decode()
        except UnicodeDecodeError as exc:
            return ParseError(f"record {record}: text is not valid UTF-8: {exc.reason}")
    raise AssertionError("no UTF-8 fault in the block")


def _truncation(head: bytes, size: int, record: int) -> ParseError:
    """The error for incomplete record ``record``: ``size`` bytes from its
    start to the end of the file, of which ``head`` holds the first (at
    least ``_LONGEST_HEADER``, or all of them)."""
    offset = 0
    for _ in range(2):  # word, then token id
        if offset + 2 > size:
            return ParseError(f"record {record}: truncated record header")
        offset += 2 + (head[offset] | head[offset + 1] << 8)
        if offset > size:
            return ParseError(f"record {record}: truncated string payload")
    return ParseError(f"record {record}: truncated embedding payload")


def save_samples(
    samples: Sequence[ProsodySample],
    sink: str | Path | IO[bytes],
    *,
    binary: bool = False,
) -> None:
    """Write tokens as JSON lines, byte for byte as ``json.dumps`` writes each
    record, or in the binary format. Before anything is written, the tokens
    are checked as ``load_samples`` checks them: one dimension, finite
    values (finite as float32, for the binary format) and unique token ids;
    a fault, or for the binary format a word or token id that UTF-8 cannot
    encode or that is longer than 65,535 bytes, is a ``ValidationError``
    naming the sample.

    JSON lines are encoded and written ``CHUNK_LINES`` lines at a time, so no
    more than one chunk of the text is held at once; orjson writes a row's
    floats wherever its text equals ``repr``'s (see ``_encode_jsonl``).
    """
    corpus = Corpus.of(samples)
    with np.errstate(over="ignore"):  # a value beyond float32 range is refused as infinite
        x = corpus.x.astype("<f4") if binary else corpus.x
    _check_tokens(corpus.token_ids, x, lambda i: f"sample {i}", ValidationError)
    write_bytes(sink, (_encode_binary(corpus, x),) if binary else _encode_jsonl(corpus))


def _encode_jsonl(corpus: Corpus) -> Iterator[bytearray]:
    """The JSON lines of ``corpus``, in the chunks of ``_io.token_lines``;
    each chunk's rows are checked for orjson's range together.

    The repr of a list of finite floats is ``json.dumps``'s text for it.
    orjson 3.8 writes a float as repr does when it is ±0.0 or 1e-4 <= |v| <
    1e16, where both use positional notation, and only ``", "`` between
    values differs; a row with any value outside that range (``6.4e-05``,
    ``1e+16``) keeps its repr.
    """
    import orjson  # here, not at module level: only this writer encodes with it

    def values(start: int, stop: int) -> Iterator[str]:
        rows = corpus.x[start:stop]
        for row, positional in zip(rows, _positional(rows)):
            floats = row.tolist()  # one row's Python floats at a time
            yield orjson.dumps(floats).decode().replace(",", ", ") if positional else repr(floats)

    return token_lines(corpus, "embedding", values)


def _positional(rows: np.ndarray) -> list[bool]:
    """For each row, whether all its values are ±0.0 or 1e-4 <= |v| < 1e16;
    the float temporaries are freed before the rows' text is built."""
    size = np.abs(rows)
    return ((rows == 0.0) | ((size >= 1e-4) & (size < 1e16))).all(axis=1).tolist()


def _counted(text: str) -> bytes:
    """``text`` as UTF-8 after its u16 LE byte length; an ``OverflowError``
    past 65,535 bytes."""
    encoded = text.encode("utf-8")
    return len(encoded).to_bytes(2, "little") + encoded


def _first_unencodable(corpus: Corpus) -> str:
    """The message for the first sample whose word or token id, in file
    order, the binary format cannot hold: UTF-8 cannot encode it (it holds a
    lone surrogate), or it is longer than 65,535 bytes."""
    for i, (w, token_id) in enumerate(zip(corpus.word_index.tolist(), corpus.token_ids)):
        for name, text in (("word", corpus.words[w]), ("token id", token_id)):
            try:
                _counted(text)
            except UnicodeEncodeError:
                return f"sample {i}: {name} {text!r} holds a lone surrogate, which UTF-8 cannot encode"
            except OverflowError:
                return f"sample {i}: {name} {text[:32]!r}...: string too long for binary format"
    raise AssertionError("every word and token id encodes")


def _encode_binary(corpus: Corpus, values: np.ndarray) -> bytes:
    """The binary file of ``corpus``, whose embeddings are ``values`` as float32."""
    if not len(corpus):
        raise ValidationError("binary embedding files cannot be empty")
    try:
        words = [_counted(word) for word in corpus.words]
        heads = [
            words[w] + _counted(token_id)
            for w, token_id in zip(corpus.word_index.tolist(), corpus.token_ids)
        ]
    except (UnicodeEncodeError, OverflowError):
        raise ValidationError(_first_unencodable(corpus)) from None
    payload = values.tobytes()
    width = 4 * corpus.dim
    rows = [payload[i : i + width] for i in range(0, len(payload), width)]
    parts = [EMBEDDING_MAGIC, struct.pack("<I", corpus.dim)]
    parts += chain.from_iterable(zip(heads, rows))
    return b"".join(parts)
