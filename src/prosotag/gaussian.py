"""Sufficient statistics and closed-form diagonal-Gaussian log-likelihood.

A node's samples are modeled by the maximum-likelihood diagonal Gaussian
fitted to those same samples. With ML variances (divide by n) the summed
log-density collapses to

    LL = -(n/2) * sum_j [ ln(2*pi*var_j) + 1 ]

where var_j = max(floor, sumsq_j/n - (sum_j/n)^2). The floor is applied per
dimension after estimation; when it is inactive the closed form equals the
per-sample density sum exactly. Splitting quality is the gain
LL(left) + LL(right) - LL(parent).

Also hosts the embedding file readers and writers (JSON lines, plus a binary
format selected by sniffing the "PTE1" magic).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from ._io import read_bytes, write_bytes
from .errors import DimensionMismatchError, EmptyNodeError, ParseError, ValidationError

__all__ = [
    "ProsodySample",
    "SufficientStats",
    "stats_from_matrix",
    "node_log_likelihood",
    "load_samples",
    "save_samples",
    "EMBEDDING_MAGIC",
]

EMBEDDING_MAGIC = b"PTE1"

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ProsodySample:
    """One word token's prosody embedding."""

    token_id: str
    word: str
    embedding: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.embedding, dtype=np.float64)
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

    @property
    def dim(self) -> int:
        return self.sum.size

    def mean(self) -> np.ndarray:
        if self.n == 0:
            raise EmptyNodeError("mean of an empty node is undefined")
        return self.sum / self.n

    def ml_variances(self, floor: float) -> np.ndarray:
        """Per-dimension ML variance (divide by n), floored from below."""
        if self.n == 0:
            raise EmptyNodeError("variance of an empty node is undefined")
        mean = self.sum / self.n
        return np.maximum(self.sumsq / self.n - mean * mean, floor)


def stats_from_matrix(x: np.ndarray) -> SufficientStats:
    """Stats for a (n, d) matrix of embeddings, one row per sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("expected a 2-d sample matrix")
    return SufficientStats(n=x.shape[0], sum=x.sum(axis=0), sumsq=(x * x).sum(axis=0))


def _ll_from_moments(
    n: np.ndarray | int, s: np.ndarray, ss: np.ndarray, floor: float
) -> np.ndarray | float:
    """Closed-form LL from raw moments; broadcasts over leading axes.

    ``n`` may be a scalar or a vector matching ``s``'s leading axis. Callers
    guarantee n >= 1 wherever the result is consumed.
    """
    n_arr = np.asarray(n, dtype=np.float64)
    denom = n_arr if n_arr.ndim == 0 else n_arr[:, None]
    mean = s / denom
    var = np.maximum(ss / denom - mean * mean, floor)
    return -0.5 * n_arr * (np.log(2.0 * np.pi * var) + 1.0).sum(axis=-1)


def node_log_likelihood(stats: SufficientStats, floor: float) -> float:
    """Log-likelihood of a node's samples under their own ML diagonal Gaussian."""
    if floor <= 0.0:
        raise ValidationError(f"variance floor must be positive, got {floor}")
    if stats.n == 0:
        raise EmptyNodeError("log-likelihood of an empty node is undefined")
    return float(_ll_from_moments(stats.n, stats.sum, stats.sumsq, floor))


# ---------------------------------------------------------------------------
# embedding files
#
# Text form: JSON lines {"token_id", "word", "embedding"}. Binary form: magic
# "PTE1", u32 LE dimension, then per record a u16 LE byte length + UTF-8 word,
# u16 LE byte length + UTF-8 token id, and d float32 LE values. Readers accept
# both by sniffing the magic.


def load_samples(source: str | Path | IO[bytes]) -> list[ProsodySample]:
    """Read an embedding file in either supported format.

    All records must share one dimension and token ids must be unique.
    """
    data = read_bytes(source)
    if data[:4] == EMBEDDING_MAGIC:
        samples = _parse_binary(data)
    else:
        samples = _parse_jsonl(data)
    seen: set[str] = set()
    dim: int | None = None
    for sample in samples:
        if sample.token_id in seen:
            raise ParseError(f"duplicate token id {sample.token_id!r}")
        seen.add(sample.token_id)
        if dim is None:
            dim = sample.dim
        elif sample.dim != dim:
            raise DimensionMismatchError(
                f"token {sample.token_id!r} has dimension {sample.dim}, "
                f"file started with {dim}"
            )
    return samples


def _parse_jsonl(data: bytes) -> list[ProsodySample]:
    samples: list[ProsodySample] = []
    for lineno, raw in enumerate(data.decode("utf-8").split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
            samples.append(
                ProsodySample(
                    token_id=obj["token_id"],
                    word=obj["word"],
                    embedding=np.asarray(obj["embedding"], dtype=np.float64),
                )
            )
        except json.JSONDecodeError as exc:
            raise ParseError(f"line {lineno}: invalid JSON: {exc.msg}") from exc
        except (KeyError, TypeError) as exc:
            raise ParseError(f"line {lineno}: malformed embedding record: {exc}") from exc
    return samples


def _parse_binary(data: bytes) -> list[ProsodySample]:
    view = memoryview(data)
    offset = 4
    if len(view) < 8:
        raise ParseError("binary embedding file truncated before header")
    (dim,) = struct.unpack_from("<I", view, offset)
    offset += 4
    if dim == 0:
        raise ParseError("binary embedding file declares dimension 0")
    samples: list[ProsodySample] = []
    while offset < len(view):
        try:
            word, offset = _read_string(view, offset)
            token_id, offset = _read_string(view, offset)
            end = offset + 4 * dim
            if end > len(view):
                raise ParseError(
                    f"record {len(samples)}: truncated embedding payload"
                )
            vec = np.frombuffer(view[offset:end], dtype="<f4").astype(np.float64)
            offset = end
        except struct.error as exc:
            raise ParseError(f"record {len(samples)}: truncated record header") from exc
        samples.append(ProsodySample(token_id=token_id, word=word, embedding=vec))
    return samples


def _read_string(view: memoryview, offset: int) -> tuple[str, int]:
    (length,) = struct.unpack_from("<H", view, offset)
    offset += 2
    if offset + length > len(view):
        raise ParseError("truncated string payload")
    text = bytes(view[offset : offset + length]).decode("utf-8")
    return text, offset + length


def save_samples(
    samples: Sequence[ProsodySample],
    sink: str | Path | IO[bytes],
    *,
    binary: bool = False,
) -> None:
    if binary:
        payload = _encode_binary(samples)
    else:
        lines = [
            json.dumps(
                {
                    "token_id": s.token_id,
                    "word": s.word,
                    "embedding": s.embedding.tolist(),
                }
            )
            for s in samples
        ]
        payload = ("\n".join(lines) + "\n" if lines else "").encode("utf-8")
    write_bytes(sink, payload)


def _encode_binary(samples: Sequence[ProsodySample]) -> bytes:
    if not samples:
        raise ValidationError("binary embedding files cannot be empty")
    dim = samples[0].dim
    parts = [EMBEDDING_MAGIC, struct.pack("<I", dim)]
    for s in samples:
        if s.dim != dim:
            raise DimensionMismatchError(
                f"token {s.token_id!r} has dimension {s.dim}, expected {dim}"
            )
        for text in (s.word, s.token_id):
            encoded = text.encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise ValidationError(f"string too long for binary format: {text[:32]!r}...")
            parts.append(struct.pack("<H", len(encoded)))
            parts.append(encoded)
        parts.append(s.embedding.astype("<f4").tobytes())
    return b"".join(parts)
