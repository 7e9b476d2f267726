"""Sufficient statistics, the closed-form node likelihood, and embedding I/O.

Expected likelihood values were computed ahead of time with an independent
pure-Python implementation (tests/oracles.py) and frozen here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosotag import (
    Corpus,
    DimensionMismatchError,
    EmptyNodeError,
    ConfigError,
    ParseError,
    ProsodySample,
    SufficientStats,
    ValidationError,
    load_samples,
    node_log_likelihood,
    save_samples,
    stats_from_matrix,
)
from prosotag import gaussian
from prosotag._io import CHUNK_LINES
from prosotag.gaussian import EMBEDDING_MAGIC
from oracles import binary_corpus, closed_form_ll, embedding_records, per_sample_ll

GOOD_LINE = b'{"token_id": "a", "word": "w", "embedding": [1.0, 2.0]}\n'

# second-line records that must fail, with the error and the exact message
# they must raise. orjson refuses the lines with NaN, Infinity, a number
# beyond float range, a byte-order mark or a form feed; the standard library
# decoder then decides what they mean, as for every other JSON-lines file.
_NUMBERS = "line 2: embedding of token 'b' must be a non-empty flat list of numbers"
_NON_FINITE = "line 2: token 'b': embedding has non-finite values"
BAD_LINES = {
    "string embedding": (b'{"token_id": "b", "word": "w", "embedding": "abc"}', ParseError, _NUMBERS),
    "ragged embedding": (b'{"token_id": "b", "word": "w", "embedding": [[1.0], [1.0, 2.0]]}', ParseError, _NUMBERS),
    "nested embedding": (b'{"token_id": "b", "word": "w", "embedding": [[1.0, 2.0]]}', ParseError, _NUMBERS),
    "empty embedding": (b'{"token_id": "b", "word": "w", "embedding": []}', ParseError, _NUMBERS),
    "bool in embedding": (b'{"token_id": "b", "word": "w", "embedding": [true, 2.0]}', ParseError, _NUMBERS),
    "bool token id": (b'{"token_id": true, "word": "w", "embedding": [1.0, 2.0]}', ParseError, "line 2: token_id and word must be strings"),
    "integer word": (b'{"token_id": "b", "word": 5, "embedding": [1.0, 2.0]}', ParseError, "line 2: token_id and word must be strings"),
    "missing word": (b'{"token_id": "b", "embedding": [1.0, 2.0]}', ParseError, "line 2: malformed embedding record: missing 'word'"),
    "not an object": (b'[1.0, 2.0]', ParseError, "line 2: expected a JSON object"),
    "trailing data": (b'{"token_id": "b", "word": "w", "embedding": [1.0, 2.0]} x', ParseError, "line 2: invalid JSON: Extra data"),
    "not utf-8": (b'{"token_id": "b\xff", "word": "w", "embedding": [1.0, 2.0]}', ParseError, "line 2: not valid UTF-8: invalid start byte"),
    "non-finite": (b'{"token_id": "b", "word": "w", "embedding": [NaN, 2.0]}', ValidationError, _NON_FINITE),
    "infinity": (b'{"token_id": "b", "word": "w", "embedding": [Infinity, 2.0]}', ValidationError, _NON_FINITE),
    "negative infinity": (b'{"token_id": "b", "word": "w", "embedding": [1.0, -Infinity]}', ValidationError, _NON_FINITE),
    "float beyond range": (b'{"token_id": "b", "word": "w", "embedding": [1e400, 2.0]}', ValidationError, _NON_FINITE),
    "overflowing integer": (b'{"token_id": "b", "word": "w", "embedding": [1' + b"0" * 400 + b', 2.0]}', ValidationError, _NON_FINITE),
    "byte-order mark": (b'\xef\xbb\xbf{"token_id": "b", "word": "w", "embedding": [1.0, 2.0]}', ParseError, "line 2: invalid JSON: Expecting value"),
    "form feed": (b'\x0c{"token_id": "b", "word": "w", "embedding": [1.0, 2.0]}', ParseError, "line 2: invalid JSON: Expecting value"),
    "duplicate id": (b'{"token_id": "a", "word": "w", "embedding": [1.0, 2.0]}', ParseError, "line 2: duplicate token id 'a'"),
    "wrong dimension": (b'{"token_id": "b", "word": "w", "embedding": [1.0]}', DimensionMismatchError, "line 2: token 'b' has dimension 1, file started with 2"),
}


def binary_file(*records: tuple[bytes, bytes, list[float]], dim: int = 2) -> bytes:
    parts = [b"PTE1", struct.pack("<I", dim)]
    for word, token_id, values in records:
        for text in (word, token_id):
            parts += [struct.pack("<H", len(text)), text]
        parts.append(struct.pack(f"<{len(values)}f", *values))
    return b"".join(parts)


# second-record binary files that must fail, with the error they must raise
BAD_RECORDS = {
    "non-finite": (binary_file((b"w", b"a", [1.0, 2.0]), (b"w", b"b", [float("inf"), 2.0])), ValidationError),
    "word not utf-8": (binary_file((b"w", b"a", [1.0, 2.0]), (b"\xff", b"b", [1.0, 2.0])), ParseError),
    "token id not utf-8": (binary_file((b"w", b"a", [1.0, 2.0]), (b"w", b"\xc3", [1.0, 2.0])), ParseError),
    "duplicate id": (binary_file((b"w", b"a", [1.0, 2.0]), (b"v", b"a", [1.0, 2.0])), ParseError),
    "truncated string": (binary_file((b"w", b"a", [1.0, 2.0])) + b"\x09\x00abc", ParseError),
    "truncated header": (binary_file((b"w", b"a", [1.0, 2.0])) + b"\x01", ParseError),
}


# text of characters that need escaping in JSON, or of any code point but
# surrogates: two alphabets, so that hypothesis draws each string whole; one
# alphabet joining both is drawn a character at a time, at three times the cost
TEXT = st.one_of(
    st.text(st.sampled_from('"\\/\x00\x1f\x7f\u2028\u00e9\U0001f600a '), max_size=8),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=8),
)
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2e-308, 1e-45, 1.0, -3.0, 2.0**53, 1e16, 1e308, -1e308]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# floats that round to a finite float32, so ``struct`` can pack them
FLOAT32S = st.one_of(
    st.sampled_from([x for x in EDGE_FLOATS if abs(x) < 3e38]),
    st.floats(min_value=-3.4e38, max_value=3.4e38),
)


# integers just inside and outside int64 and uint64: orjson gives a float for
# those outside [-2**63, 2**64), the standard library an int
EDGE_INTS = st.one_of(
    *(st.integers(edge - 3, edge + 3) for edge in (2**63, 2**64, -(2**63), -(2**64))),
    st.integers(2**64, 2**1000),
    st.integers(-(2**1000), -(2**64)),
)
# each float as repr, as %.17e and as %.17g writes it (integral values as ints)
NUMBER_TEXTS = st.one_of(
    FLOATS.flatmap(lambda x: st.sampled_from([repr(x), f"{x:.17e}", f"{x:.17g}"])),
    EDGE_INTS.map(str),
)


@st.composite
def embedding_lines(draw) -> bytes:
    """A JSON-lines embedding file of one dimension, numbers written as text."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(NUMBER_TEXTS, min_size=d, max_size=d), min_size=1, max_size=6))
    ascii_only = draw(st.booleans())
    lines = [
        f'{{"token_id": {json.dumps(f"t{i}" + draw(TEXT), ensure_ascii=ascii_only)}, '
        f'"word": {json.dumps(draw(TEXT), ensure_ascii=ascii_only)}, '
        f'"embedding": [{", ".join(row)}]}}\n'
        for i, row in enumerate(rows)
    ]
    return "".join(lines).encode("utf-8")


def sample_lists(floats, min_size=0):
    """Samples of one dimension, 1 to 4, whose words repeat across tokens and
    whose token ids do not, as ``save_samples`` requires.

    The strategies are built here, once: each record draws a word number,
    which wraps round the one to three words drawn."""
    records = st.one_of(
        *(
            st.lists(
                st.tuples(TEXT, st.integers(0, 2), st.lists(floats, min_size=d, max_size=d)),
                min_size=min_size,
                max_size=6,
                unique_by=lambda record: record[0],
            )
            for d in range(1, 5)
        )
    )
    return st.builds(_samples, st.lists(TEXT, min_size=1, max_size=3), records)


def _samples(words, records):
    return [ProsodySample(t, words[w % len(words)], np.array(v)) for t, w, v in records]


# bytes no UTF-8 text holds where they are put: a lone continuation byte, an
# invalid start byte, a cut-off sequence and an encoded surrogate
BAD_UTF8 = st.sampled_from([b"\x80", b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


@st.composite
def cut_in(draw, fields: list[bytes]) -> int:
    """How many bytes of a record, its fields given, a truncation keeps:
    any number short of all of them, often one either side of where a field
    or a length ends."""
    word, token_id, payload = fields
    ends = [0, 1, 2, 2 + len(word), 4 + len(word), 4 + len(word) + len(token_id)]
    size = ends[-1] + len(payload)
    near = sorted({k + e for k in ends for e in (-1, 0, 1) if 0 <= k + e < size})
    return draw(st.one_of(st.sampled_from(near), st.integers(0, size - 1)))


# the strategies of ``damaged_binary_files`` that do not depend on a draw
_RECORD_COUNTS = (1023, 1024, 1025)
_RECORD_COUNT = st.sampled_from(_RECORD_COUNTS)
_DIMS = st.integers(1, 4)
_WORD_SETS = st.lists(TEXT, min_size=1, max_size=5, unique=True)
_SUFFIXES = st.lists(TEXT, min_size=1, max_size=3)
_RNG_SEEDS = st.integers(0, 2**32 - 1)
_NEAR_BLOCKS = st.sampled_from([0, 1, 1022, 1023, 1024])
_FAULTY_RECORD = {count: _NEAR_BLOCKS | st.integers(0, count - 1) for count in _RECORD_COUNTS}
_FAULTS = st.sampled_from(["none", "truncation", "token id", "word", "every word", "both"])


@st.composite
def damaged_binary_files(draw) -> bytes:
    """A binary embedding file of 1,023 to 1,025 records, one block of
    records either side of the reader's block size, with at most one fault:
    a truncation at any byte of a record; bad UTF-8 in a token id, in one
    occurrence of a word, in every occurrence of it or in both a token id and
    its word; or such text followed by a truncation in a later record."""
    d = draw(_DIMS)
    count = draw(_RECORD_COUNT)
    words = [w.encode("utf-8") for w in draw(_WORD_SETS)]
    suffixes = draw(_SUFFIXES)
    rng = np.random.default_rng(draw(_RNG_SEEDS))
    x = rng.normal(size=(count, d)).astype("<f4")
    records = [
        [words[w], f"t{i}:{suffixes[s]}".encode("utf-8"), x[i].tobytes()]
        for i, (w, s) in enumerate(
            zip(rng.integers(0, len(words), count), rng.integers(0, len(suffixes), count))
        )
    ]
    record = min(draw(_FAULTY_RECORD[count]), count - 1)
    fault = draw(_FAULTS)
    cut = None
    if fault == "truncation":
        cut = (record, draw(cut_in(records[record])))
    elif fault != "none":
        for field in {"token id": [1], "both": [0, 1]}.get(fault, [0]):
            text = records[record][field]
            at = draw(st.integers(0, len(text)))
            bad = text[:at] + draw(BAD_UTF8) + text[at:]
            for fields in records if fault == "every word" else [records[record]]:
                if fields[field] == text:
                    fields[field] = bad
        if record + 1 < count and draw(st.booleans()):
            later = draw(st.integers(record + 1, count - 1))
            cut = (later, draw(cut_in(records[later])))
    parts = [b"PTE1", struct.pack("<I", d)]
    for word, token_id, payload in records:
        parts += [struct.pack("<H", len(word)), word, struct.pack("<H", len(token_id)), token_id, payload]
    data = b"".join(parts)
    if cut is not None:
        later, into = cut
        data = data[: 8 + sum(4 + sum(map(len, fields)) for fields in records[:later]) + into]
    return data


def jsonl_oracle(samples) -> bytes:
    """The per-record ``json.dumps`` form of an embedding file."""
    lines = [
        json.dumps({"token_id": s.token_id, "word": s.word, "embedding": s.embedding.tolist()})
        for s in samples
    ]
    return ("\n".join(lines) + "\n" if lines else "").encode("utf-8")


def binary_oracle(samples) -> bytes:
    """The per-record ``struct`` form of a binary embedding file."""
    parts = [b"PTE1", struct.pack("<I", samples[0].dim)]
    for s in samples:
        for text in (s.word, s.token_id):
            encoded = text.encode("utf-8")
            parts += [struct.pack("<H", len(encoded)), encoded]
        parts.append(struct.pack(f"<{s.dim}f", *s.embedding.tolist()))
    return b"".join(parts)


def stats_of(values) -> SufficientStats:
    return stats_from_matrix(np.asarray(values, dtype=np.float64))


class TestProsodySample:
    def test_valid(self):
        s = ProsodySample("t1", "cat", np.array([1.0, 2.0]))
        assert s.dim == 2

    def test_embedding_read_only(self):
        s = ProsodySample("t1", "cat", np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            s.embedding[0] = 5.0

    def test_caller_array_stays_writeable(self):
        a = np.zeros(3)
        s = ProsodySample("t1", "cat", a)
        assert a.flags.writeable
        a[0] = 5.0
        assert s.embedding.tolist() == [0.0, 0.0, 0.0]
        assert not s.embedding.flags.writeable

    def test_read_only_view_of_writeable_array_copied(self):
        a = np.zeros(3)
        v = a[:]
        v.setflags(write=False)
        s = ProsodySample("t", "w", v)
        a[0] = 5.0
        assert s.embedding.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ProsodySample("t1", "cat", np.array([]))

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            ProsodySample("t1", "cat", np.zeros((2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            ProsodySample("t1", "cat", np.array([1.0, np.nan]))


class TestSufficientStats:
    def test_mean_and_variance(self):
        stats = stats_of([[0.0], [2.0]])
        assert stats.ml_variances(1e-6)[0] == 1.0

    def test_variance_floor_applies(self):
        stats = stats_of([[5.0], [5.0]])
        assert stats.ml_variances(1e-6)[0] == 1e-6

    @pytest.mark.parametrize(
        "sum_, sumsq", [(np.zeros(3), np.zeros(2)), (np.zeros((1, 3)), np.zeros((1, 3)))]
    )
    def test_vectors_of_one_dimension(self, sum_, sumsq):
        with pytest.raises(ValidationError, match="vectors of equal dimension"):
            SufficientStats(n=1, sum=sum_, sumsq=sumsq)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_matrix_must_be_2d(self, shape):
        with pytest.raises(ValidationError, match="2-d sample matrix"):
            stats_from_matrix(np.zeros(shape))

    def test_empty_node_errors(self):
        empty = SufficientStats(n=0, sum=np.zeros(2), sumsq=np.zeros(2))
        with pytest.raises(EmptyNodeError):
            empty.ml_variances(1e-6)
        with pytest.raises(EmptyNodeError):
            node_log_likelihood(empty, 1e-6)

    @given(seed=st.integers(0, 5000))
    def test_additivity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rng.integers(1, 20), rng.integers(1, 6)))
        y = rng.normal(size=(rng.integers(1, 20), x.shape[1]))
        combined = stats_from_matrix(np.vstack([x, y]))
        a, b = stats_from_matrix(x), stats_from_matrix(y)
        assert a.n + b.n == combined.n
        np.testing.assert_allclose(a.sum + b.sum, combined.sum, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.sumsq + b.sumsq, combined.sumsq, rtol=1e-9, atol=1e-12)


class TestNodeLogLikelihood:
    def test_frozen_value_unit_variance(self):
        # d=1, samples {0, 2}: ML variance 1, LL = -(ln(2*pi) + 1)
        assert node_log_likelihood(stats_of([[0.0], [2.0]]), 1e-6) == pytest.approx(
            -2.8378770664093453, rel=1e-12
        )

    def test_frozen_value_floored_variance(self):
        # identical samples: variance floors at 1e-6 and the LL goes positive
        assert node_log_likelihood(stats_of([[5.0], [5.0]]), 1e-6) == pytest.approx(
            10.97763349155493, rel=1e-12
        )

    def test_frozen_value_single_sample(self):
        # n=1: zero ML variance in every dimension, all floored
        assert node_log_likelihood(stats_of([[7.0, -3.0, 0.5]]), 1e-6) == pytest.approx(
            16.466450237332396, rel=1e-12
        )

    # the floor follows the knob rules of grow_tree, fit_gmm and TaggerConfig
    @pytest.mark.parametrize("floor", [0.0, -1.0, True])
    def test_invalid_floor(self, floor):
        with pytest.raises(ConfigError, match="^floor must be"):
            node_log_likelihood(stats_of([[1.0]]), floor)

    @pytest.mark.parametrize("floor", [float("nan"), float("inf")])
    def test_non_finite_floor(self, floor):
        with pytest.raises(ConfigError, match="^floor must be a finite number"):
            node_log_likelihood(stats_of([[1.0]]), floor)

    def test_matches_independent_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.normal(scale=3.0, size=(rng.integers(2, 40), rng.integers(1, 6)))
            expected = closed_form_ll(x.tolist())
            got = node_log_likelihood(stats_from_matrix(x), 1e-6)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_equals_per_sample_density_sum_when_floor_inactive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(scale=2.0, size=(rng.integers(5, 30), rng.integers(1, 5)))
            assert stats_from_matrix(x).ml_variances(1e-6).min() > 1e-6
            expected = per_sample_ll(x.tolist())
            got = node_log_likelihood(stats_from_matrix(x), 1e-6)
            assert got == pytest.approx(expected, rel=1e-9)


def split_gain(x: np.ndarray, cut: int) -> float:
    """Likelihood gain from splitting the rows of x at cut."""
    return (
        node_log_likelihood(stats_from_matrix(x[:cut]), 1e-6)
        + node_log_likelihood(stats_from_matrix(x[cut:]), 1e-6)
        - node_log_likelihood(stats_from_matrix(x), 1e-6)
    )


class TestSplitGain:
    def test_hand_case(self):
        x = np.array([[0.0], [0.2], [10.0], [10.2]])
        expected = (
            closed_form_ll(x[:2].tolist())
            + closed_form_ll(x[2:].tolist())
            - closed_form_ll(x.tolist())
        )
        gain = split_gain(x, 2)
        assert gain == pytest.approx(expected, rel=1e-9)
        assert gain > 0

    @given(seed=st.integers(0, 5000))
    @settings(max_examples=60)
    def test_gain_never_negative(self, seed):
        # per-child floored-ML parameters are each child's constrained optimum,
        # so splitting can never lose likelihood
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rng.integers(2, 30), rng.integers(1, 5)))
        assert split_gain(x, int(rng.integers(1, x.shape[0]))) >= -1e-9


class TestEmbeddingIO:
    def make_samples(self, n=5, d=3, seed=0):
        rng = np.random.default_rng(seed)
        return [
            ProsodySample(f"tok{i}", f"word{i % 3}", rng.normal(size=d))
            for i in range(n)
        ]

    def test_jsonl_round_trip_exact(self):
        samples = self.make_samples()
        buf = io.BytesIO()
        save_samples(samples, buf)
        loaded = load_samples(io.BytesIO(buf.getvalue()))
        assert [s.token_id for s in loaded] == [s.token_id for s in samples]
        for a, b in zip(samples, loaded):
            np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_binary_round_trip_float32(self):
        samples = self.make_samples()
        buf = io.BytesIO()
        save_samples(samples, buf, binary=True)
        loaded = load_samples(io.BytesIO(buf.getvalue()))
        for a, b in zip(samples, loaded):
            assert a.word == b.word
            np.testing.assert_array_equal(
                a.embedding.astype(np.float32).astype(np.float64), b.embedding
            )

    def test_binary_magic_sniffed(self):
        samples = self.make_samples(n=2)
        buf = io.BytesIO()
        save_samples(samples, buf, binary=True)
        assert buf.getvalue()[:4] == b"PTE1"

    def test_binary_truncated_payload(self):
        buf = io.BytesIO()
        save_samples(self.make_samples(n=2), buf, binary=True)
        with pytest.raises(ParseError):
            load_samples(io.BytesIO(buf.getvalue()[:-5]))

    def test_binary_truncated_header(self):
        with pytest.raises(ParseError):
            load_samples(io.BytesIO(b"PTE1\x03"))

    def test_binary_empty_rejected(self):
        with pytest.raises(ValidationError):
            save_samples([], io.BytesIO(), binary=True)

    def test_duplicate_token_ids_rejected(self):
        line = b'{"token_id":"t","word":"w","embedding":[1.0]}\n'
        with pytest.raises(ParseError):
            load_samples(io.BytesIO(line * 2))

    def test_mixed_dimension_rejected(self):
        data = (
            b'{"token_id":"a","word":"w","embedding":[1.0]}\n'
            b'{"token_id":"b","word":"w","embedding":[1.0,2.0]}\n'
        )
        with pytest.raises(DimensionMismatchError):
            load_samples(io.BytesIO(data))

    @pytest.mark.parametrize("case", sorted(BAD_LINES))
    def test_bad_jsonl_record_names_line(self, case):
        line, error, message = BAD_LINES[case]
        with pytest.raises(error) as info:
            load_samples(io.BytesIO(GOOD_LINE + line + b"\n"))
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_bad_binary_record_names_record(self, case):
        data, error = BAD_RECORDS[case]
        with pytest.raises(error, match="record 1"):
            load_samples(io.BytesIO(data))

    def test_integer_embeddings_convert_as_numpy_does(self):
        rows = [
            [2**53 + 1, -(2**70) + 3],
            [10**300, 0],
            [0.1, 2**63 + 1025],
            [-(2**64) - 4097, 1.5e-320],
        ]
        data = b"".join(
            json.dumps({"token_id": f"t{i}", "word": "w", "embedding": row}).encode() + b"\n"
            for i, row in enumerate(rows)
        )
        x = load_samples(io.BytesIO(data)).x
        expected = np.array(rows, dtype=np.float64)
        assert x.tobytes() == expected.tobytes()
        too_large = data + b'{"token_id": "t4", "word": "w", "embedding": [1.0, 1' + b"0" * 400 + b"]}\n"
        with pytest.raises(ValidationError, match="^line 5: token 't4': "):
            load_samples(io.BytesIO(too_large))

    def test_non_finite_names_token(self):
        with pytest.raises(ValidationError, match="'b'"):
            load_samples(io.BytesIO(GOOD_LINE + BAD_LINES["non-finite"][0]))

    def test_corpus_columns(self):
        data = (
            b'{"token_id": "t0", "word": "b", "embedding": [1.0, 2.0]}\n'
            b"\n"
            b'{"token_id": "t1", "word": "a", "embedding": [3, 4.5]}\n'
            b'{"token_id": "t2", "word": "b", "embedding": [5.0, 6.0]}\n'
        )
        corpus = load_samples(io.BytesIO(data))
        assert isinstance(corpus, Corpus)
        assert corpus.token_ids == ["t0", "t1", "t2"]
        assert corpus.words == ["b", "a"]
        assert corpus.word_index.dtype == np.int32
        assert corpus.word_index.tolist() == [0, 1, 0]
        np.testing.assert_array_equal(corpus.x, [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]])
        assert not corpus.x.flags.writeable
        assert len(corpus) == 3 and corpus.dim == 2
        assert corpus[-2].token_id == "t1"
        assert corpus[1].word == "a" and corpus[1].token_id == "t1"
        assert [s.token_id for s in corpus[::2]] == ["t0", "t2"]
        assert [s.token_id for s in corpus] == ["t0", "t1", "t2"]
        assert Corpus.of(corpus) is corpus
        rebuilt = Corpus.of(list(corpus))
        assert rebuilt.words == corpus.words
        np.testing.assert_array_equal(rebuilt.x, corpus.x)

    @settings(max_examples=150, deadline=None)
    @given(embedding_lines())
    def test_jsonl_reader_matches_json_loads(self, data):
        corpus = load_samples(io.BytesIO(data))
        records = embedding_records(data)
        assert corpus.token_ids == [r[0] for r in records]
        assert [corpus.words[i] for i in corpus.word_index] == [r[1] for r in records]
        assert corpus.x.tobytes() == np.array([r[2] for r in records]).tobytes()

    def test_lone_surrogates_load_as_json_loads_reads_them(self):
        # orjson refuses a lone surrogate; the standard library decoder reads it
        data = GOOD_LINE + b'{"token_id": "\\udfff", "word": "w\\ud800", "embedding": [3, 4.5]}\n'
        corpus = load_samples(io.BytesIO(data))
        assert corpus.token_ids == ["a", "\udfff"]
        assert corpus.words == ["w", "w\ud800"]
        assert corpus.x.tolist() == [r[2] for r in embedding_records(data)] == [[1.0, 2.0], [3.0, 4.5]]

    @pytest.mark.parametrize(
        "ids, first",
        [(["a", "b", "c", "b", "a"], 3), (["a", "b", "a", "b"], 2), (["x", "y", "y", "x", "y"], 2)],
    )
    @pytest.mark.parametrize("binary", [False, True])
    def test_first_repeated_id_named(self, ids, first, binary):
        samples = [ProsodySample(t, "w", np.array([float(i)])) for i, t in enumerate(ids)]
        data = binary_oracle(samples) if binary else jsonl_oracle(samples)  # save_samples refuses them
        where = f"record {first}" if binary else f"line {first + 1}"
        with pytest.raises(ParseError) as info:
            load_samples(io.BytesIO(data))
        assert str(info.value) == f"{where}: duplicate token id {ids[first]!r}"

    def test_ids_of_equal_hash_compared_as_strings(self, monkeypatch):
        monkeypatch.setattr(gaussian, "hash", len, raising=False)  # every id of length 2 collides
        assert gaussian._first_repeat(["ab", "cd", "ef", "xyz"]) == -1
        assert gaussian._first_repeat(["ab", "cd", "xyz", "ef", "cd", "ab"]) == 4
        assert gaussian._first_repeat(["ab", "xyz", "cd", "xyz"]) == 3
        assert gaussian._first_repeat([]) == -1

    def test_empty_file_is_empty_corpus(self):
        assert len(load_samples(io.BytesIO(b""))) == 0
        assert len(load_samples(io.BytesIO(b"PTE1\x02\x00\x00\x00"))) == 0

    @settings(max_examples=150, deadline=None)
    @given(sample_lists(FLOATS))
    def test_jsonl_writer_matches_json_dumps(self, samples):
        buf = io.BytesIO()
        save_samples(samples, buf)
        assert buf.getvalue() == jsonl_oracle(samples)

    def test_jsonl_writer_float_text_at_notation_edges(self):
        """Where ``repr`` switches to exponent notation (1e-4 and 1e16), one
        ulp either side, ±0.0 and the extremes are written as ``json.dumps``
        writes them, whether orjson or ``repr`` writes the row; a change in
        orjson's float text fails here on every run."""
        values = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
        for edge in (1e-4, 1e16):
            for sign in (1.0, -1.0):
                values += [sign * math.nextafter(edge, 0.0), sign * edge, sign * math.nextafter(edge, math.inf)]
        samples = [ProsodySample(f"t{i}", "w", np.array([v, 0.5])) for i, v in enumerate(values)]
        buf = io.BytesIO()
        save_samples(samples, buf)
        assert buf.getvalue() == jsonl_oracle(samples)

    def test_jsonl_writer_mixes_orjson_and_repr_rows_in_one_chunk(self):
        rows = [[1.5, -0.25], [6.420707435172087e-05, 1.0], [2.0, 1e16], [-0.0, 3.0], [4.051290683605165e-06, 0.0]]
        assert gaussian._positional(np.array(rows)) == [True, False, False, True, False]
        samples = [ProsodySample(f"t{i}", "w", np.array(row)) for i, row in enumerate(rows)]
        buf = io.BytesIO()
        save_samples(samples, buf)
        assert buf.getvalue() == jsonl_oracle(samples)

    @pytest.mark.parametrize("n", [0, 1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1])
    def test_jsonl_writer_chunks(self, n):
        """``CHUNK_LINES`` lines a chunk, joined as ``json.dumps`` writes the
        records; about four rows in ten have a value outside orjson's range and
        keep their repr."""
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-6, 18, size=(n, 3))
        corpus = Corpus([f"t{i}" for i in range(n)], ["w\u00e9", "v"], np.arange(n, dtype=np.int32) % 2, x)
        chunks = list(gaussian._encode_jsonl(corpus))
        assert [chunk.count(b"\n") for chunk in chunks] == [
            min(CHUNK_LINES, n - i) for i in range(0, n, CHUNK_LINES)
        ]
        buf = io.BytesIO()
        save_samples(corpus, buf)
        assert buf.getvalue() == b"".join(chunks) == jsonl_oracle(corpus)

    @settings(max_examples=150, deadline=None)
    @given(sample_lists(FLOAT32S, min_size=1))
    def test_binary_writer_matches_struct_packing(self, samples):
        buf = io.BytesIO()
        save_samples(samples, buf, binary=True)
        assert buf.getvalue() == binary_oracle(samples)

    @pytest.mark.parametrize("field", ["token_id", "word"])
    def test_binary_string_limit(self, field):
        def sample(text):
            names = {"token_id": "t", "word": "w", field: text}
            return ProsodySample(names["token_id"], names["word"], np.array([1.0]))

        longest = sample("\u00e9" * 0x7FFF + "x")  # 0xFFFF bytes
        buf = io.BytesIO()
        save_samples([longest], buf, binary=True)
        assert getattr(load_samples(io.BytesIO(buf.getvalue()))[0], field) == getattr(longest, field)
        with pytest.raises(ValidationError, match="string too long"):
            save_samples([sample("\u00e9" * 0x8000)], io.BytesIO(), binary=True)

    @pytest.mark.parametrize("binary", [False, True])
    def test_mixed_dimension_not_written(self, binary):
        samples = [ProsodySample("a", "w", np.array([1.0])), ProsodySample("b", "w", np.array([1.0, 2.0]))]
        with pytest.raises(DimensionMismatchError, match="'b'"):
            save_samples(samples, io.BytesIO(), binary=binary)

    def test_empty_jsonl_is_empty_file(self):
        buf = io.BytesIO()
        save_samples([], buf)
        assert buf.getvalue() == b""

    def test_unicode_words_binary(self):
        samples = [ProsodySample("t0", "naïve", np.array([1.5, -2.5]))]
        buf = io.BytesIO()
        save_samples(samples, buf, binary=True)
        assert load_samples(io.BytesIO(buf.getvalue()))[0].word == "naïve"


class TestBinaryReader:
    @staticmethod
    def outcome(read, data):
        try:
            return read(data)
        except (ParseError, ValidationError) as exc:
            return type(exc), str(exc)

    @settings(max_examples=150, deadline=None)
    @given(data=damaged_binary_files())
    def test_matches_record_by_record_reader(self, data):
        """The block reader returns the corpus the reference returns, or
        raises the error it raises, with the same message."""
        got = self.outcome(lambda data: load_samples(io.BytesIO(data)), data)
        want = self.outcome(binary_corpus, data[4:])
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, Corpus)
        assert got.token_ids == want.token_ids
        assert got.words == want.words
        np.testing.assert_array_equal(got.word_index, want.word_index)
        assert got.x.shape == want.x.shape and got.x.tobytes() == want.x.tobytes()

    def test_token_id_checked_before_its_word(self):
        data = binary_file((b"w", b"a", [1.0, 2.0]), (b"\xff", b"\xc3", [1.0, 2.0]))
        message = "record 1: text is not valid UTF-8: unexpected end of data"
        assert self.outcome(binary_corpus, data[4:]) == (ParseError, message)
        with pytest.raises(ParseError) as info:
            load_samples(io.BytesIO(data))
        assert str(info.value) == message

    def test_every_truncation_matches_record_by_record_reader(self):
        data = binary_file((b"w", b"a", [1.0, 2.0]), ("é".encode(), b"bc", [3.0, 4.0]), (b"", b"d", [5.0, 6.0]))
        for size in range(len(EMBEDDING_MAGIC), len(data) + 1):
            got = self.outcome(lambda data: load_samples(io.BytesIO(data)), data[:size])
            want = self.outcome(binary_corpus, data[4:size])
            if isinstance(want, tuple):
                assert got == want, size
            else:
                assert got.token_ids == want.token_ids, size

    @staticmethod
    @contextlib.contextmanager
    def small_reads(read_size: int):
        """Reads of ``read_size`` bytes and blocks of two records, so headers,
        records and UTF-8 faults straddle the reads and the blocks."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian, "_READ_SIZE", read_size)
            patch.setattr(gaussian, "_BLOCK_RECORDS", 2)
            yield

    @settings(max_examples=150, deadline=None)
    @given(data=damaged_binary_files(), read_size=st.sampled_from([1, 5, 64]))
    def test_small_reads_match_record_by_record_reader(self, data, read_size):
        with self.small_reads(read_size):
            self.test_matches_record_by_record_reader.hypothesis.inner_test(self, data)

    @pytest.mark.parametrize("read_size", [1, 2, 3, 5, 64])
    def test_small_reads_check_what_one_read_checks(self, read_size):
        with self.small_reads(read_size):
            self.test_token_id_checked_before_its_word()
            self.test_every_truncation_matches_record_by_record_reader()

    def test_file_that_shrinks_between_reads(self):
        """A file cut after the header walk is a ``ParseError``, not an
        index error."""
        data = binary_file(*[(b"w", f"t{i}".encode(), [1.0, 2.0]) for i in range(4)])
        stream = io.BytesIO(data)
        walk = gaussian._record_starts

        def walk_then_cut(*args):
            starts = walk(*args)
            stream.truncate(len(data) - 1)
            return starts

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gaussian, "_record_starts", walk_then_cut)
            with pytest.raises(ParseError, match="changed while it was read"):
                load_samples(stream)


class TestBoundedMemory:
    """``load_samples`` holds about one line at a time beside the corpus it
    builds from a JSON-lines file, and the file's bytes (never a float32 copy
    of the payloads) from a binary one. Each bound is on the ``tracemalloc``
    peak above what the returned corpus holds. Transient per-token
    bookkeeping (line numbers, word indices, the duplicate-id check) also
    counts against the bound: about 0.17 MiB at these 5,000 tokens, 0.7 MiB
    when the duplicate-id check held a set of the ids."""

    @staticmethod
    def peak_above_corpus(path, n: int = 5000) -> int:
        tracemalloc.start()
        try:
            corpus = load_samples(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == n
        return peak - held

    @staticmethod
    def corpus(d: int, n: int = 5000) -> Corpus:
        rng = np.random.default_rng(0)
        words = [f"w{i:04d}" for i in range(500)]
        return Corpus(
            [f"t{i:05d}" for i in range(n)],
            words,
            np.repeat(np.arange(500, dtype=np.int32), n // 500),
            rng.normal(size=(n, d)),
        )

    def test_jsonl_peak(self, tmp_path):
        """Below 1 MiB plus eight lines; the 1.8 MiB file held whole reads
        2.7 MiB."""
        path = tmp_path / "embeddings.jsonl"
        save_samples(self.corpus(16), path)
        longest = max(map(len, path.read_bytes().splitlines()))
        assert self.peak_above_corpus(path) < (1 << 20) + 8 * longest

    def test_jsonl_write_peak(self, tmp_path):
        """Writing 50,000 tokens allocates, above the corpus, less than two
        chunks of text (a chunk is ``CHUNK_LINES`` lines, about 1.5 MiB
        here). Holding every line, their joined text and its bytes reads
        about 58 MiB."""
        corpus = self.corpus(16, n=50_000)
        path = tmp_path / "embeddings.jsonl"
        tracemalloc.start()
        try:
            save_samples(corpus, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes().count(b"\n") == len(corpus)
        assert peak < 2 * path.stat().st_size * CHUNK_LINES / len(corpus)

    def test_binary_peak(self, tmp_path):
        """Below the file size plus 1 MiB; a float32 copy of the payloads
        beside the file reads 2.0 MiB above the file's 1.3 MiB."""
        path = tmp_path / "embeddings.bin"
        save_samples(self.corpus(64), path, binary=True)
        assert self.peak_above_corpus(path) < path.stat().st_size + (1 << 20)

    def test_binary_peak_is_reads_not_the_file(self, tmp_path):
        """A file of several reads peaks under two reads above the corpus,
        whatever its size: 1.4 MB at this 5.4 MB file, where holding the
        file whole read 6.2 MB."""
        path = tmp_path / "embeddings.bin"
        save_samples(self.corpus(64, n=20_000), path, binary=True)
        assert path.stat().st_size > 4 * gaussian._READ_SIZE
        assert self.peak_above_corpus(path, n=20_000) < 2 * gaussian._READ_SIZE

    def test_binary_bytes_freed_before_checks(self, tmp_path, monkeypatch):
        """The corpus checks start with the decoded records held, not the
        file: at 30,000 records the traced memory on entering them stays
        below what the returned corpus holds plus half the 1.4 MB file. It
        reads 0.15 MB above the corpus, 1.9 MB with the file's bytes held.
        The same holds for a stream that cannot seek, which is read whole
        for the sniff of the magic."""
        path = tmp_path / "embeddings.bin"
        save_samples(self.corpus(8, n=30_000), path, binary=True)
        checked_corpus = gaussian._checked_corpus
        entered = []

        def recorded(*args):
            entered.append(tracemalloc.get_traced_memory()[0])
            return checked_corpus(*args)

        class Pipe(io.FileIO):
            def seekable(self) -> bool:
                return False

        monkeypatch.setattr(gaussian, "_checked_corpus", recorded)
        with io.BufferedReader(Pipe(path)) as pipe:
            assert not pipe.seekable()
            for source in (path, pipe):
                entered.clear()
                tracemalloc.start()
                try:
                    corpus = load_samples(source)
                    held = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
                assert len(corpus) == 30_000 and len(entered) == 1
                assert entered[0] - held < path.stat().st_size // 2
