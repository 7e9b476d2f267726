"""Words, questions, class tables, and their file formats."""

from __future__ import annotations

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prosotag import (
    ConfigError,
    ParseError,
    PhonemeClassTable,
    Question,
    QuestionKind,
    ValidationError,
    WordEntry,
    answer_question,
    default_classes,
    default_questions,
    describe_question,
    load_classes,
    load_lexicon,
    load_questions,
    save_classes,
    save_lexicon,
    save_questions,
)
from prosotag.phonetics import WordColumns, question_index
from conftest import every_kind, random_question, random_word
import oracles


def make_word(phonemes, breaks=(0,), stress=None, name="w"):
    return WordEntry(
        word=name, phonemes=tuple(phonemes), syllable_breaks=tuple(breaks), stress_syllable=stress
    )


class TestWordEntry:
    def test_valid_word(self):
        w = make_word(["K", "AE", "T"], (0,), 0)
        assert w.num_syllables == 1

    def test_two_syllables(self):
        w = make_word(["B", "AH", "T", "ER"], (0, 2), 1)
        assert w.num_syllables == 2

    def test_empty_phonemes_rejected(self):
        with pytest.raises(ValidationError):
            make_word([])

    def test_empty_word_id_rejected(self):
        with pytest.raises(ValidationError):
            make_word(["K"], name="")

    def test_breaks_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            make_word(["K", "AE"], breaks=(1,))

    def test_breaks_strictly_increasing(self):
        with pytest.raises(ValidationError):
            make_word(["K", "AE", "T"], breaks=(0, 2, 2))

    def test_break_out_of_range(self):
        with pytest.raises(ValidationError):
            make_word(["K", "AE"], breaks=(0, 2))

    def test_stress_out_of_range(self):
        with pytest.raises(ValidationError):
            make_word(["K", "AE"], breaks=(0,), stress=1)

    def test_unmarked_stress_ok(self):
        assert make_word(["K"], stress=None).stress_syllable is None

    @pytest.mark.parametrize(
        "fields",
        [
            {"stress": True},
            {"breaks": (0.0,)},
            {"breaks": (False,)},
            {"phonemes": ("K", 1)},
            {"name": 1},
            {"stress": np.int64(0)},
        ],
    )
    def test_mistyped_field_rejected(self, fields, tmp_path):
        # a bool stress would be written as Python's `True`, a float break as
        # `0.0`: neither loads again, so such an entry is never built or saved
        path = tmp_path / "lex.jsonl"
        with pytest.raises(ValidationError, match="must be strings"):
            save_lexicon([make_word(**{"phonemes": ("K", "AA"), **fields})], path)
        assert not path.exists()


class TestClassTable:
    def test_requires_vowel_class(self):
        with pytest.raises(ValidationError):
            PhonemeClassTable({"Nasal": frozenset({"M"})})

    def test_empty_class_rejected(self):
        with pytest.raises(ValidationError):
            PhonemeClassTable({"Vowel": frozenset()})

    def test_membership(self):
        table = default_classes()
        assert "Nasal" in table

    def test_unknown_class_raises(self):
        with pytest.raises(ConfigError):
            default_classes().members("Sibilant")


class TestQuestionValidation:
    def test_int_kind_requires_param(self):
        with pytest.raises(ValidationError):
            Question(id=0, kind=QuestionKind.PHONEME_COUNT_GT)

    def test_class_kind_requires_param(self):
        with pytest.raises(ValidationError):
            Question(id=0, kind=QuestionKind.STARTS_WITH_CLASS)

    def test_negative_id_rejected(self):
        with pytest.raises(ValidationError):
            Question(id=-1, kind=QuestionKind.ENDS_CLOSED_SYLLABLE)

    def test_unknown_class_param(self, classes):
        q = Question(id=0, kind=QuestionKind.CONTAINS_CLASS, class_param="Sibilant")
        with pytest.raises(ConfigError):
            q.validate_against(classes)

    def test_kind_coerced_from_string(self):
        q = Question(id=3, kind="PhonemeCountGt", int_param=4)
        assert q.kind is QuestionKind.PHONEME_COUNT_GT

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"id": "3", "kind": "EndsClosedSyllable"}, "id must be int, got str"),
            ({"id": 3, "kind": "Nope"}, "unknown question kind 'Nope'"),
            ({"id": "3", "kind": "Nope"}, "unknown question kind 'Nope'"),  # kind first
            ({"id": True, "kind": "EndsClosedSyllable"}, "id must be int, got bool"),
            ({"id": 3, "kind": "PhonemeCountGt", "int_param": 2.5}, "int_param must be int, got float"),
            ({"id": 3, "kind": "PhonemeCountGt", "int_param": True}, "int_param must be int, got bool"),
            ({"id": 3, "kind": "ContainsClass", "class_param": 5}, "class_param must be str, got int"),
        ],
    )
    def test_mistyped_field_rejected(self, fields, message):
        """Values ``load_questions`` refuses: a ``Question`` cannot hold them."""
        with pytest.raises(ValidationError, match=message):
            Question(**fields)


class TestAnswers:
    """Hand-evaluated cases, one per question kind."""

    def test_phoneme_count_gt_is_strict(self, classes):
        q = Question(id=0, kind=QuestionKind.PHONEME_COUNT_GT, int_param=3)
        assert not answer_question(q, make_word(["K", "AE", "T"]), classes)
        assert answer_question(q, make_word(["K", "AE", "T", "S"]), classes)

    def test_syllable_count_gt(self, classes):
        q = Question(id=0, kind=QuestionKind.SYLLABLE_COUNT_GT, int_param=1)
        assert not answer_question(q, make_word(["K", "AE", "T"], (0,)), classes)
        assert answer_question(q, make_word(["B", "AH", "T", "ER"], (0, 2)), classes)

    def test_ends_closed_syllable(self, classes):
        q = Question(id=0, kind=QuestionKind.ENDS_CLOSED_SYLLABLE)
        assert answer_question(q, make_word(["K", "AE", "T"]), classes)
        assert not answer_question(q, make_word(["S", "IY"]), classes)

    def test_final_phoneme_outside_all_classes_counts_as_closed(self, classes):
        q = Question(id=0, kind=QuestionKind.ENDS_CLOSED_SYLLABLE)
        assert answer_question(q, make_word(["K", "ZZ"]), classes)

    def test_starts_with_class(self, classes):
        q = Question(id=0, kind=QuestionKind.STARTS_WITH_CLASS, class_param="Nasal")
        assert answer_question(q, make_word(["M", "AE", "P"]), classes)
        assert not answer_question(q, make_word(["K", "AE", "P"]), classes)

    def test_ends_with_class(self, classes):
        q = Question(id=0, kind=QuestionKind.ENDS_WITH_CLASS, class_param="Nasal")
        assert answer_question(q, make_word(["HH", "AE", "NG"]), classes)
        assert not answer_question(q, make_word(["HH", "AE", "T"]), classes)

    def test_contains_class(self, classes):
        q = Question(id=0, kind=QuestionKind.CONTAINS_CLASS, class_param="Fricative")
        assert answer_question(q, make_word(["S", "AE", "T"]), classes)
        assert not answer_question(q, make_word(["K", "AE", "T"]), classes)

    def test_stress_on_syllable(self, classes):
        q = Question(id=0, kind=QuestionKind.STRESS_ON_SYLLABLE, int_param=1)
        w = make_word(["B", "AH", "T", "ER"], (0, 2), stress=1)
        assert answer_question(q, w, classes)
        assert not answer_question(q, make_word(["B", "AH", "T", "ER"], (0, 2), 0), classes)

    def test_unmarked_stress_answers_false(self, classes):
        q = Question(id=0, kind=QuestionKind.STRESS_ON_SYLLABLE, int_param=0)
        assert not answer_question(q, make_word(["K", "AE"], stress=None), classes)

    def test_unknown_class_at_answer_time(self):
        table = PhonemeClassTable({"Vowel": frozenset({"AA"})})
        q = Question(id=0, kind=QuestionKind.CONTAINS_CLASS, class_param="Nasal")
        with pytest.raises(ConfigError):
            answer_question(q, make_word(["AA"]), table)


@given(seed=st.integers(0, 10_000))
def test_answer_question_total_over_random_inputs(seed):
    # any valid (question, word) pair evaluates to a plain bool, never raises
    rng = np.random.default_rng(seed)
    table = default_classes()
    word = random_word(rng, "w", table)
    question = random_question(rng, 0, table)
    result = answer_question(question, word, table)
    assert result in (True, False)


class TestWordColumns:
    @given(
        seed=st.integers(0, 10_000),
        big_param=st.integers(2**63 - 1, 2**70),
    )
    @settings(max_examples=60, deadline=None)
    def test_columns_equal_scalar_answers(self, seed, big_param, classes):
        rng = np.random.default_rng(seed)
        words = [random_word(rng, f"w{i}", classes) for i in range(int(rng.integers(0, 30)))]
        # one phoneme, outside every class, stress unmarked
        words.insert(int(rng.integers(len(words) + 1)), make_word(["ZZ"], name="zz"))
        columns = WordColumns.of(words)
        rows = rng.permutation(len(words))[: int(rng.integers(len(words) + 1))]
        for q in every_kind(classes, big_param):
            expected = np.array([oracles.answer_question(q, w, classes) for w in words], dtype=bool)
            full = columns.answer(q, classes)
            assert full.dtype == bool
            np.testing.assert_array_equal(full, expected)
            subset = columns.answer(q, classes, rows)
            assert subset.dtype == bool
            np.testing.assert_array_equal(subset, expected[rows])

    def test_columns(self):
        words = [
            make_word(["K", "AE", "T"], (0,), 0, name="cat"),
            make_word(["S"], name="s"),
            make_word(["B", "AH", "T", "ER"], (0, 2), 1, name="butter"),
        ]
        columns = WordColumns.of(words)
        np.testing.assert_array_equal(columns.num_phonemes, [3, 1, 4])
        np.testing.assert_array_equal(columns.num_syllables, [1, 1, 2])
        np.testing.assert_array_equal(columns.stress, [0, -1, 1])
        np.testing.assert_array_equal(columns.starts, [0, 3, 4])
        assert columns.ids.dtype == np.int32
        assert [columns.symbols[i] for i in columns.ids] == [
            p for w in words for p in w.phonemes
        ]
        assert [columns.symbols[i] for i in columns.first] == ["K", "S", "B"]
        assert [columns.symbols[i] for i in columns.last] == ["T", "S", "ER"]

    def test_empty_word_list(self, classes):
        columns = WordColumns.of([])
        for q in every_kind(classes, 2**64):
            assert columns.answer(q, classes).shape == (0,)

    def test_unknown_class_at_answer_time(self):
        table = PhonemeClassTable({"Vowel": frozenset({"AA"})})
        q = Question(id=0, kind=QuestionKind.CONTAINS_CLASS, class_param="Nasal")
        with pytest.raises(ConfigError):
            WordColumns.of([make_word(["AA"])]).answer(q, table)


class TestLexiconIO:
    def test_round_trip(self, tmp_path):
        entries = [
            make_word(["K", "AE", "T"], (0,), 0, name="cat"),
            make_word(["B", "AH", "T", "ER"], (0, 2), 1, name="butter"),
            make_word(["S", "IY"], (0,), None, name="sea"),
        ]
        path = tmp_path / "lex.jsonl"
        save_lexicon(entries, path)
        assert list(load_lexicon(path)) == entries

    def test_duplicate_word_rejected(self):
        data = b'{"word":"x","phonemes":["K"],"syllable_breaks":[0]}\n' * 2
        with pytest.raises(ParseError):
            load_lexicon(io.BytesIO(data))

    def test_malformed_record(self):
        with pytest.raises(ParseError):
            load_lexicon(io.BytesIO(b'{"word":"x"}\n'))

    def test_invalid_json_line_numbered(self):
        data = b'{"word":"x","phonemes":["K"],"syllable_breaks":[0]}\nnot json\n'
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(io.BytesIO(data))

    def test_blank_lines_skipped(self):
        data = b'\n{"word":"x","phonemes":["K"],"syllable_breaks":[0]}\n\n'
        assert len(load_lexicon(io.BytesIO(data))) == 1

    @pytest.mark.parametrize(
        "record",
        [
            b'{"word":"y","phonemes":"AAB","syllable_breaks":[0]}',
            b'{"word":5,"phonemes":["K"],"syllable_breaks":[0]}',
            b'{"word":"y","phonemes":["K"],"syllable_breaks":0}',
            b'{"word":"y","phonemes":["K"],"syllable_breaks":"0"}',
            b'{"word":"y","phonemes":[1],"syllable_breaks":[0]}',
            b'{"word":"y","phonemes":["K"],"syllable_breaks":[false]}',
            b'{"word":"y","phonemes":["K"],"syllable_breaks":[0],"stress_syllable":true}',
            # well typed, but breaking a WordEntry rule
            b'{"word":"y","phonemes":[],"syllable_breaks":[0]}',
            b'{"word":"y","phonemes":["K"],"syllable_breaks":[0],"stress_syllable":3}',
        ],
    )
    def test_mistyped_field_line_numbered(self, record):
        data = b'{"word":"x","phonemes":["K"],"syllable_breaks":[0]}\n' + record + b"\n"
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(io.BytesIO(data))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_first_mistyped_element_named(self, data):
        # element types are checked after the last line: the first record
        # with a phoneme that is not a string or a break that is not an
        # integer is still the one reported, ahead of any rule a record breaks
        bad_phonemes = [1, 1.0, True, None, ["K"], {"K": 1}, float("nan")]
        bad_breaks = [False, 0.0, "0", None, [0]]
        records = []
        for i in range(data.draw(st.integers(1, 6))):
            phonemes, breaks = ["K", "AA"], [0, 1]
            fault = data.draw(st.sampled_from(["none", "none", "phoneme", "break", "rule"]))
            if fault == "phoneme":
                phonemes[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(bad_phonemes))
            elif fault == "break":
                breaks[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(bad_breaks))
            elif fault == "rule":
                breaks = [1]
            record = {"word": f"w{i}", "phonemes": phonemes, "syllable_breaks": breaks}
            records.append((fault, record))
        text = "".join(json.dumps(record) + "\n" for _, record in records)
        faults = [fault for fault, _ in records]
        mistyped = [n for n, f in enumerate(faults, 1) if f in ("phoneme", "break")]
        if mistyped:
            expected = (
                f"line {mistyped[0]}: malformed lexicon record: "
                "phonemes must be strings and syllable_breaks integers"
            )
        elif "rule" in faults:
            expected = f"line {faults.index('rule') + 1}: malformed lexicon record: word "
        else:
            assert len(load_lexicon(io.BytesIO(text.encode()))) == len(records)
            return
        with pytest.raises(ParseError) as info:
            load_lexicon(io.BytesIO(text.encode()))
        assert str(info.value).startswith(expected)

    def test_element_types_checked_after_last_line(self):
        # a later line's JSON or duplicate-word error is found while reading,
        # before the element types of earlier lines are checked
        mistyped = b'{"word":"x","phonemes":[1],"syllable_breaks":[0]}\n'
        unhashable = (
            b'{"word":"x","phonemes":[[1]],"syllable_breaks":[0]}\n',
            b'{"word":"x","phonemes":["K",{},"L"],"syllable_breaks":[0]}\n',
            b'{"word":"x","phonemes":["K"],"syllable_breaks":[[0]]}\n',
        )
        for first in (mistyped, *unhashable):
            for later in (b"not json\n", b'{"word":"x","phonemes":["K"],"syllable_breaks":[0]}\n'):
                with pytest.raises(ParseError, match="^line 2: "):
                    load_lexicon(io.BytesIO(first + later))
            with pytest.raises(ParseError, match="^line 1: malformed lexicon record: phonemes"):
                load_lexicon(io.BytesIO(first + b'{"word":"y","phonemes":["K"],"syllable_breaks":[0]}\n'))
        # on one line too: a mistyped field or a repeated word is reported
        # ahead of a mistyped phoneme or break
        cases = {
            b'{"word":1,"phonemes":[1],"syllable_breaks":[0]}\n': "word must be str",
            b'{"word":"x","phonemes":["K"],"syllable_breaks":[0.5],"stress_syllable":true}\n': (
                "stress_syllable must be int"
            ),
            mistyped.replace(b"[1]", b'["K"]') + mistyped: "^line 2: duplicate word 'x'",
        }
        for data, message in cases.items():
            with pytest.raises(ParseError, match=message):
                load_lexicon(io.BytesIO(data))


# a fixed alphabet: JSON's escapes (quote, backslash, control characters),
# DEL, U+2028 and U+2029, non-ASCII and astral characters, and plain ASCII
_TEXT = st.text(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029é漢😀 /aK0'), min_size=1, max_size=6
)
# a set of inner syllable breaks, by phoneme count
_INNER_BREAKS = [st.just(())] + [st.sets(st.integers(1, n - 1), max_size=3) for n in range(2, 6)]
# a stress syllable or none, by syllable count
_STRESS = [st.none() | st.integers(0, n - 1) for n in range(1, 5)]


@st.composite
def word_entries(draw):
    words = draw(st.lists(_TEXT, max_size=6, unique=True))
    entries = []
    for name in words:
        phonemes = draw(st.lists(_TEXT, min_size=1, max_size=5))
        breaks = [0, *sorted(draw(_INNER_BREAKS[len(phonemes) - 1]))]
        stress = draw(_STRESS[len(breaks) - 1])
        entries.append(WordEntry(name, tuple(phonemes), tuple(breaks), stress))
    return entries


@given(entries=word_entries())
@settings(max_examples=200, deadline=None)
def test_save_lexicon_writes_json_dumps_text(entries):
    # non-ASCII words and phonemes, quotes, backslashes, control characters,
    # U+2028 and unmarked stress, as json.dumps writes them
    expected = "".join(json.dumps(e.to_dict(), ensure_ascii=False) + "\n" for e in entries)
    assert lexicon_bytes(entries) == expected.encode("utf-8")
    assert list(load_lexicon(io.BytesIO(lexicon_bytes(entries)))) == entries


def lexicon_bytes(words) -> bytes:
    sink = io.BytesIO()
    save_lexicon(words, sink)
    return sink.getvalue()


_PHONEMES = st.lists(st.sampled_from(["AA", "K", "S"]), min_size=1, max_size=5)
_FAULTS = st.sampled_from(
    ["none", "none", "phonemes", "breaks", "first", "order", "last", "stress", "int64"]
)


def _record(draw, word):
    """A valid lexicon record, or one with a single fault: each rule of
    WordEntry is then sometimes the only one a record breaks."""
    phonemes = draw(_PHONEMES)
    breaks = [0, *sorted(draw(_INNER_BREAKS[len(phonemes) - 1]))]
    stress = draw(_STRESS[len(breaks) - 1])
    fault = draw(_FAULTS)
    if fault == "phonemes":
        phonemes = []
    elif fault == "breaks":
        breaks = []
    elif fault == "first":
        breaks[0] = draw(st.sampled_from([-1, -(2**63)]))
    elif fault == "order":
        k = draw(st.integers(0, len(breaks) - 1))
        breaks.insert(k, breaks[k])
    elif fault == "last":
        breaks.append(len(phonemes) + draw(st.integers(0, 2)))
    elif fault == "stress":
        stress = draw(st.sampled_from([-1, len(breaks)]))
    elif fault == "int64":  # beyond int64: a break, a first break or the stress
        place = draw(st.sampled_from(["break", "first", "stress"]))
        if place == "break":
            breaks.append(2**63)
        elif place == "first":
            breaks[0] = -(2**63) - 1
        else:
            stress = draw(st.sampled_from([2**70, -(2**64)]))
    return word, phonemes, breaks, stress


@st.composite
def lexicon_records(draw):
    """One to six records named w0, w1, ..., one of them perhaps empty."""
    n = draw(st.integers(1, 6))
    empty_at = draw(st.integers(-1, n - 1))
    return [_record(draw, "" if i == empty_at else f"w{i}") for i in range(n)]


class TestColumnarLexicon:
    """``load_lexicon`` fills ``WordColumns`` directly; columns computed in
    plain Python from the entries and ``oracles.answer_question`` are the
    oracles."""

    @staticmethod
    def plain_columns(words) -> dict:
        """Each column of ``words``, computed one entry at a time."""
        symbols = list(dict.fromkeys(p for w in words for p in w.phonemes))
        starts, start = [], 0
        for w in words:
            starts.append(start)
            start += len(w.phonemes)
        return {
            "num_phonemes": [len(w.phonemes) for w in words],
            "num_syllables": [len(w.syllable_breaks) for w in words],
            "stress": [-1 if w.stress_syllable is None else w.stress_syllable for w in words],
            "breaks": [b for w in words for b in w.syllable_breaks],
            "ids": [symbols.index(p) for w in words for p in w.phonemes],
            "starts": starts,
            "first": [symbols.index(w.phonemes[0]) for w in words],
            "last": [symbols.index(w.phonemes[-1]) for w in words],
            "symbols": tuple(symbols),
            "words": [w.word for w in words],
            "row_of": {w.word: i for i, w in enumerate(words)},
        }

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_equals_entries(self, seed, classes):
        rng = np.random.default_rng(seed)
        words = [random_word(rng, f"w{i}", classes) for i in range(int(rng.integers(0, 30)))]
        loaded = load_lexicon(io.BytesIO(lexicon_bytes(words)))
        assert len(loaded) == len(words)
        for i, w in enumerate(words):
            assert loaded[i] == w
        assert loaded[:] == words
        assert WordColumns.of(loaded) is loaded
        expected = self.plain_columns(words)
        for columns in (loaded, WordColumns.of(words)):
            for name, values in expected.items():
                column = getattr(columns, name)
                if isinstance(column, np.ndarray):
                    assert column.tolist() == values, name
                else:
                    assert column == values, name
        rows = rng.permutation(len(words))[: int(rng.integers(len(words) + 1))]
        taken = loaded.take(rows)
        assert list(taken) == [words[r] for r in rows]
        for q in every_kind(classes, 2**64):
            expected = np.array([oracles.answer_question(q, w, classes) for w in words], dtype=bool)
            np.testing.assert_array_equal(loaded.answer(q, classes, rows), expected[rows])
            np.testing.assert_array_equal(taken.answer(q, classes), expected[rows])

    @given(records=lexicon_records())
    @settings(max_examples=300, deadline=None)
    def test_rules_reported_like_word_entry(self, records):
        # the first record WordEntry rejects is reported, with its message
        text = "".join(
            json.dumps({"word": w, "phonemes": p, "syllable_breaks": b, "stress_syllable": s}) + "\n"
            for w, p, b, s in records
        )
        entries, expected = [], None
        for lineno, (w, p, b, s) in enumerate(records, 1):
            try:
                entries.append(WordEntry(w, tuple(p), tuple(b), s))
            except ValidationError as exc:
                expected = f"line {lineno}: malformed lexicon record: {exc}"
                break
        if expected is None:
            assert list(load_lexicon(io.BytesIO(text.encode()))) == entries
        else:
            with pytest.raises(ParseError) as info:
                load_lexicon(io.BytesIO(text.encode()))
            assert str(info.value) == expected

    def test_held_memory_per_phoneme(self):
        # 2,000 words of 40 phonemes over 39 symbols; a list of WordEntry
        # holds about 45 bytes per phoneme
        rng = np.random.default_rng(0)
        symbols = sorted(set().union(*default_classes().classes.values()))
        words = [
            WordEntry(
                f"word{i:05d}",
                tuple(symbols[j] for j in rng.integers(len(symbols), size=40)),
                tuple(range(0, 40, 3)),
                1,
            )
            for i in range(2000)
        ]
        source = io.BytesIO(lexicon_bytes(words))
        tracemalloc.start()
        try:
            lexicon = load_lexicon(source)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lexicon[1999] == words[1999]
        assert held < 16 * 40 * len(words)

    def test_rows_and_unknown_word(self):
        lexicon = load_lexicon(io.BytesIO(lexicon_bytes([make_word(["K"], name="a"),
                                                         make_word(["S"], name="b")])))
        np.testing.assert_array_equal(lexicon.rows(["b", "a", "b"]), [1, 0, 1])
        with pytest.raises(ValidationError, match="word 'c' is not in the lexicon"):
            lexicon.rows(["a", "c"])

    def test_duplicate_in_entry_list(self):
        words = [make_word(["K"], name="a"), make_word(["S"], name="a")]
        with pytest.raises(ValidationError, match="duplicate word 'a' in lexicon"):
            WordColumns.of(words).rows(["a"])


class TestQuestionIO:
    def test_round_trip(self, tmp_path, classes):
        questions = default_questions(classes)
        path = tmp_path / "qs.jsonl"
        save_questions(questions, path)
        assert load_questions(path, classes) == questions

    def test_duplicate_id_rejected(self, classes):
        data = b'{"id":1,"kind":"EndsClosedSyllable"}\n' * 2
        with pytest.raises(ParseError):
            load_questions(io.BytesIO(data), classes)

    def test_unknown_kind_rejected(self, classes):
        with pytest.raises(ParseError):
            load_questions(io.BytesIO(b'{"id":1,"kind":"RhymesWith"}\n'), classes)

    @pytest.mark.parametrize(
        "record, message",
        [
            (b'{"id":1}', "missing field 'kind'"),
            (b'{"kind":"EndsClosedSyllable"}', "missing field 'id'"),
            (b'{"kind":"Nope"}', "missing field 'id'"),
            (b'{"id":true,"kind":"Nope"}', "unknown question kind 'Nope'"),
            (b'{"id":true,"kind":"EndsClosedSyllable"}', "id must be int, got bool"),
        ],
    )
    def test_fault_named(self, classes, record, message):
        with pytest.raises(ParseError, match=f"^line 1: malformed question record: {message}$"):
            load_questions(io.BytesIO(record + b"\n"), classes)

    def test_record_is_json_dumps_of_fields(self, classes):
        for q in default_questions(classes):
            fields = {"id": q.id, "kind": q.kind.value, "int_param": q.int_param, "class_param": q.class_param}
            for options in ({}, {"indent": 1, "ensure_ascii": False}):
                assert json.dumps(q.to_dict(), **options) == json.dumps(fields, **options)

    def test_index_in_id_order(self, classes):
        questions = default_questions(classes)[::-1]
        assert list(question_index(questions)) == sorted(q.id for q in questions)
        with pytest.raises(ValidationError, match="duplicate question id 0"):
            question_index(questions + questions[-1:])

    @pytest.mark.parametrize(
        "record",
        [
            b'{"id":true,"kind":"EndsClosedSyllable"}',
            b'{"id":1.0,"kind":"EndsClosedSyllable"}',
            b'{"id":"1","kind":"EndsClosedSyllable"}',
            b'{"id":1,"kind":"PhonemeCountGt","int_param":2.5}',
            b'{"id":1,"kind":"PhonemeCountGt","int_param":true}',
            b'{"id":1,"kind":"ContainsClass","class_param":5}',
            b'{"id":-1,"kind":"EndsClosedSyllable"}',  # well typed, but breaking a Question rule
        ],
    )
    def test_mistyped_field_line_numbered(self, classes, record):
        data = b'{"id":0,"kind":"EndsClosedSyllable"}\n' + record + b"\n"
        with pytest.raises(ParseError, match="line 2"):
            load_questions(io.BytesIO(data), classes)

    def test_unknown_class_rejected(self, classes):
        data = b'{"id":1,"kind":"ContainsClass","class_param":"Sibilant"}\n'
        with pytest.raises(ConfigError):
            load_questions(io.BytesIO(data), classes)

    def test_unknown_class_names_line(self, classes):
        data = (
            b'{"id":0,"kind":"EndsClosedSyllable"}\n'
            b'{"id":1,"kind":"ContainsClass","class_param":"Sibilant"}\n'
        )
        with pytest.raises(ConfigError, match="line 2: .*'Sibilant'"):
            load_questions(io.BytesIO(data), classes)


class TestClassIO:
    def test_round_trip(self, tmp_path, classes):
        path = tmp_path / "classes.json"
        save_classes(classes, path)
        assert load_classes(path).classes == classes.classes

    def test_not_an_object(self):
        with pytest.raises(ParseError):
            load_classes(io.BytesIO(b"[1, 2]"))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_classes(io.BytesIO(b"{not json"))

    @pytest.mark.parametrize(
        "data",
        [b'{"Vowel": ["AA", 1, true]}', b'{"Vowel": ["AA", null]}', b'{"Vowel": "AA"}'],
    )
    def test_members_must_be_strings(self, data):
        with pytest.raises(ParseError, match="'Vowel'"):
            load_classes(io.BytesIO(data))

    @pytest.mark.parametrize(
        "table",
        [{"Vowel": ["AA", 3]}, {"Vowel": "AEIOU"}, {"Vowel": ["AA"], 5: ["M"]}],
        ids=["int-member", "string", "int-name"],
    )
    def test_table_refuses_what_load_classes_refuses(self, tmp_path, table):
        with pytest.raises(ValidationError, match="must be a collection of phoneme strings"):
            PhonemeClassTable(table)
        path = tmp_path / "classes.json"
        save_classes(PhonemeClassTable({"Vowel": ["AA"], "Nasal": ["M", "N"]}), path)
        assert load_classes(path).classes == {"Vowel": {"AA"}, "Nasal": {"M", "N"}}


class TestDefaults:
    def test_default_questions_have_contiguous_ids(self, classes):
        questions = default_questions(classes)
        assert [q.id for q in questions] == list(range(len(questions)))
        assert len(questions) == 20

    def test_default_questions_cover_every_kind(self, classes):
        kinds = {q.kind for q in default_questions(classes)}
        assert kinds == set(QuestionKind)

    def test_describe_each_kind(self, classes):
        first: dict = {}
        for q in default_questions(classes):
            first.setdefault(q.kind, describe_question(q))
        assert first == {
            QuestionKind.PHONEME_COUNT_GT: "phoneme count > 2",
            QuestionKind.SYLLABLE_COUNT_GT: "syllable count > 1",
            QuestionKind.ENDS_CLOSED_SYLLABLE: "ends with a closed syllable",
            QuestionKind.STARTS_WITH_CLASS: "first phoneme in Vowel",
            QuestionKind.ENDS_WITH_CLASS: "last phoneme in Nasal",
            QuestionKind.CONTAINS_CLASS: "contains a phoneme in Nasal",
            QuestionKind.STRESS_ON_SYLLABLE: "primary stress on syllable 0",
        }

    def test_describe_is_total(self, classes):
        for q in default_questions(classes):
            text = describe_question(q)
            assert text and isinstance(text, str)
