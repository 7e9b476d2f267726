"""Words, phonetic questions, and the class table the questions consult.

A word is represented by its phoneme string plus syllable structure; questions
are boolean predicates over that structure (counts, class membership, stress
placement). ``WordColumns`` holds a word list as numpy columns and answers a
question for all of its words, or a subset, at once; ``answer_question`` is
its one-word call. ``load_lexicon`` reads a lexicon file into ``WordColumns``.
All types here except ``WordColumns`` are immutable after construction, and
question evaluation is stateless. ``WordColumns`` is given all its columns
when built and only computes values derived from them on first use, so
concurrent use at worst computes one twice: everything in this module is safe
to share across threads.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from ._io import _exact_fields, _field, json_lines, read_json, write_bytes, write_lines
from .errors import ConfigError, ParseError, ValidationError
from .gaussian import _first_repeat

__all__ = [
    "QuestionKind",
    "WordEntry",
    "Question",
    "PhonemeClassTable",
    "answer_question",
    "WordColumns",
    "describe_question",
    "load_lexicon",
    "save_lexicon",
    "load_questions",
    "save_questions",
    "load_classes",
    "save_classes",
    "default_classes",
    "default_questions",
]


class QuestionKind(str, Enum):
    """A question's predicate. A new kind needs a row in ``_KINDS`` and a
    branch in ``WordColumns.answer``."""

    PHONEME_COUNT_GT = "PhonemeCountGt"
    SYLLABLE_COUNT_GT = "SyllableCountGt"
    ENDS_CLOSED_SYLLABLE = "EndsClosedSyllable"
    STARTS_WITH_CLASS = "StartsWithClass"
    ENDS_WITH_CLASS = "EndsWithClass"
    CONTAINS_CLASS = "ContainsClass"
    STRESS_ON_SYLLABLE = "StressOnSyllable"


# kind -> (the parameter field it reads, if any; its description)
_KINDS: dict[QuestionKind, tuple[str | None, str]] = {
    QuestionKind.PHONEME_COUNT_GT: ("int_param", "phoneme count > {}"),
    QuestionKind.SYLLABLE_COUNT_GT: ("int_param", "syllable count > {}"),
    QuestionKind.ENDS_CLOSED_SYLLABLE: (None, "ends with a closed syllable"),
    QuestionKind.STARTS_WITH_CLASS: ("class_param", "first phoneme in {}"),
    QuestionKind.ENDS_WITH_CLASS: ("class_param", "last phoneme in {}"),
    QuestionKind.CONTAINS_CLASS: ("class_param", "contains a phoneme in {}"),
    QuestionKind.STRESS_ON_SYLLABLE: ("int_param", "primary stress on syllable {}"),
}


@dataclass(frozen=True)
class WordEntry:
    """A word type: identifier, phoneme string, and syllable structure.

    ``syllable_breaks`` lists the phoneme indices where syllables start; the
    first break is always 0, so a word has ``len(syllable_breaks)`` syllables.
    ``stress_syllable`` is the index of the primary-stress syllable, or None
    when stress is unmarked.
    """

    word: str
    phonemes: tuple[str, ...]
    syllable_breaks: tuple[int, ...]
    stress_syllable: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "phonemes", tuple(self.phonemes))
        object.__setattr__(self, "syllable_breaks", tuple(self.syllable_breaks))
        # exact types (a bool is not an int): save_lexicon writes the values
        # as they are, and load_lexicon accepts only these types
        stress = self.stress_syllable
        if not (
            type(self.word) is str
            and set(map(type, self.phonemes)) <= {str}
            and set(map(type, self.syllable_breaks)) <= {int}
            and (stress is None or type(stress) is int)
        ):
            raise ValidationError(
                f"word {self.word!r}: word and phonemes must be strings, "
                "syllable breaks and stress integers"
            )
        if not self.word:
            raise ValidationError("word identifier must be non-empty")
        if not self.phonemes:
            raise ValidationError(f"word {self.word!r}: phoneme list is empty")
        breaks = self.syllable_breaks
        if not breaks or breaks[0] != 0:
            raise ValidationError(
                f"word {self.word!r}: syllable_breaks must start at 0, got {list(breaks)}"
            )
        if any(b >= c for b, c in zip(breaks, breaks[1:])):
            raise ValidationError(
                f"word {self.word!r}: syllable_breaks must be strictly increasing"
            )
        if breaks[-1] >= len(self.phonemes):
            raise ValidationError(
                f"word {self.word!r}: syllable break {breaks[-1]} is out of range "
                f"for {len(self.phonemes)} phonemes"
            )
        if self.stress_syllable is not None and not (
            0 <= self.stress_syllable < len(breaks)
        ):
            raise ValidationError(
                f"word {self.word!r}: stress syllable {self.stress_syllable} "
                f"out of range for {len(breaks)} syllables"
            )

    @property
    def num_syllables(self) -> int:
        return len(self.syllable_breaks)

    def to_dict(self) -> dict:
        return {
            "word": self.word,
            "phonemes": list(self.phonemes),
            "syllable_breaks": list(self.syllable_breaks),
            "stress_syllable": self.stress_syllable,
        }


@dataclass(frozen=True)
class PhonemeClassTable:
    """Named phoneme classes, e.g. ``"Vowel" -> {AA, IY, ...}``.

    Class sets must be non-empty and a "Vowel" class must exist because the
    closed-syllable question is defined against it.
    """

    classes: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        frozen: dict[str, frozenset[str]] = {}
        for name, given in self.classes.items():
            # exact types, as load_classes reads them: no string or mapping is a member list
            try:
                members = None if isinstance(given, (str, Mapping)) else frozenset(given)
            except TypeError:  # not iterable, or a member that cannot be hashed
                members = None
            if type(name) is not str or members is None or set(map(type, members)) - {str}:
                raise ValidationError(f"class {name!r} must be a collection of phoneme strings")
            if not members:
                raise ValidationError(f"phoneme class {name!r} is empty")
            frozen[name] = members
        object.__setattr__(self, "classes", frozen)
        if "Vowel" not in frozen:
            raise ValidationError('class table must define a "Vowel" class')

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def members(self, name: str) -> frozenset[str]:
        try:
            return self.classes[name]
        except KeyError:
            raise ConfigError(f"unknown phoneme class {name!r}") from None

    def to_dict(self) -> dict:
        return {name: sorted(members) for name, members in self.classes.items()}


@dataclass(frozen=True)
class Question:
    """One phonetic predicate, identified by a set-unique id.

    Each kind carries the parameter ``_KINDS`` names for it: ``int_param``
    (>= 0) for counts and stress, ``class_param`` naming an entry of the
    class table for classes. Every field has the exact type a question file
    gives it (a bool is not an int); any fault is a ``ValidationError``.
    """

    id: int
    kind: QuestionKind
    int_param: int | None = None
    class_param: str | None = None

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "kind", QuestionKind(self.kind))
        except ValueError:
            raise ValidationError(f"unknown question kind {self.kind!r}") from None
        _exact_fields(self)
        if self.id < 0:
            raise ValidationError(f"question id must be non-negative, got {self.id}")
        param = _KINDS[self.kind][0]
        if param == "int_param" and (self.int_param is None or self.int_param < 0):
            raise ValidationError(
                f"question {self.id}: kind {self.kind.value} requires int_param >= 0"
            )
        if param == "class_param" and not self.class_param:
            raise ValidationError(
                f"question {self.id}: kind {self.kind.value} requires class_param"
            )

    def validate_against(self, classes: PhonemeClassTable) -> None:
        if _KINDS[self.kind][0] == "class_param" and self.class_param not in classes:
            raise ConfigError(
                f"question {self.id}: unknown phoneme class {self.class_param!r}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


# a count or stress parameter above every int64 answers like int64's maximum
_INT64_MAX = int(np.iinfo(np.int64).max)


def _symbol_coder() -> defaultdict[str, int]:
    """A phoneme -> id map that gives a new symbol the next id."""
    codes: defaultdict[str, int] = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` items starts."""
    return np.cumsum(counts) - counts


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:starts[i] + lengths[i]`` of every i, in order."""
    return np.arange(int(lengths.sum())) + np.repeat(starts - _offsets(lengths), lengths)


def _check_unique(words: Sequence[str]) -> None:
    """Refuse a word list that holds a word twice, naming the first repeat."""
    repeat = _first_repeat(words)
    if repeat >= 0:
        raise ValidationError(f"duplicate word {words[repeat]!r} in lexicon")


class WordColumns(Sequence[WordEntry]):
    """A word list as columns, so that a question is answered for many words
    with one numpy expression.

    Per word: phoneme and syllable counts, the stress syllable (-1 when
    unmarked), the start offset of its phonemes in the flat ``ids`` and its
    first and last phoneme, and its syllable breaks in the flat ``breaks``.
    Phonemes are int32 ids into ``symbols``, numbered in order of first
    appearance. Every word has at least one phoneme, so ``starts`` strictly
    increases. ``row_of`` maps each word to its row.

    Every builder fills all columns at once: ``load_lexicon`` as it parses a
    file, ``WordColumns.of`` from a list of entries, ``take`` by gathering
    rows. Only values derived from them (``row_of``, ``starts``, ``first``,
    ...) are computed on first use, and ``row_of`` reports a duplicate word
    then. Indexing builds a ``WordEntry`` only for the word asked for.
    """

    def __init__(
        self,
        words: list[str],
        symbols: tuple[str, ...],
        ids: np.ndarray,
        num_phonemes: np.ndarray,
        breaks: np.ndarray,
        num_syllables: np.ndarray,
        stress: np.ndarray,
    ) -> None:
        self.words = words
        self.symbols = symbols
        self.ids = ids
        self.num_phonemes = num_phonemes
        self.breaks = breaks
        self.num_syllables = num_syllables
        self.stress = stress

    @classmethod
    def of(cls, entries: Sequence[WordEntry]) -> "WordColumns":
        """``entries`` itself if it is ``WordColumns``, else its words as columns."""
        if isinstance(entries, WordColumns):
            return entries
        codes = _symbol_coder()
        return cls(
            words=[e.word for e in entries],
            ids=np.array([codes[p] for e in entries for p in e.phonemes], dtype=np.int32),
            symbols=tuple(codes),  # after ids, which number the symbols
            num_phonemes=np.array([len(e.phonemes) for e in entries], dtype=np.int64),
            breaks=np.array([b for e in entries for b in e.syllable_breaks], dtype=np.int64),
            num_syllables=np.array([len(e.syllable_breaks) for e in entries], dtype=np.int64),
            stress=np.array(
                [-1 if e.stress_syllable is None else e.stress_syllable for e in entries],
                dtype=np.int64,
            ),
        )

    def __len__(self) -> int:
        return len(self.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        word = self.words[index]
        start, stop = self.starts[index], self.starts[index] + self.num_phonemes[index]
        first = self.break_starts[index]
        stress = int(self.stress[index])
        return WordEntry(
            word,
            tuple(map(self.symbols.__getitem__, self.ids[start:stop].tolist())),
            tuple(self.breaks[first : first + self.num_syllables[index]].tolist()),
            None if stress < 0 else stress,
        )

    @cached_property
    def row_of(self) -> dict[str, int]:
        row_of = dict(zip(self.words, range(len(self))))
        if len(row_of) != len(self):
            _check_unique(self.words)
        return row_of

    @cached_property
    def starts(self) -> np.ndarray:
        return _offsets(self.num_phonemes)

    @cached_property
    def break_starts(self) -> np.ndarray:
        return _offsets(self.num_syllables)

    @cached_property
    def first(self) -> np.ndarray:
        return self.ids[self.starts]

    @cached_property
    def last(self) -> np.ndarray:
        return self.ids[self.starts + self.num_phonemes - 1]

    def rows(self, words: Sequence[str]) -> np.ndarray:
        """The row of each of ``words``; a word not in the list is an error."""
        try:
            return np.fromiter(map(self.row_of.__getitem__, words), np.intp, len(words))
        except KeyError as exc:
            raise ValidationError(f"word {exc.args[0]!r} is not in the lexicon") from None

    def take(self, rows: np.ndarray) -> "WordColumns":
        """The words at ``rows``, in that order, their columns gathered."""
        num_phonemes = self.num_phonemes[rows]
        num_syllables = self.num_syllables[rows]
        return WordColumns(
            words=[self.words[r] for r in rows.tolist()],
            symbols=self.symbols,
            ids=self.ids[_spans(self.starts[rows], num_phonemes)],
            num_phonemes=num_phonemes,
            breaks=self.breaks[_spans(self.break_starts[rows], num_syllables)],
            num_syllables=num_syllables,
            stress=self.stress[rows],
        )

    def _member(self, classes: PhonemeClassTable, name: str) -> np.ndarray:
        """Whether each symbol id is in the named class."""
        members = classes.members(name)
        return np.fromiter((s in members for s in self.symbols), bool, len(self.symbols))

    def answer(
        self, q: Question, classes: PhonemeClassTable, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """The answer to ``q`` of every word, or of the word indices ``rows``,
        as a boolean array; pure and deterministic.

        A word "ends with a closed syllable" iff its final phoneme is not in
        the "Vowel" class. A stress question answers False for words with
        unmarked stress. Unknown class names raise :class:`ConfigError`.
        """

        def pick(column: np.ndarray) -> np.ndarray:
            return column if rows is None else column[rows]

        kind = q.kind
        param = None if q.int_param is None else min(q.int_param, _INT64_MAX)
        if kind is QuestionKind.PHONEME_COUNT_GT:
            return pick(self.num_phonemes) > param
        if kind is QuestionKind.SYLLABLE_COUNT_GT:
            return pick(self.num_syllables) > param
        if kind is QuestionKind.ENDS_CLOSED_SYLLABLE:
            return ~self._member(classes, "Vowel")[pick(self.last)]
        if kind is QuestionKind.STARTS_WITH_CLASS:
            return self._member(classes, q.class_param)[pick(self.first)]
        if kind is QuestionKind.ENDS_WITH_CLASS:
            return self._member(classes, q.class_param)[pick(self.last)]
        if kind is QuestionKind.CONTAINS_CLASS:
            hits = self._member(classes, q.class_param)[self.ids]
            return pick(np.logical_or.reduceat(hits, self.starts))
        return pick(self.stress) == param  # StressOnSyllable


def answer_question(q: Question, w: WordEntry, classes: PhonemeClassTable) -> bool:
    """One question for one word, as a ``bool``: ``WordColumns.answer`` on a
    one-word list."""
    return bool(WordColumns.of((w,)).answer(q, classes)[0])


def describe_question(q: Question) -> str:
    """Short human-readable rendering, used by the tree inspector."""
    param, text = _KINDS[q.kind]
    return text.format(getattr(q, param)) if param else text


# ---------------------------------------------------------------------------
# file I/O
#
# Lexicon and question files are UTF-8 JSON lines; the class table is one JSON
# object. Loaders accept a path or a binary file object.


def _question_from_dict(obj: Mapping) -> Question:
    """A question record (the ``Question.to_dict`` form) as a ``Question``;
    shared by the question-file and model-file loaders."""
    for key in ("kind", "id"):
        if key not in obj:
            raise ParseError(f"missing field {key!r}")
    return Question(obj["id"], obj["kind"], obj.get("int_param"), obj.get("class_param"))


def _rule_breakers(
    row_of: Mapping[str, int],
    num_phonemes: np.ndarray,
    breaks: np.ndarray,
    num_syllables: np.ndarray,
    stress: np.ndarray,
    marked: np.ndarray,
) -> np.ndarray:
    """The rows, ascending, of records that break a rule of
    ``WordEntry.__post_init__``, checked over all records at once: a
    non-empty word and phoneme list, breaks from 0 strictly increasing and
    below the phoneme count, and a marked stress syllable in range. The rules
    are written twice so that ``load_lexicon`` builds no ``WordEntry`` per
    record, which would cost about 4.5 us a word; only the rows found here
    go through ``WordEntry``, for its message."""
    bad = (num_phonemes == 0) | (num_syllables == 0)
    starts = _offsets(num_syllables)
    padded = np.append(breaks, 0)  # a word without breaks is bad already
    bad |= padded[starts] != 0
    bad |= padded[starts + num_syllables - 1] >= num_phonemes
    owner = np.repeat(np.arange(len(num_syllables)), num_syllables)
    bad[owner[1:][(breaks[1:] <= breaks[:-1]) & (owner[1:] == owner[:-1])]] = True
    bad |= marked & ((stress < 0) | (stress >= num_syllables))
    if "" in row_of:
        bad[row_of[""]] = True
    return np.flatnonzero(bad)


def _check_elements(
    symbols: Sequence[object],
    ids: Sequence[int],
    num_phonemes: Sequence[int],
    breaks: list,
    num_syllables: Sequence[int],
    linenos: list[int],
) -> None:
    """Reject the first record with a phoneme that is not a string or a
    syllable break that is not an integer: one type test over the symbol
    table and the flat breaks, and a search for the record only on a fault."""
    if set(map(type, symbols)) <= {str} and set(map(type, breaks)) <= {int}:
        return
    rows = np.arange(len(num_phonemes))
    bad_symbol = np.fromiter((type(s) is not str for s in symbols), bool, len(symbols))
    bad_break = np.fromiter((type(b) is not int for b in breaks), bool, len(breaks))
    bad_rows = np.union1d(
        np.repeat(rows, num_phonemes)[bad_symbol[np.asarray(ids, dtype=np.intp)]],
        np.repeat(rows, num_syllables)[bad_break],
    )
    if bad_rows.size:
        raise ParseError(
            f"line {linenos[bad_rows[0]]}: malformed lexicon record: "
            "phonemes must be strings and syllable_breaks integers"
        )


def load_lexicon(source: str | Path | IO[bytes]) -> WordColumns:
    """Read a JSON-lines lexicon into ``WordColumns``, coding each phoneme as
    it is read. Duplicate word identifiers are an error.

    Field types are checked record by record. The phoneme and syllable-break
    element types, then the ``WordEntry`` rules, are checked once over all
    records after the last line (a later line's JSON or duplicate-word error
    is found first), and the first record breaking one is reported, a rule
    with ``WordEntry``'s message.
    """
    codes = _symbol_coder()
    code = codes.__getitem__
    words: list[str] = []
    row_of: dict[str, int] = {}
    linenos: list[int] = []
    ids: list[int] = []
    num_phonemes: list[int] = []
    breaks: list[int] = []
    num_syllables: list[int] = []
    stress: list[int | None] = []
    for lineno, obj in json_lines(source):
        phonemes = obj.get("phonemes")
        record_breaks = obj.get("syllable_breaks")
        word = obj.get("word")
        record_stress = obj.get("stress_syllable")
        if not (
            type(phonemes) is list
            and type(record_breaks) is list
            and type(word) is str
            and (record_stress is None or type(record_stress) is int)
        ):
            try:  # the first fault, as _field words it
                _field(obj, "phonemes", list)
                _field(obj, "syllable_breaks", list)
                _field(obj, "word", str)
                _field(obj, "stress_syllable", int, optional=True)
            except ParseError as exc:
                raise ParseError(f"line {lineno}: malformed lexicon record: {exc}") from None
        stress.append(record_stress)
        if word in row_of:
            raise ParseError(f"line {lineno}: duplicate word {word!r}")
        row_of[word] = len(words)
        words.append(word)
        linenos.append(lineno)
        start = len(ids)
        try:
            ids += map(code, phonemes)
        except TypeError:  # a JSON list or object: coded as null for the element check
            ids[start:] = [code(p if type(p) is str else None) for p in phonemes]
        num_phonemes.append(len(phonemes))
        breaks += record_breaks
        num_syllables.append(len(record_breaks))

    counts = np.array(num_phonemes, dtype=np.int64)
    syllables = np.array(num_syllables, dtype=np.int64)
    symbols = tuple(codes)
    _check_elements(symbols, ids, counts, breaks, syllables, linenos)
    marked = np.fromiter((s is not None for s in stress), bool, len(stress))
    try:
        flat_breaks = np.array(breaks, dtype=np.int64)
        stress_column = np.array([-1 if s is None else s for s in stress], dtype=np.int64)
        suspects = _rule_breakers(
            row_of, counts, flat_breaks, syllables, stress_column, marked
        )
    except OverflowError:  # a break or stress beyond int64 breaks a rule
        suspects = range(len(words))
    phoneme_starts, break_starts = _offsets(counts), _offsets(syllables)
    for row in suspects:
        start, first = phoneme_starts[row], break_starts[row]
        try:
            WordEntry(
                words[row],
                tuple(symbols[i] for i in ids[start : start + num_phonemes[row]]),
                tuple(breaks[first : first + num_syllables[row]]),
                stress[row],
            )
        except ValidationError as exc:
            raise ParseError(
                f"line {linenos[row]}: malformed lexicon record: {exc}"
            ) from None
    return WordColumns(
        words,
        symbols,
        np.fromiter(ids, np.int32, len(ids)),
        counts,
        flat_breaks,
        syllables,
        stress_column,
    )


def save_lexicon(entries: Iterable[WordEntry], sink: str | Path | IO[bytes]) -> None:
    """One JSON line per entry, as ``json.dumps(e.to_dict(), ensure_ascii=False)``
    writes it; a repeated word, which ``load_lexicon`` refuses, is a
    ``ValidationError`` before anything is written."""
    entries = list(entries)
    _check_unique([e.word for e in entries])
    lines = [
        f'{{"word": {encode_basestring(e.word)}, '
        f'"phonemes": [{", ".join(map(encode_basestring, e.phonemes))}], '
        f'"syllable_breaks": [{", ".join(map(str, e.syllable_breaks))}], '
        f'"stress_syllable": {"null" if e.stress_syllable is None else e.stress_syllable}}}'
        for e in entries
    ]
    write_lines(sink, lines)


def load_questions(
    source: str | Path | IO[bytes], classes: PhonemeClassTable
) -> list[Question]:
    """Read a JSON-lines question set and validate it against the class table."""
    questions: list[Question] = []
    seen: set[int] = set()
    for lineno, obj in json_lines(source):
        try:
            q = _question_from_dict(obj)
        except (ParseError, ValidationError) as exc:
            raise ParseError(f"line {lineno}: malformed question record: {exc}") from None
        if q.id in seen:
            raise ParseError(f"line {lineno}: duplicate question id {q.id}")
        try:
            q.validate_against(classes)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        seen.add(q.id)
        questions.append(q)
    return questions


def save_questions(questions: Iterable[Question], sink: str | Path | IO[bytes]) -> None:
    """One JSON line per question; a repeated id, which ``load_questions``
    refuses, is a ``ValidationError`` before anything is written."""
    questions = list(questions)
    question_index(questions)
    write_lines(sink, [json.dumps(q.to_dict()) for q in questions])


def _classes_from_dict(obj: object) -> PhonemeClassTable:
    """A class table (the ``PhonemeClassTable.to_dict`` form); shared by the
    class-file and model-file loaders. Any fault is a ``ParseError``."""
    if not isinstance(obj, dict):
        raise ParseError("class table must be a JSON object of name -> [phonemes]")
    try:
        return PhonemeClassTable(obj)
    except ValidationError as exc:
        raise ParseError(str(exc)) from None


def load_classes(source: str | Path | IO[bytes]) -> PhonemeClassTable:
    return _classes_from_dict(read_json(source, "class table"))


def save_classes(classes: PhonemeClassTable, sink: str | Path | IO[bytes]) -> None:
    write_bytes(sink, ((json.dumps(classes.to_dict(), indent=2) + "\n").encode("utf-8"),))


# ---------------------------------------------------------------------------
# shipped defaults
#
# A representative general-purpose set over ARPABET-style symbols. Both the
# class table and the question set are data: tools accept substitutes from
# files in the formats above.

_DEFAULT_CLASSES = {
    "Vowel": [
        "AA", "AE", "AH", "AO", "AW", "AY", "EH", "ER", "EY",
        "IH", "IY", "OW", "OY", "UH", "UW",
    ],
    "Nasal": ["M", "N", "NG"],
    "Plosive": ["B", "D", "G", "K", "P", "T"],
    "Fricative": ["DH", "F", "HH", "S", "SH", "TH", "V", "Z", "ZH"],
    "Affricate": ["CH", "JH"],
    "Approximant": ["L", "R", "W", "Y"],
}


def default_classes() -> PhonemeClassTable:
    return PhonemeClassTable(_DEFAULT_CLASSES)


def default_questions(classes: PhonemeClassTable | None = None) -> list[Question]:
    """The shipped question set: counts 2..8, syllable counts, stress, and
    class membership at the first, last, and any position."""
    if classes is None:
        classes = default_classes()
    specs: list[tuple[QuestionKind, int | None, str | None]] = []
    for threshold in range(2, 9):
        specs.append((QuestionKind.PHONEME_COUNT_GT, threshold, None))
    for threshold in range(1, 4):
        specs.append((QuestionKind.SYLLABLE_COUNT_GT, threshold, None))
    specs.append((QuestionKind.ENDS_CLOSED_SYLLABLE, None, None))
    for cls in ("Vowel", "Nasal", "Plosive"):
        specs.append((QuestionKind.STARTS_WITH_CLASS, None, cls))
    specs.append((QuestionKind.ENDS_WITH_CLASS, None, "Nasal"))
    for cls in ("Nasal", "Fricative"):
        specs.append((QuestionKind.CONTAINS_CLASS, None, cls))
    for syllable in range(3):
        specs.append((QuestionKind.STRESS_ON_SYLLABLE, syllable, None))
    questions = [
        Question(id=i, kind=kind, int_param=ip, class_param=cp)
        for i, (kind, ip, cp) in enumerate(specs)
    ]
    for q in questions:
        q.validate_against(classes)
    return questions


def question_index(questions: Sequence[Question]) -> dict[int, Question]:
    """Index a question list by id, in id order, rejecting duplicates."""
    index: dict[int, Question] = {}
    for q in questions:
        if q.id in index:
            raise ValidationError(f"duplicate question id {q.id}")
        index[q.id] = q
    return dict(sorted(index.items()))
