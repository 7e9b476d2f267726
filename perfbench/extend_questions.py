"""Append the shipped default questions to a question file, ids offset past it.

Usage: python3 perfbench/extend_questions.py QUESTIONS CLASSES

Goes through the program's own loaders and writers, so the extended file is
exactly what a user preparing a richer question set would get. Runs as a
child process in untraced set-up and in-process in the traced run.
"""

from __future__ import annotations

import sys


def extend(questions_path: str, classes_path: str) -> None:
    from prosotag.phonetics import (
        Question,
        default_questions,
        load_classes,
        load_questions,
        save_questions,
    )

    classes = load_classes(classes_path)
    questions = load_questions(questions_path, classes)
    offset = max((q.id for q in questions), default=-1) + 1
    extra = [
        Question(id=offset + q.id, kind=q.kind, int_param=q.int_param, class_param=q.class_param)
        for q in default_questions(classes)
    ]
    save_questions(questions + extra, questions_path)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: extend_questions.py QUESTIONS CLASSES")
    extend(sys.argv[1], sys.argv[2])
