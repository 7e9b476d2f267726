"""Traced run: the workload's commands in-process, with spans at layer calls.

Usage: python3 perfbench/traced.py PLAN.json SPANS.json

PLAN.json holds ``{"setup": [step, ...], "timed": argv}`` as built by
``run.py``. This process times a fresh ``import prosotag.cli``, wraps the
public functions each module calls under the names it binds them to, then
runs every step through ``prosotag.cli.main``. Spans stay in memory and are
written to SPANS.json once, at the end. The program's source is not touched.

Functions called about 10^5 times or more per run get an aggregated span
(calls plus busy time) instead of one record per call, so tracing neither
fills memory nor dominates the measurement.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from extend_questions import extend  # noqa: E402


class Tracer:
    """Span recorder. Self time is a span's duration minus its children's.

    Calls nest strictly on one thread, so the children of a span cover
    disjoint intervals and their summed durations are the covered time.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, list]] = {}  # command -> name -> [calls, busy s]
        self.command = ""
        self._stack: list[list] = [[0.0, None]]  # frames: [child seconds, span id]
        self._ids = 0
        self._totals: dict[str, list] = {}  # the current command's aggregates

    def start_command(self, label: str) -> None:
        """Close the current command's aggregates and start counting for ``label``."""
        if self.command:
            self.counts[self.command] = {
                name: list(total) for name, total in self._totals.items() if total[0]
            }
        for total in self._totals.values():
            total[:] = [0, 0.0]
        self.command = label

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so each call records one span."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._ids += 1
            frame = [0.0, self._ids]
            parent = stack[-1][1]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stack[-1][0] += end - start
            record = {
                "name": name,
                "id": frame[1],
                "parent": parent,
                "command": self.command,
                "start": start,
                "end": end,
                "self_s": end - start - frame[0],
            }
            if attrs is not None:
                record.update(attrs(args, result))
            self.spans.append(record)
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """Wrap ``fn`` so calls only add to a per-command count and busy time."""
        stack = self._stack
        total = self._totals.setdefault(name, [0, 0.0])
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                stack.pop()
                stack[-1][0] += busy
                total[0] += 1
                total[1] += busy

        return wrapper


def _file_bytes(args, _result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> list[tuple]:
    """Replace each wrapped name in the module that calls it.

    Returns ``(module, name, wrapped, original)`` for each, so the caller can
    switch between traced and untraced code in one process.
    """
    import prosotag.cli as cli
    import prosotag.tagger as tagger
    import prosotag.tree as tree

    aggregated = [
        (tree, "answer_question", "phonetics.answer_question"),
        (tagger, "route_word", "tree.route_word"),
        (cli, "route_word", "tree.route_word"),
        (cli, "assign_component", "gmm.assign_component"),
    ]
    spanned = [
        (tagger, "grow_tree", "tree.grow_tree", lambda a, r: {"leaves": r[0].num_leaves}),
        (tagger, "fit_gmm", "gmm.fit_gmm", lambda a, r: {"em_iters": len(r[1]) - 1}),
        (cli, "load_samples", "gaussian.load_samples",
         lambda a, r: {**_file_bytes(a, r), "tokens": len(r)}),
        (cli, "load_lexicon", "phonetics.load_lexicon", None),
        (cli, "fit", "tagger.fit", None),
        (cli, "load_model", "tagger.load_model",
         lambda a, r: {**_file_bytes(a, r), "leaves": r.num_leaves}),
        (cli, "model_to_json", "tagger.model_to_json",
         lambda a, r: {"bytes": len(r.encode("utf-8"))}),
        (cli, "generate", "synth.generate", None),
    ]
    swaps = []
    for module, attr, name in aggregated:
        original = getattr(module, attr)
        swaps.append((module, attr, tracer.aggregate(name, original), original))
    for module, attr, name, attrs in spanned:
        original = getattr(module, attr)
        swaps.append((module, attr, tracer.span(name, original, attrs), original))
    return swaps


def _use(swaps: list[tuple], traced: bool) -> None:
    for module, attr, wrapped, original in swaps:
        setattr(module, attr, wrapped if traced else original)


def main(plan_path: str, out_path: str) -> int:
    """Set-up traced, the timed command untraced, then the timed command traced.

    The untraced and traced timed commands run in the same warm process, so
    their difference is the tracing overhead alone.
    """
    plan = json.loads(Path(plan_path).read_text())
    start = perf_counter()
    import prosotag.cli as cli

    import_s = perf_counter() - start
    tracer = Tracer()
    swaps = install(tracer)
    cli_main = tracer.span("cli.main", cli.main)
    _use(swaps, True)
    tracer.start_command("setup")
    for kind, args in plan["setup"]:
        if kind == "extend":
            extend(*args)
        elif cli_main(args) != 0:
            return 1
    tracer.start_command("")
    _use(swaps, False)
    start = perf_counter()
    if cli.main(plan["untraced"]) != 0:
        return 1
    untraced_s = perf_counter() - start
    _use(swaps, True)
    tracer.start_command("timed")
    if cli_main(plan["timed"]) != 0:
        return 1
    tracer.start_command("")
    doc = {
        "import_s": import_s,
        "untraced_s": untraced_s,
        "spans": tracer.spans,
        "counts": tracer.counts,
    }
    Path(out_path).write_text(json.dumps(doc))
    return 0


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer figures of the timed command (``synth.generate_s``: set-up)."""

    def spans(name: str, command: str = "timed") -> list[dict]:
        return [s for s in doc["spans"] if s["name"] == name and s["command"] == command]

    def total(name: str, field: str = "", command: str = "timed") -> float:
        found = spans(name, command)
        if field:
            return sum(s[field] for s in found)
        return sum(s["end"] - s["start"] for s in found)

    def counted(name: str) -> list:
        return doc["counts"].get("timed", {}).get(name, [0, 0.0])

    leaves = total("tree.grow_tree", "leaves") or total("tagger.load_model", "leaves")
    return {
        "cli.import_s": doc["import_s"],
        "cli.self_s": total("cli.main", "self_s"),
        "gaussian.load_samples_s": total("gaussian.load_samples"),
        "gaussian.tokens": total("gaussian.load_samples", "tokens"),
        "gaussian.bytes_in": total("gaussian.load_samples", "bytes"),
        "phonetics.load_lexicon_s": total("phonetics.load_lexicon"),
        "phonetics.answer_question_calls": counted("phonetics.answer_question")[0],
        "phonetics.answer_question_s": counted("phonetics.answer_question")[1],
        "tree.grow_tree_s": total("tree.grow_tree", "self_s"),
        "tree.leaves": leaves,
        "tree.route_word_calls": counted("tree.route_word")[0],
        "tree.route_word_s": counted("tree.route_word")[1],
        "gmm.fit_gmm_s": total("gmm.fit_gmm"),
        "gmm.fit_gmm_calls": len(spans("gmm.fit_gmm")),
        "gmm.em_iters": total("gmm.fit_gmm", "em_iters"),
        "gmm.assign_component_calls": counted("gmm.assign_component")[0],
        "gmm.assign_component_s": counted("gmm.assign_component")[1],
        "tagger.fit_s": total("tagger.fit", "self_s"),
        "tagger.model_to_json_s": total("tagger.model_to_json"),
        "tagger.load_model_s": total("tagger.load_model"),
        "tagger.model_bytes": total("tagger.model_to_json", "bytes")
        + total("tagger.load_model", "bytes"),
        "synth.generate_s": total("synth.generate", command="setup"),
        "trace.overhead_s": total("cli.main") - doc["untraced_s"],
    }


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: traced.py PLAN.json SPANS.json")
    sys.exit(main(sys.argv[1], sys.argv[2]))
