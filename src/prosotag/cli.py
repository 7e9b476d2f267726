"""Command-line front end: fit, tag, stats, synth, inspect.

Every output file is replaced atomically (see ``_io.write_bytes``), so a
failing command never leaves a partial artifact. All commands are idempotent:
identical inputs produce byte-identical outputs, float text included.

Exit codes: 0 success; 2 usage errors and invalid configurations; 1 runtime
failures (unreadable files, corrupt models, dimension mismatches).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import Iterator, Sequence

import numpy as np

from ._io import token_lines, write_bytes
from .errors import ConfigError, ProsotagError
from .gaussian import Corpus, ProsodySample, load_samples, save_samples
from .gmm import LeafGmm
# route_word and assign_component no longer run here; perfbench/traced.py wraps them by name
from .gmm import assign_component  # noqa: F401
from .phonetics import (
    WordEntry,
    default_classes,
    describe_question,
    load_classes,
    load_lexicon,
    load_questions,
    save_classes,
    save_lexicon,
    save_questions,
)
from .synth import SynthSpec, generate, save_ground_truth
from .tagger import (
    TaggerConfig,
    TaggerModel,
    fit,
    load_model,
    model_to_json,
    tag_inventory,
    tag_tokens,
)
from .tree import InternalNode, _growth_csv, growth_report, write_growth_csv
from .tree import route_word  # noqa: F401

PROG = "prosotag"


def _format_tags(
    model: TaggerModel, lexicon: Sequence[WordEntry], samples: Sequence[ProsodySample]
) -> Iterator[bytearray]:
    """One JSON line per token, as ``json.dumps`` writes it, in token order,
    in the chunks of ``_io.token_lines``. The tokens are tagged here."""
    corpus = Corpus.of(samples)
    leaves, components = tag_tokens(model, lexicon, corpus)
    tags = [f'"{tag}"' for tag in tag_inventory(model)]
    # a leaf's first tag in the inventory, which lists each leaf's components in turn
    offsets = np.cumsum([0] + [model.gmms[letter].m for letter in model.tree.leaf_letters])

    def values(start: int, stop: int) -> Iterator[str]:
        return map(tags.__getitem__, (offsets[leaves[start:stop]] + components[start:stop]).tolist())

    return token_lines(corpus, "tag", values)


def _knobs(cls: type, args: argparse.Namespace):
    """The config dataclass ``cls`` from the parsed flags bound to its fields."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_fit(args: argparse.Namespace) -> int:
    classes = load_classes(args.classes)
    questions = load_questions(args.questions, classes)
    lexicon = load_lexicon(args.lexicon)
    samples = load_samples(args.embeddings)
    model = fit(lexicon, samples, questions, classes, _knobs(TaggerConfig, args))
    write_bytes(args.model, (model_to_json(model).encode("utf-8"),))
    write_growth_csv(model.growth_trace, args.trace_csv or f"{args.model}.trace.csv")
    if args.out:
        write_bytes(args.out, _format_tags(model, lexicon, samples))
    total_ll = growth_report(model.growth_trace)[-1][1]
    print(
        f"fit: {model.num_leaves} leaves, {model.num_tags} tags, "
        f"final total leaf log-likelihood {total_ll:.6f}"
    )
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    lexicon = load_lexicon(args.lexicon)
    samples = load_samples(args.embeddings)
    write_bytes(args.out, _format_tags(model, lexicon, samples))
    print(f"tag: wrote {len(samples)} tags to {args.out}")
    return 0


def _mixture_summary(gmm: LeafGmm) -> str:
    """A leaf mixture as "N samples, m components, weights [...]", for stats and inspect."""
    weights = ", ".join(f"{w:.4f}" for w in gmm.weights)
    return f"{gmm.n_samples} samples, {gmm.m} components, weights [{weights}]"


def cmd_stats(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    csv_bytes = _growth_csv(model.growth_trace)
    sys.stdout.write(csv_bytes.decode("utf-8"))
    print()
    for letter in model.tree.leaf_letters:
        print(f"leaf {letter}: {_mixture_summary(model.gmms[letter])}")
    if args.out:
        write_bytes(args.out, (csv_bytes,))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    spec = _knobs(SynthSpec, args)
    classes = default_classes()
    lexicon, questions, samples, truth = generate(spec, classes)

    save_lexicon(lexicon, args.lexicon)
    save_questions(questions, args.questions)
    save_classes(classes, args.classes)
    save_samples(samples, args.embeddings, binary=args.binary)
    save_ground_truth(truth, args.ground_truth)
    print(
        f"synth: {len(lexicon)} words, {len(samples)} tokens, "
        f"{len(questions)} questions (seed {spec.seed})"
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    cfg = model.config
    print(
        f"model: d={cfg.d}, {model.num_leaves} leaves, {model.num_tags} tags, "
        f"seed={cfg.seed}, floor={cfg.floor}"
    )
    # depth first, yes side before no side, with an explicit stack, so a
    # tree of any depth prints
    pending = [(0, "", 0)]
    while pending:
        pos, label, depth = pending.pop()
        node = model.tree.nodes[pos]
        head = f"{'  ' * depth}{label}[node {pos}]"
        if isinstance(node, InternalNode):
            question = model.question_by_id[node.question_id]
            print(f"{head} Q{question.id}: {describe_question(question)}")
            depth += 1
            pending += ((node.no_child, "no  -> ", depth), (node.yes_child, "yes -> ", depth))
        else:
            letter = model.tree.leaf_letters[node.leaf_index]
            print(f"{head} leaf {letter!r}: {_mixture_summary(model.gmms[letter])}")
    print(f"tag inventory: {' '.join(tag_inventory(model))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Unsupervised two-stage word prosody tagger: "
        "a phonetic-question decision tree, then per-leaf Gaussian mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a tagger on a token corpus")
    p_fit.add_argument("--lexicon", required=True, help="lexicon JSON lines")
    p_fit.add_argument("--embeddings", required=True, help="embedding file (JSON lines or binary)")
    p_fit.add_argument("--questions", required=True, help="question set JSON lines")
    p_fit.add_argument("--classes", required=True, help="phoneme class table JSON")
    p_fit.add_argument("--model", required=True, help="output model JSON path")
    p_fit.add_argument("--out", help="optional output path for the training set's tags")
    p_fit.add_argument("--trace-csv", help="growth trace CSV path (default: <model>.trace.csv)")
    p_fit.add_argument("--max-leaves", type=int)
    p_fit.add_argument("--components", type=int, dest="m", metavar="COMPONENTS")
    p_fit.add_argument("--min-gain", type=float)
    p_fit.add_argument("--min-leaf", type=int)
    p_fit.add_argument("--var-floor", type=float, dest="floor", metavar="VAR_FLOOR")
    p_fit.add_argument("--seed", type=int)
    # each knob flag's dest is its config field, and its default that field's default
    p_fit.set_defaults(handler=cmd_fit, **vars(TaggerConfig()))

    p_tag = sub.add_parser("tag", help="tag tokens with a fitted model")
    p_tag.add_argument("--model", required=True)
    p_tag.add_argument("--lexicon", required=True)
    p_tag.add_argument("--embeddings", required=True)
    p_tag.add_argument("--out", required=True, help="output tag JSON lines")
    p_tag.set_defaults(handler=cmd_tag)

    p_stats = sub.add_parser("stats", help="report growth curve and per-leaf mixtures")
    p_stats.add_argument("--model", required=True)
    p_stats.add_argument("--out", help="optional growth curve CSV path")
    p_stats.set_defaults(handler=cmd_stats)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus with planted structure")
    p_synth.add_argument("--lexicon", required=True, help="output lexicon path")
    p_synth.add_argument("--questions", required=True, help="output question set path")
    p_synth.add_argument("--classes", required=True, help="output class table path")
    p_synth.add_argument("--embeddings", required=True, help="output embedding path")
    p_synth.add_argument("--ground-truth", required=True, help="output planted-label path")
    p_synth.add_argument("--archetypes", type=int, dest="num_leaf_archetypes", metavar="ARCHETYPES")
    p_synth.add_argument("--words-per-archetype", type=int)
    p_synth.add_argument("--tokens-per-word", type=int)
    p_synth.add_argument("--components", type=int, dest="components_per_archetype", metavar="COMPONENTS")
    p_synth.add_argument("--d", type=int)
    p_synth.add_argument("--separation", type=float, dest="component_separation", metavar="SEPARATION")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument(
        "--class-distinctions",
        action="store_true",
        help="make odd archetypes vowel-initial and add a class question",
    )
    p_synth.add_argument(
        "--binary", action="store_true", help="write embeddings in the binary format"
    )
    p_synth.set_defaults(handler=cmd_synth, **vars(SynthSpec()))

    p_inspect = sub.add_parser("inspect", help="pretty-print a fitted model")
    p_inspect.add_argument("--model", required=True)
    p_inspect.set_defaults(handler=cmd_inspect)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"{PROG}: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (ProsotagError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
