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
from json.encoder import encode_basestring_ascii
from typing import Iterator, Sequence

from ._io import write_bytes
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


TAG_CHUNK_LINES = 4096  # tag lines encoded and written at a time


def _format_tags(
    model: TaggerModel, lexicon: Sequence[WordEntry], samples: Sequence[ProsodySample]
) -> Iterator[bytearray]:
    """One JSON line per token, as ``json.dumps`` writes it, in token order.

    The tokens are tagged here. The lines come as chunks of
    ``TAG_CHUNK_LINES`` lines, each encoded when it is asked for, one line at
    a time, so no more than one chunk of the output is built at once. Each
    word's text after the token id is escaped once, not once per token.
    """
    corpus = Corpus.of(samples)
    leaves, components = tag_tokens(model, lexicon, corpus)
    width = max(gmm.m for gmm in model.gmms.values())
    tails = [f', "word": {encode_basestring_ascii(word)}, "tag": "' for word in corpus.words]
    tags = [f'{letter}{k}"}}\n' for letter in model.tree.leaf_letters for k in range(width)]

    def chunk(start: int) -> bytearray:
        stop = start + TAG_CHUNK_LINES
        text = bytearray()
        for token_id, word, tag in zip(
            corpus.token_ids[start:stop],
            corpus.word_index[start:stop].tolist(),
            (leaves[start:stop] * width + components[start:stop]).tolist(),
        ):
            line = f'{{"token_id": {encode_basestring_ascii(token_id)}{tails[word]}{tags[tag]}'
            text += line.encode()  # ASCII, as every part is
        return text

    return map(chunk, range(0, len(corpus), TAG_CHUNK_LINES))


def cmd_fit(args: argparse.Namespace) -> int:
    classes = load_classes(args.classes)
    questions = load_questions(args.questions, classes)
    lexicon = load_lexicon(args.lexicon)
    samples = load_samples(args.embeddings)
    config = TaggerConfig(
        m=args.components,
        max_leaves=args.max_leaves,
        min_gain=args.min_gain,
        min_leaf=args.min_leaf,
        floor=args.var_floor,
        seed=args.seed,
    )
    model = fit(lexicon, samples, questions, classes, config)
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
    spec = SynthSpec(
        num_leaf_archetypes=args.archetypes,
        words_per_archetype=args.words_per_archetype,
        tokens_per_word=args.tokens_per_word,
        components_per_archetype=args.components,
        d=args.d,
        component_separation=args.separation,
        seed=args.seed,
        class_distinctions=args.class_distinctions,
    )
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
    p_fit.add_argument("--max-leaves", type=int, default=TaggerConfig.max_leaves)
    p_fit.add_argument("--components", type=int, default=TaggerConfig.m)
    p_fit.add_argument("--min-gain", type=float, default=TaggerConfig.min_gain)
    p_fit.add_argument("--min-leaf", type=int, default=TaggerConfig.min_leaf)
    p_fit.add_argument("--var-floor", type=float, default=TaggerConfig.floor)
    p_fit.add_argument("--seed", type=int, default=TaggerConfig.seed)
    p_fit.set_defaults(handler=cmd_fit)

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
    p_synth.add_argument("--archetypes", type=int, default=SynthSpec.num_leaf_archetypes)
    p_synth.add_argument("--words-per-archetype", type=int, default=SynthSpec.words_per_archetype)
    p_synth.add_argument("--tokens-per-word", type=int, default=SynthSpec.tokens_per_word)
    p_synth.add_argument("--components", type=int, default=SynthSpec.components_per_archetype)
    p_synth.add_argument("--d", type=int, default=SynthSpec.d)
    p_synth.add_argument("--separation", type=float, default=SynthSpec.component_separation)
    p_synth.add_argument("--seed", type=int, default=SynthSpec.seed)
    p_synth.add_argument(
        "--class-distinctions",
        action="store_true",
        help="make odd archetypes vowel-initial and add a class question",
    )
    p_synth.add_argument(
        "--binary", action="store_true", help="write embeddings in the binary format"
    )
    p_synth.set_defaults(handler=cmd_synth)

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
    except ProsotagError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
