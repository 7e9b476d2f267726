"""A complete command-line session in a temporary directory.

Generates a corpus, fits a model, prints its stats, tags the corpus, and
pretty-prints the tree. Each command is echoed before it runs. Requires the
package to be installed (the console entry point is python -m prosotag.cli
compatible; here we call the module directly).
"""

import subprocess
import sys
import tempfile
from pathlib import Path

# removed with everything in it when the script exits, also on an error
workdir = tempfile.TemporaryDirectory(prefix="prosotag_demo_")
root = Path(workdir.name)
print(f"working in {root}\n")


def run(*args):
    cmd = [sys.executable, "-m", "prosotag.cli", *args]
    print("$ prosotag " + " ".join(args))
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.stdout:
        print(result.stdout, end="")
    if result.returncode != 0:
        print(result.stderr, end="")
        raise SystemExit(result.returncode)
    print()


run(
    "synth",
    "--lexicon", str(root / "lexicon.jsonl"),
    "--questions", str(root / "questions.jsonl"),
    "--classes", str(root / "classes.json"),
    "--embeddings", str(root / "embeddings.jsonl"),
    "--ground-truth", str(root / "truth.jsonl"),
    "--archetypes", "3",
    "--words-per-archetype", "12",
    "--tokens-per-word", "8",
    "--components", "2",
    "--d", "6",
    "--separation", "8.0",
    "--seed", "5",
)

run(
    "fit",
    "--lexicon", str(root / "lexicon.jsonl"),
    "--embeddings", str(root / "embeddings.jsonl"),
    "--questions", str(root / "questions.jsonl"),
    "--classes", str(root / "classes.json"),
    "--model", str(root / "model.json"),
    "--max-leaves", "3",
    "--components", "2",
    "--min-leaf", "10",
    "--seed", "5",
)

run("stats", "--model", str(root / "model.json"))

run(
    "tag",
    "--model", str(root / "model.json"),
    "--lexicon", str(root / "lexicon.jsonl"),
    "--embeddings", str(root / "embeddings.jsonl"),
    "--out", str(root / "tags.jsonl"),
)

run("inspect", "--model", str(root / "model.json"))

print("first three tag records:")
for line in (root / "tags.jsonl").read_text().splitlines()[:3]:
    print("  " + line)
