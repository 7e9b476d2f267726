"""prosotag benchmark: CLI fit/tag round trips on planted corpora.

Run one workload (the last line of output is the result as JSON):

    python3 perfbench/run.py --workload fit_planted --seed 1 --seconds 36 --trace 0

``--trace 0`` times the real CLI (``python -m prosotag.cli`` with
``PYTHONPATH=src``) as child processes and reports the end-to-end metrics of
BENCHMARK.json; CPU time and peak RSS come from ``os.wait4``, and times are
scaled to a reference host speed that ``hostspeed.py`` probes around each
command. ``--trace 1``
runs the same commands in-process under ``traced.py`` and reports the
per-layer metrics. ``--workload all`` runs every workload in turn.
``--out FILE`` appends each result, with its run context, as a JSON line;

    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

compares two such files. Every run checks the outputs: byte-identical model
and tag files across repeats and between traced and untraced runs, one tag
line per token, and an adjusted Rand index of at least 0.9 against the
planted labels. Any miss makes the run fail and exit with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import HostProbe  # noqa: E402
from traced import layer_metrics  # noqa: E402
from workloads import NAMES, Plan, Step, plan  # noqa: E402

SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_REPS = 3  # timed commands per run, at least; wall_s is their median
MAX_REPS = 50
ARI_FLOOR = 0.9  # acceptance criterion 5 of the test suite
DEADLINE_S = 170.0  # a run must end within 180 s
# On a small shared host a second BLAS thread made the fits slower and no
# steadier; the tree and GMM code gains nothing from BLAS parallelism.
BLAS_THREADS = 1


class Failure(Exception):
    """A command failed or an output missed the correctness gate."""


@dataclass
class Usage:
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Run:
    """Tallies of one benchmark run."""

    deadline: float
    env: dict
    log: Path
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def child(self, argv: list[str]) -> Usage:
        """Run a child to completion; its usage comes from ``os.wait4``."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise Failure("run deadline passed")
        with open(self.log, "ab") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise Failure(f"exit code {proc.returncode}: {' '.join(argv[:4])} ... (log {self.log.name})")
        return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def step(self, step: Step) -> Usage:
        kind, args = step
        if kind == "extend":
            return self.child([sys.executable, str(HERE / "extend_questions.py"), *args])
        return self.child([sys.executable, "-m", "prosotag.cli", *args])


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_tags(plan: Plan, run: str) -> float:
    """One tag line per planted token, and the ARI of the tags against them."""
    truth = {}
    with open(plan.corpus.truth, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            truth[obj["token_id"]] = (obj["archetype"], obj["component"])
    if len(truth) != plan.tokens:
        raise Failure(f"ground truth has {len(truth)} tokens, expected {plan.tokens}")
    pairs: Counter = Counter()
    seen = set()
    with open(plan.tags_path(run), encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            token = obj["token_id"]
            if token not in truth or token in seen:
                raise Failure(f"tag line for unknown or repeated token {token!r}")
            seen.add(token)
            pairs[(obj["tag"], truth[token])] += 1
    if len(seen) != len(truth):
        raise Failure(f"{len(seen)} tag lines for {len(truth)} tokens")
    ari = adjusted_rand_index(pairs)
    if ari < ARI_FLOOR:
        raise Failure(f"ARI {ari:.4f} is below {ARI_FLOOR}")
    return ari


def adjusted_rand_index(pairs: Counter) -> float:
    """Pair-counting ARI from a (predicted, true) contingency table."""

    def comb2(counts) -> int:
        return sum(c * (c - 1) // 2 for c in counts)

    rows: Counter = Counter()
    cols: Counter = Counter()
    for (pred, true), count in pairs.items():
        rows[pred] += count
        cols[true] += count
    index = comb2(pairs.values())
    sum_rows, sum_cols = comb2(rows.values()), comb2(cols.values())
    expected = sum_rows * sum_cols / comb2([sum(rows.values())])
    top = (sum_rows + sum_cols) / 2
    return 1.0 if top == expected else (index - expected) / (top - expected)


def setup(run: Run, plan: Plan) -> float:
    """Make the inputs once; returns the wall time."""
    start = perf_counter()
    for step in plan.setup:
        run.step(step)
    return perf_counter() - start


def untraced(run: Run, plan: Plan, seconds: float, probe: HostProbe) -> dict:
    """Set-ups and timed commands alternate in rounds for ``seconds`` in all.

    A host-speed probe runs before the first and after every set-up and
    command; each wall time is scaled by the mean wall factor of the probes
    around it, and each CPU time by their mean CPU factor. The rounds spread
    a slow spell of the host over set-up and command medians alike instead
    of landing on one of them.
    """
    setups: list[tuple[float, tuple[float, float]]] = []  # (wall, host factors)
    usages: list[tuple[Usage, tuple[float, float]]] = []
    spent: list[float] = []  # seconds each command took with its probe
    inputs: list[str] = []
    inputs_digest = reference = None
    factor = probe.factor()

    def between(fn):
        nonlocal factor
        value = fn()
        after = probe.factor()
        around = ((factor[0] + after[0]) / 2, (factor[1] + after[1]) / 2)
        factor = after
        return value, around

    start = perf_counter()
    for round_no in range(1, SETUP_REPS + 1):
        setups.append(between(lambda: setup(run, plan)))
        if not inputs:
            inputs = sorted(str(p) for p in plan.work.iterdir() if p != run.log)
            inputs_digest = digest(inputs)
        elif digest(inputs) != inputs_digest:
            raise Failure("set-up is not deterministic: inputs differ between set-ups")
        share = seconds * round_no / SETUP_REPS
        while len(usages) < MAX_REPS:
            # start a command only if it would end at most half its time past the share
            ahead = statistics.median(spent) / 2 if spent else 0.0
            if len(usages) >= MIN_REPS * round_no // SETUP_REPS and perf_counter() - start + ahead >= share:
                break
            run.attempted += 1
            began = perf_counter()
            usages.append(between(lambda: run.step(("cli", plan.timed("cli")))))
            spent.append(perf_counter() - began)
            made = digest(plan.outputs("cli"))
            if reference is None:
                reference = made
            elif made != reference:
                run.failed += 1
                run.notes.append(f"repeat {len(usages)} wrote different bytes than repeat 1")
    if plan.fits:
        run.step(("cli", plan.tag_argv("cli")))
    ari = check_tags(plan, "cli")
    wall = statistics.median(u.wall / f for u, (f, _) in usages)
    run.notes.append(
        f"{len(usages)} timed commands, raw wall s (host factor): "
        + " ".join(f"{u.wall:.3f} ({f:.2f})" for u, (f, _) in usages)
    )
    run.notes.append("set-up raw wall s (host factor): " + " ".join(f"{w:.3f} ({f:.2f})" for w, (f, _) in setups))
    run.notes.append(
        "raw CPU s (host CPU factor): " + " ".join(f"{u.cpu:.3f} ({c:.2f})" for u, (_, c) in usages)
    )
    run.notes.append(
        f"raw medians: wall {statistics.median(u.wall for u, _ in usages):.4f} s, "
        f"cpu {statistics.median(u.cpu for u, _ in usages):.4f} s, "
        f"set-up {statistics.median(w for w, _ in setups):.4f} s"
    )
    return {
        "wall_s": wall,
        "tokens_per_s": plan.tokens / wall,
        "cpu_s": statistics.median(u.cpu / c for u, (_, c) in usages),
        "peak_rss_mb": statistics.median(u.rss_mb for u, _ in usages),
        "setup_s": statistics.median(w / f for w, (f, _) in setups),
        "ari": ari,
    }


def traced(run: Run, plan: Plan) -> dict:
    """Traced in-process run (which also makes the inputs), then one untraced CLI run."""
    plan_file, spans_file = plan.work / "plan.json", plan.work / "spans.json"
    plan_file.write_text(json.dumps(
        {"setup": plan.setup, "untraced": plan.timed("inproc"), "timed": plan.timed("traced")}
    ))
    run.attempted += 3
    run.child([sys.executable, str(HERE / "traced.py"), str(plan_file), str(spans_file)])
    run.step(("cli", plan.timed("cli")))
    made = {digest(plan.outputs(label)) for label in ("cli", "inproc", "traced")}
    if len(made) != 1:
        raise Failure("traced and untraced runs wrote different bytes")
    if plan.fits:
        run.step(("cli", plan.tag_argv("cli")))
    check_tags(plan, "cli")
    metrics = layer_metrics(json.loads(spans_file.read_text()))
    metrics["src.lines"] = sum(
        len(p.read_bytes().splitlines()) for p in (ROOT / "src" / "prosotag").rglob("*.py")
    )
    return metrics


def blas_info() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes

    import numpy  # noqa: F401  loads the BLAS library into this process

    info: dict = {"numpy": numpy.__version__}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            info["openblas"] = config().decode()
            info["blas_threads"] = threads()
            return info
    return info


def run_context(seed: int, nproc: int, factors: list[tuple[float, float]]) -> dict:
    from importlib import metadata

    def spread(values: list[float]) -> list[float]:
        return [min(values), statistics.median(values), max(values)] if values else []

    ctx = {
        "python": platform.python_version(),
        "scipy": metadata.version("scipy"),
        "nproc": nproc,
        "seed": seed,
        "host_factor": spread([f for f, _ in factors]),
        "host_cpu_factor": spread([c for _, c in factors]),
    }
    ctx.update(blas_info())
    return ctx


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0))
    env = child_env()
    os.environ["OPENBLAS_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"]
    probe = HostProbe(env, str(ROOT))
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(deadline=perf_counter() + DEADLINE_S, env=env, log=work / "commands.log")
    p = plan(name, seed, work)
    metrics: dict = {}
    try:
        if trace:
            probe.factor()
            metrics = traced(run, p)
            probe.factor()
        else:
            metrics = untraced(run, p, seconds, probe)
    except (Failure, subprocess.SubprocessError) as exc:
        run.failed = max(run.attempted, 1)
        run.attempted = max(run.attempted, 1)
        run.notes.append(f"FAILED: {exc}")
        log_tail = run.log.read_text(errors="replace")[-2000:] if run.log.exists() else ""
        if log_tail:
            run.notes.append("command log tail:\n" + log_tail)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ctx = run_context(seed, nproc, probe.factors)
    if ctx.get("blas_threads", 0) > nproc:
        run.failed = max(run.failed, 1)
        run.notes.append(f"FAILED: {ctx['blas_threads']} BLAS threads on {nproc} CPUs")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
        "metrics": metrics,
        "notes": run.notes,
        "context": ctx,
    }


# ---------------------------------------------------------------------------
# reporting


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_specs(trace: bool) -> list[dict]:
    return spec()["per_layer" if trace else "end_to_end"]


def print_result(result: dict) -> None:
    units = {m["name"]: m["unit"] for m in metric_specs(bool(result["trace"]))}
    print(f"== {result['workload']} seed {result['seed']} trace {result['trace']}")
    for note in result["notes"]:
        print(f"  {note}")
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    print(f"  failed_frac = {result['failed_frac']:.6g} ({result['failed']} of {result['attempted']})")
    print("  context: " + json.dumps(result["context"]))


def summary_line(result: dict) -> str:
    units = {m["name"]: m["unit"] for m in metric_specs(bool(result["trace"]))}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": result["metrics"][name], "unit": unit}
                for name, unit in units.items()
                if name in result["metrics"]
            },
        }
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(before_path: str, after_path: str) -> int:
    """One row per workload and end-to-end metric, by the rules of a gain claim."""

    def load(path: str) -> list[dict]:
        rows = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
        return [r for r in rows if r["trace"] == 0]

    before, after = load(before_path), load(after_path)
    header = f"{'workload':<12} {'metric':<13} {'before q1/med/q3':>28} {'after q1/med/q3':>28} {'won':>7}  verdict"
    print(header)
    for name in NAMES:
        a_all = [r for r in before if r["workload"] == name]
        b_all = [r for r in after if r["workload"] == name]
        a_runs = [r for r in a_all if r["correct"]]
        b_runs = [r for r in b_all if r["correct"]]
        if a_all or b_all:
            print(f"{name:<12} failed commands: before {sum(r['failed'] for r in a_all)} of "
                  f"{sum(r['attempted'] for r in a_all)}, after {sum(r['failed'] for r in b_all)} of "
                  f"{sum(r['attempted'] for r in b_all)}")
        if not a_runs or not b_runs:
            print(f"{name:<12} (no runs on {'both sides' if not a_runs and not b_runs else 'one side'})")
            continue
        for m in metric_specs(False):
            metric, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            a = [r["metrics"][metric] for r in a_runs]
            b = [r["metrics"][metric] for r in b_runs]
            a_seed = {r["seed"]: r["metrics"][metric] for r in a_runs}
            pairs = [(a_seed[r["seed"]], r["metrics"][metric]) for r in b_runs if r["seed"] in a_seed]
            if not pairs:
                pairs = list(zip(a, b))
            won = sum(1 for x, y in pairs if (y < x if lower else y > x))
            qa, qb = quartiles(a), quartiles(b)
            spread = qa[2] - qa[0]
            worse = (qb[1] - qa[1]) if lower else (qa[1] - qb[1])
            all_better = all((y < min(a)) if lower else (y > max(a)) for y in b)
            if spread > bound * abs(qa[1]) and not all_better:
                verdict = "unresolved"
            elif worse > bound * abs(qa[1]):
                verdict = "worse"
            elif won >= 0.9 * len(pairs) and -worse > spread:
                verdict = "better"
            else:
                verdict = "no change"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:<12} {metric:<13} {fmt(qa):>28} {fmt(qb):>28} {won:>3}/{len(pairs):<3}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result with its context as a JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    # a terminated run still kills its running child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "prosotag" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'prosotag'}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    names = NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
        results.append(result)
    if len(results) == 1:
        print(summary_line(results[0]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": value
                for r in results
                for name, value in json.loads(summary_line(r))["metrics"].items()
            },
        }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
